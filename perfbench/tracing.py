"""Per-layer spans around the public functions of each treeorder module.

Run as a job wrapper:

    python3 perfbench/tracing.py OUT.json cli ARGS...   # treeorder CLI
    python3 perfbench/tracing.py OUT.json law ARGS...   # lawjob.py

The job's stdout and exit status are those of the wrapped job.  OUT.json gets
the job's per-layer self time, per-name call counts and inclusive time, and
the work counts.  Spans stay in memory until the job ends.

Wrapping happens from outside the library: each target function is replaced
by a recording wrapper in its own module or class, and in every treeorder
module that imported it by name, so spans nest across layers.  Hot
per-element calls (``mult``, ``rel``, ``classify``, cone predicates) stay
unwrapped; their time counts toward the span that calls them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

LAYERS = ("groups", "grouporder", "poset", "corpus", "treebuild", "ordertree",
          "orbitorder", "catalog", "specio", "cli")

# layer -> attribute paths inside treeorder.<layer>
TARGETS = {
    "groups": ["Z.ball", "Zk.ball", "FreeGroup.ball", "InfiniteDihedral.ball", "TableGroup.ball",
               "make_group"],
    "grouporder": ["verify_cone_axioms", "induced_ball_poset", "blow_up_gplus", "check_augmented_between",
                   "check_no_singleton_classes", "check_completely_convex", "quotient_order"],
    "poset": ["ExtendedPoset.__init__", "ExtendedPoset.between_set", "ExtendedPoset.between_members",
              "ExtendedPoset.verify_between_theorem", "ExtendedPoset.check_lemma_propagation",
              "ExtendedPoset.verify_o_equivalence", "ExtendedPoset.check_strongly_connected",
              "ExtendedPoset.restrict", "ExtendedPoset.relations_table", "from_pairs"],
    "corpus": ["all_extended_posets", "count_base_orders", "random_tree_poset", "tree_corpus",
               "run_relation_suite", "run_corpus_suite"],
    "treebuild": ["build_from_cones", "build_tree", "normalize_decomposition", "auto_pairs", "build_stage",
                  "orient_segments", "verify_stage_properties", "act_on_labels", "_path_points"],
    "ordertree": ["denjoy_blowup", "check_blowup", "alternating_line_tree", "OrderTree.check_axioms"],
    # manifold_order runs once per pair, but each call is a 0.1-1 ms graph search
    "orbitorder": ["orbit_poset", "orbit_points", "manifold_order", "manifold_graph", "roundtrip_orbit",
                   "label_action", "check_action", "stabilizer_extension_order", "realized_bound",
                   "dihedral_example", "shift_action", "integer_line"],
    "catalog": ["get_cone", "get_subgroup", "get_tree", "get_action_scenario", "get_example",
                "get_quotient_scenario", "run_gplus_suite", "run_build_suite", "run_roundtrip_suite",
                "run_blowup_suite", "run_quotient_suite", "run_orbit_suite", "derive_cone_pieces"],
    "specio": ["load_document", "parse_document", "cone_from_document", "poset_from_document",
               "poset_to_document", "tree_from_document", "tree_to_document", "tree_to_dot",
               "canonical_json"],
    "cli": ["main"],
}

# work counts a trace reports, zero when the job does no such work
COUNTS = ("groups.ball_elements", "groups.products", "grouporder.sweeps", "grouporder.ball_posets",
          "grouporder.products_skipped", "poset.pairs_classified", "poset.constructed", "poset.rejected",
          "poset.between_sets", "poset.between_s", "corpus.candidates", "corpus.kept", "treebuild.builds",
          "treebuild.stages", "treebuild.verify_s", "treebuild.path_pairs", "ordertree.blowups",
          "ordertree.manifold_arcs", "orbitorder.pairs", "orbitorder.escaped")

# span record fields
LAYER, NAME, PARENT, START, END, DETACHED = range(6)


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus the part of its interval
    that its attached child spans cover, minus the full duration of its
    detached children (work replayed after the job, see Tracer.replay)."""
    attached: dict = {}
    detached: dict = {}
    for rec in spans:
        if rec[PARENT] < 0:
            continue
        if rec[DETACHED]:
            detached[rec[PARENT]] = detached.get(rec[PARENT], 0.0) + rec[END] - rec[START]
        else:
            attached.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for idx, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered = 0.0
        reach = lo
        for s, e in sorted(attached.get(idx, ())):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out.append(hi - lo - covered - detached.get(idx, 0.0))
    return out


def _sum_product_checks(report, field: str) -> int:
    return sum(getattr(report.conditions[i], field) for i in (2, 3, 4, 5))


class Tracer:
    """Records spans and work counts for one job."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter(dict.fromkeys(COUNTS, 0))
        self.orbit: list = []     # (radius, inclusive seconds, pairs) per orbit_poset call
        self._replays: list = []  # (parent span, function, args)

    # -- hooks: work counts from call tallies and returned reports -----------

    def _after(self, key: str, args: tuple, result, ok: bool, rec: list) -> None:
        c = self.counts
        dur = rec[END] - rec[START]
        if key.endswith(".ball") and ok:
            c["groups.ball_elements"] += len(result)
        elif key == "grouporder.verify_cone_axioms" and ok:
            c["grouporder.sweeps"] += 1
            c["groups.products"] += _sum_product_checks(result, "checked")
            c["grouporder.products_skipped"] += _sum_product_checks(result, "skipped")
        elif key == "grouporder.induced_ball_poset":
            c["grouporder.ball_posets"] += 1
        elif key == "poset.ExtendedPoset.__init__":
            n = len(getattr(args[0], "elements", ()))
            c["poset.pairs_classified"] += n * (n - 1)
            c["poset.constructed" if ok else "poset.rejected"] += 1
            parent = self.spans[rec[PARENT]] if rec[PARENT] >= 0 else None
            if parent is not None and parent[NAME] == "corpus.all_extended_posets":
                c["corpus.candidates"] += 1
                c["corpus.kept"] += ok
        elif key == "poset.ExtendedPoset.between_set":
            c["poset.between_sets"] += 1
            c["poset.between_s"] += dur
        elif key in ("treebuild.build_from_cones", "treebuild.build_tree"):
            c["treebuild.builds"] += 1
            if ok:
                c["treebuild.stages"] += len(result.stages_done)
        elif key == "treebuild.verify_stage_properties":
            c["treebuild.verify_s"] += dur
        elif key == "treebuild._path_points":
            c["treebuild.path_pairs"] += 1
        elif key == "ordertree.denjoy_blowup" and ok:
            c["ordertree.blowups"] += 1
            c["ordertree.manifold_arcs"] += len(result.arcs)
        elif key == "orbitorder.orbit_poset" and ok:
            n = len(result.realized)
            c["orbitorder.pairs"] += n * (n - 1) // 2
            c["orbitorder.escaped"] += len(result.escaped)
            self.orbit.append((args[3], dur, n * (n - 1) // 2))

    # -- wrapping -----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        spans, stack, clock, after = self.spans, self.stack, self.clock, self._after
        key = f"{layer}.{name}"

        def traced(*args, **kwargs):
            rec = [layer, key, stack[-1] if stack else -1, clock(), 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                rec[END] = clock()
                stack.pop()
                after(key, args, result, ok, rec)

        traced.__wrapped__ = fn
        return traced

    def defer(self, fn):
        """Wrap a generator function whose items are consumed lazily inside a
        caller's loop: record the call, hand back the real generator, and
        time the same call on its own in replay()."""
        def deferred(*args):
            self._replays.append((self.stack[-1] if self.stack else -1, fn, args))
            return fn(*args)

        deferred.__wrapped__ = fn
        return deferred

    def replay(self) -> None:
        for parent, fn, args in self._replays:
            start = self.clock()
            for _ in fn(*args):
                pass
            self.spans.append(["groups", "groups.FreeGroup.bounded_products", parent, start, self.clock(), True])
        self._replays.clear()

    def install(self, *callers) -> None:
        """Patch every target in place; call after importing treeorder.
        ``callers`` are modules outside treeorder whose imported names are
        patched as well."""
        modules = [importlib.import_module(f"treeorder.{m}") for m in LAYERS] + list(callers)
        replaced: dict = {}
        for layer, paths in TARGETS.items():
            mod = sys.modules[f"treeorder.{layer}"]
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                original = owner.__dict__[attr] if owner_name else getattr(mod, attr)
                wrapped = self.wrap(layer, path, original)
                setattr(owner, attr, wrapped)
                replaced[id(original)] = wrapped
        groups = sys.modules["treeorder.groups"]
        groups.FreeGroup.bounded_products = self.defer(groups.FreeGroup.__dict__["bounded_products"])
        # names imported from another module still point at the original
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and not attr.startswith("__"):
                    setattr(mod, attr, replaced[id(value)])
        catalog = sys.modules["treeorder.catalog"]
        for entry in catalog.EXAMPLES:
            entry.run = self.wrap("catalog", f"example.{entry.name}", entry.run)

    def summary(self, import_s: float) -> dict:
        layers = dict.fromkeys(LAYERS, 0.0)
        names: dict = {}
        for rec, own in zip(self.spans, self_times(self.spans)):
            layers[rec[LAYER]] += own
            calls, incl = names.get(rec[NAME], (0, 0.0))
            names[rec[NAME]] = (calls + 1, incl + rec[END] - rec[START])
        return {
            "import_s": import_s,
            "self_s": layers,
            "counts": dict(sorted(self.counts.items())),
            "names": {k: list(v) for k, v in sorted(names.items())},
            "orbit": self.orbit,
        }


def main(argv: list) -> int:
    out, kind, *args = argv
    sys.path.insert(0, str(SRC_DIR))
    start = time.perf_counter()
    if kind == "cli":
        import treeorder.cli as entry
    else:
        import lawjob as entry
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(entry)
    code = entry.main(args)
    sys.stdout.flush()
    tracer.replay()
    Path(out).write_text(json.dumps(tracer.summary(import_s)))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
