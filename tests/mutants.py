"""A table of source mutants, each of which some named test must kill.

Run from anywhere: ``python tests/mutants.py``.  Pytest does not collect
this file: its name does not start with ``test_``.

Each row of ``MUTANTS`` is ``(id, file under src/treeorder, old, new, tests)``.  For each
row the runner copies ``src/`` to a temporary directory, requires ``old`` to
occur exactly once in the file, replaces it by ``new`` and runs
``python -m pytest -x -q`` on the row's tests with the copy first on
``PYTHONPATH``.  The tests must fail: a mutant whose tests pass survives.
Before the rows, the tests of every row run once against the
unmutated copy and must pass, so a kill means the mutant was seen.  A
stale site (``old`` missing or repeated), a surviving mutant or a failing
unmutated run names its row and exits 1; otherwise the runner exits 0.
``EQUIVALENT`` lists mutants that change no answer, each with its reason:
their sites must occur exactly once, and they are not run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    # the cone sweep: condition (1) reads U and L at w^-1 with an AND, so a
    # w in U whose inverse is in L no longer counts as one piece apart
    ("inverse-checks-and", "grouporder.py",
     "((u ^ ui) | (l ^ li))", "((u ^ ui) & (l ^ li))",
     ["tests/test_grouporder.py"]),
    # the free-group sweep counts no product of a block
    ("freesweep-no-escape", "freesweep.py",
     "if any(map(and_, gpats, map(blocks.__getitem__, heads))):", "if False:",
     ["tests/test_cone_fuzz.py"]),
    # the inverse of each generator's first letter is taken as itself
    ("free-inverse-a-fixed", "freesweep.py",
     "[1 + (d ^ 1) for d in range(D)]", "[1 + (d ^ (d > 1)) for d in range(D)]",
     ["tests/test_orbitorder.py::test_a_twisted_cone_keeps_its_verdicts_and_moves_its_ball_poset"]),
    # Z^k codes of distinct vectors in the double ball coincide
    ("zk-codes-collide", "groups.py",
     "base = 4 * r + 1", "base = 2 * r + 1",
     ["tests/test_cone_fuzz.py"]),
    # the ball poset reads each row's bits from the wrong end
    ("ball-rows-reversed", "grouporder.py",
     "text = codes[::-1]  # bit j of a row is ball[j]", "text = codes",
     ["tests/test_grouporder.py"]),
    # the chain test drops the member's own bit, so no member compares with itself
    ("chain-own-bit", "poset.py",
     "if mask & ~(self._comp[k] | (1 << k)):", "if mask & ~self._comp[k]:",
     ["tests/test_poset.py::test_a_chain_test_visits_only_members_short_of_a_comparability"]),
    # the chain test visits the members that compare with everything instead
    ("chain-visits-total-members", "poset.py",
     "if c | 1 << k != (1 << self.n) - 1)", "if c | 1 << k == (1 << self.n) - 1)",
     ["tests/test_poset.py::test_a_chain_test_visits_only_members_short_of_a_comparability"]),
    # the chain test reads upward comparabilities only
    ("chain-up-only", "poset.py",
     "if mask & ~(self._comp[k] | (1 << k)):", "if mask & ~(self._up[k] | (1 << k)):",
     ["tests/test_poset.py::test_a_chain_test_visits_only_members_short_of_a_comparability"]),
    # the chain test skips its first partial member; on a valid poset an
    # incomparable partner is in the mask too and finds it, so only a
    # comparability memo corrupted on one side tells
    ("chain-skips-first-partial", "poset.py",
     "for k in _bits(mask & self._partial):", "for k in list(_bits(mask & self._partial))[1:]:",
     ["tests/test_poset.py::test_classes_that_are_not_travel_intervals_raise"]),
    # between members come in reverse travel order
    ("travel-order-reversed", "poset.py",
     "key=lambda k: seen[k].bit_count())", "key=lambda k: -seen[k].bit_count())",
     ["tests/test_poset.py"]),
    # B(i, j) of downward-similar i, j misses the members below j only
    ("between-rows-siml-one-sided", "poset.py",
     "inner = siml[i] & down[j] | siml[j] & down[i]", "inner = siml[i] & down[j]",
     ["tests/test_poset.py"]),
    # two tags touch across a between set of three
    ("touch-across-three", "treebuild.py",
     "p._between_mask(p.index(g), p.index(h)).bit_count() == 2",
     "p._between_mask(p.index(g), p.index(h)).bit_count() <= 3",
     ["tests/test_treebuild.py"]),
    # every gap passes the gap check
    ("gap-check-blind", "treebuild.py",
     "    return any(a[1] == PLAIN and", "    return True or any(a[1] == PLAIN and",
     ["tests/test_treebuild.py"]),
    # labels that share a point are never flagged, touching or not
    ("identity-check-blind", "treebuild.py",
     "            if not r_equivalent(p, u, v):\n                id_violations.append(",
     "            if False:\n                id_violations.append(",
     ["tests/test_treebuild.py"]),
    # a stage is glued without checking that x is its one built member
    ("single-point-gluing-unchecked", "treebuild.py",
     "    if inter != [x]:", "    if False:",
     ["tests/test_treebuild.py::test_each_refusal_of_the_construction_is_pinned"]),
    # a star stage runs for every element, built or not
    ("star-every-y-a-stage", "treebuild.py",
     "if y not in built:", "if True:",
     ["tests/test_treebuild.py"]),
    # a star stage glues at the nearest built member of B(base, y), the base
    ("star-glues-at-base", "treebuild.py",
     "for m in reversed(members) if m in built", "for m in members if m in built",
     ["tests/test_treebuild.py"]),
    # a negative stage count is sliced again
    ("negative-stages-laid", "treebuild.py",
     "if stages is not None and stages < 0:", "if stages is not None and stages < -1:",
     ["tests/test_treebuild.py::test_each_refusal_of_the_construction_is_pinned"]),
    # the slot rule: each tag toward y shares its member's plain slot
    ("slot-tags-onto-plain", "treebuild.py",
     "coords[2 * (t // 3) + t % 3]", "coords[2 * (t // 3) + (t % 3 > 0)]",
     ["tests/test_treebuild.py"]),
    # the slot rule: each class spans one slot too many
    ("class-slots-one-more", "treebuild.py",
     "2 * len(members) + 1)", "2 * len(members) + 2)",
     ["tests/test_treebuild.py"]),
    # the slot rule: a stage glues at x's plain label, not its tag toward y
    ("glue-at-plain-slot", "treebuild.py",
     "idx, glue = len(state.lows), coords[2]", "idx, glue = len(state.lows), coords[1]",
     ["tests/test_treebuild.py"]),
    # the slot rule: y's outer tag is its tag toward x, laid again
    ("y-outer-tag-inward", "treebuild.py",
     "-side_toward(p, y, x)", "side_toward(p, y, x)",
     ["tests/test_treebuild.py"]),
    # every member's tags are laid minus first, whichever way they face
    ("member-tags-unfaced", "treebuild.py",
     "out += ((m, -t), (m, PLAIN), (m, t))", "out += ((m, MINUS), (m, PLAIN), (m, PLUS))",
     ["tests/test_treebuild.py"]),
    # an extra tag on a path passes without touching a label of the between set
    ("extra-tag-never-flagged", "treebuild.py",
     "elif not any(r_equivalent(p, c, d) for d in expected):", "elif False:",
     ["tests/test_treebuild.py::test_swapped_tags_put_path_labels_out_of_order",
      "tests/test_treebuild.py::test_a_plain_label_on_a_tag_point_strands_the_tags_it_passes"]),
    # the base's plus tag is laid short of the end of interval 0
    ("base-at-four-slots", "treebuild.py",
     "_slot_coords(0, 3)", "_slot_coords(0, 4)",
     ["tests/test_treebuild.py::test_the_base_is_laid_as_one_class_by_the_slot_rule"]),
    # a build of k stages lays one stage more
    ("short-build-one-stage-more", "treebuild.py",
     "normalize_decomposition(poset)[:stages]", "normalize_decomposition(poset)[:stages if stages is None else stages + 1]",
     ["tests/test_treebuild.py::test_a_short_build_is_a_prefix_of_the_full_build"]),
    # the pipeline lays every stage whatever the count asked for
    ("pipeline-builds-every-count-full", "orbitorder.py",
     "self._per_stages[step, stages] = make(stages)", "self._per_stages[step, stages] = make(None)",
     ["tests/test_treebuild.py::test_a_short_build_is_a_prefix_of_the_full_build"]),
    # a unit takes the direction of its first plain label, whatever the others say
    ("direction-agreement-unchecked", "treebuild.py",
     "if directions.setdefault((i, unit), want) != want:",
     "if directions.setdefault((i, unit), want) != want and False:",
     ["tests/test_treebuild.py::test_each_refusal_of_the_layout_is_pinned[direction-disagrees]"]),
    # an arc in a unit without plain labels is directed backward
    ("unlabelled-unit-directed", "treebuild.py",
     "if direction is None:", "if False:",
     ["tests/test_treebuild.py::test_each_refusal_of_the_layout_is_pinned[no-interior-label]"]),
    # a plain label on a node is taken as an orbit point
    ("junction-label-accepted", "orbitorder.py",
     'if pt[0] != "arc":', "if False:",
     ["tests/test_orbitorder.py::test_each_refusal_of_the_orbit_layer_is_pinned[plain-label-on-a-node]"]),
    # an identified arc graph with a cycle is ordered as if it were a tree
    ("cyclic-arc-graph-accepted", "ordertree.py",
     "if index.cyclic or index.components != 1:", "if index.components != 1:",
     ["tests/test_orbitorder.py::test_each_refusal_of_the_orbit_layer_is_pinned[arc-graph-not-a-tree]"]),
    # a point node sits at the head of its out-ray and the tail of its in-ray
    ("node-point-ends-swapped", "ordertree.py",
     "return (outs[0], 0) if outs else (ins[0], 1)",
     "return (outs[0], 1) if outs else (ins[0], 0)",
     ["tests/test_ordertree.py::test_a_point_node_sits_at_the_tail_of_its_out_ray_and_the_head_of_its_in_ray"]),
    # points on arcs facing each other compare as back to back, and conversely
    ("arc-order-similarity-swapped", "ordertree.py",
     "return SIMU if forward else SIML", "return SIML if forward else SIMU",
     ["tests/test_orbitorder.py"]),
    # the certificate accepts a comparability that one side alone holds
    ("certificate-one-sided", "corpus.py",
     "            if (ci >> j ^ comp[j] >> i) & 1:\n                return False\n", "",
     ["tests/test_poset.py::test_the_certificate_refuses_a_comparability_seen_from_one_side"]),
    # a round trip passes at seven tenths pair coverage
    ("roundtrip-coverage-seven-tenths", "orbitorder.py",
     "pair_coverage * 10 >= 9", "pair_coverage * 10 >= 7",
     ["tests/test_cli.py::test_a_round_trip_below_nine_tenths_pair_coverage_fails_everywhere"]),
    # a coset pair witnessed by two relations is not a uniqueness violation
    ("quotient-two-relations-unflagged", "quotient.py",
     "if len(found) > 1:", "if len(found) > 2:",
     ["tests/test_quotient_fuzz.py::test_random_sides_scan_like_the_pairwise_oracles"]),
    # a non-representative that sees two relations passes if one is its representative's
    ("quotient-representative-dependence-unchecked", "quotient.py",
     "if rel[(rep, other)] not in found or len(found) > 1:", "if rel[(rep, other)] not in found:",
     ["tests/test_quotient_fuzz.py::test_random_sides_scan_like_the_pairwise_oracles"]),
    # a spec document's unknown fields are read past
    ("spec-unknown-fields-accepted", "specio.py",
     "unknown = obj.keys() - required - optional", "unknown = ()",
     ["tests/test_specio.py"]),
]

# Mutants that change no answer, each as (id, file, old, new, reason).  Their
# sites must occur exactly once; they are not run.
EQUIVALENT = [
    ("split-reads-outs", "ordertree.py",
     "if len(ins) == 1 else (outs[0]", "if len(outs) != 1 else (outs[0]",
     "split always gets non-empty ins and outs, and at most one side has two or more rays"),
    ("inner-faces-back-toward-x", "treebuild.py",
     "t = side_toward(p, m, y) if m != y else",
     "t = (side_toward(p, m, y) if m == x else -side_toward(p, m, x)) if m != y else",
     "an inner member of B(x, y) lies between x and y, so its tags toward them are opposite: "
     "each way it lies between puts exactly one of x, y above or upward-similar to it"),
]


def _pytest(src: Path, tests: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=ROOT, env=env, capture_output=True, text=True)


def _copy(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _stale(ident: str, name: str, old: str, text: str) -> list:
    count = text.count(old)
    return [] if count == 1 else [(ident, f"stale site: {old!r} occurs {count} times in {name}")]


def run(rows: list) -> list:
    """The failures as (row id, reason), after the unmutated run and each row."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="treeorder-mutants-") as tmp:
        every = list(dict.fromkeys(t for row in rows for t in row[4]))
        done = _pytest(_copy(Path(tmp) / "clean"), every)
        if done.returncode != 0:
            return [("unmutated", "the tests fail before any mutation:\n" + done.stdout[-2000:])]
        for ident, name, old, new, tests in rows:
            started = time.perf_counter()
            src = _copy(Path(tmp) / ident)
            path = src / "treeorder" / name
            text = path.read_text()
            stale = _stale(ident, name, old, text)
            if stale:
                failures += stale
                continue
            path.write_text(text.replace(old, new))
            done = _pytest(src, tests)
            verdict = {0: "survived", 1: "killed"}.get(done.returncode, f"pytest exited {done.returncode}")
            print(f"{ident}: {verdict} ({time.perf_counter() - started:.1f} s)", flush=True)
            if verdict != "killed":
                failures.append((ident, f"{verdict} on {' '.join(tests)}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"))
    return failures


def main() -> int:
    stale = [f for ident, name, old, _new, _reason in EQUIVALENT
             for f in _stale(ident, name, old, (ROOT / "src" / "treeorder" / name).read_text())]
    failures = run(MUTANTS)
    for ident, reason in stale + failures:
        print(f"FAIL {ident}: {reason}", file=sys.stderr)
    if not failures or failures[0][0] != "unmutated":
        print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if stale or failures else 0


if __name__ == "__main__":
    sys.exit(main())
