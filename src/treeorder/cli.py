"""Batch driver: load spec documents, run checks, emit reports and artifacts.

Exit status contract: 0 when every check passed, 1 when a check failed
(witnesses are printed), 2 for malformed specs or usage errors.  Counts of
undetermined items are always printed; they affect the exit status only in
a round trip, which fails when less than 9/10 of the ball's pairs are
realized (the report's ``ok``, which ``roundtrip`` and ``examples run`` both
read).  Reports are deterministic: fixed iteration orders, no timestamps, so
the same spec and flags give byte-identical output.

Each command imports the layers it runs when it runs, so a cone check or a
non-convex quotient loads no tree code, ``poset`` or ``fractions``, and
``examples list`` loads no group code either; the exit-status error classes
and ``jsonable``, which prints report values, come from ``errors``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .errors import CHECK_ERRORS, SPEC_ERRORS, PosetError, SpecError, jsonable


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="treeorder",
        description="checks and constructions for orders, trees, and actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, radius=True, stages=False, emit=False):
        if radius:
            p.add_argument("--radius", type=int, default=6, help="ball radius (default 6)")
        if stages:
            p.add_argument("--stages", type=int, default=6, help="construction stages (default 6)")
        if emit:
            p.add_argument("--emit", choices=["dot", "json"], help="print the artifact instead of the report")
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("check-cones", help="verify the cone axioms of a group order")
    p.add_argument("spec", help="spec file or builtin cone name")
    common(p)

    p = sub.add_parser("check-poset", help="validate a poset document and its relation laws")
    p.add_argument("spec", help="poset spec file")
    common(p, radius=False)

    p = sub.add_parser("build-tree", help="run the stagewise tree construction")
    p.add_argument("spec", help="spec file or builtin cone name")
    common(p, stages=True, emit=True)

    p = sub.add_parser("blowup", help="blow a tree up into a branchless manifold")
    p.add_argument("spec", help="tree spec file or builtin tree name")
    common(p, emit=True)

    p = sub.add_parser("orbit-order", help="pull the manifold order back along an orbit")
    p.add_argument("scenario", help="scenario spec file or builtin scenario name")
    common(p)

    p = sub.add_parser("quotient", help="order the cosets of a convex normal subgroup")
    p.add_argument("spec", help="spec file or builtin cone name")
    p.add_argument("--subgroup", required=True, help="builtin subgroup name")
    common(p)

    p = sub.add_parser("roundtrip", help="compare the rebuilt orbit order with the ball order")
    p.add_argument("spec", help="spec file or builtin cone name")
    common(p)

    p = sub.add_parser("examples", help="list or run the example catalog")
    p.add_argument("action", choices=["list", "run"])
    p.add_argument("name", nargs="?", help="example name (for run)")
    p.add_argument("--radius", type=int, default=None, help="override the example radius")
    p.add_argument("--json", action="store_true", help="machine-readable report")

    args = parser.parse_args(argv)
    for name in ("radius", "stages"):
        if (getattr(args, name, None) or 0) < 0:
            parser.error(f"--{name} must not be negative")
    return args


def _names_file(spec: str) -> bool:
    """Whether a spec argument is read as a file rather than a builtin name."""
    return os.path.exists(spec) or spec.endswith(".json")


def _load_cone(spec: str):
    from .catalog import BUILTIN_CONES, get_cone

    if _names_file(spec):
        from .specio import cone_from_document, load_document

        return cone_from_document(load_document(spec))
    if spec in BUILTIN_CONES:
        return get_cone(spec)
    raise SpecError(f"{spec!r} is neither a spec file nor a builtin cone name")


def _finish(args, ok: bool, lines: list, payload, poset=None, fmt=None) -> int:
    """Print the report with its verdict line, or the JSON payload under
    ``--json``, which alone carries the document of ``poset`` (its elements
    written by ``fmt``); the exit status is 0 when ``ok``, else 1."""
    if args.json:
        from .specio import canonical_json, poset_to_document

        if poset is not None:
            payload["poset"] = poset_to_document(poset, fmt=fmt)
        sys.stdout.write(canonical_json(jsonable(payload)))
    else:
        print("\n".join(lines + [f"result: {'PASS' if ok else 'FAIL'}"]))
    return 0 if ok else 1


def _emit_tree(args, ok: bool, tree, node_labels=None, arc_labels=None) -> int:
    """Print the ``--emit`` artifact in place of the report."""
    from .specio import canonical_json, tree_to_document, tree_to_dot

    if args.emit == "dot":
        sys.stdout.write(tree_to_dot(tree, node_labels, arc_labels))
    else:
        sys.stdout.write(canonical_json(tree_to_document(tree, node_labels, arc_labels)))
    return 0 if ok else 1


def _cmd_check_cones(args) -> int:
    from .grouporder import verify_cone_axioms

    cone = _load_cone(args.spec)
    report = verify_cone_axioms(cone, args.radius)
    payload = report.to_jsonable(cone.group.format)
    lines = [f"cone {cone.name}: ball {report.ball_size} at radius {args.radius}"]
    for idx, cond in payload["conditions"].items():
        state = "pass" if cond["ok"] else f"FAIL ({cond['violation_count']} violations)"
        lines.append(f"  condition {idx} {cond['description']}: {state} (checked {cond['checked']})")
        lines += ("    witness: " + ", ".join(w) for w in cond["violations"][:5])
    return _finish(args, report.ok, lines, payload)


def _cmd_check_poset(args) -> int:
    from .corpus import run_relation_suite
    from .specio import load_document, poset_from_document

    doc = load_document(args.spec)
    try:
        poset = poset_from_document(doc)
    except PosetError as err:
        return _finish(args, False, ["poset: INVALID", f"  witness: {err}"], {"ok": False, "error": str(err)})
    suite = run_relation_suite(poset)
    lines = [f"poset: {poset.n} elements, valid"]
    for law in ("theorem", "travel", "propagation", "o_equivalence"):
        probs = suite[law]
        lines.append(f"  {law}: {'pass' if not probs else 'FAIL'}")
        for prob in probs[:3]:
            lines.append(f"    witness: {prob}")
    return _finish(args, suite["ok"], lines, {"ok": suite["ok"], "elements": poset.n, "laws": suite})


def _layout_annotations(state, layout) -> tuple:
    node_labels: dict = {}
    arc_labels: dict = {}
    for lab, pt in layout.label_point.items():
        if pt[0] == "node":
            node_labels.setdefault(pt[1], []).append(state.format_label(lab))
        else:
            arc_labels.setdefault(pt[1], []).append((state.format_label(lab), pt[2]))
    for aid in arc_labels:
        arc_labels[aid].sort(key=lambda item: item[1])
    return node_labels, arc_labels


def _cmd_build_tree(args) -> int:
    from .catalog import run_build_suite
    from .orbitorder import ConePipeline

    cone = _load_cone(args.spec)
    suite = run_build_suite(cone, radius=args.radius, stages=args.stages)
    if args.emit:
        pipe = ConePipeline.of(cone, args.radius)
        layout = pipe.layout(args.stages)
        labels = _layout_annotations(pipe.build(args.stages), layout)
        return _emit_tree(args, suite["ok"], layout.tree, *labels)
    lines = [
        f"build {cone.name}: radius {args.radius}, {suite['stages']} stages, {suite['built']} elements placed",
    ]
    for prop in ("tree", "gaps", "paths", "identity"):
        lines.append(f"  {prop}: {'pass' if suite['properties'][prop] else 'FAIL'}")
    lines.append(
        f"  undetermined: {suite['undetermined']['gaps']} gaps, "
        f"{suite['undetermined']['identity']} identities"
    )
    lines.append(f"  oriented labels checked: {suite['oriented_labels']}")
    if suite["label_collisions"]:
        lines.append(f"  label collisions: {suite['label_collisions']}")
    return _finish(args, suite["ok"], lines, suite)


def _load_tree(spec: str, radius: int):
    if _names_file(spec):
        from .specio import load_document, tree_from_document

        return tree_from_document(load_document(spec))
    from .suites import get_tree

    return get_tree(spec, radius)


def _cmd_blowup(args) -> int:
    from .actions import check_blowup
    from .ordertree import denjoy_blowup

    tree = _load_tree(args.spec, args.radius)
    manifold = denjoy_blowup(tree)
    report = check_blowup(manifold)
    if args.emit:
        return _emit_tree(args, report["ok"], manifold)
    kinds: dict = {}
    for kind in manifold.nodes.values():
        kinds[kind] = kinds.get(kind, 0) + 1
    lines = [f"blowup: {len(tree.arcs)} arcs in, {len(manifold.arcs)} arcs out"]
    lines.append(f"  branchless: {'FAIL' if 'result branches' in report['problems'] else 'pass'}")
    lines.append(f"  collapse checks: {'pass' if report['ok'] else 'FAIL'}")
    for prob in report["problems"][:5]:
        lines.append(f"    witness: {prob}")
    for kind in sorted(kinds):
        lines.append(f"  point kind {kind}: {kinds[kind]}")
    return _finish(args, report["ok"], lines, {"ok": report["ok"], "problems": report["problems"], "kinds": kinds})


def _cmd_orbit_order(args) -> int:
    from .orbitorder import orbit_poset
    from .suites import get_action_scenario

    name, radius = args.scenario, args.radius
    if _names_file(name):
        from .specio import load_document

        doc = load_document(name)
        if doc.kind != "scenario":
            raise SpecError(f"expected a scenario document, got {doc.kind!r}")
        name, radius = doc.body["name"], doc.body.get("radius", radius)
    manifold, action, base = get_action_scenario(name, radius)
    orbit = orbit_poset(manifold, action, base, radius)
    fmt = action.group.format
    undetermined = [fmt(g) for g in orbit.escaped]
    tag_counts: dict = {}
    for rel, rows in zip(("lt", "gt", "simu", "siml"), orbit.poset.rows):
        count = sum((row >> i + 1).bit_count() for i, row in enumerate(rows))  # pairs (i, j > i)
        if count:
            tag_counts[rel] = count
    lines = [f"orbit {name}: radius {radius}, {len(orbit.realized)} realized, {len(undetermined)} undetermined"]
    if undetermined:
        lines.append("  undetermined elements: " + ", ".join(undetermined))
    for rel in sorted(tag_counts):
        lines.append(f"  pairs {rel}: {tag_counts[rel]}")
    return _finish(args, True, lines, {
        "ok": True,
        "scenario": name,
        "radius": radius,
        "realized": len(orbit.realized),
        "undetermined": undetermined,
        "pair_counts": tag_counts,
    }, orbit.poset, fmt)


def _cmd_quotient(args) -> int:
    from .catalog import get_subgroup
    from .grouporder import check_completely_convex, quotient_order

    cone = _load_cone(args.spec)
    sub = get_subgroup(args.subgroup)
    fmt = cone.group.format
    convexity = check_completely_convex(cone, sub, args.radius)
    lines = [f"quotient {cone.name} by {sub.name}: radius {args.radius}"]
    if not convexity.ok:
        violations = [{"witness": fmt(w["witness"]), "pair": [fmt(x) for x in w["pair"]]}
                      for w in convexity.violations[:5]]
        lines.append(f"  complete convexity: FAIL ({len(convexity.violations)} violations)")
        lines += (f"    witness: {v['witness']} lies between {v['pair'][0]} and {v['pair'][1]}" for v in violations)
        return _finish(args, False, lines, {"ok": False, "convex": False, "violations": violations})
    result = quotient_order(cone, sub, args.radius, convexity=convexity)
    lines.append(f"  complete convexity: pass ({convexity.pairs_checked} pairs)")
    lines.append(f"  representatives: {len(result.representatives)}")
    for clause, count in sorted(result.property_counts.items()):
        lines.append(f"  property {clause}: pass (checked {count})")
    if result.uniqueness:
        lines.append(f"  relation uniqueness: FAIL ({len(result.uniqueness)})")
    return _finish(args, result.ok, lines, {
        "ok": result.ok,
        "convex": True,
        "representatives": [fmt(r) for r in result.representatives],
        "property_counts": result.property_counts,
        "property_violations": [],  # the quotient poset's construction rejects any violation
    }, result.poset, fmt)


def _cmd_roundtrip(args) -> int:
    from .catalog import run_roundtrip_suite
    from .relations import REL_NAMES

    cone = _load_cone(args.spec)
    rep = run_roundtrip_suite(cone, args.radius)
    fmt = cone.group.format
    undetermined = [fmt(g) for g in rep["undetermined_elements"]]
    mismatches = [[fmt(g), fmt(h), REL_NAMES[got], REL_NAMES[want]] for g, h, got, want in rep["mismatches"][:5]]
    lines = [f"roundtrip {cone.name}: radius {args.radius}"]
    lines.append(f"  realized {rep['realized']} of {rep['ball']} ball elements")
    lines.append(f"  determined pair coverage: {rep['pair_coverage']}")
    lines.append("  undetermined elements: " + (", ".join(undetermined) if undetermined else "none"))
    lines.append(f"  order agreement on determined pairs: {'FAIL' if rep['mismatches'] else 'pass'}")
    lines += (f"    witness: ({g}, {h}) rebuilt {got}, ball {want}" for g, h, got, want in mismatches)
    return _finish(args, rep["ok"], lines, {
        "ok": rep["ok"],
        "cone": cone.name,
        "radius": args.radius,
        "realized": rep["realized"],
        "ball": rep["ball"],
        "pair_coverage": rep["pair_coverage"],
        "undetermined": undetermined,
        "mismatches": mismatches,
    })


def _cmd_examples(args) -> int:
    from .catalog import EXAMPLES, get_example

    if args.action == "list":
        if args.name:
            raise SpecError(f"examples list takes no name; try 'examples run {args.name}'")
        if args.json:
            from .specio import canonical_json

            listing = [{"name": e.name, "summary": e.summary, "notes": e.notes} for e in EXAMPLES]
            sys.stdout.write(canonical_json(listing))
        else:
            print("\n".join(f"{e.name:26s} {e.summary}" for e in EXAMPLES))
        return 0
    if not args.name:
        raise SpecError("examples run needs a name; try 'examples list'")
    entry = get_example(args.name)
    rep = entry.run(args.radius) if args.radius is not None else entry.run()
    lines = [f"example {entry.name}: {entry.summary}"]
    if entry.notes:
        lines.append(f"  note: {entry.notes}")
    lines += (f"  {key}: {jsonable(rep[key])}" for key in sorted(rep) if key != "ok")
    return _finish(args, rep["ok"], lines, rep)


_COMMANDS: dict = {
    "check-cones": _cmd_check_cones,
    "check-poset": _cmd_check_poset,
    "build-tree": _cmd_build_tree,
    "blowup": _cmd_blowup,
    "orbit-order": _cmd_orbit_order,
    "quotient": _cmd_quotient,
    "roundtrip": _cmd_roundtrip,
    "examples": _cmd_examples,
}


def main(argv: Optional[list] = None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    handler = _COMMANDS[args.command]
    try:
        status = handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone: the exit flush then writes the rest to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SPEC_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CHECK_ERRORS as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
