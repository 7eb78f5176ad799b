"""From an ordered group to a labeled tree, one ball stage at a time.

Each group element g contributes three labels: g itself and two satellites
g- and g+ marking the approach sides.  Stages lay the labels of a growing
ball onto unit intervals so that travel order in the tree matches the
between-set order of the group.  The script builds the dihedral tree and
prints which group labels share each tree point.
"""

from __future__ import annotations

from treeorder.catalog import dihedral_standard
from treeorder.treebuild import build_from_cones, orient_segments, verify_stage_properties


def main():
    cone = dihedral_standard()
    state = build_from_cones(cone, radius=4, stages=4)
    props = verify_stage_properties(state)
    print(f"built {len(state.stages_done)} stages over {cone.name}")
    for name in ("tree", "gaps", "paths", "identity"):
        block = props[name]
        print(f"  {name} law: {'ok' if block['ok'] else 'FAILED'}")
    layout = orient_segments(state)

    by_node: dict = {}
    arc_marks = []
    names = layout.tree.names  # the display id of each node and arc
    for lab, pt in layout.label_point.items():
        if pt[0] == "node":
            by_node.setdefault(names[pt[1]], []).append(state.format_label(lab))
        else:
            arc_marks.append((str(names[pt[1]]), pt[2], state.format_label(lab)))
    print()
    print("tree points and the labels that landed on them:")
    for nid in sorted(by_node, key=str):
        print(f"  {nid}: {', '.join(by_node[nid])}")
    print()
    for aid, t, text in sorted(arc_marks):
        print(f"  interior of {aid} at {t}: {text}")
    print()
    print("satellites g- and g+ pinch onto their neighbors exactly when the")
    print("gap between consecutive labels is empty, so the discrete order")
    print("data fixes the tree's identifications.")


if __name__ == "__main__":
    main()
