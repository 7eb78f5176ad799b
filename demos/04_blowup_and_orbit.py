"""Blowing a tree up into a branchless manifold and reading an order off it.

Branch points of an oriented tree are resolved by replacing each with a
stub arc and a pair of open ends, leaving a disjoint union of lines.  An
orientation-preserving group action on the result induces an order on any
free orbit: x is below y when y sits in the forward component of x.  For
the infinite dihedral group acting on the alternating line this reproduces
exactly the cone order on the ball.
"""

from __future__ import annotations

from treeorder.actions import check_action, check_blowup, dihedral_example, line_base_point
from treeorder.catalog import dihedral_standard
from treeorder.grouporder import induced_ball_poset
from treeorder.orbitorder import orbit_poset
from treeorder.poset import REL_NAMES


def main():
    radius = 4
    tree, manifold, action = dihedral_example(radius)
    print(f"window tree: {len(tree.arcs)} arcs; blown-up manifold: {len(manifold.arcs)} arcs")
    print(f"branchless: {manifold.is_branchless()}")
    report = check_blowup(manifold)
    print(f"collapse reproduces the tree: {report['ok']}")
    act = check_action(manifold, action, radius=2)
    print(f"action is orientation preserving where defined: {act['ok']}")
    print()

    orbit = orbit_poset(manifold, action, line_base_point(manifold), radius)
    fmt = action.group.format
    print(f"orbit of the base point under the radius-{radius} ball:")
    print(f"  realized {len(orbit.realized)}, escaped {len(orbit.escaped)}")

    induced = induced_ball_poset(dihedral_standard(), radius)
    agree = 0
    for g, h in induced.iter_pairs():
        assert orbit.poset.rel(g, h) == induced.rel(g, h)
        agree += 1
    print(f"  orbit order equals the cone order on all {agree} pairs")
    print()
    sample = [(0, 0), (0, 1), (1, 0), (1, 1), (-1, 1)]
    print("a few orbit relations:")
    for i, g in enumerate(sample):
        for h in sample[i + 1 :]:
            print(f"  {fmt(g)} vs {fmt(h)}: {REL_NAMES[orbit.poset.rel(g, h)]}")


if __name__ == "__main__":
    main()
