"""The full circle: group order -> tree -> manifold -> action -> group order.

Starting from order cones, the stagewise construction lays the ball onto a
tree, the blow-up straightens it into lines, and the label action of the
group on its own labels recovers an orbit order.  On a finite window the
comparison is exact wherever the orbit stays inside; elements pushed out of
the window are reported as undetermined rather than guessed.
"""

from __future__ import annotations

from fractions import Fraction

from treeorder.catalog import dihedral_standard, z_standard
from treeorder.orbitorder import roundtrip_orbit


def main():
    for cone in (z_standard(), dihedral_standard()):
        for radius in (3, 4, 6):
            rep = roundtrip_orbit(cone, radius=radius)
            fmt = cone.group.format
            cov = rep["coverage"]
            pct = float(cov) * 100
            status = "exact" if rep["ok"] and cov == Fraction(1) else "partial"
            print(
                f"{cone.name} radius {radius}: realized {rep['realized']}/{rep['ball']}"
                f" ({pct:.0f}% of elements), {status}"
            )
            if rep["undetermined_elements"]:
                listed = ", ".join(fmt(g) for g in rep["undetermined_elements"])
                print(f"  undetermined beyond the window: {listed}")
            assert rep["mismatches"] == [], rep["mismatches"]
        print()
    print("no determined pair ever disagrees; truncation only hides pairs,")
    print("it never invents relations.")


if __name__ == "__main__":
    main()
