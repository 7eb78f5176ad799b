"""Coset orders: when a subgroup is convex, the order descends cleanly.

A normal subgroup H is completely convex when no element outside H sits
between two elements of H.  Convexity makes "gH before kH" well defined,
and the coset order inherits the structural laws.  The second factor of the
lexicographic plane is convex; the even integers inside the standard
integer order are not, and the witness is printed rather than hidden.
"""

from __future__ import annotations

from treeorder.catalog import z_standard, zk_lex
from treeorder.poset import REL_NAMES
from treeorder.quotient import check_completely_convex, even_subgroup, quotient_order, second_factor_subgroup


def main():
    cone = zk_lex(2)
    sub = second_factor_subgroup()
    convexity = check_completely_convex(cone, sub, 4)
    print(f"{sub.name} inside {cone.name}: convex over {convexity.pairs_checked} pairs")
    result = quotient_order(cone, sub, 4)
    reps = sorted(result.representatives, key=lambda v: v[0])
    print("coset chain:", " < ".join(str(r) for r in reps))
    a, b = reps[0], reps[-1]
    print(f"  e.g. {a} vs {b}: {REL_NAMES[result.poset.rel(a, b)]}")
    print(f"  all four quotient laws hold: {result.ok}")
    print()

    cone = z_standard()
    sub = even_subgroup()
    convexity = check_completely_convex(cone, sub, 4)
    print(f"{sub.name} inside {cone.name}: convex={convexity.ok}")
    for v in convexity.violations[:3]:
        g, h = v["pair"]
        print(f"  witness: {v['witness']} lies between {g} and {h} but is not in the subgroup")
    print("a non-convex subgroup cannot order its cosets; the attempt is")
    print("refused with the witness above instead of producing a bad order.")


if __name__ == "__main__":
    main()
