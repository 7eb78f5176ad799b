"""Quotient scans over random side populations.

Each pair {w, w^-1} of ball(4r) gets a random piece, consistently for w and
its inverse, and now and then no piece or two.  "coset" populations draw the
piece per coset class (the first coordinate, or the parity on Z), so that
complete convexity holds and the scans reach the quotient order.  "mixed"
populations draw per element, but only < or > inside the subgroup and off
it < with the class sign, or rarely ~u: on Z^k that keeps every subgroup
pair convex while quotients of one class differ, so a key that confused two
of them would change the relations found.  Whatever
the sides, ``check_completely_convex`` and ``quotient_order`` must equal
the pairwise oracles in ``oracles``, or raise the same error with the same
message: the key-read scans classify each distinct quotient once, and must
meet a partition failure at the same pair as a scan that classifies every
pair.
"""

from __future__ import annotations

import random

import pytest

import oracles
from treeorder.catalog import even_subgroup, second_factor_subgroup, zk_lex
from treeorder.errors import CHECK_ERRORS
from treeorder.grouporder import ConeStructure, check_completely_convex, quotient_order
from treeorder.groups import TableGroup, Z, Zk
from treeorder.poset import SIML, SIMU

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MODELS = {"z": (Z, even_subgroup), "z2": (lambda: Zk(2), second_factor_subgroup),
          "z3": (lambda: Zk(3), second_factor_subgroup)}
KINDS = ("lt", "gt", "u", "l")


def _coset_class(family: str, w):
    """The class a structured population draws one piece for, or None inside
    the subgroup; w is the member of its inverse pair with the class sign."""
    if family == "z":
        return "odd" if w % 2 else None
    return w[0] if w[0] else None


def _random_cone(family: str, radius: int, seed: int, mode: str) -> ConeStructure:
    group = MODELS[family][0]()
    rng = random.Random(seed)
    P, U, L, seen = set(), set(), set(), {group.identity}
    by_class: dict = {}
    lex = rng.random() < 0.5  # a coset population that is the lex cone off the subgroup
    for w in group.ball(4 * radius):
        if w in seen:
            continue
        wi = group.inv(w)
        seen.update((w, wi))
        if (w if family == "z" else w[0]) < 0:
            w, wi = wi, w
        cls = _coset_class(family, w)
        if mode == "coset" and cls is not None:
            kind = "lt" if lex else by_class.setdefault(cls, rng.choice(KINDS))
        elif mode == "mixed":
            kind = rng.choice(("lt", "gt")) if cls is None else "u" if rng.random() < 0.1 else "lt"
        else:
            kind = rng.choice(KINDS)
        roll = rng.random() if mode != "mixed" else 1  # mixed populations partition, to reach the scans
        if roll < 0.03:
            continue  # neither w nor its inverse lies in a piece
        if roll < 0.06:
            kind = "two"
        if kind in ("lt", "two"):
            P.add(w)
        if kind == "gt":
            P.add(wi)
        if kind in ("u", "two"):
            U.update((w, wi))
        if kind == "l":
            L.update((w, wi))
    return ConeStructure(f"{family}-random", group, P.__contains__, U.__contains__, L.__contains__)


def _outcome(run):
    try:
        return run()
    except CHECK_ERRORS as err:
        return type(err), str(err)


def _fast_convexity(cone, sub, radius):
    report = check_completely_convex(cone, sub, radius)
    return report.pairs_checked, report.violations


def _fast_quotient(cone, sub, radius):
    result = quotient_order(cone, sub, radius)
    reps = result.representatives
    return {"representatives": reps,
            "relations": {(a, b): result.poset.rel(a, b) for a in reps for b in reps if a != b},
            "uniqueness": result.uniqueness, "property_counts": result.property_counts}


def _assert_like_the_oracles(make_cone, sub, radius):
    """Fresh cones for each run, so no side cache carries over."""
    assert _outcome(lambda: _fast_convexity(make_cone(), sub, radius)) == \
        _outcome(lambda: oracles.naive_completely_convex(make_cone(), sub, radius))
    assert _outcome(lambda: _fast_quotient(make_cone(), sub, radius)) == \
        _outcome(lambda: oracles.naive_quotient_order(make_cone(), sub, radius))


@hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
@hypothesis.given(family=st.sampled_from(sorted(MODELS)), radius=st.integers(0, 3),
                  seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(("random", "coset", "mixed")))
def test_random_sides_scan_like_the_pairwise_oracles(family, radius, seed, mode):
    if family == "z3":
        radius = min(radius, 2)
    _assert_like_the_oracles(lambda: _random_cone(family, radius, seed, mode), MODELS[family][1](), radius)


def test_a_table_group_with_int_elements_is_not_keyed_by_its_ints():
    # Klein four: quotients 1 and 3 have int difference 1 from 0 and 2, but lie in U and L
    group = TableGroup([0, 1, 2, 3], [[a ^ b for b in range(4)] for a in range(4)], 0)

    def make_cone():
        return ConeStructure("klein", group, lambda w: False, lambda w: w == 1, lambda w: w in (2, 3))

    assert (make_cone().side(1), make_cone().side(3)) == (SIMU, SIML)
    _assert_like_the_oracles(make_cone, even_subgroup(), 1)


def test_one_cone_across_radii_reports_like_fresh_cones():
    cone, sub = zk_lex(2), second_factor_subgroup()
    for radius in (2, 6, 2):
        assert _fast_convexity(cone, sub, radius) == oracles.naive_completely_convex(zk_lex(2), sub, radius)
        assert _fast_quotient(cone, sub, radius) == oracles.naive_quotient_order(zk_lex(2), sub, radius)
