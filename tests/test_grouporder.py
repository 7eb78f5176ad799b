from __future__ import annotations

import gc
import tracemalloc
from collections import Counter

import pytest

import oracles
from treeorder import groups
from treeorder.catalog import BUILTIN_CONES, dihedral_standard, free_standard, get_cone, z_broken, z_standard, zk_lex
from treeorder.corpus import all_extended_posets, tree_corpus
from treeorder.gplus import blow_up_gplus, check_augmented_between, check_no_singleton_classes
from treeorder.groups import FreeGroup, GroupError, TableGroup, Z, Zk
from treeorder.grouporder import ConeError, ConeStructure, induced_ball_poset, verify_cone_axioms
from treeorder.orbitorder import ConePipeline
from treeorder.poset import EQ, GT, LT, SIML, SIMU, PosetError, from_pairs
from treeorder.quotient import (
    _law_counts,
    check_completely_convex,
    even_subgroup,
    quotient_order,
    second_factor_subgroup,
)
from treeorder.treebuild import MINUS, PLAIN, PLUS, format_aug, r_equivalent, side_toward

Z5_TABLE = [[(i + j) % 5 for j in range(5)] for i in range(5)]


def test_standard_integer_cone_passes_all_conditions():
    report = verify_cone_axioms(z_standard(), 8)
    assert report.ok
    assert sorted(report.conditions) == [1, 2, 3, 4, 5, 6]
    assert all(c.ok and not c.violations for c in report.conditions.values())
    assert report.ball_size == 17


def test_broken_positive_set_fails_with_witness():
    report = verify_cone_axioms(z_broken(), 8)
    assert not report.ok
    cond2 = report.conditions[2]
    assert not cond2.ok
    assert (1, 1, 2) in cond2.violations


def test_torsion_group_admits_no_cone():
    g = TableGroup(list(range(5)), Z5_TABLE, 0)
    cone = ConeStructure("z5", g, lambda a: a in (3, 4), lambda a: False, lambda a: False)
    report = verify_cone_axioms(cone, 3)
    assert not report.ok
    assert (3, 3, 1) in report.conditions[2].violations


def _mod3_cone(name, group, residue) -> ConeStructure:
    """Pieces read off a homomorphism onto Z/3: P at 1, U at 2, L at 0 off
    the identity.  Every in-ball product of conditions 2-5 lands in the
    wrong piece."""
    return ConeStructure(name, group, lambda w: residue(w) == 1, lambda w: residue(w) == 2,
                         lambda w: w != group.identity and residue(w) == 0)


def _swapped_dihedral() -> ConeStructure:
    good = dihedral_standard()
    return ConeStructure("dihedral-swapped", good.group, good.in_positive, good.in_lower, good.in_upper)


# one broken cone on each sweep path: int codes (Z, Z^2, Z^3), rank
# blocks (free2) and the plain double loop (dihedral, the Z5 table)
BROKEN_CONES = {
    "z-mod3": (lambda: _mod3_cone("z-mod3", Z(), lambda n: n % 3), 8),
    "z2-mod3": (lambda: _mod3_cone("z2-mod3", Zk(2), lambda v: (v[0] + 2 * v[1]) % 3), 5),
    "z3-mod3": (lambda: _mod3_cone("z3-mod3", Zk(3), lambda v: (v[0] + 2 * v[1] + v[2]) % 3), 4),
    "free2-mod3": (lambda: _mod3_cone("free2-mod3", FreeGroup(2), lambda w: sum(w) % 3), 4),
    "dihedral-swapped": (_swapped_dihedral, 8),
    "z5-table": (lambda: ConeStructure("z5", TableGroup(list(range(5)), Z5_TABLE, 0),
                                       lambda a: a in (3, 4), lambda a: a == 1, lambda a: a == 2), 0),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_CONES))
def test_sweep_matches_the_pairwise_oracle_on_builtin_cones(name):
    for radius in range(6 if name.startswith("free") else 7):
        cone = get_cone(name)
        want = oracles.naive_cone_report(get_cone(name), radius)
        assert verify_cone_axioms(cone, radius).to_jsonable(cone.group.format) == want


def test_sweep_matches_the_pairwise_oracle_on_broken_cones():
    most: Counter = Counter()
    for name, (make, radius) in BROKEN_CONES.items():
        cone = make()
        got = verify_cone_axioms(cone, radius).to_jsonable(cone.group.format)
        assert got == oracles.naive_cone_report(make(), radius), name
        for idx in "2345":
            most[idx] = max(most[idx], got["conditions"][idx]["violation_count"])
    # past the witness cap on every product condition, so the cap, the
    # witness order and the full count are all compared
    assert all(most[idx] > 25 for idx in "2345"), most


@pytest.mark.parametrize("radius, checked", [(7, 94_042), (8, 518_320)])
def test_free_standard_product_counts_stay_frozen(radius, checked):
    report = verify_cone_axioms(get_cone("free2-standard"), radius)
    assert report.ok and report.conditions[2].checked == checked


def test_a_free_cone_sweep_peaks_below_one_and_a_half_balls():
    # the pieces are byte maps by position and the inverse table four bytes
    # an element, so the sweep's traced peak, its ball included, stays within
    # half the ball's traced size above it.  A full collection empties the
    # free lists first, so every tuple of either ball is a traced allocation
    gc.collect()
    tracemalloc.start()
    ball = FreeGroup(2).ball(8)
    size = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del ball
    cone = get_cone("free2-standard")
    verify_cone_axioms(cone, 1)  # the rank-block code loads outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        verify_cone_axioms(cone, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * size, peak / size


def _standard_minus(k: int, w0: tuple) -> ConeStructure:
    """The standard free cone with one positive word, w0 or its inverse, taken out of P."""
    good = free_standard(k)
    group = good.group
    if group.order_sign(w0) < 0:
        w0 = group.inv(w0)
    return ConeStructure(f"free{k}-minus-{group.format(w0)}", group,
                         lambda w: w != w0 and good.in_positive(w), good.in_upper, good.in_lower)


# rank 2 at r = 5 with w0 of length 1 to 4 and a commutator; rank 3 at r = 4.
# A commutator is no product of two positive words in these balls, so only
# conditions 1 and 6 see it missing; every other w0 is a product too.
@pytest.mark.parametrize("k, radius, w0", [(2, 5, (1,)), (2, 5, (2, -1)), (2, 5, (1, 1, -2)), (2, 5, (2, -1, -1, 2)),
                                           (2, 5, (1, 2, -1, -2)), (3, 4, (3,)), (3, 4, (2, -3, 1)),
                                           (3, 4, (1, 3, -1, -3))], ids=str)
def test_standard_cone_minus_one_word_sweeps_like_the_pairwise_oracle(k, radius, w0):
    cone = _standard_minus(k, w0)
    got = verify_cone_axioms(cone, radius).to_jsonable(cone.group.format)
    commutator = len(w0) == 4 and w0[2:] == tuple(-x for x in w0[:2])
    assert got["conditions"]["6"]["violation_count"] == 2
    assert (got["conditions"]["2"]["violation_count"] > 0) != commutator
    assert got == oracles.naive_cone_report(_standard_minus(k, w0), radius)


def _counting(cone: ConeStructure) -> tuple:
    calls: Counter = Counter()

    def counted(piece, member):
        def test(w):
            calls[piece] += 1
            return member(w)
        return test

    wrapped = ConeStructure(cone.name, cone.group, counted("p", cone.in_positive),
                            counted("u", cone.in_upper), counted("l", cone.in_lower))
    return wrapped, calls


@pytest.mark.parametrize("name, radius", [("z2-lex", 12), ("free2-standard", 5)])
def test_sweep_calls_each_predicate_a_bounded_number_of_times_per_ball_element(name, radius):
    cone, calls = _counting(get_cone(name))
    report = verify_cone_axioms(cone, radius)
    assert report.ok
    bound = 6 * report.ball_size
    assert sum(report.conditions[i].checked for i in (2, 3, 4, 5)) > bound
    # once each: w^-1's pieces and the products' are read off the piece byte maps
    assert calls == {piece: report.ball_size for piece in "pul"}, calls


def test_a_raising_predicate_fails_the_sweep_at_its_first_call_in_ball_order(monkeypatch):
    monkeypatch.setattr(groups, "SERIES_MAX_DEGREE", 1)
    with pytest.raises(GroupError, match="^series sign undecided to degree 1 for abAB$"):
        verify_cone_axioms(get_cone("free2-standard"), 4)
    ball = Z().ball(3)  # 0, -1, 1, -2, ...

    def undecided(piece, start):
        def test(n):
            if ball.index(n) >= start:
                raise GroupError(f"{piece} undecided at {n}")
            return False
        return test

    # the pieces of one element are read P, U, L before the next element's
    cone = ConeStructure("z-undecided", Z(), undecided("p", 3), undecided("u", 2), undecided("l", 2))
    with pytest.raises(GroupError, match="^u undecided at 1$"):
        verify_cone_axioms(cone, 3)


def test_cone_report_serializes():
    report = verify_cone_axioms(z_standard(), 4)
    data = report.to_jsonable(str)
    assert data["ok"] is True
    assert data["cone"] == "z-standard"
    assert set(data["conditions"]) == {"1", "2", "3", "4", "5", "6"}


def test_induced_ball_poset_of_integers_is_a_chain():
    p = induced_ball_poset(z_standard(), 4)
    assert sorted(p.elements) == list(range(-4, 5))
    for a, b in p.iter_pairs():
        assert p.rel(a, b) == (LT if a < b else GT)


def test_invalid_cone_cannot_induce_a_ball_order():
    cone = ConeStructure("overlap", z_standard().group, lambda a: a > 0, lambda a: a > 2, lambda a: False)
    with pytest.raises(ConeError, match="fails condition"):
        induced_ball_poset(cone, 4)
    with pytest.raises(ConeError) as err:
        cone.side(3)
    assert str(err.value) == "cones do not partition at 3: pieces p,u"


@pytest.mark.parametrize("name", sorted(BUILTIN_CONES))
def test_ball_rows_match_the_pairwise_oracle_on_builtin_cones(name):
    for radius in range(4 if name.startswith("free") else 5):
        if not verify_cone_axioms(get_cone(name), radius).ok:
            with pytest.raises(ConeError, match="fails condition"):
                induced_ball_poset(get_cone(name), radius)
            continue
        try:
            want = oracles.pairwise_ball_poset(get_cone(name), radius)
        except ConeError as err:  # no piece somewhere in ball(2r): the same first quotient
            with pytest.raises(ConeError) as got:
                induced_ball_poset(get_cone(name), radius)
            assert str(got.value) == str(err)
            continue
        got = induced_ball_poset(get_cone(name), radius)
        assert (got.elements, got.rows) == (want.elements, want.rows), (name, radius)


def _short_cone(radius: int) -> ConeStructure:
    """Z with P = {0 < n <= radius}: every product of the sweep at this
    radius that stays in the ball stays in P, but radius + 1 is in no piece."""
    return ConeStructure("z-short", Z(), lambda n: 0 < n <= radius, lambda n: False, lambda n: False)


@pytest.mark.parametrize("radius, text", [(1, "cones do not partition at 2: no piece"),
                                          (3, "cones do not partition at 4: no piece"),
                                          (5, "cones do not partition at 6: no piece")])
def test_a_cone_that_passes_the_sweep_but_not_ball_2r_names_its_first_quotient(radius, text):
    assert verify_cone_axioms(_short_cone(radius), radius).ok
    with pytest.raises(ConeError) as err:
        oracles.pairwise_ball_poset(_short_cone(radius), radius)
    assert str(err.value) == text
    with pytest.raises(ConeError) as err:
        induced_ball_poset(_short_cone(radius), radius)
    assert str(err.value) == text


def _collapsing(pair: tuple) -> Z:
    """Z whose product of ``pair`` is the identity."""

    class Collapsing(Z):
        def mult(self, a, b):
            return 0 if (a, b) == pair else a + b

    return Collapsing()


class _FarSkew(Z):
    """Subtracts a right factor outside ball(3): the ball table is sound,
    left translation is not."""

    def mult(self, a, b):
        return a + b if abs(b) <= 3 else a - b


class _Repeating(Z):
    def ball(self, r):
        return super().ball(r) + [r]


# 5 is in U and -5 in no piece; at radius 3 the row of 2 (quotients -2, -3,
# -1, -4, 0, -5, 1 in ball order) is the first to meet -5, at h = -3
_GAP = (lambda n: n > 0 and n != 5, lambda n: n == 5, lambda n: False)


@pytest.mark.parametrize("group, pieces, error, text", [
    (_collapsing((-1, 2)), None, ConeError, "distinct elements with identity quotient: 1, 2"),
    (_collapsing((-2, -1)), _GAP, ConeError, "distinct elements with identity quotient: 2, -1"),
    (_collapsing((-2, 3)), _GAP, ConeError, "cones do not partition at -5: no piece"),
    (_FarSkew(), None, ConeError, "order is not left-invariant at -1, 0, -3"),
    (_Repeating(), None, PosetError, "duplicate elements"),
], ids=["identity-quotient", "identity-quotient-first-in-row", "partition-first-in-row", "left-invariance",
        "repeated-element"])
def test_a_broken_group_model_is_refused_with_the_pairwise_builders_text(group, pieces, error, text):
    std = z_standard()
    cone = ConeStructure("z-model", group, *(pieces or (std.in_positive, std.in_upper, std.in_lower)))
    assert verify_cone_axioms(cone, 3).ok
    with pytest.raises(error) as err:
        induced_ball_poset(cone, 3)
    assert str(err.value) == text
    if "left-invariant" not in text:  # the pairwise builder has no spot check
        with pytest.raises(error) as err:
            oracles.pairwise_ball_poset(cone, 3)
        assert str(err.value) == text


# what induced_ball_poset raises on each broken cone, recorded before the
# left-invariance sample formed one inverse per row
BROKEN_CONE_TEXTS = {
    "z-mod3": "cone z-mod3 fails condition (1) at radius 8",
    "z2-mod3": "cone z2-mod3 fails condition (1) at radius 5",
    "z3-mod3": "cone z3-mod3 fails condition (1) at radius 4",
    "free2-mod3": "cone free2-mod3 fails condition (1) at radius 4",
    "dihedral-swapped": "cone dihedral-swapped fails condition (3) at radius 8",
    "z5-table": "cone z5 fails condition (1) at radius 0",
}


@pytest.mark.parametrize("name", sorted(BROKEN_CONES))
def test_a_broken_cone_is_refused_by_the_ball_poset_with_its_recorded_text(name):
    make, radius = BROKEN_CONES[name]
    with pytest.raises(ConeError) as err:
        induced_ball_poset(make(), radius)
    assert str(err.value) == BROKEN_CONE_TEXTS[name]


class _CountingInverses(Z):
    def __init__(self):
        super().__init__()
        self.inverses = 0

    def inv(self, a):
        self.inverses += 1
        return super().inv(a)


@pytest.mark.parametrize("radius", [0, 6, 30])
def test_the_ball_poset_forms_one_inverse_per_row_and_per_sampled_row(radius):
    std = z_standard()
    cone = ConeStructure("z-counted", _CountingInverses(), std.in_positive, std.in_upper, std.in_lower)
    report = verify_cone_axioms(cone, radius)
    induced_ball_poset(cone, radius, report)  # fills the side cache, whose misses invert too
    cone.group.inverses = 0
    induced_ball_poset(cone, radius, report)
    n = 2 * radius + 1
    sampled = len(range(0, n, max(1, n // 12)))
    # each row's g^-1, then one (fg)^-1 per sampled f and sampled g
    assert cone.group.inverses == n + sampled * sampled


def test_classify_reads_the_side_of_the_left_quotient():
    checked = []
    for name in sorted(BUILTIN_CONES):
        cone = get_cone(name)
        if not verify_cone_axioms(cone, 3).ok:
            continue
        checked.append(name)
        group = cone.group
        ball = group.ball(3)
        for g in ball:
            for h in ball:
                assert cone.classify(g, h) == cone.classify(group.identity, group.mult(group.inv(g), h))
    assert checked == ["dihedral-standard", "free2-standard", "z-standard", "z2-lex", "z3-lex"]


def test_side_names_each_piece_by_its_relation_code():
    assert [z_standard().side(n) for n in (0, 2, -2)] == [EQ, LT, GT]
    assert [dihedral_standard().side(w) for w in ((0, 0), (2, 0), (-2, 0), (1, 1), (0, 1))] == [EQ, LT, GT, SIMU, SIML]


def test_aug_labels():
    assert format_aug((3, PLUS)) == "3+"
    assert format_aug((3, MINUS)) == "3-"
    assert format_aug((3, PLAIN)) == "3"


def test_blow_up_triples_and_orders_satellites():
    p = induced_ball_poset(z_standard(), 2)
    big = blow_up_gplus(p)
    assert big.n == 3 * p.n
    for g in p.elements:
        assert big.rel((g, MINUS), (g, PLAIN)) == LT
        assert big.rel((g, PLAIN), (g, PLUS)) == LT
    assert big.rel((0, PLUS), (1, MINUS)) == LT


def test_augmented_between_shapes_hold():
    p = induced_ball_poset(z_standard(), 3)
    big = blow_up_gplus(p)
    for a, b in p.iter_pairs():
        rep = check_augmented_between(big, a, b)
        assert rep["ok"], rep


def test_touching_relation_on_a_chain():
    p = induced_ball_poset(z_standard(), 2)
    big = blow_up_gplus(p)
    # A plain element touches only itself.
    assert r_equivalent(p, (0, PLAIN), (0, PLAIN))
    assert not r_equivalent(p, (0, PLAIN), (0, PLUS))
    # Adjacent satellites with nothing between them touch.
    assert r_equivalent(p, (0, PLUS), (1, MINUS))
    assert not r_equivalent(p, (0, PLUS), (2, MINUS))
    assert check_no_singleton_classes(big, p.elements) == []


def test_side_toward_matches_the_order():
    p = induced_ball_poset(z_standard(), 2)
    assert side_toward(p, 0, 1) == PLUS
    assert side_toward(p, 1, 0) == MINUS


def test_second_factor_is_completely_convex():
    rep = check_completely_convex(zk_lex(2), second_factor_subgroup(), 4)
    assert rep.ok
    assert rep.violations == []
    assert rep.pairs_checked > 0


def test_even_integers_are_not_convex():
    rep = check_completely_convex(z_standard(), even_subgroup(), 4)
    assert not rep.ok
    witnesses = {w["witness"] for w in rep.violations}
    assert 1 in witnesses


def test_quotient_of_plane_by_second_factor_is_integer_chain():
    result = quotient_order(zk_lex(2), second_factor_subgroup(), 4)
    assert result.ok
    assert not result.uniqueness
    q = result.poset
    assert oracles.naive_quotient_law_counts(q) == (result.property_counts, [])
    assert q.n == 9
    firsts = sorted(r[0] for r in result.representatives)
    assert firsts == list(range(-4, 5))
    for a, b in q.iter_pairs():
        assert q.rel(a, b) in (LT, GT)
        assert q.rel(a, b) == (LT if a[0] < b[0] else GT)


def test_quotient_requires_convexity():
    with pytest.raises(ConeError, match="convex"):
        quotient_order(z_standard(), even_subgroup(), 4)


def test_law_counts_match_the_triple_loop_and_it_finds_nothing():
    posets = [p for n in range(1, 5) for p in all_extended_posets(n)] + tree_corpus(50)
    for p in posets:
        assert oracles.naive_quotient_law_counts(p) == (_law_counts(p), [])


# each law's hypothesis on (a, b) and (b, c), completed by every wrong relation of (a, c)
_LAW_BREAKS = [
    (rab, rbc, wrong)
    for rab, rbc, want in oracles.QUOTIENT_LAWS.values()
    for wrong in ("lt", "gt", "simu", "siml") if wrong != want
]


@pytest.mark.parametrize("rab, rbc, wrong", _LAW_BREAKS, ids=["-".join(case) for case in _LAW_BREAKS])
def test_construction_rejects_every_three_element_law_break(rab, rbc, wrong):
    with pytest.raises(PosetError):
        from_pairs("abc", [("a", rab, "b"), ("b", rbc, "c"), ("a", wrong, "c")])


@pytest.mark.parametrize("case", ["extended-4", "z-standard-r3", "dihedral-standard-r3", "z2-lex-r2", "free2-standard-r2"])
def test_doubled_rows_agree_with_the_pairwise_definition(case):
    if case == "extended-4":
        bases = all_extended_posets(4)
    else:
        name, _, radius = case.rpartition("-r")
        bases = [ConePipeline(get_cone(name), int(radius)).ball_poset]
    for p in bases:
        big = blow_up_gplus(p)
        want = oracles.naive_doubled_relations(p)
        assert big.elements == tuple(dict.fromkeys(x for pair in want for x in pair))
        assert {(x, y): big.classify(x, y) for x, y in want} == want


@pytest.mark.parametrize("case", ["extended-0-4", "trees-100", "z-standard-r4", "dihedral-standard-r4", "z2-lex-r2",
                                  "free2-standard-r2"])
def test_touching_read_off_the_base_order_agrees_with_the_doubled_definition(case):
    if case == "extended-0-4":
        bases = [p for n in range(5) for p in all_extended_posets(n)]
    elif case == "trees-100":
        bases = tree_corpus(100)
    else:
        name, _, radius = case.rpartition("-r")
        bases = [ConePipeline(get_cone(name), int(radius)).ball_poset]
    touching = 0
    for p in bases:
        big = blow_up_gplus(p)
        for x in big.elements:
            for y in big.elements:
                want = oracles.naive_touching(big, x, y)
                assert r_equivalent(p, x, y) == want, (x, y)
                touching += want and x != y
    assert touching > 0
