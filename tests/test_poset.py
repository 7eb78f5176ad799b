from __future__ import annotations

import gc
import itertools
import re

import pytest

import oracles
from treeorder.catalog import get_cone
from treeorder.corpus import (
    _GEOMETRIES,
    _between_table,
    _certified,
    _geometry,
    all_extended_posets,
    run_relation_suite,
    tree_corpus,
)
from treeorder.gplus import blow_up_gplus, check_no_singleton_classes
from treeorder.orbitorder import ConePipeline
from treeorder.poset import (
    EQ,
    GT,
    LT,
    SIML,
    SIMU,
    SWAP,
    ClassLawError,
    ExtendedPoset,
    PosetError,
    between_by_codes,
    from_pairs,
)
from treeorder.treebuild import PLAIN, build_tree, normalize_decomposition


def chain(names="abc"):
    return from_pairs(
        tuple(names),
        [(a, "lt", b) for i, a in enumerate(names) for b in names[i + 1 :]],
    )


def vee():
    # a below two incomparable elements on separate branches.
    return from_pairs("abc", [("a", "lt", "b"), ("a", "lt", "c"), ("b", "siml", "c")])


def wedge():
    return from_pairs("abc", [("b", "lt", "a"), ("c", "lt", "a"), ("b", "simu", "c")])


def crown():
    # Two bottoms under two tops, no comparabilities across the middle.
    return from_pairs(
        "abcd",
        [
            ("a", "lt", "b"),
            ("a", "lt", "c"),
            ("a", "simu", "d"),
            ("b", "siml", "c"),
            ("d", "lt", "b"),
            ("d", "lt", "c"),
        ],
    )


def test_swap_table_is_an_involution():
    for code, mate in SWAP.items():
        assert SWAP[mate] == code
    assert SWAP[LT] == GT
    assert SWAP[SIMU] == SIMU
    assert SWAP[SIML] == SIML
    assert SWAP[EQ] == EQ


def test_between_by_codes_chain_and_bridge():
    assert between_by_codes(LT, LT, LT)
    assert between_by_codes(LT, SIMU, SIML)
    assert not between_by_codes(LT, LT, SIMU)
    assert between_by_codes(GT, GT, GT)
    assert between_by_codes(SIML, SIML, LT)
    assert between_by_codes(SIML, GT, SIML)
    assert not between_by_codes(SIML, GT, LT)
    assert between_by_codes(SIMU, SIMU, GT)
    assert between_by_codes(SIMU, LT, SIMU)
    with pytest.raises(PosetError):
        between_by_codes(EQ, LT, LT)


def test_chain_queries():
    p = chain("abcd")
    assert p.rel("a", "c") == LT
    assert p.rel("c", "a") == GT
    assert p.classify("a", "b") == "lt"
    assert oracles.up_set(p, "b") == ("c", "d")
    assert oracles.down_set(p, "b") == ("a",)
    assert p.between_members("a", "d") == ("a", "b", "c", "d")
    bc = p.between_set("a", "d")
    assert bc.members == ("a", "b", "c", "d")
    # Everything on a chain is chain-related, so there is one class.
    assert bc.classes == (("a", "b", "c", "d"),)
    assert not p.is_trivial_extension()


def test_travel_order_reverses_with_endpoints():
    p = chain("abcd")
    fwd = p.between_set("a", "d").members
    rev = p.between_set("d", "a").members
    assert fwd == tuple(reversed(rev))


def test_vee_between_set_skips_the_bottom():
    p = vee()
    # Travel from b to c turns at the junction above a, not at a itself.
    assert p.between_members("b", "c") == ("b", "c")
    assert p.between_members("a", "b") == ("a", "b")
    assert p.is_trivial_extension()


def test_crown_is_valid_and_mixed():
    p = crown()
    assert p.rel("a", "d") == SIMU
    assert p.rel("b", "c") == SIML
    assert not p.is_trivial_extension()
    assert p.verify_between_theorem() == []
    assert p.check_lemma_propagation() == []
    assert p.verify_o_equivalence() == []


def test_missing_pair_rejected():
    with pytest.raises(PosetError, match="missing"):
        from_pairs("abc", [("a", "lt", "b"), ("b", "lt", "c")])


def test_duplicate_pair_rejected():
    with pytest.raises(PosetError, match="twice"):
        from_pairs("ab", [("a", "lt", "b"), ("b", "gt", "a")])


@pytest.mark.parametrize("rel", ["bogus", "EQ", 7, -1, None, 1.0, ["lt"], True, False], ids=repr)
def test_unknown_relation_is_a_poset_error_naming_the_pair(rel):
    with pytest.raises(PosetError, match=re.escape(f"pair ('a', 'b') has unknown relation {rel!r}")):
        from_pairs("abc", [("a", "lt", "c"), ("a", rel, "b"), ("b", "lt", "c")])


def test_transitivity_enforced():
    with pytest.raises(PosetError, match="transitive"):
        from_pairs(
            "abc",
            [("a", "lt", "b"), ("b", "lt", "c"), ("a", "simu", "c")],
        )


def test_both_bounds_rejected():
    # b and c sit between a common bottom and a common top.
    with pytest.raises(PosetError, match="both kinds"):
        from_pairs(
            "abcd",
            [
                ("a", "lt", "b"),
                ("a", "lt", "c"),
                ("a", "lt", "d"),
                ("b", "lt", "d"),
                ("c", "lt", "d"),
                ("b", "simu", "c"),
            ],
        )


def test_tag_must_match_realized_bound():
    with pytest.raises(PosetError, match="shares a lower bound"):
        from_pairs("abc", [("a", "lt", "b"), ("a", "lt", "c"), ("b", "simu", "c")])
    with pytest.raises(PosetError, match="shares an upper bound"):
        from_pairs("abc", [("b", "lt", "a"), ("c", "lt", "a"), ("b", "siml", "c")])


def test_tagging_acyclicity_enforced():
    # x ~u y and x ~l z force y < z.
    with pytest.raises(PosetError, match="not acyclic"):
        from_pairs(
            "xyz",
            [("x", "simu", "y"), ("x", "siml", "z"), ("y", "siml", "z")],
        )
    p = from_pairs("xyz", [("x", "simu", "y"), ("x", "siml", "z"), ("y", "lt", "z")])
    assert p.rel("y", "z") == LT


def test_o_related_is_chainhood():
    p = crown()
    assert p.o_related("a", "b")
    assert p.o_related("a", "a")
    # The two tops travel through the junction alone; their between set is
    # only the endpoints, which an incomparable pair never makes a chain.
    assert p.between_members("b", "c") == ("b", "c")
    assert not p.o_related("b", "c")
    assert len(p.between_set("b", "c").classes) == 2


def test_a_chain_test_visits_only_members_short_of_a_comparability():
    total = chain("abcd")
    assert total.o_related("a", "d") and total._partial == 0  # nothing to visit on a total order
    for p in [*all_extended_posets(4), *all_extended_posets(5)]:
        for mask in range(1, 1 << p.n):
            want = all(not mask & ~(p._comp[k] | 1 << k) for k in range(p.n) if mask >> k & 1)
            assert p._is_chain(mask) == want
        assert p._partial == sum(1 << k for k in range(p.n) if p._simu[k] | p._siml[k])


def test_strongly_connected_diagnostic():
    assert chain("abc").check_strongly_connected() == []
    bare = from_pairs("ab", [("a", "simu", "b")])
    missing = bare.check_strongly_connected()
    assert len(missing) == 1
    assert missing[0]["pair"] == ("a", "b")


def test_restrict_keeps_relations():
    p = chain("abcd")
    q = p.restrict(("a", "c", "d"))
    assert q.rel("a", "c") == LT
    assert q.between_members("a", "d") == ("a", "c", "d")


def test_relations_table_roundtrip():
    p = crown()
    table = p.relations_table()
    rebuilt = from_pairs(p.elements, [(a, rel, b) for (a, b), rel in table.items()])
    assert rebuilt.relations_table() == table


def test_unknown_element_raises():
    p = chain("ab")
    with pytest.raises(PosetError, match="not an element"):
        p.rel("a", "z")


def test_between_set_needs_distinct_endpoints():
    p = chain("ab")
    with pytest.raises(PosetError, match="distinct"):
        p.between_set("a", "a")


def _posets(case):
    if case.startswith("extended-"):
        return all_extended_posets(int(case.removeprefix("extended-")))
    if case == "trees-100":
        return tree_corpus(100)
    name, _, radius = case.rpartition("-r")
    pipeline = ConePipeline(get_cone(name), int(radius))
    return [pipeline.ball_poset, blow_up_gplus(pipeline.ball_poset)]


@pytest.mark.parametrize("case", ["extended-4", "trees-100", "z-standard-r3", "dihedral-standard-r3", "z2-lex-r2"])
def test_between_set_agrees_with_the_pairwise_oracle(case):
    pairs = 0
    for p in _posets(case):
        for (a, b), want in oracles.naive_between_sets(p).items():
            pairs += 1
            if want is None:
                with pytest.raises(PosetError):
                    p.between_set(a, b)
                continue
            got = p.between_set(a, b)
            assert (got.members, got.classes) == want, (a, b)
    assert pairs > 0


@pytest.mark.parametrize("case", ["extended-4", "trees-100"])
def test_between_members_lists_the_travel_order_of_between_set(case):
    pairs = 0
    for p in _posets(case):
        for a in p.elements:
            for b in p.elements:
                if a != b:
                    pairs += 1
                    members = p.between_set(a, b).members
                    assert p.between_members(a, b) == members == p.between_members(b, a)[::-1], (a, b)
    assert pairs > 0


def _relate_across_a_class_boundary(p, a, b):
    """Corrupt one kept chain test: the last member of the first class of
    B(a, b) becomes chain-related, one way only, to the next class's first."""
    classes = p.between_set(a, b).classes
    x, y = p.index(classes[0][-1]), p.index(classes[1][0])
    p._tested[x] |= 1 << y
    p._orel[x] |= 1 << y


def test_a_chain_test_flipped_at_a_class_boundary_fails_every_reader_of_classes():
    # the star cover and verification read members only; these are the
    # readers that still run the class check
    p = ConePipeline(get_cone("dihedral-standard"), 1).ball_poset
    doubled = blow_up_gplus(p)
    a, b = normalize_decomposition(p)[0]
    ends = ((a, PLAIN), (b, PLAIN))
    for q, pair in ((p, (a, b)), (doubled, ends)):
        _relate_across_a_class_boundary(q, *pair)
        with pytest.raises(ClassLawError, match="are not travel intervals"):
            q.between_set(*pair)
        suite = run_relation_suite(q)
        assert not suite["ok"] and suite["o_equivalence"] and not suite["travel"]
        assert q.verify_o_equivalence() and oracles.naive_o_equivalence(q)
    with pytest.raises(ClassLawError):
        build_tree(p)
    with pytest.raises(ClassLawError):
        check_no_singleton_classes(doubled, p.elements)


TRAVEL_CORRUPTIONS = [
    ((0, 2), 0b0101, "('b', 'c')"),  # B(a, c) loses b
    ((0, 1), 0b1011, "('b', 'd')"),  # B(a, b) gains d
]


@pytest.mark.parametrize("pair, mask, at", TRAVEL_CORRUPTIONS, ids=["earlier-member-missing", "later-member-present"])
def test_travel_order_that_is_not_total_raises(pair, mask, at):
    p = chain("abcd")
    p._bet[pair[0] * p.n + pair[1]] = mask
    with pytest.raises(PosetError, match=re.escape(f"travel order on B('a', 'd') is not total at {at}")):
        p.between_set("a", "d")


def _unrelated_within_a_class(p):
    a, b, c, d = p._comp  # a no longer compares with c
    p._comp = (a & ~0b0100, b, c, d)
    return ("a", "d"), "('a', 'c')"


def _unrelated_both_ways(p):
    a, b, c, d = p._comp  # a and c no longer compare, from either side
    p._comp = (a & ~0b0100, b, c & ~0b0001, d)
    return ("a", "d"), "('a', 'c')"


def _related_across_classes(p):
    a, b, c, d = p._comp  # b no longer compares with c, which cuts B(d, a) in two
    p._comp = (a, b & ~0b0100, c, d)
    p._bet[0 * p.n + 2] = 0b0101  # B(a, c) loses b and becomes a chain
    return ("d", "a"), "('c', 'a')"


@pytest.mark.parametrize("corrupt", [_unrelated_within_a_class, _unrelated_both_ways, _related_across_classes])
def test_classes_that_are_not_travel_intervals_raise(corrupt):
    p = chain("abcd")
    (a, b), at = corrupt(p)
    message = f"similarity classes of B({a!r}, {b!r}) are not travel intervals at {at}"
    with pytest.raises(PosetError, match=re.escape(message)):
        p.between_set(a, b)


def constructor_error(elements, rows):
    """The constructor's error text on these rows, or None when it accepts them."""
    try:
        ExtendedPoset(elements, *rows)
    except PosetError as err:
        return str(err)
    return None


def test_the_constructor_rejects_every_three_point_code_assignment_like_the_naive_oracle():
    # each ordered pair gets one of the five codes, EQ meaning no row holds it
    ordered = list(itertools.permutations(range(3), 2))
    seen, accepted = set(), 0
    for codes in itertools.product((EQ, LT, GT, SIMU, SIML), repeat=len(ordered)):
        rows = [[0] * 3 for _ in range(4)]  # up, down, simu, siml: codes LT..SIML
        for (i, j), code in zip(ordered, codes):
            if code != EQ:
                rows[code - LT][i] |= 1 << j
        got = constructor_error("abc", rows)
        assert got == oracles.naive_poset_error("abc", *rows), codes
        if got is None:
            accepted += 1
        else:
            seen.add(re.sub(r"'[abc]'", "x", got))
    # every check but "both kinds of common bound", which needs four points
    assert seen == {
        "pair (x, x) has no admissible relation",
        "pair (x, x) disagrees with its swap",
        "comparabilities not transitive: x < x < x but not x < x",
        "pair (x, x) tagged downward-similar but shares an upper bound",
        "pair (x, x) tagged upward-similar but shares a lower bound",
        *(f"tagging not acyclic: x ~u x and x ~l x require x > x, got {rel}" for rel in ("lt", "simu", "siml")),
    }
    assert accepted == len(all_extended_posets(3))


@pytest.mark.parametrize("rows, error", [
    ([[0b110, 0], [0, 0b1], [0, 0], [0, 0]], "the rows of 0 name a partner outside the 2 elements"),
    ([[-2, 0], [0, 0b1], [0, 0], [0, 0]], "the rows of 0 name a partner outside the 2 elements"),
    # an in-range row that fails before the stray one keeps its own error
    ([[0, 0b100], [0, 0], [0, 0], [0, 0]], "pair (0, 1) has no admissible relation"),
    ([[0b10], [0, 0b1], [0, 0], [0, 0]], "each of the four row lists must hold one row per element, 2 rows"),
    ([[0b10, 0, 0b1], [0, 0b1], [0, 0], [0, 0]], "each of the four row lists must hold one row per element, 2 rows"),
], ids=["bit-past-n", "negative", "in-range-first", "short-list", "long-list"])
def test_rows_that_do_not_fit_the_elements_are_refused(rows, error):
    # these ended in IndexError or StopIteration, not PosetError
    assert constructor_error(range(2), rows) == oracles.naive_poset_error(range(2), *rows) == error


def test_a_pair_that_disagrees_with_its_swap_raises():
    with pytest.raises(PosetError, match=re.escape("pair ('a', 'b') disagrees with its swap")):
        ExtendedPoset.from_relation(("a", "b"), lambda x, y: LT)


def test_a_pair_without_a_relation_raises():
    with pytest.raises(PosetError, match=re.escape("pair ('a', 'b') has no admissible relation")):
        ExtendedPoset.from_relation(("a", "b"), lambda x, y: EQ)


def test_repeated_elements_raise():
    with pytest.raises(PosetError, match="duplicate elements"):
        ExtendedPoset.from_relation(("a", "b", "a"), lambda x, y: SIML)


@pytest.mark.parametrize("case", ["extended-4", "trees-100", "z-standard-r3", "dihedral-standard-r3", "z2-lex-r2"])
def test_between_masks_from_row_ands_agree_with_the_pair_codes(case):
    triples = 0
    for p in _posets(case):
        for i, a in enumerate(p.elements):
            for j, b in enumerate(p.elements):
                if i != j:
                    triples += p.n
                    assert p._between_mask(i, j) == oracles.naive_between_mask(p, a, b), (a, b)
    assert triples > 0


@pytest.mark.parametrize("rows, message", [
    (([0, 0], [0, 0], [0, 0], [0, 0]), "pair ('a', 'b') has no admissible relation"),
    (([0b10, 0], [0, 0b01], [0b10, 0], [0, 0]), "pair ('a', 'b') has no admissible relation"),
    (([0b10, 0], [0, 0], [0, 0b01], [0, 0]), "pair ('a', 'b') disagrees with its swap"),
    (([0, 0], [0, 0], [0b10, 0], [0, 0b01]), "pair ('a', 'b') disagrees with its swap"),
], ids=["missing", "twice", "lt-one-way", "simu-one-way"])
def test_rows_that_do_not_name_each_partner_once_each_way_raise(rows, message):
    with pytest.raises(PosetError, match=re.escape(message)):
        ExtendedPoset(("a", "b"), *rows)
    assert ExtendedPoset(("a", "b"), [0b10, 0], [0, 0b01], [0, 0], [0, 0]).rel("b", "a") == GT


POPULATIONS = ["extended-0", "extended-1", "extended-2", "extended-3", "extended-4", "trees-100",
               "z-standard-r3", "dihedral-standard-r3", "z2-lex-r2"]


@pytest.mark.parametrize("case", POPULATIONS)
def test_the_certificate_covers_every_poset_and_the_suite_equals_the_per_pair_pass(case):
    posets = _posets(case)
    for p in posets:
        assert _certified(p) and oracles.single_pass_certified(p, _between_table(p))
        suite = run_relation_suite(p)
        assert suite["ok"] and suite == oracles.per_pair_suite(p)
        assert p.verify_between_theorem() == []
        if p.n <= 5:
            assert oracles.naive_between_theorem(p) == []
    assert posets


def _class_boundary():
    p = ConePipeline(get_cone("dihedral-standard"), 1).ball_poset
    a, b = normalize_decomposition(p)[0]
    doubled = blow_up_gplus(p)
    _relate_across_a_class_boundary(p, a, b)
    _relate_across_a_class_boundary(doubled, (a, PLAIN), (b, PLAIN))
    return [p, doubled]


def _chain_with(corrupt):
    p = chain("abcd")
    corrupt(p)
    return [p]


def _travel_mask(pair, mask):
    def corrupt(p):
        p._bet[pair[0] * p.n + pair[1]] = mask
    return corrupt


def _beside_a_certified_twin(corrupt):
    """A chain corrupted after its uncorrupted twin, still alive, has put
    its verdict on the geometry they share."""
    gc.collect()  # no four-point poset left in a cycle by an earlier test shares the geometry
    twin, p = chain("abcd"), chain("abcd")
    assert _certified(twin)
    corrupt(p)
    assert _geometry(p) is _geometry(twin) and _geometry(p).verdicts == {twin._comp: True}
    return [p]


def _kept_chain_answer_flipped(p):
    p.between_set("a", "d")
    p._orel[0] ^= 0b0100  # a's kept chain answer on c flips; comp stays the twin's


@pytest.mark.parametrize("corrupted", [
    _class_boundary,
    lambda: _chain_with(_unrelated_within_a_class),
    lambda: _chain_with(_unrelated_both_ways),
    lambda: _chain_with(_related_across_classes),
    *(lambda pair=pair, mask=mask: _chain_with(_travel_mask(pair, mask)) for pair, mask, _ in TRAVEL_CORRUPTIONS),
    lambda: _beside_a_certified_twin(_unrelated_within_a_class),
    lambda: _beside_a_certified_twin(_kept_chain_answer_flipped),
], ids=["class-boundary", "unrelated-within-a-class", "unrelated-both-ways", "related-across-classes",
        "earlier-member-missing", "later-member-present", "twin-certified-first", "chain-answer-flipped"])
def test_the_certificate_refuses_a_corrupted_memo_and_the_per_pair_pass_reports_it(corrupted):
    for q in corrupted():
        assert not _certified(q) and not oracles.single_pass_certified(q, _between_table(q))
        suite = run_relation_suite(q)
        assert not suite["ok"] and suite["travel"] + suite["o_equivalence"]
        assert suite == oracles.per_pair_suite(q)
        assert q.verify_o_equivalence() == suite["o_equivalence"]
        assert q.verify_o_equivalence(limit=1) == suite["o_equivalence"][:1]


def test_the_certificate_refuses_a_comparability_seen_from_one_side():
    # x and y are incomparable, and B(x, y) = {x, z, y} is no chain however
    # they compare, so every between_set still passes once comp[x] alone
    # names y; the certificate reads one side of each pair and must refuse
    p = from_pairs("xyz", [("x", "siml", "y"), ("z", "lt", "x"), ("y", "siml", "z")])
    p._comp = (p._comp[0] | 0b010, *p._comp[1:])
    assert not _certified(p) and not oracles.single_pass_certified(p, _between_table(p))
    suite = run_relation_suite(p)
    assert suite["ok"] and suite == oracles.per_pair_suite(p)


def _corrupted_member(p, a, c, x):
    """Flip x's membership in B(a, c) in the memo, and return the same
    corruption as a membership test for the oracle."""
    i, k = sorted((p.index(a), p.index(c)))
    p._bet[i * p.n + k] = p._between_mask(i, k) ^ 1 << p.index(x)

    def inside(u, y, v):
        flipped = {u, v} == {a, c} and y == x
        return p.is_between(u, y, v) != flipped
    return inside


@pytest.mark.parametrize("poset, a, c, x", [
    (lambda: chain("abcd"), "a", "c", "b"),
    (lambda: chain("abcd"), "a", "b", "d"),
    (lambda: crown(), "b", "c", "a"),
    (lambda: tree_corpus(3, seed=17)[2], 1, 4, 6),
], ids=["chain-loses-a-member", "chain-gains-a-member", "crown-gains-the-bottom", "tree"])
def test_the_theorem_scan_names_the_ordered_witnesses_of_a_corrupted_mask(poset, a, c, x):
    p = poset()
    inside = _corrupted_member(p, a, c, x)
    want = oracles.naive_between_theorem(p, limit=100, inside=inside)
    assert want
    assert p.verify_between_theorem(limit=3) == want[:3]
    assert p.verify_between_theorem() == want


@pytest.mark.parametrize("n, tables, verdicts", [(4, 25, 200), (5, 216, 3456)])
def test_posets_with_one_between_table_share_one_geometry_while_they_live(n, tables, verdicts):
    gc.collect()  # geometries of posets left in cycles by earlier tests would count below
    posets = all_extended_posets(n)
    assert len({id(_geometry(p)) for p in posets}) == len({_between_table(p) for p in posets}) == tables
    assert all(run_relation_suite(p)["ok"] for p in posets)
    # the certificate ran once per (table, comparability); here each pair is a poset and its reverse
    assert sum(len(geo.verdicts) for geo in _GEOMETRIES.values()) == verdicts == len(posets) // 2
    del posets  # they go by reference count, not at the next cycle collection
    assert not _GEOMETRIES


def test_posets_that_share_a_corrupted_table_name_their_own_witnesses():
    p, q = chain("abcd"), chain("wxyz")
    corrupted = [(p, _corrupted_member(p, "a", "c", "b")), (q, _corrupted_member(q, "w", "y", "x"))]
    assert _geometry(p) is _geometry(q)
    for r, inside in corrupted:
        want = oracles.naive_between_theorem(r, limit=100, inside=inside)
        assert want and {w["a"] for w in want} <= set(r.elements)
        assert r.verify_between_theorem() == want
        assert run_relation_suite(r)["theorem"] == want[:3]
