from __future__ import annotations

import random
import re

import pytest

import oracles
from treeorder.corpus import (
    BASE_ORDER_COUNTS,
    all_extended_posets,
    count_base_orders,
    random_tree_poset,
    run_corpus_suite,
    run_relation_suite,
    tree_corpus,
)
from treeorder.poset import SIML, SIMU, ExtendedPoset, PosetError


def test_base_counts_match_the_reference_sequence():
    for n, expected in BASE_ORDER_COUNTS.items():
        assert count_base_orders(n) == expected
    assert tuple(BASE_ORDER_COUNTS[n] for n in range(6)) == oracles.LABELED_ORDER_COUNTS


def test_base_counts_match_the_naive_enumeration():
    for n in range(6):
        assert count_base_orders(n) == oracles.count_naive_base_orders(n)


def _assert_matches_naive_tables(n: int, expected: int) -> None:
    def table_set(tables) -> set:
        return {tuple(sorted(table.items())) for table in tables}

    posets = all_extended_posets(n)
    tables = oracles.naive_extended_tables(n)
    assert len(posets) == len(tables) == expected
    assert table_set(p.relations_table() for p in posets) == table_set(tables)


def test_extended_counts_match_the_naive_enumeration():
    for n, expected in enumerate((1, 1, 4, 32, 400)):
        _assert_matches_naive_tables(n, expected)


def test_extended_count_at_five_is_frozen():
    # one naive pass at n = 5 serves both the frozen count and the contents
    _assert_matches_naive_tables(5, 6912)


def test_extended_posets_keep_the_generate_and_reject_order():
    for n in range(5):
        assert [p.rows for p in all_extended_posets(n)] == [
            p.rows for p in oracles.generate_and_reject_posets(n)
        ]


def test_enumeration_constructs_only_the_posets_it_returns(monkeypatch):
    calls = []
    construct = ExtendedPoset.__init__

    def counting(self, *args):
        calls.append(1)
        construct(self, *args)

    monkeypatch.setattr(ExtendedPoset, "__init__", counting)
    for n in range(6):
        calls.clear()
        posets = all_extended_posets(n)
        assert len(calls) == len(posets)


def test_three_element_census():
    tallies = {"total": 0, "trivial": 0, "untagged": 0, "mixed": 0}
    for p in all_extended_posets(3):
        tallies["total"] += 1
        tags = {p.rel(a, b) for a, b in p.iter_pairs() if p.rel(a, b) in (SIMU, SIML)}
        if not tags:
            tallies["untagged"] += 1
        elif p.is_trivial_extension():
            tallies["trivial"] += 1
        else:
            tallies["mixed"] += 1
    # Six labeled chains carry no incomparable pair; the only mixed-tag
    # shapes come from the single-relation bases, one tagging each.
    assert tallies == {"total": 32, "untagged": 6, "trivial": 20, "mixed": 6}


@pytest.mark.parametrize("count", [all_extended_posets, count_base_orders])
def test_a_negative_point_count_is_refused(count):
    with pytest.raises(PosetError, match=r"^point count must not be negative, got -1$"):
        count(-1)


@pytest.mark.parametrize("draw", [lambda: random_tree_poset(random.Random(1), max_points=1),
                                  lambda: tree_corpus(3, 1, 1), lambda: tree_corpus(max_points=-2)],
                         ids=["random_tree_poset", "tree_corpus", "negative"])
def test_fewer_than_two_points_per_tree_is_refused(draw):
    with pytest.raises(PosetError, match=r"^max_points must be at least 2, got -?[0-9]+$"):
        draw()


def test_every_enumerated_poset_passes_the_relation_suite():
    for n in range(5):
        for p in all_extended_posets(n):
            suite = run_relation_suite(p)
            assert suite["ok"], (n, p.relations_table(), suite)


def test_the_relation_suite_leaves_the_between_memo_empty():
    # the laws read the geometry's table, so the suite has no use for _bet;
    # nor, as the certificate answers every pair, for an element index or chain rows
    posets = all_extended_posets(5)
    for p in posets:
        assert run_relation_suite(p)["ok"]
    assert [p for p in posets if p._bet] == []
    assert [p for p in posets if p._idx is not None or p._tested is not None or p._orel is not None] == []
    for p in posets[::10]:
        with pytest.raises(PosetError, match=re.escape("'x' is not an element")):
            p.index("x")
        assert oracles.naive_o_equivalence(p) == []
        for a, b in p.iter_pairs():
            members = [z for z in p.elements if p.is_between(a, z, b)]
            chain = all(p.classify(u, v) in ("lt", "gt") for u in members for v in members if u != v)
            assert p.o_related(a, b) == p.o_related(b, a) == chain


@pytest.mark.parametrize("case", [0, 1, 2, 3, 4, 5, "trees-100"])
def test_the_transitivity_scan_agrees_with_the_suite_class_check(case):
    posets = tree_corpus(100) if case == "trees-100" else all_extended_posets(case)
    for p in posets:
        assert bool(oracles.naive_o_equivalence(p)) == bool(run_relation_suite(p)["o_equivalence"])


def test_tree_corpus_is_seeded_and_admissible():
    batch = tree_corpus(count=20, seed=20260815)
    again = tree_corpus(count=20, seed=20260815)
    assert len(batch) == 20
    for p, q in zip(batch, again):
        assert p.relations_table() == q.relations_table()
    for p in batch:
        assert run_relation_suite(p)["ok"]


def test_random_tree_posets_keep_their_points():
    rng = random.Random(7)
    for _ in range(10):
        p = random_tree_poset(rng, max_points=10)
        assert 2 <= p.n <= 10
        assert len(p.points) == p.n


def test_random_tree_poset_caps_points_at_the_free_positions():
    # one arc holds 15 positions; asking for up to 24 points once looped forever
    p = random_tree_poset(random.Random(113), max_points=24)
    assert len({pt[1] for pt in p.points}) == 1
    assert p.n == len(set(p.points)) == 15


def test_corpus_suite_summary():
    report = run_corpus_suite(max_n=4, tree_count=10, seed=3)
    assert report["ok"], report["failures"]
    assert report["counts"] == {
        0: {"base": 1, "extended": 1},
        1: {"base": 1, "extended": 1},
        2: {"base": 3, "extended": 4},
        3: {"base": 19, "extended": 32},
        4: {"base": 219, "extended": 400},
    }
    assert report["checked"] == 1 + 1 + 4 + 32 + 400 + 10
