from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from treeorder.catalog import dihedral_standard
from treeorder.orbitorder import ConePipeline
from treeorder.ordertree import (
    OrderTree,
    TreeError,
    TreeIndex,
    check_blowup,
    denjoy_blowup,
    alternating_line_tree,
)


def test_alternating_tree_alternates():
    tree = alternating_line_tree(3)
    assert sorted(tree.nodes) == [-3, -2, -1, 0, 1, 2, 3]
    assert len(tree.arcs) == 6
    assert tree.boundary == {-3, 3}
    # Even integers emit, odd integers absorb.
    assert tree.arcs[("s", 0)].tail == 0 and tree.arcs[("s", 0)].head == 1
    assert tree.arcs[("s", 1)].tail == 2 and tree.arcs[("s", 1)].head == 1
    for n in (-1, 1):
        assert tree.degrees(("node", n))["kind"] == "sink"
    assert tree.degrees(("node", 0))["kind"] == "source"


def test_alternating_tree_needs_room():
    with pytest.raises(TreeError):
        alternating_line_tree(1)


def test_add_arc_requires_known_nodes():
    tree = OrderTree()
    tree.add_node("a")
    with pytest.raises(TreeError, match="missing node"):
        tree.add_arc("e", "a", "b")
    tree.add_node("b")
    tree.add_arc("e", "a", "b")
    with pytest.raises(TreeError, match="duplicate"):
        tree.add_arc("e", "b", "a")


def test_identified_graph_of_a_path():
    tree = OrderTree()
    for n in "abc":
        tree.add_node(n)
    tree.add_arc("e1", "a", "b")
    tree.add_arc("e2", "b", "c")
    tokens, edges, roots = tree.identified_graph()
    assert len(edges) == 2
    assert tree.is_branchless()
    assert tree.degrees(("node", "b"))["kind"] == "regular"


def test_tree_index_labels_subtrees_and_flags_cycles():
    index = TreeIndex("abcd", [("a", "b"), ("b", "c"), ("a", "d")])
    assert (index.components, index.cyclic) == (1, False)
    assert index.parent == {"a": None, "b": "a", "c": "b", "d": "a"}
    assert [index.tin["b"] <= index.tin[v] < index.tout["b"] for v in "abcd"] == [False, True, True, False]
    assert TreeIndex("ab", [("a", "b"), ("b", "a")]).cyclic
    assert TreeIndex("abc", [("a", "b")]).components == 2


def test_blowup_is_branchless_and_collapses_back():
    tree = alternating_line_tree(3)
    m = denjoy_blowup(tree)
    assert m.is_branchless()
    report = check_blowup(m)
    assert report["ok"], report["problems"]
    # Interior integers each grow a stub; the window keeps its six arcs.
    core = [aid for aid, arc in m.arcs.items() if arc.core]
    assert len(core) == len(tree.arcs)


def test_blowup_phi_collapse():
    tree = alternating_line_tree(2)
    m = denjoy_blowup(tree)
    for aid, arc in m.arcs.items():
        p = ("arc", aid, Fraction(1, 2))
        if arc.core:
            assert oracles.is_core_point(m, p)
            base = oracles.phi_point(m, p)
            assert base[0] == "arc"
            assert base[1] in tree.arcs
        else:
            assert not oracles.is_core_point(m, p)


def test_blowup_node_census():
    # Growth is linear in the window size: each stub splits one point into
    # a pair of open caps plus the stub's own endpoints.
    m = denjoy_blowup(alternating_line_tree(2))
    kinds: dict = {}
    for nid in m.sorted_node_ids():
        kinds[m.nodes[nid].kind] = kinds.get(m.nodes[nid].kind, 0) + 1
    assert kinds == {"open": 3, "openray": 3, "point": 8}


def _trees_and_blowups():
    rng = random.Random(9)
    for _ in range(40):
        tree = OrderTree()
        tree.add_node(0)
        for v in range(1, rng.randint(2, 12)):
            tree.add_node(v)
            parent = rng.randrange(v)
            tree.add_arc(("e", v), *((parent, v) if rng.random() < 0.5 else (v, parent)))
        yield tree
        yield denjoy_blowup(tree)
    for radius in (3, 5):
        yield denjoy_blowup(ConePipeline.of(dihedral_standard(), radius).layout().tree)


def test_node_incidences_agree_with_a_scan_per_node():
    nodes = 0
    for tree in _trees_and_blowups():
        rays = tree.node_incidences()
        for nid, rec in tree.nodes.items():
            if rec.kind == "point":
                nodes += 1
                assert rays[nid] == oracles.naive_incidences(tree, nid), nid
    assert nodes > 500


def test_blowup_sorts_the_arcs_a_fixed_number_of_times(monkeypatch):
    calls = []
    sort_arcs = OrderTree.sorted_arc_ids
    monkeypatch.setattr(OrderTree, "sorted_arc_ids", lambda self: calls.append(1) or sort_arcs(self))
    counts = []
    for radius in (3, 5):
        tree = ConePipeline.of(dihedral_standard(), radius).layout().tree
        calls.clear()
        denjoy_blowup(tree)
        counts.append(len(calls))
    # check, copy, three blow-up passes and the final branch check
    assert counts == [6, 6]
