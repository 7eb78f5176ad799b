from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction

import pytest

import oracles
from treeorder.actions import alternating_line_tree, check_blowup
from treeorder.catalog import BUILTIN_CONES, dihedral_standard, get_cone
from treeorder.errors import ConeError
from treeorder.orbitorder import ConePipeline
from treeorder.ordertree import OrderTree, TreeError, TreeIndex, denjoy_blowup, manifold_order, manifold_poset
from treeorder.specio import canonical_json, tree_to_document


def test_alternating_tree_alternates():
    tree = alternating_line_tree(3)
    assert sorted(tree.nodes) == [-3, -2, -1, 0, 1, 2, 3]
    assert len(tree.arcs) == 6
    assert tree.boundary == {-3, 3}
    # Even integers emit, odd integers absorb.
    assert tree.arcs[("s", 0)].tail == 0 and tree.arcs[("s", 0)].head == 1
    assert tree.arcs[("s", 1)].tail == 2 and tree.arcs[("s", 1)].head == 1
    rays = tree.node_incidences()
    for n in (-1, 1):
        assert list(map(len, rays[n])) == [2, 0]  # a sink
    assert list(map(len, rays[0])) == [0, 2]  # a source


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
    tokens, edges = tree.identified_graph()
    assert tokens == [("n", "a"), ("n", "b"), ("n", "c")]
    assert edges == [(("n", "a"), ("n", "b"), "e1"), (("n", "b"), ("n", "c"), "e2")]
    assert tree.is_branchless()
    assert tree.node_incidences()["b"] == (["e1"], ["e2"])


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
    for kind in m.nodes.values():
        kinds[kind] = kinds.get(kind, 0) + 1
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
        for nid, kind in tree.nodes.items():
            if kind == "point":
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
    # the rays read once for the visits, and once for the final branch check
    assert counts == [2, 2]


def test_a_poset_of_node_points_reads_the_rays_once(monkeypatch):
    m = denjoy_blowup(ConePipeline.of(dihedral_standard(), 8).layout().tree)
    nodes = [("node", nid) for nid, kind in m.nodes.items() if kind == "point"]
    arcs = [("arc", aid, Fraction(1, 2)) for aid in m.sorted_arc_ids()]
    calls = []
    incidences = OrderTree.node_incidences
    monkeypatch.setattr(OrderTree, "node_incidences", lambda self: calls.append(1) or incidences(self))
    # nodes at one arc end share a point, ordered here by element
    assert manifold_poset(m, dict(enumerate(nodes)), lambda g, h: g < h).n == len(nodes) == 63
    assert len(calls) == 1
    calls.clear()
    assert manifold_poset(m, dict(enumerate(arcs))).n == len(arcs)
    assert not calls  # arc points need no rays
    manifold_order(m, nodes[0], nodes[-1])
    manifold_order(m, nodes[0], arcs[0])
    assert len(calls) == 2  # one per order query, though the first names two nodes


# -- the blow-up, pinned -------------------------------------------------------
#
# The layout, line and random-tree digests below were recorded from the
# three-pass blow-up that the single visit per node replaced; the API-built
# trees' digest from the blow-up that moves adjacency rays like arc ends.  A
# tree is compared on everything the blow-up decides, independent of dict
# and list order.


def blowup_rows(m) -> list:
    return [
        sorted(map(repr, m.nodes.items())),
        sorted(repr((aid, a.tail, a.head, a.kind, a.core)) for aid, a in m.arcs.items()),
        sorted(map(repr, m.boundary)),
        sorted(map(repr, m.adjacencies)),
        sorted(map(repr, m.phi_nodes.items())),
        sorted(map(repr, m.phi_arcs.items())),
    ]


def blowup_digest(trees) -> tuple:
    """How many trees, and a sha256 of each blow-up's rows, or of the
    TreeError text where the blow-up refuses the tree."""
    rows = []
    for tree in trees:
        try:
            rows.append(blowup_rows(denjoy_blowup(tree)))
        except TreeError as err:
            rows.append(str(err))
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()


def random_oriented_tree(rng) -> OrderTree:
    """Up to 12 nodes; parents drawn from the first few nodes make general
    branch points, random orientations make sinks and sources, a single
    node is isolated, and some leaves are window boundary."""
    tree = OrderTree()
    n = rng.randint(1, 12)
    for v in range(n):
        tree.add_node(v)
    for v in range(1, n):
        parent = rng.randrange(min(v, rng.randint(1, 4)))
        tree.add_arc(("e", v), *((parent, v) if rng.random() < 0.5 else (v, parent)))
    rays = tree.node_incidences()
    tree.boundary = {v for v in range(n) if sum(map(len, rays[v])) == 1 and rng.random() < 0.3}
    return tree


def copy_tree(m, reverse: bool = False) -> OrderTree:
    """A copy of m, its nodes, arcs and adjacencies inserted in m's order or
    in reverse."""
    order = reversed if reverse else iter
    t = OrderTree()
    for nid, kind in order(m.nodes.items()):
        t.add_node(nid, kind)
    for aid, a in order(m.arcs.items()):
        t.add_arc(aid, a.tail, a.head, a.kind, a.core)
    for adjacency in order(m.adjacencies):
        t.add_adjacency(*adjacency)
    t.boundary = set(m.boundary)
    return t


def layout_trees():
    for name in sorted(BUILTIN_CONES):
        for radius in range(4):
            for stages in (1, 2, 3, 6, None):
                try:
                    yield ConePipeline.of(get_cone(name), radius).layout(stages).tree
                except ConeError:
                    pass  # z-broken and z2-product have no ball order past radius 0


def test_blowups_of_the_builtin_layouts_are_pinned():
    assert blowup_digest(layout_trees()) == (110, "c8e64a019b044a6a2f4b3c43cf1e0ef69c6bf0e5ffcbc704194d43ae1d4cb000")


def test_blowups_of_alternating_lines_are_pinned():
    lines = (alternating_line_tree(w) for w in range(2, 8))
    assert blowup_digest(lines) == (6, "8655837bc7a97258e95a9c085598c0dd73c2a1b49c4d7bb5f39bbfad14b451a0")


def test_blowups_of_random_oriented_trees_are_pinned():
    rng = random.Random(24)
    trees = [random_oriented_tree(rng) for _ in range(2000)]
    counts = [tuple(map(len, rays)) for tree in trees for rays in tree.node_incidences().values()]
    assert any(n_in > 1 and n_out > 1 for n_in, n_out in counts)  # general branch points
    assert any(n_in and not n_out for n_in, n_out in counts)  # sinks
    assert any(n_out and not n_in for n_in, n_out in counts)  # sources
    assert (0, 0) in counts  # an isolated node
    assert sum(bool(tree.boundary) for tree in trees) > 500
    assert blowup_digest(trees) == (2000, "7815771199827e9fd1db018399f80aa4205457d50dd4c22222b7980afa6059f5")


def touching_two_open_ends(side: str) -> OrderTree:
    """A point c touching the open ends of two arcs from one side, with
    two arcs of its own on the other side: c branches both ways, and once
    stretched the end facing the open ends has no arc left."""
    tree = OrderTree.build("xyc", [])
    for k, x in enumerate("xy"):
        far, aid = ("o", k), ("a", k)
        tree.add_node(far, "open")
        tree.add_arc(aid, *((x, far) if side == "head" else (far, x)))
        tree.add_adjacency("c", aid, side)
        tree.add_node(("z", k))
        tree.add_arc(("b", k), *(("c", ("z", k)) if side == "head" else (("z", k), "c")))
    return tree


def api_built_trees():
    """Trees no builder makes: a blow-up blown up again, caps given extra
    arcs in, out or both ways, and a point touching two open ends."""
    yield touching_two_open_ends("head")
    yield touching_two_open_ends("tail")
    line = denjoy_blowup(alternating_line_tree(3))
    dihedral = denjoy_blowup(ConePipeline.of(dihedral_standard(), 2).layout().tree)
    yield line
    yield dihedral
    caps = sorted({cap for cap, _arc, _side in dihedral.adjacencies}, key=repr)
    for cap in caps:
        for n_in, n_out in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)):
            t = copy_tree(dihedral)
            for k in range(n_in):
                t.add_node(("x-in", k))
                t.add_arc(("extra-in", k), ("x-in", k), cap)
            for k in range(n_out):
                t.add_node(("x-out", k))
                t.add_arc(("extra-out", k), cap, ("x-out", k))
            yield t


def test_blowups_of_api_built_trees_are_pinned():
    # every tree blows up into a manifold that passes its collapse checks;
    # the digest pins the blow-ups as they are, not a correctness bound
    assert all(check_blowup(denjoy_blowup(tree))["ok"] for tree in api_built_trees())
    assert blowup_digest(api_built_trees()) == (100, "5d5c8d1abfac6c4a97f46fed7fb40989ef67ab6189086da6185d36c2b76fe2e8")


def emitted_blowup(tree) -> str:
    try:
        return canonical_json(tree_to_document(denjoy_blowup(tree)))
    except TreeError as err:
        return str(err)


def test_a_blowup_does_not_depend_on_insertion_order():
    layouts = [ConePipeline.of(get_cone(name), radius).layout().tree
               for name in sorted(BUILTIN_CONES) if name not in ("z-broken", "z2-product") for radius in range(1, 5)]
    rng = random.Random(27)
    trees = [*layouts, *map(denjoy_blowup, layouts), *api_built_trees(),
             *(random_oriented_tree(rng) for _ in range(500))]
    assert len(trees) == 640
    for tree in trees:
        assert emitted_blowup(copy_tree(tree, reverse=True)) == emitted_blowup(tree)


def test_a_repeated_adjacency_is_refused():
    m = denjoy_blowup(alternating_line_tree(3))
    adjacencies = list(m.adjacencies)
    with pytest.raises(TreeError, match=f"^duplicate adjacency {re.escape(repr(adjacencies[0]))}$"):
        m.add_adjacency(*adjacencies[0])
    assert list(m.adjacencies) == adjacencies


def test_two_points_joining_the_same_two_open_ends_make_a_cycle():
    # c1 and c2 each join the open heads of arcs from x and y: a line with
    # its meeting point doubled, which is not simply connected
    tree = OrderTree.build(["x", "y", "c1", "c2", "z1", "z2"], [("b1", "c1", "z1"), ("b2", "c2", "z2")])
    for k, x in enumerate("xy"):
        tree.add_node(("o", k), "open")
        tree.add_arc(("a", k), x, ("o", k))
        for cap in ("c1", "c2"):
            tree.add_adjacency(cap, ("a", k), "head")
    assert tree.check_axioms()["problems"] == ["identified arc graph has a cycle"]


@pytest.mark.parametrize("tree", [
    lambda: alternating_line_tree(3),
    lambda: ConePipeline.of(dihedral_standard(), 3).layout(None).tree,
], ids=["line-3", "dihedral-r3-layout"])
def test_a_blowup_of_a_blowup_passes_its_collapse_checks(tree):
    # the base's stubs are not core, so no core preimage is asked of them
    m = denjoy_blowup(tree())
    assert any(not arc.core for arc in m.arcs.values())
    again = denjoy_blowup(m)
    assert check_blowup(again) == {"ok": True, "problems": []}
    assert blowup_rows(again)[:4] == blowup_rows(m)[:4]


@pytest.mark.parametrize("cap, arc, side, problem", [
    ("z", "e", "head", "adjacency references missing node 'z'"),
    ("a", "f", "head", "adjacency references missing arc 'f'"),
    ("a", "e", "middle", "bad adjacency side 'middle'"),
], ids=["cap", "arc", "side"])
def test_an_adjacency_must_join_a_node_to_an_arc_end(cap, arc, side, problem):
    tree = OrderTree.build("ab", [("e", "a", "b")])
    with pytest.raises(TreeError, match=f"^{problem}$"):
        tree.add_adjacency(cap, arc, side)
    assert not tree.adjacencies
