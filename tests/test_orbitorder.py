from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

import oracles
from treeorder import corpus, orbitorder
from treeorder.catalog import derive_cone_pieces, dihedral_standard, get_cone, zk_lex
from treeorder.groups import Z, Zk
from treeorder.grouporder import induced_ball_poset
from treeorder.orbitorder import (
    DIHEDRAL_BASE_POINT,
    ConePipeline,
    OrbitError,
    check_action,
    dihedral_example,
    integer_line,
    label_action,
    line_coordinate,
    line_point,
    manifold_graph,
    manifold_order,
    manifold_poset,
    orbit_poset,
    roundtrip_orbit,
    shift_action,
    stabilizer_extension_order,
)
from treeorder.ordertree import OrderTree, TreeError, denjoy_blowup
from treeorder.poset import EQ, GT, LT, REL_NAMES, SIML, SIMU, ExtendedPoset, PosetError


def uniform_line_points(width):
    pts = []
    for i in range(-width, width):
        for k in (1, 3):
            pts.append(("arc", ("s", i), Fraction(k, 4)))
    return pts


def test_uniform_line_order_matches_coordinates():
    # On a line with every arc pointing the same way, the forward-component
    # order must reduce to plain coordinate comparison.
    m = integer_line(3)
    pts = uniform_line_points(3)
    for x in pts:
        for y in pts:
            coded = manifold_order(m, x, y)
            cx = x[1][1] + x[2]
            cy = y[1][1] + y[2]
            assert REL_NAMES[coded] == oracles.coordinate_rel(cx, cy)


def test_uniform_line_between_is_the_interval():
    m = integer_line(2)
    pts = uniform_line_points(2)
    p = ExtendedPoset.from_relation(tuple(pts), lambda x, y: manifold_order(m, x, y))

    def coord(pt):
        return pt[1][1] + pt[2]

    for a in pts:
        for b in pts:
            if a == b:
                continue
            members = set(p.between_members(a, b))
            expected = {c for c in pts if oracles.coordinate_between(coord(a), coord(b), coord(c))}
            assert members == expected


def test_alternating_line_coordinates():
    assert line_coordinate(("s", 0), Fraction(1, 4)) == Fraction(1, 4)
    assert line_coordinate(("s", 1), Fraction(1, 4)) == Fraction(7, 4)
    m = dihedral_example(2)[1]
    pt = line_point(m, Fraction(9, 4), alternating=True)
    assert pt is not None
    assert line_coordinate(pt[1], pt[2]) == Fraction(9, 4)
    assert line_point(m, Fraction(1), alternating=True) is None
    assert line_point(m, Fraction(999), alternating=True) is None


def test_alternating_line_relations():
    _, m, _ = dihedral_example(2)
    a = ("arc", ("s", 0), Fraction(1, 4))
    facing = ("arc", ("s", 1), Fraction(1, 4))
    assert manifold_order(m, a, facing) == SIMU
    behind = ("arc", ("s", -1), Fraction(1, 4))
    assert manifold_order(m, a, behind) == SIML
    same = ("arc", ("s", 0), Fraction(3, 4))
    assert manifold_order(m, a, same) == LT
    assert manifold_order(m, same, a) == GT
    assert manifold_order(m, a, a) == EQ


def test_stub_pairs_share_their_window():
    _, m, _ = dihedral_example(2)
    stubs = sorted(aid for aid in m.arcs if not m.arcs[aid].core)
    # Odd integers are sinks and grow outgoing stubs; even ones take incoming.
    sink_stubs = [("arc", aid, Fraction(1, 2)) for aid in stubs if aid[1] % 2 == 1]
    source_stubs = [("arc", aid, Fraction(1, 2)) for aid in stubs if aid[1] % 2 == 0]
    for i, x in enumerate(sink_stubs):
        for y in sink_stubs[i + 1 :]:
            assert manifold_order(m, x, y) == SIML
    for i, x in enumerate(source_stubs):
        for y in source_stubs[i + 1 :]:
            assert manifold_order(m, x, y) == SIMU


def test_dihedral_action_checks_out():
    _, m, action = dihedral_example(3)
    rep = check_action(m, action, radius=2)
    assert rep["ok"], rep


def test_shift_orbit_is_a_chain():
    m = integer_line(5)
    action = shift_action(m, Z(), lambda n: n, name="unit-shift")
    x0 = ("arc", ("s", 0), Fraction(1, 4))
    orb = orbit_poset(m, action, x0, 4)
    assert sorted(orb.realized) == list(range(-4, 5))
    assert orb.escaped == ()
    assert orb.coverage == Fraction(1)
    for g, h in orb.poset.iter_pairs():
        assert orb.poset.rel(g, h) == (LT if g < h else GT)


def test_escape_is_reported_not_guessed():
    m = integer_line(2)
    action = shift_action(m, Z(), lambda n: n, name="unit-shift")
    x0 = ("arc", ("s", 0), Fraction(1, 4))
    orb = orbit_poset(m, action, x0, 4)
    assert set(orb.escaped) == {-4, -3, 2, 3, 4}
    assert sorted(orb.realized) == [-2, -1, 0, 1]
    assert orb.coverage == Fraction(4, 9)


def test_fixed_base_point_is_rejected():
    m = integer_line(3)
    action = shift_action(m, Z(), lambda n: 0, name="crushed")
    with pytest.raises(OrbitError, match="stabilizer"):
        orbit_poset(m, action, ("arc", ("s", 0), Fraction(1, 4)), 2)


def test_dihedral_orbit_matches_cone_ball():
    _, m, action = dihedral_example(4)
    orb = orbit_poset(m, action, DIHEDRAL_BASE_POINT, 4)
    induced = induced_ball_poset(dihedral_standard(), 4)
    assert set(orb.realized) == set(induced.elements)
    for g, h in induced.iter_pairs():
        assert orb.poset.rel(g, h) == induced.rel(g, h)


def test_derived_cone_pieces_match_the_frozen_predicates():
    cone = dihedral_standard()
    pieces = derive_cone_pieces(4)
    assert len(pieces) == 16
    for g, side in pieces.items():
        assert side == cone.side(g)


def test_stabilizer_extension_reproduces_lex_order():
    _, m, action = dihedral_example(4)

    def project(v):
        return v[0]

    def stab_order(a, b):
        return a[1] < b[1]

    lex = zk_lex(2)
    plane = Zk(2)
    line_m = integer_line(6)
    line_act = shift_action(line_m, plane, project, name="first-coordinate")
    x0 = ("arc", ("s", 0), Fraction(1, 4))
    ext = stabilizer_extension_order(line_m, line_act, x0, 2, stab_order)
    ball = induced_ball_poset(lex, 2)
    for g, h in ball.iter_pairs():
        if g in ext.realized and h in ext.realized:
            assert ext.poset.rel(g, h) == ball.rel(g, h)


def test_roundtrip_is_exact_for_both_walks():
    for cone in (None, dihedral_standard()):
        if cone is None:
            from treeorder.catalog import z_standard

            cone = z_standard()
        rep = roundtrip_orbit(cone, radius=4)
        assert rep["ok"], rep["mismatches"]
        assert rep["mismatches"] == []
        assert rep["realized"] == rep["ball"]
        assert rep["coverage"] == Fraction(1)


def random_tree(rng):
    tree = OrderTree()
    tree.add_node(0)
    for v in range(1, rng.randint(2, 12)):
        tree.add_node(v)
        parent = rng.randrange(v)
        tree.add_arc(("e", v), *((parent, v) if rng.random() < 0.5 else (v, parent)))
    return tree


def oracle_mismatches(m):
    forward = oracles.naive_forward_sets(m)
    graph = manifold_graph(m)
    points = [("arc", aid, Fraction(k, 3)) for aid in m.sorted_arc_ids() for k in (1, 2)]
    return [
        (x, y) for x in points for y in points
        if REL_NAMES[manifold_order(m, x, y, graph)] != oracles.naive_arc_rel(m, forward, x, y)
    ]


def test_manifold_order_matches_the_naive_search_on_random_trees():
    rng = random.Random(4)
    for _ in range(100):
        tree = random_tree(rng)
        assert oracle_mismatches(tree) == []
        assert oracle_mismatches(denjoy_blowup(tree)) == []


@pytest.mark.parametrize("radius, caps", [(3, 20), (5, 36)])
def test_manifold_order_matches_the_naive_search_on_built_layouts(radius, caps):
    m = denjoy_blowup(ConePipeline.of(dihedral_standard(), radius).layout().tree)
    assert len({cap for cap, _arc, _side in m.adjacencies}) == caps
    assert oracle_mismatches(m) == []


def test_manifold_order_matches_the_naive_search_on_the_dihedral_line():
    assert oracle_mismatches(dihedral_example(4)[1]) == []


def test_manifold_graph_needs_a_tree():
    tree = OrderTree.build("abc", [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")])
    with pytest.raises(TreeError, match="not a tree"):
        manifold_graph(tree)


def test_coincident_orbit_points_have_no_relation():
    m = integer_line(6)
    action = shift_action(m, Z(), abs, name="absolute")
    with pytest.raises(PosetError, match=re.escape("pair (-1, 1) has no admissible relation")):
        orbit_poset(m, action, ("arc", ("s", 0), Fraction(1, 4)), 2)


def manifold_order_mismatches(m, points, poset):
    """Pairs the poset relates otherwise than manifold_order does, or, for
    two arc points, otherwise than the naive forward-set search does."""
    graph, forward = manifold_graph(m), oracles.naive_forward_sets(m)
    out = []
    for g in poset.elements:
        for h in poset.elements:
            x, y = points[g], points[h]
            if g == h:
                continue
            want = {REL_NAMES[manifold_order(m, x, y, graph)]}
            if x[0] == y[0] == "arc":
                want.add(oracles.naive_arc_rel(m, forward, x, y))
            if want != {poset.classify(g, h)}:
                out.append((g, h))
    return out


@pytest.mark.parametrize("name, radius", [("dihedral-standard", 6), ("z2-lex", 3), ("free2-standard", 3)])
def test_orbit_rows_agree_with_manifold_order_on_roundtrip_manifolds(name, radius):
    pipeline = ConePipeline(get_cone(name), radius)
    manifold = denjoy_blowup(pipeline.layout().tree)
    action, x0, _ = label_action(pipeline.build(), pipeline.layout(), manifold)
    orbit = orbit_poset(manifold, action, x0, radius)
    assert orbit.realized == tuple(orbit.points) and len(orbit.realized) > 20
    assert manifold_order_mismatches(manifold, orbit.points, orbit.poset) == []


def test_orbit_rows_agree_with_manifold_order_on_tree_corpus_points(monkeypatch):
    seen = []

    def recording(m, points):
        seen.append((m, points))
        return manifold_poset(m, points)

    monkeypatch.setattr(corpus, "manifold_poset", recording)
    posets = corpus.tree_corpus(100)
    assert len(seen) == 100
    for p, (m, points) in zip(posets, seen):
        assert manifold_order_mismatches(m, points, p) == []


def test_point_rows_agree_with_manifold_order_on_random_trees_with_node_points():
    rng = random.Random(5)
    for _ in range(40):
        tree = random_tree(rng)
        by_element = dict(enumerate(("arc", aid, Fraction(k, 3)) for aid in tree.sorted_arc_ids() for k in (1, 2)))
        assert manifold_order_mismatches(tree, by_element, manifold_poset(tree, by_element)) == []
        m = denjoy_blowup(tree)
        points = [("arc", aid, Fraction(k, 3)) for aid in m.sorted_arc_ids() for k in (1, 2)]
        graph = manifold_graph(m)
        for nid in m.sorted_node_ids():
            node = ("node", nid)
            if m.nodes[nid].kind == "point" and all(manifold_order(m, node, q, graph) != EQ for q in points):
                points.append(node)
        by_element = dict(enumerate(reversed(points)))
        assert manifold_order_mismatches(m, by_element, manifold_poset(m, by_element)) == []


def test_orbit_poset_places_each_realized_point_once(monkeypatch):
    calls = []
    place = orbitorder._arc_position
    monkeypatch.setattr(orbitorder, "_arc_position", lambda m, p: calls.append(p) or place(m, p))
    _, m, action = dihedral_example(4)
    orb = orbit_poset(m, action, DIHEDRAL_BASE_POINT, 4)
    assert len(orb.realized) == 16
    assert len(calls) <= len(orb.realized)
