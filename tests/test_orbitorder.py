from __future__ import annotations

import functools
import itertools
import random
import re
from fractions import Fraction

import pytest

import oracles
from test_golden_cli import FIXTURES
from treeorder import corpus, orbitorder, ordertree
from treeorder.actions import (
    TreeReader,
    arcs_by_name,
    check_action,
    dihedral_example,
    integer_line,
    line_base_point,
    line_coordinate,
    line_point,
    named_tree,
    realized_bound,
    shift_action,
    stabilizer_extension_order,
)
from treeorder.catalog import dihedral_standard, free_standard, get_cone, z_standard, zk_lex
from treeorder.cli import main
from treeorder.errors import BuildError
from treeorder.groups import InfiniteDihedral, Z, Zk
from treeorder.grouporder import ConeStructure, induced_ball_poset, verify_cone_axioms
from treeorder.orbitorder import ConePipeline, OrbitError, TreeAction, label_action, orbit_poset, roundtrip_orbit
from treeorder.ordertree import TreeError, denjoy_blowup, manifold_graph, manifold_order, manifold_poset
from treeorder.poset import EQ, GT, LT, REL_NAMES, SIML, SIMU, ExtendedPoset, PosetError
from treeorder.specio import parse_document, tree_from_document
from treeorder.suites import ACTION_SCENARIOS, derive_cone_pieces, get_action_scenario, run_orbit_suite
from treeorder.treebuild import PLAIN, BuildLayout, build_tree, orient_segments


def line_pt(m, i, t):
    """The point at parameter t on the arc ("s", i) of a line window."""
    return ("arc", arcs_by_name(m)["s", i], t)


def uniform_line_points(m, width):
    pts = []
    for i in range(-width, width):
        for k in (1, 3):
            pts.append(line_pt(m, i, Fraction(k, 4)))
    return pts


def test_uniform_line_order_matches_coordinates():
    # On a line with every arc pointing the same way, the forward-component
    # order must reduce to plain coordinate comparison.
    m = integer_line(3)
    pts = uniform_line_points(m, 3)
    for x in pts:
        for y in pts:
            coded = manifold_order(m, x, y)
            cx = m.names[x[1]][1] + x[2]
            cy = m.names[y[1]][1] + y[2]
            assert REL_NAMES[coded] == oracles.coordinate_rel(cx, cy)


def test_uniform_line_between_is_the_interval():
    m = integer_line(2)
    pts = uniform_line_points(m, 2)
    p = ExtendedPoset.from_relation(tuple(pts), lambda x, y: manifold_order(m, x, y))

    def coord(pt):
        return m.names[pt[1]][1] + pt[2]

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
    arcs = arcs_by_name(m)
    pt = line_point(arcs, Fraction(9, 4), alternating=True)
    assert pt is not None
    assert line_coordinate(m.names[pt[1]], pt[2]) == Fraction(9, 4)
    assert line_point(arcs, Fraction(1), alternating=True) is None
    assert line_point(arcs, Fraction(999), alternating=True) is None


def test_alternating_line_relations():
    _, m, _ = dihedral_example(2)
    a = line_pt(m, 0, Fraction(1, 4))
    facing = line_pt(m, 1, Fraction(1, 4))
    assert manifold_order(m, a, facing) == SIMU
    behind = line_pt(m, -1, Fraction(1, 4))
    assert manifold_order(m, a, behind) == SIML
    same = line_pt(m, 0, Fraction(3, 4))
    assert manifold_order(m, a, same) == LT
    assert manifold_order(m, same, a) == GT
    assert manifold_order(m, a, a) == EQ


def test_stub_pairs_share_their_window():
    _, m, _ = dihedral_example(2)
    stubs = sorted((aid for aid in m.arcs if not m.arcs[aid].core), key=m.names.__getitem__)
    # Odd integers are sinks and grow outgoing stubs; even ones take incoming.
    sink_stubs = [("arc", aid, Fraction(1, 2)) for aid in stubs if m.names[aid][1] % 2 == 1]
    source_stubs = [("arc", aid, Fraction(1, 2)) for aid in stubs if m.names[aid][1] % 2 == 0]
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
    action = shift_action(m, Z(), lambda n: n)
    x0 = line_pt(m, 0, Fraction(1, 4))
    orb = orbit_poset(m, action, x0, 4)
    assert sorted(orb.realized) == list(range(-4, 5))
    assert orb.escaped == ()
    assert Fraction(len(orb.realized), len(orb.realized) + len(orb.escaped)) == Fraction(1)
    for g, h in orb.poset.iter_pairs():
        assert orb.poset.rel(g, h) == (LT if g < h else GT)


def test_escape_is_reported_not_guessed():
    m = integer_line(2)
    action = shift_action(m, Z(), lambda n: n)
    x0 = line_pt(m, 0, Fraction(1, 4))
    orb = orbit_poset(m, action, x0, 4)
    assert set(orb.escaped) == {-4, -3, 2, 3, 4}
    assert sorted(orb.realized) == [-2, -1, 0, 1]
    assert Fraction(len(orb.realized), len(orb.realized) + len(orb.escaped)) == Fraction(4, 9)


def test_fixed_base_point_is_rejected():
    m = integer_line(3)
    action = shift_action(m, Z(), lambda n: 0)
    with pytest.raises(OrbitError, match="stabilizer"):
        orbit_poset(m, action, line_pt(m, 0, Fraction(1, 4)), 2)


def test_dihedral_orbit_matches_cone_ball():
    _, m, action = dihedral_example(4)
    orb = orbit_poset(m, action, line_base_point(m), 4)
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


def lex_reading_first(k, j):
    """The lexicographic cone on Z^k that reads coordinate j first, then the
    others in index order."""
    order = [j] + [i for i in range(k) if i != j]

    def positive(v):
        for i in order:
            if v[i]:
                return v[i] > 0
        return False

    return ConeStructure(f"z{k}-lex-from-{j}", Zk(k), positive, lambda v: False, lambda v: False)


def coordinate_extension(k, j, radius, stab_order=None):
    """Z^k acting on a line through coordinate j, its stabilizer ordered
    lexicographically on the other coordinates."""
    m = integer_line(radius + 1)
    action = shift_action(m, Zk(k), lambda v: v[j])
    rest = [i for i in range(k) if i != j]
    if stab_order is None:
        def stab_order(a, b):
            return [a[i] for i in rest] < [b[i] for i in rest]
    return stabilizer_extension_order(m, action, line_pt(m, 0, Fraction(1, 4)), radius, stab_order)


def rel_mismatches(got, want):
    assert got.elements == want.elements
    return [(g, h) for g in want.elements for h in want.elements if got.rel(g, h) != want.rel(g, h)]


@pytest.mark.parametrize("k, j, radius", [(k, j, r) for k in (2, 3) for j in range(k) for r in range(1, 5)],
                         ids=str)
def test_stabilizer_extension_reproduces_lex_order(k, j, radius):
    ext = coordinate_extension(k, j, radius)
    assert ext.escaped == ()
    assert rel_mismatches(ext.poset, induced_ball_poset(lex_reading_first(k, j), radius)) == []


@pytest.mark.parametrize("scenario", sorted(ACTION_SCENARIOS))
@pytest.mark.parametrize("radius", range(5))
def test_a_trivial_stabilizer_extends_to_the_orbit_order(scenario, radius):
    m, action, x0 = get_action_scenario(scenario, radius)

    def never(g, h):
        pytest.fail(f"a trivial stabilizer has no pair to order, got {g!r}, {h!r}")

    ext = stabilizer_extension_order(m, action, x0, radius, never)
    orbit = orbit_poset(m, action, x0, radius)
    assert (ext.realized, ext.escaped) == (orbit.realized, orbit.escaped)
    assert ext.poset.rows == orbit.poset.rows


def test_a_stabilizer_order_that_is_not_total_is_refused():
    with pytest.raises(OrbitError, match=re.escape("stabilizer order is not total at (0,0), (0,-1)")):
        coordinate_extension(2, 0, 2, stab_order=lambda a, b: False)


def test_a_stabilizer_order_that_is_not_left_invariant_is_refused():
    # total on the stabilizer line, but by distance from the origin first
    def nearer(a, b):
        return (abs(a[1]), a[1]) < (abs(b[1]), b[1])

    with pytest.raises(OrbitError, match=re.escape(
            "stabilizer order is not left-invariant at (0,-1) * ((0,0), (0,1))")):
        coordinate_extension(2, 0, 2, stab_order=nearer)


@pytest.mark.parametrize("k, j, wrong", [(k, j, i) for k in (2, 3) for j in range(k) for i in range(k) if i != j],
                         ids=str)
def test_a_wrong_projection_shows_against_the_lex_oracle(k, j, wrong):
    assert rel_mismatches(coordinate_extension(k, wrong, 2).poset, induced_ball_poset(lex_reading_first(k, j), 2))


def test_a_wrong_projection_names_its_first_mismatch():
    ext = coordinate_extension(2, 1, 2)
    oracle = induced_ball_poset(lex_reading_first(2, 0), 2)
    g, h = rel_mismatches(ext.poset, oracle)[0]
    assert (g, h, ext.poset.classify(g, h), oracle.classify(g, h)) == ((0, 0), (-1, 1), "lt", "gt")


def test_elements_at_one_point_are_ordered_once_per_ordered_pair():
    m = integer_line(3)
    points = {g: line_pt(m, 0, Fraction(1, 2)) for g in "cab"} | {"d": line_pt(m, 1, Fraction(1, 2)),
                                                                     "e": line_pt(m, 0, Fraction(1, 4))}
    calls = []

    def alphabetical(g, h):
        calls.append((g, h))
        return g < h

    p = manifold_poset(m, points, alphabetical)
    assert sorted(calls) == [(g, h) for g in "abc" for h in "abc" if g != h]
    assert [p.classify("a", x) for x in "bcde"] == ["lt", "lt", "lt", "gt"]
    assert (p.classify("c", "b"), p.classify("e", "c")) == ("gt", "lt")
    with pytest.raises(PosetError, match=re.escape("pair ('c', 'a') disagrees with its swap")):
        manifold_poset(m, points, lambda g, h: True)


def test_the_converse_makes_no_pairwise_search(monkeypatch):
    monkeypatch.setattr(ordertree, "manifold_order", lambda *args: pytest.fail("a pairwise manifold search"))
    monkeypatch.setattr(ExtendedPoset, "from_relation", lambda *args: pytest.fail("a per-pair callback"))
    assert len(coordinate_extension(3, 1, 3).realized) == 63
    assert run_orbit_suite(6)["ok"]


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


def test_roundtrip_lists_each_mismatch_when_the_rows_differ():
    from treeorder.catalog import z_standard

    pipe = ConePipeline(z_standard(), 3)
    pipe.layout(None)  # built from the true ball order
    ball = pipe.ball_poset
    up, down, simu, siml = ball.rows
    pipe.ball_poset = ExtendedPoset(ball.elements, down, up, siml, simu)  # the reversed order
    rep = pipe.roundtrip()
    assert not rep["ok"]
    want = [(g, h, ball.rel(g, h), ball.rel(h, g)) for g in ball.elements for h in ball.elements if g != h]
    assert rep["mismatches"] == want


def test_roundtrip_compares_pairs_when_the_orders_list_the_ball_apart():
    from treeorder.catalog import z_standard

    pipe = ConePipeline(z_standard(), 3)
    pipe.layout(None)
    ball = pipe.ball_poset
    # the same rows over the negated elements: the reversed order on Z, listed
    # as -ball, so equal rows alone would hide every mismatch
    pipe.ball_poset = ExtendedPoset([-g for g in ball.elements], *ball.rows)
    rep = pipe.roundtrip()
    assert rep["realized"] == 7 and not rep["ok"]
    assert rep["mismatches"] == [(g, h, ball.rel(g, h), ball.rel(h, g))
                                 for g in ball.elements for h in ball.elements if g != h]


def random_tree(rng):
    reader = TreeReader()
    reader.node(0)
    for v in range(1, rng.randint(2, 12)):
        reader.node(v)
        parent = rng.randrange(v)
        reader.arc(("e", v), *((parent, v) if rng.random() < 0.5 else (v, parent)))
    return reader.tree


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
    tree = named_tree("abc", [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")])
    with pytest.raises(TreeError, match="not a tree"):
        manifold_graph(tree)


def test_coincident_orbit_points_have_no_relation():
    m = integer_line(6)
    action = shift_action(m, Z(), abs)
    with pytest.raises(PosetError, match=re.escape("pair (-1, 1) has no admissible relation")):
        orbit_poset(m, action, line_pt(m, 0, Fraction(1, 4)), 2)


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
    action, x0 = label_action(pipeline.build(), pipeline.layout(), manifold)
    orbit = orbit_poset(manifold, action, x0, radius)
    assert orbit.realized == tuple(orbit.points) and len(orbit.realized) > 20
    assert manifold_order_mismatches(manifold, orbit.points, orbit.poset) == []


def order_at_named_points(tree, x, y):
    """manifold_order of two points that name their node or arc by display id."""
    return manifold_order(tree, *((kind, tree.names.index(name), *t) for kind, name, *t in (x, y)))


def label_action_of(state, moved=()):
    """label_action of the build's layout, with the label points in ``moved`` replaced."""
    layout = orient_segments(state)
    label_point = {**layout.label_point, **dict(moved)}
    return label_action(state, BuildLayout(layout.tree, label_point), denjoy_blowup(layout.tree))


@pytest.mark.parametrize("refused, error, message", [
    (lambda p: label_action_of(build_tree(p)), BuildError, "the build carries no group"),
    (lambda p: label_action_of(build_tree(p.restrict((1, 2, 3)), group=Z())), BuildError,
     "identity was not built"),
    (lambda p: order_at_named_points(tree_from_document(parse_document(FIXTURES["tree"])), ("node", "b"),
                                     ("arc", "e1", Fraction(1, 2))),
     TreeError, "order undefined at a branching point: ('node', 'b')"),
    (lambda p: label_action_of(build_tree(p, group=Z()), {(0, PLAIN): ("node", 0)}), BuildError,
     "plain label (0, 0) landed on a junction"),
    (lambda p: order_at_named_points(named_tree("abc", [("e", "a", "b"), ("f", "b", "c"), ("g", "c", "a")]),
                                     ("arc", "e", Fraction(1, 2)), ("arc", "f", Fraction(1, 2))),
     TreeError, "order undefined: identified arc graph is not a tree"),
], ids=["no-group", "no-identity", "branching-point", "plain-label-on-a-node", "arc-graph-not-a-tree"])
def test_each_refusal_of_the_orbit_layer_is_pinned(refused, error, message):
    with pytest.raises(error) as exc:
        refused(induced_ball_poset(z_standard(), 3))
    assert str(exc.value) == message


def recorded_tree_corpus(monkeypatch):
    """tree_corpus(100), each poset with the manifold and points it came from."""
    seen = []

    def recording(m, points):
        seen.append((m, points))
        return manifold_poset(m, points)

    # random_tree_poset imports manifold_poset from ordertree when it runs
    monkeypatch.setattr(ordertree, "manifold_poset", recording)
    posets = corpus.tree_corpus(100)
    assert len(seen) == 100
    return [(p, m, points) for p, (m, points) in zip(posets, seen)]


def test_orbit_rows_agree_with_manifold_order_on_tree_corpus_points(monkeypatch):
    for p, m, points in recorded_tree_corpus(monkeypatch):
        assert manifold_order_mismatches(m, points, p) == []


def tagged_pairs(p):
    return {(g, h) for g, h in p.iter_pairs() if p.rel(g, h) in (SIMU, SIML)}


def unbacked_pairs(p):
    return {tuple(item["pair"]) for item in p.check_strongly_connected()}


def realized_bounds(m, points, poset):
    """The tagged pairs that have a realized bound, after checking each
    bound against the naive search."""
    forward = oracles.naive_forward_sets(m)
    bounded = set()
    for g, h in tagged_pairs(poset):
        upper = poset.rel(g, h) == SIMU
        got = realized_bound(poset, g, h, upper)
        assert got == oracles.naive_realized_bound(m, forward, points, g, h, upper), (g, h)
        if got is not None:
            bounded.add((g, h))
    return bounded


def test_realized_bounds_agree_with_the_naive_search_on_tree_corpus_points(monkeypatch):
    with_bound = without = 0
    for p, m, points in recorded_tree_corpus(monkeypatch):
        bounded = realized_bounds(m, points, p)
        assert bounded == tagged_pairs(p) - unbacked_pairs(p)
        with_bound += len(bounded)
        without += len(tagged_pairs(p)) - len(bounded)
    assert (with_bound, without) == (348, 651)


def test_the_dihedral_orbit_has_no_realized_bound():
    _, m, action = dihedral_example(6)
    orbit = orbit_poset(m, action, line_base_point(m), 6)
    assert realized_bounds(m, orbit.points, orbit.poset) == set()
    assert len(tagged_pairs(orbit.poset)) == 143


@pytest.mark.parametrize("radius", range(1, 7))
def test_the_orbit_suite_reports_the_backed_tagged_pairs(radius):
    rep = run_orbit_suite(radius)
    p = orbit_poset(*get_action_scenario("dihedral-line", radius), radius).poset
    assert {(g, h) for g, h, _kind in rep["realized_bound_pairs"]} == tagged_pairs(p) - unbacked_pairs(p)
    assert rep["tagged_pairs"] == len(tagged_pairs(p)) > 0


def test_point_rows_agree_with_manifold_order_on_random_trees_with_node_points():
    rng = random.Random(5)
    for _ in range(40):
        tree = random_tree(rng)
        by_element = dict(enumerate(("arc", aid, Fraction(k, 3)) for aid in tree.sorted_arc_ids() for k in (1, 2)))
        assert manifold_order_mismatches(tree, by_element, manifold_poset(tree, by_element)) == []
        m = denjoy_blowup(tree)
        points = [("arc", aid, Fraction(k, 3)) for aid in m.sorted_arc_ids() for k in (1, 2)]
        graph = manifold_graph(m)
        for nid in sorted(m.nodes, key=lambda nid: repr(m.names[nid])):
            node = ("node", nid)
            if m.nodes[nid] == "point" and all(manifold_order(m, node, q, graph) != EQ for q in points):
                points.append(node)
        by_element = dict(enumerate(reversed(points)))
        assert manifold_order_mismatches(m, by_element, manifold_poset(m, by_element)) == []


def fraction_hashes(monkeypatch, run) -> int:
    """How many Fractions ``run()`` hashes."""
    calls = []
    hash_fraction = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda self: calls.append(1) or hash_fraction(self))
    run()
    monkeypatch.undo()
    return len(calls)


def test_the_converse_chain_keys_no_table_by_fractions(monkeypatch, capsys):
    # the tree layer keys its nodes, arcs and points by int ids, and a label
    # point's parameter is compared, never hashed; the bounds are a tenth of
    # the 12,131 and 254,814 hashes that display-id keys cost the chain
    # order -> tree -> blow-up -> order
    roundtrip = fraction_hashes(monkeypatch, lambda: main(["roundtrip", "dihedral-standard", "--radius", "12"]))
    assert capsys.readouterr().out.endswith("result: PASS\n")
    posets = corpus.all_extended_posets(4)
    assert len(posets) == 400
    loops = fraction_hashes(monkeypatch, lambda: [oracles.tree_roundtrip(p) for p in posets])
    assert roundtrip <= 1213 and loops <= 25481, (roundtrip, loops)


def test_orbit_poset_places_each_realized_point_once(monkeypatch):
    calls = []
    place = ordertree._arc_position
    monkeypatch.setattr(ordertree, "_arc_position", lambda m, rays, p: calls.append(p) or place(m, rays, p))
    _, m, action = dihedral_example(4)
    orb = orbit_poset(m, action, line_base_point(m), 4)
    assert len(orb.realized) == 16
    assert calls and len(calls) <= len(orb.realized)


# -- the converse's dividing line: lexicographic products --------------------
# A x B acting through A fixes the base point on {e} x B, so the pulled-back
# order exists only when B's cone totally orders B.  With a tagged cone on B
# (the dihedral one) no piece holds (e, s); with A's U and L swapped the
# product axioms fail.  B runs over the totally ordered builtins, one of
# them moved by a signed coordinate permutation.

ORDERED_FACTORS = [
    lambda: get_cone("z-standard"),
    lambda: get_cone("z2-lex"),
    lambda: get_cone("z3-lex"),
    lambda: oracles.twist(get_cone("z3-lex"), lambda v: (-v[2], v[0], -v[1])),
    lambda: get_cone("free2-standard"),
]
ORDERED_IDS = ["z", "z2-lex", "z3-lex", "z3-lex-twisted", "free2"]


@pytest.mark.parametrize("second", ORDERED_FACTORS, ids=ORDERED_IDS)
def test_a_product_with_its_ordered_factor_second_passes_and_round_trips(second):
    for r in range(1, 5):
        assert verify_cone_axioms(oracles.product_cone(dihedral_standard(), second()), r).ok, r
    for r in range(1, 4):
        rep = roundtrip_orbit(oracles.product_cone(dihedral_standard(), second()), r)
        assert rep["ok"] and rep["escaped"] == 0, r


@pytest.mark.parametrize("first", [*ORDERED_FACTORS, dihedral_standard], ids=[*ORDERED_IDS, "dihedral"])
def test_a_product_with_its_tagged_factor_second_fails_to_partition(first):
    report = verify_cone_axioms(oracles.product_cone(first(), dihedral_standard()), 1)
    assert [idx for idx, c in sorted(report.conditions.items()) if not c.ok] == [6]
    e = first().group.identity
    assert report.conditions[6].violations[0] == ((e, (0, 1)),)


def test_a_product_with_upper_and_lower_swapped_fails_the_product_axioms():
    cone = oracles.product_cone(dihedral_standard(), z_standard(), swap=True)
    assert verify_cone_axioms(cone, 1).ok
    report = verify_cone_axioms(cone, 2)
    assert [idx for idx, c in sorted(report.conditions.items()) if not c.ok] == [3, 4, 5]
    # each witness is a product that misses its piece: L*P in L, P*U in U, U*L in P
    for idx, piece in ((3, cone.in_lower), (4, cone.in_upper), (5, cone.in_positive)):
        g, h, z = report.conditions[idx].violations[0]
        assert cone.group.mult(g, h) == z and not piece(z)


# -- automorphism twists: an order moved by phi is the same order, renamed ---


def signed_permutations(k: int) -> list:
    """The 2^k k! generator maps of Z^k and F_k that permute the generators
    and flip their signs, each as letter -> letter over +-1 .. +-k."""
    out = []
    for perm in itertools.permutations(range(1, k + 1)):
        for signs in itertools.product((1, -1), repeat=k):
            images = {i: s * j for i, s, j in zip(range(1, k + 1), signs, perm)}
            out.append({**images, **{-i: -j for i, j in images.items()}})
    return out


def vector_map(letters: dict):
    def phi(v: tuple) -> tuple:
        out = [0] * len(v)
        for i, x in enumerate(v, 1):
            out[abs(letters[i]) - 1] = x if letters[i] > 0 else -x
        return tuple(out)

    return phi


def word_map(letters: dict):
    return lambda w: tuple(letters[x] for x in w)


def inverted(letters: dict) -> dict:
    return {j: i for i, j in letters.items()}


def _twists() -> list:
    out = []
    for name, k, radius, model in (("free2-standard", 2, 2, word_map), ("z2-lex", 2, 3, vector_map),
                                   ("z3-lex", 3, 3, vector_map)):
        out += [(name, radius, model(m), model(inverted(m))) for m in signed_permutations(k)]
    out += [("z-standard", 3, phi, phi) for phi in (lambda n: n, lambda n: -n)]
    out.append(("dihedral-standard", 3, lambda w: (-w[0], w[1]), lambda w: (-w[0], w[1])))
    return out


TWISTS = _twists()


def is_image(q: ExtendedPoset, p: ExtendedPoset, phi) -> bool:
    """q is p moved by the element map phi, relation for relation."""
    return (set(q.elements) == set(map(phi, p.elements))
            and all(q.rel(phi(g), phi(h)) == p.rel(g, h) for g, h in p.iter_pairs()))


@functools.lru_cache(maxsize=None)
def untwisted(name: str, radius: int) -> tuple:
    """A builtin cone's axiom verdict, ball poset and round-trip summary."""
    cone = get_cone(name)
    trip = roundtrip_orbit(cone, radius)
    return (verify_cone_axioms(cone, radius).ok, induced_ball_poset(cone, radius),
            (trip["ok"], trip["coverage"], len(trip["mismatches"])))


@pytest.mark.parametrize("name, radius, phi, phi_inv", TWISTS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(TWISTS)])
def test_a_twisted_cone_keeps_its_verdicts_and_moves_its_ball_poset(name, radius, phi, phi_inv):
    axioms, p, trip = untwisted(name, radius)
    twisted = oracles.twist(get_cone(name), phi_inv)
    assert verify_cone_axioms(twisted, radius).ok == axioms
    assert is_image(induced_ball_poset(twisted, radius), p, phi)
    rep = roundtrip_orbit(twisted, radius)
    assert (rep["ok"], rep["coverage"], len(rep["mismatches"])) == trip


@pytest.mark.parametrize("name, phi_inv", [("z-broken", lambda n: -n), ("z2-product", lambda v: (v[1], -v[0]))])
def test_a_broken_cone_stays_broken_under_a_twist(name, phi_inv):
    def failing(cone) -> list:
        return sorted(idx for idx, c in verify_cone_axioms(cone, 3).conditions.items() if not c.ok)

    assert failing(get_cone(name)) and failing(oracles.twist(get_cone(name), phi_inv)) == failing(get_cone(name))


def test_the_integers_give_one_ball_poset_as_z_z1_and_the_free_group_of_rank_one():
    p = induced_ball_poset(z_standard(), 5)
    images = ((zk_lex(1), lambda n: (n,)), (free_standard(1), lambda n: (1,) * n if n >= 0 else (-1,) * -n))
    for cone, as_element in images:
        assert is_image(induced_ball_poset(cone, 5), p, as_element), cone.name


def test_the_plane_lex_order_is_the_product_of_two_integer_orders():
    q = induced_ball_poset(oracles.product_cone(z_standard(), z_standard()), 3)
    assert is_image(q, induced_ball_poset(zk_lex(2), 3), lambda g: g)


def _through_the_dihedral_factor(radius: int, second) -> tuple:
    """D∞ × B acting on the dihedral manifold through its D∞ factor, so the
    base point's stabilizer is {e} × B."""
    _, m, dihedral = dihedral_example(radius)
    return m, TreeAction(oracles.Product(InfiniteDihedral(), second), lambda g, p: dihedral.act(g[0], p))


@pytest.mark.parametrize("second", ORDERED_FACTORS, ids=ORDERED_IDS)
@pytest.mark.parametrize("radius", range(4))
def test_the_converse_orders_a_product_by_its_stabilizer(radius, second):
    # the paper's converse: the orbit order refined by B's order on the
    # stabilizer is the lexicographic product order, row for row
    cone = second()
    group = cone.group
    m, action = _through_the_dihedral_factor(radius, group)
    ext = stabilizer_extension_order(m, action, line_base_point(m), radius,
                                     lambda g, h: cone.in_positive(group.mult(group.inv(g[1]), h[1])))
    want = induced_ball_poset(oracles.product_cone(dihedral_standard(), cone), radius)
    assert ext.escaped == ()
    assert (ext.poset.elements, ext.poset.rows) == (want.elements, want.rows)


def test_the_converse_refuses_a_stabilizer_order_that_is_not_left_invariant():
    # total on {e} x Z (by |n|, then sign), but (e, -1) * ((e, 0), (e, 1)) reverses
    m, action = _through_the_dihedral_factor(2, Z())

    def by_size(g, h):
        return (abs(g[1]), g[1]) < (abs(h[1]), h[1])

    message = "stabilizer order is not left-invariant at (e, -1) * ((e, 0), (e, 1))"
    with pytest.raises(OrbitError, match=re.escape(message)):
        stabilizer_extension_order(m, action, line_base_point(m), 2, by_size)
