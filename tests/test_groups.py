from __future__ import annotations

from itertools import compress

import pytest

import oracles
from treeorder.grouporder import ConeStructure, verify_cone_axioms
from treeorder.groups import (
    FreeGroup,
    GroupError,
    InfiniteDihedral,
    TableGroup,
    Z,
    Zk,
    make_group,
)

Z5_TABLE = [[(i + j) % 5 for j in range(5)] for i in range(5)]


def test_integers_basics():
    z = Z()
    assert z.ball(2) == [0, -1, 1, -2, 2]
    assert z.mult(3, -5) == -2
    assert z.inv(7) == -7
    assert z.components(4) == (4,)
    assert z.format(-2) == "-2"


def test_lattice_ball_and_ops():
    g = Zk(2)
    assert g.ball(1) == [(0, 0), (-1, 0), (0, -1), (0, 1), (1, 0)]
    assert g.mult((1, 2), (3, -1)) == (4, 1)
    assert g.inv((2, -3)) == (-2, 3)
    assert g.components((5, 6)) == (5, 6)


def test_free_group_words():
    f = FreeGroup(2)
    assert [len(f.ball(r)) for r in range(3)] == [1, 5, 17]
    a, b = (1,), (2,)
    assert f.mult(a, f.inv(a)) == ()
    word = f.mult(a, b)
    assert f.inv(word) == f.mult(f.inv(b), f.inv(a))
    with pytest.raises(GroupError):
        f.components(word)


def test_free_group_order_sign():
    f = FreeGroup(2)
    identity = ()
    assert f.order_sign(identity) == 0
    for w in f.ball(3):
        if w == identity:
            continue
        s = f.order_sign(w)
        assert s in (-1, 1)
        assert f.order_sign(f.inv(w)) == -s


def test_dihedral_ball_and_relations():
    d = InfiniteDihedral()
    assert d.ball(2) == [
        (0, 0), (-1, 0), (0, 1), (1, 0), (-2, 0), (-1, 1), (1, 1), (2, 0),
    ]
    s, t = (0, 1), (1, 0)
    assert d.mult(s, s) == (0, 0)
    assert d.mult(t, s) == (1, 1)
    # Conjugating the shift by the flip inverts it.
    assert d.mult(d.mult(s, t), s) == d.inv(t)
    assert [d.format(g) for g in d.ball(1)] == ["e", "t^-1", "s", "t"]


def test_table_group_valid():
    g = TableGroup(list(range(5)), Z5_TABLE, 0)
    assert g.mult(3, 4) == 2
    assert g.inv(2) == 3
    assert g.ball(1) == g.ball(99)
    assert len(g.ball(1)) == 5
    assert g.components(3) == (3,)


def test_table_group_rejects_bad_tables():
    with pytest.raises(GroupError, match="square"):
        TableGroup([0, 1], [[0, 1]], 0)
    with pytest.raises(GroupError, match="identity"):
        TableGroup([0, 1], [[0, 1], [1, 0]], 2)
    with pytest.raises(GroupError, match="escapes"):
        TableGroup([0, 1], [[0, 1], [1, 7]], 0)
    # Left-identity broken in row order.
    with pytest.raises(GroupError):
        TableGroup([0, 1], [[1, 0], [0, 1]], 0)
    # A non-associative magma with an identity and inverses.
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError, match="associativity"):
        TableGroup(list(range(5)), loop, 0)


def test_make_group_families():
    assert make_group("z", None).format(1) == "1"
    assert make_group("zk", 3).components((1, 2, 3)) == (1, 2, 3)
    assert make_group("free", 2).ball(0) == [()]
    assert make_group("dihedral", None).mult((0, 1), (0, 1)) == (0, 0)
    with pytest.raises(GroupError):
        make_group("icosahedral", None)


def test_make_group_defaults_only_a_missing_rank():
    assert make_group("zk").k == make_group("free").k == 2
    for family, k in [("zk", 0), ("free", 0), ("z", 2), ("dihedral", 1), ("z", 0)]:
        with pytest.raises(GroupError):
            make_group(family, k)


@pytest.mark.parametrize("model", [Z(), Zk(2), Zk(3), FreeGroup(1), FreeGroup(2), FreeGroup(3), InfiniteDihedral(),
                                   TableGroup(list(range(5)), Z5_TABLE, 0), oracles.Product(Z(), InfiniteDihedral())],
                         ids=lambda g: getattr(g, "name", "z5"))
def test_inverse_positions_index_each_inverse_in_the_ball(model):
    for r in range(5):
        ball = model.ball(r)
        assert list(model.inverse_positions(ball, r)) == [ball.index(model.inv(w)) for w in ball]


def test_an_inverse_outside_the_ball_has_position_past_its_end():
    class Shifted(Z):  # a broken model: the inverse of n is 1 - n
        def inv(self, a):
            return 1 - a

    ball = Shifted().ball(2)  # 0, -1, 1, -2, 2
    assert list(Shifted().inverse_positions(ball, 2)) == [2, 4, 0, 5, 1]


@pytest.mark.parametrize("model", [Z(), Zk(2), Zk(3), FreeGroup(2), FreeGroup(3), InfiniteDihedral(),
                                   TableGroup(list(range(5)), Z5_TABLE, 0), oracles.Product(Z(), InfiniteDihedral())],
                         ids=lambda g: getattr(g, "name", "z5"))
def test_bounded_products_batch_exactly_the_in_ball_products(model):
    # checked counts the in-ball products; rescanning the batches in order,
    # as the sweep does, finds exactly the in-ball products outside the
    # piece, in (g, h) order, and every batch holds one
    escapes = set()
    for r in range(5):
        ball = model.ball(r)
        if len(ball) > 400:  # free3 at r = 4: the pairwise loop would dominate the suite
            break
        bset, inv = set(ball), model.inverse_positions(ball, r)

        def every(start, step):  # the byte map of ball[start::step]
            return bytes(i >= start and (i - start) % step == 0 for i in range(len(ball)))

        for xmap, ymap in ((every(0, 1), every(0, 1)), (every(0, 2), every(1, 3))):
            xs, ys = (list(compress(ball, bs)) for bs in (xmap, ymap))
            inside = [(g, h, z) for g in xs for h in ys for z in [model.mult(g, h)] if z in bset]
            for zmap in (every(0, 1), every(0, 2), every(1, 2)):
                members = set(compress(ball, zmap))
                checked, batches = model.bounded_products(xmap, ymap, r, zmap, ball, inv)
                assert checked == len(inside)
                got = []
                for g, hs in batches:
                    found = [(g, h) for h in hs for z in [model.mult(g, h)] if z in bset and z not in members]
                    assert found
                    got += found
                want = [(g, h) for g, h, z in inside if z not in members]
                assert got == want
                escapes.add(bool(want))
    assert escapes == {False, True}


@pytest.mark.parametrize("model", [Z(), Zk(2), FreeGroup(2), InfiniteDihedral(), TableGroup(list(range(5)), Z5_TABLE, 0)],
                         ids=lambda g: getattr(g, "name", "z5"))
def test_a_cone_sweep_enumerates_the_ball_once(model, monkeypatch):
    # every piece is nonempty, so all four product sweeps run; the failing
    # axioms make them rescan too
    calls = []
    ball = type(model).ball
    monkeypatch.setattr(type(model), "ball", lambda self, r: calls.append(r) or ball(self, r))
    cone = ConeStructure("all", model, lambda w: w != model.identity, lambda w: True, lambda w: True)
    report = verify_cone_axioms(cone, 2)
    assert not report.ok and all(report.conditions[i].checked for i in (2, 3, 4, 5))
    assert calls == [2]


@pytest.mark.parametrize("model, max_r", [(Z(), 5), (Zk(2), 4), (Zk(3), 3), (FreeGroup(2), 3), (InfiniteDihedral(), 4)],
                         ids=lambda v: getattr(v, "name", None))
def test_ball_quotients_are_exactly_the_double_ball(model, max_r):
    # the precondition for reading the ball poset off one piece map over
    # ball(2r): the quotients g^-1 h of ball(r) are exactly ball(2r)
    for r in range(max_r + 1):
        ball = model.ball(r)
        assert {model.mult(model.inv(g), h) for g in ball for h in ball} == set(model.ball(2 * r)), r
