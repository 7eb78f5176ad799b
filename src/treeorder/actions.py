"""Concrete manifolds and actions, and the checks no tree job runs.

The cold half of ``ordertree`` (the line windows, ``check_blowup``),
``orbitorder`` (the translation and dihedral actions, ``check_action``,
``stabilizer_extension_order``, ``realized_bound``) and ``treebuild``
(``act_on_labels``); each home module serves these names on first use.
Layers other than ``ordertree`` are imported inside the functions that use
them, so a blow-up still loads no group layer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional

from .errors import BuildError, OrbitError, TreeError
from .ordertree import OrderTree

if TYPE_CHECKING:
    from .orbitorder import OrbitPoset, TreeAction
    from .ordertree import OneManifold
    from .poset import ExtendedPoset
    from .treebuild import LabeledTree


# -- line windows --------------------------------------------------------------


def line_window(half_width: int, alternating: bool) -> OrderTree:
    """Unit arcs ("s", i) on the integers from -half_width to half_width,
    window boundary at the two ends: all ascending, or when ``alternating``
    directed even to odd, so odd nodes are sinks and even nodes sources."""
    if half_width < 1 + alternating:
        raise TreeError("window too small")
    arcs = [(("s", i), i, i + 1) if i % 2 == 0 or not alternating else (("s", i), i + 1, i)
            for i in range(-half_width, half_width)]
    return OrderTree.build(range(-half_width, half_width + 1), arcs, (-half_width, half_width))


def alternating_line_tree(half_width: int) -> OrderTree:
    """The alternating line (line_window), half_width at least 2."""
    return line_window(half_width, alternating=True)


def integer_line(half_width: int) -> OrderTree:
    """A uniformly ascending chain of unit arcs on the integers."""
    return line_window(half_width, alternating=False)


def line_coordinate(aid: tuple, t: Fraction) -> Fraction:
    """Real coordinate of a point on a unit arc ("s", i) of the alternating
    line (alternating_line_tree), whose odd arcs run from i + 1 down to i."""
    i = aid[1]
    return i + t if i % 2 == 0 else (i + 1) - t


def line_point(m: OrderTree, c: Fraction, alternating: bool) -> Optional[tuple]:
    """The arc point at real coordinate c, or None outside the window.
    Integer coordinates are rejected (they name nodes, not arc interiors)."""
    j = math.floor(c)
    if c == j:
        return None
    if ("s", j) not in m.arcs:
        return None
    t = c - j if (j % 2 == 0 or not alternating) else (j + 1) - c
    return ("arc", ("s", j), t)


# -- translation actions -------------------------------------------------------


def shift_action(m: OrderTree, group, shift_of: Callable) -> TreeAction:
    """Translation action on an ascending integer_line manifold."""
    from .orbitorder import TreeAction

    def act(g, p):
        if p[0] != "arc" or p[1][0] != "s":
            raise TreeError(f"action undefined at {p!r}")
        c = p[1][1] + Fraction(p[2]) + shift_of(g)
        return line_point(m, c, alternating=False)

    return TreeAction(group=group, act=act)


DIHEDRAL_BASE_POINT = ("arc", ("s", 0), Fraction(1, 4))


def dihedral_example(radius: int = 6) -> tuple:
    """The alternating-line structure with its dihedral action.

    Segments [i, i+1] alternate orientation (sources at even integers, sinks
    at odd ones); the blow-up hangs a stub at every interior integer.  The
    generator t shifts by two units, the reflection s reflects about 0, so a
    group element (n, eps) sends coordinate c to 2n + (-1)^eps c; stubs
    travel with their base integers.  The window is wide enough that every
    ball element of the given radius moves the base point within it.
    """
    from .groups import InfiniteDihedral
    from .orbitorder import TreeAction
    from .ordertree import alternating_line_tree, denjoy_blowup  # the home module's names, as a tracer may wrap them

    half_width = 2 * radius + 2
    tree = alternating_line_tree(half_width)
    manifold = denjoy_blowup(tree)
    group = InfiniteDihedral()

    def act(g, p):
        n, eps = g
        sign = 1 if eps == 0 else -1
        if p[0] != "arc":
            raise TreeError(f"action undefined at {p!r}")
        aid, t = p[1], Fraction(p[2])
        if aid[0] == "s":
            c = 2 * n + sign * line_coordinate(aid, t)
            return line_point(manifold, c, alternating=True)
        if aid[0] == "stub":
            base = 2 * n + sign * aid[1]
            if ("stub", base) in manifold.arcs:
                return ("arc", ("stub", base), t)
            return None
        raise TreeError(f"action undefined at {p!r}")

    return tree, manifold, TreeAction(group=group, act=act)


# -- checks of a blow-up and of an action --------------------------------------


def check_blowup(m: OneManifold) -> dict:
    """Branchless, collapse-surjective from the core, and fiber collapse
    reproduces the base arc structure exactly."""
    problems = []
    if not m.is_branchless():
        problems.append("result branches")
    ax = m.check_axioms()
    if not ax["ok"]:
        problems.extend(ax["problems"])
    base = m.base
    covered = set()
    for aid, arc in m.arcs.items():
        if not arc.core:
            continue
        kind, target = m.phi_arcs[aid]
        covered.add(("arc", target) if kind == "base-arc" else ("node", target))
    for nid, kind in m.nodes.items():
        if kind == "point":
            covered.add(("node", m.phi_nodes[nid]))
    for nid, kind in base.nodes.items():
        if kind == "point" and ("node", nid) not in covered:
            problems.append(f"base node {nid!r} has no core preimage")
    for aid, arc in base.arcs.items():
        if arc.core and ("arc", aid) not in covered:
            problems.append(f"base arc {aid!r} has no core preimage")
    for aid, arc in m.arcs.items():
        kind, target = m.phi_arcs[aid]
        if kind != "base-arc":
            continue
        want = base.arcs[target]
        got = (m.phi_nodes[arc.tail], m.phi_nodes[arc.head])
        if got != (want.tail, want.head):
            problems.append(f"arc {aid!r} collapses to {got!r}, base has {(want.tail, want.head)!r}")
    return {"ok": not problems, "problems": problems}


def check_action(m: OrderTree, action: TreeAction, radius: int = 2) -> dict:
    """Identity, composition where defined, and orientation preservation,
    sampled on two interior points of every arc."""
    group = action.group
    ball = group.ball(radius)
    ident = group.identity
    pts = []
    for aid in m.sorted_arc_ids():
        pts.append(("arc", aid, Fraction(1, 4)))
        pts.append(("arc", aid, Fraction(2, 3)))
    problems = []
    for p in pts:
        if action.act(ident, p) != p:
            problems.append(f"identity moves {p!r}")
    for g in ball:
        for h in ball:
            for p in pts[:: max(1, len(pts) // 8)]:
                inner = action.act(h, p)
                if inner is None:
                    continue
                lhs = action.act(group.mult(g, h), p)
                rhs = action.act(g, inner)
                if lhs is not None and rhs is not None and lhs != rhs:
                    problems.append(
                        f"composition differs at {p!r} for "
                        f"{group.format(g)}, {group.format(h)}"
                    )
    for aid in m.sorted_arc_ids():
        p1 = ("arc", aid, Fraction(1, 4))
        p2 = ("arc", aid, Fraction(3, 4))
        for g in ball:
            q1, q2 = action.act(g, p1), action.act(g, p2)
            if q1 is None or q2 is None:
                continue
            if q1[0] != "arc" or q2[0] != "arc" or q1[1] != q2[1]:
                problems.append(f"{group.format(g)} tears arc {aid!r}")
            elif not q1[2] < q2[2]:
                problems.append(f"{group.format(g)} reverses arc {aid!r}")
    return {"ok": not problems, "problems": problems, "points": len(pts)}


def act_on_labels(state: LabeledTree, g) -> dict:
    """Left translation on the built labels.

    Every built label (h, tag) maps to (g h, tag); images outside the built
    part are reported as escaped.  On the moved plain labels the betweenness
    relation is checked to transport exactly.
    """
    from .treebuild import PLAIN

    if state.group is None:
        raise BuildError("this build has no group attached")
    G, p = state.group, state.poset
    moved = {}
    escaped = []
    for lab in sorted(state.nu, key=state.label_key):
        image = (G.mult(g, lab[0]), lab[1])
        if image in state.nu:
            moved[lab] = image
        else:
            escaped.append(lab)
    plains = [lab[0] for lab in moved if lab[1] == PLAIN]
    violations = []
    checked = 0
    for f in plains:
        for h in plains:
            for k in plains:
                if len({f, h, k}) != 3:
                    continue
                checked += 1
                before = p.is_between(f, h, k)
                after = p.is_between(G.mult(g, f), G.mult(g, h), G.mult(g, k))
                if before != after:
                    violations.append(
                        {"triple": (state.fmt(f), state.fmt(h), state.fmt(k)),
                         "before": before, "after": after}
                    )
    return {
        "ok": not violations,
        "moved": moved,
        "escaped": tuple(escaped),
        "checked_triples": checked,
        "violations": violations,
    }


# -- orbit orders beyond a trivial stabilizer ---------------------------------


def stabilizer_extension_order(
    m: OrderTree,
    action: TreeAction,
    x0: tuple,
    radius: int,
    stab_order: Callable,
) -> OrbitPoset:
    """Coset order refined by a total order on the base-point stabilizer.

    ``stab_order(g, h)`` must totally order the stabilizer ball and be
    invariant under left translation: it must equal ``stab_order(e,
    g^-1 h)``, the value that orders g and h.  Pairs in one coset share an
    orbit point and compare by the stabilizer order of their quotient;
    pairs in distinct cosets compare through their orbit points.
    """
    from .orbitorder import OrbitPoset, orbit_points
    from .ordertree import manifold_poset

    group = action.group
    points, escaped = orbit_points(action, x0, radius)
    ident = group.identity
    stab = [g for g, img in points.items() if img == x0]
    for g in stab:
        for h in stab:
            if g != h and stab_order(g, h) == stab_order(h, g):
                raise OrbitError(f"stabilizer order is not total at {group.format(g)}, {group.format(h)}")
    for g in stab:
        g_inv = group.inv(g)
        for h in stab:
            q = group.mult(g_inv, h)
            if q != ident and stab_order(g, h) != stab_order(ident, q):
                raise OrbitError(f"stabilizer order is not left-invariant at "
                                 f"{group.format(g)} * ({group.format(ident)}, {group.format(q)})")
    poset = manifold_poset(m, points, lambda g, h: stab_order(ident, group.mult(group.inv(g), h)))
    return OrbitPoset(poset=poset, escaped=escaped, points=points)


def realized_bound(poset: ExtendedPoset, g, h, upper: bool) -> Optional[object]:
    """The first common upper (or lower) bound of g and h among the other
    elements of an orbit poset, read off its rows, or None."""
    rows = poset.rows[0 if upper else 1]
    common = rows[poset.index(g)] & rows[poset.index(h)]
    return poset.elements[(common & -common).bit_length() - 1] if common else None
