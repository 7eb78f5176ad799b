"""Concrete manifolds and actions, and the checks no tree job runs.

The cold half of ``ordertree`` (``TreeReader``, the line windows,
``check_blowup``), ``orbitorder`` (the translation and dihedral actions,
``check_action``, ``stabilizer_extension_order``, ``realized_bound``) and
``treebuild`` (``act_on_labels``); the home modules serve the benchmark
tracer's targets.
Layers other than ``ordertree`` are imported inside the functions that use
them, so a blow-up still loads no group layer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .errors import BuildError, OrbitError, TreeError
from .ordertree import OrderTree

if TYPE_CHECKING:
    from .orbitorder import OrbitPoset, TreeAction
    from .ordertree import OneManifold
    from .poset import ExtendedPoset
    from .treebuild import LabeledTree


# -- trees named by display ids ------------------------------------------------


class TreeReader:
    """Builds a ``tree`` from nodes, arcs and adjacencies named by display
    ids, as a hand-made tree or a tree document names them, refusing a
    repeated id and one that names nothing; ``node_ids`` and ``arc_ids``
    map the display ids read so far to node and arc ids."""

    def __init__(self):
        self.tree = OrderTree()
        self.node_ids: dict = {}
        self.arc_ids: dict = {}

    def node(self, name, kind: str = "point") -> int:
        if name in self.node_ids:
            raise TreeError(f"duplicate node {name!r}")
        nid = self.node_ids[name] = self.tree.add_node(name, kind)
        return nid

    def arc(self, name, tail, head, kind: str = "arc", core: bool = True) -> int:
        if name in self.arc_ids:
            raise TreeError(f"duplicate arc {name!r}")
        for end in (tail, head):
            if end not in self.node_ids:
                raise TreeError(f"arc {name!r} references missing node {end!r}")
        aid = self.arc_ids[name] = self.tree.add_arc(name, self.node_ids[tail], self.node_ids[head], kind, core)
        return aid

    def adjacency(self, cap, arc, side: str) -> None:
        if cap not in self.node_ids:
            raise TreeError(f"adjacency references missing node {cap!r}")
        if arc not in self.arc_ids:
            raise TreeError(f"adjacency references missing arc {arc!r}")
        self.tree.add_adjacency(self.node_ids[cap], self.arc_ids[arc], side)

    def set_boundary(self, names: Iterable) -> None:
        names = set(names)
        stray = sorted(names - self.node_ids.keys(), key=repr)
        if stray:
            raise TreeError(f"boundary names {stray[0]!r}, which is not a node")
        self.tree.boundary = {self.node_ids[name] for name in names}


def named_tree(nodes: Iterable, arcs: Iterable, boundary: Iterable = ()) -> OrderTree:
    """Plain tree from node display ids and (arc, tail, head) triples of
    display ids."""
    reader = TreeReader()
    for name in nodes:
        reader.node(name)
    for name, tail, head in arcs:
        reader.arc(name, tail, head)
    reader.set_boundary(boundary)
    return reader.tree


# -- line windows --------------------------------------------------------------


def line_window(half_width: int, alternating: bool) -> OrderTree:
    """Unit arcs ("s", i) on the integers from -half_width to half_width,
    window boundary at the two ends: all ascending, or when ``alternating``
    directed even to odd, so odd nodes are sinks and even nodes sources."""
    if half_width < 1 + alternating:
        raise TreeError("window too small")
    arcs = [(("s", i), i, i + 1) if i % 2 == 0 or not alternating else (("s", i), i + 1, i)
            for i in range(-half_width, half_width)]
    return named_tree(range(-half_width, half_width + 1), arcs, (-half_width, half_width))


def alternating_line_tree(half_width: int) -> OrderTree:
    """The alternating line (line_window), half_width at least 2."""
    return line_window(half_width, alternating=True)


def integer_line(half_width: int) -> OrderTree:
    """A uniformly ascending chain of unit arcs on the integers."""
    return line_window(half_width, alternating=False)


def arcs_by_name(m: OrderTree) -> dict:
    """Each arc of m by its display id: the actions below move points along
    the arcs of a line window, which they name."""
    return {m.names[aid]: aid for aid in m.arcs}


def line_coordinate(name: tuple, t: Fraction) -> Fraction:
    """Real coordinate of a point on the unit arc named ("s", i) of the
    alternating line (alternating_line_tree), whose odd arcs run from i + 1
    down to i."""
    i = name[1]
    return i + t if i % 2 == 0 else (i + 1) - t


def line_point(arcs: dict, c: Fraction, alternating: bool) -> Optional[tuple]:
    """The arc point at real coordinate c, or None outside the window;
    ``arcs`` is the window's arcs_by_name.  Integer coordinates are rejected
    (they name nodes, not arc interiors)."""
    j = math.floor(c)
    if c == j:
        return None
    aid = arcs.get(("s", j))
    if aid is None:
        return None
    t = c - j if (j % 2 == 0 or not alternating) else (j + 1) - c
    return ("arc", aid, t)


def line_base_point(m: OrderTree) -> tuple:
    """The orbit base point of a line window or its blow-up: coordinate
    1/4, on the arc ("s", 0)."""
    return ("arc", arcs_by_name(m)[("s", 0)], Fraction(1, 4))


# -- translation actions -------------------------------------------------------


def shift_action(m: OrderTree, group, shift_of: Callable) -> TreeAction:
    """Translation action on an ascending integer_line manifold."""
    from .orbitorder import TreeAction

    arcs = arcs_by_name(m)

    def act(g, p):
        kind, i = m.names[p[1]] if p[0] == "arc" and p[1] in m.arcs else (None, None)
        if kind != "s":
            raise TreeError(f"action undefined at {m.named(p)!r}")
        return line_point(arcs, i + p[2] + shift_of(g), alternating=False)

    return TreeAction(group=group, act=act)


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
    from .ordertree import denjoy_blowup

    half_width = 2 * radius + 2
    tree = alternating_line_tree(half_width)
    manifold = denjoy_blowup(tree)
    group = InfiniteDihedral()
    arcs = arcs_by_name(manifold)

    def act(g, p):
        n, eps = g
        sign = 1 if eps == 0 else -1
        name = manifold.names[p[1]] if p[0] == "arc" and p[1] in manifold.arcs else (None, None)
        if name[0] == "s":
            return line_point(arcs, 2 * n + sign * line_coordinate(name, p[2]), alternating=True)
        if name[0] == "stub":
            image = arcs.get(("stub", 2 * n + sign * name[1]))
            return None if image is None else ("arc", image, p[2])
        raise TreeError(f"action undefined at {manifold.named(p)!r}")

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
    base, names = m.base, m.names
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
            problems.append(f"base node {names[nid]!r} has no core preimage")
    for aid, arc in base.arcs.items():
        if arc.core and ("arc", aid) not in covered:
            problems.append(f"base arc {names[aid]!r} has no core preimage")
    for aid, arc in m.arcs.items():
        kind, target = m.phi_arcs[aid]
        if kind != "base-arc":
            continue
        want = base.arcs[target]
        got = (m.phi_nodes[arc.tail], m.phi_nodes[arc.head])
        if got != (want.tail, want.head):
            problems.append(f"arc {names[aid]!r} collapses to {(names[got[0]], names[got[1]])!r}, "
                            f"base has {(names[want.tail], names[want.head])!r}")
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
            problems.append(f"identity moves {m.named(p)!r}")
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
                        f"composition differs at {m.named(p)!r} for "
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
                problems.append(f"{group.format(g)} tears arc {m.names[aid]!r}")
            elif not q1[2] < q2[2]:
                problems.append(f"{group.format(g)} reverses arc {m.names[aid]!r}")
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
