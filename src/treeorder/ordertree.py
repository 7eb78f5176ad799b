"""Oriented order trees built from directed rational arcs, and their blow-ups.

A tree here is a finite union of directed arcs glued at nodes.  Every arc is
a copy of the unit interval, directed tail to head; the positive segments are
the arcs, their closed subsegments, and head-to-tail concatenations.  Blown-up
trees carry two extra node kinds: ``open`` marks an arc end that is a genuine
missing point (doubled endpoints accumulate onto it from the outside), and
``openray`` marks the truncated far end of an added ray.  Open ends never
answer point queries.

Each node has a kind and two ray lists (``node_incidences``): the arcs of
the rays that arrive, whose heads end there, and of those that leave, whose
tails start there.  Doubled endpoints ("caps") are point nodes listed in the
adjacency table, each ``(cap, arc, side)`` stated once: every neighbourhood
of the cap meets the named open arc end, so the pair is one more ray at the
cap, and the identified graph is the arc graph plus one edge from each cap
to the open end it touches.

The blow-up takes any finite tree to a branchless one in three moves, applied
in turn at each interior point, which it visits once: a branch point with
traffic on both sides stretches into an interval, a sink or source grows a ray
in the missing direction, and what still branches splits into one endpoint per
ray, all but the distinguished ray, whose end stays open.  Every ray moves by
one rule: a point's own arc end moves to the new node, and an adjacency moves
onto it.  The collapse map back to the base tree is kept on the result.  The
points are visited in insertion order; new ids are built from base ids.

Nodes marked as window boundary are truncation artifacts of an infinite
object; they must be leaves, and the blow-up leaves them alone.

A branchless blown-up tree orders its points (``manifold_poset``, with
``manifold_order`` the pairwise definition): the forward component of a
point, on the head side of its arc, plays the role of the upper cone.  The
verdicts depend only on the finite path between two points, so truncation
never guesses a relation; it can hide bound witnesses, which callers check
against realized points.

The line windows (``line_window``, ``alternating_line_tree``) and the
blow-up check ``check_blowup`` live in ``actions`` and load on first use;
``__getattr__`` at the end serves them from here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import lazy_names
from .errors import TreeError
from .poset import EQ, GT, LT, SIML, SIMU, ExtendedPoset, PosetError, _bits


class TreeIndex:
    """One iterative depth-first walk over an undirected graph.

    ``edges`` are vertex pairs.  Each component is rooted at its first vertex
    in ``vertices`` order; ``parent`` (None at a root) and ``depth`` describe
    the spanning forest, and entry/exit times label subtrees, so w lies
    below v exactly when ``tin[v] <= tin[w] < tout[v]`` (pre/post-order
    labelling, Bender and Farach-Colton, LATIN 2000).  The graph is a tree
    exactly when it has one component and is not ``cyclic``.
    """

    def __init__(self, vertices: Iterable, edges: Iterable):
        adjacency: dict = {v: [] for v in vertices}
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        self.parent: dict = {}
        self.depth: dict = {}
        self.tin: dict = {}
        self.tout: dict = {}
        # every vertex is also queued as a root, behind the walks of earlier ones
        stack = [(root, None, True) for root in reversed(adjacency)]
        while stack:
            v, up, entering = stack.pop()
            if not entering:
                self.tout[v] = len(self.tin)
            elif v not in self.tin:
                self.parent[v], self.tin[v] = up, len(self.tin)
                self.depth[v] = 0 if up is None else self.depth[up] + 1
                stack.append((v, up, False))
                stack.extend((w, v, True) for w in adjacency[v] if w not in self.tin)
        self.components = sum(up is None for up in self.parent.values())
        self.cyclic = sum(map(len, adjacency.values())) // 2 > len(adjacency) - self.components


class ArcRec:
    """A directed arc; the blow-up moves its ends."""

    __slots__ = ("tail", "head", "kind", "core")

    def __init__(self, tail, head, kind: str = "arc", core: bool = True):
        self.tail, self.head, self.kind, self.core = tail, head, kind, core


class OrderTree:
    """``nodes`` maps each node to its kind (point, open or openray),
    ``arcs`` each arc to its ArcRec, and ``adjacencies`` holds each
    (cap, arc, side) once, in insertion order."""

    def __init__(self) -> None:
        self.nodes: dict = {}
        self.arcs: dict = {}
        self.adjacencies: dict = {}
        self.boundary: set = set()

    # -- construction ------------------------------------------------

    def add_node(self, nid, kind: str = "point") -> None:
        if nid in self.nodes:
            raise TreeError(f"duplicate node {nid!r}")
        if kind not in ("point", "open", "openray"):
            raise TreeError(f"bad node kind {kind!r}")
        self.nodes[nid] = kind

    def add_arc(self, aid, tail, head, kind: str = "arc", core: bool = True) -> None:
        if aid in self.arcs:
            raise TreeError(f"duplicate arc {aid!r}")
        if tail == head:
            raise TreeError(f"arc {aid!r} is degenerate")
        if kind not in ("arc", "blowup", "stub"):
            raise TreeError(f"bad arc kind {kind!r}")
        if not isinstance(core, bool):
            raise TreeError(f"arc {aid!r} has a non-boolean core {core!r}")
        for end in (tail, head):
            if end not in self.nodes:
                raise TreeError(f"arc {aid!r} references missing node {end!r}")
        self.arcs[aid] = ArcRec(tail, head, kind, core)

    def add_adjacency(self, cap, arc, side: str) -> None:
        if side not in ("tail", "head"):
            raise TreeError(f"bad adjacency side {side!r}")
        if cap not in self.nodes:
            raise TreeError(f"adjacency references missing node {cap!r}")
        if arc not in self.arcs:
            raise TreeError(f"adjacency references missing arc {arc!r}")
        if (cap, arc, side) in self.adjacencies:
            raise TreeError(f"duplicate adjacency {(cap, arc, side)!r}")
        self.adjacencies[cap, arc, side] = None

    @classmethod
    def build(cls, nodes: Iterable, arcs: Iterable, boundary: Iterable = ()) -> "OrderTree":
        """Plain tree from node ids and (arc_id, tail, head) triples."""
        t = cls()
        for nid in nodes:
            t.add_node(nid)
        for aid, tail, head in arcs:
            t.add_arc(aid, tail, head)
        t.boundary = set(boundary)
        return t

    # -- points -------------------------------------------------------

    def is_point(self, p) -> bool:
        if not isinstance(p, tuple) or not p:
            return False
        if p[0] == "node":
            return self.nodes.get(p[1]) == "point"
        if p[0] == "arc":
            return p[1] in self.arcs and 0 < p[2] < 1
        return False

    def require_point(self, p) -> None:
        if not self.is_point(p):
            raise TreeError(f"not a point of this tree: {p!r}")

    # -- rays ---------------------------------------------------------

    def node_incidences(self) -> dict:
        """The rays at every node as (ins, outs), the arcs of the rays that
        arrive and of those that leave, from one pass over the arcs and
        adjacencies: an in-ray ends at its arc's head, an out-ray at its
        tail, and an adjacency is a ray at its cap."""
        rays: dict = {nid: ([], []) for nid in self.nodes}
        for aid in self.sorted_arc_ids():
            arc = self.arcs[aid]
            rays[arc.head][0].append(aid)
            rays[arc.tail][1].append(aid)
        for cap, aid, side in self.adjacencies:
            rays[cap][side == "tail"].append(aid)
        return rays

    def is_branchless(self) -> bool:
        rays = self.node_incidences()
        return all(len(ins) <= 1 and len(outs) <= 1
                   for nid, (ins, outs) in rays.items() if self.nodes[nid] == "point")

    def sorted_arc_ids(self) -> list:
        return sorted(self.arcs, key=repr)

    # -- identified graph ----------------------------------------------

    def _end_token(self, aid, side: str):
        nid = getattr(self.arcs[aid], side)
        return ("n", nid) if self.nodes[nid] == "point" else ("end", aid, side)

    def identified_graph(self) -> tuple:
        """Arc-end tokens joined by the arcs, then one edge from each doubled
        endpoint to the open arc end it touches: (tokens, edges).  The arcs
        come first, each edge labelled by its arc; the others by None.  The
        tokens are listed in the order the edges reach them."""
        edges = [(self._end_token(aid, "tail"), self._end_token(aid, "head"), aid) for aid in self.arcs]
        edges += [(("n", cap), ("end", aid, side), None) for cap, aid, side in self.adjacencies]
        return list(dict.fromkeys(t for u, v, _aid in edges for t in (u, v))), edges

    def check_axioms(self) -> dict:
        """Structural axioms: nondegenerate directed arcs, open ends used
        once, adjacencies from points onto open ends, boundary nodes that
        are leaves, and one tree underneath.

        Connectivity and acyclicity are read off the identified graph, which
        is exactly the statement that no cyclic word of segments cancels.
        """
        problems = []
        rays = dict.fromkeys(self.nodes, 0)
        open_use: dict = {}
        for aid, arc in self.arcs.items():
            for side in ("tail", "head"):
                nid = getattr(arc, side)
                rays[nid] += 1
                if self.nodes[nid] != "point":
                    open_use.setdefault(nid, []).append((aid, side))
        for cap, aid, side in self.adjacencies:
            rays[cap] += 1
            if self.nodes[cap] != "point":
                problems.append(f"adjacency source {cap!r} is not a point")
            elif self.nodes[getattr(self.arcs[aid], side)] == "point":
                problems.append(f"adjacency target {(aid, side)!r} is not an open end")
        for nid, uses in open_use.items():
            if len(uses) != 1:
                problems.append(f"open end {nid!r} shared by {len(uses)} arc ends")
        for nid, kind in self.nodes.items():
            if kind != "point" and nid not in open_use:
                problems.append(f"open node {nid!r} attached to no arc")
            if kind == "point" and self.arcs and not rays[nid]:
                problems.append(f"point node {nid!r} is isolated")
            if nid in self.boundary and rays[nid] > 1:
                problems.append(f"boundary node {nid!r} is not a leaf")
        if self.arcs:
            tokens, edges = self.identified_graph()
            index = TreeIndex(tokens, [(u, v) for u, v, _aid in edges])
            if index.cyclic:
                problems.append("identified arc graph has a cycle")
            if index.components != 1:
                problems.append("identified arc graph is not connected")
        return {"ok": not problems, "problems": problems, "nodes": len(self.nodes), "arcs": len(self.arcs)}


# -- blow-up ------------------------------------------------------------


class OneManifold(OrderTree):
    """A branchless blown-up tree remembering the collapse map to its base."""

    def __init__(self, base: OrderTree):
        super().__init__()
        self.base = base
        self.phi_nodes: dict = {}
        self.phi_arcs: dict = {}


def denjoy_blowup(tree: OrderTree) -> OneManifold:
    check = tree.check_axioms()
    if not check["ok"]:
        raise TreeError("blow-up needs a well-formed tree: " + "; ".join(check["problems"]))
    m = OneManifold(tree)
    for nid, kind in tree.nodes.items():
        m.add_node(nid, kind)
        m.phi_nodes[nid] = nid
    for aid, arc in tree.arcs.items():
        m.add_arc(aid, arc.tail, arc.head, arc.kind, arc.core)
        m.phi_arcs[aid] = ("base-arc", aid)
    m.boundary = set(tree.boundary)
    for cap, aid, side in tree.adjacencies:
        m.add_adjacency(cap, aid, side)

    def move(aid, side: str, p, q) -> None:
        # the ray ends at the arc's side end: p's own arc end moves to q, and
        # otherwise p touches that end, and the adjacency moves onto q
        arc = m.arcs[aid]
        if getattr(arc, side) == p:
            setattr(arc, side, q)
        else:
            del m.adjacencies[p, aid, side]
            m.add_adjacency(q, aid, side)

    def split(nid, ins: list, outs: list) -> None:
        # one doubled endpoint per non-distinguished ray, leaving the
        # distinguished ray end open
        if len(ins) <= 1 and len(outs) <= 1:
            return
        dist, dist_side, rays, side = (ins[0], "head", outs, "tail") if len(ins) == 1 else (outs[0], "tail", ins, "head")
        base_target = m.phi_nodes.pop(nid)
        del m.nodes[nid]
        for aid in rays:
            cap = ("cap", aid, nid)
            m.add_node(cap)
            m.phi_nodes[cap] = base_target
            move(aid, side, nid, cap)
            m.add_adjacency(cap, dist, dist_side)
        if getattr(m.arcs[dist], dist_side) != nid:
            del m.adjacencies[nid, dist, dist_side]  # the open end is there already
            return
        opennode = ("openend", nid)
        m.add_node(opennode, "open")
        m.phi_nodes[opennode] = base_target
        setattr(m.arcs[dist], dist_side, opennode)

    def settle(nid, ins: list, outs: list) -> None:
        # grow a ray in the missing direction at a sink or source, then split
        if bool(ins) != bool(outs):
            far = ("raytop" if ins else "raybottom", nid)
            m.add_node(far, "openray")
            aid = ("stub", nid)
            m.add_arc(aid, *((nid, far) if ins else (far, nid)), kind="stub", core=False)
            m.phi_arcs[aid] = ("base-node", m.phi_nodes[nid])
            m.phi_nodes[far] = m.phi_nodes[nid]
            ins, outs = (ins, [aid]) if ins else ([aid], outs)
        split(nid, ins, outs)

    # each interior point once, with the rays it had in the base tree; a move
    # rewires only the arc ends and adjacencies at its own node, so later
    # nodes keep theirs
    rays = m.node_incidences()
    for nid, kind in tree.nodes.items():
        if nid in m.boundary or kind != "point":
            continue
        ins, outs = rays[nid]
        if len(ins) <= 1 or len(outs) <= 1:
            settle(nid, ins, outs)
            continue
        # stretch a two-sided branch point into an interval
        n_in, n_out, blow = ("blowin", nid), ("blowout", nid), ("blow", nid)
        for end in (n_in, n_out):
            m.add_node(end)
            m.phi_nodes[end] = nid
        for aid in ins:
            move(aid, "head", nid, n_in)
        for aid in outs:
            move(aid, "tail", nid, n_out)
        m.add_arc(blow, n_in, n_out, kind="blowup", core=True)
        m.phi_arcs[blow] = ("base-node", nid)
        del m.nodes[nid], m.phi_nodes[nid]
        settle(n_in, ins, [blow])
        settle(n_out, [blow], outs)

    if not m.is_branchless():
        raise TreeError("blow-up left a branch point behind")
    return m


# -- the order on a branchless manifold --------------------------------------


def _arc_position(rays: Optional[dict], p: tuple) -> tuple:
    """Reduce a point to (arc, parameter); parameters 0 and 1 stand for the
    tail and head node of the arc.  Branching nodes have no forward side.
    ``rays`` is the tree's ``node_incidences()``, read only for a node
    point, so a caller reads it once for all its points and only when one
    is a node."""
    if p[0] == "arc":
        return p[1], Fraction(p[2])
    ins, outs = rays[p[1]]
    if len(ins) <= 1 and len(outs) <= 1 and (ins or outs):
        return (outs[0], Fraction(0)) if outs else (ins[0], Fraction(1))
    raise TreeError(f"order undefined at a branching point: {p!r}")


def manifold_graph(m: OrderTree) -> tuple:
    """The identified token graph, indexed once so pairwise order queries
    stay cheap: (TreeIndex, {arc: (tail token, head token)})."""
    tokens, edges = m.identified_graph()
    index = TreeIndex(tokens, [(t1, t2) for t1, t2, _aid in edges])
    if index.cyclic or index.components != 1:
        raise TreeError("order undefined: identified arc graph is not a tree")
    return index, {aid: (t1, t2) for t1, t2, aid in edges[:len(m.arcs)]}


def _arc_span(graph: tuple, aid) -> tuple:
    """Entry and exit time of the arc's lower end in the rooted token tree,
    and whether that end is the head."""
    index, ends = graph
    tail, head = ends[aid]
    lower = max((tail, head), key=index.depth.get)
    return index.tin[lower], index.tout[lower], lower == head


def _arc_order(a: tuple, b: tuple) -> int:
    """Relation of points on two distinct arcs, from the arcs' spans.

    Cutting an arc of the rooted tree leaves the subtree below it and the
    rest, and its forward component is the part on its head side.  So one
    interval test on the other arc's lower end says whether that arc lies
    forward.
    """
    forward = (a[0] <= b[0] < a[1]) == a[2]
    backward = (b[0] <= a[0] < b[1]) == b[2]
    if forward != backward:
        return LT if forward else GT
    return SIMU if forward else SIML


def manifold_order(m: OrderTree, x: tuple, y: tuple, graph: Optional[tuple] = None) -> int:
    """Relation of two points of a branchless oriented manifold.

    x < y when y sits in the forward component of x but not conversely;
    mutual containment is upward similarity (the points face each other),
    mutual absence downward similarity (back to back).
    """
    m.require_point(x)
    m.require_point(y)
    if x == y:
        return EQ
    rays = m.node_incidences() if x[0] == "node" or y[0] == "node" else None
    xa, xt = _arc_position(rays, x)
    ya, yt = _arc_position(rays, y)
    if xa == ya:
        if xt == yt:
            return EQ
        return LT if xt < yt else GT
    if graph is None:
        graph = manifold_graph(m)
    return _arc_order(_arc_span(graph, xa), _arc_span(graph, ya))


def manifold_poset(m: OrderTree, points: dict, same_point: Optional[Callable] = None) -> ExtendedPoset:
    """The tagged poset of points of a branchless manifold, keyed by element
    (``points`` maps elements to points), with manifold_order's relation on
    every pair of distinct points.

    Each point is checked and placed on its arc once.  Points on one arc
    compare by parameter, and points on two arcs as their arcs do, so each
    pair of arcs is related once.  Elements that share a point are ordered
    by ``same_point(g, h)``, true when g < h, called once per ordered pair
    of them; without it such a pair has no relation and raises PosetError.
    """
    graph = manifold_graph(m)
    elements = tuple(points)
    arc_of: dict = {}    # arc -> small int
    spans: list = []     # small int -> _arc_span
    on_arc: list = []    # small int -> mask of the elements on the arc
    placed: list = []    # element -> (small int, parameter)
    first: dict = {}     # (small int, parameter) -> the first element there
    shared: dict = {}    # first element -> mask of the elements at its point
    rays = None          # node_incidences(), on the first node point
    for k, p in enumerate(points.values()):
        m.require_point(p)
        if rays is None and p[0] == "node":
            rays = m.node_incidences()
        aid, t = _arc_position(rays, p)
        a = arc_of.get(aid)
        if a is None:
            a = arc_of[aid] = len(spans)
            spans.append(_arc_span(graph, aid))
            on_arc.append(0)
        on_arc[a] |= 1 << k
        placed.append((a, t))
        i = first.setdefault((a, t), k)
        if i != k:
            shared[i] = shared.get(i, 1 << i) | 1 << k
    if shared and same_point is None:
        i = min(shared)  # the first pair in row-major order
        j = next(_bits(shared[i] & ~(1 << i)))
        raise PosetError(f"pair ({elements[i]!r}, {elements[j]!r}) has no admissible relation")
    across = []  # small int -> the elements on other arcs, by relation
    for a, span in enumerate(spans):
        rows = {LT: 0, GT: 0, SIMU: 0, SIML: 0}
        for b, other in enumerate(spans):
            if b != a:
                rows[_arc_order(span, other)] |= on_arc[b]
        across.append(rows)
    ahead = [0] * len(placed)  # the elements further along the same arc
    for mask in on_arc:
        later = 0
        for k in sorted(_bits(mask), key=lambda k: placed[k][1], reverse=True):
            ahead[k] = later
            later |= 1 << k
    above = [0] * len(placed)  # the elements at the same point that lie above
    for mask in shared.values():
        for k in _bits(mask):
            ahead[k] &= ~mask
            above[k] = sum(1 << j for j in _bits(mask) if j != k and same_point(elements[k], elements[j]))
    up, down, simu, siml = [], [], [], []
    for k, (a, _t) in enumerate(placed):
        rows = across[a]
        up.append(rows[LT] | ahead[k] | above[k])
        down.append(rows[GT] | on_arc[a] & ~ahead[k] & ~above[k] & ~(1 << k))
        simu.append(rows[SIMU])
        siml.append(rows[SIML])
    return ExtendedPoset(elements, up, down, simu, siml)


# name -> the sibling that defines it: the line windows and the blow-up check
_HOME = dict.fromkeys(("line_window", "alternating_line_tree", "check_blowup"), "actions")
__getattr__ = lazy_names(__name__, _HOME)
