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
points are visited in insertion order.

Every node and arc is a small int, interned by ``add_node`` and
``add_arc`` (for the layout's junctions, and the blow-up's caps, open ends,
rays and stretched points; the blow-up keeps the base's ids), and every
table and point is keyed by them.  Display ids (a base id, or a tuple such
as ``("cap", arc, node)`` of them) sit in one table, ``names``, read to
print, emit or sort ids for printing, and by ``sorted_arc_ids``, whose repr
order sets each node's ray order and so the distinguished ray.  Trees named
by display ids are read by ``actions.TreeReader``.

Nodes marked as window boundary are truncation artifacts of an infinite
object; they must be leaves, and the blow-up leaves them alone.

A branchless blown-up tree orders its points (``manifold_poset``, with
``manifold_order`` the pairwise definition): the forward component of a
point, on the head side of its arc, plays the role of the upper cone.  The
verdicts depend only on the finite path between two points, so truncation
never guesses a relation; it can hide bound witnesses, which callers check
against realized points.

The line windows and the blow-up check ``check_blowup`` live in
``actions``; ``__getattr__`` serves the benchmark tracer's targets among
them.
"""

from __future__ import annotations

from itertools import combinations, groupby
from typing import Callable, Iterable, Optional

from . import lazy_names
from .errors import PosetError, TreeError
from .poset import ExtendedPoset, _bits
from .relations import EQ, GT, LT, SIML, SIMU, SWAP


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
    """A directed arc between two nodes; the blow-up moves its ends.  ``key``
    is the repr of the arc's display id, which orders the rays at a node."""

    __slots__ = ("tail", "head", "kind", "core", "key")

    def __init__(self, tail: int, head: int, kind: str, core: bool, key: str):
        self.tail, self.head, self.kind, self.core, self.key = tail, head, kind, core, key


class OrderTree:
    """Nodes and arcs are small ints, numbered together in the order they
    are added; ``names`` holds the display id of each.  ``nodes`` maps each
    node to its kind (point, open or openray), ``arcs`` each arc to its
    ArcRec, and ``adjacencies`` holds each (cap, arc, side) once, in
    insertion order."""

    def __init__(self) -> None:
        self.names: list = []
        self.nodes: dict = {}
        self.arcs: dict = {}
        self.adjacencies: dict = {}
        self.boundary: set = set()

    # -- construction ------------------------------------------------

    def add_node(self, name, kind: str = "point") -> int:
        """A new node displayed as ``name``; returns its id."""
        if kind not in ("point", "open", "openray"):
            raise TreeError(f"bad node kind {kind!r}")
        nid = len(self.names)
        self.names.append(name)
        self.nodes[nid] = kind
        return nid

    def add_arc(self, name, tail: int, head: int, kind: str = "arc", core: bool = True) -> int:
        """A new arc displayed as ``name`` from node tail to node head;
        returns its id."""
        if tail == head:
            raise TreeError(f"arc {name!r} is degenerate")
        if kind not in ("arc", "blowup", "stub"):
            raise TreeError(f"bad arc kind {kind!r}")
        if not isinstance(core, bool):
            raise TreeError(f"arc {name!r} has a non-boolean core {core!r}")
        for end in (tail, head):
            if end not in self.nodes:
                raise TreeError(f"arc {name!r} references missing node {end!r}")
        aid = len(self.names)
        self.names.append(name)
        self.arcs[aid] = ArcRec(tail, head, kind, core, repr(name))
        return aid

    def add_adjacency(self, cap: int, arc: int, side: str) -> None:
        if side not in ("tail", "head"):
            raise TreeError(f"bad adjacency side {side!r}")
        if cap not in self.nodes:
            raise TreeError(f"adjacency references missing node {cap!r}")
        if arc not in self.arcs:
            raise TreeError(f"adjacency references missing arc {arc!r}")
        if (cap, arc, side) in self.adjacencies:
            raise TreeError(f"duplicate adjacency {(self.names[cap], self.names[arc], side)!r}")
        self.adjacencies[cap, arc, side] = None

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
            raise TreeError(f"not a point of this tree: {self.named(p)!r}")

    def named(self, p):
        """A point with its node or arc given by display id, for messages."""
        if isinstance(p, tuple) and len(p) > 1 and isinstance(p[1], int) and 0 <= p[1] < len(self.names):
            return (p[0], self.names[p[1]], *p[2:])
        return p

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
        """The arcs in the repr order of their display ids."""
        arcs = self.arcs
        return sorted(arcs, key=lambda aid: arcs[aid].key)

    # -- identified graph ----------------------------------------------

    def _end_token(self, aid: int, side: str) -> int:
        nid = getattr(self.arcs[aid], side)
        return nid if self.nodes[nid] == "point" else _open_end(aid, side)

    def identified_graph(self) -> tuple:
        """Arc-end tokens joined by the arcs, then one edge from each doubled
        endpoint to the open arc end it touches: (tokens, edges).  A point
        node is its own token; an open arc end has one of its own
        (_open_end).  The arcs come first, each edge labelled by its arc;
        the others by None.  The tokens are listed in the order the edges
        reach them."""
        edges = [(self._end_token(aid, "tail"), self._end_token(aid, "head"), aid) for aid in self.arcs]
        edges += [(cap, _open_end(aid, side), None) for cap, aid, side in self.adjacencies]
        return list(dict.fromkeys(t for u, v, _aid in edges for t in (u, v))), edges

    def check_axioms(self) -> dict:
        """Structural axioms: nondegenerate directed arcs, open ends used
        once, adjacencies from points onto open ends, boundary nodes that
        are leaves, and one tree underneath.

        Connectivity and acyclicity are read off the identified graph, which
        is exactly the statement that no cyclic word of segments cancels.
        """
        problems = []
        names = self.names
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
                problems.append(f"adjacency source {names[cap]!r} is not a point")
            elif self.nodes[getattr(self.arcs[aid], side)] == "point":
                problems.append(f"adjacency target {(names[aid], side)!r} is not an open end")
        for nid, uses in open_use.items():
            if len(uses) != 1:
                problems.append(f"open end {names[nid]!r} shared by {len(uses)} arc ends")
        for nid, kind in self.nodes.items():
            if kind != "point" and nid not in open_use:
                problems.append(f"open node {names[nid]!r} attached to no arc")
            if kind == "point" and self.arcs and not rays[nid]:
                problems.append(f"point node {names[nid]!r} is isolated")
            if nid in self.boundary and rays[nid] > 1:
                problems.append(f"boundary node {names[nid]!r} is not a leaf")
        if self.arcs:
            tokens, edges = self.identified_graph()
            index = TreeIndex(tokens, [(u, v) for u, v, _aid in edges])
            if index.cyclic:
                problems.append("identified arc graph has a cycle")
            if index.components != 1:
                problems.append("identified arc graph is not connected")
        return {"ok": not problems, "problems": problems, "nodes": len(self.nodes), "arcs": len(self.arcs)}


def _open_end(aid: int, side: str) -> int:
    """The token of an arc's end in the identified graph when the end is no
    point: a negative int, apart from every node and from every other end."""
    return ~(2 * aid + (side == "head"))


# -- blow-up ------------------------------------------------------------


class OneManifold(OrderTree):
    """A branchless blown-up tree remembering the collapse map to its base.
    It starts as a copy of the base under the base's ids."""

    def __init__(self, base: OrderTree):
        super().__init__()
        self.base = base
        self.names = list(base.names)
        self.nodes = dict(base.nodes)
        self.arcs = {aid: ArcRec(a.tail, a.head, a.kind, a.core, a.key) for aid, a in base.arcs.items()}
        self.adjacencies = dict(base.adjacencies)
        self.boundary = set(base.boundary)
        self.phi_nodes: dict = {nid: nid for nid in base.nodes}
        self.phi_arcs: dict = {aid: ("base-arc", aid) for aid in base.arcs}


def denjoy_blowup(tree: OrderTree) -> OneManifold:
    check = tree.check_axioms()
    if not check["ok"]:
        raise TreeError("blow-up needs a well-formed tree: " + "; ".join(check["problems"]))
    m = OneManifold(tree)
    names = m.names

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
            cap = m.add_node(("cap", names[aid], names[nid]))
            m.phi_nodes[cap] = base_target
            move(aid, side, nid, cap)
            m.add_adjacency(cap, dist, dist_side)
        if getattr(m.arcs[dist], dist_side) != nid:
            del m.adjacencies[nid, dist, dist_side]  # the open end is there already
            return
        opennode = m.add_node(("openend", names[nid]), "open")
        m.phi_nodes[opennode] = base_target
        setattr(m.arcs[dist], dist_side, opennode)

    def settle(nid, ins: list, outs: list) -> None:
        # grow a ray in the missing direction at a sink or source, then split
        if bool(ins) != bool(outs):
            far = m.add_node(("raytop" if ins else "raybottom", names[nid]), "openray")
            aid = m.add_arc(("stub", names[nid]), *((nid, far) if ins else (far, nid)), kind="stub", core=False)
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
        n_in, n_out = (m.add_node((end, names[nid])) for end in ("blowin", "blowout"))
        for end in (n_in, n_out):
            m.phi_nodes[end] = nid
        for aid in ins:
            move(aid, "head", nid, n_in)
        for aid in outs:
            move(aid, "tail", nid, n_out)
        blow = m.add_arc(("blow", names[nid]), n_in, n_out, kind="blowup", core=True)
        m.phi_arcs[blow] = ("base-node", nid)
        del m.nodes[nid], m.phi_nodes[nid]
        settle(n_in, ins, [blow])
        settle(n_out, [blow], outs)

    if not m.is_branchless():
        raise TreeError("blow-up left a branch point behind")
    return m


# -- the order on a branchless manifold --------------------------------------


def _arc_position(m: OrderTree, rays: Optional[dict], p: tuple) -> tuple:
    """Reduce a point of m to (arc, parameter); parameters 0 and 1 stand for
    the tail and head node of the arc.  Branching nodes have no forward
    side.  ``rays`` is m's ``node_incidences()``, read only for a node
    point, so a caller reads it once for all its points and only when one
    is a node."""
    if p[0] == "arc":
        return p[1], p[2]
    ins, outs = rays[p[1]]
    if len(ins) <= 1 and len(outs) <= 1 and (ins or outs):
        return (outs[0], 0) if outs else (ins[0], 1)
    raise TreeError(f"order undefined at a branching point: {m.named(p)!r}")


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
    xa, xt = _arc_position(m, rays, x)
    ya, yt = _arc_position(m, rays, y)
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
    rays = None          # node_incidences(), on the first node point
    for k, p in enumerate(points.values()):
        m.require_point(p)
        if rays is None and p[0] == "node":
            rays = m.node_incidences()
        aid, t = _arc_position(m, rays, p)
        a = arc_of.get(aid)
        if a is None:
            a = arc_of[aid] = len(spans)
            spans.append(_arc_span(graph, aid))
            on_arc.append(0)
        on_arc[a] |= 1 << k
        placed.append((a, t))
    # each arc's elements from its head end back, a point at a time: the
    # elements further along are ahead, and those at one point share it
    ahead = [0] * len(placed)
    shared = []  # the masks of the elements at a point that holds two or more
    for mask in on_arc:
        later = 0
        for _t, run in groupby(sorted(_bits(mask), key=lambda k: placed[k][1], reverse=True),
                               key=lambda k: placed[k][1]):
            here = 0
            for k in run:
                ahead[k] = later
                here |= 1 << k
            if here & here - 1:
                shared.append(here)
            later |= here
    if shared and same_point is None:
        first = _bits(min(shared, key=lambda mask: mask & -mask))  # the first pair in row-major order
        i, j = next(first), next(first)
        raise PosetError(f"pair ({elements[i]!r}, {elements[j]!r}) has no admissible relation")
    across = [{LT: 0, GT: 0, SIMU: 0, SIML: 0} for _ in spans]  # small int -> the elements on other arcs, by relation
    for a, b in combinations(range(len(spans)), 2):  # b relates to a by the swapped code
        rel = _arc_order(spans[a], spans[b])
        across[a][rel] |= on_arc[b]
        across[b][SWAP[rel]] |= on_arc[a]
    above = [0] * len(placed)  # the elements at the same point that lie above
    for mask in shared:
        for k in _bits(mask):
            above[k] = sum(1 << j for j in _bits(mask) if j != k and same_point(elements[k], elements[j]))
    up, down, simu, siml = [], [], [], []
    for k, (a, _t) in enumerate(placed):
        rows = across[a]
        up.append(rows[LT] | ahead[k] | above[k])
        down.append(rows[GT] | on_arc[a] & ~ahead[k] & ~above[k] & ~(1 << k))
        simu.append(rows[SIMU])
        siml.append(rows[SIML])
    return ExtendedPoset(elements, up, down, simu, siml)


# name -> the sibling that defines it, for the benchmark tracer's targets only
_HOME = dict.fromkeys(("alternating_line_tree", "check_blowup"), "actions")
__getattr__ = lazy_names(__name__, _HOME)
