"""Orders extracted from group actions on oriented one-manifolds.

A branchless blown-up tree orders its points: removing an interior point
leaves two components, and the forward one (on the head side of the point's
arc) plays the role of the upper cone.  A pair is comparable when exactly one
point lies in the other's forward component, faces upward-similar when each
lies in the other's forward component, and downward-similar when neither
does.  All four verdicts depend only on the finite path between the points,
so truncation never guesses a relation; what truncation can hide is bound
witnesses, which callers check separately against realized points.

Given a group acting on the manifold, pulling this order back along an orbit
with trivial stabilizer yields a left-invariant tagged order on the group.
When the stabilizer is a totally ordered subgroup instead, the coset order
refines by the stabilizer order on same-coset pairs.

One row construction, ``manifold_poset``, builds both orders: it places each
point on its arc once, relates whole arcs, and orders elements that share a
point (one stabilizer coset) by a caller-given order on g^-1 h.
``manifold_order`` is the pairwise definition the tests check it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Optional

from .errors import OrbitError
from .groups import InfiniteDihedral
from .grouporder import (
    PLAIN,
    ConeReport,
    ConeStructure,
    induced_ball_poset,
    plain_of,
    tag_of,
    verify_cone_axioms,
)
from .ordertree import OrderTree, TreeError, TreeIndex, denjoy_blowup, alternating_line_tree
from .poset import EQ, GT, LT, SIML, SIMU, ExtendedPoset, PosetError, _bits
from .treebuild import (
    BetweenDecomposition,
    BuildError,
    BuildLayout,
    LabeledTree,
    auto_pairs,
    build_tree,
    normalize_decomposition,
    orient_segments,
)


# -- the order on a branchless manifold --------------------------------------


def _arc_position(m: OrderTree, p: tuple) -> tuple:
    """Reduce a point to (arc, parameter); parameters 0 and 1 stand for the
    tail and head node of the arc.  Branching nodes have no forward side."""
    if p[0] == "arc":
        return p[1], Fraction(p[2])
    nid = p[1]
    d = m.degrees(p)
    inc = m.incidences(p)
    if d["kind"] == "regular" or (d["n_f"] + d["n_o"]) == 1:
        for direction, aid in inc:
            if direction == "out":
                return aid, Fraction(0)
        return inc[0][1], Fraction(1)
    raise TreeError(f"order undefined at a branching point: {p!r}")


def manifold_graph(m: OrderTree) -> tuple:
    """The identified token graph, indexed once so pairwise order queries
    stay cheap: (TreeIndex, {arc: (tail token, head token)})."""
    tokens, edges, _ = m.identified_graph()
    index = TreeIndex(tokens, [(t1, t2) for t1, t2, _aid in edges])
    if index.cyclic or index.components != 1:
        raise TreeError("order undefined: identified arc graph is not a tree")
    return index, {aid: (t1, t2) for t1, t2, aid in edges}


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
    xa, xt = _arc_position(m, x)
    ya, yt = _arc_position(m, y)
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
    for k, p in enumerate(points.values()):
        m.require_point(p)
        aid, t = _arc_position(m, p)
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


def realized_bound(poset: ExtendedPoset, g, h, upper: bool) -> Optional[object]:
    """The first common upper (or lower) bound of g and h among the other
    elements of an orbit poset, read off its rows, or None."""
    rows = poset.rows[0 if upper else 1]
    common = rows[poset.index(g)] & rows[poset.index(h)]
    return poset.elements[(common & -common).bit_length() - 1] if common else None


# -- group actions ------------------------------------------------------------


@dataclass
class TreeAction:
    """A partial action on the finite manifold: ``act(g, point)`` returns the
    image point or None when the image leaves the truncation window."""

    group: object
    act: Callable
    name: str = ""


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


@dataclass
class OrbitPoset:
    """The tagged order pulled back along an orbit, with escape bookkeeping."""

    poset: ExtendedPoset
    realized: tuple
    escaped: tuple
    points: dict

    @property
    def coverage(self) -> Fraction:
        total = len(self.realized) + len(self.escaped)
        return Fraction(len(self.realized), total) if total else Fraction(0)


def orbit_points(action: TreeAction, x0: tuple, radius: int) -> tuple:
    """Map the ball through the action; returns (points, escaped)."""
    points: dict = {}
    escaped = []
    for g in action.group.ball(radius):
        img = action.act(g, x0)
        if img is None:
            escaped.append(g)
        else:
            points[g] = img
    return points, tuple(escaped)


def orbit_poset(m: OrderTree, action: TreeAction, x0: tuple, radius: int) -> OrbitPoset:
    """The order on ball elements through their orbit points.

    Elements whose orbit point leaves the window are excluded (counted, not
    guessed).  A nontrivial stabilizer inside the ball is an error; use
    stabilizer_extension_order for that situation.
    """
    group = action.group
    points, escaped = orbit_points(action, x0, radius)  # in ball order
    ident = group.identity
    for g, img in points.items():
        if g != ident and img == x0:
            raise OrbitError(f"nontrivial stabilizer: {group.format(g)} fixes the base point")
    poset = manifold_poset(m, points)
    return OrbitPoset(poset=poset, realized=poset.elements, escaped=escaped, points=points)


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
    return OrbitPoset(poset=poset, realized=poset.elements, escaped=escaped, points=points)


# -- concrete manifolds and actions -------------------------------------------


def integer_line(half_width: int) -> OrderTree:
    """A uniformly ascending chain of unit arcs on the integers."""
    if half_width < 1:
        raise TreeError("window too small")
    t = OrderTree()
    for n in range(-half_width, half_width + 1):
        t.add_node(n)
    for i in range(-half_width, half_width):
        t.add_arc(("s", i), i, i + 1)
    t.boundary = {-half_width, half_width}
    return t


def line_coordinate(aid: tuple, t: Fraction) -> Fraction:
    """Real coordinate of a point on a unit arc ("s", i), respecting the
    arc's direction as laid out by integer_line / alternating_line_tree."""
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


def shift_action(m: OrderTree, group, shift_of: Callable, name: str = "shift") -> TreeAction:
    """Translation action on an ascending integer_line manifold."""

    def act(g, p):
        if p[0] != "arc" or p[1][0] != "s":
            raise TreeError(f"action undefined at {p!r}")
        c = p[1][1] + Fraction(p[2]) + shift_of(g)
        return line_point(m, c, alternating=False)

    return TreeAction(group=group, act=act, name=name)


def label_action(state, layout, manifold: OrderTree) -> tuple:
    """The left translation action read off a built tree's labels.

    Every plain label g owns an interior point of the layout; translation by
    h sends that point to the point of h*g, or escapes when h*g was never
    built.  Returns (action, base_point, points-by-element).
    """
    group = state.group
    if group is None:
        raise BuildError("the build carries no group")
    points: dict = {}
    for lab, pt in layout.label_point.items():
        if tag_of(lab) != PLAIN:
            continue
        if pt[0] != "arc":
            raise BuildError(f"plain label {lab!r} landed on a junction")
        manifold.require_point(pt)
        points[plain_of(lab)] = pt
    inverse = {pt: g for g, pt in points.items()}

    def act(h, p):
        g = inverse.get(p)
        if g is None:
            raise TreeError(f"action undefined at {p!r}")
        return points.get(group.mult(h, g))

    ident = group.identity
    if ident not in points:
        raise BuildError("identity was not built")
    return TreeAction(group=group, act=act, name="label-translation"), points[ident], points


class ConePipeline:
    """The chain from a cone order to its tree and back, at one radius.

    Cone-axiom report, ball poset (gated on the report) and between-set
    decomposition are computed on first use and kept; so are the build, its
    layout and the round trip for each stage count.  The build reads
    touching off the ball poset, so no step here builds the doubled poset.
    Use ``ConePipeline.of`` so that every step of a command shares one
    pipeline per (cone, radius).
    """

    def __init__(self, cone: ConeStructure, radius: int):
        self.cone = cone
        self.radius = radius
        self._per_stages: dict = {}

    @classmethod
    def of(cls, cone: ConeStructure, radius: int) -> "ConePipeline":
        if radius not in cone.pipelines:
            cone.pipelines[radius] = cls(cone, radius)
        return cone.pipelines[radius]

    @cached_property
    def ball(self) -> list:
        return self.cone.group.ball(self.radius)

    @cached_property
    def cone_report(self) -> ConeReport:
        return verify_cone_axioms(self.cone, self.radius)

    @cached_property
    def ball_poset(self) -> ExtendedPoset:
        return induced_ball_poset(self.cone, self.radius, self.cone_report)

    @cached_property
    def decomposition(self) -> BetweenDecomposition:
        return normalize_decomposition(self.ball_poset, auto_pairs(self.ball_poset))

    def _memo(self, step: str, stages: Optional[int], make: Callable):
        # key on the stages actually laid, so 6 and None share a short build
        todo = self.decomposition.stages
        n = len(todo if stages is None else todo[:stages])
        if (step, n) not in self._per_stages:
            self._per_stages[step, n] = make(n)
        return self._per_stages[step, n]

    def build(self, stages: Optional[int] = None) -> LabeledTree:
        return self._memo("build", stages, lambda n: build_tree(
            self.ball_poset, decomposition=self.decomposition, stages=n, group=self.cone.group))

    def layout(self, stages: Optional[int] = None) -> BuildLayout:
        return self._memo("layout", stages, lambda n: orient_segments(self.build(n)))

    def roundtrip(self, stages: Optional[int] = None) -> dict:
        """See roundtrip_orbit."""
        return self._memo("roundtrip", stages, self._roundtrip)

    def _roundtrip(self, stages: int) -> dict:
        state, layout = self.build(stages), self.layout(stages)
        manifold = denjoy_blowup(layout.tree)
        action, x0, _ = label_action(state, layout, manifold)
        orbit = orbit_poset(manifold, action, x0, self.radius)
        induced = self.ball_poset
        mismatches = []
        for g in orbit.realized:
            for h in orbit.realized:
                got = orbit.poset.rel(g, h)
                want = induced.rel(g, h)
                if got != want:
                    mismatches.append((g, h, got, want))
        ball_size = len(self.ball)
        return {
            "ok": not mismatches,
            "cone": self.cone.name,
            "radius": self.radius,
            "realized": len(orbit.realized),
            "escaped": len(orbit.escaped),
            "ball": ball_size,
            "coverage": Fraction(len(orbit.realized), ball_size),
            "mismatches": mismatches,
            "orbit": orbit,
        }


def roundtrip_orbit(cone: ConeStructure, radius: int = 6, stages: Optional[int] = None) -> dict:
    """Build the tree of a cone order, blow it up, act by translation on the
    labels, and pull the manifold order back along the identity orbit.

    The pulled-back order must agree with the ball order induced by the cone
    on every realized pair; elements outside the built part are excluded and
    counted, never guessed.  The report is shared with the cone's pipeline;
    copy it before changing it.
    """
    return ConePipeline.of(cone, radius).roundtrip(stages)


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

    return tree, manifold, TreeAction(group=group, act=act, name="dihedral-line")
