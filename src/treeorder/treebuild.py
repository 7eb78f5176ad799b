"""Stagewise construction of a labelled order tree from a tagged poset.

The builder consumes a finite admissible tagged poset (a group ball with a
left-invariant order, or any other: no group is needed) and builds it from
the star cover, the between sets B(base, y) from its first element.  Each
stage is a pair (x, y) whose between set meets the built part in x alone,
x the furthest built member of B(base, y).  It lays stage_labels, each
member m of B(x, y) in travel order as the triple (m, -s), (m, PLAIN),
(m, s), s its tag toward y (y's faces away from x), one unit per
similarity class.  Consecutive labels of different members touch, so
label t goes to slot 2 (t // 3) + t % 3: a class of m members spans
2m + 1 slots, and consecutive classes share their boundary slot.  The
labels past x's go on a new interval glued at x's tag toward y, the one
built point of the stage.  The base is a one-member class on interval 0.
A stage that is not a single-point gluing, or lays a label twice, is
refused; the build decides no touching: verification tests each shared
point.

The laid-out structure remembers every label position exactly (dyadic
fractions), so the structural checks are equalities, not approximations:
the glued intervals form a tree, complement gaps are bounded by an element
and its own tag, paths between built elements read out their between sets in
travel order, and two labels share a point exactly when nothing lies between
them.  The layout and the checks read the intervals cut at their label
coordinates, each resolved point numbered in point order (_point_rows), and
the layout interns each junction as a tree node under the point it is, so
neither hashes a coordinate.  Neither the build nor the checks build the
doubled order (``gplus`` does): the element doubling g -> (g-, g, g+)
below reads its between sets and touching pairs off the base order.
``act_on_labels`` lives in ``actions``; ``__getattr__`` serves it for the
benchmark tracer.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, combinations
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional

from . import lazy_names
from .errors import BuildError
from .ordertree import OrderTree, TreeIndex
from .poset import ExtendedPoset

ZERO = Fraction(0)


# -- element doubling ---------------------------------------------------

MINUS, PLAIN, PLUS = -1, 0, 1  # a doubled label is the tuple (element, tag)
_TAG_TEXT = {MINUS: "-", PLAIN: "", PLUS: "+"}


def format_aug(x: tuple, fmt: Callable = str) -> str:
    return fmt(x[0]) + _TAG_TEXT[x[1]]


def r_equivalent(p: ExtendedPoset, x: tuple, y: tuple) -> bool:
    """Touching in the doubled order, read off the base order p: a label
    touches itself, a plain label nothing else, and tags (g, s), (h, t)
    touch when nothing lies between them in ``blow_up_gplus(p)``.  That is
    when g != h, B(g, h) = {g, h}, s = side_toward(p, g, h) and
    t = side_toward(p, h, g).  Why: the doubling copies each base relation
    to all nine tag pairs, so a label of a third element lies between g^s
    and h^t exactly when that element lies in B(g, h); and g's labels g and
    g^-s lie between exactly when s faces away from h (g- < g < g+ < h^t
    for g < h; g- < g+ ~u h^t for g ~u h; g+ > g- ~l h^t for g ~l h).
    Likewise for h; and g^s, g^t never touch, g lying between them.
    """
    if x == y:
        return True
    (g, s), (h, t) = x, y
    return (s != PLAIN and t != PLAIN and g != h and p._between_mask(p.index(g), p.index(h)).bit_count() == 2
            and s == side_toward(p, g, h) and t == side_toward(p, h, g))


def side_toward(p: ExtendedPoset, x, y) -> int:
    """Which doubled tag of x faces y: PLUS when y lies above x or is
    upward-similar to it, MINUS otherwise."""
    i = p.index(x)
    return PLUS if (p._up[i] | p._simu[i]) >> p.index(y) & 1 else MINUS


def doubled_members(p: ExtendedPoset, members: tuple) -> list:
    """B(a, b) of two plain labels in blow_up_gplus(p), in travel order:
    the stage labels of (a, b) less the two outer tags, read off the base
    B(a, b), whose ``members`` (p.between_members(a, b)) the caller reads.
    The doubling copies each base relation to all nine tag pairs, so every
    inner member brings its three labels, and of a's and b's labels only
    the plain one and the tag facing the other lie between."""
    return stage_labels(p, members)[1:-1]


def auto_pairs(poset: ExtendedPoset) -> list:
    """Star cover: pair the first element with every other, in poset order."""
    return [(poset.elements[0], e) for e in poset.elements[1:]]


def normalize_decomposition(poset: ExtendedPoset) -> tuple:
    """The star cover (auto_pairs) as gluable stages, each a pair (x, y)
    whose one built member is x.

    The base is the first element.  Each (base, y) with y not yet built
    gives one stage, from the furthest built member of B(base, y) to y.
    The built part is a union of sets B(base, y'), and B(base, z) lies
    inside B(base, y) for every z in B(base, y), so the built part meets
    B(base, y) in an initial segment: the stage meets it in its first
    point alone, and a built y has all of B(base, y) built.
    """
    if not poset.elements:
        raise BuildError("an empty poset has no tree")
    base = poset.elements[0]
    built = {base}
    stages = []
    for _base, y in auto_pairs(poset):
        if y not in built:
            members = poset.between_members(base, y)
            stages.append((next(m for m in reversed(members) if m in built), y))
            built.update(members)
    return tuple(stages)


class LabeledTree:
    """A growing union of glued intervals with exact label positions.

    Points are pairs (interval, coordinate).  Every stage glues the low end
    of its new interval onto one older point, and ``_glued`` holds, per
    interval, where that older point resolves, so ``find`` is one lookup.
    ``lows`` holds each interval's low end, and ``nu`` maps each doubled
    label to the raw point where its stage laid it.
    """

    def __init__(self, poset: ExtendedPoset, group=None):
        self.poset = poset
        self.group = group
        self.fmt = group.format if group is not None else str
        self.lows: list = []
        self.nu: dict = {}
        self.built: set = set()
        self.stages_done: list = []
        self._glued: list = []  # interval -> the older point its low end resolves to; None for the base's

    # -- point identity ------------------------------------------------

    def find(self, pt: tuple) -> tuple:
        i, c = pt
        root = self._glued[i]
        return root if root is not None and c == self.lows[i] else pt

    def label_key(self, label: tuple) -> tuple:
        return (self.poset.index(label[0]), label[1])

    def format_label(self, label: tuple) -> str:
        return format_aug(label, self.fmt)


# -- stage layout ----------------------------------------------------------


def stage_labels(p: ExtendedPoset, members: tuple) -> list:
    """The labels the stage (x, y) lays, in travel order, from the members
    of B(x, y): each member m as (m, -t), (m, PLAIN), (m, t), t its tag
    toward y, and y's t its tag away from x.  An inner member's tags face
    opposite ends (each way m lies between x and y puts just one of them
    above or upward-similar to m), so -t is its tag toward x."""
    x, y = members[0], members[-1]
    out = []
    for m in members:
        t = side_toward(p, m, y) if m != y else -side_toward(p, y, x)
        out += ((m, -t), (m, PLAIN), (m, t))
    return out


def _slot_coords(unit: int, nslots: int) -> list:
    """Deterministic positions on [unit, unit + 1]: endpoints for the
    extremal slots, then successive midpoints toward the upper end."""
    inner = [Fraction((unit + 1) * 2**j - 1, 2**j) for j in range(1, nslots - 1)]
    return [Fraction(unit), *inner, Fraction(unit + 1)]


def build_stage(state: LabeledTree, stage: tuple) -> LabeledTree:
    """Glue the stage (x, y) onto the tree by the slot rule (see the module
    docstring), at slot 2: x's built tag toward y."""
    p = state.poset
    x, y = stage
    chain = p.between_set(x, y)
    inter = [m for m in chain.members if m in state.built]
    if inter != [x]:
        raise BuildError(f"stage ({state.fmt(x)}, {state.fmt(y)}) is not a single-point gluing; "
                         f"built part {[state.fmt(m) for m in inter]}")
    seq = stage_labels(p, chain.members)
    coords = [ZERO]  # class ci of m members spans 2m + 1 slots over [ci, ci + 1]
    for ci, members in enumerate(chain.classes):
        coords += _slot_coords(ci, 2 * len(members) + 1)[1:]
    idx, glue = len(state.lows), coords[2]
    for t, lab in enumerate(seq[3:], 3):
        if lab in state.nu:
            raise BuildError(f"label laid twice: {state.format_label(lab)}")
        state.nu[lab] = (idx, coords[2 * (t // 3) + t % 3])
    state.lows.append(glue)
    state._glued.append(state.find(state.nu[seq[2]]))
    state.built.update(chain.members)
    state.stages_done.append(stage)
    return state


def build_tree(poset: ExtendedPoset, stages: Optional[int] = None, group=None) -> LabeledTree:
    """Lay the base, the first element, as one class on interval 0 by the
    slot rule, then the star cover's stages (normalize_decomposition): all
    of them, or the first ``stages``."""
    if stages is not None and stages < 0:
        raise BuildError(f"stage count must not be negative, got {stages}")
    todo = normalize_decomposition(poset)[:stages]
    state = LabeledTree(poset, group=group)
    base = poset.elements[0]
    state.lows.append(ZERO)
    state._glued.append(None)
    for tag, c in zip((MINUS, PLAIN, PLUS), _slot_coords(0, 3)):
        state.nu[base, tag] = (0, c)
    state.built.add(base)
    for st in todo:
        build_stage(state, st)
    return state


def build_from_cones(cone, radius: int = 6, stages: Optional[int] = None) -> LabeledTree:
    """Ball order from cone subsets, then the stagewise construction, through
    the cone's pipeline at this radius (orbitorder.ConePipeline)."""
    from .orbitorder import ConePipeline

    return ConePipeline.of(cone, radius).build(stages)


# -- oriented tree ---------------------------------------------------------


class BuildLayout(NamedTuple):
    """The built tree with directed arcs, and each label's place on it in
    label order: ("node", id) or ("arc", arc id, position along the arc)."""

    tree: OrderTree
    label_point: dict


def _point_rows(state: LabeledTree) -> tuple:
    """(rows, pos, ids, points): ``rows`` holds each interval's distinct
    label coordinates in order, its low end first, and ``pos`` each label's
    (interval, index in its row).  ``points`` lists the points the row
    entries resolve to in sorted order, and ``ids`` numbers each row entry
    by its point's place there.  Coordinates merge as they sort and are
    found by bisection, so none is hashed."""
    per = [[(lo, None)] for lo in state.lows]
    for lab, (i, c) in state.nu.items():
        per[i].append((c, lab))
    rows, pos = [], {}
    for i, pairs in enumerate(per):
        pairs.sort(key=itemgetter(0))
        row: list = []
        for c, lab in pairs:
            if not row or row[-1] != c:
                row.append(c)
            if lab is not None:
                pos[lab] = (i, len(row) - 1)
        rows.append(row)
    # each interval's own points: its coordinates but a glued low end, which
    # is an older point, and in a corrupted build a glue target its row lacks
    own = [row[1:] if root else list(row) for row, root in zip(rows, state._glued)]
    for i, c in filter(None, state._glued):
        j = bisect_left(own[i], c)
        if own[i][j:j + 1] != [c]:
            own[i].insert(j, c)
    offsets = list(accumulate(map(len, own), initial=0))

    def point_id(i: int, c) -> int:
        return offsets[i] + bisect_left(own[i], c)

    ids = []
    for i, (row, root) in enumerate(zip(rows, state._glued)):
        start = offsets[i] - bool(root)  # row[0]'s id when the row holds every point of its interval
        if offsets[i + 1] - start == len(row):
            here = list(range(start, start + len(row)))
        else:  # a glue target the row lacks sits among them
            here = [point_id(i, c) for c in row]
        if root:
            here[0] = point_id(*root)
        ids.append(here)
    return rows, pos, ids, [(i, c) for i, cs in enumerate(own) for c in cs]


def orient_segments(state: LabeledTree) -> BuildLayout:
    """Cut the intervals at junctions and direct every arc.

    The junctions are label coordinates: each interval's ends, its integer
    unit boundaries and the points later intervals glue onto.  Each unit
    takes its direction from its first plain label: the arc runs toward the
    side where the label's lower tag is behind it.  Every other plain label
    of the unit must agree; disagreement or an arc in a unit without plain
    labels is a construction error.  Each junction is interned as a node as
    the rows are walked in point order (_point_rows), and displayed as the
    point it is; each arc as (interval, start coordinate).
    """
    directions: dict = {}
    for lab, (i, c) in state.nu.items():
        if lab[1] == PLAIN:
            unit = math.floor(c)
            want = 1 if state.nu[lab[0], MINUS][1] < c else -1
            if directions.setdefault((i, unit), want) != want:
                raise BuildError(
                    f"direction of unit {unit} in interval {i} disagrees at "
                    f"{state.format_label(lab)}"
                )

    rows, pos, ids, points = _point_rows(state)
    targets = {here[0] for here in ids[1:]}  # every interval past the base's is glued at its low end
    tree = OrderTree()
    node_of: dict = {}  # point id -> node
    place = []  # interval -> row index -> ("node", node) or ("arc", arc, t)
    for i, row in enumerate(rows):
        here: list = []
        start, inside = None, []
        for j, c in enumerate(row):
            k = ids[i][j]
            if 0 < j < len(row) - 1 and c.denominator != 1 and k not in targets:
                inside.append(j)
                here.append(None)
                continue
            if k not in node_of:
                node_of[k] = tree.add_node(points[k])
            node = node_of[k]
            here.append(("node", node))
            if start is not None:
                b1, r1 = start
                direction = directions.get((i, math.floor(b1)))
                if direction is None:
                    raise BuildError(f"unit {math.floor(b1)} of interval {i} has no interior label")
                aid = tree.add_arc((i, b1), *((r1, node) if direction == 1 else (node, r1)))
                for m in inside:
                    here[m] = ("arc", aid, (row[m] - b1 if direction == 1 else c - row[m]) / (c - b1))
            start, inside = (c, node), []
        place.append(here)

    degree = Counter(n for arc in tree.arcs.values() for n in (arc.tail, arc.head))
    tree.boundary = {n for n in tree.nodes if degree[n] == 1}
    label_point = {lab: place[i][j] for lab in sorted(state.nu, key=state.label_key) for i, j in [pos[lab]]}
    return BuildLayout(tree, label_point)


# -- structural verification ------------------------------------------------


def _point_table(state: LabeledTree) -> tuple:
    """(points, spans, at, label_id): ``points`` lists the resolved points
    in sorted order, so a point's id is its place there (_point_rows);
    ``spans`` holds each pair of consecutive label coordinates of an
    interval, glue ends included, as (interval, c1, c2, id1, id2); ``at``
    holds the labels at each id in label order, and ``label_id`` the id of
    each label's point."""
    rows, pos, ids, points = _point_rows(state)
    spans = [(i, row[j], row[j + 1], ids[i][j], ids[i][j + 1]) for i, row in enumerate(rows) for j in range(len(row) - 1)]
    label_id = {lab: ids[i][j] for lab, (i, j) in pos.items()}
    at: list = [[] for _ in points]
    for lab in sorted(state.nu, key=state.label_key):
        at[label_id[lab]].append(lab)
    return points, spans, at, label_id


def _path_points(index: TreeIndex, start, end) -> list:
    """The points from start to end, climbing the deeper side's parents."""
    ups, downs = [start], [end]
    while ups[-1] != downs[-1]:
        side = ups if index.depth[ups[-1]] >= index.depth[downs[-1]] else downs
        if index.parent[side[-1]] is None:
            raise BuildError("points are not connected")
        side.append(index.parent[side[-1]])
    return ups + downs[-2::-1]


def verify_stage_properties(state: LabeledTree) -> dict:
    """Exact structural checks of the current build.

    * tree: the glued intervals form a single tree.
    * gaps: every unlabelled complement component lies between an element
      and one of its own tags.
    * paths: for built a, b the path [nu(a), nu(b)] reads out the doubled
      B(a, b) in travel order (doubled_members, read off the base order):
      the members' points come block by block in route order; any extra
      label must be a tag touching a label of the doubled B(a, b).
    * identity: labels share a point exactly when they touch.  Touching
      labels laid apart are sought in the path check's pair loop: across built
      a, b with B(a, b) = {a, b}, the two inner tags touch.

    All four read one table of the points interned to ints (_point_table).
    """
    p = state.poset
    points, spans, at, label_id = _point_table(state)
    index = TreeIndex(range(len(points)), [(k1, k2) for *_coords, k1, k2 in spans])
    problems = []
    if len(spans) != len(points) - 1:
        problems.append(f"{len(points)} points but {len(spans)} spans")
    if index.components > 1:
        problems.append("glued intervals are not connected")
    tree_report = {"ok": not problems, "points": len(points), "problems": problems}

    gap_violations = []
    for i, c1, c2, k1, k2 in spans:
        if not _gap_is_tag_pair(at[k1], at[k2]):
            gap_violations.append({"interval": i, "gap": (c1, c2), "left": [state.format_label(l) for l in at[k1]],
                                   "right": [state.format_label(l) for l in at[k2]]})
    gap_report = {
        "ok": not gap_violations,
        "gaps": len(spans),
        "violations": gap_violations,
        "undetermined": [],
    }

    path_violations = []
    apart = []  # touching tags laid apart, by label keys

    def flag(problem: str, labs: Iterable) -> None:  # against the pair (a, b) in hand
        path_violations.append({"pair": (state.fmt(a), state.fmt(b)), "problem": problem,
                                "labels": [state.format_label(m) for m in labs]})

    for a, b in combinations(sorted(state.built, key=p.index), 2):
        ends = ((a, PLAIN), (b, PLAIN))
        expected = doubled_members(p, p.between_members(a, b))
        missing = [m for m in expected if m not in state.nu]
        if missing:
            flag("between set not fully built", missing)
            continue
        if len(expected) == 4:  # B(a, b) = {a, b}: the inner tags touch (r_equivalent)
            u, v = expected[1:3]
            if label_id[u] != label_id[v]:
                apart.append((state.label_key(u), state.label_key(v), u, v))
        try:
            route = _path_points(index, label_id[ends[0]], label_id[ends[1]])
        except BuildError as exc:
            flag(str(exc), ends)
            continue
        # the route reads B(a, b) in travel order exactly when every member
        # lies on it and the members' points come in route order, block by
        # block; any further label on the route is an extra
        step = {k: t for t, k in enumerate(route)}
        blocks = [step.get(label_id[m], -1) for m in expected]
        in_order = blocks[0] >= 0 and blocks == sorted(blocks)
        extras = []
        if not in_order or sum(map(len, map(at.__getitem__, route))) > len(expected):
            order = {m: j for j, m in enumerate(expected)}
            if not in_order:
                flag("path labels out of order",
                     [m for k in route for m in sorted((lab for lab in at[k] if lab in order), key=order.get)])
            extras = [lab for k in route for lab in at[k] if lab not in order]
        for c in extras:
            if c[1] == PLAIN:
                flag("stray plain label on path", [c])
            elif not any(r_equivalent(p, c, d) for d in expected):
                flag("extra label without touching partner", [c])
    n = len(state.built)
    path_report = {"ok": not path_violations, "pairs": n * (n - 1) // 2,
                   "violations": path_violations}

    id_violations = []
    for k, labs in enumerate(at):
        for u, v in combinations(labs, 2):
            if not r_equivalent(p, u, v):
                id_violations.append({
                    "labels": (state.format_label(u), state.format_label(v)),
                    "point": points[k],
                })
    for *_keys, u, v in sorted(apart):  # in label order, as pairs of sorted tags
        id_violations.append(
            {"labels": (state.format_label(u), state.format_label(v)),
             "problem": "touching labels laid apart"}
        )
    identity_report = {
        "ok": not id_violations,
        "violations": id_violations,
        "undetermined": [],
    }

    ok = all((tree_report["ok"], gap_report["ok"], path_report["ok"],
              identity_report["ok"]))
    return {
        "ok": ok,
        "tree": tree_report,
        "gaps": gap_report,
        "paths": path_report,
        "identity": identity_report,
    }


def _gap_is_tag_pair(left: list, right: list) -> bool:
    """Whether one side holds a plain label and the other a tag of its element."""
    return any(a[1] == PLAIN and any(b[0] == a[0] and b[1] != PLAIN for b in there)
               for here, there in ((left, right), (right, left)) for a in here)


# name -> the sibling that defines it, for the benchmark tracer's target only
_HOME = {"act_on_labels": "actions"}
__getattr__ = lazy_names(__name__, _HOME)
