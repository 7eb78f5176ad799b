"""Left-invariant orders on groups described by cone partitions.

A cone structure splits a group into the identity, a positive cone P, its
inverse, and two self-inverse similarity cones U and L.  The induced relation
between g and h reads off which piece g^-1 h falls in: positive means g < h,
U means the pair faces a common upper bound, L a common lower bound.  Six
axioms make this a well-defined tagged order: P meets its inverse nowhere
and U, L are symmetric (1); P, L, U absorb products as P*P in P (2), L*P in
L (3), P*U in U (4), U*L in P (5); and the five pieces partition the group
(6).  Axiom sweeps restrict to a finite ball, skipping and counting the
products that escape it, with each piece a byte map by ball position.

Codes come from ``relations``; only the functions that build a tagged
poset import ``poset``, so a cone check never loads it.

The cold half lives in two siblings: ``gplus`` builds and checks the
doubled order g -> (g-, g, g+), whose labels ``treebuild`` defines, and
``quotient`` holds subgroups, complete convexity and the quotient order on
cosets; ``__getattr__`` serves the benchmark tracer's targets among them.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import eq
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from . import lazy_names
from .errors import ConeError
from .relations import EQ, GT, LT, SIML, SIMU

if TYPE_CHECKING:
    from .poset import ExtendedPoset

_VIOLATION_CAP = 25
# one translate table per row kind (up, down, simu, siml): its code byte to "1", the rest to "0"
_CODE_BITS = tuple(bytes.maketrans(bytes(range(5)), bytes(48 + (k == c) for k in range(5)))
                   for c in (LT, GT, SIMU, SIML))
_PIECE_NAMES = {EQ: "e", LT: "p", GT: "pinv", SIMU: "u", SIML: "l"}  # for partition errors
_NOT_ONE = bytes(int(x != 1) for x in range(256))  # a count of pieces to 1 where it is not one


class ConeStructure:
    """A named cone partition over a group model."""

    def __init__(self, name: str, group, in_positive: Callable, in_upper: Callable, in_lower: Callable):
        self.name = name
        self.group = group
        self.in_positive = in_positive
        self.in_upper = in_upper
        self.in_lower = in_lower
        self._side_cache: dict = {}
        # radius -> orbitorder.ConePipeline, so one command builds each artifact once
        self.pipelines: dict = {}

    def side(self, w) -> int:
        """The relation code of w's piece: EQ at the identity, LT in P, GT in
        P^-1, SIMU in U and SIML in L; raises if the pieces fail to partition
        at w."""
        got = self._side_cache.get(w)
        if got is None:  # EQ is 0
            group = self.group
            found = (w == group.identity, self.in_positive(w), self.in_positive(group.inv(w)),
                     self.in_upper(w), self.in_lower(w))
            hits = [code for code, hit in zip((EQ, LT, GT, SIMU, SIML), found) if hit]
            if len(hits) != 1:
                kind = "no piece" if not hits else "pieces " + ",".join(_PIECE_NAMES[c] for c in hits)
                raise ConeError(f"cones do not partition at {group.format(w)}: {kind}")
            got = self._side_cache[w] = hits[0]
        return got

    def classify(self, g, h) -> int:
        """Relation code between g and h under the induced order: the side of g^-1 h."""
        if g == h:
            return EQ
        code = self.side(self.group.mult(self.group.inv(g), h))
        if code == EQ:
            raise ConeError(f"distinct elements with identity quotient: {self.group.format(g)}, {self.group.format(h)}")
        return code


class ConditionResult:
    """One axiom's sweep: in-ball products checked, products skipped, the
    first witnesses (up to a cap) and how many there were in all."""

    __slots__ = ("condition", "description", "checked", "skipped", "violations", "violation_count")

    def __init__(self, condition: int, description: str):
        self.condition, self.description = condition, description
        self.checked = self.skipped = self.violation_count = 0
        self.violations: list = []

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def note(self, witness) -> None:
        self.violation_count += 1
        if len(self.violations) < _VIOLATION_CAP:
            self.violations.append(witness)


class ConeReport(NamedTuple):
    cone: str
    radius: int
    ball_size: int
    conditions: dict

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions.values())

    def to_jsonable(self, fmt: Callable) -> dict:
        conds = {}
        for idx, c in sorted(self.conditions.items()):
            conds[str(idx)] = {
                "description": c.description,
                "checked": c.checked,
                "skipped": c.skipped,
                "ok": c.ok,
                "violation_count": c.violation_count,
                "violations": [[fmt(x) for x in w] for w in c.violations],
            }
        return {"cone": self.cone, "radius": self.radius, "ball": self.ball_size, "ok": self.ok, "conditions": conds}


def verify_cone_axioms(cone: ConeStructure, radius: int) -> ConeReport:
    """Sweep all six cone axioms over ball(radius).

    Product axioms only see pairs whose factors and product all lie in the
    ball; everything else is counted as skipped, never silently ignored.
    """
    group = cone.group
    ball = group.ball(radius)
    n, in_p, in_u, in_l = len(ball), cone.in_positive, cone.in_upper, cone.in_lower
    pos, upp, low = bytearray(n), bytearray(n), bytearray(n)
    for i, w in enumerate(ball):  # the only predicate calls: one per piece and element
        pos[i], upp[i], low[i] = not not in_p(w), not not in_u(w), not not in_l(w)

    conditions = {
        1: ConditionResult(1, "P misses its inverse set; U and L are inverse-closed"),
        2: ConditionResult(2, "P*P lands in P"),
        3: ConditionResult(3, "L*P lands in L"),
        4: ConditionResult(4, "P*U lands in U"),
        5: ConditionResult(5, "U*L lands in P"),
        6: ConditionResult(6, "pieces partition the ball"),
    }

    inv = group.inverse_positions(ball, radius)  # the pieces of w^-1 are read at its position
    notes, strays = _inverse_checks(group, ball, inv, pos, upp, low)
    c1, c6 = conditions[1], conditions[6]
    c1.checked = c6.checked = n
    for i in compress(range(n), notes):  # inv(w) is formed only for a witness
        for _ in range(notes[i]):
            c1.note((ball[i], group.inv(ball[i])))
    for i in compress(range(n), strays):
        c6.note((ball[i],))

    # the model counts the in-ball products and names the batches with one
    # outside the piece; only those are rescanned, in order, for witnesses
    index = None  # ball positions, built by the first rescan; a passing sweep never needs them
    for idx, xmap, ymap, zmap in ((2, pos, pos, pos), (3, low, pos, low), (4, pos, upp, upp), (5, upp, low, pos)):
        cond = conditions[idx]
        nx, ny = xmap.count(1), ymap.count(1)
        cond.checked, batches = group.bounded_products(xmap, ymap, radius, zmap, ball, inv) if nx and ny else (0, ())
        for g, hs in batches:
            if index is None:
                index = dict(zip(ball, range(n)))
            for h in hs:
                z = group.mult(g, h)
                if z in index and not zmap[index[z]]:
                    cond.note((g, h, z))
        cond.skipped = nx * ny - cond.checked

    return ConeReport(cone=cone.name, radius=radius, ball_size=n, conditions=conditions)


def _inverse_checks(group, ball: list, inv, pos: bytes, upp: bytes, low: bytes) -> tuple:
    """Byte maps by element: the notes condition (1) takes at w, and 1 where (6) fails.  Maps read
    as ints add by element; w^-1's pieces are read at ``inv``, where len(ball) means none."""
    e, p, u, l = (int.from_bytes(bs, "big") for bs in (bytes(map(eq, ball, repeat(group.identity))), pos, upp, low))
    pi, ui, li = (int.from_bytes(bytes(map((bs + b"\0").__getitem__, inv)), "big") for bs in (pos, upp, low))
    return (((p & pi) + ((u ^ ui) | (l ^ li))).to_bytes(len(ball), "big"),  # P holds w, w^-1; U or L just one
            (e + p + pi + u + l).to_bytes(len(ball), "big").translate(_NOT_ONE))  # pieces other than one


def induced_ball_poset(cone: ConeStructure, radius: int, report: Optional[ConeReport] = None) -> ExtendedPoset:
    """The tagged poset the cone induces on ball(radius).

    The axiom sweep must pass first (``report``, when the caller already ran
    it at this radius).  The table is built one row at a time: for each g,
    g^-1 is formed once and the row's codes are the sides of g^-1 h over the
    ball, so ``side`` raises at the first quotient in row-major order where
    the cones fail to partition (somewhere in ball(2 * radius)), and a
    distinct h with g^-1 h the identity is named in the same order.  The
    codes become the four bit rows by one ``bytes.translate`` each.
    """
    from .poset import ExtendedPoset

    if report is None:
        report = verify_cone_axioms(cone, radius)
    if not report.ok:
        bad = next(idx for idx, c in sorted(report.conditions.items()) if not c.ok)
        raise ConeError(f"cone {cone.name} fails condition ({bad}) at radius {radius}")
    group = cone.group
    ball = group.ball(radius)
    n, mult, side, e = len(ball), group.mult, cone.side, group.identity
    step = max(1, n // 12)  # the left-invariance sample below
    rows: tuple = ([], [], [], [])
    kept: dict = {}  # the sampled rows' codes
    if len(set(ball)) == n:  # else the constructor names the repeat
        for i, g in enumerate(ball):
            qs = list(map(mult, repeat(group.inv(g), n), ball))
            qs[i] = e  # EQ on the diagonal (the sweep checked e), whatever the model makes of g^-1 g
            if qs.count(e) > 1:  # a broken model: g^-1 h = e for some h != g
                j = next(j for j, q in enumerate(qs) if q == e and j != i)
                bytes(map(side, qs[:j]))  # a partition failure met first raises first
                cone.classify(g, ball[j])  # raises, as the per-pair builder did
            codes = bytes(map(side, qs))
            if i % step == 0:
                kept[i] = codes
            text = codes[::-1]  # bit j of a row is ball[j]
            for row, bits in zip(rows, _CODE_BITS):
                row.append(int(text.translate(bits), 2))
    p = ExtendedPoset(ball, *rows)
    # left translation cannot change g^-1 h, but a broken group model could;
    # spot-check a deterministic sample: classify(fg, fh) against g's row,
    # with (fg)^-1 formed once per row and classify raising on e quotients
    sample = range(0, n, step)
    for f in ball[::step]:
        moved = [mult(f, ball[j]) for j in sample]
        for i, fg in zip(sample, moved):
            row, back = kept[i], group.inv(fg)
            for j, fh in zip(sample, moved):
                if (EQ if fg == fh else side(mult(back, fh)) or cone.classify(fg, fh)) != row[j]:
                    raise ConeError(f"order is not left-invariant at "
                                    f"{group.format(f)}, {group.format(ball[i])}, {group.format(ball[j])}")
    return p


# name -> the sibling that defines it, for the benchmark tracer's targets only
_HOME = dict.fromkeys(("blow_up_gplus", "check_augmented_between", "check_no_singleton_classes"), "gplus")
_HOME.update(dict.fromkeys(("check_completely_convex", "quotient_order"), "quotient"))
__getattr__ = lazy_names(__name__, _HOME)
