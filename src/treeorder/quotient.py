"""Subgroups, complete convexity, and the quotient order on cosets.

The cold half of ``grouporder`` and home of the builtin subgroups, so a
tree job or a cone check never compiles this code and a quotient job
compiles no ``suites``.  ``grouporder`` and ``catalog`` serve the
benchmark tracer's targets among these names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .errors import CatalogError, ConeError
from .relations import EQ, GT, LT, REL_NAMES, SIML, SIMU, between_by_codes

if TYPE_CHECKING:
    from .grouporder import ConeStructure
    from .poset import ExtendedPoset


class SubgroupSpec:
    """A named membership predicate over group elements."""

    def __init__(self, name: str, member: Callable):
        self.name = name
        self.member = member

    def __call__(self, w) -> bool:
        return bool(self.member(w))


def _subgroup(name: str, shape: str, fits: Callable, member: Callable) -> SubgroupSpec:
    """A subgroup of one group model; elements of another shape are refused."""

    def test(w) -> bool:
        if not fits(w):
            raise CatalogError(f"subgroup {name} applies to {shape}, not to {w!r}")
        return member(w)

    return SubgroupSpec(name, test)


def second_factor_subgroup() -> SubgroupSpec:
    return _subgroup("second-factor", "integer vectors of length 2 or more",
                     lambda v: isinstance(v, tuple) and len(v) >= 2, lambda v: v[0] == 0)


def even_subgroup() -> SubgroupSpec:
    return _subgroup("even", "integers", lambda n: isinstance(n, int), lambda n: n % 2 == 0)


SUBGROUPS: dict = {
    "second-factor": second_factor_subgroup,
    "even": even_subgroup,
}


def get_subgroup(name: str) -> SubgroupSpec:
    from .catalog import _lookup

    return _lookup(SUBGROUPS, "subgroup", name)()


def _quotient_sides(cone: ConeStructure, ws: list, radius: int) -> tuple:
    """(keys, get, read) for a scan over ws: the code of g against h*k is
    ``get(q) or read(g, h, q, k)`` with q = key(h) + key(k) - key(g).  On a
    key's first sight ``read`` classifies the real elements and stores the
    code, so each distinct quotient meets ``side`` once, in scan order (EQ
    is 0 and is read again).  Models without additive keys get zero keys
    and a ``read`` that stores nothing: every pair calls ``classify``."""
    keys = cone.group.quotient_keys(ws, radius)
    sides: dict = {}

    def read(g, h, q, k=None):
        code = cone.classify(g, h if k is None else cone.group.mult(h, k))
        if keys is not None:
            sides[q] = code
        return code

    return keys or [0] * len(ws), sides.get, read


class ConvexityReport(NamedTuple):
    pairs_checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def check_completely_convex(cone: ConeStructure, sub: SubgroupSpec, radius: int) -> ConvexityReport:
    """Between sets of subgroup pairs must stay inside the subgroup.

    Between membership is a three-point test, so candidates are scanned
    directly over ball(2 * radius) without building the big poset.  On Z
    and Z^k each pair's sides are read by quotient key, so only the first
    pair to form a quotient classifies it.
    """
    group = cone.group
    ball = group.ball(radius)
    H = [h for h in ball if sub(h)]
    if group.identity not in H:
        raise ConeError(f"subgroup {sub.name} misses the identity")
    for h in H:
        if not sub(group.inv(h)):
            raise ConeError(f"subgroup {sub.name} not inverse-closed at {group.format(h)}")
        for k in H:
            if not sub(group.mult(h, k)):
                raise ConeError(f"subgroup {sub.name} not product-closed at {group.format(h)}, {group.format(k)}")
    outside = [c for c in group.ball(2 * radius) if not sub(c)]
    keys, side, read = _quotient_sides(cone, H + outside, radius)
    kout = keys[len(H):]
    # the (rab, rbc) code pairs that put b between a and c, by the code rac
    between = {rac: {(x, y) for x in REL_NAMES for y in REL_NAMES if between_by_codes(rac, x, y)}
               for rac in (LT, GT, SIMU, SIML)}
    violations = []
    for i, h1 in enumerate(H):
        k1 = keys[i]
        for h2, k2 in zip(H[i + 1:], keys[i + 1:]):
            inside = between[side(k2 - k1) or read(h1, h2, k2 - k1)]
            for c, kc in zip(outside, kout):
                if (side(kc - k1) or read(h1, c, kc - k1), side(k2 - kc) or read(c, h2, k2 - kc)) in inside:
                    violations.append({"pair": (h1, h2), "witness": c})
                    break
    return ConvexityReport(pairs_checked=len(H) * (len(H) - 1) // 2, violations=violations)


class QuotientResult(NamedTuple):
    representatives: list
    poset: ExtendedPoset
    uniqueness: list
    property_counts: dict
    convexity: ConvexityReport

    @property
    def ok(self) -> bool:
        return not self.uniqueness and self.convexity.ok


def _law_counts(poset: ExtendedPoset) -> dict:
    """How many ordered triples (a, b, c) meet the hypothesis of each law the
    poset's construction enforces, counted per middle element b:
    a < b < c (1), a ~u b ~l c (2), a ~u b > c (3) and a ~l b < c (4)."""
    up, down, simu, siml = poset.rows
    sides = {1: (down, up), 2: (simu, siml), 3: (simu, down), 4: (siml, up)}
    return {law: sum(x.bit_count() * y.bit_count() for x, y in zip(xs, ys)) for law, (xs, ys) in sides.items()}


def quotient_order(cone: ConeStructure, sub: SubgroupSpec, radius: int,
                   convexity: Optional[ConvexityReport] = None) -> QuotientResult:
    """Order the cosets of a normal, completely convex subgroup.

    A coset relation is witnessed existentially: g1 H < g2 H when some h in H
    puts g1 below g2 h, and likewise for the similarity tags.  h ranges over
    H inside ball(2 * radius); the identity always witnesses something, so
    every pair gets a relation, and finding two distinct relations for one
    pair is reported as a uniqueness violation.  The poset built from these
    relations enforces transitivity, a ~u b ~l c => a < c, a ~u b > c =>
    a ~u c and a ~l b < c => a ~l c; ``property_counts`` says how many
    triples each law covered.  ``convexity`` is the complete-convexity
    report at this radius, when the caller already has it.  On Z and Z^k
    the coset scans read the side of g1^-1 g2 h under key(g2) + key(h) -
    key(g1), and form g2 h only for a quotient not seen before.
    """
    group = cone.group
    ball = group.ball(radius)
    H = [h for h in ball if sub(h)]
    for g in ball:
        for h in H:
            if not sub(group.mult(group.mult(g, h), group.inv(g))):
                raise ConeError(f"subgroup {sub.name} is not normal: conjugate of {group.format(h)} by {group.format(g)} escapes")
    if convexity is None:
        convexity = check_completely_convex(cone, sub, radius)
    if not convexity.ok:
        w = convexity.violations[0]
        raise ConeError(
            f"subgroup {sub.name} is not completely convex: {group.format(w['witness'])} lies between "
            f"{group.format(w['pair'][0])} and {group.format(w['pair'][1])}"
        )

    reps: list = []
    coset_of: dict = {}
    for g in ball:
        coset_of[g] = next((rep for rep in reps if sub(group.mult(group.inv(rep), g))), g)
        if coset_of[g] == g:
            reps.append(g)

    H_search = [h for h in group.ball(2 * radius) if sub(h)]
    keys, side, read = _quotient_sides(cone, ball + H_search, radius)
    key = dict(zip(ball, keys))
    searched = list(zip(H_search, keys[len(ball):]))

    def witnessed(g1, g2) -> dict:
        """Each relation some h in H_search puts between g1 and g2 h, with its first such h."""
        found: dict = {}
        k = key[g2] - key[g1]
        for h, kh in searched:
            code = side(k + kh) or read(g1, g2, k + kh, h)
            if code != EQ and code not in found:
                found[code] = h
        return found

    rel: dict = {}
    uniqueness: list = []
    for g1 in reps:
        for g2 in reps:
            if g1 == g2:
                continue
            found = witnessed(g1, g2)
            if len(found) > 1:
                uniqueness.append({"pair": (g1, g2), "relations": {REL_NAMES[c]: h for c, h in found.items()}})
            rel[(g1, g2)] = next(iter(found))
    # representative independence: any in-ball member of the coset sees the same relations
    for g in ball:
        rep = coset_of[g]
        if g == rep:
            continue
        for other in reps:
            if other == rep:
                continue
            found = witnessed(g, other)
            if rel[(rep, other)] not in found or len(found) > 1:
                uniqueness.append({"pair": (g, other), "note": "representative dependence"})

    from .poset import ExtendedPoset

    poset = ExtendedPoset.from_relation(reps, lambda a, b: rel[(a, b)])
    return QuotientResult(
        representatives=reps,
        poset=poset,
        uniqueness=uniqueness,
        property_counts=_law_counts(poset),
        convexity=convexity,
    )
