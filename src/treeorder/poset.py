"""Tagged partial orders and their between-set geometry.

A tagged poset carries, for every pair of distinct elements, exactly one of
four relations: less-than, greater-than, upward-similar, or downward-similar.
The similarity tags record how an incomparable pair sits relative to common
bounds: upward-similar pairs face each other (they admit a common upper bound,
or are formally declared to), downward-similar pairs sit back to back.  A
tagging is admissible when the comparabilities are transitive, every tag is
consistent with the bounds that actually exist, and the whole assignment is
acyclic: whenever x is upward-similar to y and downward-similar to z, z must
lie strictly above y.  The relation codes and ``between_by_codes`` come
from the leaf ``relations``, so the cone layer reads them without this module.

The central tool is the between set B(a, b): the endpoints plus every element
lying between them in the tagged sense.  Between sets are totally ordered by
travel order (x comes before y when x lies in B(a, y)) and decompose into
similarity classes, the maximal runs whose pairwise between sets are chains in
the underlying order.  Finitely many classes is what makes a pair tame enough
to lay out on a line.

The four law methods (``verify_between_theorem``, ``check_lemma_propagation``,
``verify_o_equivalence``, ``check_strongly_connected``) stay on the poset.
The between geometry they share with every poset of the same between table,
and the certificate that answers ``between_set`` for every pair at once,
live in ``corpus`` beside the law suite, which is their main caller; the
two law methods that read them import them when they run, so a tree job
compiles neither.  ``BetweenGeometry`` is served from here on first use.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

from . import lazy_names
from .errors import PosetError
from .relations import EQ, GT, LT, REL_CODES, REL_NAMES, SIML, SIMU, SWAP, between_by_codes

Element = Hashable


_BYTE_BITS = [tuple(j for j in range(8) if m >> j & 1) for m in range(256)]


def _bits(mask: int) -> Iterator[int]:
    """The indices of the bits set in ``mask``, lowest first; a mask below
    256, as every row of a poset on up to eight points, reads a table."""
    return iter(_BYTE_BITS[mask]) if 0 <= mask < 256 else _wide_bits(mask)


def _wide_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ClassLawError(PosetError):
    """Raised when a between set's similarity classes are not travel intervals."""


class BetweenChain(NamedTuple):
    """A between set listed in travel order, split into similarity classes."""

    a: Element
    b: Element
    members: tuple
    classes: tuple


class ExtendedPoset:
    """A finite tagged poset, validated eagerly on construction.

    The relation arrives as four bit rows per element: ``up[i]`` holds the j
    with i < j, ``down[i]`` the j with i > j, ``simu[i]`` and ``siml[i]`` the
    upward- and downward-similar partners.  Construction fails with
    PosetError if the rows are not total, not swap-consistent, not
    transitive, inconsistent with realized bounds, or not acyclic.  Use
    ``from_relation`` to build from a per-pair callback instead.
    """

    __slots__ = ("elements", "n", "_up", "_down", "_simu", "_siml", "_comp", "_bet", "_idx",
                 "_tested", "_orel", "_partial", "_geo", "points")

    def __init__(self, elements: Sequence[Element], up: Sequence[int], down: Sequence[int],
                 simu: Sequence[int], siml: Sequence[int]):
        self.elements: tuple = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise PosetError("duplicate elements")
        self.n = n = len(self.elements)
        self._up, self._down, self._simu, self._siml = tuple(up), tuple(down), tuple(simu), tuple(siml)
        if not len(self._up) == len(self._down) == len(self._simu) == len(self._siml) == n:
            raise PosetError(f"each of the four row lists must hold one row per element, {n} rows")
        self._comp = tuple(map(int.__or__, self._up, self._down))
        self._validate()
        self._bet: dict = {}  # B(i, j) masks keyed by i * n + j with i < j
        self._idx = None  # element -> index, on the first index()
        self._tested = self._orel = None  # chain rows, partners tested and partners related, from the first chain test
        self._partial = None  # mask of the k with comp[k] | {k} not everything, from the first chain test
        self._geo = None  # corpus.BetweenGeometry, on the first law check

    @classmethod
    def from_relation(cls, elements: Sequence[Element], rel_of: Callable[[Element, Element], int]) -> "ExtendedPoset":
        """Build from ``rel_of``, called once per ordered pair of distinct
        elements in row-major order; it returns a relation code."""
        elements = tuple(elements)
        n = len(elements)
        rows = [[0] * n for _ in range(4)]  # up, down, simu, siml: codes LT..SIML
        if len(set(elements)) == n:  # else the constructor names the repeat
            for i, a in enumerate(elements):
                for j, b in enumerate(elements):
                    if i == j:
                        continue
                    r = rel_of(a, b)
                    if r not in (LT, GT, SIMU, SIML):
                        raise PosetError(f"pair ({a!r}, {b!r}) has no admissible relation")
                    rows[r - LT][i] |= 1 << j
        return cls(elements, *rows)

    # -- validation -------------------------------------------------

    def _validate(self) -> None:
        """Raise PosetError at the first failed check: rows (in range, then total), swap, transitivity, bounds, acyclicity."""
        # each row names every partner exactly once; then down being the
        # transpose of up and simu being symmetric is the whole swap
        # condition, and siml follows
        n, elements = self.n, self.elements
        up, down, simu, siml = self._up, self._down, self._simu, self._siml
        everyone = (1 << n) - 1
        swapped = sum(map(int.bit_count, up)) == sum(map(int.bit_count, down))
        for i, comp in enumerate(self._comp):
            ui, si, li, bit = up[i], simu[i], siml[i], 1 << i
            tagged = si | li
            stray = comp & tagged | ui & down[i] | si & li | (comp | tagged) ^ (everyone & ~bit)
            if stray:
                if (comp | tagged) >> n:  # a bit at or past n, or a negative row: a stray too
                    raise PosetError(f"the rows of {elements[i]!r} name a partner outside the {n} elements")
                j = next(_bits(stray))
                raise PosetError(f"pair ({elements[i]!r}, {elements[j]!r}) has no admissible relation")
            for j in _bits(ui | si):
                if not (down[j] if ui >> j & 1 else simu[j]) & bit:
                    swapped = False
        if not swapped:
            i, j = next((i, j) for i in range(n) for j in range(n)
                        if i != j and self._code(j, i) != SWAP[self._code(i, j)])
            raise PosetError(f"pair ({elements[i]!r}, {elements[j]!r}) disagrees with its swap")
        for i in range(n):
            ui = up[i]
            for j in _bits(ui):
                stray = up[j] & ~ui
                if stray:
                    a, b, c = elements[i], elements[j], elements[next(_bits(stray))]
                    raise PosetError(f"comparabilities not transitive: {a!r} < {b!r} < {c!r} but not {a!r} < {c!r}")
        for i in range(n):
            ui, di, si = up[i], down[i], simu[i]
            for j in _bits((si | siml[i]) >> i << i):
                has_upper, has_lower = ui & up[j], di & down[j]
                if has_upper and has_lower:
                    problem = "has both kinds of common bound; the base order is not acyclic"
                elif has_upper and not si >> j & 1:
                    problem = "tagged downward-similar but shares an upper bound"
                elif has_lower and si >> j & 1:
                    problem = "tagged upward-similar but shares a lower bound"
                else:
                    continue
                raise PosetError(f"pair ({elements[i]!r}, {elements[j]!r}) {problem}")
        for i in range(n):
            si, li = simu[i], siml[i]
            if not (si and li):
                continue
            for j in _bits(si):
                bad = li & ~up[j]
                if bad:
                    k = next(_bits(bad))
                    a, b, c = elements[i], elements[j], elements[k]
                    raise PosetError(
                        f"tagging not acyclic: {a!r} ~u {b!r} and {a!r} ~l {c!r} require {c!r} > {b!r}, got "
                        f"{REL_NAMES[self._code(k, j)]}"
                    )

    # -- basic queries ----------------------------------------------

    @property
    def rows(self) -> tuple:
        """The relation rows (up, down, simu, siml), as the constructor takes them."""
        return self._up, self._down, self._simu, self._siml

    def index(self, a: Element) -> int:
        if self._idx is None:
            self._idx = {e: i for i, e in enumerate(self.elements)}
        try:
            return self._idx[a]
        except KeyError:
            raise PosetError(f"{a!r} is not an element") from None

    def _code(self, i: int, j: int) -> int:
        bit = 1 << j
        if self._up[i] & bit:
            return LT
        if self._down[i] & bit:
            return GT
        if self._simu[i] & bit:
            return SIMU
        return SIML if self._siml[i] & bit else EQ

    def rel(self, a: Element, b: Element) -> int:
        return self._code(self.index(a), self.index(b))

    def classify(self, a: Element, b: Element) -> str:
        return REL_NAMES[self.rel(a, b)]

    def iter_pairs(self) -> Iterator[tuple]:
        for i in range(self.n):
            for j in range(i + 1, self.n):
                yield self.elements[i], self.elements[j]

    def is_trivial_extension(self) -> bool:
        """At least one incomparable pair, and all of them carry one tag type."""
        saw_u = any(self._simu)
        saw_l = any(self._siml)
        return (saw_u or saw_l) and not (saw_u and saw_l)

    # -- between sets -----------------------------------------------

    def is_between(self, a: Element, b: Element, c: Element) -> bool:
        """Whether b lies in B(a, c).  Endpoints count as members."""
        i, j, k = self.index(a), self.index(b), self.index(c)
        if i == k:
            raise PosetError("between set requires two distinct endpoints")
        if j == i or j == k:
            return True
        return between_by_codes(self._code(i, k), self._code(i, j), self._code(j, k))

    def _between_mask(self, i: int, j: int) -> int:
        """B(i, j) as a mask, kept in the ``_bet`` memo: each case of between_by_codes is two row ANDs."""
        if j < i:
            i, j = j, i
        key = i * self.n + j
        mask = self._bet.get(key)
        if mask is None:
            up, down, simu, siml = self._up, self._down, self._simu, self._siml
            bit = 1 << j
            if up[i] & bit:
                inner = up[i] & down[j] | simu[i] & siml[j]
            elif down[i] & bit:
                inner = down[i] & up[j] | siml[i] & simu[j]
            elif siml[i] & bit:
                inner = siml[i] & down[j] | siml[j] & down[i]
            else:
                inner = simu[i] & up[j] | simu[j] & up[i]
            mask = self._bet[key] = inner | 1 << i | bit
        return mask

    def _is_chain(self, mask: int) -> bool:
        if self._partial is None:  # only members short of a comparability can break a chain
            self._partial = sum(1 << k for k, c in enumerate(self._comp) if c | 1 << k != (1 << self.n) - 1)
        for k in _bits(mask & self._partial):
            if mask & ~(self._comp[k] | (1 << k)):
                return False
        return True

    def _related(self, i: int, within: int) -> int:
        """Mask of the j in ``within`` with B(i, j) a chain; i is related to itself."""
        if self._tested is None:
            self._tested, self._orel = [1 << k for k in range(self.n)], [1 << k for k in range(self.n)]
        for j in _bits(within & ~self._tested[i]):
            if self._is_chain(self._between_mask(i, j)):
                self._orel[i] |= 1 << j
        self._tested[i] |= within
        return self._orel[i] & within

    def o_related(self, a: Element, b: Element) -> bool:
        """Whether B(a, b) is a chain in the underlying order."""
        return bool(self._related(self.index(a), 1 << self.index(b)))

    def between_members(self, a: Element, b: Element) -> tuple:
        """Members of B(a, b) in travel order, a first and b last; raises
        PosetError where travel order is not total.  The only member reader:
        it reads no similarity classes, so it makes no chain test."""
        i, j = self.index(a), self.index(b)
        if i == j:
            raise PosetError("between set requires two distinct endpoints")
        mask = self._between_mask(i, j)
        # travel order is total exactly when each member x sees, as B(a, x)
        # within B(a, b), the prefix of the rank order that ends at x; that
        # also puts a first and b last
        seen = {k: 1 << i if k == i else self._between_mask(i, k) & mask for k in _bits(mask)}
        members = sorted(seen, key=lambda k: seen[k].bit_count())
        prefix = 0
        for x in members:
            prefix |= 1 << x
            if seen[x] != prefix:
                y = next(_bits(seen[x] ^ prefix))
                u, v = (y, x) if prefix >> y & 1 else (x, y)
                raise PosetError(
                    f"travel order on B({a!r}, {b!r}) is not total at ({self.elements[u]!r}, {self.elements[v]!r})"
                )
        return tuple(self.elements[k] for k in members)

    def between_set(self, a: Element, b: Element) -> BetweenChain:
        """``between_members`` cut into similarity classes, the maximal travel
        runs of chain-related neighbours.  Raises ClassLawError unless each
        member is chain-related to exactly its own run within B(a, b), which
        makes chain-relatedness an equivalence there."""
        listed = self.between_members(a, b)
        members = [self.index(m) for m in listed]
        mask = self._between_mask(members[0], members[-1])
        classes: list = []
        current = [members[0]]
        for k in members[1:]:
            if self._related(current[-1], mask) >> k & 1:
                current.append(k)
            else:
                classes.append(current)
                current = [k]
        classes.append(current)
        for cls in classes:
            same = sum(1 << k for k in cls)
            for x in cls:
                stray = self._related(x, mask) ^ same
                if stray:
                    y = next(_bits(stray))
                    raise ClassLawError(
                        f"similarity classes of B({a!r}, {b!r}) are not travel intervals at "
                        f"({self.elements[x]!r}, {self.elements[y]!r})"
                    )
        return BetweenChain(a, b, listed, tuple(tuple(self.elements[k] for k in cls) for cls in classes))

    # -- checks ------------------------------------------------------

    def check_strongly_connected(self) -> list:
        """Every similarity tag must be backed by a realized bound.

        Returns the list of formally tagged pairs with no matching bound;
        empty means every incomparable pair genuinely shares a bound of the
        tagged kind.
        """
        out = []
        sides = ((self._simu, self._up, "simu", "common upper bound"),
                 (self._siml, self._down, "siml", "common lower bound"))
        for i in range(self.n):
            for tags, bounds, tag, missing in sides:
                for j in _bits(tags[i]):
                    if j > i and not bounds[i] & bounds[j]:
                        out.append({"pair": (self.elements[i], self.elements[j]), "tag": tag, "missing": missing})
        return out

    def check_lemma_propagation(self) -> list:
        """Similarity tags must propagate along the order.

        Downward-similar pairs stay downward-similar when one side moves up;
        upward-similar pairs stay upward-similar when one side moves down.
        This is a consequence of admissibility, so violations mean the table
        was built wrong.
        """
        out = []
        for i in range(self.n):
            for tags, moves, rule in ((self._siml, self._up, "siml-up"), (self._simu, self._down, "simu-down")):
                keep = tags[i] | 1 << i
                for j in _bits(tags[i]):
                    bad = moves[j] & ~keep
                    if bad:
                        out.extend({"rule": rule, "x": self.elements[i], "y": self.elements[j],
                                    "z": self.elements[k], "got": REL_NAMES[self._code(i, k)]} for k in _bits(bad))
        return out

    def verify_o_equivalence(self, limit: int = 100) -> list:
        """Chain-relatedness is an equivalence on every between set: the
        ``o_equivalence`` list of ``corpus.pair_problems``.  Across unrelated regions
        transitivity genuinely fails, which is why the similarity classes
        partition between sets and nothing larger."""
        from .corpus import pair_problems

        return pair_problems(self)["o_equivalence"][:limit]

    def verify_between_theorem(self, limit: int = 100) -> list:
        """Check the four structural laws of between sets on every tuple.

        1. B(a, b) is covered by B(a, c) and B(c, b) for any c.
        2. c lies in B(a, b) exactly when B(a, b) splits as that union.
        3. When c lies in B(a, b), the two halves meet only in c.
        4. If b is between a and c, and c is between b and d, then both b and
           c are between a and d.

        Laws 1-3 read B(a, b) as B(b, a): a < b is scanned, all pairs only to list failures.
        The scan runs once per between geometry; the witnesses name this poset's elements."""
        from .corpus import _geometry

        elements = self.elements
        return [{"property": law, **{key: elements[x] for key, x in zip("abcd", at)}}
                for law, *at in _geometry(self).theorem[:limit]]

    # -- derived posets ----------------------------------------------

    def restrict(self, subset: Iterable[Element]) -> "ExtendedPoset":
        return ExtendedPoset.from_relation(tuple(subset), self.rel)

    def relations_table(self) -> dict:
        """Relation names per unordered pair, for serialization."""
        return {(a, b): REL_NAMES[self.rel(a, b)] for a, b in self.iter_pairs()}


def from_pairs(elements: Sequence[Element], pairs: Iterable[tuple]) -> ExtendedPoset:
    """Build a poset from one (a, relation, b) triple per unordered pair."""
    table: dict = {}
    for a, rel, b in pairs:
        code = REL_CODES.get(rel) if isinstance(rel, str) else rel
        if not isinstance(code, int) or code not in SWAP:
            raise PosetError(f"pair ({a!r}, {b!r}) has unknown relation {rel!r}")
        if (a, b) in table or (b, a) in table:
            raise PosetError(f"pair ({a!r}, {b!r}) given twice")
        table[(a, b)] = code
        table[(b, a)] = SWAP[code]

    def rel_of(x, y):
        try:
            return table[(x, y)]
        except KeyError:
            raise PosetError(f"pair ({x!r}, {y!r}) missing from the table") from None

    return ExtendedPoset.from_relation(elements, rel_of)


# name -> the module that defines it: the between geometry lives beside the law suite
_HOME = {"BetweenGeometry": "corpus"}
__getattr__ = lazy_names(__name__, _HOME)
