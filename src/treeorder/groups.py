"""Group models: word arithmetic, canonical balls, and order machinery.

Each model exposes the same small surface: ``identity``, ``mult``, ``inv``,
``ball(r)`` (a deterministic enumeration of the word-metric ball, sorted by
length and then by a fixed tie-break), ``format`` for reports, and
``components`` for the little predicate language used by cone documents.
For cone-axiom sweeps every model also has ``bounded_products``, which
batches the products of two ball subsets that stay inside the ball and says
whether a batch leaves a member set.
Z and Z^k also give ``quotient_keys``: int keys that add as the elements do,
so quotient scans read the side of g^-1 h under key(h) - key(g); the other
models have none, and their scans classify every pair.

The free group additionally knows how to sign a word through its lower
central series: embed each generator g_i as 1 + X_i in the ring of formal
power series in non-commuting variables, expand the word, and read the sign
of the first nonzero coefficient in degree-then-lexicographic monomial
order.  The expansion is truncated adaptively; degree 1 (exponent sums)
settles almost every word, and commutator words deepen only as far as the
first surviving coefficient.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from typing import Iterator

from .errors import GroupError


_LETTERS = "abcdghijkmnpqruvwxyz"
# the free group's series order gives up on a word whose sign this degree leaves open
SERIES_MAX_DEGREE = 8


class GroupModel:
    """Sweep default: a plain double loop."""

    def bounded_products(self, xs: list, ys: list, r: int, members: set, ball: list) -> Iterator[tuple]:
        """Batches (g, hs, checked, escaped) for sublists xs and ys of ball,
        which is ball(r), in its order: hs are the h in ys, in order, whose
        product g*h may lie in ball(r), checked counts those g*h that do, and
        escaped says whether one of them lies outside members."""
        inball = set(ball)
        for g in xs:
            zs = [z for z in (self.mult(g, h) for h in ys) if z in inball]
            yield g, ys, len(zs), not members.issuperset(zs)

    def quotient_keys(self, ws: list, r: int) -> list | None:
        """Int keys of ws that add as the elements do and tell apart every
        g1^-1 g2 h with g1, g2 in ball(r) and h in ball(2r); None here."""
        return None


def _mask(codes: list) -> int:
    buf = bytearray(max(codes, default=0) // 8 + 1)
    for c in codes:
        buf[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(buf, "little")


class _Additive(GroupModel):
    """Z and Z^k: ``_codes(ws, r, s)`` keys ws by ints that add as the
    elements do, each coordinate raised by s (Z^k reads v as
    sum((v[i] + s) * B**i), B = 4r + 1).  They tell apart coordinates of
    [-2r, 2r], which products of two ball(r) elements have; quotient scans,
    whose g1^-1 g2 h have coordinates of [-4r, 4r], key at 2r."""

    def quotient_keys(self, ws: list, r: int) -> list:
        return self._codes(ws, 2 * r)

    def bounded_products(self, xs: list, ys: list, r: int, members: set, ball: list) -> Iterator[tuple]:
        # a product's code at shift 2r is the sum of its factors' codes at
        # shift r, so the products of g are the mask of ys shifted by g's code
        ymask = _mask(self._codes(ys, r, r))
        inball = _mask(self._codes(ball, r, 2 * r))
        outside = inball & ~_mask(self._codes(members, r, 2 * r))
        for g, shift in zip(xs, self._codes(xs, r, r)):
            products = ymask << shift
            yield g, ys, (products & inball).bit_count(), bool(products & outside)


class Z(_Additive):
    """The integers with generator 1."""

    name = "z"

    identity = 0

    def mult(self, a: int, b: int) -> int:
        return a + b

    def inv(self, a: int) -> int:
        return -a

    def ball(self, r: int) -> list:
        return sorted(range(-r, r + 1), key=lambda n: (abs(n), n))

    def format(self, a: int) -> str:
        return str(a)

    def components(self, a: int) -> tuple:
        return (a,)

    def _codes(self, ws, r: int, shift: int = 0) -> list:
        return [w + shift for w in ws]


class Zk(_Additive):
    """Free abelian group of rank k, word metric from the standard basis."""

    def __init__(self, k: int):
        if k < 1:
            raise GroupError("rank must be positive")
        self.k = k
        self.name = f"z{k}"
        self.identity = (0,) * k

    def mult(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a: tuple) -> tuple:
        return tuple(-x for x in a)

    def ball(self, r: int) -> list:
        out = [((), r)]  # prefixes, each with the budget its coordinates leave
        for _ in range(self.k):
            out = [(v + (x,), left - abs(x)) for v, left in out for x in range(-left, left + 1)]
        return sorted((v for v, _ in out), key=lambda v: (sum(abs(x) for x in v), v))

    def format(self, a: tuple) -> str:
        return "(" + ",".join(str(x) for x in a) + ")"

    def components(self, a: tuple) -> tuple:
        return a

    def _codes(self, ws, r: int, shift: int = 0) -> list:
        base = 4 * r + 1
        out = []
        for v in ws:
            code = 0
            for x in reversed(v):
                code = code * base + x + shift
            out.append(code)
        return out


class FreeGroup(GroupModel):
    """Free group of rank k; elements are reduced words of nonzero letters.

    Letter i in 1..k is the i-th generator, -i its inverse.
    """

    def __init__(self, k: int = 2):
        if not 1 <= k <= len(_LETTERS):
            raise GroupError("unsupported rank")
        self.k = k
        self.name = f"free{k}"
        self.identity: tuple = ()
        self._sign_cache: dict = {}
        # letters in ball order, each with its digit in sweep codes
        self._digits = {x: n for n, x in enumerate((x for i in range(1, k + 1) for x in (i, -i)), 1)}

    def mult(self, a: tuple, b: tuple) -> tuple:
        i = len(a)
        j = 0
        while i > 0 and j < len(b) and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inv(self, a: tuple) -> tuple:
        return tuple(-x for x in reversed(a))

    def ball(self, r: int) -> list:
        out: list = [()]
        for w in out:  # breadth first: the loop reaches the words it appends
            if len(w) < r:
                out.extend([w + (x,) for x in self._digits if not w or w[-1] != -x])
        return out

    def format(self, a: tuple) -> str:
        return "".join(_LETTERS[x - 1] if x > 0 else _LETTERS[-x - 1].upper() for x in a) or "e"

    def components(self, a: tuple) -> tuple:
        raise GroupError("free-group elements have no coordinate components")

    # -- series sign --------------------------------------------------

    def _series(self, w: tuple, deg: int) -> dict:
        # fold the word into a truncated series over non-commuting variables
        poly = {(): 1}
        for x in w:
            v = abs(x) - 1
            if x > 0:
                factor = {(): 1, (v,): 1}
            else:
                factor = {(v,) * d: (-1) ** d for d in range(deg + 1)}
            out: dict = {}
            for ma, ca in poly.items():
                for mb, cb in factor.items():
                    if len(ma) + len(mb) > deg:
                        continue
                    out[ma + mb] = out.get(ma + mb, 0) + ca * cb
            poly = {m: c for m, c in out.items() if c}
        return poly

    def order_sign(self, w: tuple) -> int:
        """Sign of w in the series order: +1, -1, or 0 for the identity."""
        if not w:
            return 0
        cached = self._sign_cache.get(w)
        if cached is not None:
            return cached
        sums = [0] * self.k
        for x in w:
            sums[abs(x) - 1] += 1 if x > 0 else -1
        sign = next((1 if s > 0 else -1 for s in sums if s), 0)
        deg = 2
        while not sign:
            if deg > SERIES_MAX_DEGREE:
                raise GroupError(f"series sign undecided to degree {SERIES_MAX_DEGREE} for {self.format(w)}")
            poly = self._series(w, deg)
            lead = min((m for m in poly if m), key=lambda m: (len(m), m), default=None)
            sign = 0 if lead is None else 1 if poly[lead] > 0 else -1
            deg += 1
        self._sign_cache[w] = sign
        return sign

    def bounded_products(self, xs: list, ys: list, r: int, members: set, ball: list) -> Iterator[tuple]:
        """Batches, one per left factor g and right factor length b, of every
        h in ys whose product with g lies in ball(r).

        Words are keyed by bijective base-(2k + 1) codes whose digits follow
        ball()'s letter order, so codes sort as ball() does and code(u t) =
        code(u) B^|t| + code(t).  The length-b words that start with the
        prefix p the budget forces to cancel are the interval [code(p) B^L,
        (code(p) + 1) B^L), L = b - |p|; their products are their codes plus
        (code(head) - code(p)) B^L, head being g without its last |p|
        letters, except on the sub-interval that cancels one letter deeper.
        """
        base, digits = 2 * self.k + 1, self._digits
        pw = [base ** n for n in range(r + 1)]

        def code(w: tuple) -> int:
            out = 0
            for x in w:
                out = out * base + digits[x]
            return out

        keys = set(map(code, members))
        rows = [(b, hs, list(map(code, hs))) for b, hs in ((b, list(run)) for b, run in groupby(ys, len))]
        # per left length a: each row b with the c letters that must cancel
        plans = [[(b, hs, codes, max(0, (a + b - r + 1) // 2), min(a, b)) for b, hs, codes in rows
                  if (a + b - r + 1) // 2 <= min(a, b)] for a in range(r + 1)]
        for g in xs:
            a, gc, ic = len(g), code(g), code(self.inv(g))
            for b, hs, codes, c, most in plans[a]:
                p = ic // pw[a - c]  # the prefix they force on h
                lo = start = bisect_left(codes, p * pw[b - c])
                hi = stop = bisect_left(codes, (p + 1) * pw[b - c], lo)
                while start < stop:
                    delta = (gc // pw[c] - p) * pw[b - c]
                    mid = end = stop
                    if c < most:  # the words whose next letter cancels too
                        p = ic // pw[a - c - 1]
                        mid = bisect_left(codes, p * pw[b - c - 1], start, stop)
                        end = bisect_left(codes, (p + 1) * pw[b - c - 1], mid, stop)
                    if not keys.issuperset(map(delta.__add__, codes[start:mid] + codes[end:stop])):
                        break  # escaped: start < stop is left standing
                    start, stop, c = mid, end, c + 1
                if lo < hi:
                    yield g, hs[lo:hi], hi - lo, start < stop


class InfiniteDihedral(GroupModel):
    """The infinite dihedral group: pairs (n, eps) standing for t^n s^eps.

    t is the translation, s the involution with s t s = t^-1; the word
    length over {t, s} is |n| + eps.
    """

    name = "dihedral"

    identity = (0, 0)

    def mult(self, a: tuple, b: tuple) -> tuple:
        n, alpha = a
        m, beta = b
        return (n + m if alpha == 0 else n - m, alpha ^ beta)

    def inv(self, a: tuple) -> tuple:
        n, alpha = a
        return (-n, 0) if alpha == 0 else a

    def ball(self, r: int) -> list:
        out = [(n, 0) for n in range(-r, r + 1)]
        out.extend((n, 1) for n in range(-(r - 1), r))
        return sorted(out, key=lambda a: (abs(a[0]) + a[1], a[0], a[1]))

    def format(self, a: tuple) -> str:
        n, alpha = a
        parts = []
        if n:
            parts.append(f"t^{n}" if n != 1 else "t")
        if alpha:
            parts.append("s")
        return "*".join(parts) if parts else "e"

    def components(self, a: tuple) -> tuple:
        return a


class TableGroup(GroupModel):
    """A finite group given by an explicit multiplication table.

    Every ball is the whole group, so radius arguments are ignored; the
    table is validated for closure, identity, inverses, and associativity.
    """

    def __init__(self, elements: list, products: list, identity):
        self.elements = list(elements)
        self._idx = {e: i for i, e in enumerate(self.elements)}
        if len(self._idx) != len(self.elements):
            raise GroupError("duplicate table elements")
        if identity not in self._idx:
            raise GroupError("identity missing from the table elements")
        self.identity = identity
        n = len(self.elements)
        if len(products) != n or any(len(row) != n for row in products):
            raise GroupError("product table must be square over the elements")
        self._table = {}
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                c = products[i][j]
                if c not in self._idx:
                    raise GroupError(f"product {a!r}*{b!r} = {c!r} escapes the table")
                self._table[(a, b)] = c
        for a in self.elements:
            if self._table[(self.identity, a)] != a or self._table[(a, self.identity)] != a:
                raise GroupError(f"identity law fails at {a!r}")
            if not any(self._table[(a, b)] == self.identity for b in self.elements):
                raise GroupError(f"{a!r} has no inverse")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self._table[(self._table[(a, b)], c)] != self._table[(a, self._table[(b, c)])]:
                        raise GroupError(f"associativity fails at {a!r}, {b!r}, {c!r}")

    def mult(self, a, b):
        try:
            return self._table[(a, b)]
        except KeyError:
            raise GroupError(f"{a!r} or {b!r} is not a table element") from None

    def inv(self, a):
        for b in self.elements:
            if self._table[(a, b)] == self.identity:
                return b
        raise GroupError(f"{a!r} is not a table element")

    def ball(self, r: int) -> list:
        return list(self.elements)

    def format(self, a) -> str:
        return str(a)

    def components(self, a) -> tuple:
        return (self._idx[a],)


def make_group(family: str, k: int | None = None):
    """A group model by family name; a rank k is read only by "zk" and "free",
    which take 2 when it is missing."""
    if family == "zk":
        return Zk(2 if k is None else k)
    if family == "free":
        return FreeGroup(2 if k is None else k)
    if family not in ("z", "dihedral"):
        raise GroupError(f"unknown group family {family!r}")
    if k is not None:
        raise GroupError(f"group family {family!r} takes no rank k")
    return Z() if family == "z" else InfiniteDihedral()
