"""Group models: word arithmetic, canonical balls, and order machinery.

Each model exposes the same small surface: ``identity``, ``mult``, ``inv``,
``ball(r)`` (a deterministic enumeration of the word-metric ball, sorted by
length and then by a fixed tie-break), ``format`` for reports, and
``components`` for the little predicate language used by cone documents.
Cone-axiom sweeps keep sets over the ball as byte maps by position.  Each
model gives ``inverse_positions`` (one dict over the ball; the free group
reads ranks and forms no inverse) and ``bounded_products``, which counts
the in-ball products of two sets and names the batches with one outside a
third: a plain double loop by default, shifted int masks on Z and Z^k, and
on the free group rank blocks of the ball's breadth-first order.
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

from itertools import compress, repeat
from operator import neg

from .errors import GroupError


_LETTERS = "abcdghijkmnpqruvwxyz"
# the free group's series order gives up on a word whose sign this degree leaves open
SERIES_MAX_DEGREE = 8


class GroupModel:
    """Sweep default: a plain double loop."""

    def inverse_positions(self, ball: list, r: int) -> list:
        """Each element's inverse's position in ball, which is ball(r); len(ball) where it lies outside."""
        index = dict(zip(ball, range(len(ball))))
        return list(map(index.get, map(self.inv, ball), repeat(len(ball))))

    def bounded_products(self, xmap: bytes, ymap: bytes, r: int, zmap: bytes, ball: list, inv) -> tuple:
        """(checked, batches) for byte maps of xs, ys and z over ball, which
        is ball(r), with inverse positions inv: checked counts the products
        g*h, g in xs and h in ys, that lie in ball(r), and batches gives (g,
        hs) in ball order for each g with such a product outside z (the free
        group: lazily); hs are the h in ys, in order, whose product with g
        may lie in ball(r)."""
        ys, inball, members = list(compress(ball, ymap)), set(ball), set(compress(ball, zmap))
        checked, batches = 0, []
        for g in compress(ball, xmap):
            zs = [z for z in (self.mult(g, h) for h in ys) if z in inball]
            checked += len(zs)
            if not members.issuperset(zs):
                batches.append((g, ys))
        return checked, batches

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

    def bounded_products(self, xmap: bytes, ymap: bytes, r: int, zmap: bytes, ball: list, inv) -> tuple:
        # a product's code at shift 2r is the sum of its factors' codes at
        # shift r, so the products of g are the mask of ys shifted by g's code
        xs, ys, checked, batches = list(compress(ball, xmap)), list(compress(ball, ymap)), 0, []
        ymask = _mask(self._codes(ys, r, r))
        inball = _mask(self._codes(ball, r, 2 * r))
        outside = inball & ~_mask(self._codes(compress(ball, zmap), r, 2 * r))
        for g, shift in zip(xs, self._codes(xs, r, r)):
            products = ymask << shift
            checked += (products & inball).bit_count()
            if products & outside:
                batches.append((g, ys))
        return checked, batches


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
        self._letters = tuple(x for i in range(1, k + 1) for x in (i, -i))  # in ball order: a, A, b, B, ...

    def mult(self, a: tuple, b: tuple) -> tuple:
        i = len(a)
        j = 0
        while i > 0 and j < len(b) and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inv(self, a: tuple) -> tuple:
        return tuple(map(neg, reversed(a)))

    def ball(self, r: int) -> list:
        out: list = [()] * (r >= 0)
        for w in out:  # breadth first: the loop reaches the words it appends
            if len(w) < r:
                out.extend([w + (x,) for x in self._letters if not w or w[-1] != -x])
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
        for i in range(1, self.k + 1):  # exponent sums: degree 1
            s = w.count(i) - w.count(-i)
            if s:
                return 1 if s > 0 else -1
        sign = self._sign_cache.get(w)  # only the words the series signs are kept
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

    def inverse_positions(self, ball: list, r: int):
        from .freesweep import inverse_positions  # from word ranks, as an array: no inverse is formed
        return inverse_positions(self.k, r)

    def bounded_products(self, xmap: bytes, ymap: bytes, r: int, zmap: bytes, ball: list, inv) -> tuple:
        """(checked, batches) as for every model, one batch per g and length b of h,
        from rank blocks of the ball (``freesweep``, loaded on the first free sweep)."""
        from .freesweep import bounded_products

        return bounded_products(self.k, xmap, ymap, r, zmap, ball, inv)


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

    A ball of radius r >= 0 is the whole group, of r < 0 empty; the
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
        return list(self.elements) if r >= 0 else []

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
