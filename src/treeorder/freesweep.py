"""The free group's cone-axiom sweep on rank blocks of the ball.

``FreeGroup.ball`` lists each length in lexicographic order, letters in the
order a, A, b, B, ... (digits 0 .. 2k - 1, a letter's inverse is its digit
xor 1).  So a word's dense rank is its ball position less the offset of its
length, and the m^L extensions of a word u by L letters (m = 2k - 1) form
one block of ranks, indexed in the frame of u's last letter: first letters in
digit order, less the inverse of u's last letter.  Sets over the ball are
the sweep's byte maps, one byte per word, and a block of a byte map reads
as one int.  The position of each word's inverse follows from ranks alone
(``inverse_positions``); the sweep builds it once, and the product passes
read the inverse ranks of the left factors off it.

Write g = head s and h = s^-1 t, with c = |s| letters cancelling.  The
products head t fill head's block at length |g| + |h| - 2c, in the pattern
of the ys block of s^-1, re-indexed from the frame of s^-1 to the frame of
head, less the first letter that cancels one level deeper: at most 2k - 1
sub-block shifts.  The pattern depends only on (|h|, c, the last c + 1
letters of g), so it is built once per such key, and each (|g|, |h|, c) is
one pass of map pipelines over the g of that length: one AND of g's pattern
with its head's block of non-members, and one popcount per g.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, compress, repeat
from operator import add, and_, floordiv, lshift, mul, or_, rshift, sub
from typing import Iterator

_FLIP = bytes(x ^ 1 for x in range(256))  # each letter digit to its inverse's, and 0 to 1
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def bounded_products(k: int, xmap: bytes, ymap: bytes, r: int, zmap: bytes, ball: list, inv) -> tuple:
    """``FreeGroup(k).bounded_products`` on byte maps over ball, which is
    ball(r), and its inverse positions: a batch is one g and one length b,
    and its hs are the length-b h in ys that the radius lets cancel against
    g.  The batches come lazily, so a failing sweep holds one hs list at a time."""
    D, m = 2 * k, 2 * k - 1
    n = [1] + [D * m ** (L - 1) for L in range(1, r + 1)]
    offs = list(accumulate(n, initial=0))
    Y, O = ([bs[offs[L]:offs[L + 1]] for L in range(r + 1)] for bs in (ymap, zmap.translate(_FLIP)))  # O: 1 off z
    # per length: the ranks of the xs and of their inverses, and the first
    # letter of each word's inverse (at length 0 a stand-in, 2k: no letter)
    R = [array("i", compress(range(n[L]), xmap[offs[L]:offs[L + 1]])) for L in range(r + 1)]
    I = [array("i", map(sub, compress(inv[offs[L]:offs[L + 1]], xmap[offs[L]:offs[L + 1]]), repeat(offs[L])))
         for L in range(r + 1)]
    firsts = [bytes([D])] + [bytes(map(floordiv, map(sub, inv[offs[L]:offs[L + 1]], repeat(offs[L])),
                                       repeat(m ** (L - 1)))) for L in range(1, r + 1)]
    checked, escapes, dsts = 0, {}, {}  # dsts: product blocks by (head length, L)
    for c in range(r + 1):
        flips, made = firsts[c], {}  # made: patterns by (L, headed)
        for a in range(c, r + 1):
            h = a - c  # g = head s with |head| = h; h = 0: the products are the t
            keys = array("i", map(floordiv, I[a], repeat(m ** (h - 1)))) if h > 1 else I[a]
            heads = array("i", map(floordiv, R[a], repeat(m ** c if h else n[a]))) if c else R[a]  # h = 0: one block
            for L in range(min(r - h, r - c) + 1):  # |t|: the products stay in the ball
                if (L, h > 0) not in made:
                    made[L, h > 0] = _patterns(k, Y[c + L], flips, firsts[c + 1].translate(_FLIP) if h else None, c, L)
                if (h, L) not in dsts:
                    dsts[h, L] = _blocks(O[h + L], m ** L if h else n[L])
                pats, blocks = made[L, h > 0], dsts[h, L]
                gpats = list(map(pats.__getitem__, keys))  # each g's products, looked up once
                checked += sum(map(int.bit_count, gpats))
                if any(map(and_, gpats, map(blocks.__getitem__, heads))):
                    hits = map(bool, map(and_, gpats, map(blocks.__getitem__, heads)))
                    escapes[a, c + L] = bytes(map(or_, escapes.get((a, c + L), repeat(False)), hits))
        dsts = {hL: blocks for hL, blocks in dsts.items() if max(hL) < r - c}  # what the next c reads
    return checked, _batches(r, m, n, offs, escapes, R, I, ymap, ball)


def _batches(r: int, m: int, n: list, offs: list, escapes: dict, R: list, I: list, ymap: bytes,
             ball: list) -> Iterator[tuple]:
    """The escaping batches in xs order, built one at a time: escapes holds,
    per (|g|, |h|), a flag for each g of xs of that length."""
    for a in range(r + 1):
        flagged = [(b, escapes[a, b]) for b in range(r + 1) if (a, b) in escapes]
        if not flagged:
            continue
        for i in range(len(R[a])):
            for b, flags in flagged:
                if flags[i]:
                    c = max(0, (a + b - r + 1) // 2)  # h must start with the inverse of g's last c letters
                    width = m ** (b - c) if c else n[b]
                    lo = offs[b] + (I[a][i] // m ** (a - c) * width if c else 0)
                    yield ball[offs[a] + R[a][i]], list(compress(ball[lo:lo + width], ymap[lo:lo + width]))


def inverse_positions(k: int, r: int) -> array:
    """``FreeGroup(k).inverse_positions``: the ball(r) position of each
    word's inverse, by ball position, from ranks alone.  The words y v of
    length L + 1 fill y's block by v's first letter f, in v's order, and
    inv(y v) = inv(v) y^-1 has rank m rank(inv(v)) plus the index of y^-1
    among the letters that may follow f^-1: y^-1, less one when past f."""
    D, m = 2 * k, 2 * k - 1
    out = array("i", [0] * (r >= 0) + [1 + (d ^ 1) for d in range(D)] * (r > 0))
    for L in range(1, r):
        w, top = m ** (L - 1), len(out)  # a sub-block's size; where length L + 1 starts
        lo = top - D * w
        for y, f in ((y, f) for y in range(D) for f in range(D) if f != y ^ 1):
            out.extend(map(add, map(mul, out[lo + f * w:lo + f * w + w], repeat(m)),
                           repeat(top - m * lo + (y ^ 1) - ((y ^ 1) > f))))
    return out


def _patterns(k: int, yb: bytes, flips: bytes, nexts, c: int, L: int):
    """For g = head s with |s| = c, the t of length L with s^-1 t in ys
    (byte map yb of length c + L), as blocks in head's frame, keyed by the
    rank of the inverse of g's last c + 1 letters (``nexts``: their last
    digits), or with no head (``nexts`` None) by the rank of s^-1.  The ys
    block of s^-1 skips first letter e1 = flips[s^-1] and the product block
    skips e2 (2k: none), the letter that cancels deeper: e2's sub-block
    drops, and those between e1 and e2 shift by one."""
    D, m = 2 * k, 2 * k - 1
    srcs = _blocks(yb, m ** L if c else len(yb))
    if nexts is None:
        e1s, e2s = flips, repeat(D)
    else:
        rep = m if c else D
        srcs = (list if L else bytes)(chain.from_iterable(map(repeat, srcs, repeat(rep))))  # L = 0: bits
        e1s, e2s = chain.from_iterable(map(repeat, flips, repeat(rep))), nexts
    if not L:
        return srcs
    w = m ** (L - 1)  # first-letter sub-block width
    q = array("H", map(add, map(mul, e1s, repeat(D + 1)), e2s))
    keep, up, down = {}, {}, {}
    for x in set(q):
        e1, e2 = divmod(x, D + 1)
        keep[x] = ~((1 << w * abs(e2 - e1)) - 1 << w * min(e1, e2))
        up[x] = (1 << w * (e2 - e1 - 1)) - 1 << w * e1 if e1 < e2 else 0
        down[x] = (1 << w * (e1 - e2 - 1)) - 1 << w * (e2 + 1) if e2 < e1 else 0
    return list(map(or_, map(or_, map(and_, srcs, map(keep.__getitem__, q)),
                             map(lshift, map(and_, srcs, map(up.__getitem__, q)), repeat(w))),
                    map(rshift, map(and_, srcs, map(down.__getitem__, q)), repeat(w))))


def _blocks(bs: bytes, w: int):
    """A byte map in w-byte blocks, each read as an int, low bit first."""
    if w == 1:
        return bs
    bits = bs.translate(_DIGITS)[::-1]
    return list(map(int, map(bits.__getitem__, map(slice, range(len(bits) - w, -1, -w), range(len(bits), 0, -w))),
                    repeat(2)))
