"""The free group's cone-axiom sweep on rank blocks of the ball.

``FreeGroup.ball`` lists each length in lexicographic order, letters in the
order a, A, b, B, ... (digits 0 .. 2k - 1, a letter's inverse is its digit
xor 1).  So a word's dense rank is its ball position less the offset of its
length, and the m^L extensions of a word u by L letters (m = 2k - 1) form
one block of ranks, indexed in the frame of u's last letter: first letters in
digit order, less the inverse of u's last letter.  Sets over the ball are
byte maps, one byte per word, and a block of a byte map reads as one int.

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
from operator import add, and_, floordiv, gt, lshift, mul, or_, rshift, sub
from typing import Iterator

_FLIP = bytes(x ^ 1 for x in range(256))  # each letter digit to its inverse's, and 0 to 1
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def bounded_products(k: int, xs: list, ys: list, r: int, members: set, ball: list) -> tuple:
    """``FreeGroup(k).bounded_products``: (checked, batches) for sublists xs
    and ys of ball, which is ball(r); a batch is one g and one length b, and
    its hs are the length-b h in ys that the radius lets cancel against g.
    The batches come lazily, so a failing sweep holds one hs list at a time."""
    D, m = 2 * k, 2 * k - 1
    n = [1] + [D * m ** (L - 1) for L in range(1, r + 1)]
    offs = list(accumulate(n, initial=0))
    xmap = _bytemap(ball, xs)
    ymap = xmap if ys is xs else _bytemap(ball, ys)
    omap = bytes(map(members.__contains__, ball)).translate(_FLIP)  # 1: not a member
    Y, O = ([bs[offs[L]:offs[L + 1]] for L in range(r + 1)] for bs in (ymap, omap))
    R = [array("q", compress(range(n[a]), xmap[offs[a]:offs[a + 1]])) for a in range(r + 1)]
    last, I = [], []  # I: the ranks of the inverses of R
    for Ra, (ends, inv) in zip(R, _ranks(k, r)):
        last.append(ends)
        I.append(array("q", map(inv.__getitem__, Ra)))
    checked, escapes, dsts = 0, {}, {}  # dsts: product blocks by (head length, L)
    for c in range(r + 1):
        flips, made = last[c].translate(_FLIP), {}  # made: patterns by (L, headed)
        for a in range(c, r + 1):
            h = a - c  # g = head s with |head| = h; h = 0: the products are the t
            keys = list(map(floordiv, I[a], repeat(m ** (h - 1)))) if h > 1 else I[a]
            heads = list(map(floordiv, R[a], repeat(m ** c if h else n[a]))) if c else R[a]  # h = 0: one block
            for L in range(min(r - h, r - c) + 1):  # |t|: the products stay in the ball
                if (L, h > 0) not in made:
                    made[L, h > 0] = _patterns(k, Y[c + L], flips, last[c + 1] if h else None, c, L)
                if (h, L) not in dsts:
                    dsts[h, L] = _blocks(O[h + L], m ** L if h else n[L])
                pats, blocks = made[L, h > 0], dsts[h, L]
                checked += sum(map(int.bit_count, map(pats.__getitem__, keys)))
                if any(map(and_, map(pats.__getitem__, keys), map(blocks.__getitem__, heads))):
                    hits = map(bool, map(and_, map(pats.__getitem__, keys), map(blocks.__getitem__, heads)))
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


def _ranks(k: int, r: int) -> Iterator[tuple]:
    """(last, inv) for lengths 0..r, by dense rank: the digit of each word's
    last letter (at length 0 a stand-in that flips to 2k, no letter) and the
    rank of its inverse.  inv(w x) = x^-1 inv(w), whose frame skips the
    first letter x: inv(w) moves down a sub-block if it starts after x."""
    D, m = 2 * k, 2 * k - 1
    follow = [bytes(e for e in range(D) if e != d ^ 1) for d in range(D)]
    yield bytes([D ^ 1]), array("q", [0])
    last, inv = bytes(range(D)), array("q", [d ^ 1 for d in range(D)])
    for L in range(1, r + 1):
        yield last, inv
        new = b"".join(map(follow.__getitem__, last))
        drops = map(mul, map(gt, chain.from_iterable(map(repeat, last.translate(_FLIP), repeat(m))), new),
                    repeat(m ** (L - 1)))
        rests = map(sub, chain.from_iterable(map(repeat, inv, repeat(m))), drops)
        last, inv = new, array("q", map(add, map(mul, new.translate(_FLIP), repeat(m ** L)), rests))


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
        srcs = list(chain.from_iterable(map(repeat, srcs, repeat(rep))))
        e1s, e2s = chain.from_iterable(map(repeat, flips, repeat(rep))), nexts
    if not L:
        return srcs
    w = m ** (L - 1)  # first-letter sub-block width
    q = list(map(add, map(mul, e1s, repeat(D + 1)), e2s))
    keep, up, down = {}, {}, {}
    for x in set(q):
        e1, e2 = divmod(x, D + 1)
        keep[x] = ~((1 << w * abs(e2 - e1)) - 1 << w * min(e1, e2))
        up[x] = (1 << w * (e2 - e1 - 1)) - 1 << w * e1 if e1 < e2 else 0
        down[x] = (1 << w * (e1 - e2 - 1)) - 1 << w * (e2 + 1) if e2 < e1 else 0
    return list(map(or_, map(or_, map(and_, srcs, map(keep.__getitem__, q)),
                             map(lshift, map(and_, srcs, map(up.__getitem__, q)), repeat(w))),
                    map(rshift, map(and_, srcs, map(down.__getitem__, q)), repeat(w))))


def _bytemap(ball: list, ws: list) -> bytes:
    """1 at each position of ball that ws, a sublist in ball order, holds."""
    out, rest = bytearray(len(ball)), iter(ws)
    w = next(rest, None)
    for i, x in enumerate(ball):
        if x == w:
            out[i], w = 1, next(rest, None)
    return bytes(out)


def _blocks(bs: bytes, w: int):
    """A byte map in w-byte blocks, each read as an int, low bit first."""
    if w == 1:
        return bs
    bits = bs.translate(_DIGITS)[::-1]
    return list(map(int, map(bits.__getitem__, map(slice, range(len(bits) - w, -1, -w), range(len(bits), 0, -w))),
                    repeat(2)))
