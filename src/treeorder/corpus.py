"""Exhaustive and randomized poset corpora for the relation laws.

Two sources.  Small scale: every valid tagged poset on up to five labeled
elements (six within seconds).  Base strict orders are grown one element at
a time by choosing a down-closed lower set and an up-closed upper set; each
is then tagged depth first, with forced tags set once and every free pair
tried both ways, cutting a branch as soon as it breaks acyclicity, so only
admissible posets are ever constructed.  Desk scale: pseudo-random
oriented trees with points sprinkled on their arcs, ordered by the forward
component rule; the theory says these are always admissible, which makes
them good stress instances for the between-set laws.

The law suite lives here, with the between geometry and the certificate
that the poset's law methods read.  The between-set laws read only the
between table, B(i, j) for every pair of indices, not the tagging that
produced it: reversing every relation keeps it, and many taggings share
one.  A "between geometry" is one such table with what the laws read off
it, shared by every poset that has the table: the 400 tagged posets on
four points have 25 between geometries, the 6,912 on five points 216, and
the 153,664 on six points 2,401.  The certificate reads only the table and
the comparability rows, so the geometry keeps its verdict per
comparability tuple: it runs 200, 3,456 and 76,832 times, once for each
poset and its reverse.  A tree job runs no law, so it compiles none of
this.
"""

from __future__ import annotations

import random
import weakref
from itertools import combinations, permutations
from typing import Iterator, List

from .errors import PosetError
from .poset import ClassLawError, ExtendedPoset, _between_rows, _bits

# Labeled strict orders on 0..n-1 points, for the enumerator sanity check.
BASE_ORDER_COUNTS = {0: 1, 1: 1, 2: 3, 3: 19, 4: 219, 5: 4231, 6: 130023}


def base_orders(n: int) -> Iterator[tuple]:
    """All strict partial orders on range(n) as (up, down) bitmask lists.

    Element k is added with a choice of lower set D (down-closed) and upper
    set U (up-closed), disjoint, with every member of D below every member
    of U; each order arises from exactly one choice sequence.
    """
    if n < 0:
        raise PosetError(f"point count must not be negative, got {n}")
    if n == 0:
        yield ((), ())
        return
    for up, down in base_orders(n - 1):
        m = n - 1
        closed_up = _closed_sets(up)
        for d in _closed_sets(down):
            # the upper sets above all of d; none meets d, as up sets are strict
            common = (1 << m) - 1
            for i in _bits(d):
                common &= up[i]
            for u in closed_up:
                if u & ~common:
                    continue
                nup = [up[i] | (((d >> i) & 1) << m) for i in range(m)]
                ndown = [down[i] | (((u >> i) & 1) << m) for i in range(m)]
                nup.append(u)
                ndown.append(d)
                yield (tuple(nup), tuple(ndown))


def _closed_sets(spread: tuple) -> list:
    """Every subset that holds spread[x] whenever it holds x, in increasing
    order: grown along a linear extension, where x may join a set only once
    all of spread[x] is in it."""
    sets = [0]
    for x in sorted(range(len(spread)), key=lambda x: spread[x].bit_count()):
        sets += [s | 1 << x for s in sets if not spread[x] & ~s]
    return sorted(sets)


def count_base_orders(n: int) -> int:
    return sum(1 for _ in base_orders(n))


def all_extended_posets(n: int) -> List[ExtendedPoset]:
    """Every admissible tagged poset on range(n).

    For each base order, incomparable pairs with a realized bound have their
    tag forced.  The free pairs are tagged depth first, last pair first and
    downward before upward, which lists the posets in the order of counting
    through the tag choices as a binary number.  A tag can break only
    acyclicity, and only at its endpoints, so a new tag, forced or free, is
    tested alone: i ~l j needs simu[i] below j and simu[j] below i, and
    i ~u j needs siml[i] above j and siml[j] above i.  A branch whose tag
    fails is cut.  Each leaf still goes through the ExtendedPoset
    constructor, whose validation is the single source of truth for
    admissibility.
    """
    out: List[ExtendedPoset] = []
    elements = tuple(range(n))

    def fits(i: int, j: int, upward: int) -> bool:
        # x ~u y and x ~l z need z > y: the test for the new tag i ~ j
        other, bounds = (siml, up) if upward else (simu, down)
        return not (other[i] & ~bounds[j] or other[j] & ~bounds[i])

    def tag(k: int) -> None:
        # tag pairs[:k] every acyclic way, one poset per leaf
        if k == 0:
            out.append(ExtendedPoset(elements, up, down, simu, siml))
            return
        i, j = pairs[k - 1]
        for upward, rows in enumerate((siml, simu)):
            if fits(i, j, upward):
                rows[i] ^= 1 << j
                rows[j] ^= 1 << i
                tag(k - 1)
                rows[i] ^= 1 << j
                rows[j] ^= 1 << i

    for up, down in base_orders(n):
        simu, siml, pairs = [0] * n, [0] * n, []
        for i, j in combinations(range(n), 2):
            if (up[i] | down[i]) >> j & 1:
                continue
            has_upper, has_lower = up[i] & up[j], down[i] & down[j]
            if not (has_upper or has_lower):
                pairs.append((i, j))
            elif has_upper and has_lower or not fits(i, j, has_upper):
                break  # the forced tag does not fit: the base order admits no tagging
            else:
                rows = simu if has_upper else siml
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        else:
            tag(len(pairs))
    # tag reaches itself, and out, through its closure cell: dropping it lets
    # the posets go by reference count, not at the next cycle collection
    del tag
    return out


# -- tree-derived instances ----------------------------------------------


def random_tree_poset(rng: random.Random, max_points: int = 12) -> ExtendedPoset:
    """Points on a random oriented tree, ordered by the component rule.

    Elements are small integers; the manifold point of element i travels in
    the poset via the ``points`` attribute set on the result.
    """
    # the tree layer and fractions load here, so enumerating small posets loads only poset
    from fractions import Fraction

    from .ordertree import OrderTree, manifold_poset

    if max_points < 2:
        raise PosetError(f"max_points must be at least 2, got {max_points}")
    n_nodes = rng.randint(2, 9)
    tree = OrderTree()
    tree.add_node(0)
    for v in range(1, n_nodes):
        tree.add_node(v)
        parent = rng.randrange(v)
        if rng.random() < 0.5:
            tree.add_arc(("e", v), parent, v)
        else:
            tree.add_arc(("e", v), v, parent)
    arcs = tree.sorted_arc_ids()
    # each arc has 15 free positions t/16, so more points cannot be placed
    k = min(rng.randint(2, max_points), 15 * len(arcs))
    seen = set()
    points = []
    while len(points) < k:
        aid = arcs[rng.randrange(len(arcs))]
        t = Fraction(rng.randint(1, 15), 16)
        if (aid, t) in seen:
            continue
        seen.add((aid, t))
        points.append(("arc", aid, t))
    poset = manifold_poset(tree, dict(enumerate(points)))
    poset.points = points
    return poset


def tree_corpus(count: int = 100, seed: int = 20260815, max_points: int = 12) -> List[ExtendedPoset]:
    rng = random.Random(seed)
    return [random_tree_poset(rng, max_points) for _ in range(count)]


# -- the between geometry and its certificate ------------------------------


class BetweenGeometry:
    """What the between-set laws read off one between table ``table`` (rows
    of B(i, j) masks, {i} on the diagonal).  ``walks``, the certificate's
    travel half: per anchor i, the j != i by increasing |B(i, j)| and beside
    each the q (i or an earlier j) with B(i, j) = B(i, q) plus j; None when
    some j has none.  ``theorem``: the witnesses of laws 1-4 in order, as
    index tuples (law, a, b, c[, d]).  ``verdicts``: the certificate's
    answer per comparability tuple, for posets that have run no chain test."""

    __slots__ = ("table", "walks", "theorem", "verdicts", "__weakref__")

    def __init__(self, table: tuple):
        self.table, self.theorem, self.walks, self.verdicts = table, self._theorem(table), [], {}
        index = list(range(len(table)))
        for i, row in enumerate(table):
            pred, order, preds = {1 << i: i}, [], []
            for j in sorted(index, key=list(map(int.bit_count, row)).__getitem__):
                if j != i:
                    q = pred.get(row[j] ^ 1 << j)
                    if q is None:
                        self.walks = None
                        return
                    pred[row[j]] = j
                    order.append(j)
                    preds.append(q)
            self.walks.append((order, preds))

    @staticmethod
    def _theorem(bet: tuple) -> list:
        n = len(bet)

        def triples(pairs) -> list:
            found = []
            for a, b in pairs:
                row, ab = bet[a], bet[a][b]
                for c in range(n):
                    if c == a or c == b:
                        continue
                    union = row[c] | bet[c][b]
                    if ab & ~union:
                        found.append((1, a, b, c))
                    inside = bool(ab >> c & 1)
                    if inside != (ab == union):
                        found.append((2, a, b, c))
                    if inside and row[c] & bet[c][b] != 1 << c:
                        found.append((3, a, b, c))
            return found

        out = triples(combinations(range(n), 2)) and triples(permutations(range(n), 2))
        # law 4: T[x][a] is the set of d with x in B(a, d); b in B(a, c) for a in T[b][c]
        T = [[0] * n for _ in range(n)]
        for a in range(n):
            for d in range(a + 1, n):
                for x in _bits(bet[a][d]):
                    T[x][a] |= 1 << d
                    T[x][d] |= 1 << a
        for b in range(n):
            for c in range(n):
                ends = 1 << b | 1 << c
                dmask = T[c][b] & ~ends
                if b == c or not dmask:
                    continue
                for a in _bits(T[b][c] & ~ends):
                    bad = dmask & ~(T[b][a] & T[c][a]) & ~(1 << a)
                    if bad:
                        out.extend((4, a, b, c, d) for d in _bits(bad))
        return out


_GEOMETRIES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _between_table(p: ExtendedPoset) -> tuple:
    """B(i, j) for every ordered pair, with {i} on the diagonal, read off
    the rows by ``_between_rows``.  Masks already in the ``_bet`` memo are
    read from it; the rest are not stored, since the laws read them only
    from the geometry's table."""
    n, rows = p.n, p.rows
    bet = [[1 << i] * n for i in range(n)]
    for i in range(n):
        row = bet[i]
        for j in range(i + 1, n):
            row[j] = bet[j][i] = _between_rows(rows, i, j)
    for key, mask in p._bet.items():
        i, j = divmod(key, n)
        bet[i][j] = bet[j][i] = mask
    return tuple(map(tuple, bet))


def _geometry(p: ExtendedPoset) -> BetweenGeometry:
    """The between geometry, shared by every live poset with this table."""
    if p._geo is None:
        table = _between_table(p)
        geo = _GEOMETRIES.get(table)
        if geo is None:
            geo = _GEOMETRIES[table] = BetweenGeometry(table)
        p._geo = geo
    return p._geo


def _certified(p: ExtendedPoset) -> bool:
    """Whether ``between_set`` passes on every pair: the geometry's verdict
    for ``_comp`` until a chain test has run, then this poset's own."""
    geo = _geometry(p)
    if p._tested is not None:
        return _certify(p, geo)
    verdict = geo.verdicts.get(p._comp)
    if verdict is None:
        verdict = geo.verdicts[p._comp] = _certify(p, geo)
    return verdict


def _certify(p: ExtendedPoset, geo: BetweenGeometry) -> bool:
    """The certificate's pass.  The geometry's walk accepts each j from
    anchor i, so ``between_members(i, j)`` is that of (i, q) plus j, and
    B(i, j) is a chain when B(i, q) is one in comp[j], comp being
    symmetric.  A second walk cuts classes as ``between_set`` does and
    checks each j's related partners in B(i, j); a chain answer unlike
    one kept refuses too."""
    if geo.walks is None:
        return False
    comp, bet, related = p._comp, geo.table, []
    for i, (order, preds) in enumerate(geo.walks):
        row, ci, rel = bet[i], comp[i], 1 << i
        for j, q in zip(order, preds):
            if (ci >> j ^ comp[j] >> i) & 1:
                return False
            if rel >> q & 1 and not row[j] & ~comp[j] & ~(1 << j):
                rel |= 1 << j
        if p._tested is not None and (rel ^ p._orel[i]) & p._tested[i]:
            return False
        related.append(rel)
    for i, (order, preds) in enumerate(geo.walks):
        row, cls = bet[i], {i: 1 << i}
        for j, q in zip(order, preds):
            cls[j] = cls[q] | 1 << j if related[q] >> j & 1 else 1 << j
            if related[j] & row[j] != cls[j]:
                return False
    return True


def pair_problems(p: ExtendedPoset) -> dict:
    """The ``between_set`` failures over the pairs a < b, filed under
    ``travel`` (travel order not total) or ``o_equivalence`` (class check).
    The certificate answers for every pair at once; only when it refuses
    does ``between_set`` run on each pair and name the witnesses."""
    out: dict = {"travel": [], "o_equivalence": []}
    if _certified(p):
        return out
    for a, b in p.iter_pairs():
        try:
            p.between_set(a, b)
        except PosetError as err:
            law = "o_equivalence" if isinstance(err, ClassLawError) else "travel"
            out[law].append({"pair": (a, b), "error": str(err)})
    return out


# -- the relation-law suite ------------------------------------------------


def run_relation_suite(p: ExtendedPoset) -> dict:
    """All relation laws on one poset; empty problem lists mean pass.

    Covers the four between-set laws, tag propagation along the order, and
    ``between_set`` on every pair through ``pair_problems``:
    a certificate read off the between table first, and the per-pair pass
    only when it refuses.  A pair whose travel order is not total (the chain
    corollary) is filed under ``travel``, and a pair that fails the class
    check, the equivalence laws of chain-relatedness, under
    ``o_equivalence``.
    """
    pairs = pair_problems(p)
    problems: dict = {
        "theorem": p.verify_between_theorem(limit=3),
        "travel": pairs["travel"],
        "propagation": p.check_lemma_propagation(),
        "o_equivalence": pairs["o_equivalence"],
    }
    problems["ok"] = not any(problems[key] for key in ("theorem", "travel", "propagation", "o_equivalence"))
    return problems


def run_corpus_suite(max_n: int = 5, tree_count: int = 100, seed: int = 20260815) -> dict:
    """Criterion sweep: the law suite over the full small-scale enumeration
    plus the randomized tree-derived corpus."""
    counts = {}
    failures = []
    checked = 0
    for n in range(max_n + 1):
        base = count_base_orders(n)
        if n in BASE_ORDER_COUNTS and base != BASE_ORDER_COUNTS[n]:
            failures.append({"stage": "enumeration", "n": n, "got": base, "want": BASE_ORDER_COUNTS[n]})
        posets = all_extended_posets(n)
        counts[n] = {"base": base, "extended": len(posets)}
        for p in posets:
            checked += 1
            rep = run_relation_suite(p)
            if not rep["ok"]:
                failures.append({"stage": "enumerated", "n": n, "table": p.relations_table(), "report": rep})
    for idx, p in enumerate(tree_corpus(tree_count, seed)):
        checked += 1
        rep = run_relation_suite(p)
        if not rep["ok"]:
            failures.append({"stage": "tree", "index": idx, "report": rep})
    return {"ok": not failures, "checked": checked, "counts": counts, "failures": failures[:5]}
