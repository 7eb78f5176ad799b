"""Brute-force reference implementations used to freeze expected values.

Everything here is deliberately naive: plain dict-of-pairs relation tables
and quantifier loops, no bitmasks, and no reuse of the package internals,
so the fast implementations have something independent to disagree with.
"""

from __future__ import annotations

import itertools

LABELED_ORDER_COUNTS = (1, 1, 3, 19, 219, 4231)


def naive_strict_orders(n):
    """Yield strict orders on range(n) as {(i, j): True} dicts of i < j."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for choice in itertools.product(("lt", "gt", "none"), repeat=len(pairs)):
        less = {}
        for (i, j), state in zip(pairs, choice):
            if state == "lt":
                less[(i, j)] = True
            elif state == "gt":
                less[(j, i)] = True
        ok = True
        for a in range(n):
            for b in range(n):
                if not less.get((a, b)):
                    continue
                for c in range(n):
                    if less.get((b, c)) and not less.get((a, c)):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            yield less


def count_naive_base_orders(n: int) -> int:
    return sum(1 for _ in naive_strict_orders(n))


def naive_admissible(n, less, tags) -> bool:
    """Axioms for a fully tagged order, written as plain quantifier loops.

    ``less`` maps ordered pairs to True; ``tags`` maps each incomparable
    unordered pair (i < j) to "simu" or "siml".
    """
    for (i, j), tag in tags.items():
        has_upper = any(less.get((i, c)) and less.get((j, c)) for c in range(n))
        has_lower = any(less.get((c, i)) and less.get((c, j)) for c in range(n))
        if has_upper and has_lower:
            return False
        if has_upper and tag != "simu":
            return False
        if has_lower and tag != "siml":
            return False

    def tag_of(a, b):
        return tags.get((a, b) if a < b else (b, a))

    for x in range(n):
        for y in range(n):
            if y == x or tag_of(x, y) != "simu":
                continue
            for z in range(n):
                if z == x or tag_of(x, z) != "siml":
                    continue
                if not less.get((y, z)):
                    return False
    return True


def naive_poset_error(elements, up, down, simu, siml):
    """The first error text the ExtendedPoset constructor raises on these
    rows, or None when it accepts them.  The rows are read into a table of
    the relation names holding each ordered pair, and each check is a
    quantifier loop over pairs or triples in row-major order: rows, swap,
    transitivity, bounds, acyclicity.  Row lists of another length than
    the elements are refused first; then the rows check refuses each
    element's rows that hold a bit at or past len(elements), or are
    negative, before it reads that element's pairs."""
    n = len(elements)
    if len(set(elements)) != n:
        return "duplicate elements"
    if any(len(rows) != n for rows in (up, down, simu, siml)):
        return f"each of the four row lists must hold one row per element, {n} rows"
    names = {(i, j): [name for name, rows in (("lt", up), ("gt", down), ("simu", simu), ("siml", siml))
                      if rows[i] >> j & 1] for i in range(n) for j in range(n)}

    def pair(i, j):
        return f"pair ({elements[i]!r}, {elements[j]!r})"

    for i in range(n):
        if any(rows[i] < 0 or rows[i] >= 1 << n for rows in (up, down, simu, siml)):
            return f"the rows of {elements[i]!r} name a partner outside the {n} elements"
        for j in range(n):
            if len(names[(i, j)]) != (i != j):
                return f"{pair(i, j)} has no admissible relation"
    rel = {key: found[0] if found else "eq" for key, found in names.items()}
    swap = {"lt": "gt", "gt": "lt", "simu": "simu", "siml": "siml", "eq": "eq"}
    for i, j in itertools.product(range(n), repeat=2):
        if rel[(j, i)] != swap[rel[(i, j)]]:
            return f"{pair(i, j)} disagrees with its swap"
    a = elements
    for i, j, k in itertools.product(range(n), repeat=3):
        if rel[(i, j)] == rel[(j, k)] == "lt" and rel[(i, k)] != "lt":
            return f"comparabilities not transitive: {a[i]!r} < {a[j]!r} < {a[k]!r} but not {a[i]!r} < {a[k]!r}"
    for i, j in itertools.combinations(range(n), 2):
        if rel[(i, j)] not in ("simu", "siml"):
            continue
        has_upper = any(rel[(i, c)] == rel[(j, c)] == "lt" for c in range(n))
        has_lower = any(rel[(i, c)] == rel[(j, c)] == "gt" for c in range(n))
        if has_upper and has_lower:
            return f"{pair(i, j)} has both kinds of common bound; the base order is not acyclic"
        if has_upper and rel[(i, j)] != "simu":
            return f"{pair(i, j)} tagged downward-similar but shares an upper bound"
        if has_lower and rel[(i, j)] != "siml":
            return f"{pair(i, j)} tagged upward-similar but shares a lower bound"
    for i, j, k in itertools.product(range(n), repeat=3):
        if rel[(i, j)] == "simu" and rel[(i, k)] == "siml" and rel[(k, j)] != "gt":
            return (f"tagging not acyclic: {a[i]!r} ~u {a[j]!r} and {a[i]!r} ~l {a[k]!r} require "
                    f"{a[k]!r} > {a[j]!r}, got {rel[(k, j)]}")
    return None


def naive_extended_tables(n: int) -> list:
    """Every admissible tagged order on range(n), as a relation name per
    pair (i, j) with i < j: each strict order crossed with every tagging of
    its incomparable pairs, kept when ``naive_admissible`` holds."""
    tables = []
    for less in naive_strict_orders(n):
        base = {}
        free = []
        for i in range(n):
            for j in range(i + 1, n):
                if less.get((i, j)):
                    base[(i, j)] = "lt"
                elif less.get((j, i)):
                    base[(i, j)] = "gt"
                else:
                    free.append((i, j))
        for combo in itertools.product(("simu", "siml"), repeat=len(free)):
            tags = dict(zip(free, combo))
            if naive_admissible(n, less, tags):
                tables.append({**base, **tags})
    return tables


def generate_and_reject_posets(n: int) -> list:
    """The tagged posets on range(n) in the order of the first enumerator.

    That enumerator crossed each base order with all 2^m tag choices on its
    m free pairs, counting through the choices as a binary number, and kept
    what the ExtendedPoset constructor accepted; its base orders tested
    every subset for closure.  Unlike the rest of this module it builds
    package posets: it is the reference for the listing order, and the
    naive tables above are the reference for the contents.
    """
    from treeorder.poset import ExtendedPoset, PosetError

    def closed(subset, spread):
        return not any(subset >> i & 1 and spread[i] & ~subset for i in range(len(spread)))

    def base_orders(k):
        if k == 0:
            yield (), ()
            return
        for up, down in base_orders(k - 1):
            m = k - 1
            for d in (d for d in range(1 << m) if closed(d, down)):
                common = (1 << m) - 1
                for i in range(m):
                    if d >> i & 1:
                        common &= up[i]
                for u in (u for u in range(1 << m) if closed(u, up)):
                    if u & ~common:
                        continue
                    nup = [up[i] | (d >> i & 1) << m for i in range(m)] + [u]
                    ndown = [down[i] | (u >> i & 1) << m for i in range(m)] + [d]
                    yield tuple(nup), tuple(ndown)

    out = []
    for up, down in base_orders(n):
        pairs = []
        forced_u, forced_l = [0] * n, [0] * n
        possible = True
        for i in range(n):
            for j in range(i + 1, n):
                if (up[i] >> j) & 1 or (down[i] >> j) & 1:
                    continue
                has_upper, has_lower = up[i] & up[j], down[i] & down[j]
                if has_upper and has_lower:
                    possible = False
                elif has_upper:
                    forced_u[i] |= 1 << j
                    forced_u[j] |= 1 << i
                elif has_lower:
                    forced_l[i] |= 1 << j
                    forced_l[j] |= 1 << i
                else:
                    pairs.append((i, j))
        if not possible:
            continue
        for choice in range(1 << len(pairs)):
            simu, siml = list(forced_u), list(forced_l)
            for b, (i, j) in enumerate(pairs):
                rows = simu if (choice >> b) & 1 else siml
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            try:
                out.append(ExtendedPoset(tuple(range(n)), up, down, simu, siml))
            except PosetError:
                continue
    return out


def coordinate_rel(c1, c2) -> str:
    """Order of two points on a uniformly oriented line, by coordinate."""
    if c1 == c2:
        return "eq"
    return "lt" if c1 < c2 else "gt"


def coordinate_between(c1, c2, c3) -> bool:
    """Interval membership on the line: is c3 within the travel of c1, c2."""
    lo, hi = min(c1, c2), max(c1, c2)
    return lo <= c3 <= hi


def naive_forward_sets(tree) -> dict:
    """For every arc of an order tree, the nodes on its head side once the
    arc is cut: a breadth-first search over ``tree.arcs`` in which each
    ``(cap, arc, side)`` adjacency joins the cap to that arc end."""
    links: dict = {}
    joins = [(arc.tail, arc.head, aid) for aid, arc in tree.arcs.items()]
    for cap, aid, side in tree.adjacencies:
        arc = tree.arcs[aid]
        joins.append((cap, arc.tail if side == "tail" else arc.head, None))
    for u, v, via in joins:
        links.setdefault(u, []).append((v, via))
        links.setdefault(v, []).append((u, via))
    out = {}
    for cut, arc in tree.arcs.items():
        seen = {arc.head}
        queue = [arc.head]
        while queue:
            v = queue.pop(0)
            for w, via in links[v]:
                if via != cut and w not in seen:
                    seen.add(w)
                    queue.append(w)
        out[cut] = seen
    return out


def naive_arc_rel(tree, forward: dict, x, y) -> str:
    """Relation name of two arc points ("arc", arc, t): y is ahead of x when
    y's arc lies in the forward set of x's arc, and x behind y conversely."""
    (_, xa, xt), (_, ya, yt) = x, y
    if xa == ya:
        return coordinate_rel(xt, yt)
    ahead = bool({tree.arcs[ya].tail, tree.arcs[ya].head} & forward[xa])
    behind = bool({tree.arcs[xa].tail, tree.arcs[xa].head} & forward[ya])
    return {(True, False): "lt", (False, True): "gt", (True, True): "simu", (False, False): "siml"}[ahead, behind]


def naive_realized_bound(tree, forward: dict, points: dict, g, h, upper: bool):
    """The first element k other than g and h whose arc point lies above
    (or below) both of theirs by ``naive_arc_rel``, or None: a common bound
    realized among the points."""
    want = "lt" if upper else "gt"
    for k, pk in points.items():
        if k in (g, h):
            continue
        if naive_arc_rel(tree, forward, points[g], pk) == want and naive_arc_rel(tree, forward, points[h], pk) == want:
            return k
    return None


def naive_between_sets(p) -> dict:
    """B(a, b) for every ordered pair of distinct elements, by the pairwise
    definitions: {(a, b): (members, classes)}, or None where travel order
    is not total or the classes are not travel intervals.

    Members come from ``p.is_between``; x travels before y when x lies in
    B(a, y); x and y share a class when B(x, y) is a chain, which is checked
    on every pair of members.  Only the public relation queries are used.
    """
    elems = p.elements
    between = {(x, y): [z for z in elems if p.is_between(x, z, y)] for x in elems for y in elems if x != y}
    inside = {pair: set(members) for pair, members in between.items()}
    comparable = {(u, v) for u in elems for v in elems if u == v or p.classify(u, v) in ("lt", "gt")}
    related = {(x, x) for x in elems} | {
        pair for pair, members in between.items() if all((u, v) in comparable for u in members for v in members)
    }
    out = {}
    for (a, b), members in between.items():

        def precedes(x, y):
            return y != a and x in inside[a, y]

        order = sorted(members, key=lambda y: sum(precedes(x, y) for x in members))
        if any(not precedes(x, y) or precedes(y, x) for i, x in enumerate(order) for y in order[i + 1:]):
            out[a, b] = None
            continue
        classes = [[order[0]]]
        for y in order[1:]:
            if (classes[-1][-1], y) in related:
                classes[-1].append(y)
            else:
                classes.append([y])
        intervals = all(
            ((x, y) in related) == (cx is cy) for cx in classes for cy in classes for x in cx for y in cy
        )
        out[a, b] = (tuple(order), tuple(map(tuple, classes))) if intervals else None
    return out


def naive_o_equivalence(p) -> list:
    """The symmetry and transitivity scan of chain-relatedness, the reference
    for the class check that ``verify_o_equivalence`` reports from: x ~ y
    must give y ~ x, and within every between set, x ~ y and y ~ z must give
    x ~ z.  Reads ``o_related`` and ``is_between`` only; empty means pass."""
    elems = p.elements
    related = {(x, y) for x in elems for y in elems if p.o_related(x, y)}
    out = [{"law": "symmetric", "at": (x, y)} for x in elems for y in elems
           if (x, y) in related and (y, x) not in related]
    for a, b in p.iter_pairs():
        members = [z for z in elems if p.is_between(a, z, b)]
        out.extend(
            {"law": "transitive", "between": (a, b), "at": (x, y, z)}
            for x, y, z in itertools.product(members, repeat=3)
            if (x, y) in related and (y, z) in related and (x, z) not in related
        )
    return out


def per_pair_suite(p) -> dict:
    """``run_relation_suite``'s report with its pair laws read one
    ``between_set`` call per pair a < b: a pair whose travel order is not
    total goes under ``travel``, one that fails the class check under
    ``o_equivalence``.  This is the pass the suite's certificate stands in
    for; the theorem and propagation lists come from the poset's own scans."""
    from treeorder.poset import ClassLawError, PosetError

    problems = {"theorem": p.verify_between_theorem(limit=3), "travel": [],
                "propagation": p.check_lemma_propagation(), "o_equivalence": []}
    for a, b in p.iter_pairs():
        try:
            p.between_set(a, b)
        except PosetError as err:
            law = "o_equivalence" if isinstance(err, ClassLawError) else "travel"
            problems[law].append({"pair": (a, b), "error": str(err)})
    problems["ok"] = not any(problems[key] for key in ("theorem", "travel", "propagation", "o_equivalence"))
    return problems


def single_pass_certified(p, bet) -> bool:
    """The suite's certificate as one pass over the between table ``bet``
    (rows of B(i, j) masks), travel and comparability together, kept as the
    reference for the certificate split into a between geometry and a
    per-poset half.  Reads the poset's comparability rows and chain memo;
    chain rows never allocated mean no chain test has run yet."""
    n, comp, related, walks = p.n, p._comp, [], []
    tested, orel = (p._tested, p._orel) if p._tested is not None else ([0] * n, [0] * n)
    for i, row in enumerate(bet):
        pred, rel, walk = {1 << i: i}, 1 << i, []
        for j in sorted(range(n), key=list(map(int.bit_count, row)).__getitem__):
            if j == i:
                continue
            m = row[j]
            q = pred.get(m ^ 1 << j)
            if q is None or (comp[i] >> j ^ comp[j] >> i) & 1:
                return False
            pred[m] = j
            if rel >> q & 1 and not m & ~comp[j] & ~(1 << j):
                rel |= 1 << j
            walk.append((j, q, m))
        if (rel ^ orel[i]) & tested[i]:
            return False
        related.append(rel)
        walks.append(walk)
    for i, walk in enumerate(walks):
        cls = {i: 1 << i}
        for j, q, m in walk:
            cls[j] = cls[q] | 1 << j if related[q] >> j & 1 else 1 << j
            if related[j] & m != cls[j]:
                return False
    return True


def naive_between_theorem(p, limit: int = 100, inside=None) -> list:
    """The four laws of ``verify_between_theorem`` as ordered scans: laws 1-3
    over every triple (a, b, c) of distinct elements, then law 4 over every
    quadruple (b, c, a, d), in element order, cut to ``limit``.  Membership
    is ``inside(a, x, c)``, by default ``p.is_between``; a test that corrupts
    a between mask passes the same corruption here."""
    inside = inside or p.is_between
    elems = p.elements
    B = {(a, c): {x for x in elems if inside(a, x, c)} for a in elems for c in elems if a != c}
    out = []
    for a, b, c in itertools.permutations(elems, 3):
        union = B[a, c] | B[c, b]
        if not B[a, b] <= union:
            out.append({"property": 1, "a": a, "b": b, "c": c})
        if (c in B[a, b]) != (B[a, b] == union):
            out.append({"property": 2, "a": a, "b": b, "c": c})
        if c in B[a, b] and B[a, c] & B[c, b] != {c}:
            out.append({"property": 3, "a": a, "b": b, "c": c})
    for b, c, a, d in itertools.permutations(elems, 4):
        if b in B[a, c] and c in B[b, d] and not {b, c} <= B[a, d]:
            out.append({"property": 4, "a": a, "b": b, "c": c, "d": d})
    return out[:limit]


def up_set(p, a) -> tuple:
    """The elements above a, in element order."""
    return tuple(x for x in p.elements if x != a and p.classify(a, x) == "lt")


def down_set(p, a) -> tuple:
    """The elements below a, in element order."""
    return tuple(x for x in p.elements if x != a and p.classify(a, x) == "gt")


def phi_point(m, p) -> tuple:
    """Collapse a point of a blown-up manifold back to the base tree."""
    if p[0] == "node":
        return ("node", m.phi_nodes[p[1]])
    _, aid, t = p
    kind, target = m.phi_arcs[aid]
    if kind == "base-arc":
        return ("arc", target, t)
    return ("node", target)


def is_core_point(m, p) -> bool:
    """Core points of a blow-up: everything except ray interiors and ray far ends."""
    if p[0] == "arc":
        return m.arcs[p[1]].core
    return m.nodes[p[1]] == "point"


def tree_roundtrip(p):
    """The loop poset -> tree -> blow-up -> poset: build the tree of ``p``,
    blow it up and order the points of its plain labels on the manifold.
    An admissible ``p`` comes back with its own elements and rows."""
    from treeorder.ordertree import denjoy_blowup, manifold_poset
    from treeorder.treebuild import PLAIN, build_tree, orient_segments

    layout = orient_segments(build_tree(p))
    points = {g: layout.label_point[g, PLAIN] for g in p.elements}
    return manifold_poset(denjoy_blowup(layout.tree), points)


def build_predicate(expr: dict, group_spec: dict):
    """The predicate a spec expression names, read as the positive piece of a
    one-piece group-order document over the group ``group_spec`` names."""
    from treeorder.specio import cone_from_document, parse_document

    body = {"group": group_spec, "cones": {"positive": expr}}
    return cone_from_document(parse_document({"version": "1", "kind": "group-order", "body": body})).in_positive


def pairwise_ball_poset(cone, radius: int):
    """The ball order by one ``classify`` call per ordered pair, in
    row-major order: the construction ``induced_ball_poset`` used before it
    read whole rows.  It runs no axiom sweep and no left-invariance check,
    so on a cone whose pieces fail to partition it raises at the first
    quotient ``classify`` meets."""
    from treeorder.poset import ExtendedPoset

    return ExtendedPoset.from_relation(cone.group.ball(radius), cone.classify)


def naive_between_mask(p, a, b) -> int:
    """B(a, b) as a mask over ``p.elements``, one ``is_between`` call per
    element; ``is_between`` reads the three pair codes through
    ``between_by_codes``."""
    return sum(1 << k for k, c in enumerate(p.elements) if p.is_between(a, c, b))


def naive_laid_apart(state) -> list:
    """The "touching labels laid apart" entries of a build's identity
    report, by a scan over every pair of elements that carry a tag: g before
    h in the poset, B(g, h) = {g, h}, and the tag of each facing the other
    (treebuild.r_equivalent) both laid but resolving to two points.  In
    label order, as verification reports them."""
    from treeorder.treebuild import PLAIN, side_toward

    p = state.poset
    apart = []
    tagged = sorted({lab[0] for lab in state.nu if lab[1] != PLAIN}, key=p.index)
    for g, h in itertools.combinations(tagged, 2):
        if p._between_mask(p.index(g), p.index(h)).bit_count() != 2:
            continue
        u, v = (g, side_toward(p, g, h)), (h, side_toward(p, h, g))
        if u in state.nu and v in state.nu and state.find(state.nu[u]) != state.find(state.nu[v]):
            apart.append((state.label_key(u), state.label_key(v), u, v))
    return [{"labels": (state.format_label(u), state.format_label(v)), "problem": "touching labels laid apart"}
            for *_keys, u, v in sorted(apart)]


def naive_doubled_relations(p) -> dict:
    """Relation names of the doubled poset, pair by pair: (g, s) and (h, t)
    compare by tag when g == h and as g and h do otherwise."""
    elems = [(g, s) for g in p.elements for s in (-1, 0, 1)]
    return {
        (x, y): ("lt" if x[1] < y[1] else "gt") if x[0] == y[0] else p.classify(x[0], y[0])
        for x in elems for y in elems if x != y
    }


def naive_touching(doubled, x, y) -> bool:
    """The touching relation by its definition on a doubled poset (one built
    by ``blow_up_gplus``): a label touches itself, a plain label nothing
    else, and two tags touch when nothing lies between them, one
    ``is_between`` call per label."""
    if x == y:
        return True
    if x[1] == 0 or y[1] == 0:
        return False
    return not any(doubled.is_between(x, z, y) for z in doubled.elements if z != x and z != y)


def touching_extras(p) -> int:
    """The tags that touch a doubled between set from outside, checked
    against the doubled poset: for each pair a before b in ``p`` and each
    tag c outside B(a, b) of ``blow_up_gplus(p)`` that touches a label of
    it, assert that for each end e some label d of it touching c lies in
    B(e, c).  Returns the number of such c, summed over the pairs."""
    from treeorder.gplus import blow_up_gplus

    doubled = blow_up_gplus(p)
    tags = [x for x in doubled.elements if x[1] != 0]
    touch: dict = {}  # tag -> the tags it touches, with nothing between

    def touching(d) -> set:
        if d not in touch:  # a row already read answers for its pair
            touch[d] = {c for c in tags if c != d and (d in touch[c] if c in touch
                                                        else len(doubled.between_members(c, d)) == 2)}
        return touch[d]

    count = 0
    for a, b in itertools.combinations(p.elements, 2):
        ends = ((a, 0), (b, 0))
        inside = doubled.between_members(*ends)
        for c in set().union(*(touching(d) for d in inside if d[1] != 0)).difference(inside):
            count += 1
            partners = [d for d in inside if d[1] != 0 and c in touching(d)]
            for e in ends:
                assert any(doubled.is_between(e, d, c) for d in partners), (a, b, c, e)
    return count


def naive_incidences(tree, nid) -> tuple:
    """Rays at a node as (ins, outs), one scan of every arc in the repr order
    of display ids and then of every adjacency: an arc arriving at the node
    is an in-ray, one leaving it an out-ray, and a cap's adjacency the ray
    on the named side."""
    ins, outs = [], []
    for aid in sorted(tree.arcs, key=lambda aid: repr(tree.names[aid])):
        arc = tree.arcs[aid]
        if arc.head == nid:
            ins.append(aid)
        if arc.tail == nid:
            outs.append(aid)
    for cap, aid, side in tree.adjacencies:
        if cap == nid:
            (outs if side == "tail" else ins).append(aid)
    return ins, outs


_CONE_CONDITIONS = {
    1: "P misses its inverse set; U and L are inverse-closed",
    2: "P*P lands in P",
    3: "L*P lands in L",
    4: "P*U lands in U",
    5: "U*L lands in P",
    6: "pieces partition the ball",
}


def naive_cone_report(cone, radius: int) -> dict:
    """The cone-axiom sweep laid out as ``ConeReport.to_jsonable(group.format)``,
    pair by pair: every (g, h) in xs x ys is multiplied, kept when the
    product lies in the ball, and the piece predicate is called on the
    product.  Witness lists keep the first 25 violations."""
    group = cone.group
    ball = group.ball(radius)
    bset = set(ball)
    pos = [w for w in ball if cone.in_positive(w)]
    upp = [w for w in ball if cone.in_upper(w)]
    low = [w for w in ball if cone.in_lower(w)]
    found = {1: [], 6: []}
    checked = {1: len(ball), 6: len(ball)}
    skipped = {1: 0, 6: 0}
    for w in ball:
        wi = group.inv(w)
        if cone.in_positive(w) and cone.in_positive(wi):
            found[1].append((w, wi))
        if cone.in_upper(w) != cone.in_upper(wi) or cone.in_lower(w) != cone.in_lower(wi):
            found[1].append((w, wi))
        pieces = [w == group.identity, cone.in_positive(w), cone.in_positive(wi), cone.in_upper(w), cone.in_lower(w)]
        if sum(pieces) != 1:
            found[6].append((w,))
    sweeps = {2: (pos, pos, cone.in_positive), 3: (low, pos, cone.in_lower),
              4: (pos, upp, cone.in_upper), 5: (upp, low, cone.in_positive)}
    for idx, (xs, ys, member) in sweeps.items():
        found[idx] = []
        checked[idx] = 0
        for g in xs:
            for h in ys:
                z = group.mult(g, h)
                if z in bset:
                    checked[idx] += 1
                    if not member(z):
                        found[idx].append((g, h, z))
        skipped[idx] = len(xs) * len(ys) - checked[idx]
    conditions = {
        str(idx): {
            "description": text,
            "checked": checked[idx],
            "skipped": skipped[idx],
            "ok": not found[idx],
            "violation_count": len(found[idx]),
            "violations": [[group.format(x) for x in w] for w in found[idx][:25]],
        }
        for idx, text in _CONE_CONDITIONS.items()
    }
    return {"cone": cone.name, "radius": radius, "ball": len(ball),
            "ok": all(c["ok"] for c in conditions.values()), "conditions": conditions}


QUOTIENT_LAWS = {
    # law: (relation of (a, b), relation of (b, c), required relation of (a, c))
    1: ("lt", "lt", "lt"),
    2: ("simu", "siml", "lt"),
    3: ("simu", "gt", "simu"),
    4: ("siml", "lt", "siml"),
}


def naive_quotient_law_counts(p) -> tuple:
    """The quotient order's four laws, one loop over ordered triples of
    distinct elements: ({law: triples meeting its hypothesis}, [violations]).

    The laws: a < b < c gives a < c (1); a ~u b ~l c gives a < c (2);
    a ~u b and c < b give a ~u c (3); a ~l b < c gives a ~l c (4).  A
    violation is {"clause": law, "triple": (a, b, c)}.
    """
    counts = dict.fromkeys(QUOTIENT_LAWS, 0)
    violations = []
    for a, b, c in itertools.permutations(p.elements, 3):
        rab, rbc, rac = p.classify(a, b), p.classify(b, c), p.classify(a, c)
        for law, (want_ab, want_bc, want_ac) in QUOTIENT_LAWS.items():
            if rab == want_ab and rbc == want_bc:
                counts[law] += 1
                if rac != want_ac:
                    violations.append({"clause": law, "triple": (a, b, c)})
    return counts, violations


def naive_completely_convex(cone, sub, radius: int) -> tuple:
    """Complete convexity with one ``cone.classify`` call per pair, as
    ``check_completely_convex`` scanned before quotient keys:
    (pairs checked, [{"pair": (h1, h2), "witness": c}, ...])."""
    from treeorder.grouporder import ConeError
    from treeorder.poset import between_by_codes

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
    violations = []
    pairs = 0
    for i, h1 in enumerate(H):
        for h2 in H[i + 1:]:
            pairs += 1
            rac = cone.classify(h1, h2)
            for c in outside:
                if between_by_codes(rac, cone.classify(h1, c), cone.classify(c, h2)):
                    violations.append({"pair": (h1, h2), "witness": c})
                    break
    return pairs, violations


def naive_quotient_order(cone, sub, radius: int) -> dict:
    """The quotient order with one ``cone.classify`` call per coset scan
    step, as ``quotient_order`` scanned before quotient keys: the
    representatives, the relation code of every ordered pair of them, the
    uniqueness entries and the four law counts of the triple loop."""
    from treeorder.grouporder import ConeError
    from treeorder.poset import EQ, REL_NAMES, ExtendedPoset

    group = cone.group
    ball = group.ball(radius)
    H = [h for h in ball if sub(h)]
    for g in ball:
        for h in H:
            if not sub(group.mult(group.mult(g, h), group.inv(g))):
                raise ConeError(f"subgroup {sub.name} is not normal: conjugate of {group.format(h)} by {group.format(g)} escapes")
    _, violations = naive_completely_convex(cone, sub, radius)
    if violations:
        w = violations[0]
        raise ConeError(
            f"subgroup {sub.name} is not completely convex: {group.format(w['witness'])} lies between "
            f"{group.format(w['pair'][0])} and {group.format(w['pair'][1])}"
        )

    reps: list = []
    coset_of: dict = {}
    for g in ball:
        for rep in reps:
            if sub(group.mult(group.inv(rep), g)):
                coset_of[g] = rep
                break
        else:
            reps.append(g)
            coset_of[g] = g

    H_search = [h for h in group.ball(2 * radius) if sub(h)]

    def witnessed(g1, g2) -> dict:
        found: dict = {}
        for h in H_search:
            code = cone.classify(g1, group.mult(g2, h))
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

    poset = ExtendedPoset.from_relation(reps, lambda a, b: rel[(a, b)])
    return {"representatives": reps, "relations": rel, "uniqueness": uniqueness,
            "property_counts": naive_quotient_law_counts(poset)[0]}


class Product:
    """The direct product A × B as a group model, word length |a| + |b|,
    with a plain double loop for the cone sweep: the test-side model for
    the lexicographic cones of ``product_cone``."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.name = f"{a.name}x{b.name}"
        self.identity = (a.identity, b.identity)

    def mult(self, x: tuple, y: tuple) -> tuple:
        return (self.a.mult(x[0], y[0]), self.b.mult(x[1], y[1]))

    def inv(self, x: tuple) -> tuple:
        return (self.a.inv(x[0]), self.b.inv(x[1]))

    def ball(self, r: int) -> list:
        """By length, then A's ball order, then B's."""
        length, rank = {}, {}
        for model in (self.a, self.b):
            for k in range(r + 1):
                for w in model.ball(k):
                    length.setdefault((model, w), k)
            rank.update(((model, w), i) for i, w in enumerate(model.ball(r)))
        out = [(x, y) for x in self.a.ball(r) for y in self.b.ball(r - length[self.a, x])]
        return sorted(out, key=lambda w: (length[self.a, w[0]] + length[self.b, w[1]],
                                          rank[self.a, w[0]], rank[self.b, w[1]]))

    def format(self, x: tuple) -> str:
        return f"({self.a.format(x[0])}, {self.b.format(x[1])})"

    def inverse_positions(self, ball: list, r: int) -> list:
        return [ball.index(self.inv(w)) for w in ball]

    def bounded_products(self, xmap: bytes, ymap: bytes, r: int, zmap: bytes, ball: list, inv) -> tuple:
        xs = [w for w, x in zip(ball, xmap) if x]
        ys = [w for w, y in zip(ball, ymap) if y]
        inball, members = set(ball), {w for w, z in zip(ball, zmap) if z}
        checked, batches = 0, []
        for g in xs:
            zs = [z for z in (self.mult(g, h) for h in ys) if z in inball]
            checked += len(zs)
            if any(z not in members for z in zs):
                batches.append((g, ys))
        return checked, batches


def product_cone(ca, cb, swap: bool = False):
    """The lexicographic cone on A × B from cones on A and B: P = P_A×B ∪
    {e}×P_B, U = U_A×B and L = L_A×B (with ``swap``, U and L trade places).
    It can pass only when B's cone is a total order: the stabilizer of A's
    action is B."""
    from treeorder.grouporder import ConeStructure

    group, e = Product(ca.group, cb.group), ca.group.identity
    upper, lower = (ca.in_lower, ca.in_upper) if swap else (ca.in_upper, ca.in_lower)
    return ConeStructure(f"{ca.name}x{cb.name}", group,
                         lambda w: ca.in_positive(w[0]) or (w[0] == e and cb.in_positive(w[1])),
                         lambda w: upper(w[0]), lambda w: lower(w[0]))


def twist(cone, phi_inv):
    """The cone moved by a group automorphism phi, given by its inverse:
    each piece holds w exactly when the cone's piece holds phi_inv(w), so
    phi(g) < phi(h) in the twist exactly when g < h in the cone."""
    from treeorder.grouporder import ConeStructure

    return ConeStructure(f"{cone.name}-twisted", cone.group, lambda w: cone.in_positive(phi_inv(w)),
                         lambda w: cone.in_upper(phi_inv(w)), lambda w: cone.in_lower(phi_inv(w)))
