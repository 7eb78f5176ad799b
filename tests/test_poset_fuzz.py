"""The ExtendedPoset constructor against the naive per-pair oracle.

Rows on up to six points start from a code per unordered pair, each an
order read off a random ranking or a tag, written consistently into both
rows; a ranking keeps the order acyclic, so transitivity, the bound checks
and acyclicity all get reached.  Then up to two row bits are flipped, or moved
from one row to another, which reaches the row and swap checks; now and
then a row takes a bit at or past n or turns negative, and an element
repeats.
Whatever the rows, the constructor must accept exactly what
``oracles.naive_poset_error`` accepts, and otherwise raise its first error
with the same text.

Relabeling a poset, an index permutation plus a renaming of its elements
to ints, strings and tuples, must change no verdict of the relation suite,
and the relabeled poset must come back from the blow-up of its tree.
"""

from __future__ import annotations

from itertools import combinations

import pytest

import oracles
from test_poset import constructor_error
from treeorder.catalog import get_cone
from treeorder.corpus import all_extended_posets, run_relation_suite, tree_corpus
from treeorder.orbitorder import ConePipeline
from treeorder.poset import GT, LT, SIML, SIMU, SWAP, ExtendedPoset

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def rows_and_elements(draw):
    n = draw(st.integers(0, 6))
    rank = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(4)]  # up, down, simu, siml: codes LT..SIML
    for i, j in combinations(range(n), 2):
        code = draw(st.sampled_from((None, None, None, SIMU, SIML)))
        if code is None:
            code = LT if rank[i] < rank[j] else GT
        rows[code - LT][i] |= 1 << j
        rows[SWAP[code] - LT][j] |= 1 << i
    if n:
        for move, r, i, j in draw(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, n - 1),
                                                     st.integers(0, n - 1)), max_size=2)):
            if move:  # j leaves i's row for row r, and the rows stay total
                for row in rows:
                    row[i] &= ~(1 << j)
            rows[r][i] ^= 1 << j
        if draw(st.integers(0, 9)) == 0:  # a row that reaches past the elements
            r, i = draw(st.integers(0, 3)), draw(st.integers(0, n - 1))
            rows[r][i] = ~rows[r][i] if draw(st.booleans()) else rows[r][i] | 1 << draw(st.integers(n, n + 2))
    unique = draw(st.sampled_from((True,) * 7 + (False,)))
    elements = draw(st.lists(st.sampled_from("abcdefgh"), min_size=n, max_size=n, unique=unique))
    return tuple(elements), rows


@hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
@hypothesis.given(case=rows_and_elements())
def test_the_constructor_raises_the_naive_oracles_first_error(case):
    elements, rows = case
    assert constructor_error(elements, rows) == oracles.naive_poset_error(elements, *rows)


@pytest.fixture(scope="module")
def relabel_sources():
    balls = [ConePipeline(get_cone(name), radius).ball_poset
             for name, radius in (("z-standard", 3), ("dihedral-standard", 3), ("z2-lex", 2))]
    return [all_extended_posets(4), tree_corpus(100), balls]


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
@hypothesis.given(data=st.data())
def test_relabeling_changes_no_law_verdict_and_comes_back_from_the_tree(relabel_sources, data):
    p = data.draw(st.sampled_from(data.draw(st.sampled_from(relabel_sources))))
    order = data.draw(st.permutations(range(p.n)))  # the relabeled poset's k-th element is p's order[k]-th
    name = st.one_of(st.integers(-99, 99), st.text("abxyz", min_size=1, max_size=3), st.tuples(st.integers(0, 9)))
    names = tuple(data.draw(st.lists(name, min_size=p.n, max_size=p.n, unique=True)))
    old = dict(zip(names, order))
    q = ExtendedPoset.from_relation(names, lambda a, b: p._code(old[a], old[b]))
    verdicts = [{law: bool(found) for law, found in run_relation_suite(r).items()} for r in (p, q)]
    assert verdicts[0] == verdicts[1]
    back = oracles.tree_roundtrip(q)
    assert (back.elements, back.rows) == (q.elements, q.rows)
