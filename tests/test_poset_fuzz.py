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
"""

from __future__ import annotations

from itertools import combinations

import pytest

import oracles
from test_poset import constructor_error
from treeorder.poset import GT, LT, SIML, SIMU, SWAP

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
