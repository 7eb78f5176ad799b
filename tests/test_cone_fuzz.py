"""Cone-axiom sweeps over random piece populations.

P, U and L are seeded random subsets of ball(r) on every group model with a
sweep of its own: shifted int masks for Z and Z^k (r <= 4), rank blocks of
the ball for the free groups of rank 1 to 3 (r <= 5, r <= 4 at rank 3), and the
plain double loop for the dihedral group (r <= 4).  Whatever the pieces, the
report must equal the pairwise oracle's, witness order and count included.
Densities run from sparse to nearly full, so batches that pass and batches
that fail both occur.
"""

from __future__ import annotations

import random

import pytest

import oracles
from treeorder.grouporder import ConeStructure, verify_cone_axioms
from treeorder.groups import FreeGroup, InfiniteDihedral, Z, Zk

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# family: (model, largest radius); free3 stops at 4, where its ball has 937
# elements and the pairwise oracle forms up to 878k products per sweep
MODELS = {"z": (Z, 4), "z2": (lambda: Zk(2), 4), "z3": (lambda: Zk(3), 4), "free1": (lambda: FreeGroup(1), 5),
          "free2": (FreeGroup, 5), "free3": (lambda: FreeGroup(3), 4), "dihedral": (InfiniteDihedral, 4)}


def _random_cone(family: str, radius: int, seed: int) -> ConeStructure:
    group = MODELS[family][0]()
    rng = random.Random(seed)
    ball = group.ball(radius)
    pieces = []
    for _ in range(3):
        density = rng.choice((0.1, 0.5, 0.9))
        pieces.append({w for w in ball if rng.random() < density})
    P, U, L = pieces
    return ConeStructure(f"{family}-random", group, P.__contains__, U.__contains__, L.__contains__)


@hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
@hypothesis.given(case=st.sampled_from(sorted(MODELS)).flatmap(lambda f: st.tuples(st.just(f), st.integers(0, MODELS[f][1]))),
                  seed=st.integers(0, 2**32 - 1))
def test_random_pieces_sweep_like_the_pairwise_oracle(case, seed):
    family, radius = case
    cone = _random_cone(family, radius, seed)
    got = verify_cone_axioms(cone, radius).to_jsonable(cone.group.format)
    assert got == oracles.naive_cone_report(cone, radius)
