"""Cone-axiom sweeps over random piece populations.

P, U and L are seeded random subsets of ball(r), r <= 4, on every group
model with a sweep of its own (int codes for Z and Z^k, prefix buckets for
the free group, the plain double loop for the dihedral group).  Whatever
the pieces, the report must equal the pairwise oracle's, witness order and
count included.  Densities run from sparse to nearly full, so batches that
pass and batches that fail both occur.
"""

from __future__ import annotations

import random

import pytest

import oracles
from treeorder.grouporder import ConeStructure, verify_cone_axioms
from treeorder.groups import FreeGroup, InfiniteDihedral, Z, Zk

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MODELS = {"z": Z, "z2": lambda: Zk(2), "z3": lambda: Zk(3), "free2": FreeGroup, "dihedral": InfiniteDihedral}


def _random_cone(family: str, radius: int, seed: int) -> ConeStructure:
    group = MODELS[family]()
    rng = random.Random(seed)
    ball = group.ball(radius)
    pieces = []
    for _ in range(3):
        density = rng.choice((0.1, 0.5, 0.9))
        pieces.append({w for w in ball if rng.random() < density})
    P, U, L = pieces
    return ConeStructure(f"{family}-random", group, P.__contains__, U.__contains__, L.__contains__)


@hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
@hypothesis.given(family=st.sampled_from(sorted(MODELS)), radius=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_random_pieces_sweep_like_the_pairwise_oracle(family, radius, seed):
    cone = _random_cone(family, radius, seed)
    got = verify_cone_axioms(cone, radius).to_jsonable(cone.group.format)
    assert got == oracles.naive_cone_report(cone, radius)
