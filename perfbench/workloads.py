"""Workload definitions: which jobs a run executes, and in what order.

A job is one fresh process: either a ``treeorder`` CLI invocation (kind
``cli``) or the benchmark's own law-corpus driver ``lawjob.py`` (kind
``law``).  A workload is a cycle of jobs; a run executes a fixed number of
whole cycles, each shuffled by the workload seed.

A cycle runs every radius of every band once.  The seed decides the order in
which the jobs run, not which radii: one job's wall time spans 4x across a
band (0.6 s at dihedral r 12, 2.2 s at r 20), so seed-drawn radii would move
``jobs_per_s`` by more than its bound from seed to seed.  On law-corpus the
seed does pick inputs: the ``tree_corpus`` seeds, whose per-job cost varies
by a tenth of a second.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Past the last stage of every cone and radius below, so each build is whole.
ALL_STAGES = "99"

# tree_corpus seeds a run may draw; each has a recorded reference digest.
TREE_SEED_POOL = tuple(range(32))
TREE_COUNT = 100
TREE_JOBS_PER_CYCLE = 4


@dataclass(frozen=True)
class Job:
    kind: str   # "cli" or "law"
    args: tuple

    @property
    def id(self) -> str:
        return f"{self.kind}: {' '.join(self.args)}"


def cli(*args) -> Job:
    return Job("cli", tuple(str(a) for a in args))


def law(*args) -> Job:
    return Job("law", tuple(str(a) for a in args))


SETUP_JOB = cli("examples", "list")


# (command, arguments after the radius, radii)
TREE_PIPELINE_BANDS = [
    (("roundtrip", "dihedral-standard"), (), range(12, 21)),
    (("roundtrip", "z2-lex"), (), range(4, 7)),
    (("roundtrip", "free2-standard"), (), (3,)),
    (("build-tree", "z-standard"), ("--stages", ALL_STAGES), range(8, 11)),
    (("build-tree", "dihedral-standard"), ("--stages", ALL_STAGES), range(6, 9)),
    (("build-tree", "z2-lex"), ("--stages", ALL_STAGES), (2,)),
    (("examples", "run", "dihedral"), (), range(8, 15)),
]
CONE_SWEEP_BANDS = [
    (("check-cones", "free2-standard"), (), range(7, 10)),
    (("check-cones", "z3-lex"), (), range(8, 12)),
    (("check-cones", "z2-lex"), (), range(20, 31)),
    (("check-cones", "dihedral-standard"), (), (40,)),
    (("check-cones", "z-broken"), (), (8,)),   # exits 1 with a witness
    (("quotient", "z2-lex", "--subgroup", "second-factor"), (), range(6, 10)),
]
# exits 1: the even integers are not convex (default radius)
NONCONVEX_QUOTIENT = cli("quotient", "z-standard", "--subgroup", "even")


def _band_jobs(bands: list) -> list:
    return [cli(*head, "--radius", r, *tail) for head, tail, radii in bands for r in radii]


def _law_corpus_cycle(rng: random.Random) -> list:
    seeds = rng.sample(TREE_SEED_POOL, TREE_JOBS_PER_CYCLE)
    return [law("enum", 4), law("enum", 5)] + [law("trees", TREE_COUNT, s) for s in seeds]


@dataclass(frozen=True)
class Workload:
    # Wall seconds of one cycle at the commit that defined the benchmark (2
    # cores, CPython 3.11).  Only used to turn --seconds into a whole number of
    # cycles, so the job count of a run does not depend on the program's speed.
    nominal_cycle_s: float
    # One cycle's jobs, before shuffling; draws from the rng where the seed
    # picks inputs.
    build: Callable[[random.Random], list]

    def cycles_for(self, seconds: float) -> int:
        return max(1, int(seconds // self.nominal_cycle_s))

    def jobs(self, seed: int, seconds: float) -> list:
        """The run's job list: whole cycles, each shuffled by the seed."""
        rng = random.Random(seed)
        out = []
        for _ in range(self.cycles_for(seconds)):
            cycle = self.build(rng)
            rng.shuffle(cycle)
            out += cycle
        return out


WORKLOADS = {
    "tree-pipeline": Workload(26.0, lambda rng: _band_jobs(TREE_PIPELINE_BANDS)),
    "cone-sweep": Workload(21.0, lambda rng: _band_jobs(CONE_SWEEP_BANDS) + [NONCONVEX_QUOTIENT]),
    "law-corpus": Workload(7.5, _law_corpus_cycle),
}


def reference_jobs() -> list:
    """Every job a seed can draw, plus the set-up and comparison jobs."""
    jobs = [SETUP_JOB, NONCONVEX_QUOTIENT]
    jobs += _band_jobs(TREE_PIPELINE_BANDS) + _band_jobs(CONE_SWEEP_BANDS)
    jobs += [law("enum", 4), law("enum", 5)]
    jobs += [law("trees", TREE_COUNT, s) for s in TREE_SEED_POOL]
    jobs += [cli("check-cones", "free2-standard", "--radius", 9, "--threads", t) for t in (1, 2)]
    return jobs
