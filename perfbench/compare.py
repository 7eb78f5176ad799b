"""Compare two CLI invocations by the benchmark's repetition rule.

    python3 perfbench/compare.py \\
        "check-cones free2-standard --radius 9 --threads 1" \\
        "check-cones free2-standard --radius 9 --threads 2"

Runs A and B in ten alternating pairs (A first in even pairs, B first in odd
ones), checks every output against reference.json, and prints each side's
median and quartiles.  B counts as faster only when it wins at least nine
tenths of the pairs and the medians differ by more than A's interquartile
range; likewise for A.  Otherwise the result is "no difference shown".
"""

from __future__ import annotations

import argparse
import statistics
import sys

from jobrun import check, command, job_env, load_reference, spawn
from workloads import cli

PAIRS = 10


def verdict(a: list, b: list) -> str:
    """Which side the pairs show faster, by the repetition rule."""
    wins_b = sum(y < x for x, y in zip(a, b))
    wins_a = sum(x < y for x, y in zip(a, b))
    med_a, med_b = statistics.median(a), statistics.median(b)
    for name, wins, base, gap in (("B", wins_b, a, med_a - med_b), ("A", wins_a, b, med_b - med_a)):
        q = statistics.quantiles(base, n=4)
        if wins >= 0.9 * len(a) and gap > q[2] - q[0]:
            return f"{name} faster"
    return "no difference shown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    jobs = [cli(*args.a.split()), cli(*args.b.split())]
    reference, env = load_reference(), job_env()
    times: list = [[], []]
    for i in range(PAIRS):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            res = spawn(command(jobs[side]), env)
            why = check(jobs[side].id, res, reference)
            if why is not None:
                print(f"FAILED {jobs[side].id}: {why}", file=sys.stderr)
                return 1
            times[side].append(res.wall_s)
    for label, job, t in zip("AB", jobs, times):
        q = statistics.quantiles(t, n=4)
        print(f"{label} {job.id}: median {statistics.median(t):.3f} s, quartiles {q[0]:.3f}-{q[2]:.3f} s")
    wins_b = sum(y < x for x, y in zip(*times))
    print(f"B won {wins_b} of {PAIRS} pairs: {verdict(*times)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
