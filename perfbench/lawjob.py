"""Law-corpus job: enumerate or sample tagged posets and run the law suite.

    python3 perfbench/lawjob.py enum N           # all_extended_posets(N)
    python3 perfbench/lawjob.py trees COUNT SEED # tree_corpus(COUNT, SEED)

Prints the counts and verdicts; exits 0 when every poset passes, 1 when one
fails, 2 on bad arguments.  Needs ``treeorder`` importable (PYTHONPATH=src).
"""

from __future__ import annotations

import sys

from treeorder.corpus import all_extended_posets, run_relation_suite, tree_corpus

LAWS = ("theorem", "travel", "propagation", "o_equivalence")


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "enum":
        posets = all_extended_posets(int(argv[1]))
        print(f"enum n={argv[1]}: {len(posets)} extended posets")
    elif len(argv) == 3 and argv[0] == "trees":
        posets = tree_corpus(int(argv[1]), int(argv[2]))
        points = sum(p.n for p in posets)
        print(f"trees count={argv[1]} seed={argv[2]}: {len(posets)} posets, {points} points")
    else:
        print("usage: lawjob.py enum N | trees COUNT SEED", file=sys.stderr)
        return 2
    failures = dict.fromkeys(LAWS, 0)
    passed = 0
    for p in posets:
        report = run_relation_suite(p)
        passed += report["ok"]
        for law in LAWS:
            failures[law] += bool(report[law])
    for law in LAWS:
        print(f"  {law}: {failures[law]} failing")
    print(f"result: {passed} pass, {len(posets) - passed} fail")
    return 0 if passed == len(posets) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
