"""A table of source mutants, each of which some named test must kill.

Run from anywhere: ``python tests/mutants.py``.  Pytest does not collect
this file: its name does not start with ``test_``.

Each row is ``(id, file under src/treeorder, old, new, tests)``.  For each
row the runner copies ``src/`` to a temporary directory, requires ``old`` to
occur exactly once in the file, replaces it by ``new`` and runs
``python -m pytest -x -q`` on the row's tests with the copy first on
``PYTHONPATH``.  The tests must fail: a mutant whose tests pass survives.
Before the rows, the tests of every row run once against the
unmutated copy and must pass, so a kill means the mutant was seen.  A
stale site (``old`` missing or repeated), a surviving mutant or a failing
unmutated run names its row and exits 1; otherwise the runner exits 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    # the cone sweep: condition (1) reads U and L at w^-1 with an AND, so a
    # w in U whose inverse is in L no longer counts as one piece apart
    ("inverse-checks-and", "grouporder.py",
     "((u ^ ui) | (l ^ li))", "((u ^ ui) & (l ^ li))",
     ["tests/test_grouporder.py"]),
    # the free-group sweep counts no product of a block
    ("freesweep-no-escape", "freesweep.py",
     "if any(map(and_, gpats, map(blocks.__getitem__, heads))):", "if False:",
     ["tests/test_cone_fuzz.py"]),
    # the ball poset reads each row's bits from the wrong end
    ("ball-rows-reversed", "grouporder.py",
     "text = codes[::-1]  # bit j of a row is ball[j]", "text = codes",
     ["tests/test_grouporder.py"]),
    # the chain test drops the member's own bit, so no member compares with itself
    ("chain-own-bit", "poset.py",
     "if mask & ~(self._comp[k] | (1 << k)):", "if mask & ~self._comp[k]:",
     ["tests/test_poset.py::test_a_chain_test_visits_only_members_short_of_a_comparability"]),
    # the chain test visits the members that compare with everything instead
    ("chain-visits-total-members", "poset.py",
     "if c | 1 << k != (1 << self.n) - 1)", "if c | 1 << k == (1 << self.n) - 1)",
     ["tests/test_poset.py::test_a_chain_test_visits_only_members_short_of_a_comparability"]),
    # the chain test reads upward comparabilities only
    ("chain-up-only", "poset.py",
     "if mask & ~(self._comp[k] | (1 << k)):", "if mask & ~(self._up[k] | (1 << k)):",
     ["tests/test_poset.py::test_a_chain_test_visits_only_members_short_of_a_comparability"]),
    # two tags touch across a between set of three
    ("touch-across-three", "treebuild.py",
     "p._between_mask(p.index(g), p.index(h)).bit_count() == 2",
     "p._between_mask(p.index(g), p.index(h)).bit_count() <= 3",
     ["tests/test_treebuild.py"]),
    # a truncated-limit glue point is not marked, so its gaps are checked, not listed
    ("truncated-unmarked", "treebuild.py",
     "        state.truncated.add(point)\n", "        pass\n",
     ["tests/test_treebuild.py::test_truncated_limit_gluing_leaves_gaps_undetermined"]),
    # a negative stage count is sliced again
    ("negative-stages-laid", "treebuild.py",
     "if stages is not None and stages < 0:", "if stages is not None and stages < -1:",
     ["tests/test_treebuild.py::test_each_refusal_of_the_construction_is_pinned"]),
    # points on arcs facing each other compare as back to back, and conversely
    ("arc-order-similarity-swapped", "ordertree.py",
     "return SIMU if forward else SIML", "return SIML if forward else SIMU",
     ["tests/test_orbitorder.py"]),
    # the certificate accepts a comparability that one side alone holds
    ("certificate-one-sided", "corpus.py",
     "            if (ci >> j ^ comp[j] >> i) & 1:\n                return False\n", "",
     ["tests/test_poset.py::test_the_certificate_refuses_a_comparability_seen_from_one_side"]),
    # a round trip passes at seven tenths pair coverage
    ("roundtrip-coverage-seven-tenths", "orbitorder.py",
     "pair_coverage * 10 >= 9", "pair_coverage * 10 >= 7",
     ["tests/test_cli.py::test_a_round_trip_below_nine_tenths_pair_coverage_fails_everywhere"]),
]


def _pytest(src: Path, tests: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                          cwd=ROOT, env=env, capture_output=True, text=True)


def _copy(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def run(rows: list) -> list:
    """The failures as (row id, reason), after the unmutated run and each row."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="treeorder-mutants-") as tmp:
        every = list(dict.fromkeys(t for row in rows for t in row[4]))
        done = _pytest(_copy(Path(tmp) / "clean"), every)
        if done.returncode != 0:
            return [("unmutated", "the tests fail before any mutation:\n" + done.stdout[-2000:])]
        for ident, name, old, new, tests in rows:
            started = time.perf_counter()
            src = _copy(Path(tmp) / ident)
            path = src / "treeorder" / name
            text = path.read_text()
            if text.count(old) != 1:
                failures.append((ident, f"stale site: {old!r} occurs {text.count(old)} times in {name}"))
                continue
            path.write_text(text.replace(old, new))
            done = _pytest(src, tests)
            verdict = {0: "survived", 1: "killed"}.get(done.returncode, f"pytest exited {done.returncode}")
            print(f"{ident}: {verdict} ({time.perf_counter() - started:.1f} s)", flush=True)
            if verdict != "killed":
                failures.append((ident, f"{verdict} on {' '.join(tests)}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"))
    return failures


def main() -> int:
    failures = run(MUTANTS)
    for ident, reason in failures:
        print(f"FAIL {ident}: {reason}", file=sys.stderr)
    if not failures or failures[0][0] != "unmutated":
        print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
