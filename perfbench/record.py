"""Record the reference exit status and stdout digest of every benchmark job.

    python3 perfbench/record.py

Runs each job once under PYTHONHASHSEED=0 and once under PYTHONHASHSEED=1
and writes perfbench/reference.json.  A job whose two runs disagree is
written with ``"disagree": true``; the benchmark then counts it as failed.
Run this only at a commit whose output is known to be right.
"""

from __future__ import annotations

import json
import sys

from jobrun import REFERENCE_FILE, command, digest, job_env, spawn
from workloads import reference_jobs

HASHSEEDS = ("0", "1")


def main() -> int:
    entries = {}
    disagreements = 0
    for job in reference_jobs():
        seen = {}
        for hs in HASHSEEDS:
            res = spawn(command(job), job_env(hs), timeout=120.0)
            if res.timed_out:
                print(f"timed out: {job.id}", file=sys.stderr)
                return 1
            seen[hs] = {"exit": res.exit, "sha256": digest(res.stdout)}
        first = seen[HASHSEEDS[0]]
        if all(v == first for v in seen.values()):
            entries[job.id] = first
        else:
            disagreements += 1
            entries[job.id] = {**first, "disagree": True, "by_hashseed": seen}
            print(f"PYTHONHASHSEED changes the output of {job.id}", file=sys.stderr)
        print(f"{entries[job.id]['exit']} {entries[job.id]['sha256'][:12]} {job.id}", flush=True)
    doc = {"hashseeds": list(HASHSEEDS), "jobs": entries}
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(entries)} jobs recorded, {disagreements} disagreeing")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
