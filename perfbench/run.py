"""treeorder benchmark: CLI verdict latency per workload, or a traced
per-layer split.

    python3 perfbench/run.py --workload tree-pipeline --seed 1 --seconds 30 --trace 0

Closed loop, one client: one job at a time, each a fresh process (see
workloads.py).  Every job's exit status and stdout digest must match
perfbench/reference.json.  Human-readable lines go first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status 0 when every job passed its check, 1 when one
failed, 2 when the checkout cannot run the benchmark.

--trace 0 reports the end-to-end metrics: jobs_per_s, job_p50_s, job_tail_s,
setup_s, peak_rss_mib, with times scaled to a reference host speed (see
Runner) and the unscaled figures on a line of their own.  --trace 1 runs one cycle untraced and the same cycle
traced (tracing.py) and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from jobrun import BENCH_DIR, ROOT, SRC_DIR, JOB_TIMEOUT_S, check, command, job_env, load_reference, spawn
from tracing import COUNTS, LAYERS
from workloads import SETUP_JOB, WORKLOADS

SETUP_RUNS = 7
PROBE = [sys.executable, str(BENCH_DIR / "calibrate.py")]
PROBE_REF_S = 0.1       # the probe's wall time on a quiet host: sets the scale of host-scaled times
TAIL_BEYOND = 10        # job_tail_s: the slowest job with this many jobs beyond it
# Largest --seconds accepted.  A run holds at most --seconds of job time at
# the nominal speed (workloads.py); probes and set-up add up to half again on
# a busy host, so a run at the limit ends within 180 s even when the program
# is somewhat slower than today.
MAX_SECONDS = 60
SPEC_FILE = ROOT / "BENCHMARK.json"
PER_JOB = "_per_job"    # a per-layer metric NAME_per_job is the count NAME over the jobs traced

PAIR_COST_JOBS = {
    "orbitorder.us_per_pair.r12": "cli: roundtrip dihedral-standard --radius 12",
    "orbitorder.us_per_pair.r20": "cli: roundtrip dihedral-standard --radius 20",
}


def declared_units(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads(SPEC_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def tail_value(walls: list) -> float:
    ordered = sorted(walls)
    return ordered[max(0, len(ordered) - 1 - TAIL_BEYOND)]


class Runner:
    """Runs jobs in a closed loop and tallies their reference checks.

    With ``probe`` set, a host-speed probe (calibrate.py) runs between jobs,
    and each job's wall time is also given scaled to the reference host
    speed: wall * PROBE_REF_S / (mean of the probes just before and after).
    On a shared 2-core host one job's wall time moved by up to 50% within
    seconds; the probe follows those swings, so the scaled times spread far
    less from run to run (see NOTES.md).
    """

    def __init__(self, reference: dict, probe: bool = False):
        self.reference = reference
        self.env = job_env()
        self.probe = probe
        self.attempted = 0
        self.failures: list = []
        self._last_probe_s = None

    def _probe_s(self) -> float:
        return spawn(PROBE, self.env).wall_s

    def run(self, job, trace_out=None):
        """Run one job; returns (Result, host-scaled wall seconds), or None
        if it failed its check."""
        self.attempted += 1
        if self.probe and self._last_probe_s is None:
            self._last_probe_s = self._probe_s()
        res = spawn(command(job, trace_out), self.env, JOB_TIMEOUT_S)
        scaled = res.wall_s
        if self.probe:
            after = self._probe_s()
            scaled *= 2 * PROBE_REF_S / (self._last_probe_s + after)
            self._last_probe_s = after
        why = check(job.id, res, self.reference)
        if why is None and trace_out is not None and not trace_out.exists():
            why = "traced job wrote no trace"
        if why is not None:
            self.failures.append((job.id, why))
            tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"FAILED {job.id}: {why} {' '.join(tail)}", file=sys.stderr)
            return None
        return res, scaled

    def run_all(self, jobs: list, trace_dir=None) -> tuple:
        """Run ``jobs`` in order; returns (list of (job, Result, scaled wall,
        trace file) for the jobs that passed, elapsed seconds)."""
        results = []
        start = time.perf_counter()
        for idx, job in enumerate(jobs):
            out = None if trace_dir is None else trace_dir / f"{idx}.json"
            done = self.run(job, out)
            if done is not None:
                results.append((job, *done, out))
        return results, time.perf_counter() - start


def latency_metrics(setup: list, walls: list, rss_kib: list) -> dict:
    walls = walls or [float("nan")]
    return {
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_value(walls),
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "peak_rss_mib": max(rss_kib, default=0) / 1024,
    }


def end_to_end(runner: Runner, jobs: list) -> tuple:
    """Host-scaled metrics, and the same metrics from raw wall times."""
    setup, _ = runner.run_all([SETUP_JOB] * SETUP_RUNS)
    results, _ = runner.run_all(jobs)
    rss = [res.maxrss_kib for _, res, _, _ in results]
    scaled = latency_metrics([s for _, _, s, _ in setup], [s for _, _, s, _ in results], rss)
    raw = latency_metrics([r.wall_s for _, r, _, _ in setup], [r.wall_s for _, r, _, _ in results], rss)
    return scaled, raw


def per_layer(runner: Runner, jobs: list, names: list) -> tuple:
    """One untraced and one traced pass over ``jobs``; returns the per-layer
    metrics ``names`` and each layer's share of the summed self time."""
    _, untraced_s = runner.run_all(jobs)
    trace_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        results, traced_s = runner.run_all(jobs, trace_dir)
        traces = [(job, json.loads(out.read_text())) for job, _, _, out in results]
    finally:
        shutil.rmtree(trace_dir)
    return layer_metrics(traces, names, traced_s / untraced_s)


def layer_metrics(traces: list, names: list, overhead_ratio: float) -> tuple:
    """The per-layer metrics ``names`` from (job, trace) pairs, and each
    layer's share of the summed self time.  A name that is not a layer's
    self time or a derived figure is a work count summed over the jobs."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    for _, t in traces:
        for layer, v in t["self_s"].items():
            self_s[layer] += v
        for k, v in t["counts"].items():
            counts[k] += v
    derived = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    derived["corpus.keep_ratio"] = counts["corpus.kept"] / counts["corpus.candidates"] if counts["corpus.candidates"] else 0.0
    for metric, job_id in PAIR_COST_JOBS.items():
        orbit = [o for job, t in traces if job.id == job_id for o in t["orbit"]]
        pairs = sum(o[2] for o in orbit)
        derived[metric] = 1e6 * sum(o[1] for o in orbit) / pairs if pairs else 0.0
    derived["import_s"] = statistics.median(t["import_s"] for _, t in traces) if traces else 0.0
    derived["trace.overhead_ratio"] = overhead_ratio
    m = {}
    for name in names:
        if name in derived:
            m[name] = derived[name]
        elif name.endswith(PER_JOB) and name[:-len(PER_JOB)] in counts:
            m[name] = counts[name[:-len(PER_JOB)]] / max(1, len(traces))
        elif name in counts:
            m[name] = counts[name]
        else:
            raise ValueError(f"{SPEC_FILE.name} names {name}, which the traced run does not give")
    total = sum(self_s.values()) or 1.0
    return m, {layer: v / total for layer, v in self_s.items()}


def seconds_arg(text: str) -> float:
    value = float(text)
    if not 0 < value <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"must be more than 0 and at most {MAX_SECONDS}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=seconds_arg, required=True, help=f"at most {MAX_SECONDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "treeorder" / "cli.py").is_file():
        print(f"error: no treeorder source under {SRC_DIR}", file=sys.stderr)
        return 2
    reference = load_reference()
    units = declared_units(bool(args.trace))
    workload = WORKLOADS[args.workload]
    runner = Runner(reference, probe=not args.trace)
    runner.run(SETUP_JOB)   # warm-up: writes bytecode caches on a fresh checkout
    if args.trace:
        jobs = workload.jobs(args.seed, 0)   # one cycle
        metrics, shares = per_layer(runner, jobs, list(units))
        print("layer shares of self time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    else:
        jobs = workload.jobs(args.seed, args.seconds)
        metrics, raw = end_to_end(runner, jobs)
        if set(metrics) != set(units):
            print(f"error: {SPEC_FILE.name} lists {sorted(units)}, the run gives {sorted(metrics)}", file=sys.stderr)
            return 2
        print(f"{args.workload}: {len(jobs)} jobs; job_tail_s is the job with {TAIL_BEYOND} slower jobs beyond it")
        print("unscaled wall times: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    failed = len(runner.failures)
    print(f"failed_ratio: {failed / runner.attempted:.4f} ratio ({failed} of {runner.attempted})")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
