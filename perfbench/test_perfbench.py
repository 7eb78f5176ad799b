"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

import jobrun
import run
from tracing import COUNTS, DETACHED, END, START, Tracer, self_times
from workloads import SETUP_JOB, WORKLOADS, Job, cli, law, reference_jobs

BENCH_DIR = Path(__file__).resolve().parent


def test_self_time_on_a_hand_made_span_tree():
    spans = [
        ["cli", "root", -1, 0.0, 10.0, False],
        ["catalog", "a", 0, 1.0, 4.0, False],
        ["poset", "b", 0, 3.0, 6.0, False],     # overlaps a on [3, 4]: covered once
        ["poset", "c", 1, 2.0, 3.0, False],
        ["groups", "d", 2, 50.0, 51.0, True],   # replayed after the job, 1 s
        ["poset", "e", 0, 9.0, 12.0, False],    # runs past its parent's end
    ]
    assert self_times(spans) == [10 - 5 - 1, 3 - 1, 3 - 1, 1, 1, 3]
    tracer = Tracer()
    tracer.spans = spans
    assert tracer.summary(import_s=0.0)["self_s"] == {
        "groups": 1, "grouporder": 0, "poset": 2 + 1 + 3, "corpus": 0, "treebuild": 0,
        "ordertree": 0, "orbitorder": 0, "catalog": 2, "specio": 0, "cli": 4,
    }


def test_wrapped_calls_nest_and_replays_are_detached():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def items(n):
        yield from range(n)

    sweep = tracer.defer(items)
    inner = tracer.wrap("groups", "inner", lambda: sum(sweep(3)))
    outer = tracer.wrap("grouporder", "outer", lambda: inner() + 1)
    assert outer() == 4
    tracer.replay()
    (o, i, r) = tracer.spans
    assert (o[2], i[2], r[2]) == (-1, 0, 1)
    assert not i[DETACHED] and r[DETACHED]
    assert o[START] < i[START] < i[END] < o[END]


def test_reference_check_fails_on_one_stdout_byte_and_on_exit_status():
    reference = jobrun.load_reference()
    res = jobrun.spawn(jobrun.command(SETUP_JOB), jobrun.job_env())
    assert jobrun.check(SETUP_JOB.id, res, reference) is None
    flipped = bytearray(res.stdout)
    flipped[len(flipped) // 2] ^= 1
    res_byte = jobrun.Result(res.exit, bytes(flipped), b"", res.wall_s, res.maxrss_kib, False)
    assert jobrun.check(SETUP_JOB.id, res_byte, reference) == "stdout differs from reference"
    res_exit = jobrun.Result(1, res.stdout, b"", res.wall_s, res.maxrss_kib, False)
    assert jobrun.check(SETUP_JOB.id, res_exit, reference).startswith("exit status 1")


def test_a_job_that_times_out_counts_as_failed(monkeypatch):
    stub = str(BENCH_DIR / "sleepjob.py")
    monkeypatch.setattr(run, "command", lambda job, trace_out=None: [sys.executable, stub, *job.args])
    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 0.5)
    runner = run.Runner(reference={})
    assert runner.run(Job("stub", ("30",))) is None
    assert runner.attempted == 1
    assert runner.failures == [("stub: 30", "timed out")]


def _traced_counts(job: Job, hashseed: str, out_dir: Path) -> dict:
    out = out_dir / f"{hashseed}.json"
    res = jobrun.spawn(jobrun.command(job, out), jobrun.job_env(hashseed))
    assert res.exit == 0, res.stderr
    trace = json.loads(out.read_text())
    assert set(trace["counts"]) == set(COUNTS)
    counts = {k: v for k, v in trace["counts"].items() if not k.endswith("_s")}
    calls = {k: v[0] for k, v in trace["names"].items()}
    return {"counts": counts, "calls": calls, "stdout": res.stdout}


@pytest.mark.parametrize("job", [
    cli("roundtrip", "dihedral-standard", "--radius", 6),
    cli("check-cones", "free2-standard", "--radius", 5),
    cli("build-tree", "z-standard", "--radius", 4, "--stages", 99),
    law("enum", 3),
    law("trees", 5, 7),
], ids=lambda job: job.id)
def test_traced_counts_repeat_across_runs_and_hash_seeds(job):
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=jobrun.ROOT) as tmp:
        first = _traced_counts(job, "0", Path(tmp))
        assert first["counts"] and first["calls"]
        assert _traced_counts(job, "0", Path(tmp)) == first
        assert _traced_counts(job, "1", Path(tmp)) == first


def test_every_workload_job_has_a_reference():
    recorded = jobrun.load_reference()
    assert {job.id for job in reference_jobs()} <= set(recorded)
    for workload in WORKLOADS.values():
        for seed in range(3):
            assert {job.id for job in workload.jobs(seed, 30)} <= set(recorded)


def test_the_seed_permutes_a_fixed_mix():
    w = WORKLOADS["tree-pipeline"]
    a, b = w.jobs(1, 30), w.jobs(2, 30)
    assert a != b and sorted(a, key=str) == sorted(b, key=str)
    assert w.jobs(1, 30) == a


def test_reported_metrics_are_those_of_benchmark_json():
    end_to_end = run.latency_metrics([0.2], [1.0, 2.0], [1024])
    assert set(end_to_end) == set(run.declared_units(trace=False))
    names = list(run.declared_units(trace=True))
    trace = {"import_s": 0.1, "self_s": dict.fromkeys(run.LAYERS, 1.0),
             "counts": dict.fromkeys(COUNTS, 2), "orbit": [[12, 0.5, 10]]}
    job = cli("roundtrip", "dihedral-standard", "--radius", 12)
    metrics, _ = run.layer_metrics([(job, trace)], names, 1.25)
    assert list(metrics) == names
    assert metrics["grouporder.sweeps_per_job"] == 2 and metrics["groups.products"] == 2
    assert metrics["orbitorder.us_per_pair.r12"] == pytest.approx(5e4)
    with pytest.raises(ValueError):
        run.layer_metrics([(job, trace)], ["no.such_count"], 1.0)


def test_seconds_past_the_limit_are_refused():
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "law-corpus", "--seed", "1", "--seconds", str(run.MAX_SECONDS + 1)])
    assert exc.value.code == 2
