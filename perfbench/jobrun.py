"""Spawning one job, timing it, and checking its output against the reference."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"

JOB_TIMEOUT_S = 30.0


@dataclass
class Result:
    exit: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kib: int
    timed_out: bool


def job_env(hashseed: str = "0") -> dict:
    """The job's environment: treeorder from this checkout, and a fixed
    string-hash seed.  With random hash seeds one job's wall time varied by
    20-30% from process to process; the output does not depend on the hash
    seed (reference.json is recorded under two)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = hashseed
    return env


def command(job, trace_out: Optional[Path] = None) -> list:
    if trace_out is not None:
        return [sys.executable, str(BENCH_DIR / "tracing.py"), str(trace_out), job.kind, *job.args]
    if job.kind == "cli":
        return [sys.executable, "-m", "treeorder.cli", *job.args]
    if job.kind == "law":
        return [sys.executable, str(BENCH_DIR / "lawjob.py"), *job.args]
    raise ValueError(f"unknown job kind {job.kind!r}")


def spawn(cmd: list, env: dict, timeout: float = JOB_TIMEOUT_S) -> Result:
    """Run ``cmd`` to completion; wall time runs from spawn to exit.  A job
    still running after ``timeout`` seconds is killed and marked timed out."""
    killed = []

    def kill() -> None:
        killed.append(True)
        proc.kill()

    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(timeout, kill)
    timer.start()
    err: list = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        # wait4 gives the child's own resource usage, including its peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Result(proc.returncode, out, err[0], wall, usage.ru_maxrss, bool(killed))


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text())["jobs"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(job_id: str, res: Result, reference: dict) -> Optional[str]:
    """Why the job failed its reference check, or None when it passed."""
    if res.timed_out:
        return "timed out"
    ref = reference.get(job_id)
    if ref is None:
        return "no reference recorded"
    if ref.get("disagree"):
        return "reference differs between PYTHONHASHSEED values"
    if res.exit != ref["exit"]:
        return f"exit status {res.exit}, reference {ref['exit']}"
    if digest(res.stdout) != ref["sha256"]:
        return "stdout differs from reference"
    return None
