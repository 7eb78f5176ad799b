"""The six demos print exactly what they printed when these digests were
recorded: each runs in a fresh interpreter, and its exit status and the
sha256 of its stdout are compared.  After a deliberate change to a demo's
output, re-record with

    PYTHONPATH=src python3 tests/test_demos.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

DEMOS = {
    "01_cones_and_ball_orders.py": "a35ccb2e9fb3a5c3a6e9af4fb4840ab99af099a4009c2ed851bfcab0017ac120",
    "02_between_sets_and_classes.py": "44ece62fb67203c2ea8ebf4078ccee7b9ca34672cf93f85af4595d86dde392f3",
    "03_building_the_tree.py": "7e7c8d172b8f2937f0111212a7e244b9be270a5ddf20f2d724adba0a23ebf631",
    "04_blowup_and_orbit.py": "88cc46847ebeae8b25cf030223700eefc8c21cc8ee5161610fd4d45e6943f08b",
    "05_full_roundtrip.py": "5a331cc705825979240ef2b9f1b87ee9342c5227de0a2a37de669aef664b2e66",
    "06_convexity_and_quotients.py": "084c2c8823f671c4999b892a9894c3b99935be27b19bcf58f9863c343ca28278",
}


def run_demo(name: str) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env, capture_output=True, timeout=60)
    return done.returncode, hashlib.sha256(done.stdout).hexdigest()


def test_every_demo_is_pinned():
    assert sorted(DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output_is_unchanged(name):
    assert run_demo(name) == (0, DEMOS[name])


def test_demo_05_lists_the_elements_that_escape(monkeypatch, capsys):
    # builtin cones build the whole ball, so one escaped element is added
    spec = importlib.util.spec_from_file_location("full_roundtrip", ROOT / "demos" / "05_full_roundtrip.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    real, added = demo.roundtrip_orbit, []

    def one_more_escaped(cone, radius):
        rep = real(cone, radius=radius)
        inside = set(cone.group.ball(radius))
        extra = next(g for g in cone.group.ball(radius + 1) if g not in inside)
        added.append(cone.group.format(extra))
        return dict(rep, escaped=rep["escaped"] + 1, undetermined_elements=[*rep["undetermined_elements"], extra])

    monkeypatch.setattr(demo, "roundtrip_orbit", one_more_escaped)
    demo.main()
    listed = [line for line in capsys.readouterr().out.splitlines() if "undetermined" in line]
    assert len(added) == 6
    assert listed == [f"  undetermined beyond the window: {name}" for name in added]


if __name__ == "__main__":
    for name in sorted(p.name for p in (ROOT / "demos").glob("*.py")):
        print(f"    {name!r}: {run_demo(name)[1]!r},")
