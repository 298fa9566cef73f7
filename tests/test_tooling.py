"""Tooling that tier-1 does not collect still runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tick_runs_once():
    # tests/bench_tick.py, each benchmark called once without timing
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", str(ROOT / "tests" / "bench_tick.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "11 passed" in done.stdout.splitlines()[-1]
