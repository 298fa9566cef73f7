"""Tooling that tier-1 does not collect still runs."""

import os
import subprocess
import sys
import sysconfig
from pathlib import Path

from hexsim import dynamics

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


def test_truth_step_compiles_without_warnings(tmp_path):
    # the run-time build has no -Werror: a warning fails here, not in a
    # user's first run.  A whole build, so that the warnings only the
    # optimiser emits (-Wmaybe-uninitialized) run too
    done = subprocess.run(
        [*sysconfig.get_config_var("CC").split(), *dynamics.CFLAGS,
         "-Wall", "-Wextra", "-Werror",
         "-I", sysconfig.get_paths()["include"],
         str(ROOT / "src" / "hexsim" / "_truth.c"),
         "-o", str(tmp_path / "_truth.so")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "_truth.so").stat().st_size > 0
