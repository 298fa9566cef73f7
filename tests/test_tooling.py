"""Tooling that tier-1 does not collect still runs."""

import os
import subprocess
import sys
from importlib.machinery import ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
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
    assert "17 passed" in done.stdout.splitlines()[-1]


def test_truth_step_compiles_without_warnings(tmp_path):
    # the run-time build has no -Werror: a warning fails here, not in a
    # user's first run.  A whole build, so that the warnings only the
    # optimiser emits (-Wmaybe-uninitialized) run too, of every entry
    # point: the step, the controller tick, the closed loop, the error
    # statistics and the log writer, and nothing else.  -Wunused-macros
    # catches an offset that a change of a layout left behind
    done = subprocess.run(
        [*dynamics.compile_command(str(ROOT / "src" / "hexsim" / "_truth.c")),
         "-Wall", "-Wextra", "-Wunused-macros", "-Werror",
         "-o", str(tmp_path / "_truth.so")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loader = ExtensionFileLoader("hexsim._truth", str(tmp_path / "_truth.so"))
    module = module_from_spec(spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    assert {name for name in vars(module) if not name.startswith("_")} == {
        "statistics", "step", "tick", "ticks", "write_csv"}
