"""The calls that perfbench/layertrace.py counts from outside the package.

The benchmark's per-layer trace wraps named functions at their module
attributes (or on their class) and reads, among others, the calls of
a run's set-up (one _script_target, for the start pose, and one
allocate and saturate, for the hover trim) and one cli.write_log_csv
call per `hexsim run`.  The closed loop is compiled whole, so the
Python layers it ports (dynamics.step, synthesize_sensors,
DisturbanceSampler.step, the controller ticks and their stages) read no
calls in a run.  These tests keep the package making exactly those
calls through the wrappable attributes, and every traced name
resolving.  layertrace.py is only read for its TARGETS table.

The benchmark also times, in a fresh interpreter, a set-up snippet that
calls the package with positional arguments and defaults of its own
choosing; two tests run that snippet as the benchmark does, one of them
checking that it loads no compiled code, and read perfbench/run.py only
for its SETUP_* assignments.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hexsim import cli, control, filters, vehicle
from hexsim import dynamics as dyn
from hexsim import experiments as ex

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"
BENCH_RUN = ROOT / "perfbench" / "run.py"


def layertrace_targets():
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = layertrace_targets()
    assert targets
    for module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def count_calls(monkeypatch, owner, leaf, record=None):
    """Replace owner.leaf with a call counter the way layertrace installs
    its wrappers: on the class for a method, and at every hexsim module
    attribute that holds it for a function.  record, if given, is called
    with each call's arguments.  Returns the one-element count list."""
    original = owner.__dict__[leaf]
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        if record is not None:
            record(*args, **kwargs)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, leaf, counted)
        return calls
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if ((name == "hexsim" or name.startswith("hexsim."))
                and mod.__dict__.get(leaf) is original):
            monkeypatch.setattr(mod, leaf, counted)
    return calls


@pytest.mark.parametrize("scenario_id, controller, overrides", [
    ("exp3", "indi", {"gust": True, "noise_scale": 3, "duration": 2.5}),
    ("exp4", "geo", {"controller_freq": 50.0, "duration": 2.2}),
], ids=["exp3-gust", "exp4-50Hz"])
def test_run_scenario_makes_the_traced_calls(monkeypatch, scenario_id,
                                             controller, overrides):
    counts = {
        "step": count_calls(monkeypatch, dyn, "step"),
        "sampler": count_calls(monkeypatch, dyn.DisturbanceSampler, "step"),
        "sensors": count_calls(monkeypatch, dyn, "synthesize_sensors"),
        "script_target": count_calls(monkeypatch, ex, "_script_target"),
    }
    ex.run_scenario(ex.build_scenario(scenario_id, controller, overrides))
    # the compiled loop steps, samples and senses without them; the
    # set-up looks up the start pose once
    assert {name: calls[0] for name, calls in counts.items()} == {
        "step": 0, "sampler": 0, "sensors": 0, "script_target": 1}


@pytest.mark.parametrize("controller", ["geo", "indi"])
def test_each_tick_makes_the_traced_layer_calls(monkeypatch, controller):
    counts = {
        "geo_tick": count_calls(monkeypatch, control.GeoNdiController,
                                "tick"),
        "indi_tick": count_calls(monkeypatch, control.IndiController,
                                 "tick"),
        "shaper": count_calls(monkeypatch, control.ReferenceShaper, "step"),
        "outer_loop": count_calls(monkeypatch, control, "outer_loop"),
        "ndi_invert": count_calls(monkeypatch, control, "ndi_invert"),
        "indi_invert": count_calls(monkeypatch, control, "indi_invert"),
        "allocate": count_calls(monkeypatch, vehicle, "allocate"),
        "saturate": count_calls(monkeypatch, vehicle, "saturate"),
        "filter": count_calls(monkeypatch, filters.SecondOrderFilter, "step"),
        "derivative": count_calls(monkeypatch, filters.FilteredDerivative,
                                  "step"),
    }
    ex.run_scenario(ex.build_scenario("exp5", controller,
                                      {"duration": 2.1, "noise_scale": 7}))
    # the tick runs inside the compiled loop: neither it nor its stages
    # are called through the package, and only the hover trim is
    # allocated (and so saturated), once before the loop
    assert {name: calls[0] for name, calls in counts.items()} == {
        "geo_tick": 0, "indi_tick": 0, "shaper": 0, "outer_loop": 0,
        "ndi_invert": 0, "indi_invert": 0, "allocate": 1, "saturate": 1,
        "filter": 0, "derivative": 0}


def test_a_run_waits_for_its_log_writer_once(monkeypatch, tmp_path):
    # the log is written by a forked process; the parent's one call of
    # write_log_csv is its wait for that process
    waits = count_calls(monkeypatch, cli, "write_log_csv")
    runs = count_calls(monkeypatch, ex, "run_scenario")
    assert cli.main(["run", "--scenario", "exp5", "--duration", "2.1",
                     "--out", str(tmp_path)]) == 0
    assert (waits[0], runs[0]) == (1, 1)
    assert (tmp_path / "log.csv").exists()


def test_a_command_builds_the_effectiveness_matrix_once(monkeypatch,
                                                       tmp_path):
    # the preflight and every run share the PlatformParams' one matrix,
    # also on a sweep's threads, and a later run on the same params reads
    # it without a build; a mismatched sweep builds one more, for the
    # believed platform that the preflight and every run share
    builds = count_calls(monkeypatch, vehicle, "build_effectiveness")
    for jobs in ("1", "2"):
        builds[0] = 0
        assert cli.main(["sweep", "--axis", "noise", "--repeats", "1",
                         "--jobs", jobs,
                         "--out", str(tmp_path / "sweep.csv")]) == 0
        assert builds[0] == 1
    (tmp_path / "c.ini").write_text("[run]\ncf_mismatch = 0.5\n")
    builds[0] = 0
    assert cli.main(["sweep", "--config", str(tmp_path / "c.ini"),
                     "--axis", "noise", "--repeats", "2",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    assert builds[0] == 2
    builds[0] = 0
    assert cli.main(["run", "--scenario", "exp5", "--duration", "2.1",
                     "--out", str(tmp_path / "run")]) == 0
    assert builds[0] == 1
    sc = ex.build_scenario("exp5", "indi", {"duration": 2.1})
    params = vehicle.default_params()
    ex.run_scenario(sc, params)
    builds[0] = 0
    ex.run_scenario(sc, params)
    assert builds[0] == 0


def setup_snippet():
    """perfbench/run.py's SETUP_SNIPPET, from the module-level SETUP_*
    assignments alone; the rest of that file is not run."""
    tree = ast.parse(BENCH_RUN.read_text())
    body = [node for node in tree.body if isinstance(node, ast.Assign)
            and all(isinstance(t, ast.Name) and t.id.startswith("SETUP_")
                    for t in node.targets)]
    namespace = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), str(BENCH_RUN),
                 "exec"), namespace)
    return namespace["SETUP_SNIPPET"]


def test_benchmark_setup_snippet_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", setup_snippet()], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.split()) == 3


def test_benchmark_setup_loads_no_compiled_code():
    # the set-up the benchmark times makes a controller but binds no
    # tick: neither dynamics nor the compiled library is imported
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = setup_snippet() + (
        "import sys\n"
        "print([m for m in ('hexsim.dynamics', 'hexsim._truth')"
        " if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
