"""Tests of the benchmark itself (not of hexsim).

    python3 -m pytest perfbench/tests -q
"""

import copy
import dataclasses
import gc
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import hexsim.cli
import hexsim.control
import hexsim.dynamics
import hexsim.vehicle
from hexsim import experiments

import run
from check import check_iteration, load_reference
from phase_shares import phase_costs
from conftest import BENCH, ROOT
from layertrace import TARGETS, Tracer, metric_name
from workloads import (REPEATS, SEED_POOL, SWEEP_CELLS, WORKLOADS,
                       hexsim_seed, invocations)

SEEDS = (0, 7, 123456789, -3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_workload_builds_valid_configs(name, seed, workdir):
    workload = WORKLOADS[name]
    commands = invocations(workload, seed, workdir)
    parser = hexsim.cli.make_parser()
    for label, argv in commands:
        args = parser.parse_args(argv)
        config = hexsim.cli._apply_flags(hexsim.cli.load_config(args.config),
                                         args)
        assert config["run"]["seed"] == hexsim_seed(seed)
        assert config["run"]["duration"] == workload.duration
        if workload.axis is None:
            scenario = hexsim.cli.build_run_scenario(config)
            assert (scenario.id, scenario.controller) == ("exp3", label)
            assert scenario.disturbance.kind == "gust"
            assert scenario.controller_freq == 500.0
            assert scenario.duration == workload.duration
        else:
            assert args.command == "sweep"
            assert config["sweep"]["axis"] == workload.axis
            assert config["sweep"]["jobs"] == 1
            assert config["sweep"]["repeats"] == REPEATS
    # the same seed gives the same inputs
    again = invocations(workload, seed, workdir)
    assert again == commands


def test_seed_pool_and_grid_sizes():
    assert sorted({hexsim_seed(s) for s in range(3 * SEED_POOL)}) == \
        list(range(1, SEED_POOL + 1))
    assert SWEEP_CELLS == {"frequency": len(experiments.CONTROLLER_FREQS),
                           "noise": len(experiments.NOISE_SCALES)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_output_check_flags_perturbed_metric(name):
    reference = load_reference()
    artifacts = {"finite": True}
    for hseed, expected in reference["workloads"][name].items():
        assert check_iteration(name, int(hseed), expected, artifacts,
                               reference) == []
    results = copy.deepcopy(reference["workloads"][name]["1"])
    cell = sorted(results)[0]
    results[cell]["pos_norm_mean"] *= 1 + 1e-6
    problems = check_iteration(name, 1, results, artifacts, reference)
    assert len(problems) == 1 and "pos_norm_mean" in problems[0]
    # the paper's ordering: indi below geo in every cell
    results = copy.deepcopy(reference["workloads"][name]["1"])
    geo = next(k for k in sorted(results) if k.endswith("geo"))
    results[geo]["pos_norm_mean"] = 0.0
    problems = check_iteration(name, 1, results, artifacts, reference)
    assert any("not below geo" in p for p in problems)
    assert check_iteration(name, 1, reference["workloads"][name]["1"],
                           {"finite": False}, reference) != []


@pytest.fixture(scope="module")
def traced_iterations():
    """Two traced iterations of a shortened run_gust."""
    workload = dataclasses.replace(WORKLOADS["run_gust"], duration=2.02)
    tracer = Tracer()
    reference = load_reference()
    iterations = [run.run_iteration(workload, 3, tracer, True, reference)
                  for _ in range(2)]
    shutil.rmtree(run.iteration_dir(workload), ignore_errors=True)
    return workload, iterations


def test_tracer_restores_the_package(traced_iterations):
    assert hexsim.control.allocate is hexsim.vehicle.allocate
    assert hexsim.dynamics.step.__module__ == "hexsim.dynamics"
    assert hexsim.dynamics.step.__name__ == "step"
    assert "spanned" not in repr(hexsim.dynamics.DisturbanceSampler.step)


def test_self_times_within_traced_wall(traced_iterations):
    _, iterations = traced_iterations
    for it in iterations:
        self_ns = sum(v[1] for v in it["layers"].values())
        assert 0 < self_ns <= it["wall_s"] * 1e9


def test_calls_repeat_exactly(traced_iterations):
    workload, iterations = traced_iterations
    calls = [{k: v[0] for k, v in it["layers"].items()} for it in iterations]
    assert calls[0] == calls[1]
    steps = workload.runs * round(workload.duration / hexsim.dynamics.SIM_DT)
    assert calls[0]["dynamics.step"] == steps
    assert calls[0]["dynamics.derivative"] == 4 * steps
    assert calls[0]["experiments.run_scenario"] == workload.runs
    assert calls[0]["cli.write_log_csv"] == workload.runs


def test_per_layer_values_cover_every_metric(traced_iterations):
    _, iterations = traced_iterations
    untraced = dict(iterations[0], traced=False)
    values = run.per_layer_values([untraced] + iterations)
    assert sorted(values) == sorted(m[0] for m in run.per_layer_metrics())
    assert sum(v for k, v in values.items() if k.endswith(".share")) <= 1.0


def test_scaling_to_the_reference_machine_speed():
    ref = int(run.KERNEL_REF_S * 1e9)
    # samples at 0 (reference speed) and 2 s (twice as slow), each taking
    # its kernel time; the iteration spans 0..5 s with one run at 1..4 s
    samples = [(0, ref), (2 * 10**9, 2 * 10**9 + 2 * ref)]
    t0, t1 = 0, 5 * 10**9
    wall = (t1 - t0 - run.sampled_ns(samples, t0, t1)) / 1e9
    assert wall == pytest.approx(5.0 - 3 * run.KERNEL_REF_S)
    it = {"samples_ns": samples, "span_ns": [t0, t1],
          "run_spans_ns": [(10**9, 4 * 10**9)], "wall_s": wall,
          "cpu_s": 2 * wall}
    scaled_wall, cpu, sim = run.scaled_times(it)
    assert sim == pytest.approx(1.0 + (2.0 - 2 * run.KERNEL_REF_S) / 2)
    assert scaled_wall == pytest.approx((2.0 - run.KERNEL_REF_S)
                                        + (3.0 - 2 * run.KERNEL_REF_S) / 2)
    assert cpu == pytest.approx(2 * scaled_wall)
    # a set-up is scaled by the mean of the kernels around it
    kref = run.SETUP_KERNEL_REF_S
    assert run.scaled_setup((0.4, kref / 2, kref * 1.5)) == pytest.approx(0.4)
    assert run.scaled_setup((0.4, kref * 2, kref * 2)) == pytest.approx(0.2)


def test_speed_sampler_interleaves_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with run.SpeedSampler() as speed:
        end = time.perf_counter() + 3.5 * run.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 3
    starts = [s for s, _ in speed.samples]
    assert starts == sorted(starts)
    assert all(s < e for s, e in speed.samples)
    assert speed.cpu_s > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with run.SpeedSampler(active=False) as idle:
        pass
    assert idle.samples == [] and idle.cpu_s == 0.0


def test_speed_sample_runs_with_the_collector_off(monkeypatch):
    seen = []

    def kernel():
        seen.append(gc.isenabled())
        return 0, 1
    monkeypatch.setattr(run, "speed_kernel", kernel)
    run.SpeedSampler(active=False).sample()
    assert seen == [False]
    assert gc.isenabled()


def test_phase_costs_split_self_times_at_the_onset():
    tracer = Tracer()
    step = tracer.names.index("dynamics.step")
    loop = tracer.names.index("experiments.run_scenario")
    # run 0..100 ns; steps at 10..20 and 50..70; one tick 30..40 holding
    # an allocation 32..36
    tick = tracer.names.index("control.IndiController.tick")
    alloc = tracer.names.index("vehicle.allocate")
    spans = [(loop, 0, 100, -1), (step, 10, 20, 0), (tick, 30, 40, 0),
             (alloc, 32, 36, 2), (step, 50, 70, 0)]
    for name, start, end, parent in spans:
        tracer.span_name.append(name)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
        tracer.span_parent.append(parent)
        tracer.span_run.append(1)
    (before, after), walls = phase_costs(tracer, 1)
    assert walls == (50, 50)
    assert before == {"dynamics.step": (1, 10),
                      "control.IndiController.tick": (1, 6),
                      "vehicle.allocate": (1, 4),
                      "experiments.run_scenario": (1, 30)}
    assert after == {"dynamics.step": (1, 20),
                     "experiments.run_scenario": (1, 30)}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_metrics()
    assert len({metric_name(m, a) for m, a, _ in TARGETS}) == len(TARGETS)


def test_refuses_to_run_without_a_source_tree(workdir):
    shutil.copytree(BENCH, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run_gust",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
