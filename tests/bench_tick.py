"""Micro-benchmarks of the per-tick work (pytest-benchmark).

Tier-1 does not collect this file (its name does not start with test_);
run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_tick.py

It times one dynamics.step call over the 4 truth steps of a 500 Hz tick
and one over the 40 of a 50 Hz tick (divide by extra_info["steps"] for
the cost of a truth step), one geo and one indi controller tick on the
inputs the oracle loop passes (lists of Python floats), one sensor
synthesis at exp5's noise level 7 and one draw of exp3's gust sampler
over the 4 truth steps of a 500 Hz tick inside its window, both drawing
from a numpy Generator: the Python layers and compiled calls of the loop
that tests/oracles.py keeps.  Then one whole run of
the compiled closed loop, the one _truth.c ticks call of run_scenario,
which seeds its stream and allocates and returns its log, of the 2.1 s
500 Hz noisy indi hover of the sweep_noise workload and of a 5.2 s
50 Hz geo exp4 hover like the sweep_freq workload's
(extra_info["us_per_tick"] holds its median per tick), one 500 Hz
run_scenario of the 2.1 s noisy hover of the sweep_noise benchmark
workload (exp5 at noise level 7) and one 50 Hz run_scenario of the
2.2 s exp4 hover of the sweep_freq workload, where the truth step
dominates.  Then the log writer: one _truth.c write_csv call, on its
two threads, of a whole 7 s exp3 gust log (the run_gust workload's) to
/dev/null (extra_info["ns_per_value"] holds its median per value).
Then one experiments._log_and_metrics, a run's metrics from its
finished rows (the one _truth.c statistics pass, and the roll of the
rows from the 5 s onset for exp4's rise time), of a 2.2 s 50 Hz exp4
cell like the sweep_freq workload's, which converts no roll, and of the
7 s exp3 gust run of the run_gust workload.  Then one
vehicle.build_effectiveness of the default platform, which a
PlatformParams calls once, for its `effectiveness` that every run on it
shares.  Last, one cli._sweep_cell of a 2.2 s
50 Hz geo exp4 cell of one repeat on a shared PlatformParams, as the
sweep_freq workload runs it: the Python around the compiled loop.
"""

import math
import os

import numpy as np
import pytest

from hexsim import cli, vehicle
from hexsim import dynamics as dyn
from hexsim import experiments as ex
from hexsim.control import ControllerInputs, Gains, make_controller, \
    make_model
from oracles import pack

HOVER_Q = [1.0, 0.0, 0.0, 0.0]
ZERO = (0.0, 0.0, 0.0)
CALM = (0.0,) * 6  # a held wrench with no force and no moment


@pytest.fixture(scope="module")
def hover(kernel, trim):
    """Hover state and the controller inputs synthesised from it, with
    the sensor noise of exp5 at noise level 7."""
    x = pack(np.zeros(3), np.zeros(3), HOVER_Q, np.zeros(3),
             trim.w_cmd).tolist()
    accel, gyro, w_meas = dyn.synthesize_sensors(
        x, kernel, ZERO, math.sqrt(7.0), np.random.default_rng(1))
    inputs = ControllerInputs(
        pos=x[dyn.P], vel=x[dyn.V], q=x[dyn.Q], gyro=gyro, accel=accel,
        rotor_w_meas=w_meas)
    return x, inputs


@pytest.mark.parametrize("steps", [4, 40], ids=["500Hz-tick", "50Hz-tick"])
def test_dynamics_step(benchmark, kernel, trim, hover, steps):
    x, _ = hover
    benchmark.extra_info["steps"] = steps
    benchmark(dyn.step, x, kernel, trim, [CALM] * steps, dyn.SIM_DT)


def test_synthesize_sensors(benchmark, kernel, hover):
    x, _ = hover
    benchmark(dyn.synthesize_sensors, x, kernel, ZERO, math.sqrt(7.0),
              np.random.default_rng(1))


def test_gust_sampler_step(benchmark):
    sc = ex.build_scenario("exp3", "geo", {"gust": True})
    sampler = dyn.DisturbanceSampler(
        sc.disturbance, dyn.SIM_DT, np.random.default_rng(1),
        ex.RESIDUAL_FORCE, ex.RESIDUAL_MOMENT)
    benchmark(sampler.step, int(round(3.0 / dyn.SIM_DT)), 4)


@pytest.mark.parametrize("kind", ["geo", "indi"])
def test_controller_tick(benchmark, params, trim, hover, kind):
    _, inputs = hover
    ctrl = make_controller(kind, make_model(params), Gains(), 0.002)
    ctrl.warm_start(np.zeros(3), HOVER_Q, trim)
    target = (0.0, 0.0, 0.0)
    benchmark(ctrl.tick, target, target, inputs)


@pytest.mark.parametrize("scenario_id, kind, overrides", [
    ("exp5", "indi", {"noise_scale": 7, "duration": 2.1}),
    ("exp4", "geo", {"controller_freq": 50.0, "duration": 5.2}),
], ids=["500Hz-indi-noise7", "50Hz-geo"])
def test_ticks_block(benchmark, params, scenario_id, kind, overrides):
    # each call runs the whole run again from its start into a new log
    ticks = ex._closed_loop(
        ex.build_scenario(scenario_id, kind, overrides), params)
    n = len(benchmark(ticks))
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_tick"] = (
            benchmark.stats.stats.median / n * 1e6)


@pytest.mark.parametrize("kind", ["geo", "indi"])
def test_run_scenario_500hz(benchmark, kind):
    sc = ex.build_scenario("exp5", kind, {"duration": 2.1, "noise_scale": 7})
    benchmark.pedantic(ex.run_scenario, args=(sc,), rounds=5,
                       warmup_rounds=1)


@pytest.mark.parametrize("kind", ["geo", "indi"])
def test_run_scenario_50hz(benchmark, kind):
    sc = ex.build_scenario("exp4", kind, {"duration": 2.2,
                                          "controller_freq": 50.0})
    benchmark.pedantic(ex.run_scenario, args=(sc,), rounds=5,
                       warmup_rounds=1)


def test_write_csv(benchmark):
    log, _ = ex.run_scenario(
        ex.build_scenario("exp3", "indi", {"gust": True, "duration": 7.0}))
    rows = log["t"].base
    with open(os.devnull, "wb") as fh:
        benchmark(dyn.load_truth().write_csv, fh.fileno(), rows,
                  len(ex.LOG_LAYOUT[-1][1]))
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["ns_per_value"] = (
            benchmark.stats.stats.median / rows.size * 1e9)


@pytest.mark.parametrize("scenario_id, kind, overrides", [
    ("exp4", "geo", {"controller_freq": 50.0, "duration": 2.2}),
    ("exp3", "indi", {"gust": True, "duration": 7.0}),
], ids=["50Hz-exp4-cell", "exp3-gust"])
def test_log_and_metrics(benchmark, params, scenario_id, kind, overrides):
    sc = ex.build_scenario(scenario_id, kind, overrides)
    rows = ex._closed_loop(sc, params)()
    benchmark(ex._log_and_metrics, sc, rows)


def test_build_effectiveness(benchmark, params):
    benchmark(vehicle.build_effectiveness, params)


def test_sweep_cell(benchmark, params):
    sc = ex.build_scenario("exp4", "geo", {"duration": 2.2,
                                           "controller_freq": 50.0})
    benchmark(cli._sweep_cell, (sc, 1, params))
