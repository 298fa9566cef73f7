"""Micro-benchmarks of the per-tick work (pytest-benchmark).

Tier-1 does not collect this file (its name does not start with test_);
run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_tick.py

It times one RK4 truth step, one geo and one indi controller tick on the
inputs run_scenario passes (lists of Python floats), one sensor
synthesis at exp5's noise level 7, one step of exp3's gust sampler
inside its window, one take(3) of a Normals tape (a gust step's draw),
one 500 Hz
run_scenario of the 2.1 s noisy hover of the sweep_noise benchmark
workload (exp5 at noise level 7) and one 50 Hz run_scenario of the 2.2 s
exp4 hover of the sweep_freq workload, where the truth step dominates.
"""

import math

import numpy as np
import pytest

from hexsim import dynamics as dyn
from hexsim import experiments as ex
from hexsim.control import ControllerInputs, Gains, make_controller, \
    make_model

HOVER_Q = [1.0, 0.0, 0.0, 0.0]
ZERO = (0.0, 0.0, 0.0)


def tape():
    return dyn.Normals(np.random.default_rng(1))


@pytest.fixture(scope="module")
def hover(kernel, trim):
    """Hover state and the controller inputs synthesised from it, with
    the sensor noise of exp5 at noise level 7."""
    x = dyn.pack(np.zeros(3), np.zeros(3), HOVER_Q, np.zeros(3),
                 trim.w_cmd).tolist()
    accel, gyro, w_meas = dyn.synthesize_sensors(
        x, kernel, ZERO, math.sqrt(7.0), tape())
    inputs = ControllerInputs(
        pos=x[dyn.P], vel=x[dyn.V], q=x[dyn.Q], gyro=gyro, accel=accel,
        rotor_w_meas=w_meas)
    return x, inputs


def test_dynamics_step(benchmark, kernel, trim, hover):
    x, _ = hover
    benchmark(dyn.step, x, kernel, trim, ZERO, ZERO, dyn.SIM_DT)


def test_synthesize_sensors(benchmark, kernel, hover):
    x, _ = hover
    benchmark(dyn.synthesize_sensors, x, kernel, ZERO, math.sqrt(7.0), tape())


def test_gust_sampler_step(benchmark):
    sc = ex.build_scenario("exp3", "geo", {"gust": True})
    sampler = dyn.DisturbanceSampler(
        sc.disturbance, dyn.SIM_DT, tape(), ex.RESIDUAL_FORCE,
        ex.RESIDUAL_MOMENT)
    benchmark(sampler.step, 3.0)


def test_tape_take_3(benchmark):
    benchmark(tape().take, 3)


@pytest.mark.parametrize("kind", ["geo", "indi"])
def test_controller_tick(benchmark, params, trim, hover, kind):
    _, inputs = hover
    ctrl = make_controller(kind, make_model(params), Gains(), 0.002)
    ctrl.warm_start(np.zeros(3), HOVER_Q, trim)
    target = (0.0, 0.0, 0.0)
    benchmark(ctrl.tick, target, target, inputs)


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
