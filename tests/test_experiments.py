import dataclasses
import gc
import math
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from collections import defaultdict
from hashlib import sha256
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from hexsim import control, vehicle
from hexsim import dynamics as dyn
from hexsim import experiments as ex
from hexsim.geometry import quat_conj, quat_mul, rpy_from_quat
import oracles
from oracles import whole_log_errors

ROOT = Path(__file__).resolve().parents[1]


def test_build_all_scenarios():
    for sid in ("exp1", "exp2", "exp3", "exp4", "exp5"):
        for ctrl in ("geo", "indi"):
            sc = ex.build_scenario(sid, ctrl)
            assert sc.id == sid
            assert sc.controller == ctrl
            assert sc.duration > 0


def test_unknown_scenario_rejected():
    with pytest.raises(ex.UnknownScenario):
        ex.build_scenario("exp9", "geo")
    with pytest.raises(ex.UnknownScenario):
        ex.build_scenario("exp1", "geo", {"not_a_field": 1})


def test_scenario_validation():
    with pytest.raises(ValueError):
        ex.build_scenario("exp1", "lqr")
    with pytest.raises(ValueError):
        ex.build_scenario("exp4", "geo", {"controller_freq": 123.0})
    with pytest.raises(ValueError):
        ex.build_scenario("exp5", "geo", {"noise_scale": -1})
    # a seed is any integer, kept as a Python int
    seed = ex.build_scenario("exp5", "geo", {"seed": np.int64(3)}).seed
    assert (type(seed), seed) == (int, 3)
    for seed in (1.5, "3", None, -1):
        with pytest.raises(ValueError, match="seed"):
            ex.build_scenario("exp5", "geo", {"seed": seed})
    for name in ("gains", "disturbance"):
        with pytest.raises(ValueError, match=name):
            ex.build_scenario("exp5", "geo", {name: None})
    with pytest.raises(ValueError, match="gains"):
        ex.build_scenario("exp5", "geo", {"gains": {"k_p": 1.0}})
    # a script is a non-empty tuple of setpoints, each from a finite time
    hover = ex.Setpoint(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    for script in ((), [hover], (hover, None), ((0.0, (0, 0, 0), (0, 0, 0)),)):
        with pytest.raises(ValueError, match="script"):
            ex.build_scenario("exp5", "geo", {"script": script})
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="setpoint t"):
            ex.Setpoint(t, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    # a run bisects the setpoint times, so they must not fall back; of
    # equal times the last setpoint is flown
    x, y = (1.0, 0.0, 0.0), (0.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="must not decrease"):
        ex.build_scenario("exp5", "geo", {"script": (
            hover, ex.Setpoint(2.5, x, hover.rpy),
            ex.Setpoint(1.0, y, hover.rpy))})
    ref_p = ex.run_scenario(ex.build_scenario("exp5", "geo", {
        "duration": 2.1, "script": (
            hover, ex.Setpoint(1.0, x, hover.rpy),
            ex.Setpoint(1.0, y, hover.rpy))}))[0]["ref_p"]
    assert ref_p[:, 0].max() == 0.0 and ref_p[-1, 1] > 0.5
    # the default script hovers at the origin
    sc = ex.Scenario(id="exp5", controller="geo", duration=3.0)
    assert sc.script == (hover,)
    assert math.isfinite(ex.run_scenario(sc)[1].pos_norm_mean)


def test_controller_freq_must_divide_the_truth_rate():
    # any rate with a whole number of truth steps per tick is valid
    for freq in (2000.0, 400.0, 2000.0 / 6, 2000.0 / 7, 40.0):
        assert ex.build_scenario("exp5", "geo", {"controller_freq": freq,
                                                 "duration": 2.1})
    for freq in (123.0, 3000.0, 0.0, -500.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="controller_freq"):
            ex.build_scenario("exp5", "geo", {"controller_freq": freq})


@pytest.mark.parametrize("freq", [400.0, 2000.0 / 6, 2000.0 / 7],
                         ids=["400Hz", "333Hz", "286Hz"])
def test_pose_holds_the_latest_250hz_sample(monkeypatch, freq):
    # the pose clock samples the state every 8 truth steps (250 Hz)
    # whatever the controller rate, so the tick at step k sees the state
    # that truth step 8 floor(k / 8) started from.  The oracle loop shows
    # it: each of its dyn.step calls runs one segment, which ends at a
    # pose sample or at a tick's end and crosses neither.  The compiled
    # loop logs what the oracle logs
    states, poses, segments = [], [], []
    real_step, real_tick = dyn.step, control.GeoNdiController.tick

    def recording_step(x, kernel, cmd, wrenches, dt):
        # the same steps one at a time, keeping each one's start state
        segments.append(len(wrenches))
        for wrench in wrenches:
            states.append(list(x))
            x = real_step(x, kernel, cmd, [wrench], dt)
        return x

    def recording_tick(self, target_pos, target_rpy, inputs):
        poses.append((list(inputs.pos), list(inputs.q)))
        return real_tick(self, target_pos, target_rpy, inputs)

    monkeypatch.setattr(dyn, "step", recording_step)
    monkeypatch.setattr(control.GeoNdiController, "tick", recording_tick)
    sc = ex.build_scenario("exp5", "geo", {"controller_freq": freq,
                                           "duration": 2.1})
    want, _ = oracles.run_scenario(sc)
    n_sub = round(1.0 / (freq * dyn.SIM_DT))
    assert len(states) == 4200 and len(poses) == -(-4200 // n_sub)
    assert list(accumulate(segments)) == sorted(
        {*range(8, 4200, 8), *range(n_sub, 4200, n_sub), 4200})
    held_back = 0
    for i, (pos, q) in enumerate(poses):
        k = i * n_sub
        sample = states[8 * (k // 8)]
        assert (pos, q) == (sample[dyn.P], sample[dyn.Q])
        held_back += sample[dyn.P] != states[k][dyn.P]
    # the held sample is not the tick's own state at most ticks
    assert held_back > len(poses) // 2
    log, _ = ex.run_scenario(sc)
    assert same_bits(log["t"].base, want["t"].base)


@pytest.mark.parametrize("controller", ["geo", "indi"])
def test_closed_loop_passes_python_floats(monkeypatch, controller):
    # every number the truth step, the disturbance sampler and the
    # controller tick take or return in the oracle loop, on per-call
    # draws, is a Python float (a bool for the saturation flags), never a
    # numpy scalar
    types = defaultdict(set)

    def note(name, *seqs):
        for seq in seqs:
            types[name].update(map(type, seq))

    real_step = dyn.step

    def step(x, kernel, cmd, wrenches, dt):
        out = real_step(x, kernel, cmd, wrenches, dt)
        note("step", x, cmd.u, cmd.w_cmd, *wrenches, [dt], out)
        note("saturated", cmd.saturated)
        return out

    real_sample = dyn.DisturbanceSampler.step

    def sample(self, k, n):
        wrenches = real_sample(self, k, n)
        note("sampler", *wrenches)
        note("steps", [k, n])
        return wrenches

    def traced_tick(real_tick):
        def tick(self, target_pos, target_rpy, inputs):
            cmd, ref = real_tick(self, target_pos, target_rpy, inputs)
            note("tick", target_pos, target_rpy, *vars(inputs).values(),
                 cmd.u, cmd.w_cmd, *vars(ref).values())
            note("saturated", cmd.saturated)
            return cmd, ref
        return tick

    monkeypatch.setattr(dyn, "step", step)
    monkeypatch.setattr(dyn.DisturbanceSampler, "step", sample)
    for cls in (control.GeoNdiController, control.IndiController):
        monkeypatch.setattr(cls, "tick", traced_tick(cls.tick))
    # the gust is on from t = 2 s, so both sampler branches run
    oracles.run_scenario(ex.build_scenario("exp3", controller, {
        "gust": True, "duration": 2.5}))
    assert dict(types) == {"step": {float}, "sampler": {float},
                           "steps": {int}, "tick": {float},
                           "saturated": {bool}}


@pytest.mark.parametrize("cf_mismatch, built", [(1.0, 1), (0.5, 2)])
def test_controller_builds_a_matrix_only_when_mismatched(
        monkeypatch, cf_mismatch, built):
    # a right belief flies on the truth's own effectiveness matrix; a
    # mismatched model builds its own from its scaled force coefficient
    c_fs, real = [], vehicle.build_effectiveness

    def build(params):
        c_fs.append(params.c_f)
        return real(params)

    monkeypatch.setattr(vehicle, "build_effectiveness", build)
    params = vehicle.default_params()
    ex.run_scenario(ex.build_scenario("exp5", "indi", {
        "duration": 2.1, "cf_mismatch": cf_mismatch}), params)
    assert c_fs == [params.c_f, params.c_f * cf_mismatch][:built]


@pytest.mark.parametrize("controller", ["geo", "indi"])
def test_runs_sharing_a_platform_equal_runs_on_fresh_ones(controller):
    # a PlatformParams builds its effectiveness matrix and hover trim
    # once, for all its runs: no run leaves anything in them for the next
    sc = ex.build_scenario("exp5", controller, {"noise_scale": 7,
                                                "duration": 2.1})
    shared = vehicle.default_params()
    for _ in range(2):
        log, _ = ex.run_scenario(sc, shared)
        want, _ = ex.run_scenario(sc, vehicle.default_params())
        assert same_bits(log["t"].base, want["t"].base)


def test_duration_must_leave_a_tick_after_warmup():
    # at 50 Hz a tick falls every 40 truth steps: 2.0002 s (4000 steps)
    # ends before the tick at t = 2 s, 2.0005 s (4001 steps) keeps it as
    # the one scored sample
    for duration in (1.5, ex.WARMUP_S, 2.0002):
        with pytest.raises(ValueError, match="warm-up"):
            ex.build_scenario("exp5", "geo", {"controller_freq": 50.0,
                                              "duration": duration})
    sc = ex.build_scenario("exp5", "geo", {"controller_freq": 50.0,
                                           "duration": 2.0005})
    log, metrics = ex.run_scenario(sc)
    assert log["t"][-1] == ex.WARMUP_S
    assert math.isfinite(metrics.pos_norm_mean)


def test_exp1_script_shape():
    sc = ex.build_scenario("exp1", "geo")
    # hover plus 6 steps (two signs x three axes), each with a return
    assert len(sc.script) == 13
    mags = [np.degrees(np.abs(sp.rpy).max()) for sp in sc.script]
    assert max(mags) == pytest.approx(45.0)
    assert sc.duration == pytest.approx(53.0)


def test_exp2_load_window():
    sc = ex.build_scenario("exp2", "indi")
    d = sc.disturbance
    assert d.kind == "constant_load"
    assert np.linalg.norm(d.force) == pytest.approx(4.905)
    assert np.linalg.norm(d.moment) == pytest.approx(4.905 * 0.13)
    assert (d.t_on, d.t_off) == (6.0, 14.0)


def test_exp3_square_corners():
    sc = ex.build_scenario("exp3", "geo")
    xy = np.array([sp.pos[:2] for sp in sc.script])
    assert xy.max() == pytest.approx(2.0)
    np.testing.assert_allclose(xy[-1], [0.0, 0.0])
    assert sc.disturbance.kind == "none"
    gusty = ex.build_scenario("exp3", "geo", {"gust": True})
    assert gusty.disturbance.kind == "gust"
    assert gusty.disturbance.force[0] == pytest.approx(2.0)


@pytest.mark.parametrize("scenario_id, value", [
    ("exp3", "no"), ("exp1", "false"), ("exp3", 1), ("exp3", None)])
def test_gust_override_must_be_a_bool(scenario_id, value):
    # a truthy string would fly the gust, and any value on exp1 would
    # read as a gust asked for where none applies
    with pytest.raises(ValueError, match=f"gust must be a bool, not "
                                         f"{value!r}"):
        ex.build_scenario(scenario_id, "indi", {"gust": value})


def test_exp4_carries_intrinsic_noise():
    sc = ex.build_scenario("exp4", "indi", {"controller_freq": 62.5})
    assert sc.noise_scale == 1
    assert sc.controller_freq == 62.5


def leaves(value):
    """The values in a Scenario, through its dataclasses and tuples."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [leaf for v in value for leaf in leaves(v)]
    return [value]


@pytest.mark.parametrize("sid, overrides", [
    ("exp1", {}), ("exp2", {}), ("exp3", {}), ("exp3", {"gust": True}),
    ("exp4", {}), ("exp5", {})],
    ids=["exp1", "exp2", "exp3", "exp3-gust", "exp4", "exp5"])
def test_scenario_is_a_plain_value(sid, overrides):
    # two builds are equal and hash equal; another seed is another value
    a = ex.build_scenario(sid, "geo", overrides)
    b = ex.build_scenario(sid, "geo", overrides)
    assert a == b and hash(a) == hash(b)
    assert dataclasses.replace(a, seed=a.seed + 1) != a
    # no array anywhere in it, down to its spec, setpoints and gains
    values = leaves(a)
    assert not any(isinstance(v, np.ndarray) for v in values)
    assert {type(v) for v in values} <= {str, int, float}
    assert len(values) > len(dataclasses.fields(a))


def test_rise_time_on_synthetic_first_order():
    t = np.linspace(0, 5, 2000)
    tau = 0.3
    y = np.where(t >= 1.0, 1.0 - np.exp(-(t - 1.0) / tau), 0.0)
    rt = ex.rise_time(t, y, onset=1.0, magnitude=1.0)
    assert rt == pytest.approx(tau * np.log(9), abs=0.01)


def test_rise_time_not_reached():
    t = np.linspace(0, 5, 100)
    with pytest.raises(ex.NotReached):
        ex.rise_time(t, 0.5 * np.ones_like(t), onset=0.0, magnitude=1.0)


def test_error_statistics_empty_window():
    log = {"t": np.array([0.0, 0.1]), "e_p": np.zeros((2, 3)),
           "e_att_deg": np.zeros((2, 3))}
    with pytest.raises(ex.EmptyWindow):
        ex.error_statistics(log, (5.0, 6.0))


STATISTICS = ("pos_abs_mean", "pos_abs_peak", "att_abs_mean_deg",
              "att_abs_peak_deg", "lon_att_mean_deg", "lon_att_std_deg",
              "pos_norm_mean", "pos_norm_std")


def statistics_bits(metrics):
    return oracles.bits([getattr(metrics, name) for name in STATISTICS])


def assert_statistics_equal_oracle(log, window):
    """_truth.c's statistics, through error_statistics, give the numpy
    oracle's bits on log over window; returns them."""
    got = statistics_bits(ex.error_statistics(log, window))
    assert got == statistics_bits(oracles.error_statistics(log, window))
    return got


def errors_log(rng, n, strided):
    """n samples at shuffled times 0, 0.01, ... with errors over seven
    decades; strided, the columns are views of one wide row array as a
    run's log holds them, else contiguous arrays."""
    rows = np.empty((n, 9 if strided else 7))
    rows[:, 0] = rng.permutation(n) * 0.01
    rows[:, 1:7] = rng.normal(size=(n, 6)) * 10.0 ** rng.uniform(
        -4, 3, size=(n, 6))
    log = {"t": rows[:, 0], "e_p": rows[:, 1:4], "e_att_deg": rows[:, 4:7]}
    return log if strided else {k: v.copy() for k, v in log.items()}


@pytest.mark.parametrize("sid", ["exp1", "exp2", "exp3", "exp4", "exp5"])
@pytest.mark.parametrize("controller", ["geo", "indi"])
def test_statistics_equal_numpy_on_runs(sid, controller):
    # a run's log: strided views of its rows, then contiguous copies
    sc = ex.build_scenario(sid, controller)
    log, metrics = ex.run_scenario(sc)
    window = (ex.WARMUP_S, sc.duration)
    got = assert_statistics_equal_oracle(log, window)
    assert statistics_bits(metrics) == got
    assert assert_statistics_equal_oracle(
        {k: log[k].copy() for k in ("t", "e_p", "e_att_deg")}, window) == got


def test_statistics_equal_numpy_on_pooled_samples(monkeypatch):
    # repeat_runs' pooled samples: contiguous, their t not monotone
    calls, real = [], ex.error_statistics

    def recording(log, window):
        calls.append((log, window))
        return real(log, window)

    monkeypatch.setattr(ex, "error_statistics", recording)
    sc = ex.build_scenario("exp5", "indi", {"duration": 3.0,
                                            "noise_scale": 3})
    ex.repeat_runs(sc, 3)
    assert len(calls) == 4  # a run's each, then the pooled samples'
    pooled = calls[-1][0]
    assert len(pooled["t"]) == 3 * len(calls[0][0]["t"])
    assert (np.diff(pooled["t"]) < 0).any()
    monkeypatch.undo()
    for log, window in calls:
        assert_statistics_equal_oracle(log, window)


@pytest.mark.parametrize("strided", [True, False],
                         ids=["strided", "contiguous"])
@pytest.mark.parametrize("lengths", [range(1, 301), range(1000, 20001, 1327)],
                         ids=["1-300", "1000-20000"])
def test_statistics_equal_numpy_over_window_lengths(lengths, strided):
    # numpy's pairwise sum: in order below 8 values, 8 running sums up to
    # 128, halves above; each window has 2 samples left out on each side
    rng = np.random.default_rng(len(lengths))
    for n in lengths:
        log = errors_log(rng, n + 4, strided)
        window = (0.015, (n + 1.5) * 0.01)
        assert ((log["t"] >= window[0]) & (log["t"] < window[1])).sum() == n
        assert_statistics_equal_oracle(log, window)


def test_statistics_window_counts_lo_and_excludes_hi():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    e = np.array([[8.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [9.0, 0, 0]])
    log = {"t": t, "e_p": e, "e_att_deg": -e}
    metrics = ex.error_statistics(log, (1.0, 3.0))
    assert metrics.pos_abs_peak[0] == metrics.att_abs_peak_deg[0] == 2.0
    assert metrics.pos_abs_mean[0] == metrics.lon_att_mean_deg == 1.5
    assert metrics.pos_norm_std == 0.5
    assert_statistics_equal_oracle(log, (1.0, 3.0))


def test_statistics_carry_a_nan_as_numpy_does(rng):
    log = errors_log(rng, 50, strided=True)
    window = (0.1, 0.4)
    inside = int(np.flatnonzero((log["t"] >= 0.2) & (log["t"] < 0.3))[0])
    outside = int(np.flatnonzero(log["t"] >= 0.4)[0])
    log["e_att_deg"][outside, 1] = math.nan
    log["t"][int(np.flatnonzero(log["t"] == 0.0)[0])] = math.nan
    clean = assert_statistics_equal_oracle(log, window)
    log["e_p"][inside, 0] = math.nan
    metrics = ex.error_statistics(log, window)
    assert math.isnan(metrics.pos_abs_mean[0])
    assert math.isnan(metrics.pos_abs_peak[0])
    assert math.isnan(metrics.pos_norm_mean)
    assert math.isnan(metrics.pos_norm_std)
    got = assert_statistics_equal_oracle(log, window)
    # the attitude statistics do not read e_p
    assert got[2:6] == clean[2:6]


@pytest.mark.parametrize("t, e_p, e_att_deg", [
    (np.zeros(4, dtype=np.float32), np.zeros((4, 3)), np.zeros((4, 3))),
    (np.zeros((4, 1)), np.zeros((4, 3)), np.zeros((4, 3))),
    (np.zeros(4), np.zeros((4, 2)), np.zeros((4, 3))),
    (np.zeros(4), np.zeros((4, 3)), np.zeros((5, 3))),
    (np.zeros(4), np.zeros((4, 3), dtype=int), np.zeros((4, 3))),
], ids=["float32-t", "2-D-t", "two-columns", "rows-mismatch", "int-e_p"])
def test_statistics_reject_other_arrays(t, e_p, e_att_deg):
    with pytest.raises(ValueError):
        dyn.load_truth().statistics(t, e_p, e_att_deg, 0.0, 1.0)


def test_run_scenario_log_shapes():
    sc = ex.build_scenario("exp5", "indi", {"duration": 3.0})
    log, metrics = ex.run_scenario(sc)
    n = len(log["t"])
    assert n == int(3.0 * sc.controller_freq)
    assert log["p"].shape == (n, 3)
    assert log["q"].shape == (n, 4)
    assert log["u"].shape == (n, 6)
    assert np.isfinite(log["p"]).all()
    assert metrics.pos_norm_mean >= 0.0


def test_log_blocks_are_views_of_one_row_per_tick():
    # the log is one float row per tick, exactly log.csv's columns, and
    # it holds nothing but a view of it per block of the layout
    sc = ex.build_scenario("exp5", "indi", {"duration": 2.5})
    log, _ = ex.run_scenario(sc)
    rows = log["t"].base
    assert rows.shape == (len(log["t"]), len(ex.LOG_HEADER)) == (
        len(log["t"]), 57)
    assert [name for name, _ in ex.LOG_LAYOUT] == list(ex.LOG_BLOCKS)
    assert list(log) == list(ex.LOG_BLOCKS)
    for name, suffixes in ex.LOG_LAYOUT:
        assert log[name].base is rows
        assert log[name].shape[1:] == (() if suffixes is None
                                       else (len(suffixes),))
    assert set(np.unique(log["saturated"])) <= {0.0, 1.0}
    np.testing.assert_array_equal(log["e_p"], log["ref_p"] - log["p"])


def same_bits(a, b):
    return (np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


@pytest.mark.parametrize("scenario_id, controller, overrides", [
    ("exp1", "geo", {"duration": 20.0}),
    ("exp1", "indi", {"duration": 20.0}),
    ("exp3", "indi", {"gust": True, "duration": 7.0, "seed": 3}),
    ("exp3", "indi", {"gust": True, "noise_scale": 3, "duration": 7.0,
                      "seed": 5}),
    ("exp4", "indi", {"controller_freq": 50.0, "duration": 2.2}),
    ("exp5", "indi", {"noise_scale": 7, "duration": 2.048}),
], ids=["exp1-geo", "exp1-indi", "exp3-gust", "exp3-gust-noise",
        "exp4-50Hz", "exp5-1024-ticks"])
def test_block_errors_equal_the_whole_log_form(scenario_id, controller,
                                               overrides):
    # _truth.c writes the errors with each row, bit for bit as the
    # oracle's Python-float expressions give them; the 20 s exp1 runs
    # hold the roll and pitch steps
    sc = ex.build_scenario(scenario_id, controller, overrides)
    log, _ = ex.run_scenario(sc)
    e_p, e_att_deg = whole_log_errors(log)
    assert np.abs(log["e_att_deg"]).max() > 0.1
    assert same_bits(log["e_p"], e_p)
    assert same_bits(log["e_att_deg"], e_att_deg)


def test_a_run_loads_no_numpy_random():
    # _truth.c draws a run's normals itself, so a run, noise and gust on,
    # imports none of numpy.random's modules (6.4 MB resident on top of
    # numpy's on a 2-core x86-64 VM, Python 3.11, numpy 2.4)
    code = ("import sys\n"
            "from hexsim import experiments as ex\n"
            "before = set(sys.modules)\n"
            "ex.run_scenario(ex.build_scenario('exp3', 'indi', {\n"
            "    'gust': True, 'noise_scale': 3, 'duration': 2.1}))\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.startswith('numpy.random')))\n")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=300)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_repeat_runs_holds_no_earlier_log(monkeypatch):
    # the pooled samples are copies, so no run's log is held while the
    # next run goes
    real, logs, held = ex.run_scenario, [], []

    def run_scenario(scenario, params=None):
        gc.collect()
        held.append(sum(ref() is not None for ref in logs))
        log, metrics = real(scenario, params)
        logs.append(weakref.ref(log["t"].base))
        return log, metrics

    monkeypatch.setattr(ex, "run_scenario", run_scenario)
    sc = ex.build_scenario("exp5", "geo", {"duration": 2.1})
    ex.repeat_runs(sc, 3)
    assert held == [0, 0, 0]


def test_finished_run_keeps_nothing_of_its_platform():
    # the truth kernel belongs to its run: once the run is over and its
    # caller lets go of the platform, nothing in the package holds it
    params = vehicle.default_params(mass=3.0)
    ref = weakref.ref(params)
    ex.run_scenario(ex.build_scenario("exp5", "geo", {"duration": 2.1}),
                    params)
    del params
    gc.collect()
    assert ref() is None


def test_run_scenario_low_rate_tick_count():
    sc = ex.build_scenario("exp5", "geo",
                           {"duration": 3.0, "controller_freq": 62.5})
    log, _ = ex.run_scenario(sc)
    assert len(log["t"]) == int(round(3.0 * 62.5))


def test_run_deterministic_given_seed():
    sc = ex.build_scenario("exp5", "indi", {"duration": 3.0,
                                            "noise_scale": 3})
    la, _ = ex.run_scenario(sc)
    lb, _ = ex.run_scenario(sc)
    for key in la:
        np.testing.assert_array_equal(la[key], lb[key])


def test_run_seed_changes_noise():
    base = ex.build_scenario("exp5", "indi", {"duration": 3.0,
                                              "noise_scale": 3})
    other = ex.build_scenario("exp5", "indi", {"duration": 3.0,
                                               "noise_scale": 3, "seed": 2})
    la, _ = ex.run_scenario(base)
    lb, _ = ex.run_scenario(other)
    assert not np.array_equal(la["u"], lb["u"])


def test_residual_scale_zero_is_ideal():
    sc = ex.build_scenario("exp5", "geo", {"duration": 3.0,
                                           "residual_scale": 0.0})
    log, m = ex.run_scenario(sc)
    assert m.pos_norm_mean < 1e-6


def test_repeat_runs_pools_and_validates():
    sc = ex.build_scenario("exp5", "geo", {"duration": 3.0,
                                           "noise_scale": 1})
    agg, per = ex.repeat_runs(sc, 2)
    assert len(per) == 2
    assert agg.pos_norm_mean > 0.0
    with pytest.raises(ValueError):
        ex.repeat_runs(sc, 0)


def test_repeat_runs_pools_samples_and_averages_rise_time(monkeypatch):
    # two canned runs: the aggregate pools their windowed samples and
    # averages their rise times
    t = np.arange(0.0, 3.0, 0.5)
    rng = np.random.default_rng(5)
    logs = [{"t": t, "e_p": rng.normal(size=(6, 3)),
             "e_att_deg": rng.normal(size=(6, 3))} for _ in range(2)]
    canned = iter(zip(logs, (0.2, 0.5)))

    def fake_run_scenario(scenario, params=None):
        log, rise = next(canned)
        metrics = ex.error_statistics(log, (ex.WARMUP_S, scenario.duration))
        metrics.roll_rise_time = rise
        return log, metrics

    monkeypatch.setattr(ex, "run_scenario", fake_run_scenario)
    sc = ex.build_scenario("exp1", "geo", {"duration": 3.0})
    agg, per = ex.repeat_runs(sc, 2)
    assert [m.roll_rise_time for m in per] == [0.2, 0.5]
    assert agg.roll_rise_time == pytest.approx(0.35)
    window = t >= ex.WARMUP_S
    pos = np.concatenate([np.linalg.norm(log["e_p"][window], axis=1)
                          for log in logs])
    lon = np.concatenate([np.linalg.norm(log["e_att_deg"][window, :2],
                                         axis=1) for log in logs])
    assert agg.pos_norm_mean == pos.mean()
    assert agg.pos_norm_std == pos.std()
    assert agg.lon_att_mean_deg == lon.mean()
    assert agg.lon_att_std_deg == lon.std()
    np.testing.assert_array_equal(
        agg.pos_abs_peak, np.abs(np.concatenate(
            [log["e_p"][window] for log in logs])).max(axis=0))


def scan_script_target(script, t):
    """The linear scan _script_target replaced, kept as its oracle."""
    target = script[0]
    for sp in script:
        if sp.t <= t:
            target = sp
        else:
            break
    return target.pos, target.rpy


@pytest.mark.parametrize("sid", ["exp1", "exp2", "exp3", "exp4", "exp5"])
def test_script_target_matches_linear_scan(sid):
    sc = ex.build_scenario(sid, "geo")
    n_sub = int(round(1.0 / (sc.controller_freq * dyn.SIM_DT)))
    n_steps = int(round(sc.duration / dyn.SIM_DT))
    setpoint_times = [sp.t for sp in sc.script]
    for t in [-1.0] + [k * dyn.SIM_DT for k in range(0, n_steps, n_sub)]:
        assert ex._script_target(sc.script, setpoint_times, t) == \
            scan_script_target(sc.script, t)


def test_script_target_before_and_between_setpoints():
    script = (ex.Setpoint(1.0, (1.0, 0.0, 0.0), (0.1, 0.0, 0.0)),
              ex.Setpoint(2.0, (2.0, 0.0, 0.0), (0.2, 0.0, 0.0)),
              ex.Setpoint(3.0, (3.0, 0.0, 0.0), (0.3, 0.0, 0.0)))
    times = [sp.t for sp in script]
    for t in (0.0, 0.999, 1.0, 1.5, 2.0, 2.999, 3.0, 99.0):
        assert ex._script_target(script, times, t) == \
            scan_script_target(script, t)


def test_setpoint_rejects_non_finite_targets():
    with pytest.raises(ValueError):
        ex.Setpoint(0.0, (0.0, np.inf, 0.0), np.zeros(3))
    with pytest.raises(ValueError):
        ex.Setpoint(0.0, np.zeros(3), (np.nan, 0.0, 0.0))


def test_logged_attitudes_match_per_tick_formula(monkeypatch):
    # the roll that rise_time reads, computed after the loop from the
    # stacked quaternions, and e_att_deg, written with each row in C,
    # agree with numpy's per-tick formula; the roll step at 5 s gives
    # errors near a degree
    signals, real_rise_time = [], ex.rise_time

    def recording_rise_time(t, signal, onset, magnitude):
        signals.append((t, signal))
        return real_rise_time(t, signal, onset, magnitude)

    monkeypatch.setattr(ex, "rise_time", recording_rise_time)
    sc = ex.build_scenario("exp1", "indi", {"duration": 5.6})
    log, _ = ex.run_scenario(sc)
    ((t, roll),) = signals
    # the roll of the rows from the 5 s onset on, and only of them
    onset = np.flatnonzero(log["t"] >= ex.ROLL_STEP_ONSET)[0]
    assert len(roll) == len(log["q"]) - onset == 300
    np.testing.assert_array_equal(t, log["t"][onset:])
    for q, r in zip(log["q"][onset:], roll):
        np.testing.assert_allclose(r, rpy_from_quat(q)[0],
                                   rtol=1e-12, atol=1e-15)
    for q, ref_q, e_att in zip(log["q"], log["ref_q"], log["e_att_deg"]):
        np.testing.assert_allclose(
            e_att, np.degrees(rpy_from_quat(quat_mul(ref_q, quat_conj(q)))),
            rtol=1e-12, atol=1e-13)
    assert np.abs(log["e_att_deg"]).max() > 0.5


def test_a_run_ending_before_the_roll_step_converts_no_roll(monkeypatch):
    # a 2.2 s sweep cell: no row from the 5 s onset on, so no roll and a
    # rise time never reached
    monkeypatch.setattr(ex, "rpy_from_quat", None)
    monkeypatch.setattr(ex, "rise_time", None)
    sc = ex.build_scenario("exp4", "geo", {"controller_freq": 50.0,
                                           "duration": 2.2})
    _, metrics = ex.run_scenario(sc)
    assert math.isnan(metrics.roll_rise_time)


def divergence(run, *args):
    """The NonFiniteState that run(*args) raises."""
    with pytest.raises(dyn.NonFiniteState) as info:
        run(*args)
    return info.value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("controller", ["geo", "indi"])
def test_nan_command_raises_nonfinite_state(monkeypatch, controller):
    # a NaN gyro reading from t = 0.1 s on makes the controller command
    # NaN rotor speeds; the truth step must report the divergence, with
    # its time, scenario, seed and last finite state.  The readings are
    # made NaN in the oracle loop, the one whose sensors can be replaced
    real = dyn.synthesize_sensors

    def nan_gyro(x, kernel, dist_force, scale, rng):
        accel, gyro, w_meas = real(x, kernel, dist_force, scale, rng)
        if len(calls) >= 50:
            gyro = [math.nan] * 3
        calls.append(1)
        return accel, gyro, w_meas

    calls = []
    monkeypatch.setattr(dyn, "synthesize_sensors", nan_gyro)
    sc = ex.build_scenario("exp5", controller, {"duration": 2.5, "seed": 7})
    exc = divergence(oracles.run_scenario, sc)
    assert exc.t == pytest.approx(0.1)
    assert (exc.scenario, exc.seed) == ("exp5", 7)
    assert np.isfinite(exc.state).all() and len(exc.state) == 19
    assert "t = 0.1000 s" in str(exc)


# a motor lag below RK4's stability bound at SIM_DT (about 0.18 ms), which
# the CLI's pre-flight rejects: the rotor speeds blow up.  At 0.179075 ms
# the noise-free geo hover diverges in tick 255.  Each case gives the
# truth step that diverges: in the last three, q's norm overflows there
# while every component of the state stays finite
NOISY = {"seed": 3, "noise_scale": 1}
UNSTABLE_LAGS = [(1.5e-4, "geo", NOISY, 22),
                 (1.5e-4, "indi", NOISY, 24),
                 (1.794e-4, "indi", NOISY, 3737),
                 (1.79075e-4, "geo", {}, 1021)]


@pytest.mark.parametrize("tau, controller, overrides, k", UNSTABLE_LAGS,
                         ids=["geo", "indi", "indi-late", "geo-tick-255"])
def test_diverging_run_raises_nonfinite_state(tau, controller, overrides, k):
    # the compiled loop reports a real divergence as the oracle loop
    # does: the time, scenario, seed and last finite state
    params = vehicle.default_params(motor_time_constant=tau)
    sc = ex.build_scenario("exp5", controller,
                           {"duration": 2.5, **overrides})
    exc = divergence(ex.run_scenario, sc, params)
    oracle = divergence(oracles.run_scenario, sc, params)
    assert (exc.t, exc.scenario, exc.seed, str(exc)) == (
        oracle.t, oracle.scenario, oracle.seed, str(oracle))
    assert exc.t == k * dyn.SIM_DT and exc.seed == sc.seed
    assert oracles.bits(exc.state) == oracles.bits(oracle.state)
    assert len(exc.state) == 19 and np.isfinite(exc.state).all()
    # the last finite state's q is a rotation
    assert math.hypot(*exc.state[dyn.Q]) == pytest.approx(1.0, abs=1e-12)


@st.composite
def closed_loops(draw):
    """(scenario, params) of a short closed loop: either controller at
    2000/n Hz, no disturbance, a constant load or a gust whose window
    edges fall anywhere (inside a tick for n > 1), sensor noise or none,
    a right or wrong model with or without the residual wrench, a
    setpoint script, and the default platform, another valid one or one
    whose motor lag is below RK4's stability bound, so that it
    diverges."""
    n_sub = draw(st.integers(1, 40))
    # at least one tick after the warm-up
    duration = draw(st.floats(ex.WARMUP_S + (n_sub + 1) * dyn.SIM_DT, 2.6))

    def edges(lo, hi):
        # anywhere, or on a truth step's start time, where < and <= part
        return st.one_of(st.floats(lo, hi), st.integers(
            math.ceil(lo / dyn.SIM_DT), int(hi / dyn.SIM_DT)).map(
                lambda k: k * dyn.SIM_DT))

    t_on = draw(edges(0.0, 1.5))
    window = dict(t_on=t_on, t_off=draw(edges(t_on + 1e-3, 3.0)))
    disturbance = draw(st.sampled_from([
        dyn.DisturbanceSpec(),
        dyn.DisturbanceSpec(kind="constant_load", force=(0.0, -4.9, 1.0),
                            moment=(0.1, 0.6, -0.2), **window),
        dyn.DisturbanceSpec(kind="gust", force=(2.0, 0.0, 0.5), gust_std=1.0,
                            gust_corr_time=0.5, **window)]))
    # setpoint times anywhere, or on a tick's time, where bisect_right
    # and bisect_left part, in the order a script must hold them
    tick_times = st.integers(0, int(duration / dyn.SIM_DT) // n_sub).map(
        lambda tick: tick * n_sub * dyn.SIM_DT)
    times = draw(st.lists(
        st.one_of(st.floats(0.0, duration), tick_times), max_size=3))
    small = st.floats(-0.3, 0.3)
    script = tuple(ex.Setpoint(t, draw(st.tuples(small, small, small)),
                               draw(st.tuples(small, small, small)))
                   for t in sorted([draw(st.sampled_from([0.0, 0.3])),
                                    *times]))
    controller = draw(st.sampled_from(["geo", "indi"]))
    scenario = ex.build_scenario("exp5", controller, {
        "controller_freq": 2000.0 / n_sub, "duration": duration,
        "disturbance": disturbance, "script": script,
        "noise_scale": draw(st.sampled_from([0.0, 1.0, 7.0, 31.0])),
        "cf_mismatch": draw(st.sampled_from([1.0, 0.5, 1.3])),
        "residual_scale": draw(st.sampled_from([1.0, 0.0])),
        # seeds of one to five 32-bit words: SeedSequence mixes the
        # words past its pool of 4 in last
        "seed": draw(st.integers(1, 5).flatmap(lambda words: st.integers(
            2 ** (32 * words - 32) - (words == 1), 2 ** (32 * words) - 1)))})
    params = draw(st.one_of(
        st.just(vehicle.default_params()), oracles.hovering_platforms,
        st.floats(1.5e-4, 1.794e-4).map(
            lambda tau: vehicle.default_params(motor_time_constant=tau))))
    return scenario, params


def outcome(run, scenario, params):
    """What run(scenario, params) gives, as a comparable value: the digest
    of the float bits of its rows, or its divergence report.  A digest,
    so that a failure prints no 0.5 MB diff."""
    try:
        log, _ = run(scenario, params)
        return sha256(log["t"].base).hexdigest()
    except dyn.NonFiniteState as exc:
        return (exc.t, exc.scenario, exc.seed, oracles.bits(exc.state),
                str(exc))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
# no shrinking: shrinking a failing run's hundreds of draws takes minutes
@settings(max_examples=100, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(loop=closed_loops())
@example(loop=(ex.build_scenario("exp5", "indi", {
    "duration": 2.048, "noise_scale": 7, "controller_freq": 400.0}),
    vehicle.default_params()))
@example(loop=(ex.build_scenario("exp3", "geo", {
    "gust": True, "duration": 2.6, "controller_freq": 2000.0 / 7}),
    vehicle.default_params()))
@example(loop=(ex.build_scenario("exp5", "geo", {"duration": 2.5}),
               vehicle.default_params(motor_time_constant=1.79075e-4)))
@example(loop=(ex.build_scenario("exp5", "indi", {
    "duration": 2.1, "noise_scale": 1, "seed": 2 ** 130 + 3}),
    vehicle.default_params()))
# gust and sensor noise on, so both draw from the run's one stream
@example(loop=(ex.build_scenario("exp3", "indi", {
    "gust": True, "noise_scale": 3, "duration": 4.0, "seed": 5}),
    vehicle.default_params()))
@example(loop=(ex.build_scenario("exp3", "geo", {
    "gust": True, "noise_scale": 1, "controller_freq": 125.0,
    "duration": 4.0, "seed": 9}), vehicle.default_params()))
def test_compiled_loop_equals_oracle_loop(loop):
    # the rows and the divergence report of the compiled loop are the
    # Python loop's, bit for bit
    scenario, params = loop
    assert outcome(ex.run_scenario, scenario, params) == outcome(
        oracles.run_scenario, scenario, params)


def bound_run(params):
    """ticks bound to a 2.1 s noisy indi hover at 500 Hz, 1050 ticks."""
    return ex._closed_loop(ex.build_scenario("exp5", "indi", {
        "duration": 2.1, "noise_scale": 7}), params)


TICKS_ARGUMENTS = ("truth", "control", "state", "run", "script", "n_sub",
                   "pose_every", "n_steps", "x0", "entropy")
BAD_CALLS = ["entropy-0-bytes", "entropy-6-bytes", "control-64-doubles",
             "state-of-geo", "script-6-doubles"]


def bad_args(ticks, name):
    """The bound run's arguments, the one `name` starts with made wrong."""
    args = dict(zip(TICKS_ARGUMENTS, ticks.args))
    args[name.partition("-")[0]] = {
        "entropy-0-bytes": b"",
        "entropy-6-bytes": args["entropy"] + b"\0\0",
        "control-64-doubles": np.zeros(64),
        "state-of-geo": np.zeros(12),  # beside indi's 69 constants
        "script-6-doubles": np.frombuffer(args["script"])[:6].copy()}[name]
    return args.values()


@pytest.mark.parametrize("name", BAD_CALLS)
def test_ticks_rejects_arguments_it_cannot_run(params, name):
    # the seed's words, the constants' length that gives the kind, the
    # state of that kind and whole setpoints; the error names the argument
    ticks = bound_run(params)
    with pytest.raises(ValueError, match=name.partition("-")[0]):
        ticks.func(*bad_args(ticks, name))


def test_rejected_calls_leave_the_run_as_it_was(params):
    # nothing of a rejected call is kept: the next call runs the ticks a
    # fresh run does
    ticks = bound_run(params)
    for name in BAD_CALLS:
        with pytest.raises(ValueError):
            ticks.func(*bad_args(ticks, name))
    assert same_bits(ticks(), bound_run(params)())


def test_a_bound_run_called_twice_writes_the_same_rows(params):
    # a call writes only the log it returns: the controller state and the
    # stream it seeds are copied, not advanced, so a second call runs the
    # same run again into a new array of its own
    ticks = bound_run(params)
    rows, again = ticks(), ticks()
    assert rows is not again and not np.shares_memory(rows, again)
    for log in (rows, again):
        assert log.shape == (1050, len(ex.LOG_HEADER))
        assert log.dtype == np.float64 and log.flags.c_contiguous
        assert log.flags.owndata and log.base is None
    assert same_bits(rows, again)


def test_ticks_runs_without_the_gil():
    # a bound 200 s exp4 run at 50 Hz (10,000 ticks) on a thread, while
    # this thread reads the clock in a loop: held over the call, the GIL
    # would stop the loop for the whole call; released, the longest stop
    # is a take of the GIL every 1024 ticks to check for signals
    sc = ex.build_scenario("exp4", "geo", {"controller_freq": 50.0,
                                           "duration": 200.0})
    ticks = ex._closed_loop(sc, vehicle.default_params())
    span = []

    def run():
        began = time.perf_counter()
        assert len(ticks()) == 10_000
        span.append((began, time.perf_counter()))

    thread = threading.Thread(target=run)
    stops, last = [], time.perf_counter()
    thread.start()
    while thread.is_alive():
        now = time.perf_counter()
        if now - last > 1e-3:
            stops.append((last, now))
        last = now
    thread.join(timeout=60)
    assert not thread.is_alive()
    (began, ended), = span
    longest = max((min(b, ended) - max(a, began) for a, b in stops),
                  default=0.0)
    assert longest < 0.2 * (ended - began)


class Alarm(Exception):
    pass


def test_a_signal_stops_a_long_run():
    # 2000 s of exp4 at 50 Hz, 100,000 ticks, about 1 s of loop on a
    # 2-core x86-64 VM: a SIGALRM at 50 ms stops it in the tick that
    # follows, with the exception the handler raises
    sc = ex.build_scenario("exp4", "geo", {"controller_freq": 50.0,
                                           "duration": 2000.0})

    def handler(signum, frame):
        raise Alarm

    old = signal.signal(signal.SIGALRM, handler)
    try:
        began = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        with pytest.raises(Alarm):
            ex.run_scenario(sc)
        took = time.perf_counter() - began
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert took < 0.5
