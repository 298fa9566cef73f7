"""End-to-end acceptance suite.

Eleven criteria: exact property checks (allocation, equilibrium, pole
placement, controller equivalence, filters, determinism, integrator
order) plus direction-of-effect/ordering checks on the five study
scenarios (model mismatch, load rejection, controller-rate degradation,
noise degradation).  Each test prints one PASS/FAIL line with the
measured numbers.  A last test checks every metric the study fixtures
compute against tests/golden_studies.json (see tests/test_golden.py).

The study fixtures run full closed-loop simulations and are module
scoped.  The exp4 and exp5 grids fly through `hexsim sweep` on every
core and are read back from its CSV; the determinism check runs its two
`hexsim run` invocations in two fresh interpreters at once.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hexsim import cli
from hexsim import dynamics as dyn
from hexsim import experiments as ex
from hexsim import vehicle
from hexsim.control import Gains, PoseReference, ndi_invert, outer_loop
from hexsim.filters import FilteredDerivative, SecondOrderFilter
from hexsim.vehicle import GRAVITY
from oracles import (analytic_step_response, assemble_F, pack,
                     quat_from_axis_angle)
from test_golden import STUDIES_PATH, off_record, studies_record

ROOT = Path(__file__).resolve().parents[1]


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def exp1_study(params):
    """exp1 per controller at full and half thrust-coefficient knowledge:
    {(controller, cf_mismatch): RunMetrics}."""
    table = {}
    for ctrl in ("geo", "indi"):
        for cf in (1.0, 0.5):
            sc = ex.build_scenario("exp1", ctrl, {"cf_mismatch": cf})
            _, metrics = ex.run_scenario(sc, params)
            table[ctrl, cf] = metrics
    return table


def exp2_study(params):
    """exp2 per controller: {controller: (log, RunMetrics)}."""
    return {ctrl: ex.run_scenario(ex.build_scenario("exp2", ctrl), params)
            for ctrl in ("geo", "indi")}


def sweep_table(out_dir, axis, repeats):
    """`hexsim sweep` over an axis on every core, its CSV (written in
    out_dir) read back as {(controller, axis value): row}, the row's
    statistics as floats."""
    out = out_dir / f"{axis}.csv"
    assert cli.main(["sweep", "--axis", axis, "--repeats", str(repeats),
                     "--jobs", str(os.cpu_count() or 1),
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        return {(row["controller"], float(row[axis])): SimpleNamespace(
                    **{name: float(row[name]) for name in cli._SWEEP_STATS})
                for row in csv.DictReader(fh)}


def exp4_study(out_dir):
    # one run per cell: repeat_runs returns that run's own statistics
    return sweep_table(out_dir, "frequency", 1)


def exp5_study(out_dir):
    # the grid also flies noise level 0, which criterion 8 does not read
    return sweep_table(out_dir, "noise", 3)


@pytest.fixture(scope="module")
def exp1_table(params):
    return exp1_study(params)


@pytest.fixture(scope="module")
def exp2_logs(params):
    return exp2_study(params)


@pytest.fixture(scope="module")
def exp4_table(tmp_path_factory):
    return exp4_study(tmp_path_factory.mktemp("exp4"))


@pytest.fixture(scope="module")
def exp5_table(tmp_path_factory):
    return exp5_study(tmp_path_factory.mktemp("exp5"))


def test_01_allocation_round_trip(params, eff, capsys):
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    tested = 0
    while tested < 1000:
        axis = rng.normal(size=3)
        q = quat_from_axis_angle(axis, rng.uniform(-0.4, 0.4))
        wrench = np.concatenate([
            params.mass * GRAVITY * np.array([0, 0, 1.0])
            + rng.uniform(-3, 3, 3),
            rng.uniform(-0.3, 0.3, 3)])
        cmd = vehicle.allocate(eff, q, wrench)
        if np.asarray(cmd.saturated).any():
            continue
        F = assemble_F(eff, q)
        worst = max(worst, np.linalg.norm(F @ cmd.u - wrench)
                    / np.linalg.norm(wrench))
        tested += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(capsys, "allocation round trip", ok,
           f"worst relative error {worst:.2e} over 1000 unsaturated "
           f"demands in {elapsed:.2f} s")


def test_02_hover_equilibrium(params, capsys):
    t0 = time.perf_counter()
    worst_p, worst_att = 0.0, 0.0
    for ctrl in ("geo", "indi"):
        sc = ex.build_scenario(
            "exp5", ctrl, {"residual_scale": 0.0, "duration": 5.0})
        log, _ = ex.run_scenario(sc, params)
        worst_p = max(worst_p, np.linalg.norm(log["e_p"], axis=1).max())
        worst_att = max(worst_att, np.abs(log["e_att_deg"]).max())
    elapsed = time.perf_counter() - t0
    ok = worst_p < 0.01 and worst_att < 0.1 and elapsed < 30.0
    report(capsys, "hover equilibrium", ok,
           f"max |e_p| {worst_p:.2e} m, max attitude error "
           f"{worst_att:.2e} deg, both controllers, {elapsed:.1f} s")


def test_03_pole_placement(params, eff, kernel, trim, capsys):
    # unshaped 1 m position step through the model-based inversion; the
    # closed loop should follow e'' + k_v e' + k_p e = 0
    gains = Gains()
    ref = PoseReference(p_d=np.array([1.0, 0, 0]), v_d=np.zeros(3),
                        a_d=np.zeros(3), q_d=np.array([1.0, 0, 0, 0]),
                        omega_d=np.zeros(3), omega_dot_d=np.zeros(3))
    state = pack(np.zeros(3), np.zeros(3), [1.0, 0, 0, 0], np.zeros(3),
                 trim.w_cmd)
    cmd = trim
    ts, es = [], []
    for k in range(int(4.0 / dyn.SIM_DT)):
        if k % 4 == 0:  # 500 Hz controller
            p, q, omega = state[dyn.P], state[dyn.Q], state[dyn.OMEGA]
            nu = outer_loop(gains, ref, p, state[dyn.V], q, omega)
            cmd = vehicle.allocate(eff, q, ndi_invert(nu, omega, params))
            ts.append(k * dyn.SIM_DT)
            es.append(1.0 - p[0])
        state = dyn.step(state, kernel, cmd, [(0.0,) * 6], dyn.SIM_DT)
    ts, es = np.array(ts), np.array(es)
    wn = math.sqrt(gains.k_p)
    zeta = gains.k_v / (2 * wn)
    wd = wn * math.sqrt(1 - zeta ** 2)
    sig = zeta * wn
    analytic = np.exp(-sig * ts) * (np.cos(wd * ts)
                                    + sig / wd * np.sin(wd * ts))
    dev = np.sqrt(np.mean((es - analytic) ** 2))
    ok = dev < 0.10
    report(capsys, "pole placement", ok,
           f"rms deviation from the gain-predicted envelope "
           f"{100 * dev:.1f}% of the unit step (limit 10%)")


def test_04_incremental_equals_model_based(params, capsys):
    logs = {}
    for ctrl in ("geo", "indi"):
        sc = ex.build_scenario(
            "exp5", ctrl, {"residual_scale": 0.0, "duration": 4.0})
        logs[ctrl], _ = ex.run_scenario(sc, params)
    mask = logs["geo"]["t"] >= 1.0
    rel = (np.linalg.norm(logs["indi"]["u"][mask] - logs["geo"]["u"][mask],
                          axis=1)
           / np.linalg.norm(logs["geo"]["u"][mask], axis=1))
    ok = rel.max() < 0.01
    report(capsys, "incremental/model-based equivalence", ok,
           f"max relative command difference {rel.max():.2e} after 1 s "
           f"warm-up (limit 1%)")


def test_05_model_mismatch_trend(exp1_table, capsys):
    dz_geo = exp1_table["geo", 0.5].pos_abs_mean[2]
    dz_indi = exp1_table["indi", 0.5].pos_abs_mean[2]
    rt = {k: m.roll_rise_time for k, m in exp1_table.items()}
    geo_change = (rt["geo", 0.5] - rt["geo", 1.0]) / rt["geo", 1.0]
    indi_change = abs(rt["indi", 0.5] - rt["indi", 1.0]) / rt["indi", 1.0]
    ok = (dz_geo >= 5 * dz_indi and indi_change < 0.20
          and geo_change >= 0.15)
    report(capsys, "model mismatch trend", ok,
           f"|dz| geo/indi = {dz_geo:.3f}/{dz_indi:.5f} m "
           f"(ratio {dz_geo / dz_indi:.0f}, need >= 5); rise time "
           f"geo {rt['geo', 1.0]:.3f}->{rt['geo', 0.5]:.3f} s "
           f"(+{100 * geo_change:.1f}%, need >= 15%), "
           f"indi {rt['indi', 1.0]:.3f}->{rt['indi', 0.5]:.3f} s "
           f"({100 * indi_change:.1f}%, need < 20%)")


def test_06_load_rejection_trend(exp2_logs, capsys):
    peaks = {}
    for ctrl, (log, _) in exp2_logs.items():
        mask = (log["t"] >= 6.0) & (log["t"] < 16.0)
        peaks[ctrl] = np.linalg.norm(log["e_p"][mask], axis=1).max()
    log_i, _ = exp2_logs["indi"]
    after = log_i["t"] >= 16.0  # two seconds past load removal at 14 s
    residual = np.linalg.norm(log_i["e_p"][after], axis=1).max()
    ok = peaks["indi"] < peaks["geo"] and residual < 0.02
    report(capsys, "load rejection trend", ok,
           f"peak |e_p| geo {peaks['geo']:.3f} m vs indi "
           f"{peaks['indi']:.4f} m; indi residual {residual:.4f} m "
           f"from 2 s after removal (limit 0.02 m)")


def test_07_controller_rate_trend(exp4_table, capsys):
    freqs = ex.CONTROLLER_FREQS
    pos_ordering = all(
        exp4_table["geo", f].pos_norm_mean
        > exp4_table["indi", f].pos_norm_mean for f in freqs)
    lon = {k: m.lon_att_mean_deg for k, m in exp4_table.items()}
    indi_ratio = lon["indi", 50.0] / lon["indi", 500.0]
    crossover = lon["geo", 50.0] < lon["indi", 50.0]
    ok = pos_ordering and indi_ratio >= 3.0 and crossover
    report(capsys, "controller rate trend", ok,
           f"position ordering geo > indi at all of {freqs}: "
           f"{pos_ordering}; indi attitude error 50 vs 500 Hz "
           f"{lon['indi', 50.0]:.3f}/{lon['indi', 500.0]:.3f} deg "
           f"(x{indi_ratio:.1f}, need >= 3); 50 Hz crossover geo "
           f"{lon['geo', 50.0]:.3f} < indi {lon['indi', 50.0]:.3f}: "
           f"{crossover}")


def test_08_noise_degradation_trend(exp5_table, capsys):
    levels = (1, 3, 7, 15, 31)
    details = []
    ok = True
    for ctrl in ("geo", "indi"):
        seq = [exp5_table[ctrl, lvl].lon_att_mean_deg for lvl in levels]
        inversions = sum(1 for a, b in zip(seq, seq[1:]) if b < a)
        tolerable = all(b >= 0.9 * a for a, b in zip(seq, seq[1:]))
        ok = ok and inversions <= 1 and tolerable
        details.append(f"{ctrl} " + "/".join(f"{v:.3f}" for v in seq))
    below = all(exp5_table["indi", lvl].lon_att_mean_deg
                < exp5_table["geo", lvl].lon_att_mean_deg
                for lvl in levels)
    ok = ok and below
    report(capsys, "noise degradation trend", ok,
           f"angular norms over x{levels}: " + "; ".join(details)
           + f"; indi below geo at every level: {below}")


def test_09_filters(capsys):
    fs, wn = 500.0, 2 * np.pi * 15
    t = np.arange(250) / fs
    worst_rms = 0.0
    for damping in (0.5, 0.7, 1.0, 1.4):
        f = SecondOrderFilter(wn, damping, 1.0 / fs)
        y = np.array([f.step([1.0])[0] for _ in t])
        ya = analytic_step_response(wn, damping, t)
        worst_rms = max(worst_rms, float(np.sqrt(np.mean((y - ya) ** 2))))
    d = FilteredDerivative(1.0 / fs)
    ramp = [d.step([3.7 * k / fs])[0] for k in range(50)]
    ramp_err = max(abs(v - 3.7) for v in ramp[1:])
    ok = worst_rms < 0.02 and ramp_err < 1e-9
    report(capsys, "filters", ok,
           f"worst step-response rms vs analytic {100 * worst_rms:.2f}% "
           f"(limit 2%), ramp derivative error {ramp_err:.1e}")


def test_10_determinism(tmp_path, capsys):
    # two fresh interpreters at once, so no state carries between the runs
    dirs = [tmp_path / "a", tmp_path / "b"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [subprocess.Popen(
        [sys.executable, "-m", "hexsim.cli", "run", "--scenario", "exp1",
         "--controller", "indi", "--out", str(d)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL) for d in dirs]
    try:
        assert [run.wait(timeout=300) for run in runs] == [0, 0]
    finally:
        for run in runs:
            run.kill()
            run.wait()
    a = (dirs[0] / "log.csv").read_bytes()
    b = (dirs[1] / "log.csv").read_bytes()
    ok = a == b
    report(capsys, "determinism", ok,
           f"two full exp1 invocations, log.csv {len(a)} bytes, "
           f"byte-identical: {ok}")


def test_11_integrator_order(kernel, trim, capsys):
    def propagate(h):
        st = pack(
            np.zeros(3), [0.5, -0.3, 0.2], [1.0, 0, 0, 0], [2.0, -1.5, 1.0],
            trim.w_cmd * np.array([1.1, 0.9, 1.05, 0.95, 1.0, 1.0]))
        cmd = vehicle.ActuatorCommand(
            u=trim.u,
            w_cmd=trim.w_cmd * np.array([0.9, 1.1, 1.0, 1.0, 1.05, 0.95]),
            saturated=np.zeros(6, dtype=bool))
        st = dyn.step(st, kernel, cmd, [(0.0,) * 6] * int(round(1.0 / h)),
                      h)
        return np.concatenate(
            [st[dyn.P], st[dyn.V], st[dyn.Q], st[dyn.OMEGA]])

    h = dyn.SIM_DT
    x1, x2, x4 = propagate(h), propagate(h / 2), propagate(h / 4)
    e1 = np.linalg.norm(x1 - x4)
    e2 = np.linalg.norm(x2 - x4)
    ratio = e1 / e2
    ok = ratio >= 12.0
    report(capsys, "integrator order", ok,
           f"1 s trajectory error {e1:.2e} at dt -> {e2:.2e} at dt/2 "
           f"(factor {ratio:.1f}, need >= 12)")


def test_studies_match_golden_record(exp1_table, exp2_logs, exp4_table,
                                     exp5_table):
    off = off_record(
        studies_record(exp1_table, exp2_logs, exp4_table, exp5_table),
        json.loads(STUDIES_PATH.read_text()))
    assert not off, f"study metrics off the golden record: {off}"
