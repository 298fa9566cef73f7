import json
import math

import numpy as np
import pytest

from hexsim import cli, dynamics, experiments, vehicle
from hexsim.control import Gains


def run_cli(*argv):
    return cli.main(list(argv))


def test_validate_default(capsys):
    assert run_cli("validate") == 0
    out = capsys.readouterr().out
    assert "condition number" in out
    assert "result: OK" in out


def test_validate_degenerate_tilt(tmp_path, capsys):
    cfg = tmp_path / "flat.ini"
    cfg.write_text("[platform]\ntilt_angle_deg = 0\n")
    assert run_cli("validate", "--config", str(cfg)) == 0
    out = capsys.readouterr().out
    assert "DEGENERATE" in out
    assert "result: FAIL" in out


def test_validate_overweight(tmp_path, capsys):
    cfg = tmp_path / "heavy.ini"
    cfg.write_text("[platform]\nmass = 100\n")
    assert run_cli("validate", "--config", str(cfg)) == 0
    out = capsys.readouterr().out
    assert "outside actuator limits" in out


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nbogus = 1\n")
    assert run_cli("run", "--config", str(cfg)) == cli.EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err


def test_unknown_section_exits_2(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[rocket]\nstages = 2\n")
    assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG


def test_unparsable_value_exits_2(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nseed = banana\n")
    assert run_cli("run", "--config", str(cfg)) == cli.EXIT_CONFIG


def test_missing_config_exits_2(tmp_path):
    assert run_cli("validate", "--config",
                   str(tmp_path / "nope.ini")) == cli.EXIT_CONFIG


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "art"
    assert run_cli("run", "--scenario", "exp5", "--controller", "indi",
                   "--duration", "3", "--out", str(out)) == 0
    assert (out / "log.csv").exists()
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["seed"] == 1
    assert doc["config"]["scenario"]["controller"] == "indi"
    assert "hexsim" in doc["versions"]
    assert all(np.isfinite(v) for v in doc["metrics"]["pos_abs_mean"])


def test_run_records_mismatch_factor(tmp_path):
    out = tmp_path / "art"
    assert run_cli("run", "--scenario", "exp5", "--controller", "geo",
                   "--cf-mismatch", "0.5", "--duration", "3",
                   "--out", str(out)) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["config"]["scenario"]["cf_mismatch"] == 0.5


def test_run_deterministic_log(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("run", "--scenario", "exp5", "--controller", "indi",
                       "--noise-scale", "3", "--duration", "3",
                       "--out", str(out)) == 0
    assert (a / "log.csv").read_bytes() == (b / "log.csv").read_bytes()


def test_log_csv_header_and_round_trip(tmp_path):
    out = tmp_path / "art"
    run_cli("run", "--scenario", "exp5", "--controller", "geo",
            "--duration", "3", "--out", str(out))
    lines = (out / "log.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == [name for name, _, _ in cli.LOG_COLUMNS]
    assert header[0] == "t"
    assert header[-1] == "sat_6"
    # repr formatting survives a parse round trip exactly
    row = lines[10].split(",")
    assert float(row[0]) == 9 * (1.0 / 500.0)


def per_cell_log_csv(path, log):
    """The cell-by-cell writer that write_log_csv replaced, kept as its
    oracle."""
    n = len(log["t"])
    with open(path, "w") as fh:
        fh.write(",".join(name for name, _, _ in cli.LOG_COLUMNS) + "\n")
        for row in range(n):
            cells = []
            for name, key, col in cli.LOG_COLUMNS:
                if name == "t":
                    cells.append(repr(float(log["t"][row])))
                elif key == "saturated":
                    cells.append(str(int(log[key][row, col])))
                else:
                    cells.append(repr(float(log[key][row, col])))
            fh.write(",".join(cells) + "\n")


def test_log_csv_matches_per_cell_writer(tmp_path):
    sc = experiments.build_scenario("exp3", "indi",
                                    {"gust": True, "duration": 2.5})
    log, _ = experiments.run_scenario(sc)
    # the short hover saturates nothing; set flags so both values show
    log["saturated"][::7, 2] = True
    log["saturated"][::3, 5] = True
    cli.write_log_csv(tmp_path / "rows.csv", log)
    per_cell_log_csv(tmp_path / "cells.csv", log)
    assert ((tmp_path / "rows.csv").read_bytes()
            == (tmp_path / "cells.csv").read_bytes())


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nscenario = exp5\ncontroller = geo\n"
                   "duration = 3\nseed = 5\n")
    out = tmp_path / "art"
    assert run_cli("run", "--config", str(cfg), "--controller", "indi",
                   "--out", str(out)) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["config"]["scenario"]["controller"] == "indi"
    assert doc["seed"] == 5


def test_gains_and_filters_from_config(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nscenario = exp5\ncontroller = indi\n"
                   "duration = 3\n"
                   "[gains]\nk_p = 5\nk_v = 4.5\nk_q = 100\nk_w = 20\n"
                   "[filters]\ncutoff_hz = 20\ndamping = 0.8\n")
    out = tmp_path / "art"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    doc = json.loads((out / "metrics.json").read_text())
    sc = doc["config"]["scenario"]
    assert sc["gains"] == {"k_p": 5.0, "k_v": 4.5, "k_q": 100.0, "k_w": 20.0}
    assert sc["filter_cutoff_hz"] == 20.0
    assert sc["filter_damping"] == 0.8


def test_sweep_zero_repeats_rejected():
    assert run_cli("sweep", "--axis", "noise",
                   "--repeats", "0") == cli.EXIT_CONFIG


def test_sweep_bad_axis_rejected():
    with pytest.raises(SystemExit):
        run_cli("sweep", "--axis", "altitude")


def test_sweep_noise_row_count(tmp_path):
    # 6 noise levels x 2 controllers = 12 rows; single short repeat with a
    # shortened hover keeps this affordable
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nduration = 3\n")
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", str(cfg), "--axis", "noise",
                   "--repeats", "1", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 12
    assert lines[0].startswith("noise,controller,")
    assert all(line.endswith(",ok") for line in lines[1:])


def test_sweep_cells_carry_config(tmp_path, monkeypatch):
    # every cell's scenario must carry the [run], [gains] and [filters]
    # keys; the axis value overrides the [run] key it sweeps
    seen = []

    def fake_repeat_runs(scenario, n, seed_base=None, params=None):
        seen.append(scenario)
        return experiments.RunMetrics(lon_att_mean_deg=0.0,
                                      lon_att_std_deg=0.0,
                                      pos_norm_mean=0.0,
                                      pos_norm_std=0.0), []

    monkeypatch.setattr(experiments, "repeat_runs", fake_repeat_runs)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nseed = 4\nduration = 2.5\ncf_mismatch = 0.5\n"
                   "residual_scale = 0.25\nnoise_scale = 3\n"
                   "[gains]\nk_p = 5.0\n"
                   "[filters]\ncutoff_hz = 20.0\ndamping = 0.9\n")
    assert run_cli("sweep", "--config", str(cfg), "--axis", "frequency",
                   "--repeats", "1", "--out",
                   str(tmp_path / "sweep.csv")) == 0
    assert len(seen) == 2 * len(experiments.CONTROLLER_FREQS)
    assert [sc.controller_freq for sc in seen[:5]] == list(
        experiments.CONTROLLER_FREQS)
    for sc in seen:
        assert sc.id == "exp4"
        assert (sc.seed, sc.duration) == (4, 2.5)
        assert (sc.cf_mismatch, sc.residual_scale) == (0.5, 0.25)
        assert sc.noise_scale == 3
        assert sc.gains == Gains(k_p=5.0)
        assert (sc.filter_cutoff_hz, sc.filter_damping) == (20.0, 0.9)
    assert {sc.controller for sc in seen} == {"geo", "indi"}


def nan_command_after(monkeypatch, steps):
    """Make every truth step after the first `steps` of each run see NaN
    rotor commands, so the run diverges there."""
    real = dynamics.step
    count = []

    def step(x, params, eff, cmd, dist_force, dist_moment, dt):
        count.append(1)
        if len(count) > steps:
            cmd = vehicle.ActuatorCommand(u=cmd.u, w_cmd=np.full(6, np.nan),
                                          saturated=cmd.saturated)
        return real(x, params, eff, cmd, dist_force, dist_moment, dt)

    def run_scenario(scenario, params=None):
        count.clear()
        return real_run(scenario, params)

    real_run = experiments.run_scenario
    monkeypatch.setattr(dynamics, "step", step)
    monkeypatch.setattr(experiments, "run_scenario", run_scenario)


def assert_divergence_report(err, scenario, seed):
    assert f"simulation diverged: simulation state diverged at t = 0.0500 s " \
        f"in scenario {scenario} with seed {seed}" in err
    assert "last finite state:" in err
    for block in ("p", "v", "q", "omega", "rotor_w"):
        values = next(line for line in err.splitlines()
                      if line.strip().startswith(f"{block}: ["))
        numbers = values.split("[", 1)[1].rstrip("]").split(", ")
        assert all(math.isfinite(float(v)) for v in numbers)


def test_run_divergence_reported(tmp_path, monkeypatch, capsys):
    nan_command_after(monkeypatch, 100)
    code = run_cli("run", "--scenario", "exp5", "--controller", "geo",
                   "--seed", "4", "--duration", "1",
                   "--out", str(tmp_path / "art"))
    assert code == cli.EXIT_DIVERGED
    assert_divergence_report(capsys.readouterr().err, "exp5", 4)


def test_sweep_divergence_reported(tmp_path, monkeypatch, capsys):
    nan_command_after(monkeypatch, 100)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nseed = 6\nduration = 1\n")
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--config", str(cfg), "--axis", "noise",
                   "--repeats", "1", "--out", str(out))
    assert code == cli.EXIT_DIVERGED
    assert_divergence_report(capsys.readouterr().err, "exp5", 6)
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 12
    assert all("diverged at t = 0.0500 s" in row for row in rows)
