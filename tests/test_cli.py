import concurrent.futures
import contextlib
import errno
import io
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
import tracemalloc
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexsim import cli, control, dynamics, experiments, vehicle
from hexsim.control import Gains
import oracles


def run_cli(*argv):
    return cli.main(list(argv))


def test_validate_default(capsys):
    assert run_cli("validate") == 0
    out = capsys.readouterr().out
    assert "condition number" in out
    assert "motor lag 0.02 s inside RK4's stability interval" in out
    assert "result: OK" in out


def test_validate_degenerate_tilt(tmp_path, capsys):
    cfg = tmp_path / "flat.ini"
    cfg.write_text("[platform]\ntilt_angle_deg = 0\n")
    assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
    out = capsys.readouterr().out
    assert "DEGENERATE" in out
    assert "result: FAIL" in out


def test_validate_overweight(tmp_path, capsys):
    cfg = tmp_path / "heavy.ini"
    cfg.write_text("[platform]\nmass = 100\n")
    assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
    out = capsys.readouterr().out
    assert "outside actuator limits" in out
    assert "result: FAIL" in out


@pytest.mark.parametrize("arm", ["0", "-0.375"])
def test_validate_rejects_a_nonpositive_arm(tmp_path, capsys, arm):
    # a zero arm would fly on drag torque alone, a negative one a
    # mirrored ring; neither is a platform
    cfg = tmp_path / "arm.ini"
    cfg.write_text(f"[platform]\narm_length = {arm}\n")
    assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "arm_length must be positive" in err
    assert "result: OK" not in out


# a platform too heavy for its rotors: validate prints "trim outside
# actuator limits ... result: FAIL"
HEAVY = "[platform]\nmass = 40\n"


def test_run_rejects_a_platform_that_cannot_hover(tmp_path, capsys):
    (tmp_path / "c.ini").write_text(HEAVY)
    assert run_cli("run", "--scenario", "exp5", "--duration", "3",
                   "--config", str(tmp_path / "c.ini"),
                   "--out", str(tmp_path / "art")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "trim" in err
    assert not (tmp_path / "art").exists()


def test_sweep_rejects_a_platform_that_cannot_hover(tmp_path, capsys,
                                                   monkeypatch):
    cells = []
    monkeypatch.setattr(cli, "_sweep_cell", cells.append)
    (tmp_path / "c.ini").write_text(HEAVY + "[run]\nduration = 2.1\n")
    assert run_cli("sweep", "--axis", "noise", "--repeats", "1",
                   "--config", str(tmp_path / "c.ini"),
                   "--out", str(tmp_path / "s.csv")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "trim" in err
    assert cells == []
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command, args", [
    ("validate", ()), ("run", ("--out", "art")),
    ("sweep", ("--repeats", "1", "--out", "art")),
])
def test_a_model_without_rank_6_fails_the_preflight(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    args):
    # the platform flies, but a controller believing c_f 1e-12 times as
    # large has no rank-6 effectiveness: each command names cf_mismatch
    # and writes nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text("[run]\ncf_mismatch = 1e-12\n")
    assert run_cli(command, "--config", "c.ini", *args) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    line = "controller model at cf_mismatch 1e-12: DEGENERATE"
    assert line in (out if command == "validate" else err)
    assert "result: OK" not in out
    assert not (tmp_path / "art").exists()


def test_validate_reports_the_model_at_a_cf_mismatch(tmp_path, capsys):
    (tmp_path / "c.ini").write_text("[run]\ncf_mismatch = 0.5\n")
    assert run_cli("validate", "--config", str(tmp_path / "c.ini")) == 0
    out = capsys.readouterr().out
    assert "controller model at cf_mismatch 0.5: effectiveness rank 6" in out
    assert "result: OK" in out


# inputs whose arithmetic overflowed, underflowed to a zero c_f, gave a
# NaN hover trim, infinite truth step constants, an INDI filter that is
# not finite (2 pi f overflows at 1e308, wn^2 at 1e200) or an infinite
# residual wrench (3.7 N x 1e308)
OUT_OF_RANGE = [
    ("run", "cf_mismatch", 1e-320),
    ("run", "residual_scale", 1e308),
    ("run", "residual_scale", -1e308),
    ("platform", "w_max", 1e200),
    ("platform", "w_max", 1e300),
    ("platform", "w_max", 1e308),
    ("platform", "w_max", -1e308),
    ("platform", "motor_time_constant", 1e-150),
    ("platform", "motor_time_constant", 1e-300),
    ("platform", "mass", 1e308),
    ("platform", "c_f", 1e-320),
    ("platform", "inertia_xx", 1e-320),
    ("filters", "cutoff_hz", 1e200),
    ("filters", "cutoff_hz", 1e308),
]
ANY_KEY = [("run", "cf_mismatch"), ("run", "residual_scale"),
           *(("platform", key) for key in cli._SECTIONS["platform"])]


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(ANY_KEY), value=st.just(0.0) | st.builds(
    lambda sign, exponent: sign * 10.0 ** exponent,
    st.sampled_from([1.0, -1.0]), st.floats(-320.0, 308.0)))
@example(key=("run", "cf_mismatch"), value=1e-320)
@example(key=("platform", "w_max"), value=1e200)
@example(key=("platform", "w_max"), value=1e300)
@example(key=("platform", "w_max"), value=1e308)
@example(key=("platform", "w_max"), value=-1e308)
@example(key=("platform", "motor_time_constant"), value=1e-150)
@example(key=("platform", "motor_time_constant"), value=1e-300)
@example(key=("platform", "mass"), value=1e308)
@example(key=("platform", "c_f"), value=1e-320)
@example(key=("platform", "c_f"), value=5e-324)  # inv finds it singular
@example(key=("platform", "inertia_xx"), value=1e-320)
def test_validate_exits_0_or_2_on_any_value(tmp_path_factory, key, value):
    # one [platform] key or cf_mismatch set to any magnitude from a
    # subnormal to near the largest float, of either sign, or to 0:
    # validate passes or fails the config, raises nothing, and never
    # passes a NaN hover trim
    section, name = key
    ini = tmp_path_factory.getbasetemp() / "any_value.ini"
    ini.write_text(f"[{section}]\n{name} = {value!r}\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["validate", "--config", str(ini)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), err.getvalue()
    assert not ("result: OK" in out.getvalue() and "nan" in out.getvalue())


@pytest.mark.parametrize("command, args", [
    ("validate", ()), ("run", ("--out", "art")),
    ("sweep", ("--repeats", "1", "--out", "art")),
])
@pytest.mark.parametrize("section, key, value", OUT_OF_RANGE,
                         ids=[f"{key}={value!r}"
                              for _, key, value in OUT_OF_RANGE])
@pytest.mark.filterwarnings("error")
def test_out_of_range_input_exits_2_naming_its_key(
        tmp_path, capsys, monkeypatch, command, args, section, key, value):
    # each is a config error that names its key (validate prints a
    # failed check below its platform line), nothing is written and no
    # arithmetic warns
    monkeypatch.chdir(tmp_path)
    setting = f"{key} = {value!r}\n"
    (tmp_path / "c.ini").write_text(
        "[run]\nduration = 2.1\n"
        + (setting if section == "run" else f"[{section}]\n{setting}"))
    assert run_cli(command, "--config", "c.ini", *args) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    if command == "validate" and not err:
        assert out.endswith("result: FAIL\n")
        err = out.partition("\n")[2]
    assert key in err
    assert not (tmp_path / "art").exists()


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nbogus = 1\n")
    assert run_cli("run", "--config", str(cfg)) == cli.EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err


def test_unknown_section_exits_2(tmp_path, capsys):
    # configparser would copy a [DEFAULT] section's keys into every
    # section, [run] included; hexsim has no such section
    cfg = tmp_path / "bad.ini"
    for text in ("[rocket]\nstages = 2\n", "[DEFAULT]\nseed = 5\n",
                 "[run]\nscenario = exp2\n[DEFAULT]\nseed = 5\n"):
        cfg.write_text(text)
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        assert "unknown config section" in capsys.readouterr().err


def test_unparsable_value_exits_2(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nseed = banana\n")
    assert run_cli("run", "--config", str(cfg)) == cli.EXIT_CONFIG


def test_missing_config_exits_2(tmp_path):
    assert run_cli("validate", "--config",
                   str(tmp_path / "nope.ini")) == cli.EXIT_CONFIG


@pytest.mark.parametrize("argv, ini", [
    (["--cf-mismatch", "0"], None),
    (["--cf-mismatch", "-0.5"], None),
    (["--cf-mismatch", "nan"], None),
    (["--duration", "nan"], None),
    (["--duration", "inf"], None),
    (["--residual-scale", "inf"], None),
    ([], "[platform]\ntilt_angle_deg = nan\n"),
    ([], "[platform]\ntilt_angle_deg = 0\n"),
    ([], "[platform]\ninertia_zz = inf\n"),
    ([], "[gains]\nk_p = nan\n"),
    ([], "[platform]\nmotor_time_constant = 0\n"),
    ([], "[platform]\nmotor_time_constant = -0.02\n"),
    ([], "[platform]\nmotor_time_constant = 1e-4\n"),
    ([], "[platform]\nc_f = -1\n"),
    ([], "[platform]\nc_f = 0\n"),
    ([], "[platform]\narm_length = 0\n"),
    ([], "[platform]\narm_length = -0.375\n"),
    ([], "[filters]\ncutoff_hz = -1\n"),
    ([], "[filters]\ncutoff_hz = 0\n"),
    ([], "[filters]\ncutoff_hz = nan\n"),
    ([], "[filters]\ncutoff_hz = inf\n"),
    ([], "[filters]\ndamping = 3\n"),
    ([], "[filters]\ndamping = 0\n"),
    ([], "[filters]\ndamping = nan\n"),
    (["--duration", "1.5"], None),
    (["--duration", "2"], None),
    (["--duration", "-1"], None),
    (["--controller-freq", "50", "--duration", "2.0001"], None),
    (["--scenario", "exp1", "--gust"], None),
    (["--scenario", "exp2", "--gust"], None),
    (["--scenario", "exp4", "--gust"], None),
    (["--scenario", "exp5", "--gust"], None),
    ([], "[run]\nscenario = exp5\ngust = true\n"),
    (["--controller-freq", "123"], None),
    (["--controller-freq", "0"], None),
    (["--controller-freq", "nan"], None),
    (["--noise-scale", "-1"], None),
    (["--noise-scale", "nan"], None),
    (["--noise-scale", "inf"], None),
    (["--seed", "-1"], None),
], ids=["cf-mismatch-0", "cf-mismatch-negative", "cf-mismatch-nan",
        "duration-nan", "duration-inf", "residual-scale-inf",
        "ini-tilt-nan", "ini-tilt-0", "ini-inertia-inf", "ini-k_p-nan",
        "ini-tau-0", "ini-tau-negative", "ini-tau-unstable",
        "ini-c_f-negative", "ini-c_f-0",
        "ini-arm-0", "ini-arm-negative",
        "ini-cutoff-negative", "ini-cutoff-0", "ini-cutoff-nan",
        "ini-cutoff-inf", "ini-damping-3", "ini-damping-0", "ini-damping-nan",
        "duration-1.5", "duration-warmup", "duration-negative",
        "duration-no-tick-after-warmup",
        "gust-exp1", "gust-exp2", "gust-exp4", "gust-exp5",
        "ini-gust-exp5", "controller-freq-123", "controller-freq-0",
        "controller-freq-nan", "noise-scale-negative", "noise-scale-nan",
        "noise-scale-inf", "seed-negative"])
def test_bad_run_input_exits_2(tmp_path, capsys, argv, ini):
    # a bad input is a config error (exit 2), never a traceback; the
    # short duration comes first so a case's own --duration wins
    if ini is not None:
        (tmp_path / "c.ini").write_text(ini)
        argv = [*argv, "--config", str(tmp_path / "c.ini")]
    assert run_cli("run", "--duration", "2.5", *argv,
                   "--out", str(tmp_path / "art")) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    if ini is not None:  # validate rejects every config that run rejects
        assert run_cli("validate", "--config",
                       str(tmp_path / "c.ini")) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err.startswith("config error:") or out.endswith(
            "result: FAIL\n")


def test_run_flies_a_motor_lag_inside_rk4_stability(tmp_path):
    # tau = 0.19 ms is just inside the interval that tau = 0.1 ms is
    # outside (ini-tau-unstable): P(SIM_DT / tau) is about 0.79
    (tmp_path / "c.ini").write_text(
        "[platform]\nmotor_time_constant = 1.9e-4\n")
    out = tmp_path / "art"
    assert run_cli("validate", "--config", str(tmp_path / "c.ini")) == 0
    assert run_cli("run", "--duration", "2.5", "--config",
                   str(tmp_path / "c.ini"), "--out", str(out)) == cli.EXIT_OK
    doc = json.loads((out / "metrics.json").read_text())
    assert all(np.isfinite(v) for v in doc["metrics"]["pos_abs_mean"])


def test_a_log_too_long_to_allocate_is_a_config_error(tmp_path, capsys):
    # 1e9 s at 500 Hz is a 207 TiB log, beyond any address space, so the
    # allocation fails at once and nothing is allocated
    (tmp_path / "c.ini").write_text("[run]\nduration = 1e9\n")
    for argv in (["run", "--scenario", "exp5", "--duration", "1e9",
                  "--out", str(tmp_path / "art")],
                 ["sweep", "--axis", "noise", "--repeats", "1", "--config",
                  str(tmp_path / "c.ini"), "--out", str(tmp_path / "s.csv")]):
        assert run_cli(*argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: Unable to allocate")
        assert err.count("\n") == 1
    assert not (tmp_path / "art" / "log.csv").exists()
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command, args", [
    ("validate", ()), ("run", ("--out", "art")),
    ("sweep", ("--repeats", "1", "--out", "art")),
])
@pytest.mark.parametrize("duration", [1e15, 1e30])
def test_a_log_no_array_can_hold_exits_2_naming_duration(
        tmp_path, capsys, monkeypatch, command, args, duration):
    # numpy's "array is too big" (1e15), and a step count past the
    # ssize_t that ticks reads (1e30), were tracebacks, and validate
    # passed both
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(f"[run]\nduration = {duration!r}\n")
    assert run_cli(command, "--config", "c.ini", *args) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith("config error: duration") and "array" in err
    assert "result: OK" not in out
    assert sorted(tmp_path.iterdir()) == [tmp_path / "c.ini"]


def test_a_filter_of_finite_coefficients_flies(tmp_path):
    # 1e150 Hz squares to 4e301: the coefficients stay finite
    (tmp_path / "c.ini").write_text("[filters]\ncutoff_hz = 1e150\n")
    assert run_cli("validate", "--config", str(tmp_path / "c.ini")) == 0
    assert run_cli("run", "--scenario", "exp5", "--duration", "2.1",
                   "--config", str(tmp_path / "c.ini"),
                   "--out", str(tmp_path / "art")) == cli.EXIT_OK


def test_rejected_run_leaves_no_output_directory(tmp_path):
    # run_scenario fails before its first tick: the output directory and
    # the parent that run made for it are gone again
    for out in (tmp_path / "X", tmp_path / "new" / "X"):
        assert run_cli("run", "--scenario", "exp5", "--duration", "1e9",
                       "--out", str(out)) == cli.EXIT_CONFIG
        assert not out.exists()
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_failed_truth_step_build_exits_4_and_writes_nothing(
        tmp_path, package_copy, compiler):
    # a fresh copy of the package must build the truth step, with no
    # compiler on PATH or with one that fails: run and sweep exit 4 with
    # the compiler command and the first line of its stderr, before
    # writing anything
    cc = sysconfig.get_config_var("CC").split()[0]
    if os.path.isabs(cc):
        pytest.skip(f"the compiler is named by an absolute path, {cc}")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if compiler == "failing":
        (bin_dir / cc).write_text(
            "#!/bin/sh\necho 'cc: no headers' >&2\necho more >&2\nexit 1\n")
        (bin_dir / cc).chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(package_copy), PATH=str(bin_dir))
    for argv in (["run", "--duration", "2.5", "--out", "X"],
                 ["sweep", "--axis", "noise", "--out", "s.csv"]):
        done = subprocess.run([sys.executable, "-m", "hexsim.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == cli.EXIT_IO, done.stderr
        assert done.stderr.startswith(
            f"io error: cannot build the truth step: {cc} ")
        assert done.stderr.endswith(
            ": cc: no headers\n" if compiler == "failing"
            else f"No such file or directory: '{cc}'\n")
    assert not (tmp_path / "X").exists()
    assert not (tmp_path / "s.csv").exists()
    assert list(package_copy.glob("hexsim/__pycache__/_truth*")) == []


# (command, flags, the INI text that must give the same typed config)
FLAG_AND_INI = [
    ("run", ["--scenario", "exp3"], "[run]\nscenario = exp3"),
    ("run", ["--controller", "geo"], "[run]\ncontroller = geo"),
    ("run", ["--controller-freq", "62.5"], "[run]\ncontroller_freq = 62.5"),
    ("run", ["--cf-mismatch", "0.5"], "[run]\ncf_mismatch = 0.5"),
    ("run", ["--noise-scale", "3"], "[run]\nnoise_scale = 3"),
    ("run", ["--seed", "7"], "[run]\nseed = 7"),
    ("run", ["--duration", "4.5"], "[run]\nduration = 4.5"),
    ("run", ["--residual-scale", "0.25"], "[run]\nresidual_scale = 0.25"),
    ("run", ["--gust"], "[run]\ngust = true"),
    ("run", ["--out", "results/a"], "[run]\nout = results/a"),
    ("sweep", ["--axis", "noise"], "[sweep]\naxis = noise"),
    ("sweep", ["--repeats", "2"], "[sweep]\nrepeats = 2"),
    ("sweep", ["--jobs", "2"], "[sweep]\njobs = 2"),
    ("sweep", ["--seed", "9"], "[run]\nseed = 9"),
    ("sweep", ["--out", "s.csv"], "[sweep]\nout = s.csv"),
]


def typed(config):
    return {(section, key): (type(value), value)
            for section, values in config.items()
            for key, value in values.items()}


@pytest.mark.parametrize("command, flags, ini", FLAG_AND_INI,
                         ids=[f"{c}{f[0]}" for c, f, _ in FLAG_AND_INI])
def test_flag_sets_same_value_as_ini_key(tmp_path, command, flags, ini):
    (tmp_path / "c.ini").write_text(ini + "\n")
    args = cli.make_parser().parse_args([command, *flags])
    from_flags = cli._apply_flags(cli.load_config(), args)
    assert typed(from_flags) == typed(cli.load_config(tmp_path / "c.ini"))


def test_every_setting_flag_is_checked():
    # a setting's flag has the dest "section.key"; FLAG_AND_INI covers all
    parser = cli.make_parser()
    for command in ("run", "sweep"):
        settings = {dest for dest in vars(parser.parse_args([command]))
                    if "." in dest}
        checked = {ini[1:].replace("]\n", ".").split(" = ")[0]
                   for c, _, ini in FLAG_AND_INI if c == command}
        assert settings == checked


def test_the_parser_offers_the_tables():
    # each choice of a flag is a key of the table it reads
    commands = next(action.choices for action in cli.make_parser()._actions
                    if action.dest == "command")
    offered = {action.dest: list(action.choices)
               for parser in commands.values() for action in parser._actions
               if action.choices}
    assert offered == {"run.scenario": list(experiments.STUDIES),
                       "run.controller": list(control.CONTROLLER_KINDS),
                       "sweep.axis": list(cli._SWEEP_AXES)}


def test_run_writes_artifacts(tmp_path, monkeypatch):
    # scipy is a test tool only: None in sys.modules makes `import scipy`
    # raise ImportError
    monkeypatch.setitem(sys.modules, "scipy", None)
    out = tmp_path / "art"
    assert run_cli("run", "--scenario", "exp5", "--controller", "indi",
                   "--duration", "3", "--out", str(out)) == 0
    assert (out / "log.csv").exists()
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["seed"] == 1
    assert doc["config"]["scenario"]["controller"] == "indi"
    assert "hexsim" in doc["versions"]
    assert "scipy" not in doc["versions"]
    assert all(np.isfinite(v) for v in doc["metrics"]["pos_abs_mean"])


def test_metrics_json_is_strict_json(tmp_path):
    # exp1 cut at 3 s ends before its roll step at 5 s, so the rise time
    # is never reached: metrics.json records it as null, not as the NaN
    # that strict JSON parsers reject
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    out = tmp_path / "art"
    assert run_cli("run", "--scenario", "exp1", "--duration", "3",
                   "--out", str(out)) == 0
    doc = json.loads((out / "metrics.json").read_text(),
                     parse_constant=reject)
    assert doc["metrics"]["roll_rise_time"] is None


def test_run_takes_a_noise_scale_off_the_sweep_grid(tmp_path):
    # any finite noise scale >= 0 runs; the sweep grid is only the default
    out = tmp_path / "art"
    assert run_cli("run", "--scenario", "exp5", "--controller", "indi",
                   "--noise-scale", "2", "--duration", "2.5",
                   "--out", str(out)) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["config"]["scenario"]["noise_scale"] == 2.0
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


def avx512_dispatch_targets():
    """numpy's AVX-512 dispatch targets, x86-64-v4 and the AVX512_ levels,
    that this machine enables."""
    from numpy._core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if (name == "X86_V4" or name.startswith("AVX512"))
            and umath.__cpu_features__.get(name)]


def test_run_artifacts_do_not_follow_numpy_cpu_dispatch(tmp_path):
    # one run in two fresh interpreters, one of them with numpy's AVX-512
    # loops switched off, writes the same bytes: no logged value comes
    # from a numpy function whose SIMD loops round otherwise than its
    # scalar ones (numpy's arctan2 and arcsin differ from libm's atan2 and
    # asin on about 8 % of inputs on an AVX-512 machine)
    targets = avx512_dispatch_targets()
    if not targets:
        pytest.skip("this machine enables none of numpy's AVX-512 "
                    "dispatch targets")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    envs = [env, dict(env, NPY_DISABLE_CPU_FEATURES=" ".join(targets))]
    # the switch takes: numpy reports the targets off
    probe = subprocess.run(
        [sys.executable, "-c", "from numpy._core import _multiarray_umath "
         "as m; print(*(k for k, on in m.__cpu_features__.items() if on))"],
        env=envs[1], capture_output=True, text=True, timeout=120)
    assert not set(targets) & set(probe.stdout.split()), probe.stderr
    # metrics.json records --out, so both runs write to ./art
    dirs = [tmp_path / "a", tmp_path / "b"]
    runs = []
    try:
        for d, run_env in zip(dirs, envs):
            d.mkdir()
            runs.append(subprocess.Popen(
                [sys.executable, "-m", "hexsim.cli", "run", "--scenario",
                 "exp3", "--gust", "--out", "art"],
                cwd=d, env=run_env, stdout=subprocess.DEVNULL))
        assert [run.wait(timeout=300) for run in runs] == [0, 0]
    finally:
        for run in runs:
            run.kill()
            run.wait()
    for name in ("log.csv", "metrics.json"):
        a, b = ((d / "art" / name).read_bytes() for d in dirs)
        assert sha256(a).hexdigest() == sha256(b).hexdigest(), name


# log.csv's header written out, so that a schema change shows here
LOG_CSV_HEADER = (
    "t,p_x,p_y,p_z,v_x,v_y,v_z,q_w,q_x,q_y,q_z,omega_x,omega_y,omega_z,"
    "ref_p_x,ref_p_y,ref_p_z,ref_v_x,ref_v_y,ref_v_z,"
    "ref_q_w,ref_q_x,ref_q_y,ref_q_z,ref_omega_x,ref_omega_y,ref_omega_z,"
    "e_p_x,e_p_y,e_p_z,e_att_deg_roll,e_att_deg_pitch,e_att_deg_yaw,"
    "u_1,u_2,u_3,u_4,u_5,u_6,w_cmd_1,w_cmd_2,w_cmd_3,w_cmd_4,w_cmd_5,"
    "w_cmd_6,w_meas_1,w_meas_2,w_meas_3,w_meas_4,w_meas_5,w_meas_6,"
    "sat_1,sat_2,sat_3,sat_4,sat_5,sat_6")


def test_log_csv_header_and_round_trip(tmp_path):
    out = tmp_path / "art"
    run_cli("run", "--scenario", "exp5", "--controller", "geo",
            "--duration", "3", "--out", str(out))
    lines = (out / "log.csv").read_text().splitlines()
    assert lines[0] == LOG_CSV_HEADER
    header = lines[0].split(",")
    assert header == [name for name, _, _ in LOG_COLUMNS]
    assert len(header) == 57
    assert header[0] == "t"
    assert header[-1] == "sat_6"
    # repr formatting survives a parse round trip exactly
    row = lines[10].split(",")
    assert float(row[0]) == 9 * (1.0 / 500.0)


def log_columns():
    """(column name, log key, column of the key's block) of each log.csv
    column, with the key None for t: the oracle writers' view of
    experiments.LOG_LAYOUT."""
    names = iter(experiments.LOG_HEADER)
    return [(next(names), key if suffixes else None, col)
            for key, suffixes in experiments.LOG_LAYOUT
            for col in range(len(suffixes) if suffixes else 1)]


LOG_COLUMNS = log_columns()


def per_cell_log_csv(path, log):
    """The cell-by-cell writer that the compiled one (_truth.c's
    write_csv) replaced, kept as its oracle."""
    n = len(log["t"])
    with open(path, "w") as fh:
        fh.write(",".join(name for name, _, _ in LOG_COLUMNS) + "\n")
        for row in range(n):
            cells = []
            for name, key, col in LOG_COLUMNS:
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
    forked_log_csv(tmp_path / "rows.csv", log)
    per_cell_log_csv(tmp_path / "cells.csv", log)
    assert ((tmp_path / "rows.csv").read_bytes()
            == (tmp_path / "cells.csv").read_bytes())


def log_rows(log):
    """A log's rows, LOG_LAYOUT's blocks side by side as in run_scenario's
    row array."""
    return np.column_stack([log[name] for name, _ in experiments.LOG_LAYOUT])


def forked_log_csv(path, log):
    """Write log.csv as `hexsim run` does: the file opened, then its rows
    written by the forked writer."""
    with open(path, "w") as fh:
        cli.write_log_csv(fh, log_rows(log))


def one_shot_log_csv(path, log):
    """The writer that converted the whole log to Python lists at once,
    kept as the oracle of the chunk writer."""
    flags = [c for c in LOG_COLUMNS if c[1] == "saturated"]
    floats = [c for c in LOG_COLUMNS if c[1] != "saturated"]
    values = np.column_stack(
        [log["t"] if key is None else log[key][:, col]
         for _, key, col in floats]).tolist()
    sat = log["saturated"][:, [col for _, _, col in flags]]
    sat = sat.astype(int).tolist()
    with open(path, "w") as fh:
        fh.write(",".join(name for name, _, _ in floats + flags) + "\n")
        fh.writelines(",".join(map(repr, row + row_sat)) + "\n"
                      for row, row_sat in zip(values, sat))


def random_log(n, rng):
    """A log of n rows with every LOG_COLUMNS key, random floats and
    random saturation flags."""
    width = {}
    for _, key, col in LOG_COLUMNS:
        width[key] = max(width.get(key, 0), col + 1)
    log = {key: rng.normal(0.0, 10.0, (n, w)) for key, w in width.items()
           if key not in (None, "saturated")}
    log["t"] = np.arange(n) * 0.002
    log["saturated"] = rng.random((n, width["saturated"])) < 0.3
    return log


TRUTH_C = Path(dynamics.__file__).with_name("_truth.c")
# the rows _truth.c's write_csv formats between writes
CHUNK = int(re.search(r"#define CSV_CHUNK_ROWS (\d+)",
                      TRUTH_C.read_text()).group(1))


def written_csv(rows, n_flags=0):
    """What _truth.c's write_csv writes of rows, through a temporary
    file, as a str."""
    with tempfile.TemporaryFile() as fh:
        dynamics.load_truth().write_csv(fh.fileno(), rows, n_flags)
        fh.seek(0)
        return fh.read().decode()


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                               2 * CHUNK + 1, 700])
def test_write_csv_matches_one_shot_writer(tmp_path, n):
    # in this process, and through the forked writer: no chunk, one
    # short or whole chunk, a last chunk of one row for either thread
    log = random_log(n, np.random.default_rng(n))
    flags = len(experiments.LOG_LAYOUT[-1][1])
    forked_log_csv(tmp_path / "forked.csv", log)
    one_shot_log_csv(tmp_path / "once.csv", log)
    per_cell_log_csv(tmp_path / "cells.csv", log)
    once = (tmp_path / "once.csv").read_bytes()
    lines = once.partition(b"\n")[2]
    assert written_csv(log_rows(log), flags).encode() == lines
    assert (tmp_path / "forked.csv").read_bytes() == once
    assert (tmp_path / "cells.csv").read_bytes() == once


def csv_line(values):
    """_truth.c's write_csv of one row of floats, no flag columns."""
    return written_csv(np.array([values], dtype=float))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(),
    st.integers(0, 2 ** 64 - 1).map(
        lambda bits: float(np.uint64(bits).view(np.float64)))),
    min_size=1, max_size=40))
def test_csv_rows_writes_any_float_as_repr(values):
    # nan, infinities, zeros, subnormals and every bit pattern
    assert csv_line(values) == ",".join(map(repr, values)) + "\n"


def test_csv_rows_picks_the_shortest_nearest_decimal_as_repr():
    # csv_rows finds the shortest decimal itself for 1e-9 <= |x| < 1e17:
    # magnitudes across and past that range, short decimals and the
    # doubles either side of them, powers of two (a closer lower
    # neighbour) and powers of ten
    rng = np.random.default_rng(0)
    n = 20000
    short = rng.integers(1, 10 ** 6, n) / 10.0 ** rng.integers(0, 12, n)
    p2 = 2.0 ** np.arange(-40, 60)
    p10 = 10.0 ** np.arange(-12, 19)
    values = np.concatenate([
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, 19, n),
        short, np.nextafter(short, 0), np.nextafter(short, np.inf),
        p2, np.nextafter(p2, 0), np.nextafter(p2, np.inf),
        p10, np.nextafter(p10, 0), np.nextafter(p10, np.inf),
        rng.integers(-2 ** 60, 2 ** 60, n).astype(float),
        np.arange(n) * 0.002])
    rows = values[:len(values) // 50 * 50].reshape(-1, 50)
    lines = written_csv(rows).splitlines()
    assert lines == [",".join(map(repr, row)) for row in rows.tolist()]


def test_csv_rows_writes_the_edge_cases_as_repr():
    p2 = 2.0 ** np.arange(-1074, 1024)
    values = np.concatenate([
        [5e-324, sys.float_info.max, sys.float_info.min, -0.0,
         float(2 ** 53 - 1), float(2 ** 53 + 1),
         # where repr switches between fixed and exponent notation
         1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0],
        # every power of two, where the lower gap halves, and its neighbours
        p2, np.nextafter(p2, 0), np.nextafter(p2, np.inf),
        # x.25 and x.75 between 2^50 and 2^51: exactly halfway between two
        # shortest decimals, so the even one
        (2.0 ** 52 + np.arange(1, 400, 2)) / 4,
        # 4m between 2^54 and 2^55: for odd m an end of the interval is a
        # shorter decimal that reads back as the other neighbour
        2.0 ** 54 + 4 * np.arange(400)])
    # the tiny nonzero values of a nominal exp1 log (near hover: the
    # quaternion's vector part, the body rates, the attitude errors)
    log, _ = experiments.run_scenario(
        experiments.build_scenario("exp1", "indi"))
    rows = log_rows(log).ravel()
    tiny = rows[(rows != 0) & (np.abs(rows) < 1e-9)]
    assert len(tiny) > 100000
    values = np.concatenate([values, -values, tiny]).tolist()
    line = written_csv(np.array([values]))
    assert line.endswith("\n")
    cells = line[:-1].split(",")
    assert len(cells) == len(values)
    # a short report: pytest's diff of two such lines takes minutes
    wrong = [(cell, repr(x)) for cell, x in zip(cells, values)
             if cell != repr(x)]
    assert not wrong, f"{len(wrong)} values unlike repr, as (got, repr): " \
                      f"{wrong[:5]}"


def test_csv_rows_writes_the_flag_columns_as_0_or_1():
    # each flag column 0 for either zero, else 1; the floats before them
    # as repr
    row = [0.1, -0.0, 1e-300, 0.0, -0.0, 1.0]
    assert written_csv(np.array([row]), 3) == "0.1,-0.0,1e-300,0,0,1\n"


def test_write_csv_keeps_its_chunks_in_order_on_busy_cores():
    # four calls at once, each with its two threads, on two cores: every
    # file holds its chunks in order, and every call returns in time
    rows = log_rows(random_log(10 * CHUNK + 3, np.random.default_rng(1)))
    expected = written_csv(rows, 6)
    results = []

    def write():
        results.extend(written_csv(rows, 6) == expected for _ in range(10))

    writers = [threading.Thread(target=write, daemon=True) for _ in range(4)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
    assert not any(writer.is_alive() for writer in writers)
    assert results == [True] * 40


def test_write_csv_raises_the_errno_of_a_failed_write():
    # /dev/full fails every write with ENOSPC: each thread stops, and the
    # call returns within the timeout.  A log of several chunks, so that
    # both threads run
    rows = log_rows(random_log(5 * CHUNK, np.random.default_rng(0)))
    failures = []

    def write():
        with open("/dev/full", "wb") as fh:
            try:
                dynamics.load_truth().write_csv(fh.fileno(), rows, 6)
            except OSError as exc:
                failures.append(exc.errno)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert failures == [errno.ENOSPC]


def test_run_whose_log_is_dev_full_exits_4(tmp_path, capsys):
    # the header's flush fails before the writer forks; nothing else is
    # written and the log's link stays
    out = tmp_path / "art"
    out.mkdir()
    (out / "log.csv").symlink_to("/dev/full")
    assert run_cli(*RUN_EXP5, "--out", str(out)) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("io error:") and "No space left on device" in err
    assert list(out.iterdir()) == [out / "log.csv"]
    assert_no_child_left()


TABLES_BEGIN = "/* BEGIN POW5 TABLES */\n"
TABLES_END = "/* END POW5 TABLES */\n"


def pow5_tables():
    """Ryū's tables of 125-bit powers of five, from Python's exact
    integers: for each index _truth.c's shortest reaches from a double's
    exponent, POW5_INV[q] = 2^(L - 1 + 125) // 5^q + 1 and
    POW5[i] = 5^i >> (L - 125), L the bit length of the power."""
    q_max = i_max = 0
    for biased in range(0x7ff):
        e2 = max(biased, 1) - 1023 - 52 - 2
        if e2 >= 0:
            q_max = max(q_max, (e2 * 78913 >> 18) - (e2 > 3))
        else:
            i_max = max(i_max, -e2 - ((-e2 * 732923 >> 20) - (-e2 > 1)))
    pow5 = [5 ** i for i in range(max(q_max, i_max) + 1)]
    return {
        "POW5_INV": [2 ** (p.bit_length() - 1 + 125) // p + 1
                     for p in pow5[:q_max + 1]],
        "POW5": [(p << 125) >> p.bit_length() for p in pow5[:i_max + 1]],
    }


def pow5_block(tables):
    """The C source of tables, as _truth.c holds it between its
    markers: each entry as its low and high 64-bit halves."""
    lines = [TABLES_BEGIN]
    for name, entries in tables.items():
        lines.append(f"static const uint64_t {name}[{len(entries)}][2] = {{\n")
        lines += [f"    {{0x{v & (2 ** 64 - 1):016x}, 0x{v >> 64:016x}}},\n"
                  for v in entries]
        lines.append("};\n")
    return "".join(lines + [TABLES_END])


def test_pow5_tables_match_their_generator():
    expected = pow5_tables()
    source = TRUTH_C.read_text()
    block = source[source.index(TABLES_BEGIN):
                   source.index(TABLES_END) + len(TABLES_END)]
    found = {
        name: [int(lo, 16) | int(hi, 16) << 64 for lo, hi in re.findall(
            r"\{(0x[0-9a-f]+), (0x[0-9a-f]+)\}", body)]
        for name, body in re.findall(
            r"static const uint64_t (\w+)\[\d+\]\[2\] = \{(.*?)\};",
            block, re.S)}
    assert found == expected, (
        "_truth.c's table block should read:\n" + pow5_block(expected))


def test_log_writer_memory_is_bounded(tmp_path):
    # the 3500 rows of a 7 s exp3 gust log, and a fifth of them; converting
    # them all at once peaked at about 7.4 MB, one 256-row str at a time at
    # about 1.2 MB.  write_csv takes its two chunk buffers (2 * 64 rows of
    # at most 57 * 25 + 1 characters, 182,528 bytes), whatever the rows
    peaks = []
    for n in (700, 3500):
        rows = log_rows(random_log(n, np.random.default_rng(0)))
        with open(tmp_path / "log.csv", "wb") as fh:
            tracemalloc.start()
            try:
                dynamics.load_truth().write_csv(fh.fileno(), rows, 6)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[0] == peaks[1] < 2.5e5


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


@pytest.mark.parametrize("argv, ini", [
    (["--repeats", "0"], None),
    (["--jobs", "0"], None),
    ([], "[sweep]\njobs = -2\n"),
    ([], "[run]\ngust = true\n"),
    ([], "[run]\nseed = -1\n"),
    ([], "[platform]\nmotor_time_constant = 1e-4\n[run]\nduration = 2.1\n"),
], ids=["repeats-0", "jobs-0", "ini-jobs-negative", "ini-gust",
        "ini-seed-negative", "ini-tau-unstable"])
def test_sweep_zero_repeats_rejected(tmp_path, capsys, argv, ini):
    if ini is not None:
        (tmp_path / "c.ini").write_text(ini)
        argv = [*argv, "--config", str(tmp_path / "c.ini")]
    assert run_cli("sweep", "--axis", "noise", *argv,
                   "--out", str(tmp_path / "s.csv")) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["validate", "sweep"])
@pytest.mark.parametrize("key, value", [("axis", "sideways"),
                                        ("repeats", 0), ("repeats", -1),
                                        ("jobs", 0)])
def test_sweep_settings_rejected_by_validate_and_sweep(
        tmp_path, capsys, monkeypatch, command, key, value):
    # validate rejects every [sweep] value that sweep rejects, with the
    # same message and before its platform lines; neither writes anything
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(f"[sweep]\n{key} = {value}\n"
                                    "out = s.csv\n")
    assert run_cli(command, "--config", "c.ini") == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: sweep {key} must be ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


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

    def fake_repeat_runs(scenario, n, params=None):
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


@pytest.mark.parametrize("repeats, built", [(1, 10), (3, 30)])
def test_a_sweep_builds_a_scenario_per_run(tmp_path, constructed, repeats,
                                           built):
    # a cell's scenario flies its first seed, and each later seed is one
    # more construction
    (tmp_path / "c.ini").write_text("[run]\nduration = 2.2\n")
    assert run_cli("sweep", "--config", str(tmp_path / "c.ini"), "--axis",
                   "frequency", "--repeats", str(repeats), "--out",
                   str(tmp_path / "sweep.csv")) == 0
    assert len(constructed) == built


@pytest.mark.parametrize("axis, jobs, workers", [
    ("noise", 2, 2), ("noise", 12, 12), ("noise", 64, 12),
    ("frequency", 11, 10), ("frequency", 10 ** 6, 10)])
def test_sweep_starts_no_more_workers_than_cells(tmp_path, monkeypatch,
                                                 axis, jobs, workers):
    # the pool starts a thread per cell up to max_workers, so --jobs is
    # capped at the number of cells; a stand-in pool records max_workers
    # and runs the cells here, starting no thread
    pools = []

    class Pool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    def fake_repeat_runs(scenario, n, params=None):
        return experiments.RunMetrics(lon_att_mean_deg=0.0,
                                      lon_att_std_deg=0.0,
                                      pos_norm_mean=0.0,
                                      pos_norm_std=0.0), []

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(experiments, "repeat_runs", fake_repeat_runs)
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--axis", axis, "--repeats", "1",
                   "--jobs", str(jobs), "--out", str(out)) == 0
    assert pools == [workers]
    cells = 2 * len(cli._SWEEP_AXES[axis][2])
    assert len(out.read_text().splitlines()) == 1 + cells


def nan_command_after(monkeypatch, steps):
    """Run every closed loop in the oracle loop, whose truth steps go
    through dynamics.step, and make every truth step after the first
    `steps` of each run see NaN rotor commands, so the run diverges
    there, wherever that step falls in its dynamics.step call."""
    real = dynamics.step
    count = [0]

    def step(x, kernel, cmd, wrenches, dt):
        clean = max(0, steps - count[0])
        count[0] += len(wrenches)
        if clean >= len(wrenches):
            return real(x, kernel, cmd, wrenches, dt)
        x = real(x, kernel, cmd, wrenches[:clean], dt)
        nan = vehicle.ActuatorCommand(u=cmd.u, w_cmd=np.full(6, np.nan),
                                      saturated=cmd.saturated)
        try:
            return real(x, kernel, nan, wrenches[clean:], dt)
        except dynamics.NonFiniteState as exc:
            # the offset within this call, as one real call reports it
            raise dynamics.NonFiniteState(
                exc.message, state=exc.state,
                offset=clean + exc.offset) from exc

    def run_scenario(scenario, params=None):
        count[0] = 0
        return oracles.run_scenario(scenario, params)

    monkeypatch.setattr(dynamics, "step", step)
    monkeypatch.setattr(experiments, "run_scenario", run_scenario)


def assert_divergence_report(err, scenario, seed, t="0.0500"):
    assert f"simulation diverged: simulation state diverged at t = {t} s " \
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
                   "--seed", "4", "--duration", "2.5",
                   "--out", str(tmp_path / "art"))
    assert code == cli.EXIT_DIVERGED
    assert_divergence_report(capsys.readouterr().err, "exp5", 4)


def test_divergence_inside_a_segment_reported(tmp_path, monkeypatch, capsys):
    # at 50 Hz a tick's 40 truth steps run in segments of 8, cut at the
    # 250 Hz pose samples; step 1003 diverges 3 steps into the segment
    # that starts at step 1000 (t = 0.5 s)
    nan_command_after(monkeypatch, 1003)
    code = run_cli("run", "--scenario", "exp5", "--controller", "indi",
                   "--controller-freq", "50", "--seed", "4",
                   "--duration", "2.5", "--out", str(tmp_path / "art"))
    assert code == cli.EXIT_DIVERGED
    assert_divergence_report(capsys.readouterr().err, "exp5", 4, "0.5015")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record_runs_and_forks(monkeypatch):
    """Record, in order, each return of experiments.run_scenario and each
    os.fork of this process."""
    events, real_run, real_fork = [], experiments.run_scenario, os.fork

    def run_scenario(*args):
        result = real_run(*args)
        events.append("run returned")
        return result

    def fork():
        events.append("fork")
        return real_fork()

    monkeypatch.setattr(experiments, "run_scenario", run_scenario)
    monkeypatch.setattr(os, "fork", fork)
    return events


RUN_EXP5 = ("run", "--scenario", "exp5", "--controller", "geo",
            "--duration", "2.5")


def test_run_forks_its_log_writer_once_after_the_loop(tmp_path,
                                                      monkeypatch):
    events = record_runs_and_forks(monkeypatch)
    out = tmp_path / "art"
    assert run_cli(*RUN_EXP5, "--out", str(out)) == 0
    assert events == ["run returned", "fork"]
    assert len((out / "log.csv").read_text().splitlines()) == 1 + 1250
    assert_no_child_left()


def test_diverging_run_forks_nothing_and_leaves_no_log(tmp_path,
                                                       monkeypatch, capsys):
    # 3000 truth steps are 750 ticks at 500 Hz: the run diverges in its
    # tick 750
    nan_command_after(monkeypatch, 3000)
    events = record_runs_and_forks(monkeypatch)
    out = tmp_path / "art"
    assert run_cli(*RUN_EXP5, "--out", str(out)) == cli.EXIT_DIVERGED
    assert events == []
    assert "diverged at t = 1.5000 s" in capsys.readouterr().err
    assert not out.exists()
    assert_no_child_left()


def test_interrupted_wait_kills_and_reaps_the_writer(tmp_path, monkeypatch):
    # log.csv is a pipe that nothing reads: the writer's threads block once
    # it is full, and the run's wait for it is interrupted.  The library
    # is built first, so that no compiler is waited for
    dynamics.load_truth()
    real_waitpid, waits = os.waitpid, []

    def waitpid(pid, options):
        waits.append(pid)
        if len(waits) == 1:
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", waitpid)
    out = tmp_path / "art"
    out.mkdir()
    os.mkfifo(out / "log.csv")
    reader = os.open(out / "log.csv", os.O_RDONLY | os.O_NONBLOCK)
    try:
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_cli(*RUN_EXP5, "--out", str(out))
        assert time.monotonic() - start < 30
    finally:
        os.close(reader)
    assert len(waits) == 2 and waits[0] == waits[1] > 0
    assert list(out.iterdir()) == [out / "log.csv"]  # the pipe, unread
    assert_no_child_left()


def test_log_path_that_is_a_directory_exits_4(tmp_path, capsys):
    out = tmp_path / "art"
    (out / "log.csv").mkdir(parents=True)
    assert run_cli(*RUN_EXP5, "--out", str(out)) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("io error:")
    assert (out / "log.csv").is_dir()
    assert not (out / "metrics.json").exists()
    assert_no_child_left()


def test_metrics_path_that_is_a_directory_leaves_no_log(tmp_path, capsys):
    # the log is whole when metrics.json fails to open; the run removes it
    out = tmp_path / "art"
    (out / "metrics.json").mkdir(parents=True)
    assert run_cli(*RUN_EXP5, "--out", str(out)) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("io error: [Errno 21]")
    assert (out / "metrics.json").is_dir()
    assert not (out / "log.csv").exists()
    assert_no_child_left()


def test_failed_metrics_write_leaves_no_artifact(tmp_path, monkeypatch,
                                                 capsys):
    # metrics.json fails half written: neither it nor log.csv is left
    def failing_dump(doc, fh, **kwargs):
        fh.write("{")
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", failing_dump)
    out = tmp_path / "art"
    out.mkdir()
    assert run_cli(*RUN_EXP5, "--out", str(out)) == cli.EXIT_IO
    assert capsys.readouterr().err == "io error: no space left on device\n"
    assert list(out.iterdir()) == []
    assert_no_child_left()


class FailingWriter:
    """The compiled module, whose write_csv writes the first `written`
    rows (all of them for None) and then fails."""

    def __init__(self, written):
        self.truth, self.written = dynamics.load_truth(), written

    def __getattr__(self, name):
        return getattr(self.truth, name)

    def write_csv(self, fd, rows, n_flags):
        self.truth.write_csv(fd, rows[:self.written], n_flags)
        raise OSError("no space left on device")


@pytest.mark.parametrize("failure, message", [
    ("mid-stream", "log writer for"), ("at-close", "exited with 1"),
    ("at-fork", "[Errno 11]"), ("file-size-limit", "exited with 1")],
    ids=["mid-stream", "at-close", "at-fork", "file-size-limit"])
def test_failed_writer_exits_4_and_leaves_no_log(tmp_path, monkeypatch,
                                                 capsys, failure, message):
    # the forked writer runs this module's functions as they were at the
    # fork: it fails after writing the first chunk of rows, or every row,
    # and the run learns it from the exit code.  Or the fork itself
    # fails, after log.csv was opened.  Or the writer's file may not grow
    # past 100 kB, so a write of its second chunk fails with EFBIG, on
    # the second thread
    real_fork = os.fork

    def failing_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def limited_fork():
        pid = real_fork()
        if pid == 0:
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, 100_000))
        return pid

    if failure == "at-fork":
        monkeypatch.setattr(os, "fork", failing_fork)
    elif failure == "file-size-limit":
        monkeypatch.setattr(os, "fork", limited_fork)
    else:
        writer = FailingWriter(CHUNK if failure == "mid-stream" else None)
        monkeypatch.setattr(dynamics, "load_truth", lambda: writer)
    out = tmp_path / "art"
    assert run_cli(*RUN_EXP5, "--out", str(out)) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("io error:") and message in err
    assert not out.exists()
    assert_no_child_left()


def test_sweep_divergence_reported(tmp_path, monkeypatch, capsys):
    nan_command_after(monkeypatch, 100)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[run]\nseed = 6\nduration = 2.5\n")
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--config", str(cfg), "--axis", "noise",
                   "--repeats", "1", "--out", str(out))
    assert code == cli.EXIT_DIVERGED
    assert_divergence_report(capsys.readouterr().err, "exp5", 6)
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 12
    assert all("diverged at t = 0.0500 s" in row for row in rows)
    # the axis value is written as an ok row writes it
    assert [row.split(",")[0] for row in rows] == [
        repr(float(level)) for level in experiments.NOISE_SCALES] * 2


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_sweep_unwritable_out_exits_4_before_any_cell(tmp_path, capsys,
                                                      monkeypatch, target):
    cells = []
    monkeypatch.setattr(cli, "_sweep_cell", cells.append)
    out = tmp_path / "s.csv"
    if target == "directory":
        out.mkdir()
    else:
        out = tmp_path / "missing" / "s.csv"
    assert run_cli("sweep", "--axis", "noise", "--repeats", "1",
                   "--out", str(out)) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("io error:")
    assert cells == []
    assert sorted(tmp_path.iterdir()) == ([out] if out.is_dir() else [])


def test_sweep_failing_mid_grid_leaves_no_csv(tmp_path, capsys,
                                              monkeypatch):
    cells = []

    def failing_cell(cell):
        cells.append(cell)
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "_sweep_cell", failing_cell)
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--axis", "noise", "--repeats", "1",
                   "--out", str(out)) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("io error:")
    assert len(cells) == 1
    assert not out.exists()


def test_sweep_worker_pool_writes_the_serial_bytes(tmp_path):
    # the real thread pool: the cells run in this process, which starts
    # no child; at --jobs 3 the threads, more than a 2-core machine's
    # cores, switch every 10 us in Python
    (tmp_path / "c.ini").write_text("[run]\nduration = 2.1\n")
    csvs, interval = {}, sys.getswitchinterval()
    try:
        for jobs in (1, 2, 3):
            if jobs == 3:
                sys.setswitchinterval(1e-5)
            out = tmp_path / f"jobs{jobs}.csv"
            assert run_cli("sweep", "--config", str(tmp_path / "c.ini"),
                           "--axis", "noise", "--repeats", "1",
                           "--jobs", str(jobs), "--out", str(out)) == 0
            csvs[jobs] = out.read_bytes()
    finally:
        sys.setswitchinterval(interval)
    assert csvs[3] == csvs[2] == csvs[1]
    assert len(csvs[1].splitlines()) == 1 + 12
    assert_no_child_left()


def test_threaded_sweep_cells_share_one_read_only_platform(tmp_path,
                                                           monkeypatch):
    # every --jobs 2 cell flies, off the main thread, the one params
    # object that preflight read, and no cell can write its matrices
    seen, real = [], experiments.repeat_runs

    def repeat_runs(scenario, n, params=None):
        seen.append((params, threading.get_ident()))
        return real(scenario, n, params)

    monkeypatch.setattr(experiments, "repeat_runs", repeat_runs)
    (tmp_path / "c.ini").write_text("[run]\nduration = 2.1\n")
    assert run_cli("sweep", "--config", str(tmp_path / "c.ini"),
                   "--axis", "noise", "--repeats", "1", "--jobs", "2",
                   "--out", str(tmp_path / "s.csv")) == 0
    assert len(seen) == 12
    params = seen[0][0]
    assert all(cell_params is params for cell_params, _ in seen)
    assert threading.get_ident() not in {ident for _, ident in seen}
    for name in ("F1", "F2", "F0_inv"):
        matrix = getattr(params.effectiveness, name)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 0.0


class Alarm(Exception):
    pass


def test_an_interrupted_threaded_sweep_stops_after_its_running_cells(
        tmp_path, monkeypatch):
    # a SIGALRM whose handler raises, 50 ms into a --jobs 2 sweep whose
    # cells take 0.2-0.4 s each (2-core x86-64 VM): the two running cells
    # finish, the ten pending ones never start, and the command returns
    # within 0.1 s of the running cells' end (0.3-0.6 ms there) and
    # leaves no CSV
    started, ended, real = [], [], experiments.repeat_runs

    def repeat_runs(scenario, n, params=None):
        started.append(scenario.noise_scale)
        try:
            return real(scenario, n, params)
        finally:
            ended.append(time.perf_counter())

    def handler(signum, frame):
        raise Alarm

    monkeypatch.setattr(experiments, "repeat_runs", repeat_runs)
    out = tmp_path / "s.csv"
    old = signal.signal(signal.SIGALRM, handler)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        with pytest.raises(Alarm):
            run_cli("sweep", "--axis", "noise", "--repeats", "20",
                    "--jobs", "2", "--out", str(out))
        returned = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert sorted(started) == [0, 1]
    assert len(ended) == 2
    assert returned - max(ended) < 0.1
    assert not out.exists()
