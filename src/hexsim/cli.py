"""Command-line front end: `hexsim run|sweep|validate`.

Configuration is an INI-style file with sections [run], [gains],
[filters], [platform] and [sweep]; unknown sections (also [DEFAULT])
or keys are rejected.  Command-line flags override config keys.  All
artifacts embed the fully resolved configuration and the seed so they
are self-describing.

Exit codes: 0 success, 2 config error (also a failed `preflight`
check, which `validate` reports after resolving the config as `run`
does, and a run log too long to allocate), 3 simulation divergence (for
a sweep: any cell diverged; the other cells are still written), 4 IO
error (also a failed log.csv writer or build of the compiled truth step,
which `run` and `sweep` load first).  A divergence prints its time,
scenario, seed and last finite state to stderr.
"""

import argparse
import configparser
import dataclasses
import json
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__, dynamics, experiments, vehicle
from .control import Gains, make_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration

# every config key and its type; a setting's flag is typed the same
_SECTIONS = {
    "run": {"scenario": str, "controller": str, "controller_freq": float,
            "cf_mismatch": float, "noise_scale": float, "seed": int,
            "duration": float, "gust": bool, "residual_scale": float,
            "out": str},
    "gains": {f.name: float for f in dataclasses.fields(Gains)},
    "filters": {"cutoff_hz": float, "damping": float},
    "platform": {
        "mass": float, "arm_length": float, "tilt_angle_deg": float,
        "c_f": float, "c_tau": float, "w_min": float, "w_max": float,
        "motor_time_constant": float,
        "inertia_xx": float, "inertia_yy": float, "inertia_zz": float},
    "sweep": {"axis": str, "repeats": int, "jobs": int, "out": str},
}

_DEFAULTS = {
    "run": {"scenario": "exp1", "controller": "indi", "seed": 1,
            "gust": False, "out": "out"},
    "gains": {}, "filters": {}, "platform": {},
    "sweep": {"axis": "frequency", "repeats": 3, "jobs": 1,
              "out": "sweep.csv"},
}


def _coerce(section, key, raw):
    kind = _SECTIONS[section][key]
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[
                raw.strip().lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}")


def load_config(path=None):
    """Parse the config file into {section: {key: typed value}} with
    defaults filled in.  Unknown sections/keys raise ConfigError."""
    config = {sec: dict(defaults) for sec, defaults in _DEFAULTS.items()}
    if path is None:
        return config
    # no default section: [DEFAULT] is read as a section of its own and
    # rejected below, not copied into every section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            config[section][key] = _coerce(section, key, raw)
    return config


def _apply_flags(config, args):
    """Command-line flags override config keys.  A setting's flag has the
    dest "section.key" and the default None (see _add_setting)."""
    for dest, value in vars(args).items():
        section, _, key = dest.partition(".")
        if key and value is not None:
            config[section][key] = value
    return config


def build_params(config):
    overrides = dict(config["platform"])
    nominal = vehicle.default_params()
    overrides["inertia"] = [overrides.pop(f"inertia_{ax}", j)
                            for ax, j in zip(("xx", "yy", "zz"),
                                             nominal.inertia)]
    tilt_deg = overrides.pop("tilt_angle_deg", None)
    if tilt_deg is not None:
        overrides["tilt_angle"] = math.radians(tilt_deg)
    # the force coefficient is a rotor property; keep the nominal value
    # instead of re-anchoring it to an overridden mass
    overrides.setdefault("c_f", nominal.c_f)
    try:
        return vehicle.default_params(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad platform config: {exc}")


def build_run_scenario(config):
    """The Scenario of the [run] keys (other than what to run and where to
    write), the [gains] and the [filters] keys (as filter_<key>)."""
    run = config["run"]
    overrides = {key: value for key, value in run.items()
                 if key not in ("scenario", "controller", "out")}
    overrides.update((f"filter_{key}", value)
                     for key, value in config["filters"].items())
    try:
        if config["gains"]:
            overrides["gains"] = Gains(**config["gains"])
        return experiments.build_scenario(
            run["scenario"], run["controller"], overrides)
    except (experiments.UnknownScenario, ValueError) as exc:
        # the Scenario field filter_<key> is the [filters] key
        raise ConfigError(str(exc).replace("filter_", "[filters] "))


def _resolved_config(config, scenario):
    """Fully resolved configuration for embedding in artifacts; the
    scenario's fields are recorded as experiments.Scenario describes, a
    dataclass as a dict."""
    out = {sec: dict(vals) for sec, vals in config.items()}
    record = out["scenario"] = {}
    for f in dataclasses.fields(scenario):
        value, attr = getattr(scenario, f.name), f.metadata.get("record", "")
        if attr:
            record[f"{f.name}_{attr}"] = getattr(value, attr)
        elif attr is not None:
            record[f.name] = (dataclasses.asdict(value)
                              if dataclasses.is_dataclass(value) else value)
    return out


# ---------------------------------------------------------------------------
# artifact writers

def write_log_csv(fh, rows):
    """Write log.csv, open as fh, from run_scenario's row array (a
    C-contiguous float64 array, the blocks of experiments.LOG_LAYOUT side
    by side): experiments.LOG_HEADER, then a line per row, which a forked
    process writes to fh's file descriptor with _truth.c's write_csv
    (floats with the bytes of repr, the last block's flags as 0/1).  Waits
    for that process to exit; OSError unless it exits 0.  An interrupted
    wait kills and reaps it.

    The formatting's threads and buffers stay in that process.  It is
    forked after the loop, not before: while a child lives, each page the
    loop writes to is first copied for it, which made a 7 s exp3 run
    about 50 % slower, by a varying amount."""
    fh.write(",".join(experiments.LOG_HEADER) + "\n")
    fh.flush()  # the rows follow at the descriptor's offset
    write_csv = dynamics.load_truth().write_csv
    flags = len(experiments.LOG_LAYOUT[-1][1])
    # The writer leaves only through os._exit.  It calls no BLAS
    # routine, so forking beside numpy's BLAS threads is safe.
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            write_csv(fh.fileno(), rows, flags)
            code = 0
        except Exception as exc:
            print(f"log writer: {exc}", file=sys.stderr, flush=True)
        finally:
            os._exit(code)
    try:
        _, status = os.waitpid(pid, 0)
    except BaseException:
        import signal
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise OSError(f"log writer for {fh.name} exited with {code}")


def write_metrics_json(path, metrics, config, scenario):
    doc = {
        "metrics": metrics.as_dict(),
        "config": _resolved_config(config, scenario),
        "seed": scenario.seed,
        "versions": {
            "hexsim": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def preflight(params, cf_mismatch=1.0):
    """Yield (line, passed) for each check a platform must pass to fly:
    the effectiveness rank (a degenerate layout ends the checks), that of
    the model at cf_mismatch (if not 1; a c_f * cf_mismatch that
    underflows to 0 fails it), a finite hover trim inside the actuator
    limits, the motor lag inside RK4's stability interval and finite
    constants of the truth step (dynamics.truth_constants)."""
    try:
        eff = params.effectiveness
    except vehicle.DegenerateGeometry as exc:
        yield f"effectiveness: DEGENERATE ({exc})", False
        return
    yield (f"effectiveness rank: 6, condition number: "
           f"{eff.condition_number:.3f}", True)
    if cf_mismatch != 1:
        label = f"controller model at cf_mismatch {cf_mismatch!r}"
        try:
            model = make_model(params, cf_mismatch).effectiveness
        except vehicle.DegenerateGeometry as exc:
            yield f"{label}: DEGENERATE ({exc})", False
        except ValueError as exc:
            yield f"{label}: INVALID ({exc})", False
        else:
            yield (f"{label}: effectiveness rank 6, condition number "
                   f"{model.condition_number:.3f}", True)
    trim = params.hover
    speeds = f"{' '.join(f'{w:.2f}' for w in trim.w_cmd)} rad/s"
    if not all(map(math.isfinite, trim.w_cmd)):
        # saturate passes a NaN unflagged.  The trim's u scales as
        # mass / c_f, and an overflow on the way gives NaN speeds
        yield (f"hover trim not finite at mass {params.mass:g} kg and "
               f"c_f {params.c_f:g}: {speeds}", False)
    else:
        hovers = not any(trim.saturated)
        yield (f"hover trim {'within' if hovers else 'outside'} actuator "
               f"limits [{params.w_min:.2f}, {params.w_max:.2f}] rad/s: "
               f"{speeds}", hovers)
    # a truth step scales w - w_cmd by P(SIM_DT / tau), P(x) = 1 - x +
    # x^2/2 - x^3/6 + x^4/24, which grows once |P| >= 1 (tau < ~0.18 ms).
    # P rises past 1 from x = 3 on, so a larger x, whose powers could
    # overflow, is not evaluated
    x = dynamics.SIM_DT / params.motor_time_constant
    stable = x < 3.0 and abs(
        1.0 - x + x * x / 2.0 - x ** 3 / 6.0 + x ** 4 / 24.0) < 1.0
    yield (f"motor lag {params.motor_time_constant!r} s "
           f"{'inside' if stable else 'outside'} RK4's stability interval "
           f"at the {dynamics.SIM_DT} s truth step "
           f"([platform] motor_time_constant)", stable)
    # a tiny inertia overflows the moment's scale F2 / J and the
    # gyroscopic coefficients, and the run would diverge at t = 0
    with np.errstate(all="ignore"):
        finite = all(map(math.isfinite, dynamics.truth_constants(params)))
    yield (f"truth step constants {'finite' if finite else 'NOT FINITE'} at "
           f"inertia {', '.join(map(repr, params.inertia))} kg m^2 "
           f"([platform] inertia_xx, inertia_yy, inertia_zz)", finite)


def _flyable_params(config, cf_mismatch):
    """build_params, or ConfigError with the first failed preflight line."""
    params = build_params(config)
    for line, passed in preflight(params, cf_mismatch):
        if not passed:
            raise ConfigError(line)
    return params


def cmd_run(config):
    scenario = build_run_scenario(config)
    params = _flyable_params(config, scenario.cf_mismatch)
    dynamics.load_truth()  # before any output, and before the writer forks
    out_dir = Path(config["run"]["out"])
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    log_csv, metrics_json = out_dir / "log.csv", out_dir / "metrics.json"
    begun = [log_csv]
    try:
        with open(log_csv, "w") as fh:  # a bad path fails before the run
            log, metrics = experiments.run_scenario(scenario, params)
            write_log_csv(fh, log["t"].base)
        begun.append(metrics_json)
        write_metrics_json(metrics_json, metrics, config, scenario)
    except BaseException:
        # a failed run leaves no artifact file it began (a directory in
        # its place stays) and no directory it made
        for path in begun:
            if path.is_file():
                path.unlink()
        for top in made[-1:]:
            shutil.rmtree(top, ignore_errors=True)
        raise
    print(f"wrote {log_csv} and {metrics_json}")
    for key, value in sorted(metrics.as_dict().items()):
        print(f"  {key}: {value}")
    return EXIT_OK


# sweep axis -> (scenario, the [run] key it sets, the grid of values)
_SWEEP_AXES = {
    "frequency": ("exp4", "controller_freq", experiments.CONTROLLER_FREQS),
    "noise": ("exp5", "noise_scale", experiments.NOISE_SCALES),
}
# a sweep row's RunMetrics fields
_SWEEP_STATS = ("lon_att_mean_deg", "lon_att_std_deg", "pos_norm_mean",
                "pos_norm_std")


def _sweep_cell(cell):
    """(repeat_runs(*cell)'s aggregate, "ok") or (None, divergence report)."""
    try:
        return experiments.repeat_runs(*cell)[0], "ok"
    except dynamics.NonFiniteState as exc:
        return None, _divergence_report(exc)


def _sweep_results(cells, jobs):
    """Each cell's result, in grid order, as it arrives.  With jobs > 1
    the cells run on threads, which share the cells' one params object
    (preflight has built its matrices in this thread) and run at once
    because ticks runs without the GIL."""
    if jobs == 1:
        yield from map(_sweep_cell, cells)
    else:  # the pool starts a thread per cell up to max_workers
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            yield from pool.map(_sweep_cell, cells)


def cmd_sweep(config):
    axis, repeats, jobs, out = (
        config["sweep"][key] for key in ("axis", "repeats", "jobs", "out"))
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"sweep axis must be frequency or noise, got {axis}")
    if repeats < 1:
        raise ConfigError("sweep repeats must be >= 1")
    if jobs < 1:
        raise ConfigError("sweep jobs must be >= 1")
    scenario_id, key, values = _SWEEP_AXES[axis]
    scenarios = [build_run_scenario(dict(config, run={
                     **config["run"], "scenario": scenario_id,
                     "controller": controller, key: value}))
                 for controller in ("geo", "indi") for value in values]
    params = _flyable_params(config, scenarios[0].cf_mismatch)
    cells = [(scenario, repeats, params) for scenario in scenarios]
    dynamics.load_truth()  # before any output
    diverged = False
    with open(out, "w") as fh:
        try:
            fh.write(",".join([axis, "controller", "n_runs", *_SWEEP_STATS,
                               "status"]) + "\n")
            for (scenario, _, _), (agg, status) in zip(
                    cells, _sweep_results(cells, jobs)):
                value = getattr(scenario, key)
                label = f"{axis}={value} {scenario.controller}"
                if agg is None:
                    diverged = True
                    print(f"{label}: {status}", file=sys.stderr)
                    stats, status = [""] * 4, status.splitlines()[0]
                else:
                    stats = [repr(getattr(agg, name)) for name in _SWEEP_STATS]
                    print(f"{label}: lon={agg.lon_att_mean_deg:.4f}±"
                          f"{agg.lon_att_std_deg:.4f} deg, pos="
                          f"{agg.pos_norm_mean:.4f}±{agg.pos_norm_std:.4f} m")
                fh.write(",".join([repr(float(value)), scenario.controller,
                                   str(repeats), *stats, status]) + "\n")
        except BaseException:
            # leave no partial CSV, as `hexsim run` leaves no log.csv
            Path(out).unlink(missing_ok=True)
            raise
    print(f"wrote {out}")
    return EXIT_DIVERGED if diverged else EXIT_OK


def _divergence_report(exc):
    """What a diverged run reports: a line with the time, scenario and
    seed, then the blocks of the last finite state."""
    lines = [f"simulation diverged: {exc}"]
    if exc.state is not None:
        lines.append("  last finite state:")
        for name, block in (("p", dynamics.P), ("v", dynamics.V),
                            ("q", dynamics.Q), ("omega", dynamics.OMEGA),
                            ("rotor_w", dynamics.ROTOR_W)):
            values = ", ".join(map(repr, exc.state[block]))
            lines.append(f"    {name}: [{values}]")
    return "\n".join(lines)


def cmd_validate(config):
    params = build_params(config)
    scenario = build_run_scenario(config)  # the [run], [gains], [filters]
    print(f"mass: {params.mass} kg, arm: {params.arm_length} m, "
          f"tilt: {math.degrees(params.tilt_angle):.1f} deg")
    lines, verdicts = zip(*preflight(params, scenario.cf_mismatch))
    print(*lines, f"result: {'OK' if all(verdicts) else 'FAIL'}", sep="\n")
    return EXIT_OK if all(verdicts) else EXIT_CONFIG


# ---------------------------------------------------------------------------

def _add_setting(parser, section, key, **kwargs):
    """Flag --key-name for the config key [section] key, typed like it.
    Its dest is "section.key" and its default None, so _apply_flags
    copies exactly the flags given."""
    if "choices" not in kwargs and "action" not in kwargs:
        kwargs = {"type": _SECTIONS[section][key], "metavar": key.upper(),
                  **kwargs}
    parser.add_argument("--" + key.replace("_", "-"),
                        dest=f"{section}.{key}", default=None, **kwargs)


def make_parser():
    parser = argparse.ArgumentParser(
        prog="hexsim",
        description="Fully actuated hexarotor simulation and control "
                    "studies")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI config file")

    run = sub.add_parser("run", help="run one scenario, write log + metrics")
    add_common(run)
    _add_setting(run, "run", "scenario",
                 choices=["exp1", "exp2", "exp3", "exp4", "exp5"])
    _add_setting(run, "run", "controller", choices=["geo", "indi"])
    for key in ("controller_freq", "cf_mismatch", "noise_scale", "seed",
                "duration", "residual_scale"):
        _add_setting(run, "run", key)
    _add_setting(run, "run", "gust", action="store_true")
    _add_setting(run, "run", "out", help="output directory")

    sweep = sub.add_parser(
        "sweep", help="grid over controller frequency or noise level")
    add_common(sweep)
    _add_setting(sweep, "sweep", "axis", choices=["frequency", "noise"])
    _add_setting(sweep, "sweep", "repeats")
    _add_setting(sweep, "sweep", "jobs")
    _add_setting(sweep, "run", "seed")
    _add_setting(sweep, "sweep", "out", metavar="SWEEP_OUT",
                 help="output csv path")

    validate = sub.add_parser(
        "validate", help="resolve the config as run does, then check the "
                         "allocation rank, hover trim, motor lag and truth "
                         "step constants")
    add_common(validate)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        _apply_flags(config, args)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "sweep":
            return cmd_sweep(config)
        return cmd_validate(config)
    except (ConfigError, vehicle.DegenerateGeometry, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except dynamics.NonFiniteState as exc:
        print(_divergence_report(exc), file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
