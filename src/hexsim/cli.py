"""Command-line front end: `hexsim run|sweep|validate`.

Configuration is an INI-style file with sections [run], [gains],
[filters], [platform] and [sweep]; unknown sections or keys are
rejected.  Command-line flags override config keys.  All artifacts embed
the fully resolved configuration and the seed so they are
self-describing.

Exit codes: 0 success, 2 config error (also a `validate` FAIL, and a
`run` or `sweep` of a platform whose hover trim saturates), 3 simulation
divergence (for a sweep: any cell diverged; the other cells are still
written), 4 IO error (also a failed log.csv writer).  A divergence
prints its time, scenario, seed and last finite state to stderr.
"""

import argparse
import configparser
import dataclasses
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, dynamics, experiments, vehicle
from .control import Gains

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
    parser = configparser.ConfigParser(interpolation=None)
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
        raise ConfigError(str(exc))


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

def write_log_blocks(fh, blocks):
    """experiments.LOG_HEADER, then a line per row of each block of log
    rows (the blocks of experiments.LOG_LAYOUT in order): floats as
    round-trip-exact repr, the last block's flags as 0/1."""
    flags = -len(experiments.LOG_LAYOUT[-1][1])
    fh.write(",".join(experiments.LOG_HEADER) + "\n")
    for block in blocks:
        values = block[:, :flags].tolist()
        sat = block[:, flags:].astype(int).tolist()
        fh.writelines(",".join(map(repr, row + row_sat)) + "\n"
                      for row, row_sat in zip(values, sat))


def _received_blocks(pipe):
    """The blocks of log rows read from a pipe until it closes."""
    width = len(experiments.LOG_HEADER)
    while data := pipe.read(experiments.LOG_BLOCK_ROWS * width * 8):
        yield np.frombuffer(data).reshape(-1, width)


class LogWriter:
    """log.csv at `path`, written while the closed loop runs by a forked
    process: it writes the blocks of log rows that `send` hands it down
    a pipe (write_log_blocks) and exits 0 once write_log_csv closes the
    pipe.  Used as a context manager: an exception that leaves the block
    kills and reaps the process and removes the file, so no partial log
    is left."""

    def __init__(self, path):
        import fcntl
        import os
        self.path = path
        fh = open(path, "w")
        read_fd, write_fd = os.pipe()
        try:  # room for several blocks, so that a send rarely waits (Linux)
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
        except (AttributeError, OSError):
            pass
        try:
            self.pid = os.fork()
        except BaseException:
            fh.close()
            os.close(read_fd)
            os.close(write_fd)
            raise
        # The writer leaves only through os._exit.  It calls no BLAS
        # routine, so forking beside numpy's BLAS threads is safe.
        if self.pid == 0:
            code = 1
            try:
                # the loop comes first: a writer woken by a send can share
                # the loop's core until the scheduler moves it
                os.nice(19)
                os.close(write_fd)
                with fh, open(read_fd, "rb") as pipe:
                    write_log_blocks(fh, _received_blocks(pipe))
                code = 0
            except Exception as exc:
                print(f"log writer: {exc}", file=sys.stderr, flush=True)
            finally:
                os._exit(code)
        fh.close()
        os.close(read_fd)
        self.pipe = open(write_fd, "wb")

    def send(self, rows):
        """Hand a block of finished log rows to the writer."""
        try:
            self.pipe.write(rows.tobytes())
            self.pipe.flush()
        except BrokenPipeError:
            raise OSError(f"log writer for {self.path} stopped") from None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        import os
        import signal
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        try:
            self.pipe.close()  # flushes what a failed send left, if any
        except OSError:
            pass
        if exc_type is not None:
            self.path.unlink(missing_ok=True)
        return False


def write_log_csv(writer):
    """Finish a LogWriter's log.csv: close the pipe and wait for the
    writer to exit.  Raises OSError unless it exits 0."""
    import os
    writer.pipe.close()
    _, status = os.waitpid(writer.pid, 0)
    writer.pid = None
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise OSError(f"log writer for {writer.path} exited with {code}")


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

def require_hover(params):
    """Raise ConfigError if the platform's hover trim saturates a rotor:
    a platform that cannot hover is not flown.  A rotor layout that
    cannot span all six wrench axes raises DegenerateGeometry first."""
    trim = vehicle.hover_command(params, vehicle.build_effectiveness(params))
    if any(trim.saturated):
        raise ConfigError(
            f"hover trim outside actuator limits [{params.w_min:.2f}, "
            f"{params.w_max:.2f}] rad/s: the platform cannot hover")


def cmd_run(config):
    from pathlib import Path
    params = build_params(config)
    scenario = build_run_scenario(config)
    require_hover(params)
    out_dir = Path(config["run"]["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    with LogWriter(out_dir / "log.csv") as writer:
        _, metrics = experiments.run_scenario(scenario, params, writer.send)
        write_log_csv(writer)
    write_metrics_json(out_dir / "metrics.json", metrics, config, scenario)
    print(f"wrote {out_dir / 'log.csv'} and {out_dir / 'metrics.json'}")
    for key, value in sorted(metrics.as_dict().items()):
        print(f"  {key}: {value}")
    return EXIT_OK


# sweep axis -> (scenario, the [run] key it sets, the grid of values)
_SWEEP_AXES = {
    "frequency": ("exp4", "controller_freq", experiments.CONTROLLER_FREQS),
    "noise": ("exp5", "noise_scale", experiments.NOISE_SCALES),
}


def _sweep_cell(args):
    """One (controller, axis value) cell; run in a worker process.

    The cell's scenario goes through build_run_scenario like `hexsim run`,
    so [run], [gains] and [filters] keys apply to every cell.
    """
    controller, axis, value, repeats, config = args
    params = build_params(config)
    scenario_id, key, _ = _SWEEP_AXES[axis]
    run = dict(config["run"], scenario=scenario_id, controller=controller)
    run[key] = value
    scenario = build_run_scenario(dict(config, run=run))
    try:
        agg, _ = experiments.repeat_runs(scenario, repeats, params=params)
    except dynamics.NonFiniteState as exc:
        return (value, controller, repeats, None, _divergence_report(exc))
    return (value, controller, repeats, agg, "ok")


def cmd_sweep(config):
    axis = config["sweep"]["axis"]
    repeats = config["sweep"]["repeats"]
    jobs = config["sweep"]["jobs"]
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"sweep axis must be frequency or noise, got {axis}")
    if repeats < 1:
        raise ConfigError("sweep repeats must be >= 1")
    if jobs < 1:
        raise ConfigError("sweep jobs must be >= 1")
    require_hover(build_params(config))
    values = _SWEEP_AXES[axis][2]
    cells = [(controller, axis, value, repeats, config)
             for controller in ("geo", "indi") for value in values]
    if jobs > 1:
        # the pool starts all its workers up front
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]

    out = config["sweep"]["out"]
    with open(out, "w") as fh:
        fh.write(f"{axis},controller,n_runs,lon_att_mean_deg,"
                 "lon_att_std_deg,pos_norm_mean,pos_norm_std,status\n")
        for value, controller, n, agg, status in rows:
            if agg is None:
                print(f"{axis}={value} {controller}: {status}",
                      file=sys.stderr)
                summary = status.splitlines()[0]
                fh.write(f"{value},{controller},{n},,,,,{summary}\n")
                continue
            fh.write(",".join([
                repr(float(value)), controller, str(n),
                repr(agg.lon_att_mean_deg), repr(agg.lon_att_std_deg),
                repr(agg.pos_norm_mean), repr(agg.pos_norm_std),
                status]) + "\n")
            print(f"{axis}={value} {controller}: "
                  f"lon={agg.lon_att_mean_deg:.4f}±{agg.lon_att_std_deg:.4f} "
                  f"deg, pos={agg.pos_norm_mean:.4f}±{agg.pos_norm_std:.4f} m")
    print(f"wrote {out}")
    if any(agg is None for _, _, _, agg, _ in rows):
        return EXIT_DIVERGED
    return EXIT_OK


def _divergence_report(exc):
    """What a diverged run reports: a line with the time, scenario and
    seed, then the blocks of the last finite state."""
    lines = [f"simulation diverged: {exc}"]
    if exc.state is not None:
        lines.append("  last finite state:")
        for name, block in (("p", dynamics.P), ("v", dynamics.V),
                            ("q", dynamics.Q), ("omega", dynamics.OMEGA),
                            ("rotor_w", dynamics.ROTOR_W)):
            values = ", ".join(map(repr, exc.state[block].tolist()))
            lines.append(f"    {name}: [{values}]")
    return "\n".join(lines)


def cmd_validate(config):
    params = build_params(config)
    print(f"mass: {params.mass} kg, arm: {params.arm_length} m, "
          f"tilt: {math.degrees(params.tilt_angle):.1f} deg")
    try:
        eff = vehicle.build_effectiveness(params)
    except vehicle.DegenerateGeometry as exc:
        print(f"effectiveness: DEGENERATE ({exc})")
        print("result: FAIL")
        return EXIT_CONFIG
    print(f"effectiveness rank: 6, condition number: "
          f"{eff.condition_number:.3f}")
    trim = vehicle.hover_command(params, eff)
    print("hover trim speeds (rad/s): "
          + " ".join(f"{w:.2f}" for w in trim.w_cmd))
    limits = f"[{params.w_min:.2f}, {params.w_max:.2f}] rad/s"
    if any(trim.saturated):
        print(f"trim outside actuator limits {limits}")
        print("result: FAIL")
        return EXIT_CONFIG
    print(f"trim within actuator limits {limits}")
    print("result: OK")
    return EXIT_OK


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
        "validate", help="check geometry, allocation, and hover trim")
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
    except (ConfigError, vehicle.DegenerateGeometry) as exc:
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
