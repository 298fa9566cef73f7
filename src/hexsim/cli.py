"""Command-line front end: `hexsim run|sweep|validate`.

Configuration is an INI-style file with sections [run], [gains],
[filters], [platform] and [sweep]; unknown sections or keys are
rejected.  Command-line flags override config keys.  All artifacts embed
the fully resolved configuration and the seed so they are
self-describing.

Exit codes: 0 success, 2 config error, 3 simulation divergence, 4 IO
error.
"""

import argparse
import configparser
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

_RUN_KEYS = {
    "scenario": str, "controller": str, "controller_freq": float,
    "cf_mismatch": float, "noise_scale": int, "seed": int,
    "duration": float, "gust": bool, "residual_scale": float, "out": str,
}
_GAIN_KEYS = {"k_p": float, "k_v": float, "k_q": float, "k_w": float}
_FILTER_KEYS = {"cutoff_hz": float, "damping": float}
_PLATFORM_KEYS = {
    "mass": float, "arm_length": float, "tilt_angle_deg": float,
    "c_f": float, "c_tau": float, "w_min": float, "w_max": float,
    "motor_time_constant": float,
    "inertia_xx": float, "inertia_yy": float, "inertia_zz": float,
}
_SWEEP_KEYS = {"axis": str, "repeats": int, "jobs": int, "out": str}

_SECTIONS = {
    "run": _RUN_KEYS, "gains": _GAIN_KEYS, "filters": _FILTER_KEYS,
    "platform": _PLATFORM_KEYS, "sweep": _SWEEP_KEYS,
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
            lowered = str(raw).strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except (TypeError, ValueError):
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
    """Command-line flags override config keys."""
    for section, key, attr in (
            ("run", "scenario", "scenario"),
            ("run", "controller", "controller"),
            ("run", "controller_freq", "controller_freq"),
            ("run", "cf_mismatch", "cf_mismatch"),
            ("run", "noise_scale", "noise_scale"),
            ("run", "seed", "seed"),
            ("run", "duration", "duration"),
            ("run", "residual_scale", "residual_scale"),
            ("run", "out", "out"),
            ("sweep", "axis", "axis"),
            ("sweep", "repeats", "repeats"),
            ("sweep", "jobs", "jobs"),
            ("sweep", "out", "sweep_out"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            config[section][key] = value
    if getattr(args, "gust", False):
        config["run"]["gust"] = True
    return config


def build_params(config):
    overrides = dict(config["platform"])
    inertia = [overrides.pop("inertia_" + ax, default)
               for ax, default in (("xx", 0.08), ("yy", 0.08), ("zz", 0.14))]
    if any(k.startswith("inertia_") for k in config["platform"]):
        overrides["inertia"] = np.diag(inertia)
    tilt_deg = overrides.pop("tilt_angle_deg", None)
    if tilt_deg is not None:
        overrides["tilt_angle"] = math.radians(tilt_deg)
    if "c_f" not in overrides:
        # the force coefficient is a rotor property; keep the nominal
        # value instead of re-anchoring it to an overridden mass
        overrides["c_f"] = vehicle.default_params().c_f
    try:
        return vehicle.default_params(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad platform config: {exc}")


def build_run_scenario(config):
    run = config["run"]
    overrides = {}
    for key in ("controller_freq", "cf_mismatch", "noise_scale", "seed",
                "duration", "residual_scale"):
        if key in run and run[key] is not None and key not in _DEFAULTS["run"]:
            overrides[key] = run[key]
    overrides["seed"] = run["seed"]
    if run["gust"]:
        overrides["gust"] = True
    if config["gains"]:
        try:
            overrides["gains"] = Gains(**config["gains"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad gains: {exc}")
    if "cutoff_hz" in config["filters"]:
        overrides["filter_cutoff_hz"] = config["filters"]["cutoff_hz"]
    if "damping" in config["filters"]:
        overrides["filter_damping"] = config["filters"]["damping"]
    try:
        return experiments.build_scenario(
            run["scenario"], run["controller"], overrides)
    except (experiments.UnknownScenario, ValueError) as exc:
        raise ConfigError(str(exc))


def _resolved_config(config, scenario):
    """Fully resolved configuration for embedding in artifacts."""
    out = {sec: dict(vals) for sec, vals in config.items()}
    out["scenario"] = {
        "id": scenario.id,
        "controller": scenario.controller,
        "controller_freq": scenario.controller_freq,
        "cf_mismatch": scenario.cf_mismatch,
        "noise_scale": scenario.noise_scale,
        "duration": scenario.duration,
        "seed": scenario.seed,
        "residual_scale": scenario.residual_scale,
        "gains": scenario.gains.__dict__,
        "filter_cutoff_hz": scenario.filter_cutoff_hz,
        "filter_damping": scenario.filter_damping,
        "disturbance_kind": scenario.disturbance.kind,
    }
    return out


# ---------------------------------------------------------------------------
# artifact writers

_VEC3 = ("x", "y", "z")
_QUAT = ("w", "x", "y", "z")

LOG_COLUMNS = (
    [("t", None, 0)]
    + [(f"p_{ax}", "p", i) for i, ax in enumerate(_VEC3)]
    + [(f"v_{ax}", "v", i) for i, ax in enumerate(_VEC3)]
    + [(f"q_{ax}", "q", i) for i, ax in enumerate(_QUAT)]
    + [(f"omega_{ax}", "omega", i) for i, ax in enumerate(_VEC3)]
    + [(f"ref_p_{ax}", "ref_p", i) for i, ax in enumerate(_VEC3)]
    + [(f"ref_v_{ax}", "ref_v", i) for i, ax in enumerate(_VEC3)]
    + [(f"ref_q_{ax}", "ref_q", i) for i, ax in enumerate(_QUAT)]
    + [(f"ref_omega_{ax}", "ref_omega", i) for i, ax in enumerate(_VEC3)]
    + [(f"e_p_{ax}", "e_p", i) for i, ax in enumerate(_VEC3)]
    + [(f"e_att_deg_{ax}", "e_att_deg", i)
       for i, ax in enumerate(("roll", "pitch", "yaw"))]
    + [(f"u_{i + 1}", "u", i) for i in range(6)]
    + [(f"w_cmd_{i + 1}", "w_cmd", i) for i in range(6)]
    + [(f"w_meas_{i + 1}", "w_meas", i) for i in range(6)]
    + [(f"sat_{i + 1}", "saturated", i) for i in range(6)]
)


def write_log_csv(path, log):
    """Fixed-order columns, header always present, floats formatted with
    round-trip-exact repr and the saturation flags as 0/1."""
    flags = [c for c in LOG_COLUMNS if c[1] == "saturated"]
    floats = [c for c in LOG_COLUMNS if c[1] != "saturated"]
    values = np.column_stack(
        [log["t"] if key is None else log[key][:, col]
         for _, key, col in floats]).tolist()
    sat = log["saturated"][:, [col for _, _, col in flags]].astype(int).tolist()
    with open(path, "w") as fh:
        fh.write(",".join(name for name, _, _ in floats + flags) + "\n")
        fh.writelines(",".join(map(repr, row + row_sat)) + "\n"
                      for row, row_sat in zip(values, sat))


def write_metrics_json(path, metrics, config, scenario):
    import scipy
    doc = {
        "metrics": metrics.as_dict(),
        "config": _resolved_config(config, scenario),
        "seed": scenario.seed,
        "versions": {
            "hexsim": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(config):
    from pathlib import Path
    params = build_params(config)
    scenario = build_run_scenario(config)
    out_dir = Path(config["run"]["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    log, metrics = experiments.run_scenario(scenario, params)
    write_log_csv(out_dir / "log.csv", log)
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
        return (value, controller, repeats, None, f"diverged: {exc}")
    return (value, controller, repeats, agg, "ok")


def cmd_sweep(config):
    axis = config["sweep"]["axis"]
    repeats = config["sweep"]["repeats"]
    jobs = config["sweep"]["jobs"]
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"sweep axis must be frequency or noise, got {axis}")
    if repeats < 1:
        raise ConfigError("sweep repeats must be >= 1")
    values = _SWEEP_AXES[axis][2]
    cells = [(controller, axis, value, repeats, config)
             for controller in ("geo", "indi") for value in values]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]

    out = config["sweep"]["out"]
    with open(out, "w") as fh:
        fh.write(f"{axis},controller,n_runs,lon_att_mean_deg,"
                 "lon_att_std_deg,pos_norm_mean,pos_norm_std,status\n")
        for value, controller, n, agg, status in rows:
            if agg is None:
                fh.write(f"{value},{controller},{n},,,,,{status}\n")
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
    return EXIT_OK


def cmd_validate(config):
    params = build_params(config)
    print(f"mass: {params.mass} kg, arm: {params.arm_length} m, "
          f"tilt: {math.degrees(params.tilt_angle):.1f} deg")
    try:
        eff = vehicle.build_effectiveness(params)
    except vehicle.DegenerateGeometry as exc:
        print(f"effectiveness: DEGENERATE ({exc})")
        print("result: FAIL")
        return EXIT_OK
    print(f"effectiveness rank: 6, condition number: "
          f"{eff.condition_number:.3f}")
    trim = vehicle.hover_command(params, eff)
    speeds = trim.w_cmd
    print("hover trim speeds (rad/s): "
          + " ".join(f"{w:.2f}" for w in speeds))
    within = bool(np.all(speeds >= params.w_min)
                  and np.all(speeds <= params.w_max))
    if trim.saturated.any() or not within:
        print(f"trim outside actuator limits "
              f"[{params.w_min:.2f}, {params.w_max:.2f}] rad/s")
        print("result: FAIL")
    else:
        print(f"trim within actuator limits "
              f"[{params.w_min:.2f}, {params.w_max:.2f}] rad/s")
        print("result: OK")
    return EXIT_OK


# ---------------------------------------------------------------------------

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
    run.add_argument("--scenario",
                     choices=["exp1", "exp2", "exp3", "exp4", "exp5"])
    run.add_argument("--controller", choices=["geo", "indi"])
    run.add_argument("--controller-freq", type=float, dest="controller_freq")
    run.add_argument("--cf-mismatch", type=float, dest="cf_mismatch")
    run.add_argument("--noise-scale", type=int, dest="noise_scale")
    run.add_argument("--seed", type=int)
    run.add_argument("--duration", type=float)
    run.add_argument("--residual-scale", type=float, dest="residual_scale")
    run.add_argument("--gust", action="store_true")
    run.add_argument("--out", help="output directory")

    sweep = sub.add_parser(
        "sweep", help="grid over controller frequency or noise level")
    add_common(sweep)
    sweep.add_argument("--axis", choices=["frequency", "noise"])
    sweep.add_argument("--repeats", type=int)
    sweep.add_argument("--jobs", type=int)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out", dest="sweep_out", help="output csv path")

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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except dynamics.NonFiniteState as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
