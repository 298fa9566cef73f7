"""Scenario definitions and metric computation for the five studies:

  exp1  attitude step tracking, optionally with a 50% force-coefficient
        mismatch in the controller model
  exp2  hover disturbance rejection under a constant lateral load plus
        pitch moment applied through a hook below the rear arm
  exp3  waypoint square, optionally with a fan-style gust (mean lateral
        force plus colored noise)
  exp4  exp1 maneuver repeated across reduced controller frequencies
  exp5  hover with noise injected into the controller feedback channels

All experiment scenarios apply a small constant "residual" wrench to the
truth dynamics, standing in for the unmodeled trim forces any real
airframe carries.  The model-based controller leaves a proportional
offset against it while the incremental controller cancels it, which is
the mechanism behind the position-error gap in every study.  Set
residual_scale = 0 for ideal-model studies.
"""

import functools
import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics as dyn
from . import vehicle
from .control import (FILTER_CUTOFF_HZ, FILTER_DAMPING, Gains,
                      make_controller, make_model)
from .geometry import quat_from_rpy, rpy_from_quat

CONTROLLER_FREQS = (500.0, 250.0, 125.0, 62.5, 50.0)  # the exp4 sweep grid
NOISE_SCALES = (0, 1, 3, 7, 15, 31)  # the exp5 sweep grid

POSE_RATE_HZ = 250.0
WARMUP_S = 2.0   # excluded from all metric windows

# hardware-reality stand-in: constant unmodeled force (world) and moment
# (body) present in all experiment scenarios
RESIDUAL_FORCE = (1.4, 1.6, 3.7)     # N
RESIDUAL_MOMENT = (0.02, 0.02, 0.01)  # N m

# The run log, a row per controller tick: each block's name and column
# suffixes, in log.csv order.  "t" is one unsuffixed column; the last
# block, the saturation flags as 0/1, is headed sat_1 ... sat_6.
_XYZ, _ROTORS = ("x", "y", "z"), ("1", "2", "3", "4", "5", "6")
LOG_LAYOUT = (
    ("t", None), ("p", _XYZ), ("v", _XYZ), ("q", ("w", *_XYZ)),
    ("omega", _XYZ), ("ref_p", _XYZ), ("ref_v", _XYZ),
    ("ref_q", ("w", *_XYZ)), ("ref_omega", _XYZ), ("e_p", _XYZ),
    ("e_att_deg", ("roll", "pitch", "yaw")), ("u", _ROTORS),
    ("w_cmd", _ROTORS), ("w_meas", _ROTORS), ("saturated", _ROTORS))


def _log_blocks():
    """Each block's column (t) or slice of the row, and the header."""
    blocks, header = {}, []
    for name, suffixes in LOG_LAYOUT:
        start, prefix = len(header), {"saturated": "sat"}.get(name, name)
        header += [f"{prefix}_{s}" for s in suffixes] if suffixes else [name]
        blocks[name] = slice(start, len(header)) if suffixes else start
    return blocks, tuple(header)


LOG_BLOCKS, LOG_HEADER = _log_blocks()


class UnknownScenario(Exception):
    pass


class NotReached(Exception):
    """Step response never attained the 90% threshold in the window."""


class EmptyWindow(Exception):
    pass


@dataclass(frozen=True)
class Setpoint:
    """Position and ZYX attitude target from the finite time t on; pos
    and rpy are kept as tuples of three finite Python floats."""
    t: float
    pos: tuple
    rpy: tuple

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("setpoint t must be finite")
        dyn.set_three_floats(self, "setpoint", "pos", "rpy")


_ZERO = (0.0, 0.0, 0.0)
_HOVER = Setpoint(0.0, _ZERO, _ZERO)  # level at the origin from t = 0 on


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run.  A field's "record" metadata says how
    metrics.json records it: as the one attribute it names, or not at all
    if None; every other field is recorded by value."""
    id: str
    controller: str                       # geo | indi
    controller_freq: float = 500.0
    cf_mismatch: float = 1.0
    disturbance: dyn.DisturbanceSpec = field(
        default_factory=dyn.DisturbanceSpec, metadata={"record": "kind"})
    noise_scale: float = 0.0
    script: tuple = field(default=(_HOVER,), metadata={"record": None})
    duration: float = 10.0
    seed: int = 1
    residual_scale: float = 1.0
    gains: Gains = field(default_factory=Gains)
    filter_cutoff_hz: float = FILTER_CUTOFF_HZ
    filter_damping: float = FILTER_DAMPING

    def __post_init__(self):
        if self.controller not in ("geo", "indi"):
            raise ValueError(f"unknown controller {self.controller!r}")
        # a tick spans a whole number (>= 1) of truth steps
        ticks_per_step = self.controller_freq * dyn.SIM_DT
        steps = 1.0 / ticks_per_step if ticks_per_step > 0 else 0.0
        if not (math.isfinite(steps) and round(steps) >= 1
                and abs(steps - round(steps)) <= 1e-9):
            raise ValueError(
                f"controller_freq must be {1 / dyn.SIM_DT:g} Hz over a "
                f"whole number of truth steps, not {self.controller_freq}")
        for name in ("duration", "cf_mismatch", "noise_scale",
                     "residual_scale", "filter_cutoff_hz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        try:  # a Python int, whose bytes seed the run's stream
            object.__setattr__(self, "seed", int(operator.index(self.seed)))
        except TypeError:
            raise ValueError(f"seed must be an integer, not {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        if not isinstance(self.gains, Gains):
            raise ValueError(f"gains must be a Gains, not {self.gains!r}")
        if not isinstance(self.disturbance, dyn.DisturbanceSpec):
            raise ValueError("disturbance must be a DisturbanceSpec")
        if not (isinstance(self.script, tuple) and self.script and all(
                isinstance(sp, Setpoint) for sp in self.script)):
            raise ValueError("script must be a non-empty tuple of Setpoints")
        # the run bisects the times; of equal times the last one wins
        if any(b.t < a.t for a, b in zip(self.script, self.script[1:])):
            raise ValueError("script setpoint times must not decrease")
        if self.cf_mismatch <= 0:
            raise ValueError("cf_mismatch must be positive")
        if self.filter_cutoff_hz <= 0:
            raise ValueError("filter_cutoff_hz must be positive")
        if not 0 < self.filter_damping <= 2:
            raise ValueError("filter_damping must be in (0, 2]")
        n_sub, n_steps = _clock(self)
        if (n_steps - 1) // n_sub * n_sub * dyn.SIM_DT < WARMUP_S:
            raise ValueError(
                f"duration {self.duration} s leaves no controller tick "
                f"after the {WARMUP_S} s metric warm-up")


def _clock(scenario):
    """(truth steps per controller tick, truth steps) of a run; the ticks
    fall on the steps k = 0, n_sub, 2 n_sub, ... below n_steps."""
    return (int(round(1.0 / (scenario.controller_freq * dyn.SIM_DT))),
            int(round(scenario.duration / dyn.SIM_DT)))


@dataclass
class RunMetrics:
    pos_abs_mean: np.ndarray = None      # per axis, m
    pos_abs_peak: np.ndarray = None
    att_abs_mean_deg: np.ndarray = None  # roll/pitch/yaw
    att_abs_peak_deg: np.ndarray = None
    lon_att_mean_deg: float = None       # norm of (roll, pitch) error
    lon_att_std_deg: float = None
    pos_norm_mean: float = None
    pos_norm_std: float = None
    roll_rise_time: float = None

    def as_dict(self):
        """The metrics as JSON values: arrays as lists of floats, and a
        value that is unset or not finite (a rise time whose roll step
        never reaches 90 %) as None."""
        def value(v):
            return float(v) if v is not None and math.isfinite(v) else None
        return {k: [value(x) for x in v] if isinstance(v, np.ndarray)
                else value(v) for k, v in self.__dict__.items()}


def _exp1_script():
    """5 s hover, then attitude steps of +-8 deg roll, +-8 deg pitch and
    +-45 deg yaw, each held 4 s with a 4 s return to zero."""
    script, t = [_HOVER], 5.0
    for axis, deg in ((0, 8.0), (1, 8.0), (2, 45.0)):
        for sign in (1.0, -1.0):
            rpy = tuple(sign * math.radians(deg) if i == axis else 0.0
                        for i in range(3))
            script.append(Setpoint(t, _ZERO, rpy))
            script.append(Setpoint(t + 4.0, _ZERO, _ZERO))
            t += 8.0
    return tuple(script), t


def _exp3_script():
    """2 m square at 0.25 m/s legs (8 s per leg), yaw held."""
    corners = [(0, 0), (2, 0), (2, 2), (0, 2), (0, 0)]
    script, t = [_HOVER], 5.0
    for x, y in corners[1:]:
        script.append(Setpoint(t, (x, y, 0.0), _ZERO))
        t += 8.0
    return tuple(script), t + 4.0


def build_scenario(scenario_id, controller, overrides=None):
    """Construct one of the five predefined scenarios.

    overrides is a flat dict applied on top of the defaults; unknown keys
    raise. `gust` switches exp3's fan disturbance on; any other scenario
    rejects it.
    """
    overrides = dict(overrides or {})
    gust = bool(overrides.pop("gust", False))
    if gust and scenario_id != "exp3":
        raise ValueError(f"gust applies to exp3 only, not {scenario_id}")
    if scenario_id == "exp1":
        script, dur = _exp1_script()
        base = Scenario(id=scenario_id, controller=controller,
                        script=script, duration=dur)
    elif scenario_id == "exp2":
        load = dyn.DisturbanceSpec(
            kind="constant_load",
            force=(0.0, -4.905, 0.0),
            moment=(0.0, 4.905 * 0.13, 0.0),  # 0.638 N m pitch
            t_on=6.0, t_off=14.0)
        base = Scenario(id=scenario_id, controller=controller,
                        duration=20.0, disturbance=load)
    elif scenario_id == "exp3":
        script, dur = _exp3_script()
        disturbance = dyn.DisturbanceSpec(kind="none")
        if gust:
            disturbance = dyn.DisturbanceSpec(
                kind="gust", force=(2.0, 0.0, 0.0),
                t_on=WARMUP_S, t_off=dur, gust_std=1.0, gust_corr_time=0.5)
        base = Scenario(id=scenario_id, controller=controller,
                        script=script, duration=dur, disturbance=disturbance)
    elif scenario_id == "exp4":
        # frequency study inherits the exp1 maneuver; sensors carry their
        # intrinsic (1x) noise so rate-dependent noise amplification shows
        script, dur = _exp1_script()
        base = Scenario(id=scenario_id, controller=controller,
                        script=script, duration=dur, noise_scale=1)
    elif scenario_id == "exp5":
        base = Scenario(id=scenario_id, controller=controller, duration=12.0)
    else:
        raise UnknownScenario(scenario_id)
    if overrides:
        valid = set(Scenario.__dataclass_fields__)
        unknown = set(overrides) - valid
        if unknown:
            raise UnknownScenario(f"unknown overrides: {sorted(unknown)}")
        base = replace(base, **overrides)
    return base


def _script_target(script, times, t):
    """(pos, rpy) of the last setpoint at or before t, or of the first
    setpoint while t is before it.  `times` holds the setpoint times, in
    order."""
    i = bisect_right(times, t)
    target = script[i - 1] if i else script[0]
    return target.pos, target.rpy


def run_scenario(scenario, params=None):
    """Execute the closed loop (truth at 2 kHz, controller at the scenario
    frequency) and return (log, RunMetrics).

    The log maps each block of LOG_LAYOUT to its view of one float array,
    a row per tick.  One call of _truth.c's ticks runs the whole loop and
    returns every row, tracking errors included.  Raises NonFiniteState
    carrying the time, scenario id, seed and last finite state if the
    truth state diverges.
    """
    ticks = _closed_loop(scenario, params or vehicle.default_params())
    try:
        rows = ticks()
    except dyn.NonFiniteState as exc:
        raise dyn.NonFiniteState(
            exc.message, t=exc.offset * dyn.SIM_DT, scenario=scenario.id,
            seed=scenario.seed, state=exc.state) from exc
    return _log_and_metrics(scenario, rows)


def _closed_loop(scenario, params):
    """The closed loop of scenario on the platform params, set up:
    _truth.c's ticks bound to the whole run.  Each call runs the run
    afresh and returns its log, a new array of a row per tick."""
    model = make_model(params, scenario.cf_mismatch)

    dt = dyn.SIM_DT
    n_sub, n_steps = _clock(scenario)
    pose_every = int(round(1.0 / (POSE_RATE_HZ * dt)))
    controller = make_controller(
        scenario.controller, model, scenario.gains, n_sub * dt,
        scenario.filter_cutoff_hz, scenario.filter_damping)

    trim = params.hover
    script = scenario.script
    times = [sp.t for sp in script]
    p0, rpy0 = _script_target(script, times, 0.0)
    q0 = quat_from_rpy(*rpy0)
    controller.warm_start(p0, q0, trim)

    # noise_scale multiplies the noise variances, so sigma goes with its root
    sigma = math.sqrt(scenario.noise_scale)
    sampler = dyn.DisturbanceSampler(
        scenario.disturbance, dt, None,
        [scenario.residual_scale * r for r in RESIDUAL_FORCE],
        [scenario.residual_scale * r for r in RESIDUAL_MOMENT])
    run = array("d", (dt, sigma, sigma * dyn.ACCEL_SIGMA,
                      sigma * dyn.GYRO_SIGMA, *sampler.constants))
    x0 = array("d", (*p0, 0.0, 0.0, 0.0, *q0, 0.0, 0.0, 0.0, *trim.w_cmd))
    # the normals of default_rng(seed), whose SeedSequence takes an int
    # as its 32-bit words; the sensor noise and the gust share them
    words = max(1, -(-scenario.seed.bit_length() // 32))
    return functools.partial(
        dyn.load_truth().ticks, dyn.truth_constants(params),
        controller.constants, controller.state, run,
        array("d", (*times, *(v for sp in script
                             for v in (*sp.pos, *sp.rpy)))),
        n_sub, pose_every, n_steps, x0,
        scenario.seed.to_bytes(4 * words, "little"))


def _log_and_metrics(scenario, rows):
    """(log, RunMetrics) of a run's finished rows, as run_scenario
    returns them."""
    log = {name: rows[:, block] for name, block in LOG_BLOCKS.items()}
    metrics = error_statistics(log, (WARMUP_S, scenario.duration))
    if scenario.id in ("exp1", "exp4"):
        try:
            metrics.roll_rise_time = rise_time(
                log["t"], rpy_from_quat(log["q"].T)[0], onset=5.0,
                magnitude=math.radians(8.0))
        except NotReached:
            metrics.roll_rise_time = float("nan")
    return log, metrics


def rise_time(t, signal, onset, magnitude):
    """10%-90% rise time of `signal` after a step of `magnitude` from zero
    commanded at `onset`.  Raises NotReached if 90% is never attained."""
    mask = t >= onset
    ts, ys = t[mask], signal[mask] / magnitude
    above90 = np.nonzero(ys >= 0.9)[0]
    if len(above90) == 0:
        raise NotReached("signal never reached 90% of the step")
    i90 = above90[0]
    above10 = np.nonzero(ys[: i90 + 1] >= 0.1)[0]
    i10 = above10[0] if len(above10) else i90
    return float(ts[i90] - ts[i10])


def error_statistics(log, window):
    """Per-axis and norm error statistics over [window[0], window[1])."""
    t = log["t"]
    mask = (t >= window[0]) & (t < window[1])
    if not mask.any():
        raise EmptyWindow(f"no samples in {window}")
    e_p, e_att = log["e_p"][mask], log["e_att_deg"][mask]
    lon = np.linalg.norm(e_att[:, :2], axis=1)
    pos_norm = np.linalg.norm(e_p, axis=1)
    # the masked copies are this call's own
    np.abs(e_p, out=e_p)
    np.abs(e_att, out=e_att)
    return RunMetrics(
        pos_abs_mean=e_p.mean(axis=0),
        pos_abs_peak=e_p.max(axis=0),
        att_abs_mean_deg=e_att.mean(axis=0),
        att_abs_peak_deg=e_att.max(axis=0),
        lon_att_mean_deg=float(lon.mean()),
        lon_att_std_deg=float(lon.std()),
        pos_norm_mean=float(pos_norm.mean()),
        pos_norm_std=float(pos_norm.std()),
    )


def repeat_runs(scenario, n, params=None):
    """n runs with consecutive seeds from scenario.seed on.  The aggregate
    is error_statistics over the samples of all runs pooled, plus the mean
    roll rise time: for n = 1 the run's own metrics.  Returns (aggregate
    RunMetrics, per-run list)."""
    if n < 1:
        raise ValueError("need n >= 1")
    params = params or vehicle.default_params()  # one for all n runs
    per_run, samples = [], []
    for i in range(n):
        log, metrics = run_scenario(
            replace(scenario, seed=scenario.seed + i), params)
        per_run.append(metrics)
        if n == 1:
            return metrics, per_run
        # copies, so that no run's whole log outlives its samples
        samples.append({key: log[key].copy()
                        for key in ("t", "e_p", "e_att_deg")})
        del log
    pooled = {key: np.concatenate([run[key] for run in samples])
              for key in samples[0]}
    agg = error_statistics(pooled, (WARMUP_S, scenario.duration))
    if per_run[0].roll_rise_time is not None:
        agg.roll_rise_time = float(
            np.mean([m.roll_rise_time for m in per_run]))
    return agg, per_run
