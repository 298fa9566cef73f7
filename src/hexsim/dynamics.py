"""Fixed-step truth simulator: rigid-body motion, motor lag, disturbances
and sensor synthesis.

Translational dynamics are integrated in the world frame, rotational
dynamics in the body frame.  Rotor speeds follow a first-order lag toward
the commanded setpoints, evaluated inside the RK4 stages.
"""

import functools
import math
import os
import threading
import zlib
from array import array
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .geometry import rotmat
from .vehicle import GRAVITY

SIM_DT = 5e-4  # 2 kHz truth rate; divides all controller frequencies evenly


class NonFiniteState(Exception):
    """Simulation diverged: a state component became non-finite.

    step raises it with the offset of the diverging truth step in its
    call, _truth.c's ticks with the step's index in the run, both with
    the last finite state; run_scenario raises it again with the time t
    at the start of that step, the scenario id, the seed and that state.
    """

    def __init__(self, message="simulation state diverged", t=None,
                 scenario=None, seed=None, state=None, offset=None):
        # every field goes into args, so the exception pickles
        super().__init__(message, t, scenario, seed, state, offset)
        self.message, self.t, self.scenario, self.seed, self.state = (
            message, t, scenario, seed, state)
        self.offset = offset

    def __str__(self):
        if self.t is None:
            return self.message
        return (f"{self.message} at t = {self.t:.4f} s in scenario "
                f"{self.scenario} with seed {self.seed}")


# State vector x = [p, v, q, omega, rotor_w]; no other module hard-codes it
P = slice(0, 3)           # m, world
V = slice(3, 6)           # m/s, world
Q = slice(6, 10)          # unit quaternion body->world
OMEGA = slice(10, 13)     # rad/s, body
ROTOR_W = slice(13, 19)   # rad/s, actual rotor speeds
STATE_SIZE = 19


def set_three_floats(obj, label, *names):
    """Set each field `names` of the frozen dataclass obj to a tuple of
    three Python floats; ValueError unless each holds 3 finite numbers."""
    for name in names:
        value = tuple(float(v) for v in getattr(obj, name))
        if len(value) != 3 or not all(map(math.isfinite, value)):
            raise ValueError(f"{label} {name} must be 3 finite numbers")
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class DisturbanceSpec:
    kind: str = "none"                 # none | constant_load | gust
    force: tuple = (0.0, 0.0, 0.0)     # N, world
    moment: tuple = (0.0, 0.0, 0.0)    # N m, body
    t_on: float = 0.0
    t_off: float = 0.0
    gust_std: float = 0.0              # N
    gust_corr_time: float = 0.5        # s

    def __post_init__(self):
        if self.kind not in ("none", "constant_load", "gust"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.kind != "none" and not self.t_on < self.t_off:
            raise ValueError("need t_on < t_off")
        if not self.gust_corr_time > 0:  # nan too; every sampler divides
            raise ValueError("gust_corr_time must be positive")
        if not (math.isfinite(self.gust_std) and self.gust_std >= 0):
            raise ValueError("gust_std must be finite and >= 0")
        set_three_floats(self, "disturbance", "force", "moment")


class DisturbanceSampler:
    """Per-run disturbance source; holds the colored-noise gust state.

    step(k, n) returns the wrenches held over the truth steps k ... k+n-1
    (each starting at t = k dt), as a list of n 6-tuples of floats
    (world force fx, fy, fz, body moment mx, my, mz): the spec's values
    inside [t_on, t_off), zero outside, plus the constant residual
    wrench.  A gust adds to the force an Ornstein-Uhlenbeck process (std
    gust_std, correlation time gust_corr_time) that advances on every
    truth step, with 3 normals a step from the numpy Generator rng,
    drawn in one rng.standard_normal(3 n); every other held value is
    computed once.

    The closed loop steps it over step 0 once before the first tick, then
    over each tick's steps, and the accelerometer at a tick sees the
    force of the previous step's draw; _truth.c's ticks does so from
    its constants, and does not call step (experiments.run_scenario
    builds its sampler with rng None).
    """

    def __init__(self, spec, dt, rng, residual_force=(0.0, 0.0, 0.0),
                 residual_moment=(0.0, 0.0, 0.0)):
        self.spec = spec
        self.dt = dt
        self.rng = rng
        self._ou = (0.0, 0.0, 0.0)
        decay = np.exp(-dt / spec.gust_corr_time)
        self._decay = float(decay)
        self._diffusion = float(spec.gust_std * np.sqrt(1.0 - decay ** 2))
        rf = self._residual_force = tuple(map(float, residual_force))
        rm = tuple(map(float, residual_moment))
        self._off = (*(0.0 + r for r in rf), *(0.0 + r for r in rm))
        self._on = (*((f + 0.0) + r for f, r in zip(spec.force, rf)),
                    *(m + r for m, r in zip(spec.moment, rm)))

    @property
    def constants(self):
        """What _truth.c's ticks read of the sampler, from its R_KIND
        offset on: the kind (0 none, 1 constant_load, 2 gust), t_on and
        t_off, the gust's decay and diffusion a truth step, the spec's
        force, the residual force, and the wrenches held inside and
        outside [t_on, t_off)."""
        spec = self.spec
        return (("none", "constant_load", "gust").index(spec.kind),
                spec.t_on, spec.t_off, self._decay, self._diffusion,
                *spec.force, *self._residual_force, *self._on, *self._off)

    def step(self, k, n):
        spec, dt, off = self.spec, self.dt, self._off
        t_on, t_off = spec.t_on, spec.t_off
        if spec.kind != "gust":
            if spec.kind == "none":
                return [off] * n
            on = self._on
            return [on if t_on <= j * dt < t_off else off
                    for j in range(k, k + n)]
        a, s = self._decay, self._diffusion
        o1, o2, o3 = self._ou
        f1, f2, f3 = spec.force
        r1, r2, r3 = self._residual_force
        _, _, _, m1, m2, m3 = self._on
        draws = iter(self.rng.standard_normal(3 * n).tolist())
        wrenches = []
        for j, n1, n2, n3 in zip(range(k, k + n), draws, draws, draws):
            o1, o2, o3 = a * o1 + s * n1, a * o2 + s * n2, a * o3 + s * n3
            wrenches.append(
                ((f1 + o1) + r1, (f2 + o2) + r2, (f3 + o3) + r3, m1, m2, m3)
                if t_on <= j * dt < t_off else off)
        self._ou = o1, o2, o3
        return wrenches


# how load_truth compiles _truth.c: no -ffast-math and no contraction
# into fused multiply-adds, so each operation rounds as a CPython float
# does; -pthread for the log writer's second thread
CFLAGS = ("-shared", "-fPIC", "-O2", "-ffp-contract=off", "-pthread")
_truth = None
_truth_lock = threading.Lock()


def compile_command(source):
    """The command, less its -o, that builds _truth.c at source:
    sysconfig's C compiler with CFLAGS, the CPython and numpy headers and
    numpy's static library of random distributions, whose
    random_standard_normal draws a run's normals as numpy's Generator
    does."""
    import sysconfig
    return [*sysconfig.get_config_var("CC").split(), *CFLAGS,
            "-I", sysconfig.get_paths()["include"], "-I", np.get_include(),
            source, os.path.join(os.path.dirname(np.__file__), "random",
                                 "lib", "libnpyrandom.a"), "-lm"]


def load_truth():
    """The compiled step, the module hexsim._truth of _truth.c, loaded
    once per process (forked processes inherit it; threads calling at
    once wait for one load) from the __pycache__ directory beside this
    file, named by the CRC-32 of the source, CFLAGS, the extension
    suffix and the numpy version.  If missing, it is built there, and
    the libraries of that suffix with another name are removed."""
    global _truth
    if _truth is not None:  # the lock guards the first load only
        return _truth
    with _truth_lock:
        if _truth is not None:
            return _truth
        here = os.path.dirname(os.path.abspath(__file__))
        source = os.path.join(here, "_truth.c")
        suffix = EXTENSION_SUFFIXES[0]
        with open(source, "rb") as fh:
            key = zlib.crc32(
                " ".join((*CFLAGS, suffix, np.__version__)).encode(),
                zlib.crc32(fh.read()))
        path = os.path.join(here, "__pycache__", f"_truth.{key:08x}{suffix}")
        if not os.path.exists(path):
            _build(source, path)
            for old in Path(path).parent.glob(f"_truth.*{suffix}"):
                if str(old) != path:
                    old.unlink(missing_ok=True)
        loader = ExtensionFileLoader("hexsim._truth", path)
        module = module_from_spec(spec_from_loader(loader.name, loader))
        loader.exec_module(module)
        module.NonFiniteState = NonFiniteState
        _truth = module
        return _truth


def _build(source, path):
    """Compile source with sysconfig's C compiler to a temporary file that
    os.replace moves to path (so no interpreter loads a half-written one),
    or raise OSError naming the command and the first line of its stderr."""
    import subprocess
    command = compile_command(source)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        out = subprocess.run([*command, "-o", tmp], capture_output=True,
                             text=True)
        if out.returncode == 0:
            return os.replace(tmp, path)
        reason = (out.stderr.splitlines() or [f"exit {out.returncode}"])[0]
    except OSError as exc:
        reason = str(exc)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    raise OSError(f"cannot build the truth step: {' '.join(command)}: {reason}")


def truth_constants(params):
    """The floats _truth.c's step and ticks read of the platform params,
    as an array('d'): F1 / m, F2's rows over J_x, J_y, J_z (what scales
    a step's wrench), m, J_x, J_y, J_z, the gyroscopic coefficients
    (J_y - J_z) / J_x, ..., g and 1 / tau, then F1 row by row, which the
    accelerometer reads."""
    eff = params.effectiveness
    m = params.mass
    jx, jy, jz = params.inertia
    per_inertia = eff.F2 / np.reshape(params.inertia, (3, 1))
    return array("d", (
        *(eff.F1 / m).ravel().tolist(), *per_inertia.ravel().tolist(),
        m, jx, jy, jz, (jy - jz) / jx, (jz - jx) / jy, (jx - jy) / jz,
        GRAVITY, 1.0 / params.motor_time_constant, *eff.F1.ravel().tolist()))


class Kernel(NamedTuple):
    rates: Callable
    step: Callable
    specific_force: Callable


def make_step(params):
    """The truth dynamics of the platform params, specialised once:
    returns the Kernel (rates, step, specific_force), with every constant
    of params and its effectiveness bound.  All three work on Python
    floats; the constants of rates and specific_force are float literals
    (2.0, not 2): the same values, but CPython takes its slower
    mixed-type path for an int operand.
    The closed loop does not build one: _truth.c's ticks reads
    truth_constants.

    rates(qw, qx, qy, qz, ox, oy, oz, w1, ..., w6, inputs) takes the
    state scalars it reads and the 12-tuple inputs (w_cmd, the world
    force dist_force, the body moment dist_moment).  It returns the
    rates of v, q, omega and the rotor speeds as a 16-tuple: force
    balance in world frame, with R(q) from geometry.rotmat, moment
    balance in body frame, rotor speeds lagging toward w_cmd.  q need
    not have unit norm.  derivative and acceleration read it.

    step(s, w_cmd, wrenches, dt) is _truth.c's step (which see) over the
    constants of params: rates' dynamics, equal to rounding.

    specific_force(s, dist_force) is what an accelerometer at state s
    reads, R(q)^T (p_ddot + g e3) in the body frame, as a list of 3
    floats: the force balance of rates alone (the rotor command and the
    moment play no part in it), with the same expressions, rotated back
    by the same R(q).
    """
    eff = params.effectiveness
    ((fx1, fx2, fx3, fx4, fx5, fx6), (fy1, fy2, fy3, fy4, fy5, fy6),
     (fz1, fz2, fz3, fz4, fz5, fz6)) = eff.F1.tolist()
    ((mx1, mx2, mx3, mx4, mx5, mx6), (my1, my2, my3, my4, my5, my6),
     (mz1, mz2, mz3, mz4, mz5, mz6)) = eff.F2.tolist()
    m = params.mass
    weight = m * GRAVITY
    jx, jy, jz = params.inertia
    tau = params.motor_time_constant

    def rates(qw, qx, qy, qz, ox, oy, oz, w1, w2, w3, w4, w5, w6, inputs):
        c1, c2, c3, c4, c5, c6, dfx, dfy, dfz, dmx, dmy, dmz = inputs
        u1, u2, u3 = w1 * abs(w1), w2 * abs(w2), w3 * abs(w3)
        u4, u5, u6 = w4 * abs(w4), w5 * abs(w5), w6 * abs(w6)
        # rotor force F1 u in the body frame, rotated to world by R(q)
        bx = fx1 * u1 + fx2 * u2 + fx3 * u3 + fx4 * u4 + fx5 * u5 + fx6 * u6
        by = fy1 * u1 + fy2 * u2 + fy3 * u3 + fy4 * u4 + fy5 * u5 + fy6 * u6
        bz = fz1 * u1 + fz2 * u2 + fz3 * u3 + fz4 * u4 + fz5 * u5 + fz6 * u6
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = rotmat((qw, qx, qy, qz))
        fx = (r00 * bx + r01 * by + r02 * bz) + dfx
        fy = (r10 * bx + r11 * by + r12 * bz) + dfy
        fz = (r20 * bx + r21 * by + r22 * bz) - weight + dfz
        tx = mx1 * u1 + mx2 * u2 + mx3 * u3 + mx4 * u4 + mx5 * u5 + mx6 * u6
        ty = my1 * u1 + my2 * u2 + my3 * u3 + my4 * u4 + my5 * u5 + my6 * u6
        tz = mz1 * u1 + mz2 * u2 + mz3 * u3 + mz4 * u4 + mz5 * u5 + mz6 * u6
        hx, hy, hz = jx * ox, jy * oy, jz * oz
        return (
            fx / m, fy / m, fz / m,
            # q_dot = 0.5 q (x) (0, omega)
            0.5 * (-qx * ox - qy * oy - qz * oz),
            0.5 * (qw * ox + qy * oz - qz * oy),
            0.5 * (qw * oy - qx * oz + qz * ox),
            0.5 * (qw * oz + qx * oy - qy * ox),
            # J omega_dot = F2 u - omega x J omega + moment
            (tx - (oy * hz - oz * hy) + dmx) / jx,
            (ty - (oz * hx - ox * hz) + dmy) / jy,
            (tz - (ox * hy - oy * hx) + dmz) / jz,
            (c1 - w1) / tau, (c2 - w2) / tau, (c3 - w3) / tau,
            (c4 - w4) / tau, (c5 - w5) / tau, (c6 - w6) / tau,
        )

    step = functools.partial(load_truth().step, truth_constants(params))

    def specific_force(s, dist_force):
        (_, _, _, _, _, _, qw, qx, qy, qz, _, _, _,
         w1, w2, w3, w4, w5, w6) = s
        dfx, dfy, dfz = dist_force
        u1, u2, u3 = w1 * abs(w1), w2 * abs(w2), w3 * abs(w3)
        u4, u5, u6 = w4 * abs(w4), w5 * abs(w5), w6 * abs(w6)
        bx = fx1 * u1 + fx2 * u2 + fx3 * u3 + fx4 * u4 + fx5 * u5 + fx6 * u6
        by = fy1 * u1 + fy2 * u2 + fy3 * u3 + fy4 * u4 + fy5 * u5 + fy6 * u6
        bz = fz1 * u1 + fz2 * u2 + fz3 * u3 + fz4 * u4 + fz5 * u5 + fz6 * u6
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = rotmat((qw, qx, qy, qz))
        ax = ((r00 * bx + r01 * by + r02 * bz) + dfx) / m
        ay = ((r10 * bx + r11 * by + r12 * bz) + dfy) / m
        az = ((r20 * bx + r21 * by + r22 * bz) - weight + dfz) / m + GRAVITY
        return [r00 * ax + r10 * ay + r20 * az, r01 * ax + r11 * ay + r21 * az,
                r02 * ax + r12 * ay + r22 * az]

    return Kernel(rates, step, specific_force)


# what acceleration passes for the rotor command, whose rates it drops
_IDLE = (0.0,) * 6


def derivative(x, kernel, w_cmd, dist_force, dist_moment):
    """Time derivative of the state x under its rotor speeds, as a list of
    19 floats: the velocity, then the rates of the Kernel `kernel`.
    Works on Python floats: x is laid out as the state vector, w_cmd has
    6 entries and each disturbance 3."""
    return [*x[V], *kernel.rates(*x[Q.start:],
                                 (*w_cmd, *dist_force, *dist_moment))]


def acceleration(x, kernel, dist_force):
    """World-frame translational acceleration at state x, as a list of 3
    floats: the velocity rates of the Kernel `kernel`.  x (laid out as
    the state vector) and dist_force are sequences of numbers; lists of
    Python floats are fastest.  The accelerometer reads the kernel's
    specific_force instead."""
    return [*kernel.rates(*x[Q.start:],
                          (*_IDLE, *dist_force, 0.0, 0.0, 0.0))[:3]]


def step(x, kernel, cmd, wrenches, dt):
    """len(wrenches) RK4 steps of dt in the Kernel `kernel` under the
    rotor command cmd.w_cmd (6 entries), each with its wrench (world
    force, body moment; 6 numbers) held.  x is laid out as the state
    vector; lists and tuples of Python floats are fastest.  Returns the
    new state as a list of 19 floats and never writes into x.  Raises
    NonFiniteState, with the offset of the diverging step and the last
    finite state, if any component diverges."""
    return kernel.step(x, cmd.w_cmd, wrenches, dt)


GYRO_SIGMA = 0.02    # rad/s, gyro white noise at noise scale 1
ACCEL_SIGMA = 0.05   # m/s^2, accelerometer white noise at noise scale 1


def synthesize_sensors(x, kernel, dist_force, scale, rng):
    """Sensor outputs (accel, gyro, rotor_w_meas) at the truth state x (a
    sequence laid out as the state vector; a list of Python floats is
    fastest) under the world force dist_force.

    accel is the specific force R(q)^T (p_ddot + g e3), from the
    specific_force of the Kernel `kernel`; gyro and the rotor
    tachometers read the body rate and the rotor speeds.  For scale > 0
    the accel and gyro channels add white Gaussian noise with sigma
    ACCEL_SIGMA * scale and GYRO_SIGMA * scale, from the numpy
    Generator rng (as DisturbanceSampler's); the tachometers stay
    noise-free.
    _truth.c's ticks synthesises the same readings and does not call it.
    """
    accel = kernel.specific_force(x, dist_force)
    gyro = x[OMEGA]
    if scale > 0.0:
        # 12 normals a call, in the order accel, gyro, rotor.  The six
        # rotor draws go unused; drawing them keeps every later draw of
        # the shared stream (the next ticks' noise and the gust) equal to
        # the stored references'
        n1, n2, n3, n4, n5, n6 = rng.standard_normal(12).tolist()[:6]
        sa, sg = scale * ACCEL_SIGMA, scale * GYRO_SIGMA
        (a1, a2, a3), (g1, g2, g3) = accel, gyro
        accel = [a1 + sa * n1, a2 + sa * n2, a3 + sa * n3]
        gyro = [g1 + sg * n4, g2 + sg * n5, g3 + sg * n6]
    return accel, gyro, x[ROTOR_W]
