"""Fixed-step truth simulator: rigid-body motion, motor lag, disturbances
and sensor synthesis.

Translational dynamics are integrated in the world frame, rotational
dynamics in the body frame.  Rotor speeds follow a first-order lag toward
the commanded setpoints, evaluated inside the RK4 stages.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import E3, quat_derivative, quat_to_rotmat
from .vehicle import GRAVITY

SIM_DT = 5e-4  # 2 kHz truth rate; divides all controller frequencies evenly


class NonFiniteState(Exception):
    """Simulation diverged: a state component became non-finite."""


# State vector x = [p, v, q, omega, rotor_w]; no other module hard-codes it
P = slice(0, 3)           # m, world
V = slice(3, 6)           # m/s, world
Q = slice(6, 10)          # unit quaternion body->world
OMEGA = slice(10, 13)     # rad/s, body
ROTOR_W = slice(13, 19)   # rad/s, actual rotor speeds
STATE_SIZE = 19


def pack(p, v, q, omega, rotor_w):
    """State vector from its blocks."""
    return np.concatenate((p, v, q, omega, rotor_w), dtype=float)


@dataclass(frozen=True)
class DisturbanceSpec:
    kind: str = "none"                 # none | constant_load | gust
    force: np.ndarray = field(default_factory=lambda: np.zeros(3))   # N, world
    moment: np.ndarray = field(default_factory=lambda: np.zeros(3))  # N m, body
    t_on: float = 0.0
    t_off: float = 0.0
    gust_std: float = 0.0              # N
    gust_corr_time: float = 0.5        # s

    def __post_init__(self):
        if self.kind not in ("none", "constant_load", "gust"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.kind != "none" and not self.t_on < self.t_off:
            raise ValueError("need t_on < t_off")
        if self.kind == "gust" and self.gust_corr_time <= 0:
            raise ValueError("gust_corr_time must be positive")


class DisturbanceSampler:
    """Per-run disturbance source; holds the colored-noise gust state.

    step(t) returns the (world force, body moment) held over the truth step
    starting at t: the spec's values inside [t_on, t_off), zero outside.
    A gust adds to the force an Ornstein-Uhlenbeck process (std gust_std,
    correlation time gust_corr_time) that advances on every call.

    run_scenario steps it once before the loop and again at k = 0, and the
    accelerometer at a tick sees the previous step's draw.
    """

    def __init__(self, spec, dt, rng):
        self.spec = spec
        self.rng = rng
        self._ou = np.zeros(3)
        self._zero = np.zeros(3)
        self._decay = np.exp(-dt / spec.gust_corr_time)
        self._diffusion = spec.gust_std * np.sqrt(1.0 - self._decay ** 2)

    def step(self, t):
        spec = self.spec
        if spec.kind == "gust":
            self._ou = (self._decay * self._ou
                        + self._diffusion * self.rng.standard_normal(3))
        if spec.kind == "none" or not spec.t_on <= t < spec.t_off:
            return self._zero, self._zero
        return spec.force + self._ou, spec.moment


def derivative(x, params, eff, w_cmd, dist_force, dist_moment):
    """Time derivative of the state vector under the current rotor speeds.

    Force balance in world frame, moment balance in body frame, rotor
    speeds lagging toward w_cmd.
    """
    q, om, rotor_w = x[Q], x[OMEGA], x[ROTOR_W]
    u = rotor_w * np.abs(rotor_w)
    rot = quat_to_rotmat(q)
    j = params.inertia_diag
    jw = j * om
    gyroscopic = np.array([om[1] * jw[2] - om[2] * jw[1],
                           om[2] * jw[0] - om[0] * jw[2],
                           om[0] * jw[1] - om[1] * jw[0]])
    force_w = rot @ (eff.F1 @ u) - params.mass * GRAVITY * E3 + dist_force
    torque = eff.F2 @ u - gyroscopic + dist_moment
    dx = np.empty(STATE_SIZE)
    dx[P] = x[V]
    dx[V] = force_w / params.mass
    dx[Q] = quat_derivative(q, om)
    dx[OMEGA] = torque / j
    dx[ROTOR_W] = (w_cmd - rotor_w) / params.motor_time_constant
    return dx


def acceleration(x, params, eff, dist_force):
    """World-frame translational acceleration at state x."""
    rotor_w = x[ROTOR_W]
    u = rotor_w * np.abs(rotor_w)
    force_w = (quat_to_rotmat(x[Q]) @ (eff.F1 @ u)
               - params.mass * GRAVITY * E3 + dist_force)
    return force_w / params.mass


def step(x, params, eff, cmd, dist_force, dist_moment, dt):
    """One RK4 step; disturbance held constant over the step.

    Returns a new state vector and never writes into x.  Raises
    NonFiniteState if any component diverges.
    """
    w_cmd = cmd.w_cmd

    def f(s):
        return derivative(s, params, eff, w_cmd, dist_force, dist_moment)

    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    out = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    out[Q] /= np.linalg.norm(out[Q])
    if not np.isfinite(out).all():
        raise NonFiniteState("simulation state diverged")
    return out


@dataclass(frozen=True)
class NoiseSpec:
    gyro_sigma: float = 0.02     # rad/s
    accel_sigma: float = 0.05    # m/s^2
    rotor_sigma: float = 1.0     # rad/s
    scale: float = 0.0           # experiment factor applied to all sigmas


@dataclass
class SensorReadings:
    accel: np.ndarray         # specific force, body, m/s^2
    gyro: np.ndarray          # rad/s, body
    rotor_w_meas: np.ndarray  # rad/s


def synthesize_sensors(x, accel_world, noise, rng):
    """Sensor outputs at the truth state x.

    accel is the specific force R(q)^T (p_ddot + g e3); gyro and rotor
    tachometers read the body rate and rotor speeds.  Per-channel white
    Gaussian noise with sigma * scale.
    """
    rot = quat_to_rotmat(x[Q])
    accel = rot.T @ (accel_world + GRAVITY * E3)
    gyro, rotor = x[OMEGA], x[ROTOR_W]
    s = noise.scale
    if s > 0.0:
        accel = accel + s * noise.accel_sigma * rng.standard_normal(3)
        gyro = gyro + s * noise.gyro_sigma * rng.standard_normal(3)
        rotor = rotor + s * noise.rotor_sigma * rng.standard_normal(6)
    return SensorReadings(accel=accel, gyro=gyro, rotor_w_meas=rotor)
