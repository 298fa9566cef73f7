"""Fixed-step truth simulator: rigid-body motion, motor lag, disturbances
and sensor synthesis.

Translational dynamics are integrated in the world frame, rotational
dynamics in the body frame.  Rotor speeds follow a first-order lag toward
the commanded setpoints, evaluated inside the RK4 stages.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import mat_t_vec, rotmat_rows
from .vehicle import GRAVITY

SIM_DT = 5e-4  # 2 kHz truth rate; divides all controller frequencies evenly


class NonFiniteState(Exception):
    """Simulation diverged: a state component became non-finite.

    step raises it bare; run_scenario raises it again with the time t at
    the start of the step that diverged, the scenario id, the seed and
    the last finite state vector.
    """

    def __init__(self, message="simulation state diverged", t=None,
                 scenario=None, seed=None, state=None):
        # every field goes into args, so the exception pickles
        super().__init__(message, t, scenario, seed, state)
        self.message, self.t, self.scenario, self.seed, self.state = (
            message, t, scenario, seed, state)

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


def _force_world(params, eff, q, u, dist_force):
    """World-frame force on the airframe: the rotor force F1 u rotated
    by R(q), gravity and the disturbance force.  Python floats in, a
    3-tuple out.  q need not have unit norm; inside the RK4 stages it
    does not."""
    qw, qx, qy, qz = q
    u1, u2, u3, u4, u5, u6 = u
    bx, by, bz = [a * u1 + b * u2 + c * u3 + d * u4 + e * u5 + f * u6
                  for a, b, c, d, e, f in eff.F1_rows]
    xx, yy, zz = qx * qx, qy * qy, qz * qz
    xy, xz, yz = qx * qy, qx * qz, qy * qz
    wx, wy, wz = qw * qx, qw * qy, qw * qz
    fx = ((1 - 2 * (yy + zz)) * bx + 2 * (xy - wz) * by
          + 2 * (xz + wy) * bz)
    fy = (2 * (xy + wz) * bx + (1 - 2 * (xx + zz)) * by
          + 2 * (yz - wx) * bz)
    fz = (2 * (xz - wy) * bx + 2 * (yz + wx) * by
          + (1 - 2 * (xx + yy)) * bz)
    return (fx + dist_force[0], fy + dist_force[1],
            fz - params.mass * GRAVITY + dist_force[2])


def derivative(x, params, eff, w_cmd, dist_force, dist_moment):
    """Time derivative of the state under the current rotor speeds.

    Force balance in world frame, moment balance in body frame, rotor
    speeds lagging toward w_cmd.  Works on Python floats: x is laid out
    as the state vector, w_cmd has 6 entries and each disturbance 3.
    Returns a list of 19 floats.
    """
    (_, _, _, vx, vy, vz, qw, qx, qy, qz, ox, oy, oz, *rotor_w) = x
    u = [w * abs(w) for w in rotor_w]
    u1, u2, u3, u4, u5, u6 = u
    m = params.mass
    fx, fy, fz = _force_world(params, eff, (qw, qx, qy, qz), u, dist_force)
    tx, ty, tz = [a * u1 + b * u2 + c * u3 + d * u4 + e * u5 + f * u6
                  for a, b, c, d, e, f in eff.F2_rows]
    jx, jy, jz = params.inertia_diag
    hx, hy, hz = jx * ox, jy * oy, jz * oz
    tau = params.motor_time_constant
    return [
        vx, vy, vz,
        fx / m, fy / m, fz / m,
        # q_dot = 0.5 q (x) (0, omega)
        0.5 * (-qx * ox - qy * oy - qz * oz),
        0.5 * (qw * ox + qy * oz - qz * oy),
        0.5 * (qw * oy - qx * oz + qz * ox),
        0.5 * (qw * oz + qx * oy - qy * ox),
        # J omega_dot = F2 u - omega x J omega + moment
        (tx - (oy * hz - oz * hy) + dist_moment[0]) / jx,
        (ty - (oz * hx - ox * hz) + dist_moment[1]) / jy,
        (tz - (ox * hy - oy * hx) + dist_moment[2]) / jz,
        *[(c - w) / tau for c, w in zip(w_cmd, rotor_w)],
    ]


def acceleration(x, params, eff, dist_force):
    """World-frame translational acceleration at state x, as a 3-tuple.
    x (laid out as the state vector) and dist_force are sequences of
    numbers; lists of Python floats are fastest."""
    u = [w * abs(w) for w in x[ROTOR_W]]
    fx, fy, fz = _force_world(params, eff, x[Q], u, dist_force)
    m = params.mass
    return fx / m, fy / m, fz / m


def step(x, params, eff, cmd, dist_force, dist_moment, dt):
    """One RK4 step; disturbance held constant over the step.

    Takes and returns a state vector and never writes into x.  The
    stages run over Python floats: on 19 numbers that costs a fraction
    of numpy's per-call overhead.  Raises NonFiniteState if any
    component diverges.
    """
    args = (params, eff, cmd.w_cmd.tolist(), dist_force.tolist(),
            dist_moment.tolist())
    s = x.tolist()
    h = 0.5 * dt
    k1 = derivative(s, *args)
    k2 = derivative([a + h * b for a, b in zip(s, k1)], *args)
    k3 = derivative([a + h * b for a, b in zip(s, k2)], *args)
    k4 = derivative([a + dt * b for a, b in zip(s, k3)], *args)
    c = dt / 6.0
    out = [a + c * (b1 + 2 * b2 + 2 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)]
    qw, qx, qy, qz = out[Q]
    norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    # a sum of floats is finite only if every term is (or it overflows,
    # which is divergence too)
    if not (norm > 0.0 and math.isfinite(sum(out))):
        raise NonFiniteState()
    out[Q] = qw / norm, qx / norm, qy / norm, qz / norm
    return np.array(out)


@dataclass(frozen=True)
class NoiseSpec:
    gyro_sigma: float = 0.02     # rad/s
    accel_sigma: float = 0.05    # m/s^2
    rotor_sigma: float = 1.0     # rad/s
    scale: float = 0.0           # experiment factor applied to all sigmas


@dataclass
class SensorReadings:
    accel: list          # specific force, body, m/s^2
    gyro: list           # rad/s, body
    rotor_w_meas: list   # rad/s


def synthesize_sensors(x, accel_world, noise, rng):
    """Sensor outputs at the truth state x (a sequence laid out as the
    state vector; a list of Python floats is fastest).

    accel is the specific force R(q)^T (p_ddot + g e3); gyro and rotor
    tachometers read the body rate and rotor speeds.  Per-channel white
    Gaussian noise with sigma * scale, drawn as 12 normals per call in
    the order accel, gyro, rotor.
    """
    ax, ay, az = accel_world
    accel = mat_t_vec(rotmat_rows(x[Q]), (ax, ay, az + GRAVITY))
    gyro, rotor = x[OMEGA], x[ROTOR_W]
    s = noise.scale
    if s > 0.0:
        draws = rng.standard_normal(12).tolist()
        sa, sg, sr = (s * noise.accel_sigma, s * noise.gyro_sigma,
                      s * noise.rotor_sigma)
        accel = [a + sa * d for a, d in zip(accel, draws[:3])]
        gyro = [g + sg * d for g, d in zip(gyro, draws[3:6])]
        rotor = [w + sr * d for w, d in zip(rotor, draws[6:])]
    return SensorReadings(accel=accel, gyro=gyro, rotor_w_meas=rotor)
