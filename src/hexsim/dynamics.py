"""Fixed-step truth simulator: rigid-body motion, motor lag, disturbances
and sensor synthesis.

Translational dynamics are integrated in the world frame, rotational
dynamics in the body frame.  Rotor speeds follow a first-order lag toward
the commanded setpoints, evaluated inside the RK4 stages.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import rotmat
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

    step(t) returns the total (world force, body moment), two 3-tuples
    of floats, held over the truth step starting at t: the spec's values
    inside [t_on, t_off), zero outside, plus the constant residual
    wrench.  A gust adds to the force an Ornstein-Uhlenbeck process (std
    gust_std, correlation time gust_corr_time) that advances on every
    call; every other held value is computed once.

    run_scenario steps it once before the loop and again at k = 0, and the
    accelerometer at a tick sees the previous step's draw.
    """

    def __init__(self, spec, dt, rng, residual_force=(0.0, 0.0, 0.0),
                 residual_moment=(0.0, 0.0, 0.0)):
        self.spec = spec
        self.rng = rng
        self._ou = (0.0, 0.0, 0.0)
        decay = np.exp(-dt / spec.gust_corr_time)
        self._decay = float(decay)
        self._diffusion = float(spec.gust_std * np.sqrt(1.0 - decay ** 2))
        self._force = np.asarray(spec.force, dtype=float).tolist()
        self._residual_force = np.asarray(residual_force, dtype=float).tolist()
        zero = np.zeros(3)
        self._off = (tuple((zero + residual_force).tolist()),
                     tuple((zero + residual_moment).tolist()))
        self._on = (tuple(((spec.force + zero) + residual_force).tolist()),
                    tuple((spec.moment + residual_moment).tolist()))

    def step(self, t):
        spec = self.spec
        if spec.kind != "gust":
            if spec.kind == "none" or not spec.t_on <= t < spec.t_off:
                return self._off
            return self._on
        a, s = self._decay, self._diffusion
        n1, n2, n3 = self.rng.standard_normal(3).tolist()
        o1, o2, o3 = self._ou
        o1, o2, o3 = a * o1 + s * n1, a * o2 + s * n2, a * o3 + s * n3
        self._ou = o1, o2, o3
        if not spec.t_on <= t < spec.t_off:
            return self._off
        f1, f2, f3 = self._force
        r1, r2, r3 = self._residual_force
        return ((f1 + o1) + r1, (f2 + o2) + r2, (f3 + o3) + r3), self._on[1]


def make_step(params, eff):
    """The truth dynamics of one platform, specialised once: returns the
    pair (rates, step), with every constant of (params, eff) bound as a
    closure local.  Both work on Python floats.

    rates(qw, qx, qy, qz, ox, oy, oz, w1, ..., w6, inputs) takes the
    state scalars it reads and the 12-tuple inputs (w_cmd, the world
    force dist_force, the body moment dist_moment).  It returns the
    rates of v, q, omega and the rotor speeds as a 16-tuple: force
    balance in world frame, moment balance in body frame, rotor speeds
    lagging toward w_cmd.  q need not have unit norm; inside the RK4
    stages it does not.

    step(s, w_cmd, dist_force, dist_moment, dt) is one RK4 step from s
    with the disturbance held, over local floats, one rates call per
    stage; no stage position is formed, as its rate is the stage
    velocity.  It returns the new state as a list with the quaternion
    normalised, and raises NonFiniteState if any component diverges.
    """
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
        xx, yy, zz = qx * qx, qy * qy, qz * qz
        xy, xz, yz = qx * qy, qx * qz, qy * qz
        wx, wy, wz = qw * qx, qw * qy, qw * qz
        fx = ((1 - 2 * (yy + zz)) * bx + 2 * (xy - wz) * by
              + 2 * (xz + wy) * bz) + dfx
        fy = (2 * (xy + wz) * bx + (1 - 2 * (xx + zz)) * by
              + 2 * (yz - wx) * bz) + dfy
        fz = (2 * (xz - wy) * bx + 2 * (yz + wx) * by
              + (1 - 2 * (xx + yy)) * bz) - weight + dfz
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

    def step(s, w_cmd, dist_force, dist_moment, dt):
        (px, py, pz, vx, vy, vz, qw, qx, qy, qz, ox, oy, oz,
         w1, w2, w3, w4, w5, w6) = s
        inputs = (*w_cmd, *dist_force, *dist_moment)
        h = 0.5 * dt
        (dvxa, dvya, dvza, dqwa, dqxa, dqya, dqza, doxa, doya, doza,
         dr1a, dr2a, dr3a, dr4a, dr5a, dr6a) = rates(
            qw, qx, qy, qz, ox, oy, oz, w1, w2, w3, w4, w5, w6, inputs)
        vxb, vyb, vzb = vx + h * dvxa, vy + h * dvya, vz + h * dvza
        (dvxb, dvyb, dvzb, dqwb, dqxb, dqyb, dqzb, doxb, doyb, dozb,
         dr1b, dr2b, dr3b, dr4b, dr5b, dr6b) = rates(
            qw + h * dqwa, qx + h * dqxa, qy + h * dqya, qz + h * dqza,
            ox + h * doxa, oy + h * doya, oz + h * doza, w1 + h * dr1a,
            w2 + h * dr2a, w3 + h * dr3a, w4 + h * dr4a, w5 + h * dr5a,
            w6 + h * dr6a, inputs)
        vxc, vyc, vzc = vx + h * dvxb, vy + h * dvyb, vz + h * dvzb
        (dvxc, dvyc, dvzc, dqwc, dqxc, dqyc, dqzc, doxc, doyc, dozc,
         dr1c, dr2c, dr3c, dr4c, dr5c, dr6c) = rates(
            qw + h * dqwb, qx + h * dqxb, qy + h * dqyb, qz + h * dqzb,
            ox + h * doxb, oy + h * doyb, oz + h * dozb, w1 + h * dr1b,
            w2 + h * dr2b, w3 + h * dr3b, w4 + h * dr4b, w5 + h * dr5b,
            w6 + h * dr6b, inputs)
        vxd, vyd, vzd = vx + dt * dvxc, vy + dt * dvyc, vz + dt * dvzc
        (dvxd, dvyd, dvzd, dqwd, dqxd, dqyd, dqzd, doxd, doyd, dozd,
         dr1d, dr2d, dr3d, dr4d, dr5d, dr6d) = rates(
            qw + dt * dqwc, qx + dt * dqxc, qy + dt * dqyc, qz + dt * dqzc,
            ox + dt * doxc, oy + dt * doyc, oz + dt * dozc, w1 + dt * dr1c,
            w2 + dt * dr2c, w3 + dt * dr3c, w4 + dt * dr4c, w5 + dt * dr5c,
            w6 + dt * dr6c, inputs)
        c = dt / 6.0
        out = [px + c * (vx + 2 * vxb + 2 * vxc + vxd),
               py + c * (vy + 2 * vyb + 2 * vyc + vyd),
               pz + c * (vz + 2 * vzb + 2 * vzc + vzd),
               vx + c * (dvxa + 2 * dvxb + 2 * dvxc + dvxd),
               vy + c * (dvya + 2 * dvyb + 2 * dvyc + dvyd),
               vz + c * (dvza + 2 * dvzb + 2 * dvzc + dvzd),
               qw + c * (dqwa + 2 * dqwb + 2 * dqwc + dqwd),
               qx + c * (dqxa + 2 * dqxb + 2 * dqxc + dqxd),
               qy + c * (dqya + 2 * dqyb + 2 * dqyc + dqyd),
               qz + c * (dqza + 2 * dqzb + 2 * dqzc + dqzd),
               ox + c * (doxa + 2 * doxb + 2 * doxc + doxd),
               oy + c * (doya + 2 * doyb + 2 * doyc + doyd),
               oz + c * (doza + 2 * dozb + 2 * dozc + dozd),
               w1 + c * (dr1a + 2 * dr1b + 2 * dr1c + dr1d),
               w2 + c * (dr2a + 2 * dr2b + 2 * dr2c + dr2d),
               w3 + c * (dr3a + 2 * dr3b + 2 * dr3c + dr3d),
               w4 + c * (dr4a + 2 * dr4b + 2 * dr4c + dr4d),
               w5 + c * (dr5a + 2 * dr5b + 2 * dr5c + dr5d),
               w6 + c * (dr6a + 2 * dr6b + 2 * dr6c + dr6d)]
        qw, qx, qy, qz = out[Q]
        norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        # a sum of floats is finite only if every term is (or it
        # overflows, which is divergence too)
        if not (norm > 0.0 and math.isfinite(sum(out))):
            raise NonFiniteState()
        out[Q] = qw / norm, qx / norm, qy / norm, qz / norm
        return out

    return rates, step


# (params, eff, make_step(params, eff)) of the last pair stepped.  Keyed
# on identity; holding both objects keeps their ids from being reused.
_kernel = (None, None, None)


def _kernel_of(params, eff):
    """make_step(params, eff), built once per run: on the first call for
    the pair and kept until a call for another pair."""
    global _kernel
    cached_params, cached_eff, kernel = _kernel
    if cached_params is not params or cached_eff is not eff:
        kernel = make_step(params, eff)
        _kernel = (params, eff, kernel)
    return kernel


# what acceleration passes for the rotor command, whose rates it drops
_IDLE = (0.0,) * 6


def derivative(x, params, eff, w_cmd, dist_force, dist_moment):
    """Time derivative of the state x under its rotor speeds, as a list of
    19 floats: the velocity, then the rates of make_step(params, eff).
    Works on Python floats: x is laid out as the state vector, w_cmd has
    6 entries and each disturbance 3."""
    rates, _ = _kernel_of(params, eff)
    return [*x[V], *rates(*x[Q.start:],
                          (*w_cmd, *dist_force, *dist_moment))]


def acceleration(x, params, eff, dist_force):
    """World-frame translational acceleration at state x, as a list of 3
    floats: the velocity rates of make_step(params, eff).  x (laid out as
    the state vector) and dist_force are sequences of numbers; lists of
    Python floats are fastest."""
    rates, _ = _kernel_of(params, eff)
    return [*rates(*x[Q.start:], (*_IDLE, *dist_force, 0.0, 0.0, 0.0))[:3]]


def step(x, params, eff, cmd, dist_force, dist_moment, dt):
    """One RK4 step; disturbance held constant over the step.

    x is a sequence laid out as the state vector, cmd.w_cmd has 6
    entries and each disturbance 3; lists and tuples of Python floats
    are fastest.  Returns the new state as a list of 19 floats and never
    writes into x.  The stages run in the kernel of make_step(params,
    eff).  Raises NonFiniteState if any component diverges.
    """
    _, kernel_step = _kernel_of(params, eff)
    return kernel_step(x, cmd.w_cmd, dist_force, dist_moment, dt)


GYRO_SIGMA = 0.02    # rad/s, gyro white noise at noise scale 1
ACCEL_SIGMA = 0.05   # m/s^2, accelerometer white noise at noise scale 1


def synthesize_sensors(x, accel_world, scale, rng):
    """Sensor outputs (accel, gyro, rotor_w_meas) at the truth state x (a
    sequence laid out as the state vector; a list of Python floats is
    fastest).

    accel is the specific force R(q)^T (p_ddot + g e3); gyro and the
    rotor tachometers read the body rate and the rotor speeds.  For
    scale > 0 the accel and gyro channels add white Gaussian noise with
    sigma ACCEL_SIGMA * scale and GYRO_SIGMA * scale; the tachometers
    stay noise-free.
    """
    ax, ay, az = accel_world
    az = az + GRAVITY
    a, b, c, d, e, f, g, h, i = rotmat(x[Q])
    accel = [a * ax + d * ay + g * az, b * ax + e * ay + h * az,
             c * ax + f * ay + i * az]
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
