"""Fixed-step truth simulator: rigid-body motion, motor lag, disturbances
and sensor synthesis.

Translational dynamics are integrated in the world frame, rotational
dynamics in the body frame.  Rotor speeds follow a first-order lag toward
the commanded setpoints, evaluated inside the RK4 stages.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .vehicle import GRAVITY

SIM_DT = 5e-4  # 2 kHz truth rate; divides all controller frequencies evenly
CHUNK = 384    # normals a Normals tape draws at a time


class NonFiniteState(Exception):
    """Simulation diverged: a state component became non-finite.

    step raises it with the offset of the diverging truth step within its
    call and the last finite state; run_scenario raises it again with the
    time t at the start of that step, the scenario id, the seed and the
    last finite state vector.
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


class Normals:
    """A run's tape of standard normals, read from one Generator in order.

    take(n) returns the next n normals as a list of floats, equal bit for
    bit to rng.standard_normal(n).tolist() at the same point of the
    stream: the tape draws CHUNK normals at a time, so the generator runs
    ahead of what has been taken.  run_scenario shares one tape between
    the gust and the sensor noise, in the order they draw.
    """

    def __init__(self, rng):
        self.rng = rng
        self._tape = []
        self._at = 0

    def take(self, n):
        at, tape = self._at, self._tape
        end = at + n
        if end > len(tape):
            tape = self._tape = (
                tape[at:] + self.rng.standard_normal(max(CHUNK, n)).tolist())
            at, end = 0, n
        self._at = end
        return tape[at:end]


class DisturbanceSampler:
    """Per-run disturbance source; holds the colored-noise gust state.

    step(k, n) returns the wrenches held over the truth steps k ... k+n-1
    (each starting at t = k dt), as a list of n 6-tuples of floats
    (world force fx, fy, fz, body moment mx, my, mz): the spec's values
    inside [t_on, t_off), zero outside, plus the constant residual
    wrench.  A gust adds to the force an Ornstein-Uhlenbeck process (std
    gust_std, correlation time gust_corr_time) that advances on every
    truth step, with 3 normals a step from the Normals tape `normals`,
    taken in one take(3 n); every other held value is computed once.

    run_scenario steps it over step 0 once before the loop, then over
    each tick's steps, and the accelerometer at a tick sees the force of
    the previous step's draw.
    """

    def __init__(self, spec, dt, normals, residual_force=(0.0, 0.0, 0.0),
                 residual_moment=(0.0, 0.0, 0.0)):
        self.spec = spec
        self.dt = dt
        self.normals = normals
        self._ou = (0.0, 0.0, 0.0)
        decay = np.exp(-dt / spec.gust_corr_time)
        self._decay = float(decay)
        self._diffusion = float(spec.gust_std * np.sqrt(1.0 - decay ** 2))
        self._force = np.asarray(spec.force, dtype=float).tolist()
        self._residual_force = np.asarray(residual_force, dtype=float).tolist()
        zero = np.zeros(3)
        self._off = (*(zero + residual_force).tolist(),
                     *(zero + residual_moment).tolist())
        self._on = (*((spec.force + zero) + residual_force).tolist(),
                    *(spec.moment + residual_moment).tolist())

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
        f1, f2, f3 = self._force
        r1, r2, r3 = self._residual_force
        _, _, _, m1, m2, m3 = self._on
        draws = iter(self.normals.take(3 * n))
        wrenches = []
        for j, n1, n2, n3 in zip(range(k, k + n), draws, draws, draws):
            o1, o2, o3 = a * o1 + s * n1, a * o2 + s * n2, a * o3 + s * n3
            wrenches.append(
                ((f1 + o1) + r1, (f2 + o2) + r2, (f3 + o3) + r3, m1, m2, m3)
                if t_on <= j * dt < t_off else off)
        self._ou = o1, o2, o3
        return wrenches


class Kernel(NamedTuple):
    rates: Callable
    step: Callable
    specific_force: Callable


def make_step(params, eff):
    """The truth dynamics of one platform, specialised once: returns the
    Kernel (rates, step, specific_force), with every constant of (params,
    eff) bound as a closure local.  All three work on Python floats, and
    their constants are float literals (2.0, not 2): the same values, but
    CPython takes its slower mixed-type path for an int operand.
    run_scenario builds one per run and passes it to step and
    synthesize_sensors.

    rates(qw, qx, qy, qz, ox, oy, oz, w1, ..., w6, inputs) takes the
    state scalars it reads and the 12-tuple inputs (w_cmd, the world
    force dist_force, the body moment dist_moment).  It returns the
    rates of v, q, omega and the rotor speeds as a 16-tuple: force
    balance in world frame, moment balance in body frame, rotor speeds
    lagging toward w_cmd.  q need not have unit norm; inside the RK4
    stages it does not.  The closed loop does not call it; derivative and
    acceleration read it.

    step(s, w_cmd, wrenches, dt) runs len(wrenches) RK4 steps from s
    under the rotor command w_cmd, each with its wrench (fx, fy, fz, mx,
    my, mz: world force, body moment) held, over 19 local floats.  The
    four stages are written out inline, each with the expressions of
    rates in their order; no stage position is formed, as its rate is
    the stage velocity.  After every step the quaternion is normalised
    and the state checked.  It returns the new state as a list, and if
    a component diverges it raises NonFiniteState with the offset of
    that step within the call and the state it started from.

    specific_force(s, dist_force) is what an accelerometer at state s
    reads, R(q)^T (p_ddot + g e3) in the body frame, as a list of 3
    floats: the force balance of rates alone (the rotor command and the
    moment play no part in it), with the same expressions, rotated back
    by the R(q) it formed.
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
        fx = ((1.0 - 2.0 * (yy + zz)) * bx + 2.0 * (xy - wz) * by
              + 2.0 * (xz + wy) * bz) + dfx
        fy = (2.0 * (xy + wz) * bx + (1.0 - 2.0 * (xx + zz)) * by
              + 2.0 * (yz - wx) * bz) + dfy
        fz = (2.0 * (xz - wy) * bx + 2.0 * (yz + wx) * by
              + (1.0 - 2.0 * (xx + yy)) * bz) - weight + dfz
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

    def step(s, w_cmd, wrenches, dt):
        (px, py, pz, vx, vy, vz, qw, qx, qy, qz, ox, oy, oz,
         w1, w2, w3, w4, w5, w6) = s
        c1, c2, c3, c4, c5, c6 = w_cmd
        h, c = 0.5 * dt, dt / 6.0
        for i, (dfx, dfy, dfz, dmx, dmy, dmz) in enumerate(wrenches):
            # stage a: the rates at the state
            u1, u2, u3 = w1 * abs(w1), w2 * abs(w2), w3 * abs(w3)
            u4, u5, u6 = w4 * abs(w4), w5 * abs(w5), w6 * abs(w6)
            bx = (fx1 * u1 + fx2 * u2 + fx3 * u3
                  + fx4 * u4 + fx5 * u5 + fx6 * u6)
            by = (fy1 * u1 + fy2 * u2 + fy3 * u3
                  + fy4 * u4 + fy5 * u5 + fy6 * u6)
            bz = (fz1 * u1 + fz2 * u2 + fz3 * u3
                  + fz4 * u4 + fz5 * u5 + fz6 * u6)
            xx, yy, zz = qx * qx, qy * qy, qz * qz
            xy, xz, yz = qx * qy, qx * qz, qy * qz
            wx, wy, wz = qw * qx, qw * qy, qw * qz
            dvxa = ((1.0 - 2.0 * (yy + zz)) * bx + 2.0 * (xy - wz) * by
                    + 2.0 * (xz + wy) * bz + dfx) / m
            dvya = (2.0 * (xy + wz) * bx + (1.0 - 2.0 * (xx + zz)) * by
                    + 2.0 * (yz - wx) * bz + dfy) / m
            dvza = (2.0 * (xz - wy) * bx + 2.0 * (yz + wx) * by
                    + (1.0 - 2.0 * (xx + yy)) * bz - weight + dfz) / m
            dqwa = 0.5 * (-qx * ox - qy * oy - qz * oz)
            dqxa = 0.5 * (qw * ox + qy * oz - qz * oy)
            dqya = 0.5 * (qw * oy - qx * oz + qz * ox)
            dqza = 0.5 * (qw * oz + qx * oy - qy * ox)
            tx = (mx1 * u1 + mx2 * u2 + mx3 * u3
                  + mx4 * u4 + mx5 * u5 + mx6 * u6)
            ty = (my1 * u1 + my2 * u2 + my3 * u3
                  + my4 * u4 + my5 * u5 + my6 * u6)
            tz = (mz1 * u1 + mz2 * u2 + mz3 * u3
                  + mz4 * u4 + mz5 * u5 + mz6 * u6)
            hx, hy, hz = jx * ox, jy * oy, jz * oz
            doxa = (tx - (oy * hz - oz * hy) + dmx) / jx
            doya = (ty - (oz * hx - ox * hz) + dmy) / jy
            doza = (tz - (ox * hy - oy * hx) + dmz) / jz
            dr1a, dr2a, dr3a = ((c1 - w1) / tau, (c2 - w2) / tau,
                               (c3 - w3) / tau)
            dr4a, dr5a, dr6a = ((c4 - w4) / tau, (c5 - w5) / tau,
                               (c6 - w6) / tau)
            # stage b: at the state plus h times stage a's rates
            qwb, qxb, qyb, qzb = (qw + h * dqwa, qx + h * dqxa,
                                  qy + h * dqya, qz + h * dqza)
            oxb, oyb, ozb = ox + h * doxa, oy + h * doya, oz + h * doza
            w1b, w2b, w3b = w1 + h * dr1a, w2 + h * dr2a, w3 + h * dr3a
            w4b, w5b, w6b = w4 + h * dr4a, w5 + h * dr5a, w6 + h * dr6a
            u1, u2, u3 = w1b * abs(w1b), w2b * abs(w2b), w3b * abs(w3b)
            u4, u5, u6 = w4b * abs(w4b), w5b * abs(w5b), w6b * abs(w6b)
            bx = (fx1 * u1 + fx2 * u2 + fx3 * u3
                  + fx4 * u4 + fx5 * u5 + fx6 * u6)
            by = (fy1 * u1 + fy2 * u2 + fy3 * u3
                  + fy4 * u4 + fy5 * u5 + fy6 * u6)
            bz = (fz1 * u1 + fz2 * u2 + fz3 * u3
                  + fz4 * u4 + fz5 * u5 + fz6 * u6)
            xx, yy, zz = qxb * qxb, qyb * qyb, qzb * qzb
            xy, xz, yz = qxb * qyb, qxb * qzb, qyb * qzb
            wx, wy, wz = qwb * qxb, qwb * qyb, qwb * qzb
            dvxb = ((1.0 - 2.0 * (yy + zz)) * bx + 2.0 * (xy - wz) * by
                    + 2.0 * (xz + wy) * bz + dfx) / m
            dvyb = (2.0 * (xy + wz) * bx + (1.0 - 2.0 * (xx + zz)) * by
                    + 2.0 * (yz - wx) * bz + dfy) / m
            dvzb = (2.0 * (xz - wy) * bx + 2.0 * (yz + wx) * by
                    + (1.0 - 2.0 * (xx + yy)) * bz - weight + dfz) / m
            dqwb = 0.5 * (-qxb * oxb - qyb * oyb - qzb * ozb)
            dqxb = 0.5 * (qwb * oxb + qyb * ozb - qzb * oyb)
            dqyb = 0.5 * (qwb * oyb - qxb * ozb + qzb * oxb)
            dqzb = 0.5 * (qwb * ozb + qxb * oyb - qyb * oxb)
            tx = (mx1 * u1 + mx2 * u2 + mx3 * u3
                  + mx4 * u4 + mx5 * u5 + mx6 * u6)
            ty = (my1 * u1 + my2 * u2 + my3 * u3
                  + my4 * u4 + my5 * u5 + my6 * u6)
            tz = (mz1 * u1 + mz2 * u2 + mz3 * u3
                  + mz4 * u4 + mz5 * u5 + mz6 * u6)
            hx, hy, hz = jx * oxb, jy * oyb, jz * ozb
            doxb = (tx - (oyb * hz - ozb * hy) + dmx) / jx
            doyb = (ty - (ozb * hx - oxb * hz) + dmy) / jy
            dozb = (tz - (oxb * hy - oyb * hx) + dmz) / jz
            dr1b, dr2b, dr3b = ((c1 - w1b) / tau, (c2 - w2b) / tau,
                               (c3 - w3b) / tau)
            dr4b, dr5b, dr6b = ((c4 - w4b) / tau, (c5 - w5b) / tau,
                               (c6 - w6b) / tau)
            vxb, vyb, vzb = vx + h * dvxa, vy + h * dvya, vz + h * dvza
            # stage c: at the state plus h times stage b's rates
            qwc, qxc, qyc, qzc = (qw + h * dqwb, qx + h * dqxb,
                                  qy + h * dqyb, qz + h * dqzb)
            oxc, oyc, ozc = ox + h * doxb, oy + h * doyb, oz + h * dozb
            w1c, w2c, w3c = w1 + h * dr1b, w2 + h * dr2b, w3 + h * dr3b
            w4c, w5c, w6c = w4 + h * dr4b, w5 + h * dr5b, w6 + h * dr6b
            u1, u2, u3 = w1c * abs(w1c), w2c * abs(w2c), w3c * abs(w3c)
            u4, u5, u6 = w4c * abs(w4c), w5c * abs(w5c), w6c * abs(w6c)
            bx = (fx1 * u1 + fx2 * u2 + fx3 * u3
                  + fx4 * u4 + fx5 * u5 + fx6 * u6)
            by = (fy1 * u1 + fy2 * u2 + fy3 * u3
                  + fy4 * u4 + fy5 * u5 + fy6 * u6)
            bz = (fz1 * u1 + fz2 * u2 + fz3 * u3
                  + fz4 * u4 + fz5 * u5 + fz6 * u6)
            xx, yy, zz = qxc * qxc, qyc * qyc, qzc * qzc
            xy, xz, yz = qxc * qyc, qxc * qzc, qyc * qzc
            wx, wy, wz = qwc * qxc, qwc * qyc, qwc * qzc
            dvxc = ((1.0 - 2.0 * (yy + zz)) * bx + 2.0 * (xy - wz) * by
                    + 2.0 * (xz + wy) * bz + dfx) / m
            dvyc = (2.0 * (xy + wz) * bx + (1.0 - 2.0 * (xx + zz)) * by
                    + 2.0 * (yz - wx) * bz + dfy) / m
            dvzc = (2.0 * (xz - wy) * bx + 2.0 * (yz + wx) * by
                    + (1.0 - 2.0 * (xx + yy)) * bz - weight + dfz) / m
            dqwc = 0.5 * (-qxc * oxc - qyc * oyc - qzc * ozc)
            dqxc = 0.5 * (qwc * oxc + qyc * ozc - qzc * oyc)
            dqyc = 0.5 * (qwc * oyc - qxc * ozc + qzc * oxc)
            dqzc = 0.5 * (qwc * ozc + qxc * oyc - qyc * oxc)
            tx = (mx1 * u1 + mx2 * u2 + mx3 * u3
                  + mx4 * u4 + mx5 * u5 + mx6 * u6)
            ty = (my1 * u1 + my2 * u2 + my3 * u3
                  + my4 * u4 + my5 * u5 + my6 * u6)
            tz = (mz1 * u1 + mz2 * u2 + mz3 * u3
                  + mz4 * u4 + mz5 * u5 + mz6 * u6)
            hx, hy, hz = jx * oxc, jy * oyc, jz * ozc
            doxc = (tx - (oyc * hz - ozc * hy) + dmx) / jx
            doyc = (ty - (ozc * hx - oxc * hz) + dmy) / jy
            dozc = (tz - (oxc * hy - oyc * hx) + dmz) / jz
            dr1c, dr2c, dr3c = ((c1 - w1c) / tau, (c2 - w2c) / tau,
                               (c3 - w3c) / tau)
            dr4c, dr5c, dr6c = ((c4 - w4c) / tau, (c5 - w5c) / tau,
                               (c6 - w6c) / tau)
            vxc, vyc, vzc = vx + h * dvxb, vy + h * dvyb, vz + h * dvzb
            # stage d: at the state plus dt times stage c's rates
            qwd, qxd, qyd, qzd = (qw + dt * dqwc, qx + dt * dqxc,
                                  qy + dt * dqyc, qz + dt * dqzc)
            oxd, oyd, ozd = ox + dt * doxc, oy + dt * doyc, oz + dt * dozc
            w1d, w2d, w3d = w1 + dt * dr1c, w2 + dt * dr2c, w3 + dt * dr3c
            w4d, w5d, w6d = w4 + dt * dr4c, w5 + dt * dr5c, w6 + dt * dr6c
            u1, u2, u3 = w1d * abs(w1d), w2d * abs(w2d), w3d * abs(w3d)
            u4, u5, u6 = w4d * abs(w4d), w5d * abs(w5d), w6d * abs(w6d)
            bx = (fx1 * u1 + fx2 * u2 + fx3 * u3
                  + fx4 * u4 + fx5 * u5 + fx6 * u6)
            by = (fy1 * u1 + fy2 * u2 + fy3 * u3
                  + fy4 * u4 + fy5 * u5 + fy6 * u6)
            bz = (fz1 * u1 + fz2 * u2 + fz3 * u3
                  + fz4 * u4 + fz5 * u5 + fz6 * u6)
            xx, yy, zz = qxd * qxd, qyd * qyd, qzd * qzd
            xy, xz, yz = qxd * qyd, qxd * qzd, qyd * qzd
            wx, wy, wz = qwd * qxd, qwd * qyd, qwd * qzd
            dvxd = ((1.0 - 2.0 * (yy + zz)) * bx + 2.0 * (xy - wz) * by
                    + 2.0 * (xz + wy) * bz + dfx) / m
            dvyd = (2.0 * (xy + wz) * bx + (1.0 - 2.0 * (xx + zz)) * by
                    + 2.0 * (yz - wx) * bz + dfy) / m
            dvzd = (2.0 * (xz - wy) * bx + 2.0 * (yz + wx) * by
                    + (1.0 - 2.0 * (xx + yy)) * bz - weight + dfz) / m
            dqwd = 0.5 * (-qxd * oxd - qyd * oyd - qzd * ozd)
            dqxd = 0.5 * (qwd * oxd + qyd * ozd - qzd * oyd)
            dqyd = 0.5 * (qwd * oyd - qxd * ozd + qzd * oxd)
            dqzd = 0.5 * (qwd * ozd + qxd * oyd - qyd * oxd)
            tx = (mx1 * u1 + mx2 * u2 + mx3 * u3
                  + mx4 * u4 + mx5 * u5 + mx6 * u6)
            ty = (my1 * u1 + my2 * u2 + my3 * u3
                  + my4 * u4 + my5 * u5 + my6 * u6)
            tz = (mz1 * u1 + mz2 * u2 + mz3 * u3
                  + mz4 * u4 + mz5 * u5 + mz6 * u6)
            hx, hy, hz = jx * oxd, jy * oyd, jz * ozd
            doxd = (tx - (oyd * hz - ozd * hy) + dmx) / jx
            doyd = (ty - (ozd * hx - oxd * hz) + dmy) / jy
            dozd = (tz - (oxd * hy - oyd * hx) + dmz) / jz
            dr1d, dr2d, dr3d = ((c1 - w1d) / tau, (c2 - w2d) / tau,
                               (c3 - w3d) / tau)
            dr4d, dr5d, dr6d = ((c4 - w4d) / tau, (c5 - w5d) / tau,
                               (c6 - w6d) / tau)
            vxd, vyd, vzd = vx + dt * dvxc, vy + dt * dvyc, vz + dt * dvzc
            nw = qw + c * (dqwa + 2.0 * dqwb + 2.0 * dqwc + dqwd)
            nx = qx + c * (dqxa + 2.0 * dqxb + 2.0 * dqxc + dqxd)
            ny = qy + c * (dqya + 2.0 * dqyb + 2.0 * dqyc + dqyd)
            nz = qz + c * (dqza + 2.0 * dqzb + 2.0 * dqzc + dqzd)
            out = (px + c * (vx + 2.0 * vxb + 2.0 * vxc + vxd),
                   py + c * (vy + 2.0 * vyb + 2.0 * vyc + vyd),
                   pz + c * (vz + 2.0 * vzb + 2.0 * vzc + vzd),
                   vx + c * (dvxa + 2.0 * dvxb + 2.0 * dvxc + dvxd),
                   vy + c * (dvya + 2.0 * dvyb + 2.0 * dvyc + dvyd),
                   vz + c * (dvza + 2.0 * dvzb + 2.0 * dvzc + dvzd),
                   nw, nx, ny, nz,
                   ox + c * (doxa + 2.0 * doxb + 2.0 * doxc + doxd),
                   oy + c * (doya + 2.0 * doyb + 2.0 * doyc + doyd),
                   oz + c * (doza + 2.0 * dozb + 2.0 * dozc + dozd),
                   w1 + c * (dr1a + 2.0 * dr1b + 2.0 * dr1c + dr1d),
                   w2 + c * (dr2a + 2.0 * dr2b + 2.0 * dr2c + dr2d),
                   w3 + c * (dr3a + 2.0 * dr3b + 2.0 * dr3c + dr3d),
                   w4 + c * (dr4a + 2.0 * dr4b + 2.0 * dr4c + dr4d),
                   w5 + c * (dr5a + 2.0 * dr5b + 2.0 * dr5c + dr5d),
                   w6 + c * (dr6a + 2.0 * dr6b + 2.0 * dr6c + dr6d))
            norm = math.sqrt(nw * nw + nx * nx + ny * ny + nz * nz)
            # a sum of floats is finite only if every term is (or it
            # overflows, which is divergence too)
            if not (norm > 0.0 and math.isfinite(sum(out))):
                raise NonFiniteState(
                    state=[px, py, pz, vx, vy, vz, qw, qx, qy, qz, ox, oy,
                           oz, w1, w2, w3, w4, w5, w6], offset=i)
            (px, py, pz, vx, vy, vz, _, _, _, _, ox, oy, oz,
             w1, w2, w3, w4, w5, w6) = out
            qw, qx, qy, qz = nw / norm, nx / norm, ny / norm, nz / norm
        return [px, py, pz, vx, vy, vz, qw, qx, qy, qz, ox, oy, oz,
                w1, w2, w3, w4, w5, w6]

    def specific_force(s, dist_force):
        (_, _, _, _, _, _, qw, qx, qy, qz, _, _, _,
         w1, w2, w3, w4, w5, w6) = s
        dfx, dfy, dfz = dist_force
        u1, u2, u3 = w1 * abs(w1), w2 * abs(w2), w3 * abs(w3)
        u4, u5, u6 = w4 * abs(w4), w5 * abs(w5), w6 * abs(w6)
        bx = fx1 * u1 + fx2 * u2 + fx3 * u3 + fx4 * u4 + fx5 * u5 + fx6 * u6
        by = fy1 * u1 + fy2 * u2 + fy3 * u3 + fy4 * u4 + fy5 * u5 + fy6 * u6
        bz = fz1 * u1 + fz2 * u2 + fz3 * u3 + fz4 * u4 + fz5 * u5 + fz6 * u6
        xx, yy, zz = qx * qx, qy * qy, qz * qz
        xy, xz, yz = qx * qy, qx * qz, qy * qz
        wx, wy, wz = qw * qx, qw * qy, qw * qz
        r00, r01, r02 = 1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)
        r10, r11, r12 = 2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)
        r20, r21, r22 = 2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)
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
    Python floats are fastest.  The closed loop does not call it: the
    accelerometer reads the kernel's specific_force."""
    return [*kernel.rates(*x[Q.start:],
                          (*_IDLE, *dist_force, 0.0, 0.0, 0.0))[:3]]


def step(x, kernel, cmd, wrenches, dt):
    """len(wrenches) RK4 steps of dt under the rotor command cmd.w_cmd,
    each with its wrench (world force, body moment; 6 numbers) held.

    x is a sequence laid out as the state vector and cmd.w_cmd has 6
    entries; lists and tuples of Python floats are fastest.  Returns the
    new state as a list of 19 floats and never writes into x.  The steps
    run in the Kernel `kernel`.  Raises NonFiniteState, with the offset
    of the diverging step and the last finite state, if any component
    diverges.
    """
    return kernel.step(x, cmd.w_cmd, wrenches, dt)


GYRO_SIGMA = 0.02    # rad/s, gyro white noise at noise scale 1
ACCEL_SIGMA = 0.05   # m/s^2, accelerometer white noise at noise scale 1


def synthesize_sensors(x, kernel, dist_force, scale, normals):
    """Sensor outputs (accel, gyro, rotor_w_meas) at the truth state x (a
    sequence laid out as the state vector; a list of Python floats is
    fastest) under the world force dist_force.

    accel is the specific force R(q)^T (p_ddot + g e3), from the
    specific_force of the Kernel `kernel`; gyro and the rotor
    tachometers read the body rate and the rotor speeds.  For scale > 0
    the accel and gyro channels add white Gaussian noise with sigma
    ACCEL_SIGMA * scale and GYRO_SIGMA * scale, from the Normals tape
    `normals`; the tachometers stay noise-free.
    """
    accel = kernel.specific_force(x, dist_force)
    gyro = x[OMEGA]
    if scale > 0.0:
        # 12 normals a call, in the order accel, gyro, rotor.  The six
        # rotor draws go unused; taking them keeps every later draw of
        # the shared stream (the next ticks' noise and the gust) equal to
        # the stored references'
        n1, n2, n3, n4, n5, n6 = normals.take(12)[:6]
        sa, sg = scale * ACCEL_SIGMA, scale * GYRO_SIGMA
        (a1, a2, a3), (g1, g2, g3) = accel, gyro
        accel = [a1 + sa * n1, a2 + sa * n2, a3 + sa * n3]
        gyro = [g1 + sg * n4, g2 + sg * n5, g3 + sg * n6]
    return accel, gyro, x[ROTOR_W]
