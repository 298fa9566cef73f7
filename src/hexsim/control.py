"""Full-pose controllers: shared outer loop plus two inversion back-ends.

Both controllers consume the same shaped reference and the same error
dynamics (position/velocity PD in the world frame, quaternion attitude
error and body-rate damping), whose pseudo control (v_p, v_att) is the
commanded acceleration, world, and angular acceleration, body.  They
differ only in the inversion that turns it into a wrench:

  * ndi_invert (GeoNdiController) inverts the on-board model: mass,
    inertia, gravity and the gyroscopic term.
  * indi_invert (IndiController) puts filtered measurements of specific
    force and angular acceleration in place of the model terms; its
    wrench is an increment on the measured rotor state.

Both controllers tick through one function.  It passes the two
array('d') that warm_start lays out, the constants (whose length tells
the controllers apart) and state, and the same inputs to _truth.c's
tick, a bit-for-bit port of these layers expression by expression; the
Python layers stay as its readable reference.
"""

import math
from array import array
from dataclasses import dataclass, replace

from .filters import SecondOrderFilter, check_positive
from .geometry import quat_from_rpy, rotmat, rpy_from_quat
from .vehicle import GRAVITY, ActuatorCommand
# perfbench's tests read vehicle.allocate through this module too
from .vehicle import allocate  # noqa: F401

# INDI feedback filter defaults
FILTER_CUTOFF_HZ = 15.0
FILTER_DAMPING = 0.7


@dataclass(frozen=True)
class Gains:
    """Diagonal outer-loop gains, identical for both controllers."""
    k_p: float = 6.0     # 1/s^2
    k_v: float = 4.0     # 1/s
    k_q: float = 180.0   # 1/s^2
    k_w: float = 26.0    # 1/s

    def __post_init__(self):
        gains = (self.k_p, self.k_v, self.k_q, self.k_w)
        if not all(map(math.isfinite, gains)):
            raise ValueError("gains must be finite")
        if min(gains) <= 0:
            raise ValueError("gains must be positive")


@dataclass
class PoseReference:
    """Shaped reference; a tick fills p_d, v_d and a_d with lists of
    Python floats and the rest with tuples."""
    p_d: list
    v_d: list
    a_d: list
    q_d: tuple
    omega_d: tuple
    omega_dot_d: tuple


def make_model(params, cf_factor=1.0):
    """What a controller believes about the platform params, as a
    PlatformParams: params itself at cf_factor 1, else a copy with the
    force coefficient scaled (c_tau untouched), which builds its own
    effectiveness.  The copy is made once per params object and
    cf_factor and kept in params.models, so the preflight and every run
    of a mismatched sweep share one believed platform."""
    if cf_factor == 1:
        return params
    model = params.models.get(cf_factor)
    if model is None:  # of two threads that race here, the first one wins
        model = params.models.setdefault(
            cf_factor, replace(params, c_f=params.c_f * cf_factor))
    return model


def outer_loop(gains, ref, pos, vel, q, omega):
    """Shared error dynamics producing the pseudo control (v_p, v_att).

    Every argument is a sequence of numbers; a list of Python floats is
    fastest."""
    k_p, k_v, k_q, k_w = gains.k_p, gains.k_v, gains.k_q, gains.k_w
    (pdx, pdy, pdz), (px, py, pz) = ref.p_d, pos
    (vdx, vdy, vdz), (vx, vy, vz) = ref.v_d, vel
    adx, ady, adz = ref.a_d
    v_p = [k_p * (pdx - px) + k_v * (vdx - vx) + adx,
           k_p * (pdy - py) + k_v * (vdy - vy) + ady,
           k_p * (pdz - pz) + k_v * (vdz - vz) + adz]
    # attitude error: 2 sign(eta) eps of q_d (x) q^-1, the shortest path
    dw, dx, dy, dz = q_d = ref.q_d
    w, x, y, z = q
    s = 2.0 if dw * w + dx * x + dy * y + dz * z >= 0.0 else -2.0
    # rate error: omega - R(q)^T R(q_d) omega_d
    a, b, c, d, e, f, g, h, i = rotmat(q_d)
    ox, oy, oz = ref.omega_d
    r1, r2, r3 = (a * ox + b * oy + c * oz, d * ox + e * oy + f * oz,
                  g * ox + h * oy + i * oz)
    a, b, c, d, e, f, g, h, i = rotmat(q)
    (wx, wy, wz), (wdx, wdy, wdz) = omega, ref.omega_dot_d
    return v_p, [
        k_q * (s * (-dw * x + dx * w - dy * z + dz * y))
        - k_w * (wx - (a * r1 + d * r2 + g * r3)) + wdx,
        k_q * (s * (-dw * y + dx * z + dy * w - dz * x))
        - k_w * (wy - (b * r1 + e * r2 + h * r3)) + wdy,
        k_q * (s * (-dw * z - dx * y + dy * x + dz * w))
        - k_w * (wz - (c * r1 + f * r2 + i * r3)) + wdz]


def ndi_invert(nu, omega, model):
    """Model-based inversion: wrench cancelling gravity and the gyroscopic
    term plus the inertia-scaled pseudo control, as a 6-tuple.  The
    downstream allocation applies F(q)^-1."""
    m = model.mass
    jx, jy, jz = model.inertia
    (ax, ay, az), (bx, by, bz) = nu
    ox, oy, oz = omega
    hx, hy, hz = jx * ox, jy * oy, jz * oz
    return (m * ax, m * ay, m * az + m * GRAVITY,
            jx * bx + (oy * hz - oz * hy),
            jy * by + (oz * hx - ox * hz),
            jz * bz + (ox * hy - oy * hx))


def indi_invert(nu, rot, accel, omega_dot, model):
    """Sensor-based inversion: the wrench increment from the measured
    accelerations, R(q) accel - g and omega_dot, to the pseudo control,
    as a 6-tuple; accel is the body specific force, rot is R(q)."""
    m = model.mass
    jx, jy, jz = model.inertia
    (vx, vy, vz), (bx, by, bz) = nu
    a, b, c, d, e, f, g, h, i = rot
    (fx, fy, fz), (dx, dy, dz) = accel, omega_dot
    # the specific force in the world frame, R(q) f
    ax, ay, az = (a * fx + b * fy + c * fz, d * fx + e * fy + f * fz,
                  g * fx + h * fy + i * fz)
    return (m * (vx - ax), m * (vy - ay), m * (vz - (az - GRAVITY)),
            jx * (bx - dx), jy * (by - dy), jz * (bz - dz))


class ReferenceShaper:
    """Second-order reference model turning raw setpoints into smooth,
    physically feasible references with consistent derivatives.

    Position axes and Euler-angle axes are shaped independently by
    critically damped second-order dynamics discretized exactly (closed-form
    zero-order hold) at the controller rate.  Body-rate references neglect the
    Euler-rate matrix derivative, adequate for the commanded step sizes.
    """

    def __init__(self, dt):
        self._pos = _ShapedAxes(dt, 4.0)    # natural frequencies, rad/s
        self._att = _ShapedAxes(dt, 12.0)

    def reset_to(self, pos, rpy):
        self._pos.reset_to(pos)
        self._att.reset_to(rpy)

    @property
    def coefficients(self):
        """Each axis' discretised coefficients, wn^2 and 2 wn: position,
        then attitude."""
        return (*self._pos.coefficients, *self._att.coefficients)

    @property
    def state(self):
        """x and x' of the position axes, then of the attitude axes."""
        return (*self._pos.x, *self._pos.xd, *self._att.x, *self._att.xd)

    def step(self, target_pos, target_rpy):
        p_d, v_d, a_d = self._pos.step(target_pos)
        (roll, pitch, yaw), (dr, dp, dy), (ar, ap, ay) = self._att.step(
            target_rpy)
        # the Euler-rate rows ((1, 0, -sp), (0, cr, sr cp), (0, -sr, cr cp))
        # times the rates and the accelerations; the 1.0 and 0.0 terms
        # stay, as dropping them can flip the sign of a zero
        cr, sr = math.cos(roll), math.sin(roll)
        cp, sp = math.cos(pitch), math.sin(pitch)
        srcp, crcp = sr * cp, cr * cp
        return PoseReference(
            p_d=p_d, v_d=v_d, a_d=a_d, q_d=quat_from_rpy(roll, pitch, yaw),
            omega_d=(1.0 * dr + 0.0 * dp + -sp * dy,
                     0.0 * dr + cr * dp + srcp * dy,
                     0.0 * dr + -sr * dp + crcp * dy),
            omega_dot_d=(1.0 * ar + 0.0 * ap + -sp * ay,
                         0.0 * ar + cr * ap + srcp * ay,
                         0.0 * ar + -sr * ap + crcp * ay))


class _ShapedAxes:
    """Critically damped second-order shaping of three channels toward
    their targets, x'' = wn^2 (target - x) - 2 wn x', discretized exactly
    under a zero-order hold on the target.  The state is kept as lists of
    Python floats."""

    def __init__(self, dt, natural_frequency):
        wn = natural_frequency
        e = math.exp(-wn * dt)
        self.ad = ((e * (1.0 + wn * dt), e * dt),
                   (e * (-wn * wn * dt), e * (1.0 - wn * dt)))
        # 1 - e (1 + wn dt), written so it does not cancel for small wn dt
        self.bd = (-math.expm1(-wn * dt) - wn * dt * e, e * wn * wn * dt)
        self.coefficients = (*self.ad[0], *self.ad[1], *self.bd, wn ** 2,
                             2 * wn)
        self.x = [0.0, 0.0, 0.0]
        self.xd = [0.0, 0.0, 0.0]

    def reset_to(self, value):
        x1, x2, x3 = value
        self.x = [float(x1), float(x2), float(x3)]
        self.xd = [0.0, 0.0, 0.0]

    def step(self, target):
        """Advance one sample toward target; returns the value, rate and
        acceleration before the step."""
        a00, a01, a10, a11, b0, b1, wn2, two_wn = self.coefficients
        g1, g2, g3 = target
        x, xd = self.x, self.xd
        (x1, x2, x3), (r1, r2, r3) = x, xd
        self.x = [a00 * x1 + a01 * r1 + b0 * g1, a00 * x2 + a01 * r2 + b0 * g2,
                  a00 * x3 + a01 * r3 + b0 * g3]
        self.xd = [a10 * x1 + a11 * r1 + b1 * g1,
                   a10 * x2 + a11 * r2 + b1 * g2,
                   a10 * x3 + a11 * r3 + b1 * g3]
        return x, xd, [wn2 * (g1 - x1) - two_wn * r1,
                       wn2 * (g2 - x2) - two_wn * r2,
                       wn2 * (g3 - x3) - two_wn * r3]


@dataclass
class ControllerInputs:
    """Everything a controller may consume at one tick; each field is a
    sequence of numbers; lists of Python floats are fastest."""
    pos: list
    vel: list
    q: list
    gyro: list
    accel: list            # specific force, body
    rotor_w_meas: list


def _warm_constants(controller, pos, q):
    """(k_p, k_v, k_q, k_w, a reference shaper's coefficients, m, J_x,
    J_y, J_z, g, F0^-1 row by row, u_min, u_max), what a tick reads, and
    the shaper's state, with the shaper reset to hold pos and q."""
    shaper = ReferenceShaper(controller.dt)
    shaper.reset_to(pos, rpy_from_quat(q))
    g, p = controller.gains, controller.model
    eff = p.effectiveness
    return ((g.k_p, g.k_v, g.k_q, g.k_w, *shaper.coefficients, p.mass,
             *p.inertia, GRAVITY, *eff.F0_inv.ravel().tolist(), eff.u_min,
             eff.u_max), shaper.state)


class GeoNdiController:
    """Model-based geometric NDI: outer loop -> model inversion -> allocation.

    warm_start fills `constants` and `state` from a reference shaper it
    builds and drops, for the compiled ticks to read and update."""

    name = "geo"

    def __init__(self, model, gains, dt):
        check_positive(dt, "dt")
        self.model = model
        self.gains = gains
        self.dt = dt
        self.constants = self.state = None

    def warm_start(self, pos, q, trim_cmd):
        constants, state = _warm_constants(self, pos, q)
        self.constants, self.state = array("d", constants), array("d", state)

    def tick(self, target_pos, target_rpy, inputs):
        """(ActuatorCommand, PoseReference) of _truth.c's tick, which
        updates the state in place; IndiController's tick too."""
        if self.state is None:
            raise RuntimeError("a controller ticks only after its warm_start")
        from . import dynamics
        cmd, ref = dynamics.load_truth().tick(
            self.constants, self.state, target_pos, target_rpy, inputs.pos,
            inputs.vel, inputs.q, inputs.gyro, inputs.accel,
            inputs.rotor_w_meas)
        return ActuatorCommand(*cmd), PoseReference(*ref)


def feedback_filter(cutoff_hz, damping, dt):
    """IndiController's filter bank at the tick period dt: specific force
    (3), gyro (3) and squared rotor speeds (6)."""
    return SecondOrderFilter(2 * math.pi * cutoff_hz, damping, dt, 12)


class IndiController:
    """Sensor-based incremental inversion.

    The accelerometer, gyro and rotor-speed channels run through one
    12-channel second-order low-pass filter, so their group delays match
    by construction (Smeur, Chu & de Croon, JGCD 2016); the angular
    acceleration is the backward difference of the filtered gyro.  The
    commanded u is an increment on the *measured* rotor state, so after
    saturation the next increment starts from what the actuators actually
    achieved.

    warm_start fills `constants` and `state` as GeoNdiController's does,
    from a filter bank too (then dt and a zero gyro for the gyro
    difference); the controller keeps the bank's cutoff and damping.
    """

    name = "indi"

    def __init__(self, model, gains, dt, filter_cutoff_hz=FILTER_CUTOFF_HZ,
                 filter_damping=FILTER_DAMPING):
        check_positive(dt, "dt")
        self.model = model
        self.gains = gains
        self.dt = dt
        self.filter_cutoff_hz = filter_cutoff_hz
        self.filter_damping = filter_damping
        self.constants = self.state = None

    def warm_start(self, pos, q, trim_cmd):
        constants, state = _warm_constants(self, pos, q)
        feedback = feedback_filter(self.filter_cutoff_hz,
                                   self.filter_damping, self.dt)
        feedback.reset_to([0.0, 0.0, GRAVITY, 0.0, 0.0, 0.0, *trim_cmd.u])
        self.constants = array("d", (*constants, *feedback.b, feedback.a1,
                                     feedback.a2, self.dt))
        self.state = array("d", (*state, *feedback.state, 0.0, 0.0, 0.0))

    tick = GeoNdiController.tick


def make_controller(kind, model, gains, dt, filter_cutoff_hz=FILTER_CUTOFF_HZ,
                    filter_damping=FILTER_DAMPING):
    """Controller of the given kind; the filter settings apply to indi."""
    if kind == "geo":
        return GeoNdiController(model, gains, dt)
    if kind == "indi":
        return IndiController(model, gains, dt, filter_cutoff_hz,
                              filter_damping)
    raise ValueError(f"unknown controller {kind!r}")

