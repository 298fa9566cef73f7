"""Full-pose controllers: shared outer loop plus two inversion back-ends.

Both controllers consume the same shaped reference and the same error
dynamics (position/velocity PD in the world frame, quaternion attitude
error and body-rate damping).  They differ only in how the commanded
accelerations are turned into rotor commands:

  * GeoNdiController inverts the on-board model (mass, inertia, gravity,
    gyroscopic term, effectiveness matrix).
  * IndiController replaces the model terms with filtered measurements of
    translational acceleration, angular acceleration and rotor speeds, and
    commands an increment on the measured actuator state.
"""

import math
from dataclasses import dataclass

from .filters import FilteredDerivative, SecondOrderFilter
from .geometry import quat_from_rpy, rotmat, rpy_from_quat
from .vehicle import GRAVITY, allocate, build_effectiveness, saturate, \
    solve_wrench, with_cf_factor

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
    """Shaped reference; the shaper fills it with Python floats."""
    p_d: list
    v_d: list
    a_d: list
    q_d: tuple
    omega_d: tuple
    omega_dot_d: tuple


@dataclass
class PseudoControl:
    v_p: list     # commanded translational acceleration, world
    v_att: list   # commanded angular acceleration, body


@dataclass(frozen=True)
class ControllerModel:
    """What the controller believes about the platform (possibly wrong)."""
    params: object
    eff: object


def make_model(params, cf_factor=1.0):
    model_params = with_cf_factor(params, cf_factor)
    return ControllerModel(params=model_params,
                           eff=build_effectiveness(model_params))


def outer_loop(gains, ref, pos, vel, q, omega, rot=None):
    """Shared error dynamics producing the pseudo-control accelerations.

    Every argument is a sequence of numbers; a list of Python floats is
    fastest.  rot is R(q) as geometry.rotmat returns it, for a caller
    that has formed it."""
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
    a, b, c, d, e, f, g, h, i = rotmat(q) if rot is None else rot
    (wx, wy, wz), (wdx, wdy, wdz) = omega, ref.omega_dot_d
    return PseudoControl(v_p=v_p, v_att=[
        k_q * (s * (-dw * x + dx * w - dy * z + dz * y))
        - k_w * (wx - (a * r1 + d * r2 + g * r3)) + wdx,
        k_q * (s * (-dw * y + dx * z + dy * w - dz * x))
        - k_w * (wy - (b * r1 + e * r2 + h * r3)) + wdy,
        k_q * (s * (-dw * z - dx * y + dy * x + dz * w))
        - k_w * (wz - (c * r1 + f * r2 + i * r3)) + wdz])


def ndi_invert(nu, omega, model):
    """Model-based inversion: wrench cancelling gravity and the gyroscopic
    term plus the inertia-scaled pseudo control, as a 6-tuple.  The
    downstream allocation applies F(q)^-1."""
    p = model.params
    m = p.mass
    jx, jy, jz = p.inertia
    ax, ay, az = nu.v_p
    bx, by, bz = nu.v_att
    ox, oy, oz = omega
    hx, hy, hz = jx * ox, jy * oy, jz * oz
    return (m * ax, m * ay, m * az + m * GRAVITY,
            jx * bx + (oy * hz - oz * hy),
            jy * by + (oz * hx - ox * hz),
            jz * bz + (ox * hy - oy * hx))


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
        self._coefficients = (*self.ad[0], *self.ad[1], *self.bd, wn ** 2,
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
        a00, a01, a10, a11, b0, b1, wn2, two_wn = self._coefficients
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
    sequence of numbers (run_scenario passes lists of Python floats)."""
    pos: list
    vel: list
    q: list
    gyro: list
    accel: list            # specific force, body
    rotor_w_meas: list


class GeoNdiController:
    """Model-based geometric NDI: outer loop -> model inversion -> allocation."""

    name = "geo"

    def __init__(self, model, gains, dt):
        self.model = model
        self.gains = gains
        self.shaper = ReferenceShaper(dt)

    def warm_start(self, pos, q, trim_cmd):
        self.shaper.reset_to(pos, rpy_from_quat(q))

    def tick(self, target_pos, target_rpy, inputs):
        ref = self.shaper.step(target_pos, target_rpy)
        q, gyro = inputs.q, inputs.gyro
        rot = rotmat(q)
        nu = outer_loop(self.gains, ref, inputs.pos, inputs.vel, q, gyro, rot)
        wrench = ndi_invert(nu, gyro, self.model)
        return allocate(self.model.eff, q, wrench, rot), ref


class IndiController:
    """Sensor-based incremental inversion.

    The accelerometer, gyro and rotor-speed channels run through one
    12-channel second-order low-pass filter, so their group delays match
    by construction (Smeur, Chu & de Croon, JGCD 2016); the angular
    acceleration is the backward difference of the filtered gyro.  The
    commanded u is an increment on the *measured* rotor state, so after
    saturation the next increment starts from what the actuators actually
    achieved.
    """

    name = "indi"

    def __init__(self, model, gains, dt, filter_cutoff_hz=FILTER_CUTOFF_HZ,
                 filter_damping=FILTER_DAMPING):
        self.model = model
        self.gains = gains
        self._mass_inertia = (model.params.mass, *model.params.inertia)
        self.shaper = ReferenceShaper(dt)
        # channels: specific force (3), gyro (3), squared rotor speeds (6)
        self.feedback = SecondOrderFilter(
            2 * math.pi * filter_cutoff_hz, filter_damping, dt, 12)
        self.d_gyro = FilteredDerivative(dt, 3)

    def warm_start(self, pos, q, trim_cmd):
        self.shaper.reset_to(pos, rpy_from_quat(q))
        self.feedback.reset_to([0.0, 0.0, GRAVITY, 0.0, 0.0, 0.0,
                                *trim_cmd.u])
        self.d_gyro.reset_to(0.0)

    def tick(self, target_pos, target_rpy, inputs):
        ref = self.shaper.step(target_pos, target_rpy)

        w1, w2, w3, w4, w5, w6 = inputs.rotor_w_meas
        fx, fy, fz, gx, gy, gz, u1, u2, u3, u4, u5, u6 = self.feedback.step(
            [*inputs.accel, *inputs.gyro, w1 * abs(w1), w2 * abs(w2),
             w3 * abs(w3), w4 * abs(w4), w5 * abs(w5), w6 * abs(w6)])
        gyro_f = [gx, gy, gz]

        # the gyro channel is low-pass filtered like every other sensor
        # path, so the rate error sees the same group delay
        q = inputs.q
        rot = a, b, c, d, e, f, g, h, i = rotmat(q)
        nu = outer_loop(self.gains, ref, inputs.pos, inputs.vel, q, gyro_f,
                        rot)
        # the filtered specific force in the world frame, R(q) f
        ax, ay, az = (a * fx + b * fy + c * fz, d * fx + e * fy + f * fz,
                      g * fx + h * fy + i * fz)
        dx, dy, dz = self.d_gyro.step(gyro_f)

        m, jx, jy, jz = self._mass_inertia
        (vx, vy, vz), (bx, by, bz) = nu.v_p, nu.v_att
        s1, s2, s3, s4, s5, s6 = solve_wrench(
            self.model.eff, q,
            (m * (vx - ax), m * (vy - ay), m * (vz - (az - GRAVITY)),
             jx * (bx - dx), jy * (by - dy), jz * (bz - dz)), rot)
        return saturate(self.model.eff, (s1 + u1, s2 + u2, s3 + u3, s4 + u4,
                                         s5 + u5, s6 + u6)), ref


def make_controller(kind, model, gains, dt, filter_cutoff_hz=FILTER_CUTOFF_HZ,
                    filter_damping=FILTER_DAMPING):
    """Controller of the given kind; the filter settings apply to indi."""
    if kind == "geo":
        return GeoNdiController(model, gains, dt)
    if kind == "indi":
        return IndiController(model, gains, dt, filter_cutoff_hz,
                              filter_damping)
    raise ValueError(f"unknown controller {kind!r}")

