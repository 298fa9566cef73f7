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
from .geometry import (angular_rate_error, attitude_error_vector,
                       euler_rate_matrix, mat_vec, quat_from_rpy,
                       rotmat_rows, rpy_from_quat)
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
        if min(self.k_p, self.k_v, self.k_q, self.k_w) <= 0:
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


def outer_loop(gains, ref, pos, vel, q, omega):
    """Shared error dynamics producing the pseudo-control accelerations.

    Every argument is a sequence of numbers; a list of Python floats is
    fastest."""
    k_p, k_v, k_q, k_w = gains.k_p, gains.k_v, gains.k_q, gains.k_w
    v_p = [k_p * (p_d - p) + k_v * (v_d - v) + a_d
           for p_d, p, v_d, v, a_d in zip(ref.p_d, pos, ref.v_d, vel,
                                          ref.a_d)]
    e_q = attitude_error_vector(ref.q_d, q)
    e_w = angular_rate_error(omega, ref.omega_d, q, ref.q_d)
    v_att = [k_q * eq - k_w * ew + wd
             for eq, ew, wd in zip(e_q, e_w, ref.omega_dot_d)]
    return PseudoControl(v_p=v_p, v_att=v_att)


def ndi_invert(nu, omega, model):
    """Model-based inversion: wrench cancelling gravity and the gyroscopic
    term plus the inertia-scaled pseudo control, as a 6-tuple.  The
    downstream allocation applies F(q)^-1."""
    p = model.params
    m = p.mass
    jx, jy, jz = p.inertia_diag
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
        self._pos = _ShapedAxes(dt, 4.0, 3)    # natural frequencies, rad/s
        self._att = _ShapedAxes(dt, 12.0, 3)

    def reset_to(self, pos, rpy):
        self._pos.reset_to(pos)
        self._att.reset_to(rpy)

    def step(self, target_pos, target_rpy):
        p_d, v_d, a_d = self._pos.step(target_pos)
        rpy, rpy_rate, rpy_acc = self._att.step(target_rpy)
        rows = euler_rate_matrix(rpy[0], rpy[1])
        return PoseReference(
            p_d=p_d, v_d=v_d, a_d=a_d,
            q_d=quat_from_rpy(*rpy),
            omega_d=mat_vec(rows, rpy_rate),
            omega_dot_d=mat_vec(rows, rpy_acc))


class _ShapedAxes:
    """Critically damped second-order shaping of each channel toward its
    target, x'' = wn^2 (target - x) - 2 wn x', discretized exactly under
    a zero-order hold on the target.  The state is kept as lists of
    Python floats."""

    def __init__(self, dt, natural_frequency, channels):
        wn = self.wn = natural_frequency
        e = math.exp(-wn * dt)
        self.ad = ((e * (1.0 + wn * dt), e * dt),
                   (e * (-wn * wn * dt), e * (1.0 - wn * dt)))
        # 1 - e (1 + wn dt), written so it does not cancel for small wn dt
        self.bd = (-math.expm1(-wn * dt) - wn * dt * e, e * wn * wn * dt)
        self.x = [0.0] * channels
        self.xd = [0.0] * channels

    def reset_to(self, value):
        self.x = [float(v) for v in value]
        self.xd = [0.0] * len(self.x)

    def step(self, target):
        """Advance one sample toward target; returns the value, rate and
        acceleration before the step."""
        (a00, a01), (a10, a11) = self.ad
        b0, b1 = self.bd
        wn2, two_wn = self.wn ** 2, 2 * self.wn
        x, xd = self.x, self.xd
        acc, x_new, xd_new = [], [], []
        for g, v, r in zip(target, x, xd):
            acc.append(wn2 * (g - v) - two_wn * r)
            x_new.append(a00 * v + a01 * r + b0 * g)
            xd_new.append(a10 * v + a11 * r + b1 * g)
        self.x, self.xd = x_new, xd_new
        return x, xd, acc


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
        nu = outer_loop(self.gains, ref, inputs.pos, inputs.vel,
                        inputs.q, inputs.gyro)
        wrench = ndi_invert(nu, inputs.gyro, self.model)
        return allocate(self.model.eff, inputs.q, wrench), ref


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
        self.shaper = ReferenceShaper(dt)
        # channels: specific force (3), gyro (3), squared rotor speeds (6)
        self.feedback = SecondOrderFilter(
            2 * math.pi * filter_cutoff_hz, filter_damping, dt, 12)
        self.d_gyro = FilteredDerivative(dt, 3)

    def warm_start(self, pos, q, trim_cmd):
        self.shaper.reset_to(pos, rpy_from_quat(q))
        self.feedback.reset_to([0.0, 0.0, GRAVITY, 0.0, 0.0, 0.0,
                                *trim_cmd.u.tolist()])
        self.d_gyro.reset_to(0.0)

    def tick(self, target_pos, target_rpy, inputs):
        ref = self.shaper.step(target_pos, target_rpy)

        u_meas = [w * abs(w) for w in inputs.rotor_w_meas]
        filtered = self.feedback.step(
            [*inputs.accel, *inputs.gyro, *u_meas]).tolist()
        accel_f, gyro_f, u0 = filtered[:3], filtered[3:6], filtered[6:]

        # the gyro channel is low-pass filtered like every other sensor
        # path, so the rate error sees the same group delay
        nu = outer_loop(self.gains, ref, inputs.pos, inputs.vel,
                        inputs.q, gyro_f)
        ax, ay, az = mat_vec(rotmat_rows(inputs.q), accel_f)
        omdot0 = self.d_gyro.step(gyro_f).tolist()

        p = self.model.params
        m = p.mass
        vx, vy, vz = nu.v_p
        increment = (m * (vx - ax), m * (vy - ay), m * (vz - (az - GRAVITY)),
                     *[j * (v - w) for j, v, w in zip(p.inertia_diag,
                                                      nu.v_att, omdot0)])
        u = [a + b for a, b in zip(
            solve_wrench(self.model.eff, inputs.q, increment), u0)]
        return saturate(self.model.eff, u), ref


def make_controller(kind, model, gains, dt, filter_cutoff_hz=FILTER_CUTOFF_HZ,
                    filter_damping=FILTER_DAMPING):
    """Controller of the given kind; the filter settings apply to indi."""
    if kind == "geo":
        return GeoNdiController(model, gains, dt)
    if kind == "indi":
        return IndiController(model, gains, dt, filter_cutoff_hz,
                              filter_damping)
    raise ValueError(f"unknown controller {kind!r}")

