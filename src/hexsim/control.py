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

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .filters import FilteredDerivative, SecondOrderFilter
from .geometry import (E3, angular_rate_error, attitude_error_vector,
                       euler_rate_matrix, quat_from_rpy, quat_to_rotmat,
                       rpy_from_quat)
from .vehicle import GRAVITY, allocate, build_effectiveness, saturate, \
    with_cf_factor

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
    p_d: np.ndarray
    v_d: np.ndarray
    a_d: np.ndarray
    q_d: np.ndarray
    omega_d: np.ndarray
    omega_dot_d: np.ndarray


@dataclass
class PseudoControl:
    v_p: np.ndarray     # commanded translational acceleration, world
    v_att: np.ndarray   # commanded angular acceleration, body


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
    """Shared error dynamics producing the pseudo-control accelerations."""
    e_p = ref.p_d - pos
    e_v = ref.v_d - vel
    v_p = gains.k_p * e_p + gains.k_v * e_v + ref.a_d
    e_q = attitude_error_vector(ref.q_d, q)
    e_w = angular_rate_error(omega, ref.omega_d, q, ref.q_d)
    v_att = gains.k_q * e_q - gains.k_w * e_w + ref.omega_dot_d
    return PseudoControl(v_p=v_p, v_att=v_att)


def ndi_invert(nu, omega, model):
    """Model-based inversion: wrench cancelling gravity and the gyroscopic
    term plus the inertia-scaled pseudo control.  The downstream allocation
    applies F(q)^-1."""
    p = model.params
    jw = np.diag(p.inertia) * omega
    force = p.mass * nu.v_p + p.mass * GRAVITY * E3
    torque = np.diag(p.inertia) * nu.v_att + np.cross(omega, jw)
    return np.concatenate([force, torque])


class ReferenceShaper:
    """Second-order reference model turning raw setpoints into smooth,
    physically feasible references with consistent derivatives.

    Position axes and Euler-angle axes are shaped independently by
    critically damped second-order dynamics discretized exactly (matrix
    exponential) at the controller rate.  Body-rate references neglect the
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
        e = euler_rate_matrix(rpy[0], rpy[1])
        return PoseReference(
            p_d=p_d, v_d=v_d, a_d=a_d,
            q_d=quat_from_rpy(*rpy),
            omega_d=e @ rpy_rate,
            omega_dot_d=e @ rpy_acc)


class _ShapedAxes:
    def __init__(self, dt, natural_frequency, channels):
        self.wn = natural_frequency
        self.zeta = 1.0
        a = np.array([[0.0, 1.0, 0.0],
                      [-self.wn ** 2, -2 * self.zeta * self.wn, self.wn ** 2],
                      [0.0, 0.0, 0.0]])
        m = expm(a * dt)
        self.ad = m[:2, :2]
        self.bd = m[:2, 2]
        self.x = np.zeros(channels)
        self.xd = np.zeros(channels)

    def reset_to(self, value):
        self.x = np.asarray(value, dtype=float).copy()
        self.xd = np.zeros_like(self.x)

    def step(self, target):
        target = np.asarray(target, dtype=float)
        acc = self.wn ** 2 * (target - self.x) - 2 * self.zeta * self.wn * self.xd
        x_new = self.ad[0, 0] * self.x + self.ad[0, 1] * self.xd + self.bd[0] * target
        xd_new = self.ad[1, 0] * self.x + self.ad[1, 1] * self.xd + self.bd[1] * target
        out = (self.x.copy(), self.xd.copy(), acc)
        self.x, self.xd = x_new, xd_new
        return out


@dataclass
class ControllerInputs:
    """Everything a controller may consume at one tick."""
    pos: np.ndarray
    vel: np.ndarray
    q: np.ndarray
    gyro: np.ndarray
    accel: np.ndarray           # specific force, body
    rotor_w_meas: np.ndarray


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
            2 * np.pi * filter_cutoff_hz, filter_damping, dt, 12)
        self.d_gyro = FilteredDerivative(dt, 3)

    def warm_start(self, pos, q, trim_cmd):
        self.shaper.reset_to(pos, rpy_from_quat(q))
        self.feedback.reset_to(
            np.concatenate([GRAVITY * E3, np.zeros(3), trim_cmd.u]))
        self.d_gyro.reset_to(np.zeros(3))

    def tick(self, target_pos, target_rpy, inputs):
        ref = self.shaper.step(target_pos, target_rpy)

        rot = quat_to_rotmat(inputs.q)
        u_meas = inputs.rotor_w_meas * np.abs(inputs.rotor_w_meas)
        filtered = self.feedback.step(
            np.concatenate([inputs.accel, inputs.gyro, u_meas]))
        accel_f, gyro_f, u0 = filtered[:3], filtered[3:6], filtered[6:]

        # the gyro channel is low-pass filtered like every other sensor
        # path, so the rate error sees the same group delay
        nu = outer_loop(self.gains, ref, inputs.pos, inputs.vel,
                        inputs.q, gyro_f)
        pddot0 = rot @ accel_f - GRAVITY * E3
        omdot0 = self.d_gyro.step(gyro_f)

        p = self.model.params
        force_inc = p.mass * (nu.v_p - pddot0)
        torque_inc = np.diag(p.inertia) * (nu.v_att - omdot0)
        rhs = np.concatenate([rot.T @ force_inc, torque_inc])
        u = self.model.eff.F0_inv @ rhs + u0
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

