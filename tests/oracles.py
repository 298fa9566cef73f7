"""Numpy reference helpers that only the tests use: quaternion
constructors and kinematics, the attitude-dependent effectiveness matrix
and the continuous-time step response of the INDI feedback filter."""

import numpy as np

from hexsim.geometry import quat_to_rotmat


def quat_normalize(q):
    """Return q scaled to unit norm."""
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q)


def quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


def quat_derivative(q, omega_body):
    """q_dot = 0.5 * q (x) (0, omega), omega in body frame. Not normalized."""
    ow, ox, oy, oz = 0.0, omega_body[0], omega_body[1], omega_body[2]
    w, x, y, z = q
    return 0.5 * np.array([
        w * ow - x * ox - y * oy - z * oz,
        w * ox + x * ow + y * oz - z * oy,
        w * oy - x * oz + y * ow + z * ox,
        w * oz + x * oy - y * ox + z * ow,
    ])


def assemble_F(eff, q):
    """Attitude-dependent 6x6 effectiveness: rows 1-3 rotated to world."""
    return np.vstack([quat_to_rotmat(q) @ eff.F1, eff.F2])


def analytic_step_response(natural_frequency, damping, t):
    """Continuous-time unit step response of the same second-order system
    (oracle for the discrete implementation)."""
    wn, z = natural_frequency, damping
    t = np.asarray(t, dtype=float)
    if z < 1.0:
        wd = wn * np.sqrt(1 - z * z)
        phi = np.arccos(z)
        return 1 - np.exp(-z * wn * t) * np.sin(wd * t + phi) / np.sqrt(1 - z * z)
    if z == 1.0:
        return 1 - np.exp(-wn * t) * (1 + wn * t)
    r1 = -wn * (z - np.sqrt(z * z - 1))
    r2 = -wn * (z + np.sqrt(z * z - 1))
    return 1 + (r2 * np.exp(r1 * t) - r1 * np.exp(r2 * t)) / (r1 - r2)
