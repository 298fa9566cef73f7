"""Quaternion and rotation helpers.

Conventions used throughout the package:
  * quaternions are numpy arrays [w, x, y, z] (scalar first, Hamilton
    product, right handed), storing the body->world rotation
  * world frame is z-up, gravity acts along -z
  * rotation matrices map body vectors into the world frame
"""

import math

import numpy as np

E3 = np.array([0.0, 0.0, 1.0])


def quat_normalize(q):
    """Return q scaled to unit norm."""
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q)


def quat_conj(q):
    """Quaternion conjugate (inverse for unit quaternions)."""
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_mul(a, b):
    """Hamilton product a (x) b, renormalized."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    out = np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])
    return out / np.linalg.norm(out)


def quat_to_rotmat(q):
    """Rotation matrix R(q) mapping body vectors to world."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


def quat_from_rpy(roll, pitch, yaw):
    """ZYX Euler angles (yaw about z, then pitch, then roll) to quaternion:
    the product qz(yaw) (x) qy(pitch) (x) qx(roll) in closed form."""
    cr, sr = math.cos(0.5 * roll), math.sin(0.5 * roll)
    cp, sp = math.cos(0.5 * pitch), math.sin(0.5 * pitch)
    cy, sy = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
    return np.array([
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    ])


def rpy_from_quat(q):
    """ZYX Euler angles (roll, pitch, yaw) of a unit quaternion."""
    w, x, y, z = q
    roll = np.arctan2(2 * (w * x + y * z), 1 - 2 * (x * x + y * y))
    s = np.clip(2 * (w * y - z * x), -1.0, 1.0)
    pitch = np.arcsin(s)
    yaw = np.arctan2(2 * (w * z + x * y), 1 - 2 * (y * y + z * z))
    return np.array([roll, pitch, yaw])


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


def attitude_error_vector(q_d, q_b):
    """Shortest-path attitude error 2*sign(eta)*eps of q_d (x) q_b^-1.

    Zero iff the two attitudes agree up to quaternion sign; magnitude
    is bounded by 2.
    """
    e = quat_mul(q_d, quat_conj(q_b))
    sign = 1.0 if e[0] >= 0.0 else -1.0
    return 2.0 * sign * e[1:]


def angular_rate_error(omega_b, omega_d, q_b, q_d):
    """Body-frame rate error: omega_b - R(q_b)^T R(q_d) omega_d."""
    return omega_b - quat_to_rotmat(q_b).T @ (quat_to_rotmat(q_d) @ omega_d)


def euler_rate_matrix(roll, pitch):
    """Maps ZYX Euler angle rates [roll', pitch', yaw'] to body rates."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    return np.array([
        [1.0, 0.0, -sp],
        [0.0, cr, sr * cp],
        [0.0, -sr, cr * cp],
    ])
