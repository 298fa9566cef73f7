"""Quaternion and rotation helpers.

Conventions used throughout the package:
  * quaternions are [w, x, y, z] (scalar first, Hamilton product, right
    handed), storing the body->world rotation
  * world frame is z-up, gravity acts along -z
  * rotation matrices map body vectors into the world frame

The helpers of the closed loop (rotmat, quat_from_rpy) take any
sequence of numbers and return tuples of Python floats when given
floats.  quat_conj, quat_mul, quat_to_rotmat and rpy_from_quat return
numpy arrays, for set-up and for the maths after the loop; all but
quat_to_rotmat also work column-wise on stacked quaternions of shape
(4, n).
"""

import math

import numpy as np

E3 = np.array([0.0, 0.0, 1.0])


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
    return out / np.linalg.norm(out, axis=0)


def rotmat(q):
    """R(q) mapping body vectors to world, as a flat row-major 9-tuple
    (r00, r01, r02, r10, ..., r22)."""
    w, x, y, z = q
    # float literals: the same values as 1 and 2, without CPython's
    # slower mixed-type path
    return (1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z),
            2.0 * (x * z + w * y), 2.0 * (x * y + w * z),
            1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x),
            2.0 * (x * z - w * y), 2.0 * (y * z + w * x),
            1.0 - 2.0 * (x * x + y * y))


def quat_to_rotmat(q):
    """Rotation matrix R(q) mapping body vectors to world."""
    return np.array(rotmat(q)).reshape(3, 3)


def quat_from_rpy(roll, pitch, yaw):
    """ZYX Euler angles (yaw about z, then pitch, then roll) to quaternion:
    the product qz(yaw) (x) qy(pitch) (x) qx(roll) in closed form."""
    cr, sr = math.cos(0.5 * roll), math.sin(0.5 * roll)
    cp, sp = math.cos(0.5 * pitch), math.sin(0.5 * pitch)
    cy, sy = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
    return (cy * cp * cr + sy * sp * sr,
            cy * cp * sr - sy * sp * cr,
            cy * sp * cr + sy * cp * sr,
            sy * cp * cr - cy * sp * sr)


def rpy_from_quat(q):
    """ZYX Euler angles (roll, pitch, yaw) of a unit quaternion."""
    w, x, y, z = q
    roll = np.arctan2(2 * (w * x + y * z), 1 - 2 * (x * x + y * y))
    s = np.clip(2 * (w * y - z * x), -1.0, 1.0)
    pitch = np.arcsin(s)
    yaw = np.arctan2(2 * (w * z + x * y), 1 - 2 * (y * y + z * z))
    return np.array([roll, pitch, yaw])
