"""Quaternion and rotation helpers.

Conventions used throughout the package:
  * quaternions are [w, x, y, z] (scalar first, Hamilton product, right
    handed), storing the body->world rotation
  * world frame is z-up, gravity acts along -z
  * rotation matrices map body vectors into the world frame

The helpers of the closed loop (rotmat_rows, mat_vec, mat_t_vec,
quat_from_rpy, euler_rate_matrix, attitude_error_vector,
angular_rate_error) take any sequence of numbers and return tuples of
Python floats when given floats.  quat_conj, quat_mul, quat_to_rotmat
and rpy_from_quat return numpy arrays, for set-up and for the maths
after the loop; all but quat_to_rotmat also work column-wise on stacked
quaternions of shape (4, n).
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


def rotmat_rows(q):
    """R(q) mapping body vectors to world, as three row tuples."""
    w, x, y, z = q
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def mat_vec(rows, v):
    """The 3x3 matrix given by its rows times the 3-vector v."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    x, y, z = v
    return (a * x + b * y + c * z, d * x + e * y + f * z,
            g * x + h * y + i * z)


def mat_t_vec(rows, v):
    """The transpose of the 3x3 matrix given by its rows times v."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    x, y, z = v
    return (a * x + d * y + g * z, b * x + e * y + h * z,
            c * x + f * y + i * z)


def quat_to_rotmat(q):
    """Rotation matrix R(q) mapping body vectors to world."""
    return np.array(rotmat_rows(q))


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


def attitude_error_vector(q_d, q_b):
    """Shortest-path attitude error 2*sign(eta)*eps of q_d (x) q_b^-1
    for unit quaternions q_d and q_b.

    Zero iff the two attitudes agree up to quaternion sign; magnitude
    is bounded by 2.
    """
    dw, dx, dy, dz = q_d
    w, x, y, z = q_b
    eta = dw * w + dx * x + dy * y + dz * z
    s = 2.0 if eta >= 0.0 else -2.0
    return (s * (-dw * x + dx * w - dy * z + dz * y),
            s * (-dw * y + dx * z + dy * w - dz * x),
            s * (-dw * z - dx * y + dy * x + dz * w))


def angular_rate_error(omega_b, omega_d, q_b, q_d):
    """Body-frame rate error: omega_b - R(q_b)^T R(q_d) omega_d."""
    r0, r1, r2 = mat_t_vec(rotmat_rows(q_b),
                           mat_vec(rotmat_rows(q_d), omega_d))
    return omega_b[0] - r0, omega_b[1] - r1, omega_b[2] - r2


def euler_rate_matrix(roll, pitch):
    """Maps ZYX Euler angle rates [roll', pitch', yaw'] to body rates;
    three row tuples."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    return ((1.0, 0.0, -sp),
            (0.0, cr, sr * cp),
            (0.0, -sr, cr * cp))
