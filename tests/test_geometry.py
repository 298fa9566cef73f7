import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hexsim.geometry import (E3, angular_rate_error, attitude_error_vector,
                             euler_rate_matrix, quat_conj, quat_derivative,
                             quat_from_axis_angle, quat_from_rpy, quat_mul,
                             quat_normalize, quat_to_rotmat, rpy_from_quat)


def random_quat(rng):
    axis = rng.normal(size=3)
    return quat_from_axis_angle(axis, rng.uniform(-np.pi, np.pi))


def test_normalize_unit_norm(rng):
    q = quat_normalize(rng.normal(size=4))
    assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)


def test_mul_identity(rng):
    q = random_quat(rng)
    ident = np.array([1.0, 0, 0, 0])
    np.testing.assert_allclose(quat_mul(ident, q), q, atol=1e-12)
    np.testing.assert_allclose(quat_mul(q, ident), q, atol=1e-12)


def test_conj_is_inverse(rng):
    q = random_quat(rng)
    np.testing.assert_allclose(quat_mul(q, quat_conj(q)),
                               [1.0, 0, 0, 0], atol=1e-12)


def test_rotmat_orthonormal(rng):
    R = quat_to_rotmat(random_quat(rng))
    np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_rotmat_composition(rng):
    a, b = random_quat(rng), random_quat(rng)
    np.testing.assert_allclose(quat_to_rotmat(quat_mul(a, b)),
                               quat_to_rotmat(a) @ quat_to_rotmat(b),
                               atol=1e-10)


def test_axis_angle_90deg_about_z():
    q = quat_from_axis_angle(E3, np.pi / 2)
    # body x maps to world y
    np.testing.assert_allclose(quat_to_rotmat(q) @ [1, 0, 0], [0, 1, 0],
                               atol=1e-12)


def test_rpy_round_trip(rng):
    for _ in range(50):
        rpy = rng.uniform([-np.pi, -np.pi / 2 + 0.05, -np.pi],
                          [np.pi, np.pi / 2 - 0.05, np.pi])
        back = rpy_from_quat(quat_from_rpy(*rpy))
        np.testing.assert_allclose(back, rpy, atol=1e-9)


def test_rpy_yaw_only():
    q = quat_from_rpy(0.0, 0.0, 0.3)
    np.testing.assert_allclose(rpy_from_quat(q), [0, 0, 0.3], atol=1e-12)


def test_quat_derivative_integrates_rotation():
    # constant body rate about x, integrate with small steps
    omega = np.array([0.7, 0.0, 0.0])
    q = np.array([1.0, 0, 0, 0])
    dt = 1e-4
    for _ in range(int(1.0 / dt)):
        q = quat_normalize(q + dt * quat_derivative(q, omega))
    expected = quat_from_axis_angle([1, 0, 0], 0.7)
    np.testing.assert_allclose(q, expected, atol=1e-6)


def test_attitude_error_zero_at_match(rng):
    q = random_quat(rng)
    np.testing.assert_allclose(attitude_error_vector(q, q), np.zeros(3),
                               atol=1e-12)


def test_attitude_error_small_angle():
    # small rotation about y: error vector ~ angle * axis
    q_d = quat_from_axis_angle([0, 1, 0], 0.01)
    q_b = np.array([1.0, 0, 0, 0])
    e = attitude_error_vector(q_d, q_b)
    np.testing.assert_allclose(e, [0, 0.01, 0], atol=1e-6)


def test_attitude_error_sign_continuity(rng):
    # negating the quaternion must not change the error
    q_d = random_quat(rng)
    q_b = random_quat(rng)
    np.testing.assert_allclose(attitude_error_vector(q_d, q_b),
                               attitude_error_vector(-q_d, q_b), atol=1e-9)


def test_angular_rate_error_same_frame():
    q = np.array([1.0, 0, 0, 0])
    e = angular_rate_error(np.array([0.2, 0, 0]), np.array([0.5, 0, 0]), q, q)
    np.testing.assert_allclose(e, [-0.3, 0, 0], atol=1e-12)


def test_euler_rate_matrix_level():
    np.testing.assert_allclose(euler_rate_matrix(0.0, 0.0), np.eye(3),
                               atol=1e-12)


angle = st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True)
# ZYX angles lose the roll/yaw split at pitch = +-pi/2 (gimbal lock)
pitch = st.floats(-math.pi / 2 + 0.05, math.pi / 2 - 0.05)


@settings(max_examples=300, deadline=None)
@given(roll=angle, pitch=pitch, yaw=angle)
def test_rpy_quat_rpy_round_trip(roll, pitch, yaw):
    q = quat_from_rpy(roll, pitch, yaw)
    assert math.fsum(v * v for v in q) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(rpy_from_quat(q), [roll, pitch, yaw],
                               rtol=0, atol=1e-9)


@settings(max_examples=300, deadline=None)
@given(q=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: sum(v * v for v in q) > 1e-2))
def test_quat_rpy_quat_round_trip(q):
    q = np.array(q) / np.linalg.norm(q)
    rpy = rpy_from_quat(q)
    assume(abs(rpy[1]) < math.pi / 2 - 0.05)
    back = np.array(quat_from_rpy(*rpy))
    # q and -q are the same attitude
    sign = 1.0 if back @ q >= 0.0 else -1.0
    np.testing.assert_allclose(sign * back, q, rtol=0, atol=1e-9)
