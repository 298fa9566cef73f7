import numpy as np
import pytest

from hexsim import vehicle
from hexsim.control import (ControllerInputs, Gains, GeoNdiController,
                            IndiController, PoseReference, PseudoControl,
                            ReferenceShaper, make_controller, make_model,
                            ndi_invert, outer_loop)
from hexsim.geometry import E3, quat_from_rpy
from hexsim.vehicle import GRAVITY

DT = 0.002  # 500 Hz
HOVER_Q = np.array([1.0, 0, 0, 0])


def hover_reference():
    return PoseReference(p_d=np.zeros(3), v_d=np.zeros(3), a_d=np.zeros(3),
                         q_d=np.array([1.0, 0, 0, 0]), omega_d=np.zeros(3),
                         omega_dot_d=np.zeros(3))


def hover_inputs(trim):
    return ControllerInputs(pos=np.zeros(3), vel=np.zeros(3),
                            q=np.array([1.0, 0, 0, 0]), gyro=np.zeros(3),
                            accel=GRAVITY * E3, rotor_w_meas=trim.w_cmd)


def test_gains_validation():
    with pytest.raises(ValueError):
        Gains(k_p=-1.0)


def test_outer_loop_zero_error_gives_feedforward():
    ref = hover_reference()
    ref = PoseReference(p_d=ref.p_d, v_d=ref.v_d, a_d=np.array([0, 0, 1.0]),
                        q_d=ref.q_d, omega_d=ref.omega_d,
                        omega_dot_d=np.array([0.5, 0, 0]))
    nu = outer_loop(Gains(), ref, np.zeros(3), np.zeros(3),
                    np.array([1.0, 0, 0, 0]), np.zeros(3))
    np.testing.assert_allclose(nu.v_p, [0, 0, 1.0], atol=1e-12)
    np.testing.assert_allclose(nu.v_att, [0.5, 0, 0], atol=1e-12)


def test_outer_loop_proportional_terms():
    g = Gains()
    nu = outer_loop(g, hover_reference(), np.array([-1.0, 0, 0]),
                    np.zeros(3), np.array([1.0, 0, 0, 0]),
                    np.array([0, 0, 0.1]))
    np.testing.assert_allclose(nu.v_p, [g.k_p, 0, 0], atol=1e-12)
    np.testing.assert_allclose(nu.v_att, [0, 0, -g.k_w * 0.1], atol=1e-12)


def test_ndi_invert_hover_wrench(params):
    model = make_model(params)
    nu = outer_loop(Gains(), hover_reference(), np.zeros(3), np.zeros(3),
                    np.array([1.0, 0, 0, 0]), np.zeros(3))
    wrench = ndi_invert(nu, np.zeros(3), model)
    np.testing.assert_allclose(
        wrench, [0, 0, params.mass * GRAVITY, 0, 0, 0], atol=1e-12)


def test_ndi_invert_gyroscopic_term(params):
    model = make_model(params)
    omega = np.array([1.0, 2.0, 3.0])
    wrench = ndi_invert(PseudoControl(v_p=np.zeros(3), v_att=np.zeros(3)),
                        omega, model)
    j = np.diag(params.inertia)
    np.testing.assert_allclose(wrench[3:], np.cross(omega, j * omega),
                               atol=1e-12)


def test_shaper_converges_to_step():
    shaper = ReferenceShaper(DT)
    target = np.array([1.0, -2.0, 0.5])
    ref = None
    for _ in range(int(4.0 / DT)):
        ref = shaper.step(target, np.zeros(3))
    np.testing.assert_allclose(ref.p_d, target, atol=1e-3)
    np.testing.assert_allclose(ref.v_d, 0.0, atol=1e-3)


def test_shaper_no_overshoot():
    # critically damped: shaped position must stay within [0, target]
    shaper = ReferenceShaper(DT)
    peak = -np.inf
    for _ in range(int(5.0 / DT)):
        ref = shaper.step(np.array([1.0, 0, 0]), np.zeros(3))
        peak = max(peak, ref.p_d[0])
    assert peak <= 1.0 + 1e-9


def test_shaper_derivative_consistency():
    # v_d must be the numeric derivative of p_d
    shaper = ReferenceShaper(DT)
    ps, vs = [], []
    for _ in range(int(2.0 / DT)):
        ref = shaper.step(np.array([1.0, 0, 0]), np.zeros(3))
        ps.append(ref.p_d[0])
        vs.append(ref.v_d[0])
    ps, vs = np.array(ps), np.array(vs)
    num = np.gradient(ps, DT)
    assert np.abs(num[2:-2] - vs[2:-2]).max() < 2e-3


def test_shaper_attitude_quaternion_consistency():
    shaper = ReferenceShaper(DT)
    ref = None
    rpy_t = np.array([0.1, -0.05, 0.4])
    for _ in range(int(3.0 / DT)):
        ref = shaper.step(np.zeros(3), rpy_t)
    np.testing.assert_allclose(ref.q_d, quat_from_rpy(*rpy_t), atol=1e-3)
    np.testing.assert_allclose(ref.omega_d, 0.0, atol=1e-3)


def test_geo_hover_outputs_trim(params, trim):
    ctrl = GeoNdiController(make_model(params), Gains(), DT)
    ctrl.warm_start(np.zeros(3), HOVER_Q, trim)
    cmd, ref = ctrl.tick(np.zeros(3), np.zeros(3), hover_inputs(trim))
    np.testing.assert_allclose(cmd.w_cmd, trim.w_cmd, rtol=1e-9)
    assert not cmd.saturated.any()


def test_indi_hover_outputs_trim(params, trim):
    ctrl = IndiController(make_model(params), Gains(), DT)
    ctrl.warm_start(np.zeros(3), HOVER_Q, trim)
    for _ in range(5):
        cmd, ref = ctrl.tick(np.zeros(3), np.zeros(3), hover_inputs(trim))
    np.testing.assert_allclose(cmd.w_cmd, trim.w_cmd, rtol=1e-6)


def test_indi_increment_tracks_measured_rotor_state(params, trim):
    # same pseudo-control demand on top of a lower measured rotor speed
    # yields a lower command: increments ride on the measurement
    ctrl = IndiController(make_model(params), Gains(), DT)
    ctrl.warm_start(np.zeros(3), HOVER_Q, trim)
    low = hover_inputs(trim)
    low = ControllerInputs(pos=low.pos, vel=low.vel, q=low.q, gyro=low.gyro,
                           accel=low.accel, rotor_w_meas=0.9 * trim.w_cmd)
    for _ in range(400):
        cmd, _ = ctrl.tick(np.zeros(3), np.zeros(3), low)
    assert np.all(cmd.u < trim.u)


def test_mismatched_model_scales_inverse(params, trim):
    # halving the believed force coefficient doubles the commanded u at
    # hover for the model-based controller
    ctrl_full = GeoNdiController(make_model(params, 1.0), Gains(), DT)
    ctrl_half = GeoNdiController(make_model(params, 0.5), Gains(), DT)
    for c in (ctrl_full, ctrl_half):
        c.warm_start(np.zeros(3), HOVER_Q, trim)
    cmd_full, _ = ctrl_full.tick(np.zeros(3), np.zeros(3), hover_inputs(trim))
    cmd_half, _ = ctrl_half.tick(np.zeros(3), np.zeros(3), hover_inputs(trim))
    np.testing.assert_allclose(cmd_half.u, 2 * cmd_full.u, rtol=1e-9)


def test_make_controller_kinds(params):
    model = make_model(params)
    assert make_controller("geo", model, Gains(), DT).name == "geo"
    assert make_controller("indi", model, Gains(), DT).name == "indi"
    with pytest.raises(ValueError):
        make_controller("pid", model, Gains(), DT)
