import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hexsim import dynamics as dyn
from hexsim import vehicle
from hexsim.control import (ControllerInputs, Gains, GeoNdiController,
                            IndiController, PoseReference, ReferenceShaper,
                            _ShapedAxes, indi_invert, make_controller,
                            make_model, ndi_invert, outer_loop)
from hexsim.experiments import CONTROLLER_FREQS
from hexsim.geometry import E3, quat_from_rpy, quat_to_rotmat, rotmat
from hexsim.vehicle import GRAVITY
import oracles
from oracles import (NumpyGeo, NumpyIndi, NumpyShaper, bits, numpy_allocate,
                     numpy_ndi_invert, numpy_outer_loop, numpy_saturate,
                     pack, platforms, unit)

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
    v_p, v_att = outer_loop(Gains(), ref, np.zeros(3), np.zeros(3),
                            np.array([1.0, 0, 0, 0]), np.zeros(3))
    np.testing.assert_allclose(v_p, [0, 0, 1.0], atol=1e-12)
    np.testing.assert_allclose(v_att, [0.5, 0, 0], atol=1e-12)


def test_outer_loop_proportional_terms():
    g = Gains()
    v_p, v_att = outer_loop(g, hover_reference(), np.array([-1.0, 0, 0]),
                            np.zeros(3), np.array([1.0, 0, 0, 0]),
                            np.array([0, 0, 0.1]))
    np.testing.assert_allclose(v_p, [g.k_p, 0, 0], atol=1e-12)
    np.testing.assert_allclose(v_att, [0, 0, -g.k_w * 0.1], atol=1e-12)


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
    wrench = ndi_invert((np.zeros(3), np.zeros(3)), omega, model)
    j = np.asarray(params.inertia)
    np.testing.assert_allclose(wrench[3:], np.cross(omega, j * omega),
                               atol=1e-12)


@pytest.mark.parametrize("cf_factor,holds", [(1.0, True), (0.5, False)],
                         ids=["ideal", "cf-mismatch-0.5"])
@settings(max_examples=100, deadline=None)
@given(params=platforms(),
       q=st.tuples(unit, unit, unit, unit).filter(
           lambda q: sum(v * v for v in q) > 1e-2),
       omega=st.tuples(*[st.floats(-5.0, 5.0)] * 3),
       share=st.tuples(*[st.floats(0.0, 1.0)] * 6),
       v_p=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
       v_att=st.tuples(*[st.floats(-100.0, 100.0)] * 3))
def test_indi_equals_ndi_on_truth_measurements_over_platforms(
        params, q, omega, share, v_p, v_att, cf_factor, holds):
    # fed the truth's specific force, angular acceleration and
    # u0 = w|w|, u0 plus INDI's allocated increment is NDI's allocation
    # of the same pseudo control, before saturation, when the model is
    # the truth: unlike a hover, this tells the two inversions apart.
    # With the believed c_f halved the identity fails on every draw.
    # The scale is u0 as well as u, as the increment cancels F(q) u0.
    rates, _, specific_force = dyn.make_step(params)
    q = (np.array(q) / np.linalg.norm(q)).tolist()
    w = [params.w_min + s * (params.w_max - params.w_min) for s in share]
    x = pack(np.zeros(3), np.zeros(3), q, omega, w).tolist()
    f = specific_force(x, (0.0, 0.0, 0.0))
    omega_dot = rates(*q, *omega, *w, (*w, *[0.0] * 6))[7:10]
    model = make_model(params, cf_factor)
    rot = rotmat(q)
    nu = (list(v_p), list(v_att))
    u0 = np.array(w) * np.abs(w)
    u_indi = u0 + vehicle.solve_wrench(
        model.effectiveness, q, indi_invert(nu, rot, f, omega_dot, model))
    u_ndi = np.array(vehicle.solve_wrench(
        model.effectiveness, q, ndi_invert(nu, omega, model)))
    gap = np.abs(u_indi - u_ndi).max() / max(np.abs(u_ndi).max(),
                                             np.abs(u0).max())
    assert (gap <= 1e-12) == holds


@pytest.mark.parametrize("freq", CONTROLLER_FREQS)
@pytest.mark.parametrize("wn", [4.0, 12.0])
def test_shaper_discretisation_matches_expm(freq, wn):
    # zero-order hold of [x, x', target] with the target held constant
    a = np.array([[0.0, 1.0, 0.0],
                  [-wn ** 2, -2.0 * wn, wn ** 2],
                  [0.0, 0.0, 0.0]])
    m = expm(a / freq)
    axes = _ShapedAxes(1.0 / freq, wn)
    np.testing.assert_allclose(axes.ad, m[:2, :2], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(axes.bd, m[:2, 2], rtol=1e-12, atol=0.0)


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
    assert not np.asarray(cmd.saturated).any()


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
                           accel=low.accel,
                           rotor_w_meas=0.9 * np.asarray(trim.w_cmd))
    for _ in range(400):
        cmd, _ = ctrl.tick(np.zeros(3), np.zeros(3), low)
    assert np.all(np.asarray(cmd.u) < np.asarray(trim.u))


def test_mismatched_model_scales_inverse(params, trim):
    # halving the believed force coefficient doubles the commanded u at
    # hover for the model-based controller
    ctrl_full = GeoNdiController(make_model(params, 1.0), Gains(), DT)
    ctrl_half = GeoNdiController(make_model(params, 0.5), Gains(), DT)
    for c in (ctrl_full, ctrl_half):
        c.warm_start(np.zeros(3), HOVER_Q, trim)
    cmd_full, _ = ctrl_full.tick(np.zeros(3), np.zeros(3), hover_inputs(trim))
    cmd_half, _ = ctrl_half.tick(np.zeros(3), np.zeros(3), hover_inputs(trim))
    np.testing.assert_allclose(cmd_half.u, 2 * np.asarray(cmd_full.u),
                               rtol=1e-9)


def test_make_model_scales_the_force_coefficient(params):
    # the belief is the platform itself at factor 1; otherwise a copy
    # with c_f scaled and c_tau untouched, which builds its own matrix
    assert make_model(params) is params
    assert make_model(params, 1.0) is params
    half = make_model(params, 0.5)
    assert make_model(params, 0.5) is half
    assert half.c_f == pytest.approx(0.5 * params.c_f)
    assert half.c_tau == params.c_tau
    assert half.effectiveness is not params.effectiveness
    np.testing.assert_allclose(half.effectiveness.F1,
                               0.5 * params.effectiveness.F1)


def test_make_controller_kinds(params):
    model = make_model(params)
    assert make_controller("geo", model, Gains(), DT).name == "geo"
    assert make_controller("indi", model, Gains(), DT).name == "indi"
    with pytest.raises(ValueError):
        make_controller("pid", model, Gains(), DT)


@pytest.mark.parametrize("kind", ["geo", "indi"])
@pytest.mark.parametrize("dt", [math.nan, math.inf, -DT, 0.0])
def test_a_controller_needs_a_finite_positive_dt(params, kind, dt):
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        make_controller(kind, make_model(params), Gains(), dt)


@pytest.mark.parametrize("cutoff, damping", [
    (math.nan, 0.7), (math.inf, 0.7), (0.0, 0.7), (15.0, math.nan)])
def test_indi_rejects_filter_settings_before_its_first_tick(
        params, trim, cutoff, damping):
    ctrl = make_controller("indi", make_model(params), Gains(), DT, cutoff,
                           damping)
    with pytest.raises(ValueError):
        ctrl.warm_start((0.0, 0.0, 0.0), HOVER_Q, trim)
    assert ctrl.state is None


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_reference(rng):
    return PoseReference(
        p_d=rng.normal(size=3), v_d=rng.normal(size=3),
        a_d=rng.normal(size=3), q_d=random_unit_quat(rng),
        omega_d=rng.uniform(-3.0, 3.0, 3),
        omega_dot_d=rng.uniform(-10.0, 10.0, 3))


def random_inputs(rng, params):
    """Controller inputs around hover: a random attitude, body rates up to
    3 rad/s, specific force near g and rotor speeds in the actuator range,
    all as lists of Python floats like run_scenario passes them."""
    return ControllerInputs(
        pos=rng.normal(size=3).tolist(), vel=rng.normal(size=3).tolist(),
        q=random_unit_quat(rng).tolist(),
        gyro=rng.uniform(-3.0, 3.0, 3).tolist(),
        accel=(GRAVITY * E3 + rng.normal(0.0, 2.0, 3)).tolist(),
        rotor_w_meas=rng.uniform(params.w_min, params.w_max, 6).tolist())


def as_arrays(inputs):
    return ControllerInputs(**{k: np.array(v)
                               for k, v in inputs.__dict__.items()})


def assert_reference_close(ref, oracle):
    for name in ("p_d", "v_d", "a_d", "q_d", "omega_d", "omega_dot_d"):
        np.testing.assert_allclose(getattr(ref, name), getattr(oracle, name),
                                   rtol=1e-12, atol=0.0, err_msg=name)


def assert_command_close(cmd, oracle):
    np.testing.assert_allclose(cmd.u, oracle.u, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(cmd.w_cmd, oracle.w_cmd, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(cmd.saturated, oracle.saturated)


def test_shaper_matches_numpy_oracle(rng):
    for _ in range(300):
        shaper, oracle = ReferenceShaper(DT), NumpyShaper(DT)
        pos, rpy = rng.normal(size=3), rng.uniform(-0.5, 0.5, 3)
        shaper.reset_to(pos, rpy)
        oracle.reset_to(pos, rpy)
        for _ in range(2):
            target_pos = tuple(rng.normal(size=3).tolist())
            target_rpy = tuple(rng.uniform(-0.8, 0.8, 3).tolist())
            assert_reference_close(shaper.step(target_pos, target_rpy),
                                   oracle.step(target_pos, target_rpy))


def test_outer_loop_matches_numpy_oracle(params, rng):
    gains = Gains()
    for _ in range(300):
        ref = random_reference(rng)
        inputs = random_inputs(rng, params)
        float_ref = PoseReference(**{k: v.tolist()
                                     for k, v in ref.__dict__.items()})
        v_p, v_att = outer_loop(gains, float_ref, inputs.pos, inputs.vel,
                                inputs.q, inputs.gyro)
        arrays = as_arrays(inputs)
        expected_p, expected_att = numpy_outer_loop(
            gains, ref, arrays.pos, arrays.vel, arrays.q, arrays.gyro)
        np.testing.assert_allclose(v_p, expected_p, rtol=1e-12, atol=0)
        np.testing.assert_allclose(v_att, expected_att, rtol=1e-12, atol=0)


def test_ndi_invert_matches_numpy_oracle(params, rng):
    model = make_model(params)
    for _ in range(300):
        nu = (rng.normal(0.0, 3.0, 3).tolist(),
              rng.normal(0.0, 30.0, 3).tolist())
        omega = rng.uniform(-5.0, 5.0, 3)
        np.testing.assert_allclose(
            ndi_invert(nu, omega.tolist(), model),
            numpy_ndi_invert(nu, omega, model), rtol=1e-12, atol=0.0)


def test_allocate_matches_numpy_oracle(params, eff, rng):
    hover = params.mass * GRAVITY
    for _ in range(300):
        q = random_unit_quat(rng)
        # about half of the demands saturate some rotor
        body_force = [rng.normal(0.0, 6.0), rng.normal(0.0, 6.0),
                      hover * rng.uniform(0.5, 2.5)]
        wrench = np.concatenate([quat_to_rotmat(q) @ body_force,
                                 rng.normal(0.0, 1.0, 3)])
        assert_command_close(
            vehicle.allocate(eff, q.tolist(), wrench.tolist()),
            numpy_allocate(eff, q, wrench))
        u = rng.uniform(0.0, 1.5 * eff.u_max, 6)
        assert_command_close(vehicle.saturate(eff, u.tolist()),
                             numpy_saturate(eff, u))


def test_indi_update_matches_numpy_oracle(params, trim, rng):
    model = make_model(params, 0.8)
    for _ in range(300):
        ctrl = IndiController(model, Gains(), DT)
        oracle = NumpyIndi(model, Gains(), DT)
        pos, q = rng.normal(size=3), random_unit_quat(rng)
        ctrl.warm_start(pos, q, trim)
        oracle.warm_start(pos, q, trim)
        # the first tick differentiates against the reset gyro, the later
        # ones against the filtered gyro of the tick before
        for _ in range(3):
            inputs = random_inputs(rng, params)
            target_pos = tuple(rng.normal(size=3).tolist())
            target_rpy = tuple(rng.uniform(-0.5, 0.5, 3).tolist())
            cmd, ref = ctrl.tick(target_pos, target_rpy, inputs)
            cmd_o, ref_o = oracle.tick(target_pos, target_rpy,
                                       as_arrays(inputs))
            assert_command_close(cmd, cmd_o)
            assert_reference_close(ref, ref_o)


@pytest.mark.parametrize("kind,oracle_cls", [("geo", NumpyGeo),
                                             ("indi", NumpyIndi)])
def test_whole_tick_matches_numpy_oracle(params, kernel, trim, kind,
                                         oracle_cls):
    # 600 closed-loop ticks at 500 Hz with noisy sensors, flying a
    # position and attitude step; both controllers see the same inputs
    model = make_model(params, 0.9)
    ctrl = make_controller(kind, model, Gains(), DT)
    oracle = oracle_cls(model, Gains(), DT)
    ctrl.warm_start(np.zeros(3), HOVER_Q, trim)
    oracle.warm_start(np.zeros(3), HOVER_Q, trim)
    normals = oracles.Normals(np.random.default_rng(11))
    x = pack(np.zeros(3), np.zeros(3), HOVER_Q, np.zeros(3), trim.w_cmd)
    calm = [(0.0,) * 6] * 4  # a tick's four truth steps, no wrench
    for tick in range(600):
        target_pos = (0.5, -0.3, 0.2) if tick >= 50 else (0.0, 0.0, 0.0)
        target_rpy = (0.1, -0.1, 0.4) if tick >= 50 else (0.0, 0.0, 0.0)
        xs = np.asarray(x).tolist()
        accel, gyro, w_meas = dyn.synthesize_sensors(
            xs, kernel, (0.0, 0.0, 0.0), math.sqrt(7.0), normals)
        inputs = ControllerInputs(
            pos=xs[dyn.P], vel=xs[dyn.V], q=xs[dyn.Q], gyro=gyro,
            accel=accel, rotor_w_meas=w_meas)
        cmd, ref = ctrl.tick(target_pos, target_rpy, inputs)
        cmd_o, ref_o = oracle.tick(target_pos, target_rpy, as_arrays(inputs))
        assert_command_close(cmd, cmd_o)
        assert_reference_close(ref, ref_o)
        x = dyn.step(x, kernel, cmd, calm, dyn.SIM_DT)


# ---------------------------------------------------------------------------
# bit-for-bit oracles: the straight-line tick against the forms it
# replaced (oracles.py), compared with float.hex so a zero keeps its sign

def assert_same_reference(ref, oracle):
    for name in ("p_d", "v_d", "a_d", "q_d", "omega_d", "omega_dot_d"):
        assert bits(getattr(ref, name)) == bits(getattr(oracle, name)), name


def assert_same_command(cmd, oracle):
    assert bits(cmd.u) == bits(oracle.u)
    assert bits(cmd.w_cmd) == bits(oracle.w_cmd)
    assert cmd.saturated == oracle.saturated


def random_targets(rng, case):
    """A position and attitude target; every fourth case draws zeros of
    either sign, where the Euler-rate product could lose a sign."""
    if case % 4 == 0:
        return (tuple(rng.choice([0.0, -0.0], 3).tolist()),
                tuple(rng.choice([0.0, -0.0], 3).tolist()))
    return (tuple(rng.normal(size=3).tolist()),
            tuple(rng.uniform(-0.8, 0.8, 3).tolist()))


@pytest.mark.parametrize("dt", [DT, 0.02])
def test_shaper_equals_float_oracle(rng, dt):
    for case in range(300):
        shaper, oracle = ReferenceShaper(dt), oracles.ReferenceShaper(dt)
        pos, rpy = random_targets(rng, case)
        shaper.reset_to(pos, rpy)
        oracle.reset_to(pos, rpy)
        for _ in range(2):
            target_pos, target_rpy = random_targets(rng, case)
            assert_same_reference(shaper.step(target_pos, target_rpy),
                                  oracle.step(target_pos, target_rpy))


def test_outer_loop_equals_float_oracle(params, rng):
    gains = Gains(k_p=5.0, k_v=3.5, k_q=150.0, k_w=22.0)
    for _ in range(300):
        ref = random_reference(rng)
        ref = PoseReference(**{k: v.tolist() for k, v in ref.__dict__.items()})
        inputs = random_inputs(rng, params)
        expected_p, expected_att = oracles.outer_loop(
            gains, ref, inputs.pos, inputs.vel, inputs.q, inputs.gyro)
        v_p, v_att = outer_loop(gains, ref, inputs.pos, inputs.vel,
                                inputs.q, inputs.gyro)
        assert bits(v_p) == bits(expected_p)
        assert bits(v_att) == bits(expected_att)


def test_allocation_equals_float_oracle(params, eff, rng):
    hover = params.mass * GRAVITY
    for case in range(300):
        q = random_unit_quat(rng).tolist()
        body_force = [rng.normal(0.0, 6.0), rng.normal(0.0, 6.0),
                      hover * rng.uniform(0.5, 2.5)]
        wrench = (quat_to_rotmat(q) @ body_force).tolist() + rng.normal(
            0.0, 1.0, 3).tolist()
        assert bits(vehicle.solve_wrench(eff, q, wrench)) == bits(
            oracles.solve_wrench(eff, q, wrench))
        assert_same_command(vehicle.allocate(eff, q, wrench),
                            oracles.allocate(eff, q, wrench))
        # inside, outside and exactly on the limits, and a NaN
        u = rng.uniform(0.0, 1.5 * eff.u_max, 6).tolist()
        u[case % 6] = (eff.u_min, eff.u_max, math.nan)[case % 3]
        assert_same_command(vehicle.saturate(eff, u),
                            oracles.saturate(eff, u))


@pytest.mark.parametrize("kind", ["geo", "indi"])
def test_tick_equals_float_oracle(params, trim, rng, kind):
    oracle_cls = {"geo": oracles.GeoNdiController,
                  "indi": oracles.IndiController}[kind]
    model = make_model(params, 0.8)
    for case in range(300):
        ctrl = make_controller(kind, model, Gains(), DT)
        oracle = oracle_cls(model, Gains(), DT)
        pos, q = rng.normal(size=3), random_unit_quat(rng)
        ctrl.warm_start(pos, q, trim)
        oracle.warm_start(pos, q, trim)
        for _ in range(3):
            inputs = random_inputs(rng, params)
            target_pos, target_rpy = random_targets(rng, case)
            cmd, ref = ctrl.tick(target_pos, target_rpy, inputs)
            cmd_o, ref_o = oracle.tick(target_pos, target_rpy, inputs)
            assert_same_command(cmd, cmd_o)
            assert_same_reference(ref, ref_o)


@pytest.mark.parametrize("kind", ["geo", "indi"])
def test_closed_loop_equals_float_oracle(params, kernel, trim, kind):
    # 600 closed-loop ticks at 500 Hz with noisy sensors, flying a
    # position and attitude step; the oracle tick sees the same inputs
    oracle_cls = {"geo": oracles.GeoNdiController,
                  "indi": oracles.IndiController}[kind]
    model = make_model(params, 0.9)
    ctrl = make_controller(kind, model, Gains(), DT)
    oracle = oracle_cls(model, Gains(), DT)
    ctrl.warm_start(np.zeros(3), HOVER_Q, trim)
    oracle.warm_start(np.zeros(3), HOVER_Q, trim)
    noise = oracles.NoiseSpec(rotor_sigma=0.0, scale=math.sqrt(7.0))
    normals = oracles.Normals(np.random.default_rng(11))
    rng_o = np.random.default_rng(11)
    x = pack(np.zeros(3), np.zeros(3), HOVER_Q, np.zeros(3),
             trim.w_cmd).tolist()
    zero = (0.0, 0.0, 0.0)
    calm = [(0.0,) * 6] * 4  # a tick's four truth steps, no wrench
    for tick in range(600):
        target_pos = (0.5, -0.3, 0.2) if tick >= 50 else zero
        target_rpy = (0.1, -0.1, 0.4) if tick >= 50 else zero
        accel_w = dyn.acceleration(x, kernel, zero)
        sensors = dyn.synthesize_sensors(x, kernel, zero, noise.scale,
                                         normals)
        sensors_o = oracles.synthesize_sensors(x, accel_w, noise, rng_o)
        assert bits(sensors) == bits(vars(sensors_o).values())
        accel, gyro, w_meas = sensors
        inputs = ControllerInputs(
            pos=x[dyn.P], vel=x[dyn.V], q=x[dyn.Q], gyro=gyro,
            accel=accel, rotor_w_meas=w_meas)
        cmd, ref = ctrl.tick(target_pos, target_rpy, inputs)
        cmd_o, ref_o = oracle.tick(target_pos, target_rpy, inputs)
        assert_same_command(cmd, cmd_o)
        assert_same_reference(ref, ref_o)
        x = dyn.step(x, kernel, cmd, calm, dyn.SIM_DT)


@pytest.mark.parametrize("kind", ["geo", "indi"])
def test_a_tick_before_warm_start_raises(params, trim, kind):
    ctrl = make_controller(kind, make_model(params), Gains(), DT)
    with pytest.raises(RuntimeError, match="after its warm_start"):
        ctrl.tick((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), hover_inputs(trim))


@pytest.mark.parametrize("kind", ["geo", "indi"])
def test_a_warm_controller_keeps_only_its_arrays(params, trim, kind):
    # warm_start reads a shaper's (and a filter bank's and a gyro
    # difference's) coefficients and warm state into the two arrays and
    # keeps none of the objects; a tick updates the state in place
    ctrl = make_controller(kind, make_model(params), Gains(), DT)
    ctrl.warm_start((0.0, 0.0, 0.0), HOVER_Q, trim)
    assert set(vars(ctrl)) == {"model", "gains", "dt", "constants", "state",
                               *(("filter_cutoff_hz", "filter_damping")
                                 if kind == "indi" else ())}
    state, before = ctrl.state, bytes(ctrl.state)
    ctrl.tick((0.1, 0.0, 0.0), (0.0, 0.0, 0.2), hover_inputs(trim))
    assert ctrl.state is state and bytes(state) != before


def test_the_compiled_tick_checks_its_arguments(params, trim):
    # 8 arguments tick geo, 10 indi, each on arrays of its own length; a
    # rejected call leaves the state as it was
    geo, indi = (make_controller(kind, make_model(params), Gains(), DT)
                 for kind in ("geo", "indi"))
    for ctrl in (geo, indi):
        ctrl.warm_start((0.0, 0.0, 0.0), HOVER_Q, trim)
    tick, i = dyn.load_truth().tick, hover_inputs(trim)
    args = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), i.pos, i.vel, i.q, i.gyro)
    before = bytes(indi.state)
    for call, error, match in [
            ((geo.constants, geo.state, *args[:-1]), TypeError, "tick"),
            ((indi.constants, indi.state, *args, i.accel), TypeError,
             "tick"),
            ((geo.constants, geo.state, *args, i.accel, i.rotor_w_meas),
             ValueError, "constants"),
            ((indi.constants, geo.state, *args, i.accel, i.rotor_w_meas),
             ValueError, "state"),
            ((indi.constants, indi.state, *args, i.accel,
              i.rotor_w_meas[:5]), ValueError, "rotor_w_meas")]:
        with pytest.raises(error, match=match):
            tick(*call)
    assert bytes(indi.state) == before


TICKS = 3  # ticks a draw flies
INPUTS = ("pos", "vel", "q", "gyro", "accel", "rotor_w_meas")
# a target component: a zero of either sign or a number
target = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5))
# an attitude within about 25 degrees of level
near_level = st.tuples(*[st.floats(-0.2, 0.2)] * 3).map(
    lambda v: (np.array([1.0, *v]) / np.linalg.norm([1.0, *v])).tolist())


def floats_near(*centre, spread):
    return st.tuples(*[st.floats(c - spread, c + spread)
                       for c in centre]).map(list)


@st.composite
def tick_inputs(draw, params):
    """The inputs of one tick near hover, as lists of floats, with rotor
    speeds across the actuator range."""
    return ControllerInputs(
        pos=draw(floats_near(0.0, 0.0, 0.0, spread=0.5)),
        vel=draw(floats_near(0.0, 0.0, 0.0, spread=0.5)),
        q=draw(near_level), gyro=draw(floats_near(0.0, 0.0, 0.0, spread=1.0)),
        accel=draw(floats_near(0.0, 0.0, GRAVITY, spread=3.0)),
        rotor_w_meas=draw(floats_near(
            *[0.5 * (params.w_min + params.w_max)] * 6,
            spread=0.5 * (params.w_max - params.w_min))))


# a failing draw is reported as drawn: shrinking the hundred-odd numbers
# of a flight takes minutes
@pytest.mark.parametrize("kind", ["geo", "indi"])
@settings(max_examples=100, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(params=platforms(), cf_mismatch=st.floats(0.5, 2.0),
       gains=st.builds(Gains, st.floats(0.5, 20.0), st.floats(0.5, 10.0),
                       st.floats(10.0, 400.0), st.floats(2.0, 60.0)),
       cutoff=st.floats(0.5, 200.0), damping=st.floats(0.05, 2.0),
       n=st.integers(1, 40), data=st.data())
def test_compiled_tick_equals_float_oracle_over_platforms(
        kind, params, cf_mismatch, gains, cutoff, damping, n, data):
    # the compiled tick against the float oracle, bit for bit, over
    # platforms, models, gains, filters and controller rates of n truth
    # steps, with targets of either zero, at times a NaN reading (it
    # passes through, unflagged) and u exactly on a limit
    compiled_cls, oracle_cls = {
        "geo": (GeoNdiController, oracles.GeoNdiController),
        "indi": (IndiController, oracles.IndiController)}[kind]
    trim = params.hover
    pos, q = data.draw(st.tuples(target, target, target)), data.draw(
        near_level)
    ticks = [(data.draw(st.tuples(target, target, target)),
              data.draw(st.tuples(target, target, target)),
              data.draw(tick_inputs(params))) for _ in range(TICKS)]
    nan = data.draw(st.none() | st.tuples(
        st.integers(0, TICKS - 1), st.sampled_from(INPUTS),
        st.integers(0, 2)))
    if nan is not None:
        at, name, i = nan
        getattr(ticks[at][2], name)[i] = math.nan

    def fly(cls, model):
        ctrl = (cls(model, gains, n * dyn.SIM_DT) if kind == "geo"
                else cls(model, gains, n * dyn.SIM_DT, cutoff, damping))
        ctrl.warm_start(pos, q, trim)
        return [ctrl.tick(*tick) for tick in ticks]

    # a limit set to a rotor's unclamped u on the first tick, which the
    # limits do not change
    model = make_model(params, cf_mismatch)
    first, _ = fly(oracle_cls, model)[0]
    free = [j for j in range(6)
            if not (first.saturated[j] or math.isnan(first.u[j]))]
    limit = data.draw(st.sampled_from([None, "u_min", "u_max"]))
    if limit is not None and free:
        j = data.draw(st.sampled_from(free))
        # the limited matrix is cached on a fresh copy of the believed
        # platform, not on the one make_model returned: at cf_mismatch 1
        # that is params itself
        limited = replace(model.effectiveness, **{limit: first.u[j]})
        model = replace(model)
        vars(model)["effectiveness"] = limited
    flown = fly(compiled_cls, model)
    for (cmd, ref), (cmd_o, ref_o) in zip(flown, fly(oracle_cls, model)):
        assert_same_command(cmd, cmd_o)
        assert_same_reference(ref, ref_o)
    if limit is not None and free:
        assert flown[0][0].u[j] == getattr(model.effectiveness, limit)
        assert not flown[0][0].saturated[j]
