import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexsim import dynamics, vehicle
from hexsim.vehicle import GRAVITY
import oracles
from oracles import (assemble_F, bits, hovering_platforms, pack, platforms,
                     quat_from_axis_angle, tilt_degs, tilt_signs, unit)


def test_default_params_values(params):
    assert params.mass == 2.95
    assert params.arm_length == 0.375
    assert params.tilt_angle == pytest.approx(np.deg2rad(30.0))
    assert params.w_min == pytest.approx(2 * np.pi * 8)
    assert params.w_max == pytest.approx(2 * np.pi * 100)
    assert params.c_tau == pytest.approx(0.016 * params.c_f)


def test_cf_thrust_to_weight_anchor(params):
    # all six rotors at w_max push 2.8x the weight vertically
    fz = 6 * params.c_f * params.w_max ** 2 * np.cos(params.tilt_angle)
    assert fz == pytest.approx(2.8 * params.mass * GRAVITY, rel=1e-12)


def test_unknown_override_rejected():
    with pytest.raises(TypeError):
        vehicle.default_params(bogus=1.0)


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        vehicle.default_params(mass=-1.0)
    with pytest.raises(ValueError):
        vehicle.default_params(w_min=700.0)  # above w_max


def test_rotor_positions_hexagon(params):
    pos = params.rotor_positions
    assert pos.shape == (6, 3)
    np.testing.assert_allclose(np.linalg.norm(pos, axis=1),
                               params.arm_length, atol=1e-12)
    # 60 degree spacing
    angles = np.unwrap(np.arctan2(pos[:, 1], pos[:, 0]))
    np.testing.assert_allclose(np.diff(angles), np.pi / 3, atol=1e-12)


def test_effectiveness_full_rank(params, eff):
    stacked = np.vstack([eff.F1, eff.F2])
    assert np.linalg.matrix_rank(stacked) == 6
    assert eff.condition_number == pytest.approx(4.987, abs=0.01)


def test_effectiveness_column_matches_rotor_geometry(params, eff):
    # column i of F1/F2 is the unit-u wrench of rotor i mapped to the body
    for i in range(6):
        R_i = params.rotor_frame(i)
        f = params.c_f * R_i[:, 2]
        np.testing.assert_allclose(eff.F1[:, i], f, atol=1e-12)
        tau = (np.cross(params.rotor_positions[i], f)
               + vehicle.ROTOR_SPIN_DIRS[i] * params.c_tau * R_i[:, 2])
        np.testing.assert_allclose(eff.F2[:, i], tau, atol=1e-12)


def test_zero_tilt_degenerate():
    flat = vehicle.default_params(tilt_angle=0.0)
    with pytest.raises(vehicle.DegenerateGeometry):
        vehicle.build_effectiveness(flat)


def test_hover_trim_speed(params, eff, trim):
    # analytic trim: 6 c_f w^2 cos(tilt) = m g
    w_expected = np.sqrt(params.mass * GRAVITY
                         / (6 * params.c_f * np.cos(params.tilt_angle)))
    np.testing.assert_allclose(trim.w_cmd, w_expected, rtol=1e-9)
    assert not np.asarray(trim.saturated).any()
    assert np.all(np.asarray(trim.w_cmd) > params.w_min)
    assert np.all(np.asarray(trim.w_cmd) < params.w_max)


def test_allocate_round_trip(params, eff, rng):
    for _ in range(100):
        axis = rng.normal(size=3)
        q = quat_from_axis_angle(axis, rng.uniform(-0.4, 0.4))
        wrench = np.concatenate([
            params.mass * GRAVITY * np.array([0, 0, 1.0])
            + rng.uniform(-3, 3, 3),
            rng.uniform(-0.3, 0.3, 3)])
        cmd = vehicle.allocate(eff, q, wrench)
        if np.asarray(cmd.saturated).any():
            continue
        F = assemble_F(eff, q)
        assert (np.linalg.norm(F @ cmd.u - wrench)
                < 1e-9 * np.linalg.norm(wrench))


def test_allocate_saturation_clamps(params, eff):
    heavy = np.array([0, 0, 10 * params.mass * GRAVITY, 0, 0, 0])
    cmd = vehicle.allocate(eff, np.array([1.0, 0, 0, 0]), heavy)
    assert np.asarray(cmd.saturated).all()
    np.testing.assert_allclose(cmd.u, params.w_max ** 2)
    np.testing.assert_allclose(cmd.w_cmd, params.w_max)


def test_allocate_negative_clamped_to_min(params, eff):
    pull_down = np.array([0, 0, -5 * params.mass * GRAVITY, 0, 0, 0])
    cmd = vehicle.allocate(eff, np.array([1.0, 0, 0, 0]), pull_down)
    # unidirectional rotors: commands clamp at the lower speed limit
    assert np.all(np.asarray(cmd.u) >= params.w_min ** 2 - 1e-12)
    assert np.all(np.asarray(cmd.w_cmd) >= params.w_min - 1e-12)


@pytest.mark.parametrize("n", [5, 7])
def test_saturate_takes_exactly_six_commands(eff, n):
    with pytest.raises(ValueError):
        vehicle.saturate(eff, [eff.u_min] * n)


def test_lateral_force_without_attitude_change(params, eff):
    # full actuation: pure lateral force demand is feasible near hover
    wrench = np.array([2.0, 0, params.mass * GRAVITY, 0, 0, 0])
    cmd = vehicle.allocate(eff, np.array([1.0, 0, 0, 0]), wrench)
    assert not np.asarray(cmd.saturated).any()
    F = assemble_F(eff, np.array([1.0, 0, 0, 0]))
    np.testing.assert_allclose(F @ cmd.u, wrench, atol=1e-9)


def test_a_platform_builds_one_read_only_matrix_and_trim():
    # every run on one PlatformParams shares its matrix and hover trim,
    # so neither can be written
    params = vehicle.default_params()
    eff = params.effectiveness
    assert params.effectiveness is eff
    assert params.hover is params.hover
    assert params.hover == vehicle.allocate(
        eff, (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, params.mass * GRAVITY, 0.0,
                                    0.0, 0.0))
    for matrix in (eff.F1, eff.F2, eff.F0_inv):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 0.0


@settings(max_examples=200, deadline=None)
@given(q=st.tuples(unit, unit, unit, unit).filter(
           lambda q: sum(v * v for v in q) > 1e-2),
       share=st.tuples(*[st.floats(0.01, 0.99)] * 6))
def test_allocate_reproduces_feasible_wrench(eff, q, share):
    # a wrench made by rotor commands inside the limits is feasible at any
    # attitude, so allocation must return those commands and reproduce it
    q = np.array(q) / np.linalg.norm(q)
    u = eff.u_min + np.array(share) * (eff.u_max - eff.u_min)
    F = assemble_F(eff, q)
    wrench = F @ u
    cmd = vehicle.allocate(eff, q, wrench)
    assert not np.asarray(cmd.saturated).any()
    np.testing.assert_allclose(cmd.u, u, rtol=1e-9)
    assert (np.linalg.norm(F @ cmd.u - wrench)
            <= 1e-9 * np.linalg.norm(wrench))


shares = st.tuples(*[st.floats(0.01, 0.99)] * 6)


@settings(max_examples=100, deadline=None)
@given(tilt_deg=tilt_degs, sign=tilt_signs, share=shares)
def test_full_rank_over_tilt_range(tilt_deg, sign, share):
    # the fixed alternating tilt/spin layout is fully actuated at every
    # nonzero tilt below 90 deg (the condition number reaches about 8e3
    # at 0.01 deg), so a feasible wrench is reproduced exactly
    params = vehicle.default_params(tilt_angle=sign * np.deg2rad(tilt_deg))
    eff = vehicle.build_effectiveness(params)
    assert np.linalg.matrix_rank(np.vstack([eff.F1, eff.F2])) == 6
    u = eff.u_min + np.array(share) * (eff.u_max - eff.u_min)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    wrench = assemble_F(eff, q) @ u
    cmd = vehicle.allocate(eff, q, wrench)
    assert not np.asarray(cmd.saturated).any()
    np.testing.assert_allclose(cmd.u, u, rtol=1e-9)


@settings(max_examples=200, deadline=None)
@given(tilt_deg=tilt_degs, sign=tilt_signs, arm=st.floats(0.05, 1.0),
       c_f=st.floats(1e-7, 1e-3), c_tau_share=st.floats(0.005, 0.05))
@example(tilt_deg=45.0, sign=1.0, arm=0.05, c_f=1e-3, c_tau_share=0.05)
def test_effectiveness_equals_the_cross_product_form(tilt_deg, sign, arm,
                                                     c_f, c_tau_share):
    # the moment columns are np.cross's own expressions over floats, so
    # every matrix and the condition number keep numpy's bits, and the
    # package rejects exactly the layouts whose singular values fail
    # its rank rule (the example: condition number 6.3e17)
    params = vehicle.default_params(
        tilt_angle=sign * np.deg2rad(tilt_deg), arm_length=arm, c_f=c_f,
        c_tau=c_tau_share * c_f)
    want = oracles.numpy_build_effectiveness(params)
    sv = np.linalg.svd(np.vstack([want.F1, want.F2]), compute_uv=False)
    if sv[-1] < 1e-9 * sv[0]:
        with pytest.raises(vehicle.DegenerateGeometry):
            vehicle.build_effectiveness(params)
        return
    got = vehicle.build_effectiveness(params)
    for name in ("F1", "F2", "F0_inv"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert bits([got.condition_number, got.u_min, got.u_max]) == bits(
        [want.condition_number, want.u_min, want.u_max])


@settings(max_examples=100, deadline=None)
@given(params=hovering_platforms)
def test_hover_trim_is_an_equilibrium_over_platforms(params):
    # at the trim, level and at rest, the truth kernel's rates of v,
    # omega and the rotor speeds vanish up to rounding
    w = params.hover.w_cmd
    rates, _, _ = dynamics.make_step(params)
    r = rates(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, *w, (*w, *[0.0] * 6))
    moment = params.mass * GRAVITY * params.arm_length
    assert np.abs(r[0:3]).max() <= 1e-9 * GRAVITY
    np.testing.assert_allclose(r[7:10], 0.0,
                               atol=1e-9 * moment / min(params.inertia))
    assert r[3:7] == (0.0, 0.0, 0.0, 0.0)
    assert r[10:16] == (0.0,) * 6


@settings(max_examples=100, deadline=None)
@given(params=hovering_platforms,
       q=st.tuples(unit, unit, unit, unit).filter(
           lambda q: sum(v * v for v in q) > 1e-2),
       share=shares)
def test_allocation_is_exact_over_platforms(params, q, share):
    # a wrench made by rotor commands inside the limits is reproduced
    eff = vehicle.build_effectiveness(params)
    q = np.array(q) / np.linalg.norm(q)
    u = eff.u_min + np.array(share) * (eff.u_max - eff.u_min)
    F = assemble_F(eff, q)
    wrench = F @ u
    cmd = vehicle.allocate(eff, q, wrench)
    assert not np.asarray(cmd.saturated).any()
    np.testing.assert_allclose(cmd.u, u, rtol=1e-9)
    assert (np.linalg.norm(F @ cmd.u - wrench)
            <= 1e-9 * np.linalg.norm(wrench))


@settings(max_examples=100, deadline=None)
@given(params=platforms(), seed=st.integers(0, 2 ** 32 - 1),
       noisy=st.booleans())
def test_fused_accelerometer_equals_two_call_form_over_platforms(
        params, seed, noisy):
    # the kernel's specific force, and the readings synthesize_sensors
    # makes of it, equal dynamics.acceleration followed by the sensor
    # oracle bit for bit, at a random state and disturbance force
    kernel = dynamics.make_step(params)
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    x = pack(rng.normal(size=3), rng.normal(size=3),
             q / np.linalg.norm(q), rng.uniform(-5.0, 5.0, 3),
             rng.uniform(params.w_min, params.w_max, 6)).tolist()
    dist_f = rng.normal(0.0, 3.0, 3).tolist()
    scale = np.sqrt(7.0) if noisy else 0.0
    accel_w = dynamics.acceleration(x, kernel, dist_f)
    got = dynamics.synthesize_sensors(
        x, kernel, dist_f, scale, np.random.default_rng(seed))
    want = oracles.synthesize_sensors(
        x, accel_w, oracles.NoiseSpec(rotor_sigma=0.0, scale=scale),
        np.random.default_rng(seed))
    assert bits(got) == bits(vars(want).values())
    specific_force = kernel.specific_force
    noiseless = oracles.synthesize_sensors(
        x, accel_w, oracles.NoiseSpec(scale=0.0), None)
    assert bits(specific_force(x, dist_f)) == bits(noiseless.accel)
