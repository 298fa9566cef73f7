import os
import pickle
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsim import dynamics as dyn
from hexsim import vehicle
from hexsim.geometry import E3
from hexsim.vehicle import GRAVITY
import oracles
from oracles import bits, numpy_step, pack


CALM = (0.0,) * 6  # a held wrench with no force and no moment


def at(t):
    """The truth step that starts at time t."""
    return int(round(t / dyn.SIM_DT))


def hover_state(trim):
    return pack(np.zeros(3), np.zeros(3), [1.0, 0, 0, 0], np.zeros(3),
                trim.w_cmd)


def test_hover_is_equilibrium(kernel, trim):
    state = dyn.step(hover_state(trim), kernel, trim,
                     [CALM] * int(1.0 / dyn.SIM_DT), dyn.SIM_DT)
    assert np.linalg.norm(state[dyn.P]) < 1e-9
    assert np.linalg.norm(state[dyn.V]) < 1e-9
    assert np.linalg.norm(state[dyn.OMEGA]) < 1e-9


def test_free_fall_when_rotors_stopped(params, kernel, trim):
    # zero commanded speed: thrust decays at the motor-lag rate, vehicle
    # descends
    zero_cmd = vehicle.ActuatorCommand(
        u=np.zeros(6), w_cmd=np.full(6, params.w_min),
        saturated=np.ones(6, dtype=bool))
    state = dyn.step(hover_state(trim), kernel, zero_cmd,
                     [CALM] * int(0.5 / dyn.SIM_DT), dyn.SIM_DT)
    assert state[dyn.V][2] < -1.0
    assert state[dyn.P][2] < -0.2


def test_motor_lag_63_percent(params, kernel, trim):
    stepped = vehicle.ActuatorCommand(
        u=(1.2 * np.asarray(trim.w_cmd)) ** 2,
        w_cmd=1.2 * np.asarray(trim.w_cmd),
        saturated=np.zeros(6, dtype=bool))
    n = int(round(params.motor_time_constant / dyn.SIM_DT))
    state = dyn.step(hover_state(trim), kernel, stepped, [CALM] * n,
                     dyn.SIM_DT)
    frac = (state[dyn.ROTOR_W][0] - trim.w_cmd[0]) / (0.2 * trim.w_cmd[0])
    assert frac == pytest.approx(1 - np.exp(-1), abs=0.02)


def test_quaternion_stays_normalized(kernel, trim, rng):
    state = hover_state(trim)
    state[dyn.OMEGA] = [2.0, -1.0, 0.5]
    for _ in range(2000):
        state = dyn.step(state, kernel, trim, [CALM], dyn.SIM_DT)
        assert np.linalg.norm(state[dyn.Q]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block", [dyn.P, dyn.V, dyn.Q, dyn.OMEGA,
                                   dyn.ROTOR_W],
                         ids=["p", "v", "q", "omega", "rotor_w"])
def test_nonfinite_state_raises(kernel, trim, block):
    state = hover_state(trim)
    state[block.start] = np.inf
    with pytest.raises(dyn.NonFiniteState) as info:
        dyn.step(state, kernel, trim, [CALM] * 3, dyn.SIM_DT)
    # the first step diverges, from the state it was given
    assert info.value.offset == 0
    assert bits(info.value.state) == bits(state)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n, bad", [(1, 0), (4, 3), (40, 17), (40, 39)])
def test_divergence_reports_its_step_and_the_last_finite_state(kernel, trim,
                                                               n, bad):
    # a NaN wrench at offset `bad` of an n-step call: the call reports
    # that offset and the state after the `bad` clean steps before it,
    # bit for bit, and the exception survives a pickle round trip (its
    # fields ride in its args, as a process pool that sent it between
    # processes would need; no hexsim command pickles it)
    wrenches = [(0.1, -0.2, 0.3, 0.01, 0.0, -0.02)] * n
    wrenches[bad] = (np.nan, 0.0, 0.0, 0.0, 0.0, 0.0)
    state = hover_state(trim).tolist()
    with pytest.raises(dyn.NonFiniteState) as info:
        dyn.step(state, kernel, trim, wrenches, dyn.SIM_DT)
    exc = pickle.loads(pickle.dumps(info.value))
    assert exc.offset == bad
    assert bits(exc.state) == bits(
        dyn.step(state, kernel, trim, wrenches[:bad], dyn.SIM_DT))
    assert np.isfinite(exc.state).all()


def test_constant_disturbance_window():
    spec = dyn.DisturbanceSpec(kind="constant_load",
                               force=np.array([1.0, 0, 0]),
                               moment=np.array([0, 0.1, 0]),
                               t_on=2.0, t_off=5.0)
    sampler = dyn.DisturbanceSampler(spec, dyn.SIM_DT,
                                     np.random.default_rng(0))
    (off,) = sampler.step(at(1.0), 1)
    assert not np.asarray(off).any()
    (on,) = sampler.step(at(3.0), 1)
    np.testing.assert_array_equal(on, [1.0, 0, 0, 0, 0.1, 0])
    (after,) = sampler.step(at(5.0), 1)
    assert not np.asarray(after).any()
    # one call across each edge holds each step's own value
    assert sampler.step(at(2.0) - 2, 4) == [off, off, on, on]
    assert sampler.step(at(5.0) - 2, 4) == [on, on, off, off]


@pytest.mark.parametrize("spec", [
    dyn.DisturbanceSpec(),
    dyn.DisturbanceSpec(kind="constant_load", force=np.array([1.0, 0, 0]),
                        moment=np.array([0, 0.1, 0]), t_on=2.0, t_off=5.0),
    dyn.DisturbanceSpec(kind="gust", force=np.array([2.0, 0, 0]),
                        t_on=2.0, t_off=5.0, gust_std=1.0),
], ids=["none", "constant_load", "gust"])
def test_sampler_adds_residual_wrench(spec):
    # the held total is the spec's wrench plus the residual, inside the
    # window and outside it, bit for bit
    residual_f, residual_m = np.array([1.4, 1.6, 3.7]), np.array([0, 0, 0.01])
    bare = dyn.DisturbanceSampler(spec, dyn.SIM_DT, np.random.default_rng(3))
    total = dyn.DisturbanceSampler(spec, dyn.SIM_DT, np.random.default_rng(3),
                                   residual_f, residual_m)
    residual = np.concatenate((residual_f, residual_m))
    for t in (0.0, 1.0, 2.0, 3.0, 4.9995, 5.0, 6.0):
        (wrench,) = bare.step(at(t), 1)
        (held,) = total.step(at(t), 1)
        np.testing.assert_array_equal(held, np.asarray(wrench) + residual)


def test_disturbance_validation():
    with pytest.raises(ValueError):
        dyn.DisturbanceSpec(kind="wind")
    with pytest.raises(ValueError):
        dyn.DisturbanceSpec(kind="constant_load", t_on=3.0, t_off=1.0)
    for gust_std in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="gust_std"):
            dyn.DisturbanceSpec(kind="gust", t_off=1.0, gust_std=gust_std)
    # every kind's sampler divides by the correlation time
    for kind in ("none", "constant_load", "gust"):
        for corr_time in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="gust_corr_time"):
                dyn.DisturbanceSpec(kind=kind, t_off=1.0,
                                    gust_corr_time=corr_time)


def test_disturbance_vectors_are_float_tuples():
    spec = dyn.DisturbanceSpec(kind="constant_load",
                               force=np.array([1.0, -2.0, 0.5]), t_off=1.0)
    assert spec.force == (1.0, -2.0, 0.5)
    assert [type(f) for f in (*spec.force, *spec.moment)] == [float] * 6
    for force in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (0.0, np.nan, 0.0)):
        with pytest.raises(ValueError, match="force must be 3 finite"):
            dyn.DisturbanceSpec(force=force)


def test_gust_statistics(rng):
    spec = dyn.DisturbanceSpec(kind="gust", force=np.array([2.0, 0, 0]),
                               t_on=0.0, t_off=1e9, gust_std=1.0,
                               gust_corr_time=0.5)
    sampler = dyn.DisturbanceSampler(spec, dyn.SIM_DT, rng)
    n = 200000
    xs = np.array([wrench[0] for k in range(0, n, 40)
                   for wrench in sampler.step(k, 40)])
    assert xs.mean() == pytest.approx(2.0, abs=0.15)
    assert xs.std() == pytest.approx(1.0, abs=0.1)
    # autocorrelation at one correlation time ~ 1/e
    lag = int(round(spec.gust_corr_time / dyn.SIM_DT))
    x = xs - xs.mean()
    rho = np.dot(x[:-lag], x[lag:]) / np.dot(x, x)
    assert rho == pytest.approx(np.exp(-1), abs=0.1)


def test_gust_reproducible():
    spec = dyn.DisturbanceSpec(kind="gust", force=np.zeros(3),
                               t_on=0.0, t_off=10.0, gust_std=1.0)
    # the same draws whether a call spans one step or many
    a = dyn.DisturbanceSampler(spec, dyn.SIM_DT, np.random.default_rng(7))
    b = dyn.DisturbanceSampler(spec, dyn.SIM_DT, np.random.default_rng(7))
    one_by_one = [a.step(k, 1)[0] for k in range(100)]
    chunked = [*b.step(0, 4), *b.step(4, 40), *b.step(44, 1), *b.step(45, 55)]
    assert bits(one_by_one) == bits(chunked)


def test_sensors_noiseless_exact(kernel, trim):
    state = hover_state(trim).tolist()
    accel, gyro, w_meas = dyn.synthesize_sensors(
        state, kernel, (0.0, 0.0, 0.0), 0.0, np.random.default_rng(0))
    # at hover the specific force reads +g on body z
    np.testing.assert_allclose(accel, GRAVITY * E3, atol=1e-9)
    np.testing.assert_array_equal(gyro, state[dyn.OMEGA])
    np.testing.assert_array_equal(w_meas, state[dyn.ROTOR_W])


def test_sensor_noise_scales(kernel, trim):
    state = hover_state(trim).tolist()
    rng = np.random.default_rng(3)
    samples = np.array([
        dyn.synthesize_sensors(state, kernel, (0.0, 0.0, 0.0), np.sqrt(9.0),
                               rng)[1]
        for _ in range(20000)])
    assert samples.std() == pytest.approx(3.0 * 0.02, rel=0.05)


def test_sensors_equal_float_oracle(params, kernel, rng):
    # noiseless and every noise level of exp5, with the same stream; the
    # oracle's rotor sigma is the 0 that run_scenario always set, and it
    # reads the acceleration that dynamics.acceleration gives
    for case in range(300):
        x, _, dist_f, _ = random_case(params, rng)
        x, dist_f = x.tolist(), dist_f.tolist()
        accel_w = dyn.acceleration(x, kernel, dist_f)
        scale = np.sqrt((0, 1, 3, 7, 15, 31)[case % 6])
        seed = int(rng.integers(2 ** 32))
        got = dyn.synthesize_sensors(x, kernel, dist_f, scale,
                                     np.random.default_rng(seed))
        want = oracles.synthesize_sensors(
            x, accel_w, oracles.NoiseSpec(rotor_sigma=0.0, scale=scale),
            np.random.default_rng(seed))
        assert bits(got) == bits(vars(want).values())


def test_sensor_stream_equals_float_oracle(params, kernel, rng):
    # 300 noisy calls on one stream: the tachometers read the rotor speeds
    # exactly, and every call still draws 12 normals, so the stream's next
    # draws are the oracle stream's next draws
    noise = oracles.NoiseSpec(rotor_sigma=0.0, scale=np.sqrt(7.0))
    stream, stream_o = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(300):
        x, _, dist_f, _ = random_case(params, rng)
        x, dist_f = x.tolist(), dist_f.tolist()
        accel_w = dyn.acceleration(x, kernel, dist_f)
        _, _, w_meas = dyn.synthesize_sensors(x, kernel, dist_f,
                                              noise.scale, stream)
        oracles.synthesize_sensors(x, accel_w, noise, stream_o)
        assert bits(w_meas) == bits(x[dyn.ROTOR_W])
    assert bits(stream.standard_normal(12)) == bits(
        stream_o.standard_normal(12))


@pytest.mark.parametrize("kind", ["none", "constant_load", "gust"])
def test_sampler_equals_float_oracle(rng, kind):
    # 300 random specs and residuals, each stepped across its window in
    # calls of 1 to 40 steps; step(k, n) equals n oracle step(t) calls,
    # and both samplers draw from generators of one seed
    for _ in range(300):
        t_on = float(rng.uniform(0.0, 0.005))
        spec = dyn.DisturbanceSpec(
            kind=kind, force=rng.normal(0.0, 2.0, 3),
            moment=rng.normal(0.0, 0.5, 3), t_on=t_on, t_off=t_on + 0.004,
            gust_std=float(rng.uniform(0.1, 2.0)),
            gust_corr_time=float(rng.uniform(0.01, 1.0)))
        residual = rng.normal(0.0, 2.0, 3), rng.normal(0.0, 0.1, 3)
        seed = int(rng.integers(2 ** 32))
        got = dyn.DisturbanceSampler(
            spec, dyn.SIM_DT, np.random.default_rng(seed), *residual)
        want = oracles.DisturbanceSampler(
            spec, dyn.SIM_DT, np.random.default_rng(seed), *residual)
        k = 0
        while k < 20:
            n = int(rng.integers(1, 41))
            assert bits(got.step(k, n)) == bits(
                [(*f, *m) for f, m in (want.step(j * dyn.SIM_DT)
                                       for j in range(k, k + n))])
            k += n


@settings(max_examples=200, deadline=None)
@given(tau=st.floats(0.005, 0.1), n=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rotor_lane_is_rk4_of_the_lag(tau, n, seed):
    # RK4 over the linear lag w' = (c - w) / tau scales w - c by the
    # Taylor polynomial P(dt / tau) of exp(-dt / tau) a step, whatever
    # the body does; one call over n steps equals n powers of it
    p = vehicle.default_params(motor_time_constant=tau)
    kernel = dyn.make_step(p)
    x, cmd, dist_f, dist_m = random_case(p, np.random.default_rng(seed))
    z = dyn.SIM_DT / tau
    gain = 1.0 - z + z ** 2 / 2.0 - z ** 3 / 6.0 + z ** 4 / 24.0
    w0, c = x[dyn.ROTOR_W], cmd.w_cmd
    got = dyn.step(x, kernel, cmd, [(*dist_f, *dist_m)] * n, dyn.SIM_DT)
    np.testing.assert_allclose(
        got[dyn.ROTOR_W], c + (w0 - c) * gain ** n, rtol=0.0,
        atol=1e-12 * max(np.abs(w0).max(), np.abs(c).max()))


def test_rk4_order(kernel, trim):
    def propagate(h):
        st = pack(
            np.zeros(3), [0.5, -0.3, 0.2], [1.0, 0, 0, 0], [2.0, -1.5, 1.0],
            trim.w_cmd * np.array([1.1, 0.9, 1.05, 0.95, 1.0, 1.0]))
        cmd = vehicle.ActuatorCommand(
            u=trim.u, w_cmd=np.asarray(trim.w_cmd) * 1.02,
            saturated=np.zeros(6, dtype=bool))
        st = dyn.step(st, kernel, cmd, [CALM] * int(round(0.5 / h)), h)
        return np.concatenate([st[dyn.P], st[dyn.V], st[dyn.Q], st[dyn.OMEGA]])

    h = dyn.SIM_DT
    x1, x2, x4 = propagate(h), propagate(h / 2), propagate(h / 4)
    e1 = np.linalg.norm(x1 - x4)
    e2 = np.linalg.norm(x2 - x4)
    assert e1 / e2 >= 12.0


def random_case(params, rng):
    """A state with a random attitude, body rates up to 5 rad/s and rotor
    speeds inside the actuator range, a random rotor command and nonzero
    disturbances."""
    q = rng.normal(size=4)
    x = pack(rng.normal(size=3), rng.normal(size=3), q / np.linalg.norm(q),
             rng.uniform(-5.0, 5.0, 3),
             rng.uniform(params.w_min, params.w_max, 6))
    w_cmd = rng.uniform(params.w_min, params.w_max, 6)
    cmd = vehicle.ActuatorCommand(u=w_cmd ** 2, w_cmd=w_cmd,
                                  saturated=np.zeros(6, dtype=bool))
    return x, cmd, rng.normal(0.0, 3.0, 3), rng.normal(0.0, 0.5, 3)


def wrench_run(rng, n, dist_f, dist_m, varying):
    """n held wrenches as step takes them: (dist_f, dist_m) over every
    step, or, if varying, a fresh random wrench for each step after the
    first."""
    wrenches = [(*dist_f.tolist(), *dist_m.tolist())] * n
    if varying:
        wrenches[1:] = [(*rng.normal(0.0, 3.0, 3).tolist(),
                         *rng.normal(0.0, 0.5, 3).tolist())
                        for _ in range(n - 1)]
    return wrenches


def oracle_steps(oracle_step, x, w_cmd, wrenches):
    """One list-form oracle step per wrench, in order."""
    for wrench in wrenches:
        x = oracle_step(x, w_cmd, wrench[:3], wrench[3:], dyn.SIM_DT)
    return x


def assert_blocks_close(got, want):
    """Each block of the state (p, v, q, omega, rotor speeds) off the
    oracle's by at most 1e-12 times the block's largest oracle magnitude:
    the kernel does the oracle's RK4 in fewer operations, so the two
    agree to rounding.  A bound per element fails on a component near
    zero, whose error is set by the block's other components."""
    got, want = np.asarray(got), np.asarray(want)
    for block in (dyn.P, dyn.V, dyn.Q, dyn.OMEGA, dyn.ROTOR_W):
        assert (np.abs(got[block] - want[block]).max()
                <= 1e-12 * np.abs(want[block]).max()), (block, got, want)


def test_scalar_step_matches_numpy_oracle(params, kernel, rng):
    for _ in range(300):
        x, cmd, dist_f, dist_m = random_case(params, rng)
        before = x.copy()
        out = dyn.step(x, kernel, cmd, [(*dist_f, *dist_m)], dyn.SIM_DT)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_allclose(
            out, numpy_step(x, params, cmd, dist_f, dist_m, dyn.SIM_DT),
            rtol=1e-12, atol=0.0)


def test_acceleration_is_the_derivative_force_balance(params, kernel, rng):
    for _ in range(50):
        x, cmd, dist_f, dist_m = random_case(params, rng)
        dx = dyn.derivative(x.tolist(), kernel, cmd.w_cmd.tolist(),
                            dist_f.tolist(), dist_m.tolist())
        np.testing.assert_array_equal(
            dyn.acceleration(x, kernel, dist_f), dx[dyn.V])


def test_kernel_equals_list_form_oracle(params, rng):
    # step, derivative and acceleration against the list-form kernel, on
    # the default platform and on a second one: one step call over
    # n = 1 ... 40 wrenches, held or varying from step to step, equals n
    # oracle steps block by block to rounding, and derivative and
    # acceleration equal the oracle's rates bit for bit
    other = vehicle.default_params(mass=4.1, inertia=(0.11, 0.07, 0.2),
                                   motor_time_constant=0.035,
                                   c_f=1.3 * params.c_f)
    for p in (params, other):
        rates, kernel_step = oracles.make_step(p)
        kernel = dyn.make_step(p)
        for case in range(300):
            x, cmd, dist_f, dist_m = random_case(p, rng)
            wrenches = wrench_run(rng, 1 + case % 40, dist_f, dist_m,
                                  varying=case // 40 % 2 == 1)
            x, w_cmd = x.tolist(), cmd.w_cmd.tolist()
            dist_f, dist_m = dist_f.tolist(), dist_m.tolist()
            assert_blocks_close(
                dyn.step(x, kernel, cmd, wrenches, dyn.SIM_DT),
                oracle_steps(kernel_step, x, w_cmd, wrenches))
            np.testing.assert_array_equal(
                dyn.derivative(x, kernel, w_cmd, dist_f, dist_m),
                rates(x, w_cmd, dist_f, dist_m))
            np.testing.assert_array_equal(
                dyn.acceleration(x, kernel, dist_f),
                rates(x, [0.0] * 6, dist_f, [0.0] * 3)[dyn.V])


@settings(max_examples=50, deadline=None)
@given(mass=st.floats(0.5, 10.0),
       inertia=st.tuples(*[st.floats(0.01, 0.5)] * 3),
       tau=st.floats(0.005, 0.1),
       cf_factor=st.floats(0.3, 3.0),
       tilt_deg=st.floats(5.0, 60.0) | st.floats(-60.0, -5.0),
       seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(1, 40), varying=st.booleans())
def test_step_matches_numpy_oracle_over_platforms(mass, inertia, tau,
                                                  cf_factor, tilt_deg, seed,
                                                  n, varying):
    # one step against the numpy oracle, and one call over n wrenches
    # against n list-form oracle steps, block by block to rounding
    p = vehicle.default_params(
        mass=mass, inertia=inertia, motor_time_constant=tau,
        c_f=cf_factor * vehicle.default_params().c_f,
        tilt_angle=np.radians(tilt_deg))
    kernel = dyn.make_step(p)
    rng = np.random.default_rng(seed)
    x, cmd, dist_f, dist_m = random_case(p, rng)
    np.testing.assert_allclose(
        dyn.step(x, kernel, cmd, [(*dist_f, *dist_m)], dyn.SIM_DT),
        numpy_step(x, p, cmd, dist_f, dist_m, dyn.SIM_DT),
        rtol=1e-12, atol=0.0)
    _, oracle_step = oracles.make_step(p)
    wrenches = wrench_run(rng, n, dist_f, dist_m, varying)
    assert_blocks_close(
        dyn.step(x, kernel, cmd, wrenches, dyn.SIM_DT),
        oracle_steps(oracle_step, x.tolist(), cmd.w_cmd.tolist(), wrenches))


def trim_case(params, rng, n):
    """As lists: a state with a unit q, body rates up to 5 rad/s and
    rotor speeds from 0.5 to 1.5 times the hover trim, a rotor command in
    the same range and n random wrenches."""
    trim = np.asarray(params.hover.w_cmd)
    q = rng.normal(size=4)
    x = pack(rng.normal(size=3), rng.normal(size=3), q / np.linalg.norm(q),
             rng.uniform(-5.0, 5.0, 3), trim * rng.uniform(0.5, 1.5, 6))
    wrenches = [(*rng.normal(0.0, 3.0, 3).tolist(),
                 *rng.normal(0.0, 0.5, 3).tolist()) for _ in range(n)]
    return x.tolist(), (trim * rng.uniform(0.5, 1.5, 6)).tolist(), wrenches


@settings(max_examples=200, deadline=None)
@given(p=oracles.platforms(), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(1, 40),
       dt=st.sampled_from([dyn.SIM_DT, dyn.SIM_DT / 2, dyn.SIM_DT / 4]))
def test_compiled_step_equals_python_oracle(p, seed, n, dt):
    # the compiled step against the Python step it was ported from, over
    # valid platforms, calls of 1 to 40 wrenches and truth steps at 2, 4
    # and 8 kHz (the rotor-lag factors depend on dt), bit for bit
    x, w_cmd, wrenches = trim_case(p, np.random.default_rng(seed), n)
    got = dyn.make_step(p).step(x, w_cmd, wrenches, dt)
    want = oracles.make_segment_step(p)(x, w_cmd, wrenches, dt)
    assert bits(got) == bits(want)


def divergence(step, x, w_cmd, wrenches):
    """The offset and the bits of the state a diverging step call
    reports."""
    with pytest.raises(dyn.NonFiniteState) as info:
        step(x, w_cmd, wrenches, dyn.SIM_DT)
    return info.value.offset, bits(info.value.state)


@pytest.mark.parametrize("fault", ["overflowing wrench", "nan state",
                                   "zero q"])
def test_compiled_divergence_equals_python_oracle(params, kernel, fault):
    # an overflowing wrench diverges at its own offset, a NaN anywhere in
    # the state or a zero q at the first step; the compiled step reports
    # the offset and the last finite state the Python one does
    oracle = oracles.make_segment_step(params)
    rng = np.random.default_rng(11)
    for n in (1, 4, 40):
        x, w_cmd, wrenches = trim_case(params, rng, n)
        bad = int(rng.integers(n)) if fault == "overflowing wrench" else 0
        if fault == "overflowing wrench":
            wrenches[bad] = (1e308, -1e308, 1e308, 0.0, 0.0, 0.0)
        elif fault == "nan state":
            x[int(rng.integers(dyn.STATE_SIZE))] = float("nan")
        else:
            x[dyn.Q] = [0.0] * 4
        got = divergence(kernel.step, x, w_cmd, wrenches)
        assert got == divergence(oracle, x, w_cmd, wrenches)
        assert got[0] == bad


@pytest.mark.parametrize("form", ["compiled", "segment oracle",
                                  "list oracle"])
def test_overflowing_quaternion_norm_diverges(params, kernel, trim, form):
    # at the hover trim, q = (1.5e154, 0, 0, 0) stays as it is over a
    # step, and its square overflows: every value is finite, but q's norm
    # is inf, which would turn q to 0.  The first step diverges, from the
    # state it was given
    state = hover_state(trim).tolist()
    state[dyn.Q] = [1.5e154, 0.0, 0.0, 0.0]
    w_cmd = list(trim.w_cmd)
    with pytest.raises(dyn.NonFiniteState) as info:
        if form == "compiled":
            dyn.step(state, kernel, trim, [CALM] * 3, dyn.SIM_DT)
        elif form == "segment oracle":
            oracles.make_segment_step(params)(state, w_cmd, [CALM] * 3,
                                              dyn.SIM_DT)
        else:
            _, step = oracles.make_step(params)
            step(state, w_cmd, CALM[:3], CALM[3:], dyn.SIM_DT)
    if form != "list oracle":  # whose one step reports no offset or state
        assert info.value.offset == 0
        assert bits(info.value.state) == bits(state)


def test_set_up_without_a_kernel_does_not_build_the_step(package_copy):
    # import hexsim, the effectiveness matrix and a controller (what the
    # benchmark's set-up times) neither build nor load the library
    code = ("from hexsim import control, dynamics, vehicle\n"
            "p = vehicle.default_params()\n"
            "vehicle.build_effectiveness(p)\n"
            "control.make_controller('indi', control.make_model(p),\n"
            "                        control.Gains(), 0.002)\n"
            "print(dynamics._truth)\n")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(package_copy)), timeout=120)
    assert (done.returncode, done.stdout) == (0, "None\n"), done.stderr
    assert list(package_copy.glob("hexsim/__pycache__/_truth*")) == []


STEP_IN_A_FRESH_INTERPRETER = """
from hexsim import dynamics, vehicle
p = vehicle.default_params()
trim = p.hover
x = [0.0, 0.0, 0.0, 0.1, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
     *trim.w_cmd]
print(dynamics.step(x, dynamics.make_step(p), trim, [(0.1,) * 6] * 8,
                    dynamics.SIM_DT))
"""


def test_two_fresh_interpreters_build_one_library(params, kernel, trim,
                                                  package_copy):
    # two interpreters at once against an empty cache, as
    # test_10_determinism starts them: both build, import and step, and
    # one whole library is left, with no temporary file
    env = dict(os.environ, PYTHONPATH=str(package_copy))
    runs = [subprocess.Popen(
        [sys.executable, "-c", STEP_IN_A_FRESH_INTERPRETER], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)]
    try:
        outs = [run.communicate(timeout=300) for run in runs]
    finally:
        for run in runs:
            run.kill()
            run.wait()
    assert [run.returncode for run in runs] == [0, 0], outs
    x = hover_state(trim)
    x[dyn.V] = [0.1, 0.0, 0.0]
    here = dyn.step(x, kernel, trim, [(0.1,) * 6] * 8, dyn.SIM_DT)
    assert [out for out, _ in outs] == [f"{here}\n"] * 2
    cache = package_copy / "hexsim" / "__pycache__"
    library = os.path.basename(dyn.load_truth().__file__)
    assert [f.name for f in cache.glob("_truth*")] == [library]


LOAD_FROM_FOUR_THREADS = """
import threading, time
from hexsim import dynamics
builds, modules, real_build = [], [], dynamics._build

def slow_build(source, path):
    builds.append(path)
    time.sleep(0.2)
    return real_build(source, path)

def load():
    start.wait()
    modules.append(dynamics.load_truth())

dynamics._build, start = slow_build, threading.Barrier(4)
threads = [threading.Thread(target=load) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(len(builds), len(modules), len(set(map(id, modules))))
"""


def test_threads_loading_at_once_share_one_build_and_module(package_copy):
    # the first load_truth of a process, from four threads at once
    # against an empty cache: one builds and loads, the rest wait for it
    # and share its module
    done = subprocess.run(
        [sys.executable, "-c", LOAD_FROM_FOUR_THREADS], capture_output=True,
        text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(package_copy)))
    assert (done.returncode, done.stdout) == (0, "1 4 1\n"), done.stderr


def test_a_build_removes_stale_libraries_of_its_suffix(package_copy):
    # a library built from an older source goes; one built for another
    # Python, with another extension suffix, stays
    suffix = EXTENSION_SUFFIXES[0]
    cache = package_copy / "hexsim" / "__pycache__"
    cache.mkdir()
    stale = cache / f"_truth.00000000{suffix}"
    other = cache / "_truth.00000000.cpython-39-other.so"
    for planted in (stale, other):
        planted.write_bytes(b"not a library")
    done = subprocess.run(
        [sys.executable, "-c", "from hexsim import dynamics\n"
                               "print(dynamics.load_truth().__file__)"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(package_copy)))
    assert done.returncode == 0, done.stderr
    library = os.path.basename(dyn.load_truth().__file__)
    assert done.stdout == f"{cache / library}\n"
    assert sorted(f.name for f in cache.glob("_truth*")) == sorted(
        [library, other.name])
