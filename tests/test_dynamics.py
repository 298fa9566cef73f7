import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsim import dynamics as dyn
from hexsim import vehicle
from hexsim.geometry import E3
from hexsim.vehicle import GRAVITY
import oracles
from oracles import bits, numpy_step


def hover_state(trim):
    return dyn.pack(np.zeros(3), np.zeros(3), [1.0, 0, 0, 0], np.zeros(3),
                    trim.w_cmd)


def test_hover_is_equilibrium(params, eff, trim):
    state = hover_state(trim)
    for _ in range(int(1.0 / dyn.SIM_DT)):
        state = dyn.step(state, params, eff, trim,
                         np.zeros(3), np.zeros(3), dyn.SIM_DT)
    assert np.linalg.norm(state[dyn.P]) < 1e-9
    assert np.linalg.norm(state[dyn.V]) < 1e-9
    assert np.linalg.norm(state[dyn.OMEGA]) < 1e-9


def test_free_fall_when_rotors_stopped(params, eff, trim):
    # zero commanded speed: thrust decays at the motor-lag rate, vehicle
    # descends
    zero_cmd = vehicle.ActuatorCommand(
        u=np.zeros(6), w_cmd=np.full(6, params.w_min),
        saturated=np.ones(6, dtype=bool))
    state = hover_state(trim)
    for _ in range(int(0.5 / dyn.SIM_DT)):
        state = dyn.step(state, params, eff, zero_cmd,
                         np.zeros(3), np.zeros(3), dyn.SIM_DT)
    assert state[dyn.V][2] < -1.0
    assert state[dyn.P][2] < -0.2


def test_motor_lag_63_percent(params, eff, trim):
    stepped = vehicle.ActuatorCommand(
        u=(1.2 * np.asarray(trim.w_cmd)) ** 2,
        w_cmd=1.2 * np.asarray(trim.w_cmd),
        saturated=np.zeros(6, dtype=bool))
    state = hover_state(trim)
    n = int(round(params.motor_time_constant / dyn.SIM_DT))
    for _ in range(n):
        state = dyn.step(state, params, eff, stepped,
                         np.zeros(3), np.zeros(3), dyn.SIM_DT)
    frac = (state[dyn.ROTOR_W][0] - trim.w_cmd[0]) / (0.2 * trim.w_cmd[0])
    assert frac == pytest.approx(1 - np.exp(-1), abs=0.02)


def test_quaternion_stays_normalized(params, eff, trim, rng):
    state = hover_state(trim)
    state[dyn.OMEGA] = [2.0, -1.0, 0.5]
    for _ in range(2000):
        state = dyn.step(state, params, eff, trim,
                         np.zeros(3), np.zeros(3), dyn.SIM_DT)
        assert np.linalg.norm(state[dyn.Q]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block", [dyn.P, dyn.V, dyn.Q, dyn.OMEGA,
                                   dyn.ROTOR_W],
                         ids=["p", "v", "q", "omega", "rotor_w"])
def test_nonfinite_state_raises(params, eff, trim, block):
    state = hover_state(trim)
    state[block.start] = np.inf
    with pytest.raises(dyn.NonFiniteState):
        dyn.step(state, params, eff, trim, np.zeros(3), np.zeros(3),
                 dyn.SIM_DT)


def test_constant_disturbance_window():
    spec = dyn.DisturbanceSpec(kind="constant_load",
                               force=np.array([1.0, 0, 0]),
                               moment=np.array([0, 0.1, 0]),
                               t_on=2.0, t_off=5.0)
    sampler = dyn.DisturbanceSampler(spec, dyn.SIM_DT, None)
    f, m = sampler.step(1.0)
    assert not np.asarray(f).any() and not np.asarray(m).any()
    f, m = sampler.step(3.0)
    np.testing.assert_array_equal(f, [1.0, 0, 0])
    np.testing.assert_array_equal(m, [0, 0.1, 0])
    f, m = sampler.step(5.0)
    assert not np.asarray(f).any() and not np.asarray(m).any()


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
    for t in (0.0, 1.0, 2.0, 3.0, 4.9995, 5.0, 6.0):
        f, m = bare.step(t)
        tf, tm = total.step(t)
        np.testing.assert_array_equal(tf, f + residual_f)
        np.testing.assert_array_equal(tm, m + residual_m)


def test_disturbance_validation():
    with pytest.raises(ValueError):
        dyn.DisturbanceSpec(kind="wind")
    with pytest.raises(ValueError):
        dyn.DisturbanceSpec(kind="constant_load", t_on=3.0, t_off=1.0)


def test_gust_statistics(rng):
    spec = dyn.DisturbanceSpec(kind="gust", force=np.array([2.0, 0, 0]),
                               t_on=0.0, t_off=1e9, gust_std=1.0,
                               gust_corr_time=0.5)
    sampler = dyn.DisturbanceSampler(spec, dyn.SIM_DT, rng)
    n = 200000
    xs = np.empty(n)
    for i in range(n):
        f, _ = sampler.step(i * dyn.SIM_DT)
        xs[i] = f[0]
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
    a = dyn.DisturbanceSampler(spec, dyn.SIM_DT, np.random.default_rng(7))
    b = dyn.DisturbanceSampler(spec, dyn.SIM_DT, np.random.default_rng(7))
    for i in range(100):
        fa, _ = a.step(i * dyn.SIM_DT)
        fb, _ = b.step(i * dyn.SIM_DT)
        np.testing.assert_array_equal(fa, fb)


def test_sensors_noiseless_exact(params, eff, trim):
    state = hover_state(trim)
    accel_w = dyn.acceleration(state, params, eff, np.zeros(3))
    accel, gyro, w_meas = dyn.synthesize_sensors(
        state, accel_w, 0.0, np.random.default_rng(0))
    # at hover the specific force reads +g on body z
    np.testing.assert_allclose(accel, GRAVITY * E3, atol=1e-9)
    np.testing.assert_array_equal(gyro, state[dyn.OMEGA])
    np.testing.assert_array_equal(w_meas, state[dyn.ROTOR_W])


def test_sensor_noise_scales(params, eff, trim):
    state = hover_state(trim)
    accel_w = dyn.acceleration(state, params, eff, np.zeros(3))
    rng = np.random.default_rng(3)
    samples = np.array([
        dyn.synthesize_sensors(state, accel_w, np.sqrt(9.0), rng)[1]
        for _ in range(20000)])
    assert samples.std() == pytest.approx(3.0 * 0.02, rel=0.05)


def test_sensors_equal_float_oracle(params, eff, rng):
    # noiseless and every noise level of exp5, with the same stream; the
    # oracle's rotor sigma is the 0 that run_scenario always set
    for case in range(300):
        x, _, dist_f, _ = random_case(params, rng)
        x = x.tolist()
        accel_w = dyn.acceleration(x, params, eff, dist_f.tolist())
        scale = np.sqrt((0, 1, 3, 7, 15, 31)[case % 6])
        seed = int(rng.integers(2 ** 32))
        got = dyn.synthesize_sensors(x, accel_w, scale,
                                     np.random.default_rng(seed))
        want = oracles.synthesize_sensors(
            x, accel_w, oracles.NoiseSpec(rotor_sigma=0.0, scale=scale),
            np.random.default_rng(seed))
        assert bits(got) == bits(vars(want).values())


def test_sensor_stream_equals_float_oracle(params, eff, rng):
    # 300 noisy calls on one stream: the tachometers read the rotor speeds
    # exactly, and every call still draws 12 normals, so the stream ends
    # where the oracle's does
    noise = oracles.NoiseSpec(rotor_sigma=0.0, scale=np.sqrt(7.0))
    stream, stream_o = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(300):
        x, _, dist_f, _ = random_case(params, rng)
        x = x.tolist()
        accel_w = dyn.acceleration(x, params, eff, dist_f.tolist())
        _, _, w_meas = dyn.synthesize_sensors(x, accel_w, noise.scale, stream)
        oracles.synthesize_sensors(x, accel_w, noise, stream_o)
        assert bits(w_meas) == bits(x[dyn.ROTOR_W])
    assert stream.bit_generator.state == stream_o.bit_generator.state


@pytest.mark.parametrize("kind", ["none", "constant_load", "gust"])
def test_sampler_equals_float_oracle(rng, kind):
    # 300 random specs and residuals, each stepped across its window;
    # both samplers draw from generators of one seed
    for _ in range(300):
        t_on = float(rng.uniform(0.0, 0.005))
        spec = dyn.DisturbanceSpec(
            kind=kind, force=rng.normal(0.0, 2.0, 3),
            moment=rng.normal(0.0, 0.5, 3), t_on=t_on, t_off=t_on + 0.004,
            gust_std=float(rng.uniform(0.1, 2.0)),
            gust_corr_time=float(rng.uniform(0.01, 1.0)))
        residual = rng.normal(0.0, 2.0, 3), rng.normal(0.0, 0.1, 3)
        seed = int(rng.integers(2 ** 32))
        got = dyn.DisturbanceSampler(spec, dyn.SIM_DT,
                                     np.random.default_rng(seed), *residual)
        want = oracles.DisturbanceSampler(
            spec, dyn.SIM_DT, np.random.default_rng(seed), *residual)
        for k in range(20):
            t = k * dyn.SIM_DT
            assert bits(got.step(t)) == bits(want.step(t))


def test_rk4_order(params, eff, trim):
    def propagate(h):
        st = dyn.pack(
            np.zeros(3), [0.5, -0.3, 0.2], [1.0, 0, 0, 0], [2.0, -1.5, 1.0],
            trim.w_cmd * np.array([1.1, 0.9, 1.05, 0.95, 1.0, 1.0]))
        cmd = vehicle.ActuatorCommand(
            u=trim.u, w_cmd=np.asarray(trim.w_cmd) * 1.02,
            saturated=np.zeros(6, dtype=bool))
        for _ in range(int(round(0.5 / h))):
            st = dyn.step(st, params, eff, cmd, np.zeros(3), np.zeros(3), h)
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
    x = dyn.pack(rng.normal(size=3), rng.normal(size=3), q / np.linalg.norm(q),
                 rng.uniform(-5.0, 5.0, 3),
                 rng.uniform(params.w_min, params.w_max, 6))
    w_cmd = rng.uniform(params.w_min, params.w_max, 6)
    cmd = vehicle.ActuatorCommand(u=w_cmd ** 2, w_cmd=w_cmd,
                                  saturated=np.zeros(6, dtype=bool))
    return x, cmd, rng.normal(0.0, 3.0, 3), rng.normal(0.0, 0.5, 3)


def test_scalar_step_matches_numpy_oracle(params, eff, rng):
    for _ in range(300):
        x, cmd, dist_f, dist_m = random_case(params, rng)
        before = x.copy()
        out = dyn.step(x, params, eff, cmd, dist_f, dist_m, dyn.SIM_DT)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_allclose(
            out, numpy_step(x, params, eff, cmd, dist_f, dist_m, dyn.SIM_DT),
            rtol=1e-12, atol=0.0)


def test_acceleration_is_the_derivative_force_balance(params, eff, rng):
    for _ in range(50):
        x, cmd, dist_f, dist_m = random_case(params, rng)
        dx = dyn.derivative(x.tolist(), params, eff, cmd.w_cmd.tolist(),
                            dist_f.tolist(), dist_m.tolist())
        np.testing.assert_array_equal(
            dyn.acceleration(x, params, eff, dist_f), dx[dyn.V])


def test_kernel_cache_follows_the_platform(params, eff, rng):
    # step and acceleration alternate between two platforms on every
    # call; each must use the kernel of the pair it is given
    other = vehicle.default_params(mass=4.1, inertia=(0.11, 0.07, 0.2),
                                   motor_time_constant=0.035,
                                   c_f=1.3 * params.c_f)
    pairs = [(params, eff), (other, vehicle.build_effectiveness(other))]
    kernels = [dyn.make_step(p, e) for p, e in pairs]
    for i in range(40):
        p, e = pairs[i % 2]
        rates, kernel_step = kernels[i % 2]
        x, cmd, dist_f, dist_m = random_case(p, rng)
        out = dyn.step(x, p, e, cmd, dist_f, dist_m, dyn.SIM_DT)
        np.testing.assert_array_equal(out, kernel_step(
            x.tolist(), cmd.w_cmd.tolist(), dist_f.tolist(), dist_m.tolist(),
            dyn.SIM_DT))
        np.testing.assert_allclose(
            out, numpy_step(x, p, e, cmd, dist_f, dist_m, dyn.SIM_DT),
            rtol=1e-12, atol=0.0)
        p, e = pairs[(i + 1) % 2]
        rates, _ = kernels[(i + 1) % 2]
        np.testing.assert_array_equal(
            dyn.acceleration(x, p, e, dist_f),
            rates(*x.tolist()[dyn.Q.start:], (*cmd.w_cmd.tolist(),
                  *dist_f.tolist(), *dist_m.tolist()))[:3])


def test_kernel_equals_list_form_oracle(params, eff, rng):
    # step, derivative and acceleration against the list-form kernel, bit
    # for bit, on the default platform and on a second one
    other = vehicle.default_params(mass=4.1, inertia=(0.11, 0.07, 0.2),
                                   motor_time_constant=0.035,
                                   c_f=1.3 * params.c_f)
    for p, e in [(params, eff), (other, vehicle.build_effectiveness(other))]:
        rates, kernel_step = oracles.make_step(p, e)
        for _ in range(300):
            x, cmd, dist_f, dist_m = random_case(p, rng)
            x, w_cmd = x.tolist(), cmd.w_cmd.tolist()
            dist_f, dist_m = dist_f.tolist(), dist_m.tolist()
            np.testing.assert_array_equal(
                dyn.step(x, p, e, cmd, dist_f, dist_m, dyn.SIM_DT),
                kernel_step(x, w_cmd, dist_f, dist_m, dyn.SIM_DT))
            np.testing.assert_array_equal(
                dyn.derivative(x, p, e, w_cmd, dist_f, dist_m),
                rates(x, w_cmd, dist_f, dist_m))
            np.testing.assert_array_equal(
                dyn.acceleration(x, p, e, dist_f),
                rates(x, [0.0] * 6, dist_f, [0.0] * 3)[dyn.V])


@settings(max_examples=50, deadline=None)
@given(mass=st.floats(0.5, 10.0),
       inertia=st.tuples(*[st.floats(0.01, 0.5)] * 3),
       tau=st.floats(0.005, 0.1),
       cf_factor=st.floats(0.3, 3.0),
       tilt_deg=st.floats(5.0, 60.0) | st.floats(-60.0, -5.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_step_matches_numpy_oracle_over_platforms(mass, inertia, tau,
                                                  cf_factor, tilt_deg, seed):
    p = vehicle.default_params(
        mass=mass, inertia=inertia, motor_time_constant=tau,
        c_f=cf_factor * vehicle.default_params().c_f,
        tilt_angle=np.radians(tilt_deg))
    e = vehicle.build_effectiveness(p)
    x, cmd, dist_f, dist_m = random_case(p, np.random.default_rng(seed))
    np.testing.assert_allclose(
        dyn.step(x, p, e, cmd, dist_f, dist_m, dyn.SIM_DT),
        numpy_step(x, p, e, cmd, dist_f, dist_m, dyn.SIM_DT),
        rtol=1e-12, atol=0.0)
    _, oracle_step = oracles.make_step(p, e)
    np.testing.assert_array_equal(
        dyn.step(x, p, e, cmd, dist_f, dist_m, dyn.SIM_DT),
        oracle_step(x.tolist(), cmd.w_cmd.tolist(), dist_f.tolist(),
                    dist_m.tolist(), dyn.SIM_DT))
