import numpy as np
import pytest

from hexsim import dynamics as dyn
from hexsim import vehicle
from hexsim.geometry import E3
from hexsim.vehicle import GRAVITY


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
        u=(1.2 * trim.w_cmd) ** 2, w_cmd=1.2 * trim.w_cmd,
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
    assert not f.any() and not m.any()
    f, m = sampler.step(3.0)
    np.testing.assert_array_equal(f, [1.0, 0, 0])
    np.testing.assert_array_equal(m, [0, 0.1, 0])
    f, m = sampler.step(5.0)
    assert not f.any() and not m.any()


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
    readings = dyn.synthesize_sensors(state, accel_w,
                                      dyn.NoiseSpec(scale=0.0),
                                      np.random.default_rng(0))
    # at hover the specific force reads +g on body z
    np.testing.assert_allclose(readings.accel, GRAVITY * E3, atol=1e-9)
    np.testing.assert_array_equal(readings.gyro, state[dyn.OMEGA])
    np.testing.assert_array_equal(readings.rotor_w_meas, state[dyn.ROTOR_W])


def test_sensor_noise_scales(params, eff, trim):
    state = hover_state(trim)
    accel_w = dyn.acceleration(state, params, eff, np.zeros(3))
    noise = dyn.NoiseSpec(scale=np.sqrt(9.0))
    rng = np.random.default_rng(3)
    samples = np.array([
        dyn.synthesize_sensors(state, accel_w, noise, rng).gyro
        for _ in range(20000)])
    assert samples.std() == pytest.approx(3.0 * 0.02, rel=0.05)


def test_rk4_order(params, eff, trim):
    def propagate(h):
        st = dyn.pack(
            np.zeros(3), [0.5, -0.3, 0.2], [1.0, 0, 0, 0], [2.0, -1.5, 1.0],
            trim.w_cmd * np.array([1.1, 0.9, 1.05, 0.95, 1.0, 1.0]))
        cmd = vehicle.ActuatorCommand(
            u=trim.u, w_cmd=trim.w_cmd * 1.02,
            saturated=np.zeros(6, dtype=bool))
        for _ in range(int(round(0.5 / h))):
            st = dyn.step(st, params, eff, cmd, np.zeros(3), np.zeros(3), h)
        return np.concatenate([st[dyn.P], st[dyn.V], st[dyn.Q], st[dyn.OMEGA]])

    h = dyn.SIM_DT
    x1, x2, x4 = propagate(h), propagate(h / 2), propagate(h / 4)
    e1 = np.linalg.norm(x1 - x4)
    e2 = np.linalg.norm(x2 - x4)
    assert e1 / e2 >= 12.0
