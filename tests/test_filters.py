import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from hexsim.filters import FilteredDerivative, SecondOrderFilter
from oracles import analytic_step_response

FS = 500.0
DT = 1.0 / FS
WN = 2 * np.pi * 15.0


def step_response(filt, n):
    return np.array([filt.step([1.0])[0] for _ in range(n)])


def test_matches_scipy_bilinear():
    b, a = signal.bilinear([WN * WN], [1.0, 2 * 0.7 * WN, WN * WN], FS)
    f = SecondOrderFilter(WN, 0.7, DT)
    x = np.random.default_rng(1).normal(size=300)
    mine = np.array([f.step([xi])[0] for xi in x.tolist()])
    ref = signal.lfilter(b, a, x)
    np.testing.assert_allclose(mine, ref, atol=1e-12)


@pytest.mark.parametrize("damping", [0.5, 0.7, 1.0, 1.4])
def test_step_matches_analytic(damping):
    f = SecondOrderFilter(WN, damping, DT)
    t = np.arange(250) * DT
    y = step_response(f, len(t))
    ya = analytic_step_response(WN, damping, t)
    rms = np.sqrt(np.mean((y - ya) ** 2))
    assert rms < 0.02


def test_unity_dc_gain():
    f = SecondOrderFilter(WN, 0.7, DT)
    y = step_response(f, 3000)
    assert y[-1] == pytest.approx(1.0, abs=1e-9)


def test_vector_channels():
    f = SecondOrderFilter(WN, 0.7, DT, channels=3)
    out = np.asarray(f.step(np.array([1.0, 2.0, -1.0])))
    assert out.shape == (3,)
    np.testing.assert_allclose(out / out[0], [1.0, 2.0, -1.0])


def test_reset_to_steady_state():
    f = SecondOrderFilter(WN, 0.7, DT, channels=3)
    value = np.array([1.0, -2.0, 9.81])
    f.reset_to(value)
    for _ in range(10):
        np.testing.assert_allclose(f.step(value), value, atol=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SecondOrderFilter(-1.0, 0.7, DT)
    with pytest.raises(ValueError):
        SecondOrderFilter(WN, 0.0, DT)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -DT])
def test_rates_and_sample_times_must_be_finite_and_positive(bad):
    # a NaN slips past a "<= 0" check and builds NaN coefficients
    for name, make in [
            ("natural_frequency", lambda: SecondOrderFilter(bad, 0.7, DT)),
            ("sample_time", lambda: SecondOrderFilter(WN, 0.7, bad)),
            ("sample_time", lambda: FilteredDerivative(bad))]:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make()


@pytest.mark.parametrize("make", [
    lambda: SecondOrderFilter(WN, 0.7, DT, channels=12),
    lambda: FilteredDerivative(DT, channels=12)],
    ids=["SecondOrderFilter", "FilteredDerivative"])
def test_wrong_length_list_is_rejected(make):
    # zip would truncate an 11-value list and leave an 11-channel bank
    bank = make()
    bank.step([1.0] * 12)
    for bad in ([1.0] * 11, [1.0] * 13):
        with pytest.raises(ValueError, match="expected 12 values"):
            bank.step(bad)
        with pytest.raises(ValueError, match="expected 12 values"):
            bank.reset_to(bad)
    assert len(bank.step([1.0] * 12)) == 12


def test_derivative_first_call_zero():
    d = FilteredDerivative(DT)
    assert d.step([5.0]) == [0.0]


def test_derivative_ramp_exact():
    d = FilteredDerivative(DT)
    slope = 3.7
    vals = [d.step([slope * k * DT])[0] for k in range(50)]
    assert vals[0] == 0.0
    np.testing.assert_allclose(vals[1:], slope, atol=1e-9)


def test_derivative_reset_to():
    d = FilteredDerivative(DT, channels=3)
    d.reset_to(np.array([1.0, 2.0, 3.0]))
    out = d.step(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


filter_settings = dict(cutoff_hz=st.floats(0.1, 200.0),
                       damping=st.floats(0.0, 2.0, exclude_min=True),
                       rate_hz=st.floats(20.0, 5000.0))


@settings(max_examples=300, deadline=None)
@given(**filter_settings)
def test_unity_dc_gain_over_settings(cutoff_hz, damping, rate_hz):
    # the transfer function at z = 1 is (b0 + b1 + b2) / (1 + a1 + a2)
    f = SecondOrderFilter(2 * np.pi * cutoff_hz, damping, 1.0 / rate_hz)
    assert sum(f.b) / (1.0 + f.a1 + f.a2) == pytest.approx(1.0, rel=1e-6)


@settings(max_examples=300, deadline=None)
@given(**filter_settings,
       value=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
def test_reset_to_is_a_steady_state_over_settings(cutoff_hz, damping,
                                                 rate_hz, value):
    f = SecondOrderFilter(2 * np.pi * cutoff_hz, damping, 1.0 / rate_hz,
                          channels=3)
    f.reset_to(value)
    for _ in range(20):
        np.testing.assert_allclose(f.step(value), value, rtol=1e-9,
                                   atol=1e-9)
