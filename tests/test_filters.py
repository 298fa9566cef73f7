import numpy as np
import pytest
from scipy import signal

from hexsim.filters import (FilteredDerivative, SecondOrderFilter,
                            analytic_step_response)

FS = 500.0
DT = 1.0 / FS
WN = 2 * np.pi * 15.0


def step_response(filt, n):
    return np.array([np.asarray(filt.step(1.0)).item() for _ in range(n)])


def test_matches_scipy_bilinear():
    b, a = signal.bilinear([WN * WN], [1.0, 2 * 0.7 * WN, WN * WN], FS)
    f = SecondOrderFilter(WN, 0.7, DT)
    x = np.random.default_rng(1).normal(size=300)
    mine = np.array([np.asarray(f.step(xi)).item() for xi in x])
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
    out = f.step(np.array([1.0, 2.0, -1.0]))
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


def test_derivative_first_call_zero():
    d = FilteredDerivative(DT)
    assert np.all(d.step(5.0) == 0.0)


def test_derivative_ramp_exact():
    d = FilteredDerivative(DT)
    slope = 3.7
    vals = [np.asarray(d.step(slope * k * DT)).item() for k in range(50)]
    assert vals[0] == 0.0
    np.testing.assert_allclose(vals[1:], slope, atol=1e-9)


def test_derivative_reset_to():
    d = FilteredDerivative(DT, channels=3)
    d.reset_to(np.array([1.0, 2.0, 3.0]))
    out = d.step(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)
