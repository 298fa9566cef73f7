"""Second-order low-pass filtering and synchronized differentiation.

The sensor-based controller passes its accelerometer, gyro and rotor-speed
feedback through one multi-channel filter so all channels see the same
group delay; the rotational acceleration is obtained by differentiating
the filtered gyro signal.
"""

import numpy as np


def _as_floats(x, channels):
    """A new list of Python floats from x: one value per channel, or a
    scalar for all of them."""
    if isinstance(x, list):
        return list(x)
    return np.broadcast_to(np.asarray(x, dtype=float), (channels,)).tolist()


class SecondOrderFilter:
    """Discrete second-order low-pass wn^2 / (s^2 + 2 zeta wn s + wn^2),
    bilinear transform at the given sample time, unity DC gain.

    Works elementwise on vectors; one biquad state per channel, kept as
    Python floats.
    """

    def __init__(self, natural_frequency, damping, sample_time, channels=1):
        if natural_frequency <= 0:
            raise ValueError("natural_frequency must be positive")
        if not 0 < damping <= 2:
            raise ValueError("damping must be in (0, 2]")
        wn = natural_frequency
        k = 2.0 / sample_time
        a0 = k * k + 2 * damping * wn * k + wn * wn
        self.b = (wn * wn / a0, 2 * wn * wn / a0, wn * wn / a0)
        self.a1 = (2 * wn * wn - 2 * k * k) / a0
        self.a2 = (k * k - 2 * damping * wn * k + wn * wn) / a0
        self._channels = channels
        self._z1 = [0.0] * channels
        self._z2 = [0.0] * channels

    def reset_to(self, value):
        """Set the internal state so a constant input `value` passes
        through unchanged (steady-state warm start)."""
        _, b1, b2 = self.b
        value = _as_floats(value, self._channels)
        self._z2 = [(b2 - self.a2) * v for v in value]
        self._z1 = [(b1 - self.a1) * v + z for v, z in zip(value, self._z2)]

    def step(self, x):
        """Filter one sample: x holds one value per channel, or a scalar
        for all.  Returns an array."""
        b0, b1, b2 = self.b
        a1, a2 = self.a1, self.a2
        y, z1, z2 = [], [], []
        for v, s1, s2 in zip(_as_floats(x, self._channels), self._z1,
                             self._z2):
            w = b0 * v + s1
            y.append(w)
            z1.append(b1 * v - a1 * w + s2)
            z2.append(b2 * v - a2 * w)
        self._z1, self._z2 = z1, z2
        return np.array(y)


class FilteredDerivative:
    """Backward difference on an (already filtered) signal.

    First call returns zero; exact for linear signals thereafter.
    """

    def __init__(self, sample_time, channels=1):
        self.sample_time = sample_time
        self._prev = None
        self._channels = channels

    def reset_to(self, value):
        self._prev = _as_floats(value, self._channels)

    def step(self, x):
        """Difference of x (one value per channel, or a scalar) with the
        previous sample over the sample time.  Returns an array."""
        x = _as_floats(x, self._channels)
        prev, self._prev = self._prev, x
        if prev is None:
            return np.zeros(self._channels)
        dt = self.sample_time
        return np.array([(v - p) / dt for v, p in zip(x, prev)])


def analytic_step_response(natural_frequency, damping, t):
    """Continuous-time unit step response of the same second-order system
    (oracle for the discrete implementation)."""
    wn, z = natural_frequency, damping
    t = np.asarray(t, dtype=float)
    if z < 1.0:
        wd = wn * np.sqrt(1 - z * z)
        phi = np.arccos(z)
        return 1 - np.exp(-z * wn * t) * np.sin(wd * t + phi) / np.sqrt(1 - z * z)
    if z == 1.0:
        return 1 - np.exp(-wn * t) * (1 + wn * t)
    r1 = -wn * (z - np.sqrt(z * z - 1))
    r2 = -wn * (z + np.sqrt(z * z - 1))
    return 1 + (r2 * np.exp(r1 * t) - r1 * np.exp(r2 * t)) / (r1 - r2)
