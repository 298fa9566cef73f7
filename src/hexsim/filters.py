"""Second-order low-pass filtering and synchronized differentiation.

The sensor-based controller passes its accelerometer, gyro and rotor-speed
feedback through one multi-channel filter so all channels see the same
group delay; the rotational acceleration is obtained by differentiating
the filtered gyro signal.
"""

import numpy as np


class SecondOrderFilter:
    """Discrete second-order low-pass wn^2 / (s^2 + 2 zeta wn s + wn^2),
    bilinear transform at the given sample time, unity DC gain.

    Works elementwise on vectors; one biquad state per channel.
    """

    def __init__(self, natural_frequency, damping, sample_time, channels=1):
        if natural_frequency <= 0:
            raise ValueError("natural_frequency must be positive")
        if not 0 < damping <= 2:
            raise ValueError("damping must be in (0, 2]")
        wn = natural_frequency
        k = 2.0 / sample_time
        a0 = k * k + 2 * damping * wn * k + wn * wn
        self.b = np.array([wn * wn, 2 * wn * wn, wn * wn]) / a0
        self.a1 = (2 * wn * wn - 2 * k * k) / a0
        self.a2 = (k * k - 2 * damping * wn * k + wn * wn) / a0
        self._z1 = np.zeros(channels)
        self._z2 = np.zeros(channels)

    def reset_to(self, value):
        """Set the internal state so a constant input `value` passes
        through unchanged (steady-state warm start)."""
        value = np.broadcast_to(np.asarray(value, dtype=float), self._z1.shape)
        self._z2 = (self.b[2] - self.a2) * value
        self._z1 = (self.b[1] - self.a1) * value + self._z2

    def step(self, x):
        x = np.asarray(x, dtype=float)
        y = self.b[0] * x + self._z1
        self._z1 = self.b[1] * x - self.a1 * y + self._z2
        self._z2 = self.b[2] * x - self.a2 * y
        return y


class FilteredDerivative:
    """Backward difference on an (already filtered) signal.

    First call returns zero; exact for linear signals thereafter.
    """

    def __init__(self, sample_time, channels=1):
        self.sample_time = sample_time
        self._prev = None
        self._channels = channels

    def reset_to(self, value):
        self._prev = np.broadcast_to(
            np.asarray(value, dtype=float), (self._channels,)).copy()

    def step(self, x):
        x = np.asarray(x, dtype=float)
        if self._prev is None:
            self._prev = x.copy()
            return np.zeros_like(x)
        out = (x - self._prev) / self.sample_time
        self._prev = x.copy()
        return out


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
