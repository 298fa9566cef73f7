"""Second-order low-pass filtering and synchronized differentiation.

The sensor-based controller passes its accelerometer, gyro and rotor-speed
feedback through one multi-channel filter so all channels see the same
group delay; the rotational acceleration is obtained by differentiating
the filtered gyro signal.
"""

import math


def check_positive(value, name):
    """Raise ValueError unless value is a finite, positive number."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, not {value!r}")


def _as_list(x, channels):
    """A new list of the values of the sequence x, which must hold one
    value per channel; raises ValueError for any other length."""
    if len(x) != channels:
        raise ValueError(f"expected {channels} values, got {len(x)}")
    return list(x)


class SecondOrderFilter:
    """Discrete second-order low-pass wn^2 / (s^2 + 2 zeta wn s + wn^2),
    bilinear transform at the given sample time, unity DC gain.

    Works elementwise on vectors; one biquad state per channel, kept as
    Python floats.
    """

    def __init__(self, natural_frequency, damping, sample_time, channels=1):
        check_positive(natural_frequency, "natural_frequency")
        check_positive(sample_time, "sample_time")
        if not 0 < damping <= 2:
            raise ValueError("damping must be in (0, 2]")
        wn = natural_frequency
        k = 2.0 / sample_time
        a0 = k * k + 2 * damping * wn * k + wn * wn
        self.b = (wn * wn / a0, 2 * wn * wn / a0, wn * wn / a0)
        self.a1 = (2 * wn * wn - 2 * k * k) / a0
        self.a2 = (k * k - 2 * damping * wn * k + wn * wn) / a0
        if not all(map(math.isfinite, (*self.b, self.a1, self.a2))):
            raise ValueError(  # wn^2 or k^2 overflowed: inf / inf is NaN
                f"coefficients not finite at natural_frequency {wn!r} and "
                f"sample_time {sample_time!r}")
        self._channels = channels
        self._z1 = [0.0] * channels
        self._z2 = [0.0] * channels

    def reset_to(self, value):
        """Set the internal state so a constant input `value` (one value
        per channel) passes through unchanged (steady-state warm
        start)."""
        _, b1, b2 = self.b
        value = _as_list(value, self._channels)
        self._z2 = [(b2 - self.a2) * v for v in value]
        self._z1 = [(b1 - self.a1) * v + z for v, z in zip(value, self._z2)]

    @property
    def state(self):
        """The first biquad state of every channel, then the second."""
        return (*self._z1, *self._z2)

    def step(self, x):
        """Filter one sample: x holds one value per channel.  Returns a
        list."""
        b0, b1, b2 = self.b
        a1, a2 = self.a1, self.a2
        y, z1, z2 = [], [], []
        for v, s1, s2 in zip(_as_list(x, self._channels), self._z1,
                             self._z2):
            w = b0 * v + s1
            y.append(w)
            z1.append(b1 * v - a1 * w + s2)
            z2.append(b2 * v - a2 * w)
        self._z1, self._z2 = z1, z2
        return y


class FilteredDerivative:
    """Backward difference on an (already filtered) signal.

    First call returns zero; exact for linear signals thereafter.
    """

    def __init__(self, sample_time, channels=1):
        check_positive(sample_time, "sample_time")
        self.sample_time = sample_time
        self._prev = None
        self._channels = channels

    def reset_to(self, value):
        self._prev = _as_list(value, self._channels)

    def step(self, x):
        """Difference of x (one value per channel) with the previous
        sample over the sample time.  Returns a list."""
        x = _as_list(x, self._channels)
        prev, self._prev = self._prev, x
        if prev is None:
            return [0.0] * self._channels
        dt = self.sample_time
        return [(v - p) / dt for v, p in zip(x, prev)]
