"""Hexarotor geometry, rotor model, effectiveness matrices and allocation.

Rotor layout: six arms at 60 deg spacing in the body xy-plane, each rotor
canted by a fixed angle about its arm's radial axis.  Tilt sign and spin
direction alternate around the ring, which is what makes the stacked
force/torque effectiveness matrix full rank (checked at construction).
"""

import math
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import E3, rotmat

GRAVITY = 9.81


class DegenerateGeometry(Exception):
    """Raised when the rotor layout cannot span all six wrench axes."""


def _axis_angle_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


# Tilt sign and spin direction per rotor, alternating around the ring: the
# fixed layout that makes the platform fully actuated.
ROTOR_COUNT = 6
ROTOR_TILT_SIGNS = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)
ROTOR_SPIN_DIRS = (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)


@dataclass(frozen=True)
class PlatformParams:
    mass: float
    inertia: tuple                 # principal moments (xx, yy, zz), kg m^2
    c_f: float                     # N per (rad/s)^2
    c_tau: float                   # N m per (rad/s)^2
    arm_length: float              # m
    tilt_angle: float              # rad
    w_min: float                   # rad/s
    w_max: float                   # rad/s
    motor_time_constant: float     # s

    def __post_init__(self):
        # the kernels read the moments as Python floats
        object.__setattr__(self, "inertia", tuple(map(float, self.inertia)))
        if not np.isfinite(np.hstack(astuple(self))).all():
            raise ValueError("platform parameters must be finite")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.c_f <= 0:
            raise ValueError("c_f must be positive")
        if self.arm_length <= 0:
            raise ValueError("arm_length must be positive")
        if self.motor_time_constant <= 0:
            raise ValueError("motor_time_constant must be positive")
        if not (0 < self.w_min < self.w_max):
            raise ValueError("need 0 < w_min < w_max")
        if not self.w_max * self.w_max < math.inf:  # u_max = w_max ** 2
            raise ValueError("w_max ** 2 must be finite")
        if abs(self.tilt_angle) >= np.pi / 2:
            raise ValueError("|tilt_angle| must be < pi/2")
        if len(self.inertia) != 3 or min(self.inertia) <= 0:
            raise ValueError("inertia must be 3 positive principal moments")

    @property
    def rotor_positions(self):
        """Rotor hub positions in the body frame, one row per rotor."""
        az = np.arange(ROTOR_COUNT) * (2 * np.pi / ROTOR_COUNT)
        return self.arm_length * np.stack(
            [np.cos(az), np.sin(az), np.zeros_like(az)], axis=1)

    def rotor_frame(self, i):
        """R_{P_i}^B: rotation from rotor frame i to the body frame."""
        az = i * 2 * np.pi / ROTOR_COUNT
        radial = np.array([np.cos(az), np.sin(az), 0.0])
        return _axis_angle_matrix(radial,
                                  ROTOR_TILT_SIGNS[i] * self.tilt_angle)

    # What depends on the platform alone is built once per object and
    # shared by every run on it; dataclasses.replace (control.make_model)
    # makes a new object, which builds its own.
    @cached_property
    def effectiveness(self):
        """build_effectiveness(self), whose arrays are read-only."""
        return build_effectiveness(self)

    @cached_property
    def hover(self):
        """The rotor command that balances gravity at identity attitude."""
        wrench = (0.0, 0.0, self.mass * GRAVITY, 0.0, 0.0, 0.0)
        return allocate(self.effectiveness, (1.0, 0.0, 0.0, 0.0), wrench)

    @cached_property
    def models(self):
        """control.make_model's copies of this platform, by cf_factor."""
        return {}


def default_params(**overrides):
    """Platform defaults: 2.95 kg, 750 mm motor span, 30 deg fixed tilt,
    rotor speeds 8-100 Hz, thrust-to-weight 2.8 at full speed.

    The force coefficient is anchored so the vertical thrust component at
    w_max over all six rotors equals 2.8 * m * g.
    """
    mass = overrides.pop("mass", 2.95)
    tilt = overrides.pop("tilt_angle", np.deg2rad(30.0))
    w_max = overrides.pop("w_max", 2 * np.pi * 100.0)
    w_min = overrides.pop("w_min", 2 * np.pi * 8.0)
    c_f = overrides.pop("c_f", None)
    if c_f is None:
        c_f = 2.8 * mass * GRAVITY / (6.0 * w_max ** 2 * np.cos(tilt))
    params = PlatformParams(
        mass=mass,
        inertia=overrides.pop("inertia", (0.08, 0.08, 0.14)),
        c_f=c_f,
        c_tau=overrides.pop("c_tau", 0.016 * c_f),
        arm_length=overrides.pop("arm_length", 0.375),
        tilt_angle=tilt,
        w_min=w_min,
        w_max=w_max,
        motor_time_constant=overrides.pop("motor_time_constant", 0.02),
    )
    if overrides:
        raise TypeError(f"unknown platform overrides: {sorted(overrides)}")
    return params


@dataclass(frozen=True)
class EffectivenessMatrices:
    F1: np.ndarray             # 3x6, world force per unit u at identity attitude
    F2: np.ndarray             # 3x6, body torque per unit u
    F0_inv: np.ndarray         # inverse of the stacked [F1; F2]
    condition_number: float
    u_min: float
    u_max: float


def build_effectiveness(params):
    """Assemble F1/F2 from the rotor layout; raises DegenerateGeometry if
    the stacked 6x6 matrix is rank deficient (e.g. zero tilt)."""
    positions = params.rotor_positions.tolist()
    F1 = np.zeros((3, ROTOR_COUNT))
    F2 = np.zeros((3, ROTOR_COUNT))
    for i in range(ROTOR_COUNT):
        rot = params.rotor_frame(i)
        thrust_dir = rot @ (params.c_f * E3)
        d0, d1, d2 = (rot @ (ROTOR_SPIN_DIRS[i] * params.c_tau * E3)).tolist()
        F1[:, i] = thrust_dir
        # positions[i] x thrust_dir + drag_dir, in np.cross's expressions
        a0, a1, a2 = positions[i]
        b0, b1, b2 = thrust_dir.tolist()
        F2[:, i] = (a1 * b2 - a2 * b1 + d0, a2 * b0 - a0 * b2 + d1,
                    a0 * b1 - a1 * b0 + d2)
    F0 = np.vstack([F1, F2])
    sv = np.linalg.svd(F0, compute_uv=False)
    try:
        F0_inv = np.linalg.inv(F0)
    except np.linalg.LinAlgError:  # subnormal entries can pass the ratio
        F0_inv = None
    if F0_inv is None or sv[-1] < 1e-9 * sv[0]:
        raise DegenerateGeometry(
            "stacked effectiveness matrix is rank deficient; "
            "check tilt angle / spin pattern")
    # read-only, as every run on the platform shares them
    for matrix in (F1, F2, F0_inv):
        matrix.flags.writeable = False
    return EffectivenessMatrices(
        F1=F1, F2=F2, F0_inv=F0_inv,
        condition_number=float(sv[0] / sv[-1]),
        u_min=params.w_min ** 2, u_max=params.w_max ** 2)


class ActuatorCommand(NamedTuple):
    u: tuple           # 6 floats: signed squared rotor speeds after clamping
    w_cmd: tuple       # 6 floats: rad/s setpoints
    saturated: tuple   # 6 bools: clamped or not


def saturate(eff, u):
    """Clamp squared-speed commands (a sequence of 6 numbers) into
    actuator limits; ValueError for any other length.  A NaN passes
    through, unflagged."""
    if len(u) != ROTOR_COUNT:
        raise ValueError(f"need {ROTOR_COUNT} rotor commands, got {len(u)}")
    lo, hi = eff.u_min, eff.u_max
    clamped = tuple(lo if v < lo else hi if v > hi else v for v in u)
    return ActuatorCommand(u=clamped, w_cmd=tuple(map(math.sqrt, clamped)),
                           saturated=tuple(v < lo or v > hi for v in u))


def solve_wrench(eff, q, wrench):
    """The unclamped u solving F(q) u = wrench, as a list.

    Uses the precomputed inverse of [F1; F2]; the attitude only rotates
    the force rows, so F(q)^-1 = F0^-1 blkdiag(R^T, I).
    """
    fx, fy, fz, t1, t2, t3 = wrench
    a, b, c, d, e, f, g, h, i = rotmat(q)
    r1, r2, r3 = (a * fx + d * fy + g * fz, b * fx + e * fy + h * fz,
                  c * fx + f * fy + i * fz)
    return [a * r1 + b * r2 + c * r3 + d * t1 + e * t2 + f * t3
            for a, b, c, d, e, f in eff.F0_inv.tolist()]


def allocate(eff, q, wrench_demand):
    """Solve F(q) u = wrench for the rotor commands, then clamp."""
    return saturate(eff, solve_wrench(eff, q, wrench_demand))
