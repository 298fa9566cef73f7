"""Hexarotor geometry, rotor model, effectiveness matrices and allocation.

Rotor layout: six arms at 60 deg spacing in the body xy-plane, each rotor
canted by a fixed angle about its arm's radial axis.  Tilt sign and spin
direction alternate around the ring, which is what makes the stacked
force/torque effectiveness matrix full rank (checked at construction).
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .geometry import E3, quat_to_rotmat

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


@dataclass(frozen=True)
class PlatformParams:
    mass: float
    inertia: np.ndarray            # 3x3 diagonal, kg m^2
    c_f: float                     # N per (rad/s)^2
    c_tau: float                   # N m per (rad/s)^2
    arm_length: float              # m
    tilt_angle: float              # rad
    rotor_tilt_signs: np.ndarray   # +-1 per rotor
    rotor_spin_dirs: np.ndarray    # +-1 per rotor
    w_min: float                   # rad/s
    w_max: float                   # rad/s
    motor_time_constant: float     # s
    rotor_count: int = 6

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if not (0 < self.w_min < self.w_max):
            raise ValueError("need 0 < w_min < w_max")
        if abs(self.tilt_angle) >= np.pi / 2:
            raise ValueError("|tilt_angle| must be < pi/2")
        if np.any(np.diag(self.inertia) <= 0):
            raise ValueError("inertia must be positive definite")

    @cached_property
    def inertia_diag(self):
        """Diagonal of the inertia tensor as a tuple of Python floats."""
        return tuple(np.diag(self.inertia).tolist())

    @property
    def rotor_positions(self):
        """Rotor hub positions in the body frame, one row per rotor."""
        az = np.arange(self.rotor_count) * (2 * np.pi / self.rotor_count)
        return self.arm_length * np.stack(
            [np.cos(az), np.sin(az), np.zeros_like(az)], axis=1)

    def rotor_frame(self, i):
        """R_{P_i}^B: rotation from rotor frame i to the body frame."""
        az = i * 2 * np.pi / self.rotor_count
        radial = np.array([np.cos(az), np.sin(az), 0.0])
        return _axis_angle_matrix(radial, self.rotor_tilt_signs[i] * self.tilt_angle)


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
    c_f = overrides.pop(
        "c_f", 2.8 * mass * GRAVITY / (6.0 * w_max ** 2 * np.cos(tilt)))
    params = PlatformParams(
        mass=mass,
        inertia=overrides.pop("inertia", np.diag([0.08, 0.08, 0.14])),
        c_f=c_f,
        c_tau=overrides.pop("c_tau", 0.016 * c_f),
        arm_length=overrides.pop("arm_length", 0.375),
        tilt_angle=tilt,
        rotor_tilt_signs=overrides.pop(
            "rotor_tilt_signs", np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])),
        rotor_spin_dirs=overrides.pop(
            "rotor_spin_dirs", np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])),
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

    @cached_property
    def F1_rows(self):
        """F1 as a tuple of rows of Python floats, for the scalar kernel."""
        return tuple(map(tuple, self.F1.tolist()))

    @cached_property
    def F2_rows(self):
        """F2 as a tuple of rows of Python floats, for the scalar kernel."""
        return tuple(map(tuple, self.F2.tolist()))


def build_effectiveness(params):
    """Assemble F1/F2 from the rotor layout; raises DegenerateGeometry if
    the stacked 6x6 matrix is rank deficient (e.g. zero tilt)."""
    n = params.rotor_count
    positions = params.rotor_positions
    F1 = np.zeros((3, n))
    F2 = np.zeros((3, n))
    for i in range(n):
        rot = params.rotor_frame(i)
        thrust_dir = rot @ (params.c_f * E3)
        drag_dir = rot @ (params.rotor_spin_dirs[i] * params.c_tau * E3)
        F1[:, i] = thrust_dir
        F2[:, i] = np.cross(positions[i], thrust_dir) + drag_dir
    F0 = np.vstack([F1, F2])
    sv = np.linalg.svd(F0, compute_uv=False)
    if sv[-1] < 1e-9 * sv[0]:
        raise DegenerateGeometry(
            "stacked effectiveness matrix is rank deficient; "
            "check tilt angle / spin pattern")
    return EffectivenessMatrices(
        F1=F1, F2=F2, F0_inv=np.linalg.inv(F0),
        condition_number=float(sv[0] / sv[-1]),
        u_min=params.w_min ** 2, u_max=params.w_max ** 2)


def assemble_F(eff, q):
    """Attitude-dependent 6x6 effectiveness: rows 1-3 rotated to world."""
    return np.vstack([quat_to_rotmat(q) @ eff.F1, eff.F2])


@dataclass(frozen=True)
class ActuatorCommand:
    u: np.ndarray           # signed squared rotor speeds after clamping
    w_cmd: np.ndarray       # rad/s setpoints
    saturated: np.ndarray   # bool flags


def saturate(eff, u):
    """Clamp squared-speed commands into actuator limits."""
    clamped = np.clip(u, eff.u_min, eff.u_max)
    flags = (u < eff.u_min) | (u > eff.u_max)
    return ActuatorCommand(u=clamped, w_cmd=np.sqrt(clamped), saturated=flags)


def allocate(eff, q, wrench_demand):
    """Solve F(q) u = wrench for the rotor commands, then clamp.

    Uses the precomputed inverse of [F1; F2]; the attitude only rotates
    the force rows, so F(q)^-1 = F0^-1 blkdiag(R^T, I).
    """
    rot = quat_to_rotmat(q)
    rhs = np.concatenate([rot.T @ wrench_demand[:3], wrench_demand[3:]])
    return saturate(eff, eff.F0_inv @ rhs)


def hover_command(params, eff):
    """Rotor command that balances gravity at identity attitude."""
    wrench = np.array([0.0, 0.0, params.mass * GRAVITY, 0.0, 0.0, 0.0])
    return allocate(eff, np.array([1.0, 0.0, 0.0, 0.0]), wrench)


def with_cf_factor(params, factor):
    """Copy of params with the force coefficient scaled (c_tau untouched)."""
    return replace(params, c_f=params.c_f * factor)
