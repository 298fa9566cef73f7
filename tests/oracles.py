"""Reference helpers that only the tests use: quaternion constructors
and kinematics, the attitude-dependent effectiveness matrix, the
continuous-time step response of the INDI feedback filter and the
list-form RK4 truth kernel."""

import math

import numpy as np

from hexsim.dynamics import NonFiniteState, Q
from hexsim.geometry import quat_to_rotmat
from hexsim.vehicle import GRAVITY


def quat_normalize(q):
    """Return q scaled to unit norm."""
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q)


def quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


def quat_derivative(q, omega_body):
    """q_dot = 0.5 * q (x) (0, omega), omega in body frame. Not normalized."""
    ow, ox, oy, oz = 0.0, omega_body[0], omega_body[1], omega_body[2]
    w, x, y, z = q
    return 0.5 * np.array([
        w * ow - x * ox - y * oy - z * oz,
        w * ox + x * ow + y * oz - z * oy,
        w * oy - x * oz + y * ow + z * ox,
        w * oz + x * oy - y * ox + z * ow,
    ])


def assemble_F(eff, q):
    """Attitude-dependent 6x6 effectiveness: rows 1-3 rotated to world."""
    return np.vstack([quat_to_rotmat(q) @ eff.F1, eff.F2])


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


# The truth kernel as it was before its RK4 stages were written out over
# scalars: 19-element stage lists built with zip and one list-returning
# rates call per stage.  dynamics.make_step must equal it bit for bit.
def make_step(params, eff):
    """The truth dynamics of one platform, specialised once: returns the
    pair (rates, step), with every constant of (params, eff) bound as a
    closure local.  Both work on Python floats.

    rates(s, w_cmd, dist_force, dist_moment) is the time derivative of
    the state s (laid out as the state vector) under its rotor speeds, as
    a list of 19 floats: force balance in world frame, moment balance in
    body frame, rotor speeds lagging toward w_cmd (6 entries).  The
    world force dist_force and body moment dist_moment have 3 entries
    each.  The quaternion need not have unit norm; inside the RK4 stages
    it does not.

    step(s, w_cmd, dist_force, dist_moment, dt) is one RK4 step from s
    with the disturbance held, one rates call per stage.  It returns the
    new state as a list with the quaternion normalised, and raises
    NonFiniteState if any component diverges.
    """
    ((fx1, fx2, fx3, fx4, fx5, fx6), (fy1, fy2, fy3, fy4, fy5, fy6),
     (fz1, fz2, fz3, fz4, fz5, fz6)) = eff.F1.tolist()
    ((mx1, mx2, mx3, mx4, mx5, mx6), (my1, my2, my3, my4, my5, my6),
     (mz1, mz2, mz3, mz4, mz5, mz6)) = eff.F2.tolist()
    m = params.mass
    weight = m * GRAVITY
    jx, jy, jz = params.inertia
    tau = params.motor_time_constant

    def rates(s, w_cmd, dist_force, dist_moment):
        (_, _, _, vx, vy, vz, qw, qx, qy, qz, ox, oy, oz,
         w1, w2, w3, w4, w5, w6) = s
        c1, c2, c3, c4, c5, c6 = w_cmd
        dfx, dfy, dfz = dist_force
        dmx, dmy, dmz = dist_moment
        u1, u2, u3 = w1 * abs(w1), w2 * abs(w2), w3 * abs(w3)
        u4, u5, u6 = w4 * abs(w4), w5 * abs(w5), w6 * abs(w6)
        # rotor force F1 u in the body frame, rotated to world by R(q)
        bx = fx1 * u1 + fx2 * u2 + fx3 * u3 + fx4 * u4 + fx5 * u5 + fx6 * u6
        by = fy1 * u1 + fy2 * u2 + fy3 * u3 + fy4 * u4 + fy5 * u5 + fy6 * u6
        bz = fz1 * u1 + fz2 * u2 + fz3 * u3 + fz4 * u4 + fz5 * u5 + fz6 * u6
        xx, yy, zz = qx * qx, qy * qy, qz * qz
        xy, xz, yz = qx * qy, qx * qz, qy * qz
        wx, wy, wz = qw * qx, qw * qy, qw * qz
        fx = ((1 - 2 * (yy + zz)) * bx + 2 * (xy - wz) * by
              + 2 * (xz + wy) * bz) + dfx
        fy = (2 * (xy + wz) * bx + (1 - 2 * (xx + zz)) * by
              + 2 * (yz - wx) * bz) + dfy
        fz = (2 * (xz - wy) * bx + 2 * (yz + wx) * by
              + (1 - 2 * (xx + yy)) * bz) - weight + dfz
        tx = mx1 * u1 + mx2 * u2 + mx3 * u3 + mx4 * u4 + mx5 * u5 + mx6 * u6
        ty = my1 * u1 + my2 * u2 + my3 * u3 + my4 * u4 + my5 * u5 + my6 * u6
        tz = mz1 * u1 + mz2 * u2 + mz3 * u3 + mz4 * u4 + mz5 * u5 + mz6 * u6
        hx, hy, hz = jx * ox, jy * oy, jz * oz
        return [
            vx, vy, vz,
            fx / m, fy / m, fz / m,
            # q_dot = 0.5 q (x) (0, omega)
            0.5 * (-qx * ox - qy * oy - qz * oz),
            0.5 * (qw * ox + qy * oz - qz * oy),
            0.5 * (qw * oy - qx * oz + qz * ox),
            0.5 * (qw * oz + qx * oy - qy * ox),
            # J omega_dot = F2 u - omega x J omega + moment
            (tx - (oy * hz - oz * hy) + dmx) / jx,
            (ty - (oz * hx - ox * hz) + dmy) / jy,
            (tz - (ox * hy - oy * hx) + dmz) / jz,
            (c1 - w1) / tau, (c2 - w2) / tau, (c3 - w3) / tau,
            (c4 - w4) / tau, (c5 - w5) / tau, (c6 - w6) / tau,
        ]

    def step(s, w_cmd, dist_force, dist_moment, dt):
        h = 0.5 * dt
        k1 = rates(s, w_cmd, dist_force, dist_moment)
        k2 = rates([a + h * b for a, b in zip(s, k1)],
                   w_cmd, dist_force, dist_moment)
        k3 = rates([a + h * b for a, b in zip(s, k2)],
                   w_cmd, dist_force, dist_moment)
        k4 = rates([a + dt * b for a, b in zip(s, k3)],
                   w_cmd, dist_force, dist_moment)
        c = dt / 6.0
        out = [a + c * (b1 + 2 * b2 + 2 * b3 + b4)
               for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)]
        qw, qx, qy, qz = out[Q]
        norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        # a sum of floats is finite only if every term is (or it
        # overflows, which is divergence too)
        if not (norm > 0.0 and math.isfinite(sum(out))):
            raise NonFiniteState()
        out[Q] = qw / norm, qx / norm, qy / norm, qz / norm
        return out

    return rates, step
