"""Reference helpers that only the tests use: the state vector from its
blocks, quaternion constructors and kinematics, the attitude-dependent
effectiveness matrix and the np.cross form of its build, the
continuous-time step response of the INDI feedback filter, the list-form
RK4 truth kernel, the tick side of the closed loop as it was before it
was written out straight-line (with the sensor-noise settings and the
sensor record it read and returned; its controllers allocate through
vehicle's), the numpy forms of the controller layers and the truth
step, the whole closed loop in Python (run_scenario: the row array,
metrics and divergence report of experiments.run_scenario, whose rows
log.csv is written from, with the gust and the sensor noise drawn from
one numpy Generator), the
tracking errors of a log row over Python floats and of a whole run log,
the numpy form of experiments.error_statistics, and the hypothesis strategies the property tests draw from: valid
platforms and numbers in [-1, 1]."""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from hexsim import dynamics as dyn
from hexsim import experiments as ex
from hexsim import vehicle
from hexsim.control import (FILTER_CUTOFF_HZ, FILTER_DAMPING,
                            ControllerInputs, PoseReference, make_controller,
                            make_model, ndi_invert)
from hexsim.dynamics import OMEGA, Q, ROTOR_W, NonFiniteState
from hexsim.filters import FilteredDerivative, SecondOrderFilter
from hexsim.geometry import (E3, quat_conj, quat_from_rpy, quat_mul,
                             quat_to_rotmat, rpy_from_quat)
from hexsim.vehicle import GRAVITY


def bits(values):
    """float.hex of every number in a sequence of numbers or of such
    sequences: equal lists mean the same values with the same signs of
    zero."""
    return [bits(v) if hasattr(v, "__len__") else float(v).hex()
            for v in values]


def pack(p, v, q, omega, rotor_w):
    """State vector from its blocks, as a float array."""
    return np.concatenate((p, v, q, omega, rotor_w), dtype=float)


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


def numpy_build_effectiveness(params):
    """vehicle.build_effectiveness with each rotor's moment column formed
    as np.cross(position, thrust_dir) + drag_dir, as it was before the
    cross product was written out over floats: its bit-for-bit oracle."""
    positions = params.rotor_positions
    F1 = np.zeros((3, vehicle.ROTOR_COUNT))
    F2 = np.zeros((3, vehicle.ROTOR_COUNT))
    for i in range(vehicle.ROTOR_COUNT):
        rot = params.rotor_frame(i)
        thrust_dir = rot @ (params.c_f * E3)
        drag_dir = rot @ (vehicle.ROTOR_SPIN_DIRS[i] * params.c_tau * E3)
        F1[:, i] = thrust_dir
        F2[:, i] = np.cross(positions[i], thrust_dir) + drag_dir
    F0 = np.vstack([F1, F2])
    sv = np.linalg.svd(F0, compute_uv=False)
    return vehicle.EffectivenessMatrices(
        F1=F1, F2=F2, F0_inv=np.linalg.inv(F0),
        condition_number=float(sv[0] / sv[-1]),
        u_min=params.w_min ** 2, u_max=params.w_max ** 2)


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
def make_step(params):
    """The truth dynamics of the platform params, specialised once:
    returns the pair (rates, step), with every constant of params and its
    effectiveness bound as a closure local.  Both work on Python floats.

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
    eff = params.effectiveness
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
        # overflows, which is divergence too); q's norm overflows for
        # finite components whose squares do, and would turn q to 0
        if not (norm > 0.0 and math.isfinite(norm)
                and math.isfinite(sum(out))):
            raise NonFiniteState()
        out[Q] = qw / norm, qx / norm, qy / norm, qz / norm
        return out

    return rates, step


# The truth step as dynamics.make_step wrote it in Python before it was
# compiled: the RK4 stages written out inline over 19 local floats, over
# the 45 constants make_step binds.  _truth.c must equal it bit for bit.
def make_segment_step(params):
    """step(s, w_cmd, wrenches, dt) of the platform params, as
    dynamics.make_step's Kernel.step: len(wrenches) RK4 steps from s
    under w_cmd, each with its wrench held, returned as a list; a
    diverging step raises NonFiniteState with its offset in the call and
    the state it started from."""
    m = params.mass
    jx, jy, jz = params.inertia
    tau = params.motor_time_constant
    # F1 / m, F2's rows over J_x, J_y, J_z, what scales a step's wrench,
    # the gyroscopic coefficients (J_y - J_z) / J_x, ... and 1 / tau
    eff = params.effectiveness
    per_inertia = eff.F2 / np.reshape(params.inertia, (3, 1))
    constants = (*(eff.F1 / m).ravel().tolist(), *per_inertia.ravel().tolist(),
                 m, jx, jy, jz, (jy - jz) / jx, (jz - jx) / jy, (jx - jy) / jz,
                 GRAVITY, 1.0 / tau)

    def step(s, w_cmd, wrenches, dt):
        (ax1, ax2, ax3, ax4, ax5, ax6, ay1, ay2, ay3, ay4, ay5, ay6,
         az1, az2, az3, az4, az5, az6, nx1, nx2, nx3, nx4, nx5, nx6,
         ny1, ny2, ny3, ny4, ny5, ny6, nz1, nz2, nz3, nz4, nz5, nz6,
         m, jx, jy, jz, ix, iy, iz, g, lam) = constants
        (px, py, pz, vx, vy, vz, qw, qx, qy, qz, ox, oy, oz,
         w1, w2, w3, w4, w5, w6) = s
        c1, c2, c3, c4, c5, c6 = w_cmd
        h, c, cp = 0.5 * dt, dt / 6.0, dt * dt / 6.0
        # the dq are twice q_dot: the 0.5 rides on the step sizes
        qh, qdt, qc = 0.5 * h, 0.5 * dt, 0.5 * c
        # the motor lag is linear: stage s's rotor speeds are c + ks (w - c)
        kb = 1.0 - h * lam
        kc = 1.0 - h * lam * kb
        kd = 1.0 - dt * lam * kc
        kn = 1.0 - c * lam * (1.0 + 2.0 * kb + 2.0 * kc + kd)
        for i, (dfx, dfy, dfz, dmx, dmy, dmz) in enumerate(wrenches):
            # stage a: the rates at the state; R(q) from doubled x2, y2, z2
            sx, sy, sz = dfx / m, dfy / m, dfz / m - g
            ex, ey, ez = dmx / jx, dmy / jy, dmz / jz
            r1, r2, r3 = w1 - c1, w2 - c2, w3 - c3
            r4, r5, r6 = w4 - c4, w5 - c5, w6 - c6
            u1, u2, u3 = w1 * abs(w1), w2 * abs(w2), w3 * abs(w3)
            u4, u5, u6 = w4 * abs(w4), w5 * abs(w5), w6 * abs(w6)
            bx = (ax1 * u1 + ax2 * u2 + ax3 * u3
                  + ax4 * u4 + ax5 * u5 + ax6 * u6)
            by = (ay1 * u1 + ay2 * u2 + ay3 * u3
                  + ay4 * u4 + ay5 * u5 + ay6 * u6)
            bz = (az1 * u1 + az2 * u2 + az3 * u3
                  + az4 * u4 + az5 * u5 + az6 * u6)
            x2, y2, z2 = qx + qx, qy + qy, qz + qz
            xx, yy, zz = qx * x2, qy * y2, qz * z2
            xy, xz, yz = qx * y2, qx * z2, qy * z2
            wx, wy, wz = qw * x2, qw * y2, qw * z2
            dvxa = ((1.0 - (yy + zz)) * bx + (xy - wz) * by
                    + (xz + wy) * bz + sx)
            dvya = ((xy + wz) * bx + (1.0 - (xx + zz)) * by
                    + (yz - wx) * bz + sy)
            dvza = ((xz - wy) * bx + (yz + wx) * by
                    + (1.0 - (xx + yy)) * bz + sz)
            dqwa = -qx * ox - qy * oy - qz * oz
            dqxa = qw * ox + qy * oz - qz * oy
            dqya = qw * oy - qx * oz + qz * ox
            dqza = qw * oz + qx * oy - qy * ox
            doxa = (nx1 * u1 + nx2 * u2 + nx3 * u3 + nx4 * u4
                    + nx5 * u5 + nx6 * u6 + ix * oy * oz + ex)
            doya = (ny1 * u1 + ny2 * u2 + ny3 * u3 + ny4 * u4
                    + ny5 * u5 + ny6 * u6 + iy * oz * ox + ey)
            doza = (nz1 * u1 + nz2 * u2 + nz3 * u3 + nz4 * u4
                    + nz5 * u5 + nz6 * u6 + iz * ox * oy + ez)
            # stage b: at the state plus h times stage a's rates
            qwb, qxb, qyb, qzb = (qw + qh * dqwa, qx + qh * dqxa,
                                  qy + qh * dqya, qz + qh * dqza)
            oxb, oyb, ozb = ox + h * doxa, oy + h * doya, oz + h * doza
            w1b, w2b, w3b = c1 + kb * r1, c2 + kb * r2, c3 + kb * r3
            w4b, w5b, w6b = c4 + kb * r4, c5 + kb * r5, c6 + kb * r6
            u1, u2, u3 = w1b * abs(w1b), w2b * abs(w2b), w3b * abs(w3b)
            u4, u5, u6 = w4b * abs(w4b), w5b * abs(w5b), w6b * abs(w6b)
            bx = (ax1 * u1 + ax2 * u2 + ax3 * u3
                  + ax4 * u4 + ax5 * u5 + ax6 * u6)
            by = (ay1 * u1 + ay2 * u2 + ay3 * u3
                  + ay4 * u4 + ay5 * u5 + ay6 * u6)
            bz = (az1 * u1 + az2 * u2 + az3 * u3
                  + az4 * u4 + az5 * u5 + az6 * u6)
            x2, y2, z2 = qxb + qxb, qyb + qyb, qzb + qzb
            xx, yy, zz = qxb * x2, qyb * y2, qzb * z2
            xy, xz, yz = qxb * y2, qxb * z2, qyb * z2
            wx, wy, wz = qwb * x2, qwb * y2, qwb * z2
            dvxb = ((1.0 - (yy + zz)) * bx + (xy - wz) * by
                    + (xz + wy) * bz + sx)
            dvyb = ((xy + wz) * bx + (1.0 - (xx + zz)) * by
                    + (yz - wx) * bz + sy)
            dvzb = ((xz - wy) * bx + (yz + wx) * by
                    + (1.0 - (xx + yy)) * bz + sz)
            dqwb = -qxb * oxb - qyb * oyb - qzb * ozb
            dqxb = qwb * oxb + qyb * ozb - qzb * oyb
            dqyb = qwb * oyb - qxb * ozb + qzb * oxb
            dqzb = qwb * ozb + qxb * oyb - qyb * oxb
            doxb = (nx1 * u1 + nx2 * u2 + nx3 * u3 + nx4 * u4
                    + nx5 * u5 + nx6 * u6 + ix * oyb * ozb + ex)
            doyb = (ny1 * u1 + ny2 * u2 + ny3 * u3 + ny4 * u4
                    + ny5 * u5 + ny6 * u6 + iy * ozb * oxb + ey)
            dozb = (nz1 * u1 + nz2 * u2 + nz3 * u3 + nz4 * u4
                    + nz5 * u5 + nz6 * u6 + iz * oxb * oyb + ez)
            # stage c: at the state plus h times stage b's rates
            qwc, qxc, qyc, qzc = (qw + qh * dqwb, qx + qh * dqxb,
                                  qy + qh * dqyb, qz + qh * dqzb)
            oxc, oyc, ozc = ox + h * doxb, oy + h * doyb, oz + h * dozb
            w1c, w2c, w3c = c1 + kc * r1, c2 + kc * r2, c3 + kc * r3
            w4c, w5c, w6c = c4 + kc * r4, c5 + kc * r5, c6 + kc * r6
            u1, u2, u3 = w1c * abs(w1c), w2c * abs(w2c), w3c * abs(w3c)
            u4, u5, u6 = w4c * abs(w4c), w5c * abs(w5c), w6c * abs(w6c)
            bx = (ax1 * u1 + ax2 * u2 + ax3 * u3
                  + ax4 * u4 + ax5 * u5 + ax6 * u6)
            by = (ay1 * u1 + ay2 * u2 + ay3 * u3
                  + ay4 * u4 + ay5 * u5 + ay6 * u6)
            bz = (az1 * u1 + az2 * u2 + az3 * u3
                  + az4 * u4 + az5 * u5 + az6 * u6)
            x2, y2, z2 = qxc + qxc, qyc + qyc, qzc + qzc
            xx, yy, zz = qxc * x2, qyc * y2, qzc * z2
            xy, xz, yz = qxc * y2, qxc * z2, qyc * z2
            wx, wy, wz = qwc * x2, qwc * y2, qwc * z2
            dvxc = ((1.0 - (yy + zz)) * bx + (xy - wz) * by
                    + (xz + wy) * bz + sx)
            dvyc = ((xy + wz) * bx + (1.0 - (xx + zz)) * by
                    + (yz - wx) * bz + sy)
            dvzc = ((xz - wy) * bx + (yz + wx) * by
                    + (1.0 - (xx + yy)) * bz + sz)
            dqwc = -qxc * oxc - qyc * oyc - qzc * ozc
            dqxc = qwc * oxc + qyc * ozc - qzc * oyc
            dqyc = qwc * oyc - qxc * ozc + qzc * oxc
            dqzc = qwc * ozc + qxc * oyc - qyc * oxc
            doxc = (nx1 * u1 + nx2 * u2 + nx3 * u3 + nx4 * u4
                    + nx5 * u5 + nx6 * u6 + ix * oyc * ozc + ex)
            doyc = (ny1 * u1 + ny2 * u2 + ny3 * u3 + ny4 * u4
                    + ny5 * u5 + ny6 * u6 + iy * ozc * oxc + ey)
            dozc = (nz1 * u1 + nz2 * u2 + nz3 * u3 + nz4 * u4
                    + nz5 * u5 + nz6 * u6 + iz * oxc * oyc + ez)
            # stage d: at the state plus dt times stage c's rates
            qwd, qxd, qyd, qzd = (qw + qdt * dqwc, qx + qdt * dqxc,
                                  qy + qdt * dqyc, qz + qdt * dqzc)
            oxd, oyd, ozd = ox + dt * doxc, oy + dt * doyc, oz + dt * dozc
            w1d, w2d, w3d = c1 + kd * r1, c2 + kd * r2, c3 + kd * r3
            w4d, w5d, w6d = c4 + kd * r4, c5 + kd * r5, c6 + kd * r6
            u1, u2, u3 = w1d * abs(w1d), w2d * abs(w2d), w3d * abs(w3d)
            u4, u5, u6 = w4d * abs(w4d), w5d * abs(w5d), w6d * abs(w6d)
            bx = (ax1 * u1 + ax2 * u2 + ax3 * u3
                  + ax4 * u4 + ax5 * u5 + ax6 * u6)
            by = (ay1 * u1 + ay2 * u2 + ay3 * u3
                  + ay4 * u4 + ay5 * u5 + ay6 * u6)
            bz = (az1 * u1 + az2 * u2 + az3 * u3
                  + az4 * u4 + az5 * u5 + az6 * u6)
            x2, y2, z2 = qxd + qxd, qyd + qyd, qzd + qzd
            xx, yy, zz = qxd * x2, qyd * y2, qzd * z2
            xy, xz, yz = qxd * y2, qxd * z2, qyd * z2
            wx, wy, wz = qwd * x2, qwd * y2, qwd * z2
            dvxd = ((1.0 - (yy + zz)) * bx + (xy - wz) * by
                    + (xz + wy) * bz + sx)
            dvyd = ((xy + wz) * bx + (1.0 - (xx + zz)) * by
                    + (yz - wx) * bz + sy)
            dvzd = ((xz - wy) * bx + (yz + wx) * by
                    + (1.0 - (xx + yy)) * bz + sz)
            dqwd = -qxd * oxd - qyd * oyd - qzd * ozd
            dqxd = qwd * oxd + qyd * ozd - qzd * oyd
            dqyd = qwd * oyd - qxd * ozd + qzd * oxd
            dqzd = qwd * ozd + qxd * oyd - qyd * oxd
            doxd = (nx1 * u1 + nx2 * u2 + nx3 * u3 + nx4 * u4
                    + nx5 * u5 + nx6 * u6 + ix * oyd * ozd + ex)
            doyd = (ny1 * u1 + ny2 * u2 + ny3 * u3 + ny4 * u4
                    + ny5 * u5 + ny6 * u6 + iy * ozd * oxd + ey)
            dozd = (nz1 * u1 + nz2 * u2 + nz3 * u3 + nz4 * u4
                    + nz5 * u5 + nz6 * u6 + iz * oxd * oyd + ez)
            nw = qw + qc * (dqwa + 2.0 * dqwb + 2.0 * dqwc + dqwd)
            nx = qx + qc * (dqxa + 2.0 * dqxb + 2.0 * dqxc + dqxd)
            ny = qy + qc * (dqya + 2.0 * dqyb + 2.0 * dqyc + dqyd)
            nz = qz + qc * (dqza + 2.0 * dqzb + 2.0 * dqzc + dqzd)
            # p gains dt v + dt^2/6 (a_a + a_b + a_c): no stage velocity
            out = (px + dt * vx + cp * (dvxa + dvxb + dvxc),
                   py + dt * vy + cp * (dvya + dvyb + dvyc),
                   pz + dt * vz + cp * (dvza + dvzb + dvzc),
                   vx + c * (dvxa + 2.0 * dvxb + 2.0 * dvxc + dvxd),
                   vy + c * (dvya + 2.0 * dvyb + 2.0 * dvyc + dvyd),
                   vz + c * (dvza + 2.0 * dvzb + 2.0 * dvzc + dvzd),
                   nw, nx, ny, nz,
                   ox + c * (doxa + 2.0 * doxb + 2.0 * doxc + doxd),
                   oy + c * (doya + 2.0 * doyb + 2.0 * doyc + doyd),
                   oz + c * (doza + 2.0 * dozb + 2.0 * dozc + dozd),
                   c1 + kn * r1, c2 + kn * r2, c3 + kn * r3,
                   c4 + kn * r4, c5 + kn * r5, c6 + kn * r6)
            norm = math.sqrt(nw * nw + nx * nx + ny * ny + nz * nz)
            # a sum of floats is finite only if every term is (or it
            # overflows, which is divergence too); q's norm overflows for
            # finite components whose squares do, and would turn q to 0
            if not (norm > 0.0 and math.isfinite(norm)
                    and math.isfinite(sum(out))):
                raise NonFiniteState(
                    state=[px, py, pz, vx, vy, vz, qw, qx, qy, qz, ox, oy,
                           oz, w1, w2, w3, w4, w5, w6], offset=i)
            (px, py, pz, vx, vy, vz, _, _, _, _, ox, oy, oz,
             w1, w2, w3, w4, w5, w6) = out
            qw, qx, qy, qz = nw / norm, nx / norm, ny / norm, nz / norm
        return [px, py, pz, vx, vy, vz, qw, qx, qy, qz, ox, oy, oz,
                w1, w2, w3, w4, w5, w6]

    return step


# ---------------------------------------------------------------------------
# The tick side of the closed loop as it was before it was written out
# straight-line: the shaper, the outer loop, the geo and indi ticks (which
# allocate through vehicle's solve_wrench and saturate), the disturbance
# sampler and sensor synthesis, over the row-tuple geometry helpers.  The
# package's forms, the compiled controller ticks included, must equal
# them bit for bit.

def rotmat_rows(q):
    """R(q) mapping body vectors to world, as three row tuples."""
    w, x, y, z = q
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def mat_vec(rows, v):
    """The 3x3 matrix given by its rows times the 3-vector v."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    x, y, z = v
    return (a * x + b * y + c * z, d * x + e * y + f * z,
            g * x + h * y + i * z)


def mat_t_vec(rows, v):
    """The transpose of the 3x3 matrix given by its rows times v."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    x, y, z = v
    return (a * x + d * y + g * z, b * x + e * y + h * z,
            c * x + f * y + i * z)


def attitude_error_vector(q_d, q_b):
    """Shortest-path attitude error 2*sign(eta)*eps of q_d (x) q_b^-1
    for unit quaternions q_d and q_b.

    Zero iff the two attitudes agree up to quaternion sign; magnitude
    is bounded by 2.
    """
    dw, dx, dy, dz = q_d
    w, x, y, z = q_b
    eta = dw * w + dx * x + dy * y + dz * z
    s = 2.0 if eta >= 0.0 else -2.0
    return (s * (-dw * x + dx * w - dy * z + dz * y),
            s * (-dw * y + dx * z + dy * w - dz * x),
            s * (-dw * z - dx * y + dy * x + dz * w))


def angular_rate_error(omega_b, omega_d, q_b, q_d):
    """Body-frame rate error: omega_b - R(q_b)^T R(q_d) omega_d."""
    r0, r1, r2 = mat_t_vec(rotmat_rows(q_b),
                           mat_vec(rotmat_rows(q_d), omega_d))
    return omega_b[0] - r0, omega_b[1] - r1, omega_b[2] - r2


def euler_rate_matrix(roll, pitch):
    """Maps ZYX Euler angle rates [roll', pitch', yaw'] to body rates;
    three row tuples."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    return ((1.0, 0.0, -sp),
            (0.0, cr, sr * cp),
            (0.0, -sr, cr * cp))


def outer_loop(gains, ref, pos, vel, q, omega):
    """Shared error dynamics producing the pseudo-control accelerations.

    Every argument is a sequence of numbers; a list of Python floats is
    fastest."""
    k_p, k_v, k_q, k_w = gains.k_p, gains.k_v, gains.k_q, gains.k_w
    v_p = [k_p * (p_d - p) + k_v * (v_d - v) + a_d
           for p_d, p, v_d, v, a_d in zip(ref.p_d, pos, ref.v_d, vel,
                                          ref.a_d)]
    e_q = attitude_error_vector(ref.q_d, q)
    e_w = angular_rate_error(omega, ref.omega_d, q, ref.q_d)
    v_att = [k_q * eq - k_w * ew + wd
             for eq, ew, wd in zip(e_q, e_w, ref.omega_dot_d)]
    return v_p, v_att


class ReferenceShaper:
    """Second-order reference model turning raw setpoints into smooth,
    physically feasible references with consistent derivatives.

    Position axes and Euler-angle axes are shaped independently by
    critically damped second-order dynamics discretized exactly (closed-form
    zero-order hold) at the controller rate.  Body-rate references neglect the
    Euler-rate matrix derivative, adequate for the commanded step sizes.
    """

    def __init__(self, dt):
        self._pos = _ShapedAxes(dt, 4.0, 3)    # natural frequencies, rad/s
        self._att = _ShapedAxes(dt, 12.0, 3)

    def reset_to(self, pos, rpy):
        self._pos.reset_to(pos)
        self._att.reset_to(rpy)

    def step(self, target_pos, target_rpy):
        p_d, v_d, a_d = self._pos.step(target_pos)
        rpy, rpy_rate, rpy_acc = self._att.step(target_rpy)
        rows = euler_rate_matrix(rpy[0], rpy[1])
        return PoseReference(
            p_d=p_d, v_d=v_d, a_d=a_d,
            q_d=quat_from_rpy(*rpy),
            omega_d=mat_vec(rows, rpy_rate),
            omega_dot_d=mat_vec(rows, rpy_acc))


class _ShapedAxes:
    """Critically damped second-order shaping of each channel toward its
    target, x'' = wn^2 (target - x) - 2 wn x', discretized exactly under
    a zero-order hold on the target.  The state is kept as lists of
    Python floats."""

    def __init__(self, dt, natural_frequency, channels):
        wn = self.wn = natural_frequency
        e = math.exp(-wn * dt)
        self.ad = ((e * (1.0 + wn * dt), e * dt),
                   (e * (-wn * wn * dt), e * (1.0 - wn * dt)))
        # 1 - e (1 + wn dt), written so it does not cancel for small wn dt
        self.bd = (-math.expm1(-wn * dt) - wn * dt * e, e * wn * wn * dt)
        self.x = [0.0] * channels
        self.xd = [0.0] * channels

    def reset_to(self, value):
        self.x = [float(v) for v in value]
        self.xd = [0.0] * len(self.x)

    def step(self, target):
        """Advance one sample toward target; returns the value, rate and
        acceleration before the step."""
        (a00, a01), (a10, a11) = self.ad
        b0, b1 = self.bd
        wn2, two_wn = self.wn ** 2, 2 * self.wn
        x, xd = self.x, self.xd
        acc, x_new, xd_new = [], [], []
        for g, v, r in zip(target, x, xd):
            acc.append(wn2 * (g - v) - two_wn * r)
            x_new.append(a00 * v + a01 * r + b0 * g)
            xd_new.append(a10 * v + a11 * r + b1 * g)
        self.x, self.xd = x_new, xd_new
        return x, xd, acc


class GeoNdiController:
    """Model-based geometric NDI: outer loop -> model inversion -> allocation."""

    name = "geo"

    def __init__(self, model, gains, dt):
        self.model = model
        self.gains = gains
        self.shaper = ReferenceShaper(dt)

    def warm_start(self, pos, q, trim_cmd):
        self.shaper.reset_to(pos, rpy_from_quat(q))

    def tick(self, target_pos, target_rpy, inputs):
        ref = self.shaper.step(target_pos, target_rpy)
        nu = outer_loop(self.gains, ref, inputs.pos, inputs.vel,
                        inputs.q, inputs.gyro)
        wrench = ndi_invert(nu, inputs.gyro, self.model)
        return vehicle.allocate(self.model.effectiveness, inputs.q,
                                wrench), ref


class IndiController:
    """Sensor-based incremental inversion.

    The accelerometer, gyro and rotor-speed channels run through one
    12-channel second-order low-pass filter, so their group delays match
    by construction (Smeur, Chu & de Croon, JGCD 2016); the angular
    acceleration is the backward difference of the filtered gyro.  The
    commanded u is an increment on the *measured* rotor state, so after
    saturation the next increment starts from what the actuators actually
    achieved.
    """

    name = "indi"

    def __init__(self, model, gains, dt, filter_cutoff_hz=FILTER_CUTOFF_HZ,
                 filter_damping=FILTER_DAMPING):
        self.model = model
        self.gains = gains
        self.shaper = ReferenceShaper(dt)
        # channels: specific force (3), gyro (3), squared rotor speeds (6)
        self.feedback = SecondOrderFilter(
            2 * math.pi * filter_cutoff_hz, filter_damping, dt, 12)
        self.d_gyro = FilteredDerivative(dt, 3)

    def warm_start(self, pos, q, trim_cmd):
        self.shaper.reset_to(pos, rpy_from_quat(q))
        self.feedback.reset_to([0.0, 0.0, GRAVITY, 0.0, 0.0, 0.0,
                                *trim_cmd.u])
        self.d_gyro.reset_to([0.0, 0.0, 0.0])

    def tick(self, target_pos, target_rpy, inputs):
        ref = self.shaper.step(target_pos, target_rpy)

        u_meas = [w * abs(w) for w in inputs.rotor_w_meas]
        filtered = self.feedback.step(
            [*inputs.accel, *inputs.gyro, *u_meas])
        accel_f, gyro_f, u0 = filtered[:3], filtered[3:6], filtered[6:]

        # the gyro channel is low-pass filtered like every other sensor
        # path, so the rate error sees the same group delay
        nu = outer_loop(self.gains, ref, inputs.pos, inputs.vel,
                        inputs.q, gyro_f)
        ax, ay, az = mat_vec(rotmat_rows(inputs.q), accel_f)
        omdot0 = self.d_gyro.step(gyro_f)

        p = self.model
        m = p.mass
        (vx, vy, vz), v_att = nu
        increment = (m * (vx - ax), m * (vy - ay), m * (vz - (az - GRAVITY)),
                     *[j * (v - w)
                       for j, v, w in zip(p.inertia, v_att, omdot0)])
        eff = self.model.effectiveness
        u = [a + b for a, b in zip(
            vehicle.solve_wrench(eff, inputs.q, increment), u0)]
        return vehicle.saturate(eff, u), ref


class DisturbanceSampler:
    """Per-run disturbance source; holds the colored-noise gust state.

    step(t) returns the total (world force, body moment), two 3-tuples
    of floats, held over the truth step starting at t: the spec's values
    inside [t_on, t_off), zero outside, plus the constant residual
    wrench.  A gust adds to the force an Ornstein-Uhlenbeck process (std
    gust_std, correlation time gust_corr_time) that advances on every
    call; every other held value is computed once.

    run_scenario steps it once before the loop and again at k = 0, and the
    accelerometer at a tick sees the previous step's draw.
    """

    def __init__(self, spec, dt, rng, residual_force=(0.0, 0.0, 0.0),
                 residual_moment=(0.0, 0.0, 0.0)):
        self.spec = spec
        self.rng = rng
        self._ou = [0.0, 0.0, 0.0]
        decay = np.exp(-dt / spec.gust_corr_time)
        self._decay = float(decay)
        self._diffusion = float(spec.gust_std * np.sqrt(1.0 - decay ** 2))
        self._force = np.asarray(spec.force, dtype=float).tolist()
        self._residual_force = np.asarray(residual_force, dtype=float).tolist()
        zero = np.zeros(3)
        self._off = (tuple((zero + residual_force).tolist()),
                     tuple((zero + residual_moment).tolist()))
        self._on = (tuple(((spec.force + zero) + residual_force).tolist()),
                    tuple(np.add(spec.moment, residual_moment).tolist()))

    def step(self, t):
        spec = self.spec
        if spec.kind == "gust":
            a, s = self._decay, self._diffusion
            self._ou = [a * o + s * n for o, n in
                        zip(self._ou, self.rng.standard_normal(3).tolist())]
        if spec.kind == "none" or not spec.t_on <= t < spec.t_off:
            return self._off
        if spec.kind == "gust":
            return (tuple((f + o) + r for f, o, r in zip(
                self._force, self._ou, self._residual_force)), self._on[1])
        return self._on


@dataclass(frozen=True)
class NoiseSpec:
    gyro_sigma: float = 0.02     # rad/s
    accel_sigma: float = 0.05    # m/s^2
    rotor_sigma: float = 1.0     # rad/s
    scale: float = 0.0           # experiment factor applied to all sigmas


@dataclass
class SensorReadings:
    accel: list          # specific force, body, m/s^2
    gyro: list           # rad/s, body
    rotor_w_meas: list   # rad/s


def synthesize_sensors(x, accel_world, noise, rng):
    """Sensor outputs at the truth state x (a sequence laid out as the
    state vector; a list of Python floats is fastest).

    accel is the specific force R(q)^T (p_ddot + g e3); gyro and rotor
    tachometers read the body rate and rotor speeds.  Per-channel white
    Gaussian noise with sigma * scale, drawn as 12 normals per call in
    the order accel, gyro, rotor.
    """
    ax, ay, az = accel_world
    accel = mat_t_vec(rotmat_rows(x[Q]), (ax, ay, az + GRAVITY))
    gyro, rotor = x[OMEGA], x[ROTOR_W]
    s = noise.scale
    if s > 0.0:
        draws = rng.standard_normal(12).tolist()
        sa, sg, sr = (s * noise.accel_sigma, s * noise.gyro_sigma,
                      s * noise.rotor_sigma)
        accel = [a + sa * d for a, d in zip(accel, draws[:3])]
        gyro = [g + sg * d for g, d in zip(gyro, draws[3:6])]
        rotor = [w + sr * d for w, d in zip(rotor, draws[6:])]
    return SensorReadings(accel=accel, gyro=gyro, rotor_w_meas=rotor)


# ---------------------------------------------------------------------------
# numpy oracles: the controller layers and the truth step as they were
# written over numpy arrays, before the closed loop moved to Python
# floats.  The float versions must match them to rounding.

def numpy_attitude_error_vector(q_d, q_b):
    e = quat_mul(q_d, quat_conj(q_b))
    sign = 1.0 if e[0] >= 0.0 else -1.0
    return 2.0 * sign * e[1:]


def numpy_angular_rate_error(omega_b, omega_d, q_b, q_d):
    return omega_b - quat_to_rotmat(q_b).T @ (quat_to_rotmat(q_d) @ omega_d)


def numpy_euler_rate_matrix(roll, pitch):
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    return np.array([[1.0, 0.0, -sp], [0.0, cr, sr * cp],
                     [0.0, -sr, cr * cp]])


def numpy_outer_loop(gains, ref, pos, vel, q, omega):
    e_p = np.asarray(ref.p_d) - pos
    e_v = np.asarray(ref.v_d) - vel
    v_p = gains.k_p * e_p + gains.k_v * e_v + ref.a_d
    e_q = numpy_attitude_error_vector(np.asarray(ref.q_d), q)
    e_w = numpy_angular_rate_error(omega, np.asarray(ref.omega_d), q,
                                   np.asarray(ref.q_d))
    v_att = gains.k_q * e_q - gains.k_w * e_w + ref.omega_dot_d
    return v_p, v_att


def numpy_ndi_invert(nu, omega, model):
    p = model
    v_p, v_att = nu
    jw = np.asarray(p.inertia) * omega
    force = p.mass * np.asarray(v_p) + p.mass * GRAVITY * E3
    torque = np.asarray(p.inertia) * v_att + np.cross(omega, jw)
    return np.concatenate([force, torque])


def numpy_saturate(eff, u):
    clamped = np.clip(u, eff.u_min, eff.u_max)
    flags = (u < eff.u_min) | (u > eff.u_max)
    return vehicle.ActuatorCommand(u=clamped, w_cmd=np.sqrt(clamped),
                                   saturated=flags)


def numpy_allocate(eff, q, wrench):
    rot = quat_to_rotmat(q)
    rhs = np.concatenate([rot.T @ wrench[:3], wrench[3:]])
    return numpy_saturate(eff, eff.F0_inv @ rhs)


class NumpyShapedAxes:
    def __init__(self, dt, wn):
        axes = _ShapedAxes(dt, wn, 3)
        self.wn, self.ad, self.bd = wn, np.array(axes.ad), np.array(axes.bd)
        self.x, self.xd = np.zeros(3), np.zeros(3)

    def step(self, target):
        target = np.asarray(target, dtype=float)
        acc = self.wn ** 2 * (target - self.x) - 2 * self.wn * self.xd
        x_new = (self.ad[0, 0] * self.x + self.ad[0, 1] * self.xd
                 + self.bd[0] * target)
        xd_new = (self.ad[1, 0] * self.x + self.ad[1, 1] * self.xd
                  + self.bd[1] * target)
        out = (self.x.copy(), self.xd.copy(), acc)
        self.x, self.xd = x_new, xd_new
        return out


class NumpyShaper:
    def __init__(self, dt):
        self._pos = NumpyShapedAxes(dt, 4.0)
        self._att = NumpyShapedAxes(dt, 12.0)

    def reset_to(self, pos, rpy):
        for axes, value in ((self._pos, pos), (self._att, rpy)):
            axes.x = np.asarray(value, dtype=float).copy()
            axes.xd = np.zeros(3)

    def step(self, target_pos, target_rpy):
        p_d, v_d, a_d = self._pos.step(target_pos)
        rpy, rpy_rate, rpy_acc = self._att.step(target_rpy)
        e = numpy_euler_rate_matrix(rpy[0], rpy[1])
        return PoseReference(p_d=p_d, v_d=v_d, a_d=a_d,
                             q_d=np.array(quat_from_rpy(*rpy)),
                             omega_d=e @ rpy_rate, omega_dot_d=e @ rpy_acc)


class NumpyBiquad:
    def __init__(self, wn, damping, dt, channels):
        k = 2.0 / dt
        a0 = k * k + 2 * damping * wn * k + wn * wn
        self.b = np.array([wn * wn, 2 * wn * wn, wn * wn]) / a0
        self.a1 = (2 * wn * wn - 2 * k * k) / a0
        self.a2 = (k * k - 2 * damping * wn * k + wn * wn) / a0
        self.z1, self.z2 = np.zeros(channels), np.zeros(channels)

    def reset_to(self, value):
        self.z2 = (self.b[2] - self.a2) * value
        self.z1 = (self.b[1] - self.a1) * value + self.z2

    def step(self, x):
        y = self.b[0] * x + self.z1
        self.z1 = self.b[1] * x - self.a1 * y + self.z2
        self.z2 = self.b[2] * x - self.a2 * y
        return y


class NumpyGeo:
    def __init__(self, model, gains, dt):
        self.model, self.gains, self.shaper = model, gains, NumpyShaper(dt)

    def warm_start(self, pos, q, trim_cmd):
        self.shaper.reset_to(pos, rpy_from_quat(q))

    def tick(self, target_pos, target_rpy, inputs):
        ref = self.shaper.step(target_pos, target_rpy)
        nu = numpy_outer_loop(self.gains, ref, inputs.pos, inputs.vel,
                              inputs.q, inputs.gyro)
        wrench = numpy_ndi_invert(nu, inputs.gyro, self.model)
        return numpy_allocate(self.model.effectiveness, inputs.q, wrench), ref


class NumpyIndi:
    def __init__(self, model, gains, dt):
        self.model, self.gains, self.dt = model, gains, dt
        self.shaper = NumpyShaper(dt)
        self.feedback = NumpyBiquad(2 * np.pi * FILTER_CUTOFF_HZ,
                                    FILTER_DAMPING, dt, 12)
        self.prev_gyro = np.zeros(3)

    def warm_start(self, pos, q, trim_cmd):
        self.shaper.reset_to(pos, rpy_from_quat(q))
        self.feedback.reset_to(
            np.concatenate([GRAVITY * E3, np.zeros(3), trim_cmd.u]))
        self.prev_gyro = np.zeros(3)

    def tick(self, target_pos, target_rpy, inputs):
        ref = self.shaper.step(target_pos, target_rpy)
        rot = quat_to_rotmat(inputs.q)
        u_meas = inputs.rotor_w_meas * np.abs(inputs.rotor_w_meas)
        filtered = self.feedback.step(
            np.concatenate([inputs.accel, inputs.gyro, u_meas]))
        accel_f, gyro_f, u0 = filtered[:3], filtered[3:6], filtered[6:]
        nu = numpy_outer_loop(self.gains, ref, inputs.pos, inputs.vel,
                              inputs.q, gyro_f)
        pddot0 = rot @ accel_f - GRAVITY * E3
        omdot0 = (gyro_f - self.prev_gyro) / self.dt
        self.prev_gyro = gyro_f.copy()
        p = self.model
        v_p, v_att = nu
        force_inc = p.mass * (v_p - pddot0)
        torque_inc = np.asarray(p.inertia) * (v_att - omdot0)
        rhs = np.concatenate([rot.T @ force_inc, torque_inc])
        u = self.model.effectiveness.F0_inv @ rhs + u0
        return numpy_saturate(self.model.effectiveness, u), ref


def numpy_derivative(x, params, w_cmd, dist_force, dist_moment):
    """The numpy form of dyn.derivative over state vectors, kept as the
    oracle of the scalar kernel."""
    eff = params.effectiveness
    q, om, rotor_w = x[dyn.Q], x[dyn.OMEGA], x[dyn.ROTOR_W]
    u = rotor_w * np.abs(rotor_w)
    j = np.asarray(params.inertia)
    force_w = (quat_to_rotmat(q) @ (eff.F1 @ u)
               - params.mass * GRAVITY * E3 + dist_force)
    torque = eff.F2 @ u - np.cross(om, j * om) + dist_moment
    dx = np.empty(dyn.STATE_SIZE)
    dx[dyn.P] = x[dyn.V]
    dx[dyn.V] = force_w / params.mass
    dx[dyn.Q] = quat_derivative(q, om)
    dx[dyn.OMEGA] = torque / j
    dx[dyn.ROTOR_W] = (w_cmd - rotor_w) / params.motor_time_constant
    return dx


def numpy_step(x, params, cmd, dist_force, dist_moment, dt):
    def f(s):
        return numpy_derivative(s, params, cmd.w_cmd, dist_force,
                                dist_moment)
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    out = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    out[dyn.Q] /= np.linalg.norm(out[dyn.Q])
    return out


# The closed loop as experiments.run_scenario ran it in Python before
# _truth.c's ticks took it over, a tick at a time over the package's
# Python layers (dynamics.synthesize_sensors, the DisturbanceSampler,
# _script_target) and its compiled step and controller tick, which it
# looks up at every call.  ticks must equal it bit for bit.
def run_scenario(scenario, params=None):
    """experiments.run_scenario, the loop in Python: the same (log,
    RunMetrics) and NonFiniteState.  The gust and the sensor noise draw
    from one default_rng(seed), in the order _truth.c's ticks draws."""
    params = params or vehicle.default_params()
    kernel = dyn.make_step(params)
    model = make_model(params, scenario.cf_mismatch)

    dt = dyn.SIM_DT
    n_sub, n_steps = ex._clock(scenario)
    dt_c = n_sub * dt
    pose_every = int(round(1.0 / (ex.POSE_RATE_HZ * dt)))

    # one Generator feeds the gust (3 normals a truth step, drawn a tick
    # at a time) and the sensor noise (12 a noisy tick), in the order they
    # draw
    rng = np.random.default_rng(scenario.seed)
    # noise_scale multiplies the noise variances, so sigma goes with its root
    sigma_scale = math.sqrt(scenario.noise_scale)

    controller = make_controller(
        scenario.controller, model, scenario.gains, dt_c,
        scenario.filter_cutoff_hz, scenario.filter_damping)

    trim = params.hover
    times = [sp.t for sp in scenario.script]
    p0, rpy0 = ex._script_target(scenario.script, times, 0.0)
    q0 = quat_from_rpy(*rpy0)
    x = [*p0, 0.0, 0.0, 0.0, *q0, 0.0, 0.0, 0.0, *trim.w_cmd]
    controller.warm_start(p0, q0, trim)

    sampler = dyn.DisturbanceSampler(
        scenario.disturbance, dt, rng,
        [scenario.residual_scale * r for r in ex.RESIDUAL_FORCE],
        [scenario.residual_scale * r for r in ex.RESIDUAL_MOMENT])

    # a row per tick in LOG_LAYOUT order; w_meas holds the rotor speeds
    n_ticks = (n_steps + n_sub - 1) // n_sub
    rows = np.empty((n_ticks, len(ex.LOG_HEADER)))
    motion = slice(dyn.P.start, dyn.OMEGA.stop)

    # x is the state as a list of Python floats; the pose is the latest
    # sample of the 250 Hz pose clock, held between samples.  Each tick
    # senses, ticks and logs at its first truth step k, draws the wrenches
    # of its n_sub truth steps, then runs them in segments that end at a
    # pose sample or at the tick's end, one dynamics.step call each
    script, P, Q = scenario.script, dyn.P, dyn.Q
    force = sampler.step(0, 1)[0][:3]
    pose_p, pose_q = x[P], x[Q]
    try:
        for tick in range(n_ticks):
            k = tick * n_sub
            t = k * dt
            accel, gyro, w_meas = dyn.synthesize_sensors(
                x, kernel, force, sigma_scale, rng)
            inputs = ControllerInputs(
                pos=pose_p, vel=x[dyn.V], q=pose_q, gyro=gyro,
                accel=accel, rotor_w_meas=w_meas)
            target_pos, target_rpy = ex._script_target(script, times, t)
            cmd, ref = controller.tick(target_pos, target_rpy, inputs)
            rows[tick] = (t, *x[motion], *ref.p_d, *ref.v_d, *ref.q_d,
                          *ref.omega_d,
                          *row_errors(x[P], x[Q], ref.p_d, ref.q_d),
                          *cmd.u, *cmd.w_cmd, *w_meas, *cmd.saturated)
            first, end = k, min(k + n_sub, n_steps)
            wrenches = sampler.step(k, end - k)
            force = wrenches[-1][:3]
            while k < end:
                cut = min(end, k - k % pose_every + pose_every)
                x = dyn.step(x, kernel, cmd,
                             wrenches[k - first:cut - first], dt)
                k = cut
                if k % pose_every == 0:
                    pose_p, pose_q = x[P], x[Q]
    except NonFiniteState as exc:
        # k is the first step of the segment that diverged
        raise NonFiniteState(
            exc.message, t=(k + exc.offset) * dt, scenario=scenario.id,
            seed=scenario.seed, state=exc.state) from exc
    return ex._log_and_metrics(scenario, rows)


def row_errors(p, q, ref_p, ref_q):
    """The 6 tracking errors of a log row, e_p then e_att_deg, as
    _truth.c's row_errors forms them, over Python floats: ref_p - p, and
    the roll, pitch and yaw in degrees of ref_q (x) conj(q), the product
    in geometry.quat_mul's expression order, normalised by the root of
    its squares summed in order, and the angles in rpy_from_quat's, by
    math.atan2 and math.asin."""
    aw, ax, ay, az = ref_q
    bw, bx, by, bz = q[0], -q[1], -q[2], -q[3]
    w = aw * bw - ax * bx - ay * by - az * bz
    x = aw * bx + ax * bw + ay * bz - az * by
    y = aw * by - ax * bz + ay * bw + az * bx
    z = aw * bz + ax * by - ay * bx + az * bw
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    e_p = (ref_p[0] - p[0], ref_p[1] - p[1], ref_p[2] - p[2])
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    s = min(max(2.0 * (w * y - z * x), -1.0), 1.0)
    deg = 180.0 / math.pi
    return (*e_p,
            math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
            * deg,
            math.asin(s) * deg,
            math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
            * deg)


def whole_log_errors(log):
    """(e_p, e_att_deg) of a run log, computed after the loop from its
    truth and reference columns by row_errors, row by row."""
    errors = np.array([row_errors(*row) for row in zip(
        *(log[name].tolist() for name in ("p", "q", "ref_p", "ref_q")))])
    return errors[:, :3], errors[:, 3:]


def error_statistics(log, window):
    """experiments.error_statistics in numpy, the form _truth.c's
    statistics reproduces: a boolean mask, np.linalg.norm by row and the
    axis-0 means, peaks and the norms' means and stds of the masked
    copies."""
    t = log["t"]
    mask = (t >= window[0]) & (t < window[1])
    if not mask.any():
        raise ex.EmptyWindow(f"no samples in {window}")
    e_p, e_att = log["e_p"][mask], log["e_att_deg"][mask]
    lon = np.linalg.norm(e_att[:, :2], axis=1)
    pos_norm = np.linalg.norm(e_p, axis=1)
    # the masked copies are this call's own
    np.abs(e_p, out=e_p)
    np.abs(e_att, out=e_att)
    return ex.RunMetrics(
        pos_abs_mean=e_p.mean(axis=0),
        pos_abs_peak=e_p.max(axis=0),
        att_abs_mean_deg=e_att.mean(axis=0),
        att_abs_peak_deg=e_att.max(axis=0),
        lon_att_mean_deg=float(lon.mean()),
        lon_att_std_deg=float(lon.std()),
        pos_norm_mean=float(pos_norm.mean()),
        pos_norm_std=float(pos_norm.std()),
    )


# ---------------------------------------------------------------------------
# valid platforms for the property tests

unit = st.floats(-1.0, 1.0)
tilt_degs = st.floats(0.01, 89.9)
tilt_signs = st.sampled_from((1.0, -1.0))


def can_hover(params):
    return not any(params.hover.saturated)


@st.composite
def platforms(draw):
    """A valid platform: mass, inertia, tilt of either sign, arm length,
    rotor limits, c_f (as a thrust-to-weight ratio at w_max, some of them
    below 1), c_tau and motor lag."""
    mass = draw(st.floats(0.5, 10.0))
    tilt = draw(tilt_signs) * np.deg2rad(draw(tilt_degs))
    w_min = draw(st.floats(20.0, 200.0))
    w_max = w_min * draw(st.floats(3.0, 12.0))
    c_f = (draw(st.floats(0.8, 5.0)) * mass * GRAVITY
           / (6.0 * w_max ** 2 * np.cos(tilt)))
    return vehicle.PlatformParams(
        mass=mass, inertia=draw(st.tuples(*[st.floats(0.01, 0.5)] * 3)),
        c_f=c_f, c_tau=draw(st.floats(0.005, 0.05)) * c_f,
        arm_length=draw(st.floats(0.05, 1.0)), tilt_angle=tilt,
        w_min=w_min, w_max=w_max,
        motor_time_constant=draw(st.floats(0.005, 0.1)))


hovering_platforms = platforms().filter(can_hover)
