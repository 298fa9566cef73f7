/* The compiled hot path of hexsim: the RK4 truth step of
   hexsim.dynamics, the controller ticks of hexsim.control and the
   closed loop of hexsim.experiments.run_scenario that runs them.

   step(constants, s, w_cmd, wrenches, dt) runs len(wrenches) classical
   RK4 steps from the state s (19 numbers) under the rotor command w_cmd
   (6 numbers), each with its wrench (fx, fy, fz, mx, my, mz: world
   force, body moment) held, and returns the new state as a list of 19
   floats.  constants are the N_TRUTH floats of
   dynamics.truth_constants: F1 / m and F2 over (J_x, J_y, J_z) row by
   row, m, J_x, J_y, J_z, the gyroscopic coefficients (J_y - J_z) / J_x,
   ..., g and 1 / tau, then F1 row by row, which only the closed loop's
   accelerometer reads.

   Its stages take the rigid-body rates in fewer operations than the
   textbook form, equal to rounding: a stage's rotor speeds are
   w_cmd + k (w - w_cmd), and p gains dt v + dt^2/6 (a_a + a_b + a_c).
   Every operation is that of the Python step in tests/oracles.py, in
   the same order.  After every step q is normalised and the state
   checked; a diverging step raises the module's NonFiniteState
   (dynamics sets it on load) with its offset in the call and the state
   it started from.

   geo_tick and indi_tick are one tick of control.GeoNdiController and
   control.IndiController: the reference shaper, (INDI's 12-channel
   filter bank and its gyro difference,) outer_loop, ndi_invert or
   indi_invert, solve_wrench and saturate, each the Python layer of
   control.py and vehicle.py ported expression by expression in the
   same order, with math.cos and math.sin as libm's cos and sin.  The
   controller binds each to its constants and to the state it owns, two
   array('d') buffers laid out as the C_ and S_ offsets below say; a
   tick updates the state in place.

   ticks(...) runs a block of closed-loop ticks and writes their log
   rows: per tick the sensors of dynamics.synthesize_sensors, the
   setpoint of experiments._script_target, the controller tick above,
   and the wrenches (dynamics.DisturbanceSampler.step) and RK4 steps of
   its truth steps.  The sensor noise and the gust draw from the run's
   stream (see stream below), numpy's default_rng(seed).  Its Python
   form, the loop run_scenario ran before, is tests/oracles.py's
   run_scenario.

   csv_rows(rows, n_flags) writes log rows as the lines of log.csv,
   each float with the bytes of repr.

   dynamics.py builds this file with -ffp-contract=off and without
   -ffast-math, so each operation rounds as a CPython float does: the
   compiled and the Python forms agree bit for bit.  It links numpy's
   static libnpyrandom.a for random_standard_normal. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include "numpy/random/distributions.h"

#define T_F1 45       /* F1 row by row: the truth constants past the step's */
#define N_TRUTH 63
#define STATE_SIZE 19

/* The n numbers of the sequence seq into out; -1 with an exception set
   unless seq holds exactly n numbers. */
static int
read_numbers(PyObject *seq, double *out, Py_ssize_t n, const char *what)
{
    PyObject *fast = PySequence_Fast(seq, what);
    if (fast == NULL)
        return -1;
    Py_ssize_t size = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    int ok = size == n;
    if (!ok)
        PyErr_Format(PyExc_ValueError, "%s: expected %zd values, got %zd",
                     what, n, size);
    for (Py_ssize_t i = 0; ok && i < n; i++) {
        out[i] = PyFloat_AsDouble(items[i]);
        ok = !(out[i] == -1.0 && PyErr_Occurred());
    }
    Py_DECREF(fast);
    return ok ? 0 : -1;
}

/* A new list (or tuple) of the n floats x. */
static PyObject *
floats(const double *x, Py_ssize_t n, int as_list)
{
    PyObject *seq = as_list ? PyList_New(n) : PyTuple_New(n);
    for (Py_ssize_t i = 0; seq != NULL && i < n; i++) {
        PyObject *value = PyFloat_FromDouble(x[i]);
        if (value == NULL)
            Py_CLEAR(seq);
        else if (as_list)
            PyList_SET_ITEM(seq, i, value);
        else
            PyTuple_SET_ITEM(seq, i, value);
    }
    return seq;
}

/* Set module.NonFiniteState(state=list(x), offset=offset) as the
   exception. */
static void
diverged(PyObject *module, const double *x, Py_ssize_t offset)
{
    PyObject *cls = PyObject_GetAttrString(module, "NonFiniteState");
    PyObject *args = PyTuple_New(0);
    PyObject *kwargs = Py_BuildValue("{s:N,s:n}", "state", floats(x, STATE_SIZE, 1),
                                     "offset", offset);
    if (cls != NULL && args != NULL && kwargs != NULL) {
        PyObject *exc = PyObject_Call(cls, args, kwargs);
        if (exc != NULL) {
            PyErr_SetObject(cls, exc);
            Py_DECREF(exc);
        }
    }
    Py_XDECREF(kwargs);
    Py_XDECREF(args);
    Py_XDECREF(cls);
}

/* The n doubles of the array('d') obj into view; -1 with an exception
   set unless it holds exactly n. */
static int
get_doubles(PyObject *obj, Py_buffer *view, Py_ssize_t n, int flags,
            const char *what)
{
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->len != n * (Py_ssize_t)sizeof(double)) {
        PyErr_Format(PyExc_ValueError, "%s: expected %zd doubles, got %zd "
                     "bytes", what, n, view->len);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* The rates of one stage at the attitude q, body rate o and rotor
   speeds w, with the wrench's specific force s (less g) and angular
   acceleration e: v_dot into dv, twice q_dot into dq, omega_dot into
   dom.  R(q) is formed from doubled x, y, z. */
static inline void
stage(const double *k, const double *q, const double *o, const double *w,
      const double *s, const double *e, double *dv, double *dq, double *dom)
{
    const double *a = k, *n = k + 18, ix = k[40], iy = k[41], iz = k[42];
    const double qw = q[0], qx = q[1], qy = q[2], qz = q[3];
    const double ox = o[0], oy = o[1], oz = o[2];
    double u[6], b[3], t[3];
    for (int j = 0; j < 6; j++)
        u[j] = w[j] * fabs(w[j]);
    for (int r = 0; r < 3; r++) {
        const double *ar = a + 6 * r, *nr = n + 6 * r;
        b[r] = (ar[0] * u[0] + ar[1] * u[1] + ar[2] * u[2]
                + ar[3] * u[3] + ar[4] * u[4] + ar[5] * u[5]);
        t[r] = (nr[0] * u[0] + nr[1] * u[1] + nr[2] * u[2]
                + nr[3] * u[3] + nr[4] * u[4] + nr[5] * u[5]);
    }
    const double x2 = qx + qx, y2 = qy + qy, z2 = qz + qz;
    const double xx = qx * x2, yy = qy * y2, zz = qz * z2;
    const double xy = qx * y2, xz = qx * z2, yz = qy * z2;
    const double wx = qw * x2, wy = qw * y2, wz = qw * z2;
    dv[0] = ((1.0 - (yy + zz)) * b[0] + (xy - wz) * b[1]
             + (xz + wy) * b[2] + s[0]);
    dv[1] = ((xy + wz) * b[0] + (1.0 - (xx + zz)) * b[1]
             + (yz - wx) * b[2] + s[1]);
    dv[2] = ((xz - wy) * b[0] + (yz + wx) * b[1]
             + (1.0 - (xx + yy)) * b[2] + s[2]);
    dq[0] = -qx * ox - qy * oy - qz * oz;
    dq[1] = qw * ox + qy * oz - qz * oy;
    dq[2] = qw * oy - qx * oz + qz * ox;
    dq[3] = qw * oz + qx * oy - qy * ox;
    dom[0] = t[0] + ix * oy * oz + e[0];
    dom[1] = t[1] + iy * oz * ox + e[1];
    dom[2] = t[2] + iz * ox * oy + e[2];
}

/* What an RK4 step of dt takes from dt and 1 / tau alone. */
struct rk4 {
    double dt, h, c, cp, qh, qdt, qc, kb, kc, kd, kn;
};

static void
rk4_init(struct rk4 *r, const double *k, double dt)
{
    const double lam = k[44];
    r->dt = dt;
    r->h = 0.5 * dt;
    r->c = dt / 6.0;
    r->cp = dt * dt / 6.0;
    /* the dq are twice q_dot: the 0.5 rides on the step sizes */
    r->qh = 0.5 * r->h;
    r->qdt = 0.5 * dt;
    r->qc = 0.5 * r->c;
    /* the motor lag is linear: stage s's rotor speeds are c + ks (w - c) */
    r->kb = 1.0 - r->h * lam;
    r->kc = 1.0 - r->h * lam * r->kb;
    r->kd = 1.0 - dt * lam * r->kc;
    r->kn = 1.0 - r->c * lam * (1.0 + 2.0 * r->kb + 2.0 * r->kc + r->kd);
}

/* One RK4 step of the state x under the rotor command cmd with the
   wrench held; -1, leaving x as it was, if the new state diverges. */
static int
rk4_step(const double *k, const struct rk4 *rk, double *x,
         const double *cmd, const double *wrench)
{
    const double m = k[36], jx = k[37], jy = k[38], jz = k[39], g = k[43];
    const double dt = rk->dt, h = rk->h, c = rk->c, cp = rk->cp;
    const double qh = rk->qh, qdt = rk->qdt, qc = rk->qc;
    const double kb = rk->kb, kc = rk->kc, kd = rk->kd, kn = rk->kn;
    const double s[3] = {wrench[0] / m, wrench[1] / m, wrench[2] / m - g};
    const double e[3] = {wrench[3] / jx, wrench[4] / jy, wrench[5] / jz};
    double r[6], w[6], q[4], o[3], out[STATE_SIZE];
    double dva[3], dqa[4], doa[3], dvb[3], dqb[4], dob[3];
    double dvc[3], dqc[4], doc[3], dvd[3], dqd[4], dod[3];
    for (int j = 0; j < 6; j++)
        r[j] = x[13 + j] - cmd[j];
    /* stage a: the rates at the state */
    stage(k, x + 6, x + 10, x + 13, s, e, dva, dqa, doa);
    /* stage b: at the state plus h times stage a's rates */
    for (int j = 0; j < 4; j++)
        q[j] = x[6 + j] + qh * dqa[j];
    for (int j = 0; j < 3; j++)
        o[j] = x[10 + j] + h * doa[j];
    for (int j = 0; j < 6; j++)
        w[j] = cmd[j] + kb * r[j];
    stage(k, q, o, w, s, e, dvb, dqb, dob);
    /* stage c: at the state plus h times stage b's rates */
    for (int j = 0; j < 4; j++)
        q[j] = x[6 + j] + qh * dqb[j];
    for (int j = 0; j < 3; j++)
        o[j] = x[10 + j] + h * dob[j];
    for (int j = 0; j < 6; j++)
        w[j] = cmd[j] + kc * r[j];
    stage(k, q, o, w, s, e, dvc, dqc, doc);
    /* stage d: at the state plus dt times stage c's rates */
    for (int j = 0; j < 4; j++)
        q[j] = x[6 + j] + qdt * dqc[j];
    for (int j = 0; j < 3; j++)
        o[j] = x[10 + j] + dt * doc[j];
    for (int j = 0; j < 6; j++)
        w[j] = cmd[j] + kd * r[j];
    stage(k, q, o, w, s, e, dvd, dqd, dod);
    /* p gains dt v + dt^2/6 (a_a + a_b + a_c): no stage velocity */
    for (int j = 0; j < 3; j++) {
        out[j] = x[j] + dt * x[3 + j] + cp * (dva[j] + dvb[j] + dvc[j]);
        out[3 + j] = x[3 + j] + c * (dva[j] + 2.0 * dvb[j]
                                     + 2.0 * dvc[j] + dvd[j]);
        out[10 + j] = x[10 + j] + c * (doa[j] + 2.0 * dob[j]
                                       + 2.0 * doc[j] + dod[j]);
    }
    for (int j = 0; j < 4; j++)
        out[6 + j] = x[6 + j] + qc * (dqa[j] + 2.0 * dqb[j]
                                      + 2.0 * dqc[j] + dqd[j]);
    for (int j = 0; j < 6; j++)
        out[13 + j] = cmd[j] + kn * r[j];
    const double norm = sqrt(out[6] * out[6] + out[7] * out[7]
                             + out[8] * out[8] + out[9] * out[9]);
    /* a sum of floats is finite only if every term is (or it
       overflows, which is divergence too) */
    double sum = 0.0;
    for (int j = 0; j < STATE_SIZE; j++)
        sum += out[j];
    if (!(norm > 0.0 && isfinite(sum)))
        return -1;
    for (int j = 0; j < STATE_SIZE; j++)
        x[j] = 6 <= j && j < 10 ? out[j] / norm : out[j];
    return 0;
}

static PyObject *
step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double x[STATE_SIZE], cmd[6], wrench[6];
    Py_buffer constants;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "step(constants, s, w_cmd, wrenches, dt)");
        return NULL;
    }
    const double dt = PyFloat_AsDouble(args[4]);
    if ((dt == -1.0 && PyErr_Occurred())
        || read_numbers(args[1], x, STATE_SIZE, "state") < 0
        || read_numbers(args[2], cmd, 6, "w_cmd") < 0)
        return NULL;
    PyObject *wrenches = PySequence_Fast(args[3], "wrenches");
    if (wrenches == NULL)
        return NULL;
    if (get_doubles(args[0], &constants, N_TRUTH, PyBUF_SIMPLE,
                    "constants") < 0) {
        Py_DECREF(wrenches);
        return NULL;
    }
    const double *k = constants.buf;
    struct rk4 rk;
    rk4_init(&rk, k, dt);
    Py_ssize_t n = PySequence_Fast_GET_SIZE(wrenches);
    PyObject **items = PySequence_Fast_ITEMS(wrenches);
    PyObject *result = NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (read_numbers(items[i], wrench, 6, "wrench") < 0)
            goto done;
        if (rk4_step(k, &rk, x, cmd, wrench) < 0) {
            diverged(module, x, i);
            goto done;
        }
    }
    result = floats(x, STATE_SIZE, 1);
done:
    PyBuffer_Release(&constants);
    Py_DECREF(wrenches);
    return result;
}

/* The controller ticks.  A tick's constants, C_ offsets into the
   array('d') control.py binds: */
#define C_GAINS 0     /* k_p, k_v, k_q, k_w */
#define C_POS 4       /* the position shaper: a00, a01, a10, a11, b0, b1,
                         wn^2, 2 wn */
#define C_ATT 12      /* the attitude shaper, likewise */
#define C_MODEL 20    /* m, J_x, J_y, J_z, g */
#define C_F0_INV 25   /* F0^-1, row by row */
#define C_LIMITS 61   /* u_min, u_max */
#define N_GEO 63
#define C_FILTER 63   /* INDI's feedback filter: b0, b1, b2, a1, a2, then
                         the sample time of the gyro difference */
#define N_INDI 69

/* A tick's state, S_ offsets into the array('d') it updates: */
#define S_POS 0       /* the position shaper's x (3), then x' (3) */
#define S_ATT 6       /* the attitude shaper's, likewise */
#define N_GEO_STATE 12
#define S_Z1 12       /* the 12 channels' first biquad state */
#define S_Z2 24       /* and second */
#define S_GYRO 36     /* the filtered gyro of the tick before */
#define N_INDI_STATE 39

/* What a tick reads: the setpoint, then control.ControllerInputs
   (accel and w_meas only for indi). */
struct inputs {
    double target_pos[3], target_rpy[3], pos[3], vel[3], q[4], gyro[3];
    double accel[3], w_meas[6];
};

/* The shaped reference of a tick, as control.PoseReference holds it. */
struct reference {
    double p[3], v[3], a[3], q[4], omega[3], omega_dot[3];
};

/* geometry.rotmat: R(q) as a flat row-major 9-array. */
static void
rotmat(const double *q, double *r)
{
    const double w = q[0], x = q[1], y = q[2], z = q[3];
    r[0] = 1.0 - 2.0 * (y * y + z * z);
    r[1] = 2.0 * (x * y - w * z);
    r[2] = 2.0 * (x * z + w * y);
    r[3] = 2.0 * (x * y + w * z);
    r[4] = 1.0 - 2.0 * (x * x + z * z);
    r[5] = 2.0 * (y * z - w * x);
    r[6] = 2.0 * (x * z - w * y);
    r[7] = 2.0 * (y * z + w * x);
    r[8] = 1.0 - 2.0 * (x * x + y * y);
}

/* control._ShapedAxes.step: the three channels of the shaper whose
   coefficients are k and whose x and x' are s[0:3] and s[3:6] one
   sample toward the target g; the value, rate and acceleration before
   the step into x, xd and acc. */
static void
shape(const double *k, double *s, const double *g, double *x, double *xd,
      double *acc)
{
    const double a00 = k[0], a01 = k[1], a10 = k[2], a11 = k[3];
    const double b0 = k[4], b1 = k[5], wn2 = k[6], two_wn = k[7];
    for (int j = 0; j < 3; j++) {
        x[j] = s[j];
        xd[j] = s[3 + j];
        s[j] = a00 * x[j] + a01 * xd[j] + b0 * g[j];
        s[3 + j] = a10 * x[j] + a11 * xd[j] + b1 * g[j];
        acc[j] = wn2 * (g[j] - x[j]) - two_wn * xd[j];
    }
}

/* control.ReferenceShaper.step, with geometry.quat_from_rpy inline. */
static void
shape_reference(const double *k, double *s, const double *target_pos,
                const double *target_rpy, struct reference *ref)
{
    double rpy[3], d[3], a[3];
    shape(k + C_POS, s + S_POS, target_pos, ref->p, ref->v, ref->a);
    shape(k + C_ATT, s + S_ATT, target_rpy, rpy, d, a);
    /* the Euler-rate rows times the rates and the accelerations; the 1.0
       and 0.0 terms stay, as dropping them can flip the sign of a zero */
    const double cr = cos(rpy[0]), sr = sin(rpy[0]);
    const double cp = cos(rpy[1]), sp = sin(rpy[1]);
    const double srcp = sr * cp, crcp = cr * cp;
    ref->omega[0] = 1.0 * d[0] + 0.0 * d[1] + -sp * d[2];
    ref->omega[1] = 0.0 * d[0] + cr * d[1] + srcp * d[2];
    ref->omega[2] = 0.0 * d[0] + -sr * d[1] + crcp * d[2];
    ref->omega_dot[0] = 1.0 * a[0] + 0.0 * a[1] + -sp * a[2];
    ref->omega_dot[1] = 0.0 * a[0] + cr * a[1] + srcp * a[2];
    ref->omega_dot[2] = 0.0 * a[0] + -sr * a[1] + crcp * a[2];
    /* q_d = qz(yaw) (x) qy(pitch) (x) qx(roll) */
    const double hcr = cos(0.5 * rpy[0]), hsr = sin(0.5 * rpy[0]);
    const double hcp = cos(0.5 * rpy[1]), hsp = sin(0.5 * rpy[1]);
    const double hcy = cos(0.5 * rpy[2]), hsy = sin(0.5 * rpy[2]);
    ref->q[0] = hcy * hcp * hcr + hsy * hsp * hsr;
    ref->q[1] = hcy * hcp * hsr - hsy * hsp * hcr;
    ref->q[2] = hcy * hsp * hcr + hsy * hcp * hsr;
    ref->q[3] = hsy * hcp * hcr - hcy * hsp * hsr;
}

/* control.outer_loop: the pseudo control (v_p, v_att) at the pose (pos,
   vel, q with R(q) rot) and body rate omega. */
static void
outer_loop(const double *k, const struct reference *ref, const double *pos,
           const double *vel, const double *q, const double *omega,
           const double *rot, double *v_p, double *v_att)
{
    const double k_p = k[0], k_v = k[1], k_q = k[2], k_w = k[3];
    for (int j = 0; j < 3; j++)
        v_p[j] = (k_p * (ref->p[j] - pos[j]) + k_v * (ref->v[j] - vel[j])
                  + ref->a[j]);
    /* attitude error: 2 sign(eta) eps of q_d (x) q^-1, the shortest path */
    const double dw = ref->q[0], dx = ref->q[1], dy = ref->q[2],
                 dz = ref->q[3];
    const double w = q[0], x = q[1], y = q[2], z = q[3];
    const double s = dw * w + dx * x + dy * y + dz * z >= 0.0 ? 2.0 : -2.0;
    /* rate error: omega - R(q)^T R(q_d) omega_d */
    double d[9];
    rotmat(ref->q, d);
    const double *o = ref->omega;
    const double r1 = d[0] * o[0] + d[1] * o[1] + d[2] * o[2];
    const double r2 = d[3] * o[0] + d[4] * o[1] + d[5] * o[2];
    const double r3 = d[6] * o[0] + d[7] * o[1] + d[8] * o[2];
    const double *r = rot, *wd = ref->omega_dot;
    v_att[0] = (k_q * (s * (-dw * x + dx * w - dy * z + dz * y))
                - k_w * (omega[0] - (r[0] * r1 + r[3] * r2 + r[6] * r3))
                + wd[0]);
    v_att[1] = (k_q * (s * (-dw * y + dx * z + dy * w - dz * x))
                - k_w * (omega[1] - (r[1] * r1 + r[4] * r2 + r[7] * r3))
                + wd[1]);
    v_att[2] = (k_q * (s * (-dw * z - dx * y + dy * x + dz * w))
                - k_w * (omega[2] - (r[2] * r1 + r[5] * r2 + r[8] * r3))
                + wd[2]);
}

/* vehicle.solve_wrench: the unclamped u solving F(q) u = wrench, with
   R(q) rot. */
static void
solve_wrench(const double *k, const double *rot, const double *wrench,
             double *u)
{
    const double fx = wrench[0], fy = wrench[1], fz = wrench[2];
    const double *r = rot;
    const double r1 = r[0] * fx + r[3] * fy + r[6] * fz;
    const double r2 = r[1] * fx + r[4] * fy + r[7] * fz;
    const double r3 = r[2] * fx + r[5] * fy + r[8] * fz;
    for (int j = 0; j < 6; j++) {
        const double *row = k + C_F0_INV + 6 * j;
        u[j] = (row[0] * r1 + row[1] * r2 + row[2] * r3 + row[3] * wrench[3]
                + row[4] * wrench[4] + row[5] * wrench[5]);
    }
}

/* One GeoNdiController tick: its reference into ref, the unclamped u
   into u. */
static void
geo_core(const double *k, double *s, const struct inputs *in,
         struct reference *ref, double *u)
{
    double rot[9], v_p[3], v_att[3], wrench[6];
    shape_reference(k, s, in->target_pos, in->target_rpy, ref);
    rotmat(in->q, rot);
    outer_loop(k + C_GAINS, ref, in->pos, in->vel, in->q, in->gyro, rot, v_p,
               v_att);
    /* control.ndi_invert: the wrench cancelling gravity and the
       gyroscopic term plus the inertia-scaled pseudo control */
    const double m = k[C_MODEL], jx = k[C_MODEL + 1], jy = k[C_MODEL + 2],
                 jz = k[C_MODEL + 3], g = k[C_MODEL + 4];
    const double ox = in->gyro[0], oy = in->gyro[1], oz = in->gyro[2];
    const double hx = jx * ox, hy = jy * oy, hz = jz * oz;
    wrench[0] = m * v_p[0];
    wrench[1] = m * v_p[1];
    wrench[2] = m * v_p[2] + m * g;
    wrench[3] = jx * v_att[0] + (oy * hz - oz * hy);
    wrench[4] = jy * v_att[1] + (oz * hx - ox * hz);
    wrench[5] = jz * v_att[2] + (ox * hy - oy * hx);
    solve_wrench(k, rot, wrench, u);
}

/* One IndiController tick, as geo_core's. */
static void
indi_core(const double *k, double *s, const struct inputs *in,
          struct reference *ref, double *u)
{
    shape_reference(k, s, in->target_pos, in->target_rpy, ref);
    /* filters.SecondOrderFilter.step over the channels specific force
       (3), gyro (3) and squared rotor speeds (6) */
    const double *f = k + C_FILTER;
    const double b0 = f[0], b1 = f[1], b2 = f[2], a1 = f[3], a2 = f[4];
    double x[12], y[12];
    for (int j = 0; j < 3; j++) {
        x[j] = in->accel[j];
        x[3 + j] = in->gyro[j];
    }
    for (int j = 0; j < 6; j++)
        x[6 + j] = in->w_meas[j] * fabs(in->w_meas[j]);
    for (int j = 0; j < 12; j++) {
        y[j] = b0 * x[j] + s[S_Z1 + j];
        s[S_Z1 + j] = b1 * x[j] - a1 * y[j] + s[S_Z2 + j];
        s[S_Z2 + j] = b2 * x[j] - a2 * y[j];
    }
    /* filters.FilteredDerivative.step of the filtered gyro */
    const double *gyro_f = y + 3;
    double omega_dot[3];
    for (int j = 0; j < 3; j++) {
        omega_dot[j] = (gyro_f[j] - s[S_GYRO + j]) / f[5];
        s[S_GYRO + j] = gyro_f[j];
    }
    /* the gyro channel is low-pass filtered like every other sensor
       path, so the rate error sees the same group delay */
    double rot[9], v_p[3], v_att[3], wrench[6];
    rotmat(in->q, rot);
    outer_loop(k + C_GAINS, ref, in->pos, in->vel, in->q, gyro_f, rot, v_p,
               v_att);
    /* control.indi_invert: the wrench increment from the measured
       accelerations, R(q) accel - g and omega_dot, to the pseudo
       control */
    const double m = k[C_MODEL], jx = k[C_MODEL + 1], jy = k[C_MODEL + 2],
                 jz = k[C_MODEL + 3], g = k[C_MODEL + 4];
    const double *r = rot, fx = y[0], fy = y[1], fz = y[2];
    const double ax = r[0] * fx + r[1] * fy + r[2] * fz;
    const double ay = r[3] * fx + r[4] * fy + r[5] * fz;
    const double az = r[6] * fx + r[7] * fy + r[8] * fz;
    wrench[0] = m * (v_p[0] - ax);
    wrench[1] = m * (v_p[1] - ay);
    wrench[2] = m * (v_p[2] - (az - g));
    wrench[3] = jx * (v_att[0] - omega_dot[0]);
    wrench[4] = jy * (v_att[1] - omega_dot[1]);
    wrench[5] = jz * (v_att[2] - omega_dot[2]);
    /* the increment rides on the filtered measured rotor state */
    solve_wrench(k, rot, wrench, u);
    for (int j = 0; j < 6; j++)
        u[j] = u[j] + y[6 + j];
}

/* vehicle.saturate: u clamped to [u_min, u_max] into c, its square
   root, the rotor speed command, into w, and whether it was clamped
   into sat.  A NaN passes through, unflagged. */
static void
saturate(const double *k, const double *u, double *c, double *w, int *sat)
{
    const double lo = k[C_LIMITS], hi = k[C_LIMITS + 1];
    for (int j = 0; j < 6; j++) {
        c[j] = u[j] < lo ? lo : u[j] > hi ? hi : u[j];
        w[j] = sqrt(c[j]);
        sat[j] = u[j] < lo || u[j] > hi;
    }
}

/* The tick's result ((u, w_cmd, saturated), (p_d, v_d, a_d, q_d,
   omega_d, omega_dot_d)), the fields of vehicle.ActuatorCommand and
   control.PoseReference, from the unclamped u. */
static PyObject *
tick_result(const double *k, const double *u, const struct reference *ref)
{
    double c[6], w[6];
    int sat[6];
    saturate(k, u, c, w, sat);
    PyObject *saturated = PyTuple_New(6);
    if (saturated == NULL)
        return NULL;
    for (int j = 0; j < 6; j++)
        PyTuple_SET_ITEM(saturated, j, PyBool_FromLong(sat[j]));
    return Py_BuildValue(
        "((NNN)(NNNNNN))", floats(c, 6, 0), floats(w, 6, 0), saturated,
        floats(ref->p, 3, 1), floats(ref->v, 3, 1), floats(ref->a, 3, 1),
        floats(ref->q, 4, 0), floats(ref->omega, 3, 0),
        floats(ref->omega_dot, 3, 0));
}

/* A tick's arguments: constants, state, target_pos, target_rpy, pos,
   vel, q and gyro, then for indi accel and rotor_w_meas. */
struct tick_args {
    Py_buffer constants, state;
    struct inputs in;
};

static void
release_tick_args(struct tick_args *a)
{
    PyBuffer_Release(&a->state);
    PyBuffer_Release(&a->constants);
}

static int
read_tick_args(PyObject *const *args, Py_ssize_t nargs, int indi,
               struct tick_args *a)
{
    struct inputs *in = &a->in;
    if (nargs != (indi ? 10 : 8)) {
        PyErr_SetString(PyExc_TypeError, indi
            ? "indi_tick(constants, state, target_pos, target_rpy, pos, "
              "vel, q, gyro, accel, rotor_w_meas)"
            : "geo_tick(constants, state, target_pos, target_rpy, pos, "
              "vel, q, gyro)");
        return -1;
    }
    if (get_doubles(args[0], &a->constants, indi ? N_INDI : N_GEO,
                    PyBUF_SIMPLE, "constants") < 0)
        return -1;
    if (get_doubles(args[1], &a->state, indi ? N_INDI_STATE : N_GEO_STATE,
                    PyBUF_WRITABLE, "state") < 0) {
        PyBuffer_Release(&a->constants);
        return -1;
    }
    if (read_numbers(args[2], in->target_pos, 3, "target_pos") < 0
        || read_numbers(args[3], in->target_rpy, 3, "target_rpy") < 0
        || read_numbers(args[4], in->pos, 3, "pos") < 0
        || read_numbers(args[5], in->vel, 3, "vel") < 0
        || read_numbers(args[6], in->q, 4, "q") < 0
        || read_numbers(args[7], in->gyro, 3, "gyro") < 0
        || (indi && (read_numbers(args[8], in->accel, 3, "accel") < 0
                     || read_numbers(args[9], in->w_meas, 6,
                                     "rotor_w_meas") < 0))) {
        release_tick_args(a);
        return -1;
    }
    return 0;
}

static PyObject *
geo_tick(PyObject *Py_UNUSED(module), PyObject *const *args,
         Py_ssize_t nargs)
{
    struct tick_args a;
    if (read_tick_args(args, nargs, 0, &a) < 0)
        return NULL;
    struct reference ref;
    double u[6];
    geo_core(a.constants.buf, a.state.buf, &a.in, &ref, u);
    PyObject *result = tick_result(a.constants.buf, u, &ref);
    release_tick_args(&a);
    return result;
}

static PyObject *
indi_tick(PyObject *Py_UNUSED(module), PyObject *const *args,
          Py_ssize_t nargs)
{
    struct tick_args a;
    if (read_tick_args(args, nargs, 1, &a) < 0)
        return NULL;
    struct reference ref;
    double u[6];
    indi_core(a.constants.buf, a.state.buf, &a.in, &ref, u);
    PyObject *result = tick_result(a.constants.buf, u, &ref);
    release_tick_args(&a);
    return result;
}

/* The closed loop.  A run's constants, R_ offsets into the array('d')
   experiments.run_scenario binds: */
#define R_DT 0        /* the truth step */
#define R_NOISE 1     /* the sensor noise's sigma scale, then the accel
                         and gyro sigmas times it */
#define R_KIND 4      /* the disturbance: D_NONE, D_LOAD or D_GUST */
#define R_WINDOW 5    /* t_on, t_off */
#define R_OU 7        /* the gust's decay and diffusion a truth step */
#define R_FORCE 9     /* the spec's force */
#define R_RESIDUAL 12 /* the residual force */
#define R_ON 15       /* the wrench held inside [t_on, t_off) */
#define R_OFF 21      /* and outside it */
#define N_RUN 27
#define D_NONE 0
#define D_LOAD 1
#define D_GUST 2

/* A run's carried state, K_ offsets into the array('d') each block
   updates: */
#define K_X 0         /* the truth state */
#define K_POSE 19     /* the 250 Hz pose sample held: p (3), q (4) */
#define K_FORCE 26    /* the world force the accelerometer sees: that of
                         the last truth step's wrench */
#define K_OU 29       /* the gust's Ornstein-Uhlenbeck state */
#define N_CARRIED 32

/* The log row, in experiments.LOG_LAYOUT order. */
#define L_T 0
#define L_MOTION 1    /* p, v, q, omega of the truth state (13) */
#define L_REF 14      /* p_d, v_d, q_d, omega_d */
#define L_ERRORS 27   /* e_p, e_att_deg: 0 until the block is finished */
#define L_U 33
#define L_W_CMD 39
#define L_W_MEAS 45
#define L_SATURATED 51
#define N_LOG_COLUMNS 57

/* The specific force, R(q)^T (p_ddot + g e3) in the body frame, that an
   accelerometer at the state x reads under the world force `force`:
   dynamics.make_step's specific_force. */
static void
specific_force(const double *k, const double *x, const double *force,
               double *out)
{
    const double *f = k + T_F1, m = k[36], g = k[43];
    const double weight = m * g;
    const double qw = x[6], qx = x[7], qy = x[8], qz = x[9];
    double u[6], b[3];
    for (int j = 0; j < 6; j++)
        u[j] = x[13 + j] * fabs(x[13 + j]);
    for (int r = 0; r < 3; r++) {
        const double *fr = f + 6 * r;
        b[r] = (fr[0] * u[0] + fr[1] * u[1] + fr[2] * u[2]
                + fr[3] * u[3] + fr[4] * u[4] + fr[5] * u[5]);
    }
    const double xx = qx * qx, yy = qy * qy, zz = qz * qz;
    const double xy = qx * qy, xz = qx * qz, yz = qy * qz;
    const double wx = qw * qx, wy = qw * qy, wz = qw * qz;
    const double r00 = 1.0 - 2.0 * (yy + zz), r01 = 2.0 * (xy - wz),
                 r02 = 2.0 * (xz + wy);
    const double r10 = 2.0 * (xy + wz), r11 = 1.0 - 2.0 * (xx + zz),
                 r12 = 2.0 * (yz - wx);
    const double r20 = 2.0 * (xz - wy), r21 = 2.0 * (yz + wx),
                 r22 = 1.0 - 2.0 * (xx + yy);
    const double ax = ((r00 * b[0] + r01 * b[1] + r02 * b[2]) + force[0]) / m;
    const double ay = ((r10 * b[0] + r11 * b[1] + r12 * b[2]) + force[1]) / m;
    const double az = (((r20 * b[0] + r21 * b[1] + r22 * b[2]) - weight
                        + force[2]) / m + g);
    out[0] = r00 * ax + r10 * ay + r20 * az;
    out[1] = r01 * ax + r11 * ay + r21 * az;
    out[2] = r02 * ax + r12 * ay + r22 * az;
}

/* The wrench held over the truth step j into wrench: the
   DisturbanceSampler's.  A gust first advances its state ou with the
   next 3 normals of the stream. */
static void
disturb(const double *r, double *ou, bitgen_t *stream, Py_ssize_t j,
        double *wrench)
{
    const double kind = r[R_KIND], t = (double)j * r[R_DT];
    if (kind == D_GUST) {
        const double a = r[R_OU], s = r[R_OU + 1];
        for (int i = 0; i < 3; i++)
            ou[i] = a * ou[i] + s * random_standard_normal(stream);
    }
    const int on = kind != D_NONE && r[R_WINDOW] <= t && t < r[R_WINDOW + 1];
    memcpy(wrench, r + (on ? R_ON : R_OFF), 6 * sizeof(double));
    if (on && kind == D_GUST)
        for (int i = 0; i < 3; i++)
            wrench[i] = (r[R_FORCE + i] + ou[i]) + r[R_RESIDUAL + i];
}

/* A run's stream of standard normals, which the sensor noise and the
   gust share in the order they draw: numpy's default_rng(seed), a PCG64
   (XSL-RR 128/64) seeded by numpy's SeedSequence of the seed, read by
   numpy's own random_standard_normal, so the same normals bit for bit.
   Its state is the generator's 128-bit state and increment. */
typedef unsigned __int128 u128;
struct pcg64 {
    u128 state, inc;
};

static uint64_t
pcg64_next64(void *st)
{
    struct pcg64 *g = st;
    g->state = g->state * ((u128)0x2360ed051fc65da4ULL << 64
                           | 0x4385df649fccf645ULL) + g->inc;
    const uint64_t value = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    const unsigned rot = (unsigned)(g->state >> 122);
    return value >> rot | value << (-rot & 63);
}

static double
pcg64_next_double(void *st)
{
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* SeedSequence's hashing of its entropy into a pool of 4 words, and the
   pool's 8 words of generate_state(4, uint64) */
#define SEED_POOL 4
#define INIT_A 0x43b0d7e5U
#define MULT_A 0x931e8875U
#define INIT_B 0x8b51f9ddU
#define MULT_B 0x58f38dedU

static uint32_t
hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= MULT_A;
    value *= *hash;
    return value ^ value >> 16;
}

static uint32_t
mix(uint32_t x, uint32_t y)
{
    const uint32_t result = 0xca01f9ddU * x - 0x4973f715U * y;
    return result ^ result >> 16;
}

/* The little-endian 32-bit word i of bytes. */
static uint32_t
word(const unsigned char *bytes, Py_ssize_t i)
{
    const unsigned char *b = bytes + 4 * i;
    return (uint32_t)b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16
           | (uint32_t)b[3] << 24;
}

/* stream(entropy) -> the state of default_rng(seed) as a bytearray, from
   entropy, the seed's 32-bit words least significant first (one word, 0,
   for seed 0) as little-endian bytes. */
static PyObject *
stream(PyObject *Py_UNUSED(module), PyObject *entropy)
{
    Py_buffer view;
    if (PyObject_GetBuffer(entropy, &view, PyBUF_SIMPLE) < 0)
        return NULL;
    const Py_ssize_t n = view.len / 4;
    if (n < 1 || view.len != 4 * n) {
        PyErr_SetString(PyExc_ValueError,
                        "entropy: expected whole 32-bit words");
        PyBuffer_Release(&view);
        return NULL;
    }
    const unsigned char *bytes = view.buf;
    uint32_t pool[SEED_POOL], hash = INIT_A, words[2 * SEED_POOL];
    for (int i = 0; i < SEED_POOL; i++)
        pool[i] = hashmix(i < n ? word(bytes, i) : 0, &hash);
    for (int src = 0; src < SEED_POOL; src++)
        for (int dst = 0; dst < SEED_POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    for (Py_ssize_t src = SEED_POOL; src < n; src++)
        for (int dst = 0; dst < SEED_POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(word(bytes, src), &hash));
    PyBuffer_Release(&view);
    hash = INIT_B;
    for (int i = 0; i < 2 * SEED_POOL; i++) {
        uint32_t value = pool[i % SEED_POOL] ^ hash;
        hash *= MULT_B;
        value *= hash;
        words[i] = value ^ value >> 16;
    }
    /* numpy's pcg64_set_seed: the state (w0 << 64) + w1 and the
       increment from (w2 << 64) + w3, w_i the uint64 of words 2i (low)
       and 2i + 1 (high) */
    u128 w[4];
    for (int i = 0; i < 4; i++)
        w[i] = words[2 * i] | (uint64_t)words[2 * i + 1] << 32;
    struct pcg64 g = {0, (w[2] << 64 | w[3]) << 1 | 1};
    pcg64_next64(&g);
    g.state += w[0] << 64 | w[1];
    pcg64_next64(&g);
    return PyByteArray_FromStringAndSize((const char *)&g, sizeof g);
}

/* bisect.bisect_right's own search: the setpoint, (pos, rpy), of the
   last of the n times at or before t, or the first while t is before
   it; script holds the times, then each setpoint's 6 numbers. */
static const double *
script_target(const double *script, Py_ssize_t n, double t)
{
    Py_ssize_t lo = 0, hi = n;
    while (lo < hi) {
        Py_ssize_t mid = ((size_t)lo + hi) / 2;
        if (t < script[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return script + n + 6 * (lo ? lo - 1 : 0);
}

/* The log rows into view, -1 with ValueError set unless they are a
   C-contiguous, writable 2-D float64 array of N_LOG_COLUMNS columns. */
static int
get_rows(PyObject *obj, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, "rows: expected a float64 array");
        return -1;
    }
    const char *why = NULL;
    if (view->ndim != 2 || view->itemsize != sizeof(double)
        || strcmp(view->format, "d") != 0)
        why = "a 2-D float64 array";
    else if (!PyBuffer_IsContiguous(view, 'C'))
        why = "a C-contiguous array";
    else if (view->readonly)
        why = "a writable array";
    else if (view->shape[1] != N_LOG_COLUMNS)
        why = "57 columns";
    if (why != NULL) {
        PyErr_Format(PyExc_ValueError, "rows: expected %s", why);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

#define N_TICKS_ARGS 14

static PyObject *
ticks(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    enum { TRUTH, CONTROL, STATE, RUN, SCRIPT, CARRIED, STREAM, ROWS };
    Py_buffer views[ROWS + 1];
    int held = 0;
    PyObject *result = NULL;
    if (nargs != N_TICKS_ARGS) {
        PyErr_SetString(PyExc_TypeError,
                        "ticks(truth, indi, control, state, run, script, "
                        "n_sub, pose_every, n_steps, carried, stream, "
                        "rows, start, stop)");
        return NULL;
    }
    const int indi = PyObject_IsTrue(args[1]);
    if (indi < 0)
        return NULL;
    Py_ssize_t ints[5];  /* n_sub, pose_every, n_steps, start, stop */
    PyObject *const int_args[5] = {args[6], args[7], args[8], args[12],
                                   args[13]};
    for (int i = 0; i < 5; i++) {
        ints[i] = PyLong_AsSsize_t(int_args[i]);
        if (ints[i] == -1 && PyErr_Occurred())
            return NULL;
    }
    const Py_ssize_t n_sub = ints[0], pose_every = ints[1],
                     n_steps = ints[2], start = ints[3], stop = ints[4];
    if (n_sub < 1 || pose_every < 1 || n_steps < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "n_sub, pose_every and n_steps must be positive");
        return NULL;
    }
    if (get_doubles(args[0], &views[TRUTH], N_TRUTH, PyBUF_SIMPLE,
                    "truth") < 0)
        goto done;
    held++;
    if (get_doubles(args[2], &views[CONTROL], indi ? N_INDI : N_GEO,
                    PyBUF_SIMPLE, "control") < 0)
        goto done;
    held++;
    if (get_doubles(args[3], &views[STATE],
                    indi ? N_INDI_STATE : N_GEO_STATE, PyBUF_WRITABLE,
                    "state") < 0)
        goto done;
    held++;
    if (get_doubles(args[4], &views[RUN], N_RUN, PyBUF_SIMPLE, "run") < 0)
        goto done;
    held++;
    if (PyObject_GetBuffer(args[5], &views[SCRIPT], PyBUF_SIMPLE) < 0)
        goto done;
    held++;
    const Py_ssize_t n_script = views[SCRIPT].len / (7 * sizeof(double));
    if (n_script < 1
        || views[SCRIPT].len != n_script * 7 * (Py_ssize_t)sizeof(double)) {
        PyErr_SetString(PyExc_ValueError, "script: expected 7 doubles a "
                        "setpoint, at least one setpoint");
        goto done;
    }
    if (get_doubles(args[9], &views[CARRIED], N_CARRIED, PyBUF_WRITABLE,
                    "carried") < 0)
        goto done;
    held++;
    if (PyObject_GetBuffer(args[10], &views[STREAM], PyBUF_WRITABLE) < 0)
        goto done;
    held++;
    if (views[STREAM].len != sizeof(struct pcg64)) {
        PyErr_SetString(PyExc_ValueError, "stream: expected the bytearray "
                        "of stream()");
        goto done;
    }
    if (get_rows(args[11], &views[ROWS]) < 0)
        goto done;
    held++;
    const Py_ssize_t n_ticks = (n_steps + n_sub - 1) / n_sub;
    if (!(0 <= start && start <= stop && stop <= views[ROWS].shape[0]
          && stop <= n_ticks)) {
        PyErr_Format(PyExc_ValueError, "ticks %zd to %zd: outside the %zd "
                     "rows and the run's %zd ticks", start, stop,
                     views[ROWS].shape[0], n_ticks);
        goto done;
    }

    const double *k = views[TRUTH].buf, *kc = views[CONTROL].buf;
    const double *r = views[RUN].buf, *script = views[SCRIPT].buf;
    double *s = views[STATE].buf, *carried = views[CARRIED].buf;
    double *rows = views[ROWS].buf;
    const double dt = r[R_DT];
    const int noisy = r[R_NOISE] > 0.0;
    struct rk4 rk;
    rk4_init(&rk, k, dt);
    struct pcg64 g;
    memcpy(&g, views[STREAM].buf, sizeof g);
    /* random_standard_normal reads 64-bit words and doubles only */
    bitgen_t normals = {&g, pcg64_next64, NULL, pcg64_next_double,
                        pcg64_next64};
    double x[STATE_SIZE], pose[7], force[3], ou[3], wrench[6];
    memcpy(x, carried + K_X, sizeof x);
    memcpy(pose, carried + K_POSE, sizeof pose);
    memcpy(force, carried + K_FORCE, sizeof force);
    memcpy(ou, carried + K_OU, sizeof ou);
    if (start == 0) {
        /* the wrench of step 0 is drawn once before the first tick */
        disturb(r, ou, &normals, 0, wrench);
        memcpy(force, wrench, sizeof force);
    }
    for (Py_ssize_t tick = start; tick < stop; tick++) {
        const Py_ssize_t k0 = tick * n_sub;
        const double t = (double)k0 * dt;
        struct inputs in;
        /* dynamics.synthesize_sensors: of its 12 normals a noisy tick
           uses 6, and the tachometers read the rotor speeds */
        specific_force(k, x, force, in.accel);
        memcpy(in.gyro, x + 10, sizeof in.gyro);
        if (noisy) {
            const double sa = r[R_NOISE + 1], sg = r[R_NOISE + 2];
            double n[12];
            for (int j = 0; j < 12; j++)
                n[j] = random_standard_normal(&normals);
            for (int j = 0; j < 3; j++) {
                in.accel[j] = in.accel[j] + sa * n[j];
                in.gyro[j] = in.gyro[j] + sg * n[3 + j];
            }
        }
        memcpy(in.w_meas, x + 13, sizeof in.w_meas);
        memcpy(in.pos, pose, sizeof in.pos);
        memcpy(in.q, pose + 3, sizeof in.q);
        memcpy(in.vel, x + 3, sizeof in.vel);
        const double *target = script_target(script, n_script, t);
        memcpy(in.target_pos, target, sizeof in.target_pos);
        memcpy(in.target_rpy, target + 3, sizeof in.target_rpy);
        struct reference ref;
        double u[6], c[6], w[6];
        int sat[6];
        (indi ? indi_core : geo_core)(kc, s, &in, &ref, u);
        saturate(kc, u, c, w, sat);
        double *row = rows + tick * N_LOG_COLUMNS;
        row[L_T] = t;
        memcpy(row + L_MOTION, x, 13 * sizeof(double));
        memcpy(row + L_REF, ref.p, sizeof ref.p);
        memcpy(row + L_REF + 3, ref.v, sizeof ref.v);
        memcpy(row + L_REF + 6, ref.q, sizeof ref.q);
        memcpy(row + L_REF + 10, ref.omega, sizeof ref.omega);
        for (int j = 0; j < 6; j++) {
            row[L_ERRORS + j] = 0.0;
            row[L_U + j] = c[j];
            row[L_W_CMD + j] = w[j];
            row[L_W_MEAS + j] = in.w_meas[j];
            row[L_SATURATED + j] = sat[j] ? 1.0 : 0.0;
        }
        /* the tick's truth steps, the pose sampled after every
           pose_every-th */
        const Py_ssize_t end = k0 + n_sub < n_steps ? k0 + n_sub : n_steps;
        for (Py_ssize_t j = k0; j < end; j++) {
            disturb(r, ou, &normals, j, wrench);
            if (rk4_step(k, &rk, x, w, wrench) < 0) {
                diverged(module, x, j - start * n_sub);
                goto done;
            }
            if ((j + 1) % pose_every == 0) {
                memcpy(pose, x, 3 * sizeof(double));
                memcpy(pose + 3, x + 6, 4 * sizeof(double));
            }
        }
        memcpy(force, wrench, sizeof force);
    }
    memcpy(carried + K_X, x, sizeof x);
    memcpy(carried + K_POSE, pose, sizeof pose);
    memcpy(carried + K_FORCE, force, sizeof force);
    memcpy(carried + K_OU, ou, sizeof ou);
    memcpy(views[STREAM].buf, &g, sizeof g);
    result = Py_NewRef(Py_None);
done:
    while (held > 0)
        PyBuffer_Release(&views[--held]);
    return result;
}

/* repr(x) of a finite, normal x with 1e-9 <= |x| < 1e17 into out,
   returning its length, or 0 for any other x or where two shortest
   decimals are equally near x: then the caller asks
   PyOS_double_to_string.  repr writes the shortest decimal that reads
   back as x and, of two such, the nearer to x; this finds it exactly
   in integers.  With x = M 2^E (2^52 <= M < 2^53) scaled by 10^k so
   that it has 18 or more integer digits, the decimals that read back
   as x are those between the midpoints to the doubles either side
   (M 2^E +- 2^(E-1), the lower one 2^(E-2) below x when M = 2^52),
   ends included when M is even, as strtod rounds half to even.  Their
   shortest is a multiple of the largest 10^j of which one lies
   between them.  It is written as repr does: in fixed notation with at
   least one digit after the point, or as d.ddde+XX once the decimal
   exponent is below -4 or above 15. */
static int
short_repr(double x, char *out)
{
    const double ax = fabs(x);
    if (!(ax >= 1e-9 && ax < 1e17))
        return 0;
    int e2;
    const uint64_t m = (uint64_t)ldexp(frexp(ax, &e2), 53);
    e2 -= 55;                         /* x = 4m 2^e2 */
    const int k = 17 - (int)floor(log10(ax));     /* 10^17 <= x 10^k */
    uint64_t pow5 = 1;
    for (int i = 0; i < k; i++)
        pow5 *= 5;
    const int shift = e2 + k;   /* x 10^k = 4m 5^k 2^shift */
    const unsigned __int128 lo_gap = m == (1ULL << 52) ? 1 : 2;
    unsigned __int128 xs = (unsigned __int128)(4 * m) * pow5,
                      lo = (4 * m - lo_gap) * (unsigned __int128)pow5,
                      hi = (unsigned __int128)(4 * m + 2) * pow5;
    uint64_t vx, vm, vp;
    unsigned __int128 frac = 0, one = 1;   /* x 10^k = vx + frac / one */
    const int inclusive = m % 2 == 0;
    if (shift >= 0) {
        vx = (uint64_t)(xs << shift);
        vm = (uint64_t)(lo << shift) + !inclusive;
        vp = (uint64_t)(hi << shift) - !inclusive;
    }
    else {
        const int s = -shift;
        one = (unsigned __int128)1 << s;
        const unsigned __int128 mask = one - 1;
        vx = (uint64_t)(xs >> s);
        frac = xs & mask;
        vm = (uint64_t)(lo >> s) + ((lo & mask) != 0 || !inclusive);
        vp = (uint64_t)(hi >> s) - ((hi & mask) == 0 && !inclusive);
    }
    if (vp >= 1000000000000000000ULL)   /* log10 rounded up: no room */
        return 0;
    /* the largest j with a multiple of 10^j in [vm, vp] */
    int j = 0;
    uint64_t p10 = 1;
    while ((vm + 10 * p10 - 1) / (10 * p10) <= vp / (10 * p10)) {
        p10 *= 10;
        j++;
    }
    /* the multiple nearest x 10^k */
    const uint64_t a = (vm + p10 - 1) / p10, b = vp / p10;
    uint64_t c = vx / p10;
    const unsigned __int128 twice = 2 * ((vx % p10) * one + frac),
                            whole = (unsigned __int128)p10 * one;
    if (twice == whole)
        return 0;
    if (twice > whole)
        c++;
    c = c < a ? a : c > b ? b : c;
    char digits[20];
    int n = 0;
    for (; c; c /= 10)
        digits[n++] = (char)('0' + c % 10);
    const int decpt = n + j - k;   /* x = 0.d1d2... 10^decpt */
    char *o = out;
    if (x < 0)
        *o++ = '-';
    if (decpt <= -4 || decpt > 16) {
        *o++ = digits[n - 1];
        if (n > 1) {
            *o++ = '.';
            for (int i = n - 2; i >= 0; i--)
                *o++ = digits[i];
        }
        o += sprintf(o, "e%c%02d", decpt - 1 < 0 ? '-' : '+',
                     abs(decpt - 1));
    }
    else if (decpt <= 0) {
        *o++ = '0';
        *o++ = '.';
        for (int i = 0; i < -decpt; i++)
            *o++ = '0';
        for (int i = n - 1; i >= 0; i--)
            *o++ = digits[i];
    }
    else {
        for (int i = 0; i < decpt; i++)
            *o++ = i < n ? digits[n - 1 - i] : '0';
        *o++ = '.';
        if (decpt >= n)
            *o++ = '0';
        for (int i = n - 1 - decpt; i >= 0; i--)
            *o++ = digits[i];
    }
    return (int)(o - out);
}

/* csv_rows(rows, n_flags) -> the lines of log.csv for rows, a 2-D
   C-contiguous float64 array, as one str: a line per row, its values
   joined by commas, each float as repr writes it (short_repr, else
   PyOS_double_to_string's 'r' form, which float.__repr__ calls) and
   the last n_flags columns as numpy's astype(int) writes them (0 and 1
   for the saturation flags; a NaN or a value outside int64 as
   INT64_MIN, as on x86-64). */
static PyObject *
csv_rows(PyObject *Py_UNUSED(module), PyObject *const *args,
         Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "csv_rows: expected 2 arguments");
        return NULL;
    }
    const Py_ssize_t n_flags = PyLong_AsSsize_t(args[1]);
    if (n_flags == -1 && PyErr_Occurred())
        return NULL;
    Py_buffer view;
    if (PyObject_GetBuffer(args[0], &view, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, "rows: expected a float64 array");
        return NULL;
    }
    if (view.ndim != 2 || view.itemsize != sizeof(double)
        || strcmp(view.format, "d") != 0
        || !PyBuffer_IsContiguous(&view, 'C')
        || n_flags < 0 || n_flags > view.shape[1]) {
        PyErr_SetString(PyExc_ValueError, "rows: expected a C-contiguous "
                        "2-D float64 array of at least n_flags columns");
        PyBuffer_Release(&view);
        return NULL;
    }
    const Py_ssize_t n_rows = view.shape[0], n_cols = view.shape[1];
    const double *x = view.buf;
    /* a repr of a double has at most 24 characters, an int64 20 */
    char *buf = PyMem_Malloc(n_rows * (n_cols * 25 + 1) + 1);
    if (buf == NULL) {
        PyBuffer_Release(&view);
        return PyErr_NoMemory();
    }
    char *end = buf;
    PyObject *result = NULL;
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        for (Py_ssize_t j = 0; j < n_cols; j++) {
            const double v = x[i * n_cols + j];
            if (j)
                *end++ = ',';
            if (j >= n_cols - n_flags) {
                const long long flag = v >= -0x1p63 && v < 0x1p63
                                       ? (long long)v : LLONG_MIN;
                end += sprintf(end, "%lld", flag);
                continue;
            }
            if (v == 0.0) {
                end += sprintf(end, signbit(v) ? "-0.0" : "0.0");
                continue;
            }
            const int len = short_repr(v, end);
            if (len) {
                end += len;
                continue;
            }
            char *r = PyOS_double_to_string(v, 'r', 0, Py_DTSF_ADD_DOT_0,
                                            NULL);
            if (r == NULL)
                goto done;
            const size_t n = strlen(r);
            memcpy(end, r, n);
            end += n;
            PyMem_Free(r);
        }
        *end++ = '\n';
    }
    result = PyUnicode_DecodeASCII(buf, end - buf, NULL);
done:
    PyMem_Free(buf);
    PyBuffer_Release(&view);
    return result;
}

static PyMethodDef methods[] = {
    {"step", (PyCFunction)(void (*)(void))step, METH_FASTCALL,
     "step(constants, s, w_cmd, wrenches, dt) -> the state after "
     "len(wrenches) RK4 steps, as a list"},
    {"geo_tick", (PyCFunction)(void (*)(void))geo_tick, METH_FASTCALL,
     "geo_tick(constants, state, target_pos, target_rpy, pos, vel, q, "
     "gyro) -> one GeoNdiController tick: ((u, w_cmd, saturated), "
     "(p_d, v_d, a_d, q_d, omega_d, omega_dot_d))"},
    {"indi_tick", (PyCFunction)(void (*)(void))indi_tick, METH_FASTCALL,
     "indi_tick(constants, state, target_pos, target_rpy, pos, vel, q, "
     "gyro, accel, rotor_w_meas) -> one IndiController tick, as "
     "geo_tick's"},
    {"ticks", (PyCFunction)(void (*)(void))ticks, METH_FASTCALL,
     "ticks(truth, indi, control, state, run, script, n_sub, pose_every, "
     "n_steps, carried, stream, rows, start, stop) -> None; runs the "
     "closed loop's ticks start ... stop - 1 into their rows"},
    {"stream", stream, METH_O,
     "stream(entropy) -> the state of numpy's default_rng(seed), whose "
     "32-bit words entropy holds"},
    {"csv_rows", (PyCFunction)(void (*)(void))csv_rows, METH_FASTCALL,
     "csv_rows(rows, n_flags) -> the log.csv lines of rows, floats as "
     "repr writes them and the last n_flags columns as ints"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef truth = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_truth",
    .m_doc = "The compiled RK4 truth step, controller ticks, closed loop "
             "and log.csv formatter.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__truth(void)
{
    return PyModule_Create(&truth);
}
