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

   tick is one tick of control.GeoNdiController, or with INDI's two
   further inputs of control.IndiController: the reference shaper,
   (INDI's 12-channel filter bank and its gyro difference,) outer_loop,
   ndi_invert or indi_invert, solve_wrench and saturate, each the Python
   layer of control.py and vehicle.py ported expression by expression
   in the same order, with math.cos and math.sin as libm's cos and sin.
   It reads the controller's constants and updates its state in place,
   the two array('d') buffers its warm_start lays out as the C_ and S_
   offsets below say.

   ticks(...) runs a whole closed-loop run in one call and returns its
   log, a new numpy array of a row per tick: per tick the sensors of
   dynamics.synthesize_sensors, the setpoint of
   experiments._script_target, the controller tick above (geo or indi
   by the length of its constants), the row with its tracking errors
   (row_errors below), and the wrenches (dynamics.DisturbanceSampler.step)
   and RK4 steps of its truth steps.  The sensor noise and the gust draw
   from the run's stream, numpy's default_rng(seed), which it seeds from
   the seed's words (see stream below).  It starts from copies of the
   truth state x0 and the controller state and writes only its log, so
   a bound run gives the same rows at every call.  Its Python form, the
   loop run_scenario ran before, is tests/oracles.py's run_scenario.
   ticks holds the GIL only to read its arguments and allocate its log,
   to check for signals before tick 0 and every GIL_TICKS-th tick, to
   raise a divergence and to release its buffers; its loop runs without
   it, so a sweep's cells run at once on threads.

   write_csv(fd, rows, n_flags) writes log rows as the lines of log.csv
   to a file descriptor, each float with the bytes of repr: the
   shortest decimal that reads back as it, found for every finite
   double by a port of Ryū's d2s (see shortest below) and laid out by
   repr's rules, and each saturation flag as 0 or 1.  It formats on two
   threads without the GIL and writes their chunks in order.

   dynamics.py builds this file with -ffp-contract=off and without
   -ffast-math, so each operation rounds as a CPython float does: the
   compiled and the Python forms agree bit for bit.  It uses numpy's C
   API for ticks' log and links numpy's static libnpyrandom.a for
   random_standard_normal. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <errno.h>
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include "numpy/arrayobject.h"
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
       overflows, which is divergence too); q's norm overflows for
       finite components whose squares do, and would turn q to 0 */
    double sum = 0.0;
    for (int j = 0; j < STATE_SIZE; j++)
        sum += out[j];
    if (!(norm > 0.0 && isfinite(norm) && isfinite(sum)))
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
   array('d') a controller's warm_start lays out: */
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

/* tick(constants, state, target_pos, target_rpy, pos, vel, q, gyro):
   one GeoNdiController tick; with accel and rotor_w_meas after gyro,
   one IndiController tick.  Returns ((u, w_cmd, saturated), (p_d, v_d,
   a_d, q_d, omega_d, omega_dot_d)), the fields of
   vehicle.ActuatorCommand and control.PoseReference. */
static PyObject *
tick(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 8 && nargs != 10) {
        PyErr_SetString(PyExc_TypeError,
                        "tick(constants, state, target_pos, target_rpy, pos, "
                        "vel, q, gyro[, accel, rotor_w_meas])");
        return NULL;
    }
    const int indi = nargs == 10;
    Py_buffer constants, state;
    struct inputs in;
    struct reference ref;
    double u[6], c[6], w[6];
    int sat[6];
    PyObject *saturated, *result = NULL;
    if (get_doubles(args[0], &constants, indi ? N_INDI : N_GEO,
                    PyBUF_SIMPLE, "constants") < 0)
        return NULL;
    if (get_doubles(args[1], &state, indi ? N_INDI_STATE : N_GEO_STATE,
                    PyBUF_WRITABLE, "state") < 0)
        goto release_constants;
    if (read_numbers(args[2], in.target_pos, 3, "target_pos") < 0
        || read_numbers(args[3], in.target_rpy, 3, "target_rpy") < 0
        || read_numbers(args[4], in.pos, 3, "pos") < 0
        || read_numbers(args[5], in.vel, 3, "vel") < 0
        || read_numbers(args[6], in.q, 4, "q") < 0
        || read_numbers(args[7], in.gyro, 3, "gyro") < 0
        || (indi && (read_numbers(args[8], in.accel, 3, "accel") < 0
                     || read_numbers(args[9], in.w_meas, 6,
                                     "rotor_w_meas") < 0)))
        goto release;
    (indi ? indi_core : geo_core)(constants.buf, state.buf, &in, &ref, u);
    saturate(constants.buf, u, c, w, sat);
    if ((saturated = PyTuple_New(6)) == NULL)
        goto release;
    for (int j = 0; j < 6; j++)
        PyTuple_SET_ITEM(saturated, j, PyBool_FromLong(sat[j]));
    result = Py_BuildValue(
        "((NNN)(NNNNNN))", floats(c, 6, 0), floats(w, 6, 0), saturated,
        floats(ref.p, 3, 1), floats(ref.v, 3, 1), floats(ref.a, 3, 1),
        floats(ref.q, 4, 0), floats(ref.omega, 3, 0),
        floats(ref.omega_dot, 3, 0));
release:
    PyBuffer_Release(&state);
release_constants:
    PyBuffer_Release(&constants);
    return result;
}

/* The closed loop.  A run's constants, R_ offsets into the array('d')
   experiments.run_scenario binds: */
#define R_DT 0        /* the truth step */
#define R_NOISE 1     /* the sensor noise's sigma scale, then the accel
                         and gyro sigmas times it */
#define R_KIND 4      /* the disturbance: D_NONE, 1 (a constant load) or
                         D_GUST */
#define R_WINDOW 5    /* t_on, t_off */
#define R_OU 7        /* the gust's decay and diffusion a truth step */
#define R_FORCE 9     /* the spec's force */
#define R_RESIDUAL 12 /* the residual force */
#define R_ON 15       /* the wrench held inside [t_on, t_off) */
#define R_OFF 21      /* and outside it */
#define N_RUN 27
#define D_NONE 0
#define D_GUST 2

/* The log row, in experiments.LOG_LAYOUT order. */
#define L_T 0
#define L_MOTION 1    /* p, v, q, omega of the truth state (13) */
#define L_REF 14      /* p_d, v_d, q_d, omega_d */
#define L_ERRORS 27   /* e_p, e_att_deg: see row_errors */
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
    double u[6], b[3], rot[9];
    for (int j = 0; j < 6; j++)
        u[j] = x[13 + j] * fabs(x[13 + j]);
    for (int r = 0; r < 3; r++) {
        const double *fr = f + 6 * r;
        b[r] = (fr[0] * u[0] + fr[1] * u[1] + fr[2] * u[2]
                + fr[3] * u[3] + fr[4] * u[4] + fr[5] * u[5]);
    }
    rotmat(x + 6, rot);
    const double ax = (rot[0] * b[0] + rot[1] * b[1] + rot[2] * b[2]
                       + force[0]) / m;
    const double ay = (rot[3] * b[0] + rot[4] * b[1] + rot[5] * b[2]
                       + force[1]) / m;
    const double az = (rot[6] * b[0] + rot[7] * b[1] + rot[8] * b[2]
                       - weight + force[2]) / m + g;
    out[0] = rot[0] * ax + rot[3] * ay + rot[6] * az;
    out[1] = rot[1] * ax + rot[4] * ay + rot[7] * az;
    out[2] = rot[2] * ax + rot[5] * ay + rot[8] * az;
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

/* The state of default_rng(seed) into g, from the n 32-bit words of the
   seed, least significant first (one word, 0, for seed 0), as the
   little-endian bytes. */
static void
stream(const unsigned char *bytes, Py_ssize_t n, struct pcg64 *g)
{
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
    *g = (struct pcg64){0, (w[2] << 64 | w[3]) << 1 | 1};
    pcg64_next64(g);
    g->state += w[0] << 64 | w[1];
    pcg64_next64(g);
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

/* A log row's tracking errors from its truth and reference columns:
   e_p = p_d - p, and e_att_deg, the roll, pitch and yaw of
   q_d (x) conj(q) in degrees.  The product is geometry.quat_mul's,
   normalised by the root of its squares summed in order, as
   np.linalg.norm(axis=0) sums them; the angles are rpy_from_quat's,
   through libm's atan2 and asin, so that they do not follow numpy's
   SIMD dispatch. */
static void
row_errors(double *row)
{
    const double *p = row + L_MOTION, *q = row + L_MOTION + 6;
    const double *p_d = row + L_REF, *q_d = row + L_REF + 6;
    double *e = row + L_ERRORS;
    for (int j = 0; j < 3; j++)
        e[j] = p_d[j] - p[j];
    const double aw = q_d[0], ax = q_d[1], ay = q_d[2], az = q_d[3];
    const double bw = q[0], bx = -q[1], by = -q[2], bz = -q[3];
    double w = aw * bw - ax * bx - ay * by - az * bz;
    double x = aw * bx + ax * bw + ay * bz - az * by;
    double y = aw * by - ax * bz + ay * bw + az * bx;
    double z = aw * bz + ax * by - ay * bx + az * bw;
    const double norm = sqrt(w * w + x * x + y * y + z * z);
    w /= norm;
    x /= norm;
    y /= norm;
    z /= norm;
    double s = 2.0 * (w * y - z * x);
    s = s < -1.0 ? -1.0 : s > 1.0 ? 1.0 : s;  /* np.clip: NaN stays */
    const double deg = 180.0 / Py_MATH_PI;  /* np.degrees' factor */
    e[3] = atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y)) * deg;
    e[4] = asin(s) * deg;
    e[5] = atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z)) * deg;
}

#define N_TICKS_ARGS 10
/* ticks' loop takes the GIL back every GIL_TICKS ticks.  A take waits
   for any thread running Python: on a 2-core VM, a 2-thread sweep of
   0.4-1 s of loop waited 2-11 ms in all at 64 ticks a take, 3.5-11 ms at
   256 and 0.6-1.5 ms at 1024.  A 50 Hz tick is about 7 us, so a signal
   waits at most about 7 ms. */
#define GIL_TICKS 1024

static PyObject *
ticks(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    enum { TRUTH, CONTROL, STATE, RUN, SCRIPT, X0, ENTROPY };
    Py_buffer views[ENTROPY + 1];
    int held = 0;
    PyObject *result = NULL;
    if (nargs != N_TICKS_ARGS) {
        PyErr_SetString(PyExc_TypeError,
                        "ticks(truth, control, state, run, script, n_sub, "
                        "pose_every, n_steps, x0, entropy)");
        return NULL;
    }
    Py_ssize_t ints[3];  /* n_sub, pose_every, n_steps */
    for (int i = 0; i < 3; i++) {
        ints[i] = PyLong_AsSsize_t(args[5 + i]);
        if (ints[i] == -1 && PyErr_Occurred())
            return NULL;
    }
    const Py_ssize_t n_sub = ints[0], pose_every = ints[1], n_steps = ints[2];
    if (n_sub < 1 || pose_every < 1 || n_steps < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "n_sub, pose_every and n_steps must be positive");
        return NULL;
    }
    if (get_doubles(args[0], &views[TRUTH], N_TRUTH, PyBUF_SIMPLE,
                    "truth") < 0)
        goto done;
    held++;
    if (PyObject_GetBuffer(args[1], &views[CONTROL], PyBUF_SIMPLE) < 0)
        goto done;
    held++;
    /* the kind by the length of its constants, as tick's by its arity */
    const int indi = views[CONTROL].len == N_INDI * (Py_ssize_t)sizeof(double);
    if (!indi && views[CONTROL].len != N_GEO * (Py_ssize_t)sizeof(double)) {
        PyErr_Format(PyExc_ValueError, "control: expected %d or %d doubles, "
                     "got %zd bytes", N_GEO, N_INDI, views[CONTROL].len);
        goto done;
    }
    const Py_ssize_t n_state = indi ? N_INDI_STATE : N_GEO_STATE;
    if (get_doubles(args[2], &views[STATE], n_state, PyBUF_SIMPLE,
                    "state") < 0)
        goto done;
    held++;
    if (get_doubles(args[3], &views[RUN], N_RUN, PyBUF_SIMPLE, "run") < 0)
        goto done;
    held++;
    if (PyObject_GetBuffer(args[4], &views[SCRIPT], PyBUF_SIMPLE) < 0)
        goto done;
    held++;
    const Py_ssize_t n_script = views[SCRIPT].len / (7 * sizeof(double));
    if (n_script < 1
        || views[SCRIPT].len != n_script * 7 * (Py_ssize_t)sizeof(double)) {
        PyErr_SetString(PyExc_ValueError, "script: expected 7 doubles a "
                        "setpoint, at least one setpoint");
        goto done;
    }
    if (get_doubles(args[8], &views[X0], STATE_SIZE, PyBUF_SIMPLE,
                    "x0") < 0)
        goto done;
    held++;
    if (PyObject_GetBuffer(args[9], &views[ENTROPY], PyBUF_SIMPLE) < 0)
        goto done;
    held++;
    const Py_ssize_t n_words = views[ENTROPY].len / 4;
    if (n_words < 1 || views[ENTROPY].len != 4 * n_words) {
        PyErr_SetString(PyExc_ValueError,
                        "entropy: expected whole 32-bit words");
        goto done;
    }
    const Py_ssize_t n_ticks = (n_steps + n_sub - 1) / n_sub;
    npy_intp shape[2] = {n_ticks, N_LOG_COLUMNS};
    if ((result = PyArray_SimpleNew(2, shape, NPY_DOUBLE)) == NULL)
        goto done;

    const double *k = views[TRUTH].buf, *kc = views[CONTROL].buf;
    const double *r = views[RUN].buf, *script = views[SCRIPT].buf;
    double *rows = PyArray_DATA((PyArrayObject *)result);
    const double dt = r[R_DT];
    const int noisy = r[R_NOISE] > 0.0;
    struct rk4 rk;
    rk4_init(&rk, k, dt);
    struct pcg64 g;
    stream(views[ENTROPY].buf, n_words, &g);
    /* random_standard_normal reads 64-bit words and doubles only */
    bitgen_t normals = {&g, pcg64_next64, NULL, pcg64_next_double,
                        pcg64_next64};
    /* the truth state, the controller's, the 250 Hz pose sample held
       (p, q), the world force the accelerometer sees (that of the last
       truth step's wrench) and the gust's Ornstein-Uhlenbeck state */
    double x[STATE_SIZE], s[N_INDI_STATE], pose[7], force[3],
           ou[3] = {0.0, 0.0, 0.0}, wrench[6];
    memcpy(x, views[X0].buf, sizeof x);
    memcpy(s, views[STATE].buf, n_state * sizeof(double));
    memcpy(pose, x, 3 * sizeof(double));
    memcpy(pose + 3, x + 6, 4 * sizeof(double));
    /* the wrench of step 0 is drawn once before the first tick */
    disturb(r, ou, &normals, 0, wrench);
    memcpy(force, wrench, sizeof force);
    PyThreadState *unlocked = NULL;  /* while the loop runs without the GIL */
    for (Py_ssize_t i = 0; i < n_ticks; i++) {
        if (i % GIL_TICKS == 0) {
            if (i > 0)
                PyEval_RestoreThread(unlocked);
            /* a signal's handler runs here, so Ctrl-C stops a long run */
            if (PyErr_CheckSignals() < 0)
                goto done;
            unlocked = PyEval_SaveThread();
        }
        const Py_ssize_t k0 = i * n_sub;
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
        double *row = rows + i * N_LOG_COLUMNS;
        row[L_T] = t;
        memcpy(row + L_MOTION, x, 13 * sizeof(double));
        memcpy(row + L_REF, ref.p, sizeof ref.p);
        memcpy(row + L_REF + 3, ref.v, sizeof ref.v);
        memcpy(row + L_REF + 6, ref.q, sizeof ref.q);
        memcpy(row + L_REF + 10, ref.omega, sizeof ref.omega);
        row_errors(row);
        for (int j = 0; j < 6; j++) {
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
                PyEval_RestoreThread(unlocked);
                diverged(module, x, j);
                goto done;
            }
            if ((j + 1) % pose_every == 0) {
                memcpy(pose, x, 3 * sizeof(double));
                memcpy(pose + 3, x + 6, 4 * sizeof(double));
            }
        }
        memcpy(force, wrench, sizeof force);
    }
    PyEval_RestoreThread(unlocked);
done:
    if (PyErr_Occurred())  /* a signal's exception or a divergence */
        Py_CLEAR(result);
    while (held > 0)
        PyBuffer_Release(&views[--held]);
    return result;
}

/* The shortest decimal that reads back as a double, by Ryū's d2s
   (Adams, "Ryū: fast float-to-string conversion", PLDI 2018).  Its
   tables hold 5^i and 2^k / 5^q to 125 bits, enough to find the exact
   decimal interval of any double in 128-bit products.  Between the
   markers below they are generated: tests/test_cli.py's pow5_tables
   computes them from Python's exact integers and checks each entry. */
#define POW5_BITS 125

/* BEGIN POW5 TABLES */
static const uint64_t POW5_INV[291][2] = {
    {0x0000000000000001, 0x2000000000000000},
    {0x999999999999999a, 0x1999999999999999},
    {0x47ae147ae147ae15, 0x147ae147ae147ae1},
    {0x6c8b4395810624de, 0x10624dd2f1a9fbe7},
    {0x7a786c226809d496, 0x1a36e2eb1c432ca5},
    {0x61f9f01b866e43ab, 0x14f8b588e368f084},
    {0xb4c7f34938583622, 0x10c6f7a0b5ed8d36},
    {0x87a6520ec08d236a, 0x1ad7f29abcaf4857},
    {0x9fb841a566d74f88, 0x15798ee2308c39df},
    {0xe62d01511f12a607, 0x112e0be826d694b2},
    {0xd6ae6881cb5109a4, 0x1b7cdfd9d7bdbab7},
    {0xdef1ed34a2a73aea, 0x15fd7fe17964955f},
    {0x7f27f0f6e885c8bb, 0x119799812dea1119},
    {0x650cb4be40d60df8, 0x1c25c268497681c2},
    {0xea70909833de7193, 0x16849b86a12b9b01},
    {0x21f3a6e0297ec143, 0x1203af9ee756159b},
    {0x6985d7cd0f313537, 0x1cd2b297d889bc2b},
    {0x2137dfd73f5a90f9, 0x170ef54646d49689},
    {0xe75fe645cc4873fa, 0x12725dd1d243aba0},
    {0xa5663d3c7a0d865d, 0x1d83c94fb6d2ac34},
    {0x511e976394d79eb1, 0x179ca10c9242235d},
    {0xda7edf82dd794bc1, 0x12e3b40a0e9b4f7d},
    {0x2a6498d1625bac68, 0x1e392010175ee596},
    {0xeeb6e0a781e2f053, 0x182db34012b25144},
    {0x58924d52ce4f26a9, 0x1357c299a88ea76a},
    {0x27507bb7b07ea441, 0x1ef2d0f5da7dd8aa},
    {0x52a6c95fc0655034, 0x18c240c4aecb13bb},
    {0x0eebd44c99eaa690, 0x13ce9a36f23c0fc9},
    {0xb17953adc3110a80, 0x1fb0f6be50601941},
    {0xc12ddc8b02740867, 0x195a5efea6b34767},
    {0x3424b06f3529a052, 0x14484bfeebc29f86},
    {0x901d59f290ee19db, 0x1039d66589687f9e},
    {0x4cfbc31db4b0295f, 0x19f623d5a8a73297},
    {0x3d9635b15d59bab2, 0x14c4e977ba1f5bac},
    {0x97ab5e277de16228, 0x109d8792fb4c4956},
    {0xf2abc9d8c9689d0d, 0x1a95a5b7f87a0ef0},
    {0x5bbca17a3aba173e, 0x154484932d2e725a},
    {0xafca1ac82efb45cb, 0x11039d428a8b8eae},
    {0xb2dcf7a6b1920945, 0x1b38fb9daa78e44a},
    {0xf57d92ebc141a104, 0x15c72fb1552d836e},
    {0xc46475896767b403, 0x116c262777579c58},
    {0x6d6d88dbd8a5ecd2, 0x1be03d0bf225c6f4},
    {0x8abe071646eb23db, 0x164cfda3281e38c3},
    {0x6efe6c11d255b649, 0x11d7314f534b609c},
    {0xb197134fb6ef8a0e, 0x1c8b821885456760},
    {0x27ac0f72f8bfa1a5, 0x16d601ad376ab91a},
    {0xb95672c260994e1e, 0x1244ce242c5560e1},
    {0xf5571e03cdc21695, 0x1d3ae36d13bbce35},
    {0x2aac18030b01abab, 0x17624f8a762fd82b},
    {0xbbbce0026f348956, 0x12b50c6ec4f31355},
    {0x92c7ccd0b1eda889, 0x1dee7a4ad4b81eef},
    {0xdbd30a408e57ba07, 0x17f1fb6f10934bf2},
    {0x7ca8d50071dfc806, 0x1327fc58da0f6ff5},
    {0xfaa7bb33e9660cd6, 0x1ea6608e29b24cbb},
    {0x9552fc298784d711, 0x18851a0b548ea3c9},
    {0xaaa8c9bad2d0ac0e, 0x139dae6f76d88307},
    {0xdddadc5e1e1aace3, 0x1f62b0b257c0d1a5},
    {0x7e48b04b4b488a4f, 0x191bc08eac9a4151},
    {0xcb6d59d5d5d3a1d9, 0x141633a556e1cdda},
    {0x3c577b1177dc817b, 0x1011c2eaabe7d7e2},
    {0xc6f25e825960cf2a, 0x19b604aaaca62636},
    {0x6bf518684780a5bb, 0x14919d5556eb51c5},
    {0x232a79ed06008496, 0x10747ddddf22a7d1},
    {0xd1dd8fe1a3340756, 0x1a53fc9631d10c81},
    {0xa7e4731ae8f66c45, 0x150ffd44f4a73d34},
    {0x531d28e253f8569e, 0x10d9976a5d52975d},
    {0xeb61db03b98d5762, 0x1af5bf109550f22e},
    {0xbc4e48cfc7a445e8, 0x159165a6ddda5b58},
    {0x6371d3d96c836b20, 0x11411e1f17e1e2ad},
    {0x9f1c8628ad9f11cd, 0x1b9b6364f3030448},
    {0xe5b06b53be18db0b, 0x1615e91d8f359d06},
    {0xeaf3890fcb4715a2, 0x11ab20e472914a6b},
    {0x44b8db4c7871bc37, 0x1c45016d841baa46},
    {0x03c715d6c6c1635f, 0x169d9abe03495505},
    {0x3638de456bcde919, 0x1217aefe69077737},
    {0x56c163a2461641c1, 0x1cf2b1970e725858},
    {0xdf011c81d1ab67ce, 0x17288e1271f51379},
    {0x7f3416ce4155eca5, 0x1286d80ec190dc61},
    {0x6520247d3556476e, 0x1da48ce468e7c702},
    {0xea801d30f7783925, 0x17b6d71d20b96c01},
    {0xbb99b0f3f92cfa84, 0x12f8ac174d612334},
    {0x5f5c4e532847f739, 0x1e5aacf215683854},
    {0x7f7d0b75b9d32c2e, 0x18488a5b44536043},
    {0x9930d5f7c7dc2358, 0x136d3b7c36a919cf},
    {0x8eb4898c72f9d226, 0x1f152bf9f10e8fb2},
    {0x722a07a38f2e41b8, 0x18ddbcc7f40ba628},
    {0xc1bb394fa5be9afa, 0x13e497065cd61e86},
    {0x9c5ec2190930f7f6, 0x1fd424d6faf030d7},
    {0x49e56814075a5ff8, 0x197683df2f268d79},
    {0x6e51201005e1e660, 0x145ecfe5bf520ac7},
    {0xf1da800cd181851a, 0x104bd984990e6f05},
    {0x4fc400148268d4f5, 0x1a12f5a0f4e3e4d6},
    {0xd96999aa01ed772b, 0x14dbf7b3f71cb711},
    {0xadee1488018ac5bc, 0x10aff95cc5b09274},
    {0x497ceda668de092c, 0x1ab328946f80ea54},
    {0x3aca57b853e4d424, 0x155c2076bf9a5510},
    {0x623b7960431d7683, 0x1116805effaeaa73},
    {0x9d2bf566d1c8bd9e, 0x1b5733cb32b110b8},
    {0x7dbcc452416d647f, 0x15df5ca28ef40d60},
    {0xcafd69db678ab6cc, 0x117f7d4ed8c33de6},
    {0xab2f0fc572778adf, 0x1bff2ee48e052fd7},
    {0x88f273045b92d580, 0x1665bf1d3e6a8cac},
    {0xd3f528d049424466, 0x11eaff4a98553d56},
    {0xb988414d4203a0a3, 0x1cab3210f3bb9557},
    {0x6139cdd76802e6e9, 0x16ef5b40c2fc7779},
    {0xe761717920025254, 0x125915cd68c9f92d},
    {0xa568b58e999d5086, 0x1d5b561574765b7c},
    {0x5120913ee14aa6d2, 0x177c44ddf6c515fd},
    {0xa74d40ff1aa21f0e, 0x12c9d0b1923744ca},
    {0x0baece64f769cb4a, 0x1e0fb44f50586e11},
    {0x3c8bd850c5ee3c3b, 0x180c903f7379f1a7},
    {0xca0979da37f1c9c9, 0x133d4032c2c7f485},
    {0xa9a8c2f6bfe942db, 0x1ec866b79e0cba6f},
    {0x2153cf2bccba9be3, 0x18a0522c7e709526},
    {0x1aa9728970954982, 0x13b374f06526ddb8},
    {0xf775840f1a88759d, 0x1f8587e7083e2f8c},
    {0x5f9136727ba05e17, 0x19379fec0698260a},
    {0x1940f85b9619e4df, 0x142c7ff0054684d5},
    {0xe100c6afab47ea4c, 0x1023998cd1053710},
    {0xce67a44c453fdd47, 0x19d28f47b4d524e7},
    {0xd852e9d69dccb106, 0x14a8729fc3ddb71f},
    {0x79dbee454b0a2738, 0x1086c219697e2c19},
    {0x295fe3a211a9d859, 0x1a71368f0f30468f},
    {0xbab31c81a7bb137a, 0x15275ed8d8f36ba5},
    {0x6228e39aec95a92f, 0x10ec4be0ad8f8951},
    {0x9d0e38f7e0ef7517, 0x1b13ac9aaf4c0ee8},
    {0xb0d82d931a592a79, 0x15a956e225d67253},
    {0x8d79be0f4847552e, 0x11544581b7dec1dc},
    {0x158f967eda0bbb7c, 0x1bba08cf8c979c94},
    {0x77a611ff14d62f97, 0x162e6d72d6dfb076},
    {0xf951a7ff43de8c79, 0x11bebdf578b2f391},
    {0xc21c3ffed2fdad8e, 0x1c6463225ab7ec1c},
    {0x01b0333242648ad8, 0x16b6b5b5155ff017},
    {0x0159c28e9b83a246, 0x122bc490dde659ac},
    {0xcef604175f3903a3, 0x1d12d41afca3c2ac},
    {0x725e69ac4c2d9c83, 0x17424348ca1c9bbd},
    {0xf5185489d68ae39c, 0x129b69070816e2fd},
    {0xee8d540fbdab05c6, 0x1dc574d80cf16b2f},
    {0xbed77672fe226b05, 0x17d12a4670c1228c},
    {0xff12c528cb4ebc04, 0x130dbb6b8d674ed6},
    {0xcb513b74787df9a0, 0x1e7c5f127bd87e24},
    {0x090dc929f9fe614d, 0x18637f41fcad31b7},
    {0xa0d7d42194cb810a, 0x1382cc34ca2427c5},
    {0x67bfb9cf5478ce77, 0x1f37ad21436d0c6f},
    {0x1fcc94a5dd2d71f9, 0x18f9574dcf8a7059},
    {0x7fd6dd517dbdf4c7, 0x13faac3e3fa1f37a},
    {0xffbe2ee8c92fee0b, 0x1ff779fd329cb8c3},
    {0x6631bf20a0f324d6, 0x1992c7fdc216fa36},
    {0xb827cc1a1a5c1d78, 0x14756ccb01abfb5e},
    {0x935309ae7b7ce460, 0x105df0a267bcc918},
    {0x1eeb42b0c594a099, 0x1a2fe76a3f9474f4},
    {0xe58902270476e6e1, 0x14f31f8832dd2a5c},
    {0xb7a0ce859d2bebe7, 0x10c27fa028b0eeb0},
    {0x59014a6f61dfdfd8, 0x1ad0cc33744e4ab4},
    {0xe0cdd525e7e64cad, 0x1573d68f903ea229},
    {0x4d7177518651d6f1, 0x11297872d9cbb4ee},
    {0x7be8bee8d6e957e8, 0x1b758d848fac54b0},
    {0xfcba3253df211320, 0x15f7a46a0c89dd59},
    {0x63c8284318e74280, 0x1192e9ee706e4aae},
    {0x060d0d3827d86a66, 0x1c1e43171a4a1117},
    {0x6b3da42cecad21eb, 0x167e9c127b6e7412},
    {0x88fe1cf0bd574e56, 0x11fee341fc585cdb},
    {0x419694b462254a23, 0x1ccb0536608d615f},
    {0x67abaa29e81dd4e9, 0x1708d0f84d3de77f},
    {0xb95621bb2017dd87, 0x126d73f9d764b932},
    {0xc223692b668c95a5, 0x1d7becc2f23ac1ea},
    {0xce82ba891ed6de1d, 0x179657025b6234bb},
    {0xa53562074bdf1818, 0x12deac01e2b4f6fc},
    {0x3b889cd87964f359, 0x1e3113363787f194},
    {0xfc6d4a46c783f5e1, 0x18274291c6065adc},
    {0x30576e9f06032b1a, 0x13529ba7d19eaf17},
    {0x1a257dcb3cd1de90, 0x1eea92a61c311825},
    {0x481dfe3c30a7e540, 0x18bba884e35a79b7},
    {0xd34b31c9c0865100, 0x13c9539d82aec7c5},
    {0x5211e942cda3b4cd, 0x1fa885c8d117a609},
    {0x74db21023e1c90a4, 0x19539e3a40dfb807},
    {0xf715b401cb4a0d50, 0x1442e4fb67196005},
    {0xf8de299b09080aa7, 0x103583fc527ab337},
    {0x8e304291a80cddd7, 0x19ef3993b72ab859},
    {0x3e8d020e200a4b13, 0x14bf6142f8eef9e1},
    {0x653d9b3e80083c0f, 0x10991a9bfa58c7e7},
    {0x6ec8f864000d2ce4, 0x1a8e90f9908e0ca5},
    {0x8bd3f9e999a423ea, 0x153eda614071a3b7},
    {0x3ca994bae1501cbb, 0x10ff151a99f482f9},
    {0xc775bac49bb3612b, 0x1b31bb5dc320d18e},
    {0xd2c4956a16291a89, 0x15c162b168e70e0b},
    {0xdbd0778811ba7ba1, 0x11678227871f3e6f},
    {0x2c80bf401c5d929b, 0x1bd8d03f3e9863e6},
    {0xbd33cc3349e47549, 0x16470cff6546b651},
    {0xca8fd68f6e505dd4, 0x11d270cc51055ea7},
    {0x4419574be3b3c953, 0x1c83e7ad4e6efdd9},
    {0x0347790982f63aa9, 0x16cfec8aa52597e1},
    {0xcf6c60d468c4fbba, 0x123ff06eea847980},
    {0xe57a34870e07f92a, 0x1d331a4b10d3f59a},
    {0x512e906c0b399422, 0x175c1508da432ae2},
    {0xda8ba6bcd5c7a9b5, 0x12b010d3e1cf5581},
    {0x90df712e22d90f87, 0x1de6815302e5559c},
    {0xda4c5a8b4f140c6c, 0x17eb9aa8cf1dde16},
    {0xaea37ba2a5a9a38a, 0x1322e220a5b17e78},
    {0x7dd25f6aa2a905a9, 0x1e9e369aa2b59727},
    {0x97db7f888220d154, 0x187e92154ef7ac1f},
    {0x797c6606ce80a777, 0x139874ddd8c6234c},
    {0x8f2d700ae4010bf1, 0x1f5a549627a36bad},
    {0x0c2459a25000d65a, 0x191510781fb5efbe},
    {0x701d1481d99a4515, 0x1410d9f9b2f7f2fe},
    {0xc017439b147b6a77, 0x100d7b2e28c65bfe},
    {0xccf205c4ed9243f2, 0x19af2b7d0e0a2cca},
    {0x0a5b37d0be0e9cc2, 0x148c22ca71a1bd6f},
    {0x0848f973cb3ee3ce, 0x10701bd527b4978c},
    {0xda0e5bec78649fb0, 0x1a4cf9550c5425ac},
    {0x7b3eaff060507fc0, 0x150a6110d6a9b7bd},
    {0x95cbbff380406633, 0x10d51a73deee2c97},
    {0xefac665266cd7052, 0x1aee90b964b04758},
    {0x2623850eb8a459db, 0x158ba6fab6f36c47},
    {0x1e82d0d893b6ae49, 0x113c85955f29236c},
    {0xfd9e1af41f8ab075, 0x1b9408eefea838ac},
    {0x97b1af29b2d559f7, 0x16100725988693bd},
    {0xac8e25baf5777b2c, 0x11a66c1e139edc97},
    {0x7a7d092b2258c513, 0x1c3d79c9b8fe2dbf},
    {0x61fda0ef4ead6a76, 0x169794a160cb57cc},
    {0xe7fe1a590bbdeec5, 0x1212dd4de7091309},
    {0xa6635d5b45fcb13a, 0x1ceafbafd80e84dc},
    {0x851c4aaf6b308dc8, 0x172262f3133ed0b0},
    {0xd0e36ef2bc26d7d4, 0x1281e8c275cbda26},
    {0xb49f17eac6a48c86, 0x1d9ca79d894629d7},
    {0x2a18dfef0550706b, 0x17b08617a104ee46},
    {0x54e0b3259dd9f389, 0x12f39e794d9d8b6b},
    {0x87cdeb6f62f65274, 0x1e5297287c2f4578},
    {0xd30b22bf825ea85d, 0x18421286c9bf6ac6},
    {0x0f3c1bcc684bb9e4, 0x13680ed23aff889f},
    {0x18602c7a4079296d, 0x1f0ce4839198da98},
    {0x46b356c833942124, 0x18d71d360e13e213},
    {0x388f78a029434db6, 0x13df4a91a4dcb4dc},
    {0x5a7f2766a86baf8a, 0x1fcbaa82a1612160},
    {0x153285ebb9efbfa2, 0x196fbb9bb44db44d},
    {0xaa8ed189618c994e, 0x145962e2f6a4903d},
    {0xeed8a7a11ad6e10c, 0x1047824f2bb6d9ca},
    {0x7e27729b5e249b45, 0x1a0c03b1df8af611},
    {0xfe85f549181d4904, 0x14d6695b193bf80d},
    {0xcb9e5dd4134aa0d0, 0x10ab877c142ff9a4},
    {0xdf63c9535211014d, 0x1aac0bf9b9e65c3a},
    {0x191ca10f74da6771, 0x15566ffafb1eb02f},
    {0xadb080d92a4852c1, 0x1111f32f2f4bc025},
    {0x15e7348eaa0d5134, 0x1b4feb7eb212cd09},
    {0xab1f5d3eee710dc4, 0x15d98932280f0a6d},
    {0xbc1917658b8da49d, 0x117ad428200c0857},
    {0x2cf4f23c127c3a94, 0x1bf7b9d9cce00d59},
    {0xf0c3f4fcdb969543, 0x165fc7e170b33de0},
    {0x5a365d9716121103, 0x11e6398126f5cb1a},
    {0x9056fc24f01ce804, 0x1ca38f350b22de90},
    {0xd9df301d8ce3ecd0, 0x16e93f5da2824ba6},
    {0xe17f59b13d8323da, 0x125432b14ecea2eb},
    {0x68cbc2b52f38395c, 0x1d53844ee47dd179},
    {0x53d6355dbf602de3, 0x177603725064a794},
    {0xa9782ab165e68b1c, 0x12c4cf8ea6b6ec76},
    {0x0f26aab56fd744fa, 0x1e07b27dd78b13f1},
    {0x3f52222abfdf6a62, 0x18062864ac6f4327},
    {0x65db4e88997f884e, 0x1338205089f29c1f},
    {0x6fc54a7428cc0d4a, 0x1ec033b40fea9365},
    {0x596aa1f68709a43b, 0x1899c2f673220f84},
    {0xadeee7f86c07b696, 0x13ae3591f5b4d936},
    {0x497e3ff3e00c5756, 0x1f7d228322baf524},
    {0xd464fff64cd6ac45, 0x1930e868e89590e9},
    {0x4383fff83d7889d1, 0x14272053ed4473ee},
    {0xcf9cccc69793a174, 0x101f4d0ff1038ff1},
    {0x7f6147a425b90252, 0x19cbae7fe805b31c},
    {0xcc4dd2e9b7c7350f, 0x14a2f1ffecd15c16},
    {0x3d0b0f215fd290d9, 0x10825b3323dab012},
    {0x61ab4b689950e7c1, 0x1a6a2b85062ab350},
    {0x4e22a2ba1440b967, 0x1521bc6a6b555c40},
    {0x0b4ee894dd009453, 0x10e7c9eebc4449cd},
    {0x1217da87c800ed51, 0x1b0c764ac6d3a948},
    {0xdb46486ca000bdda, 0x15a391d56bdc876c},
    {0x490506bd4ccd64af, 0x114fa7ddefe39f8a},
    {0xa8080ac87ae23ab1, 0x1bb2a62fe638ff43},
    {0x5339a239fbe82ef4, 0x162884f31e93ff69},
    {0x75c7b4fb2fecf25d, 0x11ba03f5b20fff87},
    {0x22d92191e647ea2e, 0x1c5cd322b67fff3f},
    {0xb57a8141850654f2, 0x16b0a8e891ffff65},
    {0xc4620101373843f5, 0x1226ed86db3332b7},
    {0x3a366801f1f39fee, 0x1d0b15a491eb8459},
    {0xfb5eb99b27f6198b, 0x173c115074bc69e0},
    {0x2f7efae2865e7ad6, 0x129674405d6387e7},
    {0xe597f7d0d6fd9156, 0x1dbd86cd6238d971},
    {0x8479930d78cadaab, 0x17cad23de82d7ac1},
    {0xd06142712d6f1556, 0x1308a831868ac89a},
    {0x4d686a4eaf182222, 0x1e74404f3daada91},
    {0xa453883ef279b4e8, 0x185d003f6488aeda},
    {0xe9dc6cff28615d87, 0x137d99cc506d58ae},
    {0xa960ae650d6895a4, 0x1f2f5c7a1a488de4},
    {0xbab3beb73ded4483, 0x18f2b061aea07183},
};
static const uint64_t POW5[326][2] = {
    {0x0000000000000000, 0x1000000000000000},
    {0x0000000000000000, 0x1400000000000000},
    {0x0000000000000000, 0x1900000000000000},
    {0x0000000000000000, 0x1f40000000000000},
    {0x0000000000000000, 0x1388000000000000},
    {0x0000000000000000, 0x186a000000000000},
    {0x0000000000000000, 0x1e84800000000000},
    {0x0000000000000000, 0x1312d00000000000},
    {0x0000000000000000, 0x17d7840000000000},
    {0x0000000000000000, 0x1dcd650000000000},
    {0x0000000000000000, 0x12a05f2000000000},
    {0x0000000000000000, 0x174876e800000000},
    {0x0000000000000000, 0x1d1a94a200000000},
    {0x0000000000000000, 0x12309ce540000000},
    {0x0000000000000000, 0x16bcc41e90000000},
    {0x0000000000000000, 0x1c6bf52634000000},
    {0x0000000000000000, 0x11c37937e0800000},
    {0x0000000000000000, 0x16345785d8a00000},
    {0x0000000000000000, 0x1bc16d674ec80000},
    {0x0000000000000000, 0x1158e460913d0000},
    {0x0000000000000000, 0x15af1d78b58c4000},
    {0x0000000000000000, 0x1b1ae4d6e2ef5000},
    {0x0000000000000000, 0x10f0cf064dd59200},
    {0x0000000000000000, 0x152d02c7e14af680},
    {0x0000000000000000, 0x1a784379d99db420},
    {0x0000000000000000, 0x108b2a2c28029094},
    {0x0000000000000000, 0x14adf4b7320334b9},
    {0x4000000000000000, 0x19d971e4fe8401e7},
    {0x8800000000000000, 0x1027e72f1f128130},
    {0xaa00000000000000, 0x1431e0fae6d7217c},
    {0xd480000000000000, 0x193e5939a08ce9db},
    {0xc9a0000000000000, 0x1f8def8808b02452},
    {0xbe04000000000000, 0x13b8b5b5056e16b3},
    {0xad85000000000000, 0x18a6e32246c99c60},
    {0xd8e6400000000000, 0x1ed09bead87c0378},
    {0x878fe80000000000, 0x13426172c74d822b},
    {0x6973e20000000000, 0x1812f9cf7920e2b6},
    {0x03d0da8000000000, 0x1e17b84357691b64},
    {0x8262889000000000, 0x12ced32a16a1b11e},
    {0x22fb2ab400000000, 0x178287f49c4a1d66},
    {0xabb9f56100000000, 0x1d6329f1c35ca4bf},
    {0xcb54395ca0000000, 0x125dfa371a19e6f7},
    {0xbe2947b3c8000000, 0x16f578c4e0a060b5},
    {0x2db399a0ba000000, 0x1cb2d6f618c878e3},
    {0xfc90400474400000, 0x11efc659cf7d4b8d},
    {0x7bb4500591500000, 0x166bb7f0435c9e71},
    {0xdaa16406f5a40000, 0x1c06a5ec5433c60d},
    {0xa8a4de8459868000, 0x118427b3b4a05bc8},
    {0xd2ce16256fe82000, 0x15e531a0a1c872ba},
    {0x87819baecbe22800, 0x1b5e7e08ca3a8f69},
    {0xf4b1014d3f6d5900, 0x111b0ec57e6499a1},
    {0x71dd41a08f48af40, 0x1561d276ddfdc00a},
    {0x0e549208b31adb10, 0x1aba4714957d300d},
    {0x28f4db456ff0c8ea, 0x10b46c6cdd6e3e08},
    {0x33321216cbecfb24, 0x14e1878814c9cd8a},
    {0xbffe969c7ee839ed, 0x1a19e96a19fc40ec},
    {0xf7ff1e21cf512434, 0x105031e2503da893},
    {0xf5fee5aa43256d41, 0x14643e5ae44d12b8},
    {0x337e9f14d3eec892, 0x197d4df19d605767},
    {0x005e46da08ea7ab6, 0x1fdca16e04b86d41},
    {0xa03aec4845928cb2, 0x13e9e4e4c2f34448},
    {0xc849a75a56f72fde, 0x18e45e1df3b0155a},
    {0x7a5c1130ecb4fbd6, 0x1f1d75a5709c1ab1},
    {0xec798abe93f11d65, 0x13726987666190ae},
    {0xa797ed6e38ed64bf, 0x184f03e93ff9f4da},
    {0x517de8c9c728bdef, 0x1e62c4e38ff87211},
    {0xd2eeb17e1c7976b5, 0x12fdbb0e39fb474a},
    {0x87aa5ddda397d462, 0x17bd29d1c87a191d},
    {0xe994f5550c7dc97b, 0x1dac74463a989f64},
    {0x11fd195527ce9ded, 0x128bc8abe49f639f},
    {0xd67c5faa71c24568, 0x172ebad6ddc73c86},
    {0x8c1b77950e32d6c2, 0x1cfa698c95390ba8},
    {0x57912abd28dfc639, 0x121c81f7dd43a749},
    {0xad75756c7317b7c8, 0x16a3a275d494911b},
    {0x98d2d2c78fdda5ba, 0x1c4c8b1349b9b562},
    {0x9f83c3bcb9ea8794, 0x11afd6ec0e14115d},
    {0x0764b4abe8652979, 0x161bcca7119915b5},
    {0x493de1d6e27e73d7, 0x1ba2bfd0d5ff5b22},
    {0x6dc6ad264d8f0866, 0x1145b7e285bf98f5},
    {0xc938586fe0f2ca80, 0x159725db272f7f32},
    {0x7b866e8bd92f7d20, 0x1afcef51f0fb5eff},
    {0xad34051767bdae34, 0x10de1593369d1b5f},
    {0x9881065d41ad19c1, 0x15159af804446237},
    {0x7ea147f492186032, 0x1a5b01b605557ac5},
    {0x6f24ccf8db4f3c1f, 0x1078e111c3556cbb},
    {0x4aee003712230b27, 0x14971956342ac7ea},
    {0xdda98044d6abcdf0, 0x19bcdfabc13579e4},
    {0x0a89f02b062b60b6, 0x10160bcb58c16c2f},
    {0xcd2c6c35c7b638e4, 0x141b8ebe2ef1c73a},
    {0x8077874339a3c71d, 0x1922726dbaae3909},
    {0xe0956914080cb8e4, 0x1f6b0f092959c74b},
    {0x6c5d61ac8507f38e, 0x13a2e965b9d81c8f},
    {0x4774ba17a649f072, 0x188ba3bf284e23b3},
    {0x1951e89d8fdc6c8f, 0x1eae8caef261aca0},
    {0x0fd3316279e9c3d9, 0x132d17ed577d0be4},
    {0x13c7fdbb186434cf, 0x17f85de8ad5c4edd},
    {0x58b9fd29de7d4203, 0x1df67562d8b36294},
    {0xb7743e3a2b0e4942, 0x12ba095dc7701d9c},
    {0xe5514dc8b5d1db92, 0x17688bb5394c2503},
    {0xdea5a13ae3465277, 0x1d42aea2879f2e44},
    {0x0b2784c4ce0bf38a, 0x1249ad2594c37ceb},
    {0xcdf165f6018ef06d, 0x16dc186ef9f45c25},
    {0x416dbf7381f2ac88, 0x1c931e8ab871732f},
    {0x88e497a83137abd5, 0x11dbf316b346e7fd},
    {0xeb1dbd923d8596ca, 0x1652efdc6018a1fc},
    {0x25e52cf6cce6fc7d, 0x1be7abd3781eca7c},
    {0x97af3c1a40105dce, 0x1170cb642b133e8d},
    {0xfd9b0b20d0147542, 0x15ccfe3d35d80e30},
    {0x3d01cde904199292, 0x1b403dcc834e11bd},
    {0x462120b1a28ffb9b, 0x1108269fd210cb16},
    {0xd7a968de0b33fa82, 0x154a3047c694fddb},
    {0xcd93c3158e00f923, 0x1a9cbc59b83a3d52},
    {0xc07c59ed78c09bb6, 0x10a1f5b813246653},
    {0xb09b7068d6f0c2a3, 0x14ca732617ed7fe8},
    {0xdcc24c830cacf34c, 0x19fd0fef9de8dfe2},
    {0xc9f96fd1e7ec180f, 0x103e29f5c2b18bed},
    {0x3c77cbc661e71e13, 0x144db473335deee9},
    {0x8b95beb7fa60e598, 0x1961219000356aa3},
    {0x6e7b2e65f8f91efe, 0x1fb969f40042c54c},
    {0xc50cfcffbb9bb35f, 0x13d3e2388029bb4f},
    {0xb6503c3faa82a037, 0x18c8dac6a0342a23},
    {0xa3e44b4f95234844, 0x1efb1178484134ac},
    {0xe66eaf11bd360d2b, 0x135ceaeb2d28c0eb},
    {0xe00a5ad62c839075, 0x183425a5f872f126},
    {0x980cf18bb7a47493, 0x1e412f0f768fad70},
    {0x5f0816f752c6c8dc, 0x12e8bd69aa19cc66},
    {0xf6ca1cb527787b13, 0x17a2ecc414a03f7f},
    {0xf47ca3e2715699d7, 0x1d8ba7f519c84f5f},
    {0xf8cde66d86d62026, 0x127748f9301d319b},
    {0xf7016008e88ba830, 0x17151b377c247e02},
    {0xb4c1b80b22ae923c, 0x1cda62055b2d9d83},
    {0x50f91306f5ad1b65, 0x12087d4358fc8272},
    {0xe53757c8b318623f, 0x168a9c942f3ba30e},
    {0x9e852dbadfde7acf, 0x1c2d43b93b0a8bd2},
    {0xa3133c94cbeb0cc1, 0x119c4a53c4e69763},
    {0x8bd80bb9fee5cff1, 0x16035ce8b6203d3c},
    {0xaece0ea87e9f43ee, 0x1b843422e3a84c8b},
    {0x4d40c9294f238a75, 0x1132a095ce492fd7},
    {0x2090fb73a2ec6d12, 0x157f48bb41db7bcd},
    {0x68b53a508ba78856, 0x1adf1aea12525ac0},
    {0x417144725748b536, 0x10cb70d24b7378b8},
    {0x51cd958eed1ae283, 0x14fe4d06de5056e6},
    {0xe640faf2a8619b24, 0x1a3de04895e46c9f},
    {0xefe89cd7a93d00f7, 0x1066ac2d5daec3e3},
    {0xebe2c40d938c4134, 0x14805738b51a74dc},
    {0x26db7510f86f5181, 0x19a06d06e2611214},
    {0x9849292a9b4592f1, 0x100444244d7cab4c},
    {0xbe5b73754216f7ad, 0x1405552d60dbd61f},
    {0xadf25052929cb598, 0x1906aa78b912cba7},
    {0x996ee4673743e2ff, 0x1f485516e7577e91},
    {0xffe54ec0828a6ddf, 0x138d352e5096af1a},
    {0xbfdea270a32d0957, 0x18708279e4bc5ae1},
    {0x2fd64b0ccbf84bad, 0x1e8ca3185deb719a},
    {0x5de5eee7ff7b2f4c, 0x1317e5ef3ab32700},
    {0x755f6aa1ff59fb1f, 0x17dddf6b095ff0c0},
    {0x92b7454a7f3079e7, 0x1dd55745cbb7ecf0},
    {0x5bb28b4e8f7e4c30, 0x12a5568b9f52f416},
    {0xf29f2e22335ddf3c, 0x174eac2e8727b11b},
    {0xef46f9aac035570b, 0x1d22573a28f19d62},
    {0xd58c5c0ab8215667, 0x123576845997025d},
    {0x4aef730d6629ac01, 0x16c2d4256ffcc2f5},
    {0x9dab4fd0bfb41701, 0x1c73892ecbfbf3b2},
    {0xa28b11e277d08e60, 0x11c835bd3f7d784f},
    {0x8b2dd65b15c4b1f9, 0x163a432c8f5cd663},
    {0x6df94bf1db35de77, 0x1bc8d3f7b3340bfc},
    {0xc4bbcf772901ab0a, 0x115d847ad000877d},
    {0x35eac354f34215cd, 0x15b4e5998400a95d},
    {0x8365742a30129b40, 0x1b221effe500d3b4},
    {0xd21f689a5e0ba108, 0x10f5535fef208450},
    {0x06a742c0f58e894a, 0x1532a837eae8a565},
    {0x4851137132f22b9d, 0x1a7f5245e5a2cebe},
    {0xed32ac26bfd75b42, 0x108f936baf85c136},
    {0xa87f57306fcd3212, 0x14b378469b673184},
    {0xd29f2cfc8bc07e97, 0x19e056584240fde5},
    {0xa3a37c1dd7584f1e, 0x102c35f729689eaf},
    {0x8c8c5b254d2e62e6, 0x14374374f3c2c65b},
    {0x6faf71eea079fb9f, 0x1945145230b377f2},
    {0x0b9b4e6a48987a87, 0x1f965966bce055ef},
    {0x674111026d5f4c94, 0x13bdf7e0360c35b5},
    {0xc111554308b71fba, 0x18ad75d8438f4322},
    {0x7155aa93cae4e7a8, 0x1ed8d34e547313eb},
    {0x26d58a9c5ecf10c9, 0x13478410f4c7ec73},
    {0xf08aed437682d4fb, 0x1819651531f9e78f},
    {0xecada89454238a3a, 0x1e1fbe5a7e786173},
    {0x73ec895cb4963664, 0x12d3d6f88f0b3ce8},
    {0x90e7abb3e1bbc3fd, 0x1788ccb6b2ce0c22},
    {0x352196a0da2ab4fd, 0x1d6affe45f818f2b},
    {0x0134fe24885ab11e, 0x1262dfeebbb0f97b},
    {0xc1823dadaa715d65, 0x16fb97ea6a9d37d9},
    {0x31e2cd19150db4bf, 0x1cba7de5054485d0},
    {0x1f2dc02fad2890f7, 0x11f48eaf234ad3a2},
    {0xa6f9303b9872b535, 0x1671b25aec1d888a},
    {0x50b77c4a7e8f6282, 0x1c0e1ef1a724eaad},
    {0x5272adae8f199d91, 0x1188d357087712ac},
    {0x670f591a32e004f6, 0x15eb082cca94d757},
    {0x40d32f60bf980633, 0x1b65ca37fd3a0d2d},
    {0x4883fd9c77bf03e0, 0x111f9e62fe44483c},
    {0x5aa4fd0395aec4d8, 0x156785fbbdd55a4b},
    {0x314e3c447b1a760e, 0x1ac1677aad4ab0de},
    {0xded0e5aaccf089c9, 0x10b8e0acac4eae8a},
    {0x96851f15802cac3b, 0x14e718d7d7625a2d},
    {0xfc2666dae037d74a, 0x1a20df0dcd3af0b8},
    {0x9d980048cc22e68e, 0x10548b68a044d673},
    {0x84fe005aff2ba032, 0x1469ae42c8560c10},
    {0xa63d8071bef6883e, 0x198419d37a6b8f14},
    {0xcfcce08e2eb42a4e, 0x1fe52048590672d9},
    {0x21e00c58dd309a70, 0x13ef342d37a407c8},
    {0x2a580f6f147cc10d, 0x18eb0138858d09ba},
    {0xb4ee134ad99bf150, 0x1f25c186a6f04c28},
    {0x7114cc0ec80176d2, 0x137798f428562f99},
    {0xcd59ff127a01d486, 0x18557f31326bbb7f},
    {0xc0b07ed7188249a8, 0x1e6adefd7f06aa5f},
    {0xd86e4f466f516e09, 0x1302cb5e6f642a7b},
    {0xce89e3180b25c98b, 0x17c37e360b3d351a},
    {0x822c5bde0def3bee, 0x1db45dc38e0c8261},
    {0xf15bb96ac8b58575, 0x1290ba9a38c7d17c},
    {0x2db2a7c57ae2e6d2, 0x1734e940c6f9c5dc},
    {0x391f51b6d99ba086, 0x1d022390f8b83753},
    {0x03b3931248014454, 0x1221563a9b732294},
    {0x04a077d6da019569, 0x16a9abc9424feb39},
    {0x45c895cc9081fac3, 0x1c5416bb92e3e607},
    {0x8b9d5d9fda513cba, 0x11b48e353bce6fc4},
    {0xae84b507d0e58be8, 0x1621b1c28ac20bb5},
    {0x1a25e249c51eeee3, 0x1baa1e332d728ea3},
    {0xf057ad6e1b33554d, 0x114a52dffc679925},
    {0x6c6d98c9a2002aa1, 0x159ce797fb817f6f},
    {0x4788fefc0a803549, 0x1b04217dfa61df4b},
    {0x0cb59f5d8690214e, 0x10e294eebc7d2b8f},
    {0xcfe30734e83429a1, 0x151b3a2a6b9c7672},
    {0x83dbc9022241340a, 0x1a6208b50683940f},
    {0xb2695da15568c086, 0x107d457124123c89},
    {0x1f03b509aac2f0a7, 0x149c96cd6d16cbac},
    {0x26c4a24c1573acd1, 0x19c3bc80c85c7e97},
    {0x783ae56f8d684c03, 0x101a55d07d39cf1e},
    {0x16499ecb70c25f03, 0x1420eb449c8842e6},
    {0x9bdc067e4cf2f6c4, 0x19292615c3aa539f},
    {0x82d3081de02fb476, 0x1f736f9b3494e887},
    {0xb1c3e512ac1dd0c9, 0x13a825c100dd1154},
    {0xde34de57572544fc, 0x18922f31411455a9},
    {0x55c215ed2cee963b, 0x1eb6bafd91596b14},
    {0xb5994db43c151de5, 0x133234de7ad7e2ec},
    {0xe2ffa1214b1a655e, 0x17fec216198ddba7},
    {0xdbbf89699de0feb6, 0x1dfe729b9ff15291},
    {0x2957b5e202ac9f31, 0x12bf07a143f6d39b},
    {0xf3ada35a8357c6fe, 0x176ec98994f48881},
    {0x70990c31242db8bd, 0x1d4a7bebfa31aaa2},
    {0x865fa79eb69c9376, 0x124e8d737c5f0aa5},
    {0xe7f791866443b854, 0x16e230d05b76cd4e},
    {0xa1f575e7fd54a669, 0x1c9abd04725480a2},
    {0xa53969b0fe54e801, 0x11e0b622c774d065},
    {0x0e87c41d3dea2202, 0x1658e3ab7952047f},
    {0xd229b5248d64aa82, 0x1bef1c9657a6859e},
    {0x435a1136d85eea91, 0x117571ddf6c81383},
    {0x143095848e76a536, 0x15d2ce55747a1864},
    {0x193cbae5b2144e83, 0x1b4781ead1989e7d},
    {0x2fc5f4cf8f4cb112, 0x110cb132c2ff630e},
    {0xbbb77203731fdd56, 0x154fdd7f73bf3bd1},
    {0x2aa54e844fe7d4ac, 0x1aa3d4df50af0ac6},
    {0xdaa75112b1f0e4eb, 0x10a6650b926d66bb},
    {0xd15125575e6d1e26, 0x14cffe4e7708c06a},
    {0x85a56ead360865b0, 0x1a03fde214caf085},
    {0x7387652c41c53f8e, 0x10427ead4cfed653},
    {0x50693e7752368f71, 0x14531e58a03e8be8},
    {0x64838e1526c4334e, 0x1967e5eec84e2ee2},
    {0xfda4719a70754022, 0x1fc1df6a7a61ba9a},
    {0xde86c70086494815, 0x13d92ba28c7d14a0},
    {0x162878c0a7db9a1a, 0x18cf768b2f9c59c9},
    {0x5bb296f0d1d280a1, 0x1f03542dfb83703b},
    {0x194f9e5683239064, 0x1362149cbd322625},
    {0x5fa385ec23ec747e, 0x183a99c3ec7eafae},
    {0xf78c67672ce7919d, 0x1e494034e79e5b99},
    {0x3ab7c0a07c10bb02, 0x12edc82110c2f940},
    {0x4965b0c89b14e9c3, 0x17a93a2954f3b790},
    {0x5bbf1cfac1da2433, 0x1d9388b3aa30a574},
    {0xb957721cb92856a0, 0x127c35704a5e6768},
    {0xe7ad4ea3e7726c48, 0x171b42cc5cf60142},
    {0xa198a24ce14f075a, 0x1ce2137f74338193},
    {0x44ff65700cd16498, 0x120d4c2fa8a030fc},
    {0x563f3ecc1005bdbe, 0x16909f3b92c83d3b},
    {0x2bcf0e7f14072d2e, 0x1c34c70a777a4c8a},
    {0x5b61690f6c847c3d, 0x11a0fc668aac6fd6},
    {0xf239c35347a59b4c, 0x16093b802d578bcb},
    {0xeec83428198f021f, 0x1b8b8a6038ad6ebe},
    {0x553d20990ff96153, 0x1137367c236c6537},
    {0x2a8c68bf53f7b9a8, 0x1585041b2c477e85},
    {0x752f82ef28f5a812, 0x1ae64521f7595e26},
    {0x093db1d57999890b, 0x10cfeb353a97dad8},
    {0x0b8d1e4ad7ffeb4e, 0x1503e602893dd18e},
    {0x8e7065dd8dffe622, 0x1a44df832b8d45f1},
    {0xf9063faa78bfefd5, 0x106b0bb1fb384bb6},
    {0xb747cf9516efebca, 0x1485ce9e7a065ea4},
    {0xe519c37a5cabe6bd, 0x19a742461887f64d},
    {0xaf301a2c79eb7036, 0x1008896bcf54f9f0},
    {0xdafc20b798664c43, 0x140aabc6c32a386c},
    {0x11bb28e57e7fdf54, 0x190d56b873f4c688},
    {0x1629f31ede1fd72a, 0x1f50ac6690f1f82a},
    {0x4dda37f34ad3e67a, 0x13926bc01a973b1a},
    {0xe150c5f01d88e019, 0x187706b0213d09e0},
    {0x19a4f76c24eb181f, 0x1e94c85c298c4c59},
    {0xb0071aa39712ef13, 0x131cfd3999f7afb7},
    {0x9c08e14c7cd7aad8, 0x17e43c8800759ba5},
    {0x030b199f9c0d958e, 0x1ddd4baa0093028f},
    {0x61e6f003c1887d79, 0x12aa4f4a405be199},
    {0xba60ac04b1ea9cd7, 0x1754e31cd072d9ff},
    {0xa8f8d705de65440d, 0x1d2a1be4048f907f},
    {0xc99b8663aaff4a88, 0x123a516e82d9ba4f},
    {0xbc0267fc95bf1d2a, 0x16c8e5ca239028e3},
    {0xab0301fbbb2ee474, 0x1c7b1f3cac74331c},
    {0xeae1e13d54fd4ec9, 0x11ccf385ebc89ff1},
    {0x659a598caa3ca27b, 0x1640306766bac7ee},
    {0xff00efefd4cbcb1a, 0x1bd03c81406979e9},
    {0x3f6095f5e4ff5ef0, 0x116225d0c841ec32},
    {0xcf38bb735e3f36ac, 0x15baaf44fa52673e},
    {0x8306ea5035cf0457, 0x1b295b1638e7010e},
    {0x11e4527221a162b6, 0x10f9d8ede39060a9},
    {0x565d670eaa09bb64, 0x15384f295c7478d3},
    {0x2bf4c0d2548c2a3d, 0x1a8662f3b3919708},
    {0x1b78f88374d79a66, 0x1093fdd8503afe65},
    {0x625736a4520d8100, 0x14b8fd4e6449bdfe},
    {0xfaed044d6690e140, 0x19e73ca1fd5c2d7d},
    {0xbcd422b0601a8cc8, 0x103085e53e599c6e},
    {0x6c092b5c78212ffa, 0x143ca75e8df0038a},
    {0x070b763396297bf8, 0x194bd136316c046d},
    {0x48ce53c07bb3daf6, 0x1f9ec583bdc70588},
    {0x2d80f4584d5068da, 0x13c33b72569c6375},
    {0x78e1316e60a48310, 0x18b40a4eec437c52},
};
/* END POW5 TABLES */

/* floor(log10(2^e)) for 0 <= e <= 1650 */
static inline int
log10_pow2(int e)
{
    return (int)(((uint32_t)e * 78913) >> 18);
}

/* floor(log10(5^e)) for 0 <= e <= 2620 */
static inline int
log10_pow5(int e)
{
    return (int)(((uint32_t)e * 732923) >> 20);
}

/* ceil(log2(5^e)), and 1 for e = 0, for 0 <= e <= 3528 */
static inline int
pow5_bits(int e)
{
    return (int)((((uint32_t)e * 1217359) >> 19) + 1);
}

/* Whether 5^p divides v > 0. */
static inline int
multiple_of_pow5(uint64_t v, int p)
{
    for (; p > 0 && v % 5 == 0; p--)
        v /= 5;
    return p <= 0;
}

/* (m mul) >> j for the 125-bit table entry mul, m below 2^55 and
   j >= 64. */
static inline uint64_t
mul_shift(uint64_t m, const uint64_t *mul, int j)
{
    const unsigned __int128 lo = (unsigned __int128)m * mul[0],
                            hi = (unsigned __int128)m * mul[1];
    return (uint64_t)(((lo >> 64) + hi) >> (j - 64));
}

/* The digits d and exponent *e10 of the shortest decimal d 10^e10 that
   reads back as the finite, nonzero double of the given biased exponent
   and fraction bits, and of two such the nearer, ties to even: Ryū's
   d2d.  With x = m 2^e, the decimals that read back as x lie between
   the midpoints to the doubles either side, (4m -+ 2) 2^(e-2), the lower
   one half as far at a power of two above the smallest normal; the ends
   are included when m is even, as strtod rounds half to even.  The three
   are scaled by 10^-e10 through the tables, and digits are dropped while
   the ends still differ above the last, noting whether each dropped
   digit was 0 where that can decide a tie or an end. */
static uint64_t
shortest(uint64_t fraction, int biased, int *e10)
{
    const int e2 = (biased ? biased : 1) - 1023 - 52 - 2;
    const uint64_t m2 = biased ? fraction | 1ULL << 52 : fraction,
                   mv = 4 * m2;
    const int even = (m2 & 1) == 0,
              mm_shift = fraction != 0 || biased <= 1;
    uint64_t vr, vp, vm;
    int vm_zeros = 0, vr_zeros = 0;
    if (e2 >= 0) {
        const int q = log10_pow2(e2) - (e2 > 3),
                  j = q - e2 + POW5_BITS + pow5_bits(q) - 1;
        *e10 = q;
        vr = mul_shift(mv, POW5_INV[q], j);
        vp = mul_shift(mv + 2, POW5_INV[q], j);
        vm = mul_shift(mv - 1 - mm_shift, POW5_INV[q], j);
        if (q <= 21) {     /* at most one of mv, mp and mm divides by 5 */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (even)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    }
    else {
        const int q = log10_pow5(-e2) - (-e2 > 1), i = -e2 - q,
                  j = q - (pow5_bits(i) - POW5_BITS);
        *e10 = q + e2;
        vr = mul_shift(mv, POW5[i], j);
        vp = mul_shift(mv + 2, POW5[i], j);
        vm = mul_shift(mv - 1 - mm_shift, POW5[i], j);
        if (q <= 1) {
            vr_zeros = 1;
            if (even)
                vm_zeros = mm_shift;
            else
                vp--;
        }
        else if (q < 63)
            vr_zeros = (mv & ((1ULL << q) - 1)) == 0;
    }
    if (!vm_zeros && !vr_zeros) {
        /* no end to include and no tie to break, as is almost always
           so: vr rounded at the last digit dropped, two at a time */
        int up = 0;
        if (vp / 100 > vm / 100) {
            up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            *e10 += 2;
        }
        for (; vp / 10 > vm / 10; ++*e10) {
            up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
        return vr + (vr == vm || up);
    }
    int last = 0;      /* the last digit dropped from vr */
    for (; vp / 10 > vm / 10; ++*e10) {
        vm_zeros &= vm % 10 == 0;
        vr_zeros &= last == 0;
        last = (int)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
    }
    if (vm_zeros)
        for (; vm % 10 == 0; ++*e10) {
            vr_zeros &= last == 0;
            last = (int)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
    if (vr_zeros && last == 5 && vr % 2 == 0)
        last = 4;      /* exactly halfway: keep the even one */
    return vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
}

static const char DIGIT_PAIRS[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

static const uint64_t POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL,
    10000000ULL, 100000000ULL, 1000000000ULL, 10000000000ULL,
    100000000000ULL, 1000000000000ULL, 10000000000000ULL,
    100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL,
    10000000000000000000ULL};

/* The number of decimal digits of v (1 for 0). */
static inline int
decimal_length(uint64_t v)
{
    int n = 20;
    while (n > 1 && v < POW10[n - 1])
        n--;
    return n;
}

static inline void
write_4(uint32_t v, char *out)
{
    memcpy(out, DIGIT_PAIRS + 2 * (v / 100), 2);
    memcpy(out + 2, DIGIT_PAIRS + 2 * (v % 100), 2);
}

/* The decimal digits of v, two at a time, ending at end.  They go
   straight to their place: copied there from a buffer on the stack,
   each load waited on the bytes just stored, which doubled the cost of
   a value (gcc 12 -O2, x86-64). */
static void
write_digits(uint64_t v, char *end)
{
    for (; v >= 100000000; v /= 100000000) {  /* 8 digits in 32 bits */
        const uint32_t low = (uint32_t)(v % 100000000);
        end -= 8;
        write_4(low / 10000, end);
        write_4(low % 10000, end + 4);
    }
    uint32_t w = (uint32_t)v;
    if (w >= 10000) {
        end -= 4;
        write_4(w % 10000, end);
        w /= 10000;
    }
    if (w >= 100) {
        end -= 2;
        memcpy(end, DIGIT_PAIRS + 2 * (w % 100), 2);
        w /= 100;
    }
    if (w >= 10)
        memcpy(end - 2, DIGIT_PAIRS + 2 * w, 2);
    else
        end[-1] = (char)('0' + w);
}

/* repr(v) into out, at most 24 characters; returns its end.  A finite,
   nonzero v has the digits of shortest, laid out as repr does: in fixed
   notation with at least one digit after the point while the decimal
   exponent is from -4 to 15, else as d.ddde+XX or d.ddde-XX, with at
   least two exponent digits. */
static char *
write_float(double v, char *out)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    const uint64_t fraction = bits & ((1ULL << 52) - 1);
    const int biased = (int)(bits >> 52 & 0x7ff);
    if (biased == 0x7ff && fraction) {
        memcpy(out, "nan", 3);
        return out + 3;
    }
    if (bits >> 63)
        *out++ = '-';
    if (biased == 0x7ff) {
        memcpy(out, "inf", 3);
        return out + 3;
    }
    if (biased == 0 && fraction == 0) {
        memcpy(out, "0.0", 3);
        return out + 3;
    }
    int e10;
    const uint64_t d = shortest(fraction, biased, &e10);
    const int n = decimal_length(d), exp = e10 + n - 1;  /* d.dd 10^exp */
    if (exp < -4 || exp > 15) {
        write_digits(d, out + n + 1);   /* then the first moves left */
        out[0] = out[1];
        if (n > 1) {
            out[1] = '.';
            out += n;
        }
        out++;
        *out++ = 'e';
        *out++ = exp < 0 ? '-' : '+';
        const int a = abs(exp);
        if (a >= 100)
            *out++ = (char)('0' + a / 100);
        memcpy(out, DIGIT_PAIRS + 2 * (a % 100), 2);
        return out + 2;
    }
    if (exp < 0) {                  /* 0.000ddd */
        out[0] = '0';
        out[1] = '.';
        for (int i = 2; i < 1 - exp; i++)
            out[i] = '0';
        write_digits(d, out + 1 - exp + n);
        return out + 1 - exp + n;
    }
    if (n <= exp + 1) {             /* ddd000.0 */
        write_digits(d, out + n);
        for (int i = n; i <= exp; i++)
            out[i] = '0';
        memcpy(out + exp + 1, ".0", 2);
        return out + exp + 3;
    }
    write_digits(d, out + n + 1);   /* ddd.ddd: the integer digits */
    for (int i = 0; i <= exp; i++)  /* move left */
        out[i] = out[i + 1];
    out[exp + 1] = '.';
    return out + n + 1;
}

/* The lines of log.csv for the n rows of n_cols values from x into out,
   which has room for n * (n_cols * 25 + 1) characters; returns their
   end.  A line's values are joined by commas, each float as repr writes
   it (write_float) and each of the last n_flags columns, the saturation
   flags, as 0 for 0.0 and -0.0 and as 1 otherwise. */
static char *
csv_lines(const double *x, Py_ssize_t n, Py_ssize_t n_cols,
          Py_ssize_t n_flags, char *out)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        for (Py_ssize_t j = 0; j < n_cols; j++) {
            const double v = x[i * n_cols + j];
            if (j)
                *out++ = ',';
            if (j < n_cols - n_flags)
                out = write_float(v, out);
            else
                *out++ = v == 0.0 ? '0' : '1';
        }
        *out++ = '\n';
    }
    return out;
}

/* The n bytes at p to fd, however many calls write takes; 0, or the
   errno of the call that failed.  An interrupted call is repeated. */
static int
write_all(int fd, const char *p, size_t n)
{
    while (n) {
        const ssize_t done = write(fd, p, n);
        if (done < 0) {
            if (errno == EINTR)
                continue;
            return errno;
        }
        p += done;
        n -= (size_t)done;
    }
    return 0;
}

#define CSV_CHUNK_ROWS 64  /* the rows write_csv formats between writes */

/* One write_csv call: its rows, and the chunk whose turn it is to be
   written, or the errno of the write that failed. */
struct csv_job {
    const double *x;
    Py_ssize_t n_rows, n_cols, n_flags;
    int fd;
    pthread_mutex_t lock;
    pthread_cond_t turn_done;
    Py_ssize_t turn;
    int error;
};

/* A formatting thread's share of a csv_job: the chunks first,
   first + stride, ..., each formatted into buf and written in its
   turn. */
struct csv_share {
    struct csv_job *job;
    Py_ssize_t first, stride;
    char *buf;
};

/* Format and write a csv_share's chunks.  A thread formats its next
   chunk while the other writes, and waits for its turn only to write;
   after a failed write no chunk is written. */
static void *
csv_chunks(void *arg)
{
    const struct csv_share *share = arg;
    struct csv_job *job = share->job;
    for (Py_ssize_t c = share->first; c * CSV_CHUNK_ROWS < job->n_rows;
         c += share->stride) {
        const Py_ssize_t row = c * CSV_CHUNK_ROWS;
        const Py_ssize_t n = job->n_rows - row < CSV_CHUNK_ROWS
                             ? job->n_rows - row : CSV_CHUNK_ROWS;
        const char *end = csv_lines(job->x + row * job->n_cols, n,
                                    job->n_cols, job->n_flags, share->buf);
        pthread_mutex_lock(&job->lock);
        while (job->turn != c && !job->error)
            pthread_cond_wait(&job->turn_done, &job->lock);
        int error = job->error;
        pthread_mutex_unlock(&job->lock);
        if (error)
            break;
        error = write_all(job->fd, share->buf, (size_t)(end - share->buf));
        pthread_mutex_lock(&job->lock);
        job->turn++;
        if (error)
            job->error = error;
        pthread_cond_broadcast(&job->turn_done);
        pthread_mutex_unlock(&job->lock);
        if (error)
            break;
    }
    return NULL;
}

/* write_csv(fd, rows, n_flags) writes the lines of log.csv for rows, a
   2-D C-contiguous float64 array (csv_lines), to the file descriptor
   fd, CSV_CHUNK_ROWS rows a write, in order.  Without the GIL, two
   threads format alternate chunks, each into its own buffer, so the
   memory it takes does not grow with the rows; a failed write raises
   OSError with its errno, and no later chunk is written. */
static PyObject *
write_csv(PyObject *Py_UNUSED(module), PyObject *const *args,
          Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "write_csv: expected 3 arguments");
        return NULL;
    }
    const int fd = PyObject_AsFileDescriptor(args[0]);
    if (fd < 0)
        return NULL;
    const Py_ssize_t n_flags = PyLong_AsSsize_t(args[2]);
    if (n_flags == -1 && PyErr_Occurred())
        return NULL;
    Py_buffer view;
    if (PyObject_GetBuffer(args[1], &view, PyBUF_RECORDS_RO) < 0) {
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
    struct csv_job job = {
        .x = view.buf, .n_rows = view.shape[0], .n_cols = view.shape[1],
        .n_flags = n_flags, .fd = fd};
    /* a repr of a double has at most 24 characters */
    const size_t chunk = CSV_CHUNK_ROWS * (size_t)(job.n_cols * 25 + 1);
    char *buf = PyMem_RawMalloc(2 * chunk);
    if (buf == NULL) {
        PyBuffer_Release(&view);
        return PyErr_NoMemory();
    }
    pthread_mutex_init(&job.lock, NULL);
    pthread_cond_init(&job.turn_done, NULL);
    struct csv_share mine = {&job, 0, 2, buf};
    struct csv_share other = {&job, 1, 2, buf + chunk};
    pthread_t helper;
    Py_BEGIN_ALLOW_THREADS
    /* one chunk, or no second thread: this thread writes every chunk */
    const int threaded =
        job.n_rows > CSV_CHUNK_ROWS
        && pthread_create(&helper, NULL, csv_chunks, &other) == 0;
    if (!threaded)
        mine.stride = 1;
    csv_chunks(&mine);
    if (threaded)
        pthread_join(helper, NULL);
    Py_END_ALLOW_THREADS
    pthread_cond_destroy(&job.turn_done);
    pthread_mutex_destroy(&job.lock);
    PyMem_RawFree(buf);
    PyBuffer_Release(&view);
    if (job.error) {
        errno = job.error;
        return PyErr_SetFromErrno(PyExc_OSError);
    }
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"step", (PyCFunction)(void (*)(void))step, METH_FASTCALL,
     "step(constants, s, w_cmd, wrenches, dt) -> the state after "
     "len(wrenches) RK4 steps, as a list"},
    {"tick", (PyCFunction)(void (*)(void))tick, METH_FASTCALL,
     "tick(constants, state, target_pos, target_rpy, pos, vel, q, gyro[, "
     "accel, rotor_w_meas]) -> one GeoNdiController tick, or with accel "
     "and rotor_w_meas one IndiController tick: ((u, w_cmd, saturated), "
     "(p_d, v_d, a_d, q_d, omega_d, omega_dot_d))"},
    {"ticks", (PyCFunction)(void (*)(void))ticks, METH_FASTCALL,
     "ticks(truth, control, state, run, script, n_sub, pose_every, "
     "n_steps, x0, entropy) -> the log of the closed loop from the truth "
     "state x0, a row a tick, its normals those of default_rng(seed) whose "
     "32-bit words entropy holds"},
    {"write_csv", (PyCFunction)(void (*)(void))write_csv, METH_FASTCALL,
     "write_csv(fd, rows, n_flags) writes the log.csv lines of rows to the "
     "file descriptor fd, floats as repr writes them and the last n_flags "
     "columns as 0 or 1"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef truth = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_truth",
    .m_doc = "The compiled RK4 truth step, controller ticks, closed loop "
             "and log.csv writer.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__truth(void)
{
    import_array();
    return PyModule_Create(&truth);
}
