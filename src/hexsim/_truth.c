/* The compiled hot path of hexsim: the RK4 truth step of
   hexsim.dynamics and the controller ticks of hexsim.control.

   step(constants, s, w_cmd, wrenches, dt) runs len(wrenches) classical
   RK4 steps from the state s (19 numbers) under the rotor command w_cmd
   (6 numbers), each with its wrench (fx, fy, fz, mx, my, mz: world
   force, body moment) held, and returns the new state as a list of 19
   floats.  constants are the 45 floats dynamics.make_step binds: F1 / m
   and F2 over (J_x, J_y, J_z) row by row, m, J_x, J_y, J_z, the
   gyroscopic coefficients (J_y - J_z) / J_x, ..., g and 1 / tau.

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

   dynamics.py builds this file with -ffp-contract=off and without
   -ffast-math, so each operation rounds as a CPython float does: the
   compiled and the Python forms agree bit for bit. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define N_CONSTANTS 45
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

static PyObject *
step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double k[N_CONSTANTS], x[STATE_SIZE], cmd[6], wrench[6];
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "step(constants, s, w_cmd, wrenches, dt)");
        return NULL;
    }
    const double dt = PyFloat_AsDouble(args[4]);
    if ((dt == -1.0 && PyErr_Occurred())
        || read_numbers(args[0], k, N_CONSTANTS, "constants") < 0
        || read_numbers(args[1], x, STATE_SIZE, "state") < 0
        || read_numbers(args[2], cmd, 6, "w_cmd") < 0)
        return NULL;
    PyObject *wrenches = PySequence_Fast(args[3], "wrenches");
    if (wrenches == NULL)
        return NULL;
    const double m = k[36], jx = k[37], jy = k[38], jz = k[39];
    const double g = k[43], lam = k[44];
    const double h = 0.5 * dt, c = dt / 6.0, cp = dt * dt / 6.0;
    /* the dq are twice q_dot: the 0.5 rides on the step sizes */
    const double qh = 0.5 * h, qdt = 0.5 * dt, qc = 0.5 * c;
    /* the motor lag is linear: stage s's rotor speeds are c + ks (w - c) */
    const double kb = 1.0 - h * lam;
    const double kc = 1.0 - h * lam * kb;
    const double kd = 1.0 - dt * lam * kc;
    const double kn = 1.0 - c * lam * (1.0 + 2.0 * kb + 2.0 * kc + kd);
    Py_ssize_t n = PySequence_Fast_GET_SIZE(wrenches);
    PyObject **items = PySequence_Fast_ITEMS(wrenches);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (read_numbers(items[i], wrench, 6, "wrench") < 0) {
            Py_DECREF(wrenches);
            return NULL;
        }
        const double s[3] = {wrench[0] / m, wrench[1] / m,
                             wrench[2] / m - g};
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
        if (!(norm > 0.0 && isfinite(sum))) {
            Py_DECREF(wrenches);
            diverged(module, x, i);
            return NULL;
        }
        for (int j = 0; j < STATE_SIZE; j++)
            x[j] = 6 <= j && j < 10 ? out[j] / norm : out[j];
    }
    Py_DECREF(wrenches);
    return floats(x, STATE_SIZE, 1);
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

/* The shaped reference of a tick, as control.PoseReference holds it. */
struct reference {
    double p[3], v[3], a[3], q[4], omega[3], omega_dot[3];
};

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

/* vehicle.saturate of u, and the reference: the tick's result
   ((u, w_cmd, saturated), (p_d, v_d, a_d, q_d, omega_d, omega_dot_d)),
   the fields of vehicle.ActuatorCommand and control.PoseReference.  A
   NaN passes through, unflagged. */
static PyObject *
tick_result(const double *k, const double *u, const struct reference *ref)
{
    const double lo = k[C_LIMITS], hi = k[C_LIMITS + 1];
    double c[6], w[6];
    PyObject *saturated = PyTuple_New(6);
    if (saturated == NULL)
        return NULL;
    for (int j = 0; j < 6; j++) {
        c[j] = u[j] < lo ? lo : u[j] > hi ? hi : u[j];
        w[j] = sqrt(c[j]);
        PyTuple_SET_ITEM(saturated, j,
                         PyBool_FromLong(u[j] < lo || u[j] > hi));
    }
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
    double target_pos[3], target_rpy[3], pos[3], vel[3], q[4], gyro[3];
    double accel[3], w_meas[6];
};

static void
release_tick_args(struct tick_args *in)
{
    PyBuffer_Release(&in->state);
    PyBuffer_Release(&in->constants);
}

static int
read_tick_args(PyObject *const *args, Py_ssize_t nargs, int indi,
               struct tick_args *in)
{
    if (nargs != (indi ? 10 : 8)) {
        PyErr_SetString(PyExc_TypeError, indi
            ? "indi_tick(constants, state, target_pos, target_rpy, pos, "
              "vel, q, gyro, accel, rotor_w_meas)"
            : "geo_tick(constants, state, target_pos, target_rpy, pos, "
              "vel, q, gyro)");
        return -1;
    }
    if (get_doubles(args[0], &in->constants, indi ? N_INDI : N_GEO,
                    PyBUF_SIMPLE, "constants") < 0)
        return -1;
    if (get_doubles(args[1], &in->state, indi ? N_INDI_STATE : N_GEO_STATE,
                    PyBUF_WRITABLE, "state") < 0) {
        PyBuffer_Release(&in->constants);
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
        release_tick_args(in);
        return -1;
    }
    return 0;
}

static PyObject *
geo_tick(PyObject *Py_UNUSED(module), PyObject *const *args,
         Py_ssize_t nargs)
{
    struct tick_args in;
    if (read_tick_args(args, nargs, 0, &in) < 0)
        return NULL;
    const double *k = in.constants.buf;
    struct reference ref;
    double rot[9], v_p[3], v_att[3], wrench[6], u[6];
    shape_reference(k, in.state.buf, in.target_pos, in.target_rpy, &ref);
    rotmat(in.q, rot);
    outer_loop(k + C_GAINS, &ref, in.pos, in.vel, in.q, in.gyro, rot, v_p,
               v_att);
    /* control.ndi_invert: the wrench cancelling gravity and the
       gyroscopic term plus the inertia-scaled pseudo control */
    const double m = k[C_MODEL], jx = k[C_MODEL + 1], jy = k[C_MODEL + 2],
                 jz = k[C_MODEL + 3], g = k[C_MODEL + 4];
    const double ox = in.gyro[0], oy = in.gyro[1], oz = in.gyro[2];
    const double hx = jx * ox, hy = jy * oy, hz = jz * oz;
    wrench[0] = m * v_p[0];
    wrench[1] = m * v_p[1];
    wrench[2] = m * v_p[2] + m * g;
    wrench[3] = jx * v_att[0] + (oy * hz - oz * hy);
    wrench[4] = jy * v_att[1] + (oz * hx - ox * hz);
    wrench[5] = jz * v_att[2] + (ox * hy - oy * hx);
    solve_wrench(k, rot, wrench, u);
    PyObject *result = tick_result(k, u, &ref);
    release_tick_args(&in);
    return result;
}

static PyObject *
indi_tick(PyObject *Py_UNUSED(module), PyObject *const *args,
          Py_ssize_t nargs)
{
    struct tick_args in;
    if (read_tick_args(args, nargs, 1, &in) < 0)
        return NULL;
    const double *k = in.constants.buf;
    double *s = in.state.buf;
    struct reference ref;
    shape_reference(k, s, in.target_pos, in.target_rpy, &ref);
    /* filters.SecondOrderFilter.step over the channels specific force
       (3), gyro (3) and squared rotor speeds (6) */
    const double *f = k + C_FILTER;
    const double b0 = f[0], b1 = f[1], b2 = f[2], a1 = f[3], a2 = f[4];
    double x[12], y[12];
    for (int j = 0; j < 3; j++) {
        x[j] = in.accel[j];
        x[3 + j] = in.gyro[j];
    }
    for (int j = 0; j < 6; j++)
        x[6 + j] = in.w_meas[j] * fabs(in.w_meas[j]);
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
    double rot[9], v_p[3], v_att[3], wrench[6], u[6];
    rotmat(in.q, rot);
    outer_loop(k + C_GAINS, &ref, in.pos, in.vel, in.q, gyro_f, rot, v_p,
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
    PyObject *result = tick_result(k, u, &ref);
    release_tick_args(&in);
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
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef truth = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_truth",
    .m_doc = "The compiled RK4 truth step and controller ticks.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__truth(void)
{
    return PyModule_Create(&truth);
}
