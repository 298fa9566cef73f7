/* The RK4 truth step of hexsim.dynamics, compiled.

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
   the same order, and dynamics.py builds this file with
   -ffp-contract=off and without -ffast-math, so each one rounds as a
   CPython float does: the two agree bit for bit.  After every step q is
   normalised and the state checked; a diverging step raises the
   module's NonFiniteState (dynamics sets it on load) with its offset in
   the call and the state it started from. */

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

static PyObject *
state_list(const double *x)
{
    PyObject *list = PyList_New(STATE_SIZE);
    for (Py_ssize_t i = 0; list != NULL && i < STATE_SIZE; i++) {
        PyObject *value = PyFloat_FromDouble(x[i]);
        if (value == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, value);
    }
    return list;
}

/* Set module.NonFiniteState(state=list(x), offset=offset) as the
   exception. */
static void
diverged(PyObject *module, const double *x, Py_ssize_t offset)
{
    PyObject *cls = PyObject_GetAttrString(module, "NonFiniteState");
    PyObject *args = PyTuple_New(0);
    PyObject *kwargs = Py_BuildValue("{s:N,s:n}", "state", state_list(x),
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
    return state_list(x);
}

static PyMethodDef methods[] = {
    {"step", (PyCFunction)(void (*)(void))step, METH_FASTCALL,
     "step(constants, s, w_cmd, wrenches, dt) -> the state after "
     "len(wrenches) RK4 steps, as a list"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef truth = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_truth",
    .m_doc = "The compiled RK4 truth step.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__truth(void)
{
    return PyModule_Create(&truth);
}
