"""Hot numerical kernels: right-hand sides and time-stepping loops.

Every function here is written as a plain scalar loop so that it compiles
under numba's nopython mode.  When numba is unavailable, or when the
environment variable ``DUFFING_AA_NUMBA`` is set to ``0``/``false``/``off``,
the same source runs uncompiled on top of numpy -- slower but bit-for-bit
the same arithmetic.  The benchmark reports the backend that ran and, with
``--trace 1``, the kernel's time per accepted step; time the numpy path with
``DUFFING_AA_NUMBA=0 python3 perfbench/run.py --workload grid --trace 1``.

Kernels return raw arrays plus an integer status; the ``integrate`` module
wraps them in typed trajectories and exceptions.
"""

import math
import os

import numpy as np

STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_MAX_STEPS = 2
STATUS_NONFINITE = 3

FIELD_ORIGINAL = 0
FIELD_COVERED = 1

MIN_STEP = 1e-14


def _numba_requested() -> bool:
    flag = os.environ.get("DUFFING_AA_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


USING_NUMBA = False
if _numba_requested():
    try:
        from numba import njit

        USING_NUMBA = True
    except ImportError:
        USING_NUMBA = False

if not USING_NUMBA:

    def njit(*args, **kwargs):
        # identity decorator: the pure-numpy fallback path
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


@njit(cache=True)
def rhs(field, u, v, mu):
    """Vector field in the plane selected by ``field``.

    FIELD_ORIGINAL: (x, y)   -> (y, x - x^3 - mu*y)
    FIELD_COVERED:  (x1, y1) -> closed form of the pushed-forward flow,
                    with R = sqrt(x1^2 + y1^2) and the dissipative terms
                    mu*(R - x1) and -mu*y1.
    """
    if field == FIELD_ORIGINAL:
        return v, u - u * u * u - mu * v
    r = math.sqrt(u * u + v * v)
    du = 0.5 * (u + r) * v + mu * (r - u)
    dv = -u * u - 0.5 * v * v + r * (2.0 - u) - mu * v
    return du, dv


@njit(cache=True)
def _grow(arr, cap):
    out = np.empty(cap, dtype=np.float64)
    out[: arr.shape[0]] = arr
    return out


@njit(cache=True)
def adaptive_path(
    field, u0, v0, mu, t0, t_end, rel_tol, abs_tol, h0, max_steps, max_samples
):
    """Dormand-Prince 5(4) loop with FSAL, recording every accepted step.

    Integrates from (t0, u0, v0) towards t_end with first step h0 and at
    most max_steps attempted steps, and pauses once it holds max_samples
    samples (the start included).  Returns
    (t, u, v, du, dv, status, h, steps): du/dv are the field values at the
    accepted nodes (used downstream for cubic Hermite dense output), h the
    proposed next step and steps the attempted steps used.  A pause
    returns STATUS_OK with t[-1] < t_end; calling again from the last
    sample with that h, the remaining step budget and the same t_end
    continues the very same step sequence, bit for bit, because the FSAL
    stage is recomputed from the same state.  So callers that only need
    the path up to some event can stop at the first pause after it and
    hold a prefix of the full-horizon path.  A step whose error norm is
    NaN stops the loop with STATUS_NONFINITE.
    """
    # Butcher tableau, 7 stages, 5th order propagated
    a21 = 1.0 / 5.0
    a31 = 3.0 / 40.0
    a32 = 9.0 / 40.0
    a41 = 44.0 / 45.0
    a42 = -56.0 / 15.0
    a43 = 32.0 / 9.0
    a51 = 19372.0 / 6561.0
    a52 = -25360.0 / 2187.0
    a53 = 64448.0 / 6561.0
    a54 = -212.0 / 729.0
    a61 = 9017.0 / 3168.0
    a62 = -355.0 / 33.0
    a63 = 46732.0 / 5247.0
    a64 = 49.0 / 176.0
    a65 = -5103.0 / 18656.0
    b1 = 35.0 / 384.0
    b3 = 500.0 / 1113.0
    b4 = 125.0 / 192.0
    b5 = -2187.0 / 6784.0
    b6 = 11.0 / 84.0
    e1 = 71.0 / 57600.0
    e3 = -71.0 / 16695.0
    e4 = 71.0 / 1920.0
    e5 = -17253.0 / 339200.0
    e6 = 22.0 / 525.0
    e7 = -1.0 / 40.0

    cap = min(4096, max_samples)
    ts = np.empty(cap, dtype=np.float64)
    us = np.empty(cap, dtype=np.float64)
    vs = np.empty(cap, dtype=np.float64)
    dus = np.empty(cap, dtype=np.float64)
    dvs = np.empty(cap, dtype=np.float64)

    t = t0
    u = u0
    v = v0
    k1u, k1v = rhs(field, u, v, mu)
    ts[0] = t
    us[0] = u
    vs[0] = v
    dus[0] = k1u
    dvs[0] = k1v
    n = 1

    h = h0
    if h > t_end:
        h = t_end
    status = STATUS_OK
    steps = 0

    while t < t_end:
        if steps >= max_steps:
            status = STATUS_MAX_STEPS
            break
        if h < MIN_STEP:
            status = STATUS_STEP_UNDERFLOW
            break
        if n == max_samples:
            break  # pause: the caller may resume from the last sample
        last = False
        if t + h >= t_end:
            h = t_end - t
            last = True

        k2u, k2v = rhs(field, u + h * a21 * k1u, v + h * a21 * k1v, mu)
        k3u, k3v = rhs(
            field, u + h * (a31 * k1u + a32 * k2u), v + h * (a31 * k1v + a32 * k2v), mu
        )
        k4u, k4v = rhs(
            field,
            u + h * (a41 * k1u + a42 * k2u + a43 * k3u),
            v + h * (a41 * k1v + a42 * k2v + a43 * k3v),
            mu,
        )
        k5u, k5v = rhs(
            field,
            u + h * (a51 * k1u + a52 * k2u + a53 * k3u + a54 * k4u),
            v + h * (a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v),
            mu,
        )
        k6u, k6v = rhs(
            field,
            u + h * (a61 * k1u + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u),
            v + h * (a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v),
            mu,
        )
        un = u + h * (b1 * k1u + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
        vn = v + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
        k7u, k7v = rhs(field, un, vn, mu)

        eu = h * (e1 * k1u + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * k7u)
        ev = h * (e1 * k1v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
        su = abs_tol + rel_tol * max(abs(u), abs(un))
        sv = abs_tol + rel_tol * max(abs(v), abs(vn))
        # squared via * so absurd tolerances overflow to inf on every backend
        ru = eu / su
        rv = ev / sv
        err = math.sqrt(0.5 * (ru * ru + rv * rv))

        steps += 1
        if err <= 1.0:
            t = t_end if last else t + h
            u = un
            v = vn
            k1u = k7u  # FSAL: last stage is the next step's first
            k1v = k7v
            if n == cap:
                cap *= 2
                ts = _grow(ts, cap)
                us = _grow(us, cap)
                vs = _grow(vs, cap)
                dus = _grow(dus, cap)
                dvs = _grow(dvs, cap)
            ts[n] = t
            us[n] = u
            vs[n] = v
            dus[n] = k1u
            dvs[n] = k1v
            n += 1
            if err == 0.0:
                fac = 5.0
            else:
                fac = 0.9 * err ** -0.2
                if fac > 5.0:
                    fac = 5.0
                elif fac < 0.2:
                    fac = 0.2
            h = h * fac
        else:
            # a NaN error norm (overflowed stages) would shrink h to NaN and
            # spin through the whole step budget; inf still shrinks h
            if math.isnan(err):
                status = STATUS_NONFINITE
                break
            fac = 0.9 * err ** -0.2
            if fac < 0.2:
                fac = 0.2
            elif fac > 1.0:
                fac = 1.0
            h = h * fac

    return ts[:n], us[:n], vs[:n], dus[:n], dvs[:n], status, h, steps


@njit(cache=True)
def rk4_path(field, u0, v0, mu, t_end, h, max_steps):
    """Classic fixed-step fourth-order loop; the transparent baseline.

    A state that overflows stops the loop with STATUS_NONFINITE, returning
    the samples up to the last finite one.
    """
    nsteps = int(math.ceil(t_end / h - 1e-12))
    if nsteps < 1:
        nsteps = 1
    if nsteps > max_steps:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty, empty, empty, empty, STATUS_MAX_STEPS

    ts = np.empty(nsteps + 1, dtype=np.float64)
    us = np.empty(nsteps + 1, dtype=np.float64)
    vs = np.empty(nsteps + 1, dtype=np.float64)
    dus = np.empty(nsteps + 1, dtype=np.float64)
    dvs = np.empty(nsteps + 1, dtype=np.float64)

    t = 0.0
    u = u0
    v = v0
    k1u, k1v = rhs(field, u, v, mu)
    ts[0] = t
    us[0] = u
    vs[0] = v
    dus[0] = k1u
    dvs[0] = k1v

    for i in range(nsteps):
        hi = h
        if i == nsteps - 1:
            hi = t_end - t
        k2u, k2v = rhs(field, u + 0.5 * hi * k1u, v + 0.5 * hi * k1v, mu)
        k3u, k3v = rhs(field, u + 0.5 * hi * k2u, v + 0.5 * hi * k2v, mu)
        k4u, k4v = rhs(field, u + hi * k3u, v + hi * k3v, mu)
        u = u + hi / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + hi / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (math.isfinite(u) and math.isfinite(v)):
            n = i + 1
            return ts[:n], us[:n], vs[:n], dus[:n], dvs[:n], STATUS_NONFINITE
        t = t_end if i == nsteps - 1 else t + hi
        k1u, k1v = rhs(field, u, v, mu)
        ts[i + 1] = t
        us[i + 1] = u
        vs[i + 1] = v
        dus[i + 1] = k1u
        dvs[i + 1] = k1v

    return ts, us, vs, dus, dvs, STATUS_OK
