"""Hot numerical kernels: the field and the time-stepping loops.

``adaptive_path`` and ``rk4_path`` are plain scalar loops over Python
floats that step one orbit of the field ``rhs``.  ``adaptive_lanes``
steps many orbits in numpy lockstep, bit for bit as ``adaptive_path``
would one at a time.  All of them integrate the original plane: the
covering is only a chart, applied to the samples afterwards.  With
``--trace 1`` the benchmark reports the kernel's time per accepted step,
e.g. ``python3 perfbench/run.py --workload grid --trace 1``.

Kernels return raw arrays plus an integer status; the ``integrate`` module
wraps them in typed trajectories and exceptions.
"""

import math

import numpy as np

STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_MAX_STEPS = 2
STATUS_NONFINITE = 3

MIN_STEP = 1e-14

# Dormand-Prince 5(4) (Dormand & Prince, 1980), one copy for both kernels:
# the stage weights a_ij, the 5th-order weights b_i that are propagated and
# the error weights e_i = b_i - b*_i.  Each kernel unpacks it into locals,
# which the loop reads faster than globals.
TABLEAU = (
    1.0 / 5.0,
    3.0 / 40.0, 9.0 / 40.0,
    44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0,
    19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0,
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
    -5103.0 / 18656.0,
    35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0,
    71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
    22.0 / 525.0, -1.0 / 40.0,
)

# step control, unpacked like TABLEAU: h *= safety * err**err_exp, clamped
# to [fac_min, fac_max] after an accepted step and to [fac_min, 1] after a
# rejected one
STEP_CONTROL = (0.9, -0.2, 0.2, 5.0)  # safety, err_exp, fac_min, fac_max

# adaptive_lanes steps its lanes together while at least this many are
# live.  Measured on a 2-vCPU Xeon: a lockstep iteration costs about 145 us
# plus 0.42 us per live lane, and each live lane would cost one
# adaptive_path step of about 5.4 us, so lanes win above about
# 145 / (5.4 - 0.42) = 29 live lanes.
MIN_LANES = 32


def rhs(u, v, mu):
    """The Duffing field (x, y) -> (y, x - x^3 - mu*y), elementwise; the
    cube is spelled u*u*u, so every caller gets the same bits."""
    return v, u - u * u * u - mu * v


def _grow(arr, cap):
    out = np.empty(cap, dtype=np.float64)
    out[: arr.shape[0]] = arr
    return out


def adaptive_path(u0, v0, mu, t0, t_end, rel_tol, abs_tol, h0, max_steps, max_samples):
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
    (a21, a31, a32, a41, a42, a43, a51, a52, a53, a54, a61, a62, a63, a64, a65,
     b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7) = TABLEAU
    safety, err_exp, fac_min, fac_max = STEP_CONTROL
    cap = min(4096, max_samples)
    ts = np.empty(cap, dtype=np.float64)
    us = np.empty(cap, dtype=np.float64)
    vs = np.empty(cap, dtype=np.float64)
    dus = np.empty(cap, dtype=np.float64)
    dvs = np.empty(cap, dtype=np.float64)

    t = t0
    u = u0
    v = v0
    k1u, k1v = rhs(u, v, mu)
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

        k2u, k2v = rhs(u + h * a21 * k1u, v + h * a21 * k1v, mu)
        k3u, k3v = rhs(
            u + h * (a31 * k1u + a32 * k2u), v + h * (a31 * k1v + a32 * k2v), mu
        )
        k4u, k4v = rhs(
            u + h * (a41 * k1u + a42 * k2u + a43 * k3u),
            v + h * (a41 * k1v + a42 * k2v + a43 * k3v),
            mu,
        )
        k5u, k5v = rhs(
            u + h * (a51 * k1u + a52 * k2u + a53 * k3u + a54 * k4u),
            v + h * (a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v),
            mu,
        )
        k6u, k6v = rhs(
            u + h * (a61 * k1u + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u),
            v + h * (a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v),
            mu,
        )
        un = u + h * (b1 * k1u + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
        vn = v + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
        k7u, k7v = rhs(un, vn, mu)

        eu = h * (e1 * k1u + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * k7u)
        ev = h * (e1 * k1v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
        su = abs_tol + rel_tol * max(abs(u), abs(un))
        sv = abs_tol + rel_tol * max(abs(v), abs(vn))
        # squared via *, not **, so absurd tolerances overflow to inf rather
        # than raise OverflowError
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
                fac = fac_max
            else:
                fac = safety * err ** err_exp
                if fac > fac_max:
                    fac = fac_max
                elif fac < fac_min:
                    fac = fac_min
            h = h * fac
        else:
            # a NaN error norm (overflowed stages) would shrink h to NaN and
            # spin through the whole step budget; inf still shrinks h
            if math.isnan(err):
                status = STATUS_NONFINITE
                break
            fac = safety * err ** err_exp
            if fac < fac_min:
                fac = fac_min
            elif fac > 1.0:
                fac = 1.0
            h = h * fac

    return ts[:n], us[:n], vs[:n], dus[:n], dvs[:n], status, h, steps


class _Samples:
    """Growable columns (lane, t, u, v) of the samples adaptive_lanes
    records, in time order per lane.  One buffer per column, grown by
    doubling: small arrays, one per lockstep iteration and concatenated at
    the end, raised the 400-orbit benchmark grid's peak RSS from 65.4 to
    69.7 MiB."""

    def __init__(self, cap):
        self.n = 0
        self.cols = [np.empty(cap, dtype=np.int32)] + [np.empty(cap) for _ in "tuv"]

    def append(self, lane, t, u, v):
        end = self.n + len(lane)
        if end > len(self.cols[0]):
            full = self.cols
            self.cols = [np.empty(max(2 * len(c), end), c.dtype) for c in full]
            for col, old in zip(self.cols, full):
                col[: self.n] = old[: self.n]
        for col, values in zip(self.cols, (lane, t, u, v)):
            col[self.n : end] = values
        self.n = end


def _field(z, mu):
    """rhs on the lanes of a (2, L) array, as one."""
    return np.array(rhs(z[0], z[1], mu))


def adaptive_lanes(u0, v0, mu, t_end, rel_tol, abs_tol, h0, max_steps):
    """adaptive_path of the original-plane field over [0, t_end] from every
    start (u0[k], v0[k]) at once, bit for bit.

    Each start is a lane with its own t, h, FSAL stage, attempted-step
    count and status.  numpy steps all live lanes together with the scalar
    kernel's operations in its order, and takes the step factor
    err ** -0.2 per lane in Python floats (libm): numpy's vectorised
    power can differ from it in the last bit.  Once fewer than MIN_LANES
    lanes are live, adaptive_path finishes each of the rest from its last
    sample with its h and its remaining step budget, so with fewer than
    MIN_LANES starts every lane runs in adaptive_path.

    Returns (t, z, dz, bounds, status, h, steps): lane k's path is
    t[bounds[k]:bounds[k + 1]] and the same rows of the (N, 2) states z
    and field values dz; status, h and steps per lane are what
    adaptive_path returns.  Overflowing lanes stop with STATUS_NONFINITE
    and raise no floating-point warning.
    """
    (a21, a31, a32, a41, a42, a43, a51, a52, a53, a54, a61, a62, a63, a64, a65,
     b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7) = TABLEAU
    safety, err_exp, fac_min, fac_max = STEP_CONTROL
    n = len(u0)
    lane = np.arange(n, dtype=np.int32)
    t = np.zeros(n)
    h = np.full(n, min(h0, t_end))
    steps = np.zeros(n, dtype=np.int64)
    z = np.array([u0, v0], dtype=np.float64)
    nonfinite = np.zeros(n, dtype=bool)
    status = np.full(n, STATUS_OK)
    h_end = np.empty(n)
    steps_end = np.empty(n, dtype=np.int64)
    # the field values are rebuilt at the end: with FSAL each one is exactly
    # rhs at its node
    rec = _Samples(256 * n)
    rec.append(lane, t, z[0], z[1])
    with np.errstate(all="ignore"):
        k1 = _field(z, mu)
        while True:
            done = t >= t_end
            exhausted = steps >= max_steps
            stop = nonfinite | done | exhausted | (h < MIN_STEP)
            if stop.any():  # retire lanes in the scalar loop's order of tests
                k = lane[stop]
                status[k] = np.select(
                    [nonfinite[stop], done[stop], exhausted[stop]],
                    [STATUS_NONFINITE, STATUS_OK, STATUS_MAX_STEPS],
                    STATUS_STEP_UNDERFLOW,
                )
                h_end[k] = h[stop]
                steps_end[k] = steps[stop]
                keep = ~stop
                lane, t, h, steps = lane[keep], t[keep], h[keep], steps[keep]
                z, k1 = z[:, keep], k1[:, keep]
            if lane.size == 0 or lane.size < MIN_LANES:
                break

            last = t + h >= t_end
            h = np.where(last, t_end - t, h)
            k2 = _field(z + h * a21 * k1, mu)
            k3 = _field(z + h * (a31 * k1 + a32 * k2), mu)
            k4 = _field(z + h * (a41 * k1 + a42 * k2 + a43 * k3), mu)
            k5 = _field(z + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4), mu)
            k6 = _field(
                z + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5), mu
            )
            zn = z + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
            k7 = _field(zn, mu)
            e = h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
            r = e / (abs_tol + rel_tol * np.maximum(np.abs(z), np.abs(zn)))
            err = np.sqrt(0.5 * (r[0] * r[0] + r[1] * r[1]))

            steps += 1
            accepted = err <= 1.0
            # 0 ** -0.2 raises, so a zero error is taken as the smallest
            # double: both give fac > fac_max, which clamps to fac_max
            fac = safety * np.array(
                [e ** err_exp for e in np.maximum(err, 5e-324).tolist()]
            )
            # one clamp serves both outcomes: an accepted step (err <= 1)
            # has fac >= safety > fac_min, a rejected one fac < safety < 1
            fac = np.clip(fac, fac_min, fac_max)
            nonfinite = np.isnan(err)
            if nonfinite.any():
                fac[nonfinite] = 1.0  # the scalar loop stops with h as it was
            t = np.where(accepted, np.where(last, t_end, t + h), t)
            z = np.where(accepted, zn, z)
            k1 = np.where(accepted, k7, k1)
            h = h * fac
            rec.append(lane[accepted], t[accepted], z[0, accepted], z[1, accepted])

        for j, k in enumerate(lane.tolist()):
            budget = max_steps - int(steps[j])
            tt, uu, vv, _, _, status_k, h_k, used = adaptive_path(
                float(z[0, j]), float(z[1, j]), mu, float(t[j]), t_end,
                rel_tol, abs_tol, float(h[j]), budget, budget + 1,
            )
            status[k], h_end[k], steps_end[k] = status_k, h_k, steps[j] + used
            rec.append(np.full(len(tt) - 1, k), tt[1:], uu[1:], vv[1:])

        lanes, ts, us, vs = (col[: rec.n] for col in rec.cols)
        order = np.argsort(lanes, kind="stable")
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(lanes, minlength=n), out=bounds[1:])
        t = ts[order]
        # gathered straight into place; mode="clip" writes without a buffer
        z = np.empty((rec.n, 2))
        np.take(us, order, out=z[:, 0], mode="clip")
        np.take(vs, order, out=z[:, 1], mode="clip")
        del rec, lanes, ts, us, vs, order  # before dz, to lower the peak
        dz = np.empty_like(z)
        dz[:, 0], dz[:, 1] = rhs(z[:, 0], z[:, 1], mu)
    return t, z, dz, bounds, status, h_end, steps_end


def rk4_path(u0, v0, mu, t_end, h, max_steps):
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
    k1u, k1v = rhs(u, v, mu)
    ts[0] = t
    us[0] = u
    vs[0] = v
    dus[0] = k1u
    dvs[0] = k1v

    for i in range(nsteps):
        hi = h
        if i == nsteps - 1:
            hi = t_end - t
        k2u, k2v = rhs(u + 0.5 * hi * k1u, v + 0.5 * hi * k1v, mu)
        k3u, k3v = rhs(u + 0.5 * hi * k2u, v + 0.5 * hi * k2v, mu)
        k4u, k4v = rhs(u + hi * k3u, v + hi * k3v, mu)
        u = u + hi / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + hi / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (math.isfinite(u) and math.isfinite(v)):
            n = i + 1
            return ts[:n], us[:n], vs[:n], dus[:n], dvs[:n], STATUS_NONFINITE
        t = t_end if i == nsteps - 1 else t + hi
        k1u, k1v = rhs(u, v, mu)
        ts[i + 1] = t
        us[i + 1] = u
        vs[i + 1] = v
        dus[i + 1] = k1u
        dvs[i + 1] = k1v

    return ts, us, vs, dus, dvs, STATUS_OK
