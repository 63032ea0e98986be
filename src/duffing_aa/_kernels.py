"""Hot numerical kernels: the field and the time-stepping loops.

``adaptive_path`` is a plain scalar Dormand-Prince 5(4) loop over Python
floats that steps one orbit of the field ``rhs``, spelled inline with the
same operations in the same order: a call per stage would cost more than
its arithmetic.  ``adaptive_lanes`` steps many orbits in numpy lockstep,
bit for bit as ``adaptive_path`` would one at a time.  Both integrate the
original plane: the covering is only a chart, applied to the samples
afterwards.  With ``--trace 1`` the benchmark reports the kernel's time
per accepted step, e.g.
``python3 perfbench/run.py --workload grid --trace 1``.

Kernels return raw arrays of the accepted nodes (t, x, y) plus an integer
status; the ``integrate`` module wraps them in typed trajectories and
exceptions.  They keep no field values: with FSAL each one is exactly
``rhs`` at its node, so the dense output evaluates it where it needs it.
``adaptive_lanes`` places each node once: its memory peak is the recorded
rows at 32 bytes each (t, u, v, a lane and a place), plus the output at
24 bytes per row, plus at most one chunk of ``CHUNK_ROWS`` rows.
"""

import array
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
# live.  Measured on a 2-vCPU Xeon (a fit of the medians of 9 timings of
# 200 iterations at 16 to 400 live lanes): a lockstep iteration costs
# about 120 us plus 0.2 us per live lane, and each live lane would cost
# one adaptive_path step of about 2.7 us, so lanes win above about
# 120 / (2.7 - 0.2) = 48 live lanes.  Below that only a grid's last few
# stragglers run, and 40 or 48 instead of 32 left the 400-orbit grid's
# lockstep time within run-to-run spread.
MIN_LANES = 32

# adaptive_lanes records its rows in chunks of 256 rows per start, at most
# this many: a 65536-row chunk is 2 MiB, so a many-orbit run fills a chunk
# in a few dozen lockstep iterations and a few orbits of a figure, which
# run only in adaptive_path, do not pay for a large one
CHUNK_ROWS = 65536


def rhs(u, v, mu):
    """The Duffing field (x, y) -> (y, x - x^3 - mu*y), elementwise; the
    cube is spelled u*u*u, so every caller gets the same bits.
    adaptive_path spells the same expression inline, w - w*w*w - mu*v at
    each stage, and must keep it in step with this one."""
    return v, u - u * u * u - mu * v


def adaptive_path(u0, v0, mu, t0, t_end, rel_tol, abs_tol, h0, max_steps, flips=0):
    """Dormand-Prince 5(4) loop with FSAL, recording every accepted step.

    Integrates from (t0, u0, v0) towards t_end with first step h0 and at
    most max_steps attempted steps.  Returns (t, u, v, status, h, steps):
    h is the proposed next step and steps the attempted steps used.  With
    flips > 0 it stops early, with STATUS_OK, at the first sample whose v
    makes the flips-th change of sign of v, by the rule of
    ``integrate._sign_flips``: exact zeros (-0.0 too) are skipped, and a
    start with v0 = 0 has no sign until its first nonzero sample.  The
    stopped path is a prefix of the full-horizon one, and calling again
    from its last sample with that h, the remaining step budget and the
    same t_end continues the very same step sequence, bit for bit,
    because the FSAL stage is recomputed from the same state.  A step
    whose error norm is NaN stops the loop with STATUS_NONFINITE.

    Stage i's state is (w, ki_u) and its v-slope w - w*w*w - mu*ki_u, as
    ``rhs`` spells it; its u-slope is v itself, so k1_u is v and k7_u vn.
    """
    (a21, a31, a32, a41, a42, a43, a51, a52, a53, a54, a61, a62, a63, a64, a65,
     b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7) = TABLEAU
    safety, err_exp, fac_min, fac_max = STEP_CONTROL
    sqrt = math.sqrt
    ts, us, vs = (array.array("d", (a,)) for a in (t0, u0, v0))
    t_append, u_append, v_append = ts.append, us.append, vs.append

    t, u, v = t0, u0, v0
    k1v = u - u * u * u - mu * v

    h = min(h0, t_end)
    status = STATUS_OK
    steps = 0
    side = v0  # the last nonzero v; zero before the first one

    while t < t_end:
        if steps >= max_steps:
            status = STATUS_MAX_STEPS
            break
        if h < MIN_STEP:
            status = STATUS_STEP_UNDERFLOW
            break
        last = False
        if t + h >= t_end:
            h = t_end - t
            last = True

        ha = h * a21
        w = u + ha * v
        k2u = v + ha * k1v
        k2v = w - w * w * w - mu * k2u
        w = u + h * (a31 * v + a32 * k2u)
        k3u = v + h * (a31 * k1v + a32 * k2v)
        k3v = w - w * w * w - mu * k3u
        w = u + h * (a41 * v + a42 * k2u + a43 * k3u)
        k4u = v + h * (a41 * k1v + a42 * k2v + a43 * k3v)
        k4v = w - w * w * w - mu * k4u
        w = u + h * (a51 * v + a52 * k2u + a53 * k3u + a54 * k4u)
        k5u = v + h * (a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v)
        k5v = w - w * w * w - mu * k5u
        w = u + h * (a61 * v + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u)
        k6u = v + h * (a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
        k6v = w - w * w * w - mu * k6u
        un = u + h * (b1 * v + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
        vn = v + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
        k7v = un - un * un * un - mu * vn

        eu = h * (e1 * v + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * vn)
        ev = h * (e1 * k1v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
        # max(p, q) without the call, NaN and all: p unless q > p
        p, q = abs(u), abs(un)
        su = abs_tol + rel_tol * (q if q > p else p)
        p, q = abs(v), abs(vn)
        sv = abs_tol + rel_tol * (q if q > p else p)
        # squared via *, not **, so absurd tolerances overflow to inf rather
        # than raise OverflowError
        ru = eu / su
        rv = ev / sv
        err = sqrt(0.5 * (ru * ru + rv * rv))

        steps += 1
        if err <= 1.0:
            t = t_end if last else t + h
            u = un
            v = vn
            k1v = k7v  # FSAL: last stage is the next step's first
            t_append(t)
            u_append(u)
            v_append(v)
            if err == 0.0:
                fac = fac_max
            else:
                fac = safety * err ** err_exp
                if fac > fac_max:
                    fac = fac_max
                elif fac < fac_min:
                    fac = fac_min
            h = h * fac
            if flips and v != 0.0:
                if side != 0.0 and (v > 0.0) != (side > 0.0):
                    flips -= 1
                    if flips == 0:
                        break
                side = v
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

    return np.frombuffer(ts), np.frombuffer(us), np.frombuffer(vs), status, h, steps


class _Rows:
    """The rows (lane, place, t, u, v) that adaptive_lanes records: the
    place of a row is its index in its lane's path.  They are kept in
    chunks of a fixed size that are filled in place and never grown,
    copied or joined; ``assemble`` allocates the output once and
    scatters each chunk to its rows, freeing the chunk as it goes."""

    def __init__(self, n, max_steps):
        self.size = min(256 * n, CHUNK_ROWS)
        # a path holds at most max_steps + 1 rows, so its places fit
        self.place_type = np.int32 if max_steps < 2**31 else np.int64
        self.chunks = []
        self.free = 0  # unfilled rows of the last chunk

    def add(self, *columns):
        """Record the rows of the equal-length columns lane, place, t, u, v."""
        i, m = 0, len(columns[0])
        while i < m:
            if not self.free:
                self.chunks.append((np.empty(self.size, dtype=np.int32),
                                    np.empty(self.size, dtype=self.place_type),
                                    *np.empty((3, self.size))))
                self.free = self.size
            at = self.size - self.free
            j = min(m, i + self.free)
            for chunk, values in zip(self.chunks[-1], columns):
                chunk[at : at + j - i] = values[i:j]
            self.free -= j - i
            i = j

    def assemble(self, counts):
        """(t, z, bounds) from the rows per lane: lane k's rows at
        t[bounds[k]:bounds[k + 1]] and the same rows of the (N, 2) states
        z, in time order."""
        bounds = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        t, z = np.empty(bounds[-1]), np.empty((bounds[-1], 2))
        chunks, self.chunks = self.chunks[::-1], None
        while chunks:
            lane, place, ts, us, vs = chunks.pop()
            m = self.size - self.free if not chunks else self.size
            rows = bounds[lane[:m]] + place[:m]
            t[rows] = ts[:m]
            z[rows, 0] = us[:m]
            z[rows, 1] = vs[:m]  # the chunk is freed as the next is popped
        return t, z, bounds


def _field(z, mu):
    """rhs on the lanes of a (2, L) array, as one."""
    return np.array(rhs(z[0], z[1], mu))


def _step_factors(err):
    """adaptive_path's step factors for the error norms err, bit for bit:
    safety * err ** err_exp, clamped to [fac_min, fac_max].  The float64
    loop of np.float_power calls the C library's pow per element, as
    CPython's float ** does; np.power may take a vectorised loop that
    differs in the last bit.  A zero error gives inf (and warns unless
    np.errstate ignores it), which the clamp takes to fac_max, the scalar
    rule for err == 0.  One clamp serves both outcomes: an accepted step
    (err <= 1) has fac >= safety > fac_min, a rejected one fac < safety < 1.
    """
    safety, err_exp, fac_min, fac_max = STEP_CONTROL
    fac = safety * np.float_power(err, err_exp)
    return np.minimum(np.maximum(fac, fac_min, out=fac), fac_max, out=fac)


def adaptive_lanes(u0, v0, mu, t_end, rel_tol, abs_tol, h0, max_steps):
    """adaptive_path of the original-plane field over [0, t_end] from every
    start (u0[k], v0[k]) at once, bit for bit.

    Each start is a lane with its own t, h, FSAL stage, attempted-step
    count and status.  numpy steps all live lanes together with the scalar
    kernel's operations in its order; the step factors err ** -0.2 of all
    lanes come from one np.float_power call, which uses the C library's
    pow as the scalar kernel does (``_step_factors``).  Once fewer than
    MIN_LANES lanes are live, adaptive_path finishes each of the rest from
    its last sample with its h and its remaining step budget, so with
    fewer than MIN_LANES starts every lane runs in adaptive_path.

    Returns (t, z, bounds, status, h, steps): lane k's path is
    t[bounds[k]:bounds[k + 1]] and the same rows of the (N, 2) states z;
    status, h and steps per lane are what adaptive_path returns.  Each
    row is recorded once, with its lane and its place in the lane's path,
    and scattered once into the output, so the peak is the N recorded
    rows times 32 bytes, plus the output, plus at most one chunk.
    Overflowing lanes stop with STATUS_NONFINITE and raise no
    floating-point warning.
    """
    (a21, a31, a32, a41, a42, a43, a51, a52, a53, a54, a61, a62, a63, a64, a65,
     b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7) = TABLEAU
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
    rows = np.ones(n, dtype=np.int64)  # recorded per live lane: the next place
    rows_end = np.empty(n, dtype=np.int64)
    rec = _Rows(n, max_steps)
    rec.add(lane, np.zeros(n, dtype=np.int64), t, z[0], z[1])
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
                rows_end[k] = rows[stop]
                keep = ~stop
                lane, t, h, steps = lane[keep], t[keep], h[keep], steps[keep]
                rows = rows[keep]
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
            fac = _step_factors(err)
            nonfinite = np.isnan(err)
            if nonfinite.any():
                fac[nonfinite] = 1.0  # the scalar loop stops with h as it was
            t = np.where(accepted, np.where(last, t_end, t + h), t)
            z = np.where(accepted, zn, z)
            k1 = np.where(accepted, k7, k1)
            h = h * fac
            rec.add(lane[accepted], rows[accepted], t[accepted], z[0, accepted],
                    z[1, accepted])
            rows += accepted

        for j, k in enumerate(lane.tolist()):
            budget = max_steps - int(steps[j])
            tt, uu, vv, status_k, h_k, used = adaptive_path(
                float(z[0, j]), float(z[1, j]), mu, float(t[j]), t_end,
                rel_tol, abs_tol, float(h[j]), budget,
            )
            status[k], h_end[k], steps_end[k] = status_k, h_k, steps[j] + used
            r = int(rows[j])
            rows_end[k] = r + len(tt) - 1
            rec.add(np.full(len(tt) - 1, k), np.arange(r, rows_end[k]),
                    tt[1:], uu[1:], vv[1:])

        t, z, bounds = rec.assemble(rows_end)
    return t, z, bounds, status, h_end, steps_end

