"""Hot numerical kernels: the field and the time-stepping loops.

``adaptive_path`` is a plain scalar Dormand-Prince 5(4) loop over Python
floats that steps one orbit of the field ``rhs``, spelled inline with the
same operations in the same order: a call per stage would cost more than
its arithmetic.  At mu = 0 every stage drops the damping term (``rhs``):
an ``adaptive_path`` step then took 1,740-1,800 ns against 1,890-2,030
with it, and one at mu = 0.1 1,840-2,080 ns as before (medians of 60
interleaved calls, 2-vCPU Xeon, Python 3.11).  ``adaptive_lanes`` steps
many orbits in numpy lockstep, bit for bit as ``adaptive_path`` would one
at a time; its live lanes share one attempted-step count.  Both integrate
the original plane: the covering is only a chart, applied to the samples
afterwards.  With ``--trace 1`` the benchmark reports ``adaptive_path``'s
time per accepted step, e.g.
``python3 perfbench/run.py --workload grid --trace 1``: that covers the
figures and a grid's stragglers, not the lockstep of ``adaptive_lanes``.

Kernels return raw arrays of the accepted nodes (t, x, y) plus an integer
status; the ``integrate`` module wraps them in typed trajectories and
exceptions.  They keep no field values: with FSAL each one is exactly
``rhs`` at its node, so the dense output evaluates it where it needs it.
``adaptive_lanes`` keeps each lockstep iteration's accepted rows in the
arrays it made and scatters them into the output once: its traced peak
is 32 bytes per recorded row (t, u, v, a lane and a place), plus 24 per
output row, plus a few hundred bytes per lockstep iteration (four array
headers and a tuple); the C heap keeps the rows' pages after the scatter.
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
# live.  Measured on a 2-vCPU Xeon, numpy 2.4 (a fit of the medians of 9
# timings of 200 iterations at 16 to 400 live lanes): a lockstep iteration
# costs about 64 us plus 0.14-0.19 us per live lane, and each live lane
# would cost one adaptive_path step of about 2.8-3.0 us, so lanes win
# above about 64 / (2.9 - 0.19) = 24 live lanes.  Below 32 only a grid's
# last few stragglers run, and 40 or 48 instead of 32 left the 400-orbit
# grid's lockstep time within run-to-run spread.
MIN_LANES = 32


def rhs(u, v, mu):
    """The Duffing field (x, y) -> (y, x - x^3 - mu*y), elementwise; the
    cube is spelled u*u*u, so every caller gets the same bits.  At mu = 0
    the v-slope is u - u*u*u alone: that is never -0.0, so subtracting
    mu*v = +-0.0 (v finite) would leave its bits as they are.
    adaptive_path spells the same expression inline at each stage, and
    must keep it in step with this one."""
    return v, u - u * u * u - mu * v if mu else u - u * u * u


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

    Stage i's state is (w, ki_u) and its v-slope w - w*w*w - mu*ki_u (no
    mu term at mu = 0), as ``rhs`` spells it; its u-slope is v itself, so
    k1_u is v and k7_u vn.
    """
    (a21, a31, a32, a41, a42, a43, a51, a52, a53, a54, a61, a62, a63, a64, a65,
     b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7) = TABLEAU
    safety, err_exp, fac_min, fac_max = STEP_CONTROL
    sqrt = math.sqrt
    ts, us, vs = (array.array("d", (a,)) for a in (t0, u0, v0))
    t_append, u_append, v_append = ts.append, us.append, vs.append

    t, u, v = t0, u0, v0
    k1v = rhs(u, v, mu)[1]
    au, av = abs(u), abs(v)  # |u| and |v| at the node, carried on acceptance

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
        k2v = w - w * w * w - mu * k2u if mu else w - w * w * w
        w = u + h * (a31 * v + a32 * k2u)
        k3u = v + h * (a31 * k1v + a32 * k2v)
        k3v = w - w * w * w - mu * k3u if mu else w - w * w * w
        w = u + h * (a41 * v + a42 * k2u + a43 * k3u)
        k4u = v + h * (a41 * k1v + a42 * k2v + a43 * k3v)
        k4v = w - w * w * w - mu * k4u if mu else w - w * w * w
        w = u + h * (a51 * v + a52 * k2u + a53 * k3u + a54 * k4u)
        k5u = v + h * (a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v)
        k5v = w - w * w * w - mu * k5u if mu else w - w * w * w
        w = u + h * (a61 * v + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u)
        k6u = v + h * (a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v)
        k6v = w - w * w * w - mu * k6u if mu else w - w * w * w
        un = u + h * (b1 * v + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u)
        vn = v + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
        k7v = un - un * un * un - mu * vn if mu else un - un * un * un

        eu = h * (e1 * v + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * vn)
        ev = h * (e1 * k1v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v)
        # max(|u|, |un|) without the call, NaN and all: au unless qu > au
        qu, qv = abs(un), abs(vn)
        su = abs_tol + rel_tol * (qu if qu > au else au)
        sv = abs_tol + rel_tol * (qv if qv > av else av)
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
            au = qu
            av = qv
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


def _assemble(parts, counts):
    """(t, z, bounds) from the parts (lane, place, t, z) and the rows per
    lane: lane k's rows at t[bounds[k]:bounds[k + 1]] and the same rows of
    the (N, 2) states z.  A part's row i is row place[i] of lane[i] (or of
    its one lane), with state z[:, i]; each part is popped, scattered once
    and freed."""
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    t, z = np.empty(bounds[-1]), np.empty((bounds[-1], 2))
    while parts:
        lane, place, ts, zs = parts.pop()
        rows = bounds[lane] + place
        t[rows] = ts
        z[rows] = zs.T
    return t, z, bounds


def _field(z, mu):
    """rhs on the lanes of a (2, L) array, as one."""
    return np.array(rhs(z[0], z[1], mu))


def _step_factors(err, control=STEP_CONTROL):
    """adaptive_path's step factors for the error norms err, bit for bit:
    safety * err ** err_exp, clamped to [fac_min, fac_max], from control,
    STEP_CONTROL or (in adaptive_lanes) its 0-d arrays.  The float64 loop
    of np.float_power calls the C library's pow per element, as CPython's
    float ** does; np.power may take a vectorised loop that differs in the
    last bit.  A zero error gives inf (and warns unless np.errstate ignores
    it), which the clamp takes to fac_max, the scalar rule for err == 0.
    One clamp serves both outcomes: an accepted step (err <= 1) has fac >=
    safety > fac_min, a rejected one fac < safety < 1.
    """
    safety, err_exp, fac_min, fac_max = control
    fac = safety * np.float_power(err, err_exp)
    return np.minimum(np.maximum(fac, fac_min, out=fac), fac_max, out=fac)


def adaptive_lanes(u0, v0, mu, t_end, rel_tol, abs_tol, h0, max_steps):
    """adaptive_path of the original-plane field over [0, t_end] from every
    start (u0[k], v0[k]) at once, bit for bit.

    Each start is a lane with its own t, h, FSAL stage and status; the
    live lanes share one attempted-step count, each attempting a step per
    iteration.  numpy steps them together with the scalar kernel's
    operations in its order; the step factors err ** -0.2 of all lanes
    come from one np.float_power call, which uses the C library's pow as
    the scalar kernel does (``_step_factors``).  Once fewer than MIN_LANES
    lanes are live, adaptive_path finishes each of the rest from its last
    sample with its h and its remaining step budget, so with fewer than
    MIN_LANES starts every lane runs in adaptive_path.

    Returns (t, z, bounds, status, h, steps): lane k's path is
    t[bounds[k]:bounds[k + 1]] and the same rows of the (N, 2) states z;
    status, h and steps per lane are what adaptive_path returns.  Rows
    stay in the arrays that made them, parts (lane, place, t, z): the
    starts, each iteration's accepted lanes and each path adaptive_path
    finished, a place being a row's index in its lane's path.  So the
    peak is 32 bytes per recorded row, 24 per output row and a few
    hundred bytes per lockstep iteration.
    Overflowing lanes stop with STATUS_NONFINITE and raise no
    floating-point warning.
    """
    # an iteration is some 130 numpy calls on a few hundred values each, so
    # a call's fixed cost sets the pace.  numpy 2 charges more for a Python
    # float operand than for a 0-d array (0.79 against 0.45 us at 200
    # lanes), and more for broadcasting (L,) against (2, L) than for a
    # (2, L) operand (0.98 against 0.53 us): every constant is a 0-d float64
    # array here, and each iteration makes one (2, L) copy of h.  The
    # handoff to adaptive_path passes the caller's own numbers, which its
    # scalar loop reads faster
    (a21, a31, a32, a41, a42, a43, a51, a52, a53, a54, a61, a62, a63, a64, a65,
     b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7) = map(np.array, TABLEAU)
    control = tuple(map(np.array, STEP_CONTROL))
    f_mu, f_end, f_rel, f_abs, min_step, half = (
        np.array(x, dtype=np.float64)
        for x in (mu, t_end, rel_tol, abs_tol, MIN_STEP, 0.5))
    n = len(u0)
    lane = np.arange(n, dtype=np.int32)
    t = np.zeros(n)
    h = np.full(n, min(h0, t_end))
    steps = 0  # every live lane attempts one step per iteration
    z = np.array([u0, v0], dtype=np.float64)
    nonfinite = np.zeros(n, dtype=bool)
    status = np.full(n, STATUS_OK)
    h_end = np.empty(n)
    steps_end = np.empty(n, dtype=np.int64)
    # the rows recorded per live lane, the next place; a path holds at most
    # max_steps + 1 rows, so places take 4 bytes while that count fits
    place_type = np.int32 if max_steps + 1 < 2**31 else np.int64
    rows = np.ones(n, dtype=place_type)
    rows_end = np.empty(n, dtype=np.int64)
    parts = [(lane, np.zeros(n, dtype=place_type), t, z)]
    with np.errstate(all="ignore"):
        k1 = _field(z, f_mu)
        while True:
            done = t >= f_end
            exhausted = steps >= max_steps
            stop = nonfinite | done | exhausted | (h < min_step)
            if np.count_nonzero(stop):  # retire lanes in the scalar loop's order of tests
                k = np.flatnonzero(stop)
                gone = lane[k]
                status[gone] = np.where(nonfinite[k], STATUS_NONFINITE, np.where(
                    done[k], STATUS_OK,
                    STATUS_MAX_STEPS if exhausted else STATUS_STEP_UNDERFLOW))
                h_end[gone] = h[k]
                steps_end[gone] = steps
                rows_end[gone] = rows[k]
                keep = np.flatnonzero(~stop)
                lane, t, h, rows = lane[keep], t[keep], h[keep], rows[keep]
                z, k1 = z.take(keep, axis=1), k1.take(keep, axis=1)
            if lane.size == 0 or lane.size < MIN_LANES:
                break

            last = t + h >= f_end
            h = np.where(last, f_end - t, h)
            hh = np.array((h, h))
            k2 = _field(z + hh * a21 * k1, f_mu)
            k3 = _field(z + hh * (a31 * k1 + a32 * k2), f_mu)
            k4 = _field(z + hh * (a41 * k1 + a42 * k2 + a43 * k3), f_mu)
            k5 = _field(z + hh * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4), f_mu)
            k6 = _field(
                z + hh * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5), f_mu
            )
            zn = z + hh * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
            k7 = _field(zn, f_mu)
            e = hh * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
            r = e / (f_abs + f_rel * np.maximum(np.abs(z), np.abs(zn)))
            err = np.sqrt(half * (r[0] * r[0] + r[1] * r[1]))

            steps += 1
            accepted = err <= 1.0
            fac = _step_factors(err, control)
            nonfinite = np.isnan(err)
            if np.count_nonzero(nonfinite):
                fac[nonfinite] = 1.0  # the scalar loop stops with h as it was
            t = np.where(accepted, np.where(last, f_end, t + h), t)
            z = np.where(accepted, zn, z)
            k1 = np.where(accepted, k7, k1)
            h = h * fac
            kept = np.flatnonzero(accepted)
            parts.append((lane.take(kept), rows.take(kept), t.take(kept),
                          z.take(kept, axis=1)))
            rows += accepted

        for j, k in enumerate(lane.tolist()):
            tt, uu, vv, status_k, h_k, used = adaptive_path(
                float(z[0, j]), float(z[1, j]), mu, float(t[j]), t_end,
                rel_tol, abs_tol, float(h[j]), max_steps - steps,
            )
            status[k], h_end[k], steps_end[k] = status_k, h_k, steps + used
            r = int(rows[j])
            rows_end[k] = r + len(tt) - 1
            parts.append((k, np.arange(r, rows_end[k]), tt[1:],
                          np.array((uu[1:], vv[1:]))))

        t, z, bounds = _assemble(parts, rows_end)
    return t, z, bounds, status, h_end, steps_end

