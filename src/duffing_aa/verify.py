"""Independent numerical cross-checks, packaged as reusable reports.

Each closed-form formula in the library is re-derived here by a second
route (Jacobian pushforward, gradient products, chain rules, round trips,
long integrations) and compared against the production implementation on
a deterministic sample set; measured periods are compared against their
elliptic closed forms.  Reports are plain data, not assertions: the
test suite asserts on ``report.passed``, while the CLI streams them as
JSON for diagnostic runs.

Sampling uses a 64-bit linear congruential generator rather than numpy's
bit generators so that a (seed, tolerance, config) triple yields
bit-identical reports on any platform.  The sampling box [-3, 3]^2 covers
both wells, the separatrix and outer orbits.

``FORMULA_COVERAGE`` records which checks exercise which formula; a
registry test keeps it total, so no formula can silently lose its oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .actionangle import _theta_dot_den, dH_dtheta, theta_dot_of, theta_of
from .covering import _unwrap, covered_field, principal_root, sheet_sign, square
from .dynamics import (Params, State, _number, duffing_field, energy_rate,
                       state_on_level)
from .exceptions import OnSeparatrix
from .integrate import (
    DEFAULT_CONFIG,
    SEPARATRIX_TOL,
    _one_period,
    find_period,
    integrate_original,
)

DEFAULT_N = 10_000
DEFAULT_SEED = 42
SAMPLE_BOX = 3.0

PUSHFORWARD_MUS = (0.0, 0.1, 0.5)
CONSERVATION_LEVELS = (-0.2, 0.005, 0.5)
WINDING_LEVELS = (-0.2, 0.5)
PERIOD_LEVELS = (-0.24, -0.2, -0.01, 0.005, 0.5, 2.0)

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check; passed iff the governing metric <= tolerance."""

    name: str
    n_samples: int
    max_abs_error: float
    max_rel_error: float
    passed: bool
    tolerance: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def lcg_uniform(seed: int, n: int) -> np.ndarray:
    """n floats in [0, 1) from a 64-bit linear congruential generator.

    State k is s_k = a^k s_0 + C_k (mod 2^64), with C_k = c(a^(k-1) + ...
    + 1); the jump-ahead tables a^k and C_k are doubled in uint64
    arithmetic, which wraps mod 2^64, so no state is stepped in Python:
    s_(m+k) = a^k s_m + C_k gives a^(m+k) = a^k a^m, C_(m+k) = a^k C_m + C_k.
    """
    mult = np.array([_LCG_MULT], dtype=np.uint64)  # a^k for k = 1, 2, ...
    inc = np.array([_LCG_INC], dtype=np.uint64)  # C_k
    while mult.size < n:
        inc = np.concatenate((inc, mult * inc[-1] + inc))
        mult = np.concatenate((mult, mult * mult[-1]))
    states = mult[:n] * np.uint64(seed & _LCG_MASK) + inc[:n]
    return (states >> np.uint64(11)) * 2.0**-53


def _sample_box(
    seed: int, n: int, center_r2: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """n seeded states of the box, less those within squared distance
    center_r2 of (+-1, 0)."""
    _number(n, "sample count", 1, integer=True)
    u = lcg_uniform(seed, 2 * n)
    x = -SAMPLE_BOX + 2.0 * SAMPLE_BOX * u[0::2]
    y = -SAMPLE_BOX + 2.0 * SAMPLE_BOX * u[1::2]
    keep = ((x - 1.0) ** 2 + y**2 >= center_r2) & ((x + 1.0) ** 2 + y**2 >= center_r2)
    return x[keep], y[keep]


def _report(name, err, scale, tolerance, relative=False, n=None) -> CheckReport:
    """One report from errors and their scales (broadcastable arrays): the
    max |error|, the max |error| / |scale| (scales floored at 1e-300), and
    passed iff the governing one -- the relative with ``relative`` -- is
    <= tolerance.  n, the samples, defaults to the number of errors."""
    err = np.abs(np.asarray(err, dtype=np.float64))
    max_abs = float(np.max(err, initial=0.0))
    max_rel = float(np.max(err / np.maximum(np.abs(scale), 1e-300), initial=0.0))
    governing = max_rel if relative else max_abs
    return CheckReport(name, err.size if n is None else n, max_abs, max_rel,
                       governing <= tolerance, tolerance)


def _jacobian_pushforward(x, y, p):
    """The original field at (x, y) pushed forward by the covering's
    Jacobian [[2x, -2y], [2y, 2x]]."""
    fx, fy = duffing_field(State(x, y), p)
    return 2.0 * x * fx - 2.0 * y * fy, 2.0 * y * fx + 2.0 * x * fy


def _chain_rule_theta_dot(x, y):
    """Oracle for theta': ((x1-1)*y1' - y1*x1') / ((x1-1)^2 + y1^2), with
    the covered velocity pushed forward from the raw conservative field."""
    x1, y1 = square(x, y)
    du, dv = _jacobian_pushforward(x, y, Params(mu=0.0))
    return ((x1 - 1.0) * dv - y1 * du) / ((x1 - 1.0) ** 2 + y1**2)


def check_pushforward(
    n: int = DEFAULT_N, seed: int = DEFAULT_SEED, tolerance: float = 1e-10,
    *, mus=PUSHFORWARD_MUS,
) -> CheckReport:
    """covered_field composed with square vs. the Jacobian pushforward, at
    each mu.

    The oracle applies J = [[2x, -2y], [2y, 2x]] to the original field at
    n sampled states; the production route evaluates the closed covered
    field at their squares.  Governing metric: max absolute componentwise
    difference.
    """
    x, y = _sample_box(seed, n)
    err, oracle = [], []
    for mu in mus:
        p = Params(mu=mu)
        oracle_u, oracle_v = _jacobian_pushforward(x, y, p)
        got_u, got_v = covered_field(*square(x, y), p)
        err += [got_u - oracle_u, got_v - oracle_v]
        oracle += [oracle_u, oracle_v]
    return _report("check_pushforward", np.concatenate(err), np.concatenate(oracle),
                   tolerance, n=n * len(mus))


def check_theta_dot(
    n: int = DEFAULT_N, seed: int = DEFAULT_SEED, tolerance: float = 1e-10
) -> CheckReport:
    """Closed-form angular velocity vs. the chain rule on the covered flow.

    Oracle: theta' = ((x1-1)*y1' - y1*x1') / ((x1-1)^2 + y1^2) with the
    conservative covered field.  Samples within 1e-3 of (+-1, 0) are
    skipped (0/0 there and excluded from the claim); the anchor states
    (0, 1) and (2, 0) are always included.  Governing metric: max
    relative difference.
    """
    x, y = _sample_box(seed, n, 1e-6)
    x = np.append(x, [0.0, 2.0])
    y = np.append(y, [1.0, 0.0])
    closed = theta_dot_of(State(x, y))
    oracle = _chain_rule_theta_dot(x, y)
    return _report("check_theta_dot", closed - oracle, oracle, tolerance, True)


def check_conservation(
    h_levels, t_max: float = 100.0, tolerance: float = 1e-8
) -> CheckReport:
    """Energy drift of the conservative flow over [0, t_max].

    One orbit per level, launched from (x, 0) on the level set, adaptive
    tolerances 1e-10.  Governing metric: max |H(t) - H(0)| over all
    samples of all orbits.  Separatrix levels are rejected.
    """
    cfg = replace(DEFAULT_CONFIG, t_max=t_max)
    drifts = []
    for h in h_levels:
        if abs(h) < SEPARATRIX_TOL:
            raise OnSeparatrix(f"level {h} is the separatrix; no drift check there")
        traj = integrate_original(state_on_level(h), Params(mu=0.0), cfg)
        drifts.append(float(np.max(np.abs(traj.energies() - h))))
    return _report("check_conservation", drifts, h_levels, tolerance)


def check_winding(h_levels, tolerance: float = 1e-6) -> CheckReport:
    """Total unwrapped angle over one measured period per level, along
    the path that measures it (``integrate._one_period``).

    Orbits inside the separatrix (h < 0) must wind by -2pi, orbits outside
    (h > 0) by -4pi: the covering doubles the turning of symmetric orbits.
    Governing metric: max |total - expected|.
    """
    p = Params(mu=0.0)
    errors, expected = [], []
    for h in h_levels:
        x, y = _one_period(state_on_level(h), p, DEFAULT_CONFIG)[1:3]
        theta = _unwrap(x, y)[2]
        expected.append(-2.0 * math.pi if h < 0 else -4.0 * math.pi)
        errors.append(float(theta[-1] - theta[0]) - expected[-1])
    return _report("check_winding", errors, expected, tolerance)


def _ellipk(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m) = pi / (2 M),
    with M the arithmetic-geometric mean of 1 and sqrt(1 - m), 0 <= m < 1."""
    a, b = 1.0, math.sqrt(1.0 - m)
    for _ in range(64):  # quadratic convergence: a handful of rounds
        if abs(a - b) <= 2**-52 * a:  # |c_n| <= 2**-53 a_n, c_n = (a - b) / 2
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def closed_form_period(h: float) -> float:
    """Period of the conservative orbit on level h (c = 0), from the
    roots a^2 = 1 - sqrt(1 + 4h), b^2 = 1 + sqrt(1 + 4h) of the quartic:
    2 sqrt2 K(1 - a^2/b^2) / b in a well (-1/4 < h < 0) and
    4 sqrt2 K(b^2/(b^2 - a^2)) / sqrt(b^2 - a^2) outside the separatrix."""
    s = math.sqrt(1.0 + 4.0 * h)
    a2, b2 = 1.0 - s, 1.0 + s
    if h < 0.0:
        return 2.0 * math.sqrt(2.0) * _ellipk(1.0 - a2 / b2) / math.sqrt(b2)
    return 4.0 * math.sqrt(2.0) * _ellipk(b2 / (b2 - a2)) / math.sqrt(b2 - a2)


def check_period(h_levels, tolerance: float = 1e-7) -> CheckReport:
    """find_period vs. the elliptic closed form, one orbit per level.

    Each orbit starts from (x, 0) on the level set, at the default
    integrator settings.  Governing metric: max relative difference.
    Separatrix levels are rejected (by find_period).
    """
    p = Params(mu=0.0)
    got = [find_period(state_on_level(h), p, DEFAULT_CONFIG) for h in h_levels]
    period = [closed_form_period(h) for h in h_levels]
    return _report("check_period", np.subtract(got, period), period, tolerance,
                   relative=True)


def check_roundtrip(
    n: int = DEFAULT_N, seed: int = DEFAULT_SEED, tolerance: float = 1e-12
) -> CheckReport:
    """The principal root of the square of s, signed by s's sheet, is s,
    componentwise, on sampled states."""
    x, y = _sample_box(seed, n)
    sign = sheet_sign(x, y)
    back_x, back_y = principal_root(*square(x, y))
    err = np.maximum(np.abs(back_x * sign - x), np.abs(back_y * sign - y))
    return _report("check_roundtrip", err, np.maximum(np.abs(x), np.abs(y)), tolerance)


def _rate_oracle(x, y, p):
    """grad(H).f, the cube spelled as in the field so that the
    conservative part cancels exactly."""
    fx, fy = duffing_field(State(x, y), p)
    return (x * x * x - x) * fx + y * fy


def check_energy_rate(
    n: int = DEFAULT_N, seed: int = DEFAULT_SEED, tolerance: float = 1e-12,
    *, mus=PUSHFORWARD_MUS,
) -> CheckReport:
    """Closed-form dH/dt = -mu*y^2 vs. the gradient product grad(H).f, at
    each mu."""
    x, y = _sample_box(seed, n)
    ps = [Params(mu=mu) for mu in mus]
    oracle = np.concatenate([_rate_oracle(x, y, p) for p in ps])
    closed = np.concatenate([energy_rate(State(x, y), p) for p in ps])
    return _report("check_energy_rate", closed - oracle, oracle, tolerance)


def check_theta_angle(
    n: int = DEFAULT_N, seed: int = DEFAULT_SEED, tolerance: float = 1e-12
) -> CheckReport:
    """Consistency of the angle chart with the covered geometry.

    Two identities per sample (skipping 1e-2 disks around (+-1, 0), where
    both sides cancel to rounding noise):

      * (x1-1)*sin(theta) - y1*cos(theta) = 0, scaled by rho;
      * the angular-velocity denominator equals rho^2.

    Governing metric: max of the two scaled residuals.
    """
    x, y = _sample_box(seed, n, 1e-4)
    th = theta_of(State(x, y))
    x1, y1 = square(x, y)
    rho = np.hypot(x1 - 1.0, y1)
    r1 = np.abs((x1 - 1.0) * np.sin(th) - y1 * np.cos(th)) / rho
    r2 = np.abs(_theta_dot_den(x * x, y * y) - rho * rho) / (rho * rho)
    return _report(
        "check_theta_angle", np.concatenate((r1, r2)), 1.0, tolerance, n=x.size
    )


def check_dh_dtheta(
    n: int = DEFAULT_N, seed: int = DEFAULT_SEED, tolerance: float = 1e-10,
    *, mus=PUSHFORWARD_MUS,
) -> CheckReport:
    """dH/dtheta vs. the fully independent ratio of oracle rates, at each mu.

    Oracle: (grad(H).f) / (chain-rule theta') with both pieces computed
    from the raw fields.  grad(H).f cancels to -mu*y^2, so in double its
    relative error near y = 0 is about eps*|x^3 - x| / (mu*|y|); the field
    and grad(H).f are therefore evaluated in np.longdouble (80-bit on x86;
    plain double, with the same operations, where there is no wider type).
    Samples skip 1e-3 disks around (+-1, 0) and a 1e-6 disk around the
    origin.  Governing metric: max relative difference.
    """
    x, y = _sample_box(seed, n, 1e-6)
    keep = x**2 + y**2 >= 1e-12
    x, y = x[keep], y[keep]
    xl, yl = x.astype(np.longdouble), y.astype(np.longdouble)
    theta_dot = _chain_rule_theta_dot(x, y)
    ps = [Params(mu=mu) for mu in mus]
    got = np.concatenate([dH_dtheta(State(x, y), p) for p in ps])
    oracle = np.concatenate([_rate_oracle(xl, yl, p).astype(np.float64) / theta_dot
                             for p in ps])
    return _report("check_dh_dtheta", got - oracle, oracle, tolerance, True)


def _tol(tolerance: float | None) -> dict:
    return {} if tolerance is None else {"tolerance": tolerance}


def _sampled(check):
    """Registry entry running check on DEFAULT_N samples of the seed."""
    return lambda seed, tolerance=None: check(DEFAULT_N, seed, **_tol(tolerance))


def _on_levels(check, levels):
    """Registry entry running check on fixed energy levels (seed unused)."""
    return lambda seed, tolerance=None: check(levels, **_tol(tolerance))


# name -> runner(seed, tolerance=None); None keeps the check's own default
CHECKS = {
    "check_pushforward": _sampled(check_pushforward),
    "check_theta_dot": _sampled(check_theta_dot),
    "check_conservation": _on_levels(check_conservation, CONSERVATION_LEVELS),
    "check_winding": _on_levels(check_winding, WINDING_LEVELS),
    "check_roundtrip": _sampled(check_roundtrip),
    "check_energy_rate": _sampled(check_energy_rate),
    "check_theta_angle": _sampled(check_theta_angle),
    "check_dh_dtheta": _sampled(check_dh_dtheta),
    "check_period": _on_levels(check_period, PERIOD_LEVELS),
}

# formula -> checks that call it; the registry tests keep this total and
# every pair true.
FORMULA_COVERAGE = {
    "duffing_field": ("check_pushforward", "check_theta_dot", "check_energy_rate",
                      "check_dh_dtheta"),
    "hamiltonian": ("check_conservation",),
    "energy_rate": ("check_energy_rate", "check_dh_dtheta"),
    "square": ("check_pushforward", "check_roundtrip", "check_theta_angle"),
    "sheet_sign": ("check_roundtrip",),
    "principal_root": ("check_roundtrip",),
    "covered_field": ("check_pushforward",),
    "theta_of": ("check_theta_angle",),
    "_unwrap": ("check_winding",),
    "theta_dot_of": ("check_theta_dot", "check_dh_dtheta"),
    "_theta_dot_den": ("check_theta_angle",),
    "dH_dtheta": ("check_dh_dtheta",),
    "find_period": ("check_period",),
}


def run_check(
    name: str, seed: int = DEFAULT_SEED, tolerance: float | None = None
) -> CheckReport:
    """Run one registered check by name with optional tolerance override:
    None, or a finite number >= 0 that is not a bool (ValueError naming
    tolerance otherwise, by the rule every number given to the package
    meets).  The seed is an integer in [0, 2**64), the generator's states
    (ValueError naming seed otherwise): a wider one would alias."""
    if tolerance is not None:
        _number(tolerance, "tolerance", 0.0)
    if _number(seed, "seed", 0, integer=True, bound=" in [0, 2**64)") > _LCG_MASK:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    try:
        runner = CHECKS[name]
    except KeyError:
        known = ", ".join(sorted(CHECKS))
        raise ValueError(f"unknown check {name!r}; known checks: {known}") from None
    return runner(seed, tolerance)


def run_all(
    seed: int = DEFAULT_SEED, tolerance: float | None = None
) -> list[CheckReport]:
    """Run every registered check, in registry order."""
    return [run_check(name, seed, tolerance) for name in CHECKS]
