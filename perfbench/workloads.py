"""The benchmark's workloads, their inputs and their output oracles.

``BENCHMARK.json`` lists figures, grid and actions; verify is runnable
but not listed, because the program fails its own checks on about one
seed in four (see README.md).

Each workload builds its inputs from the seed in its constructor (that is
the part ``setup_s`` times, after the imports) and runs one *pass* per
call of ``run_pass``, which times only the calls into ``duffing_aa``.
``prepare_check`` computes the oracles' reference values once, before
any pass; ``check`` then applies the oracles to a pass's outputs, outside
the clock and outside any tracing, and returns one message per operation
whose output is wrong, that exited non-zero or that raised.

``figures``
    ``duffing-aa run fig1`` ... ``fig4``, the bundled scenarios, through
    ``cli.main``.  Inputs are fixed, so the seed is unused.  This is what a
    reader of the paper runs, and it exercises every ``run`` layer in
    realistic proportion: the DP5(4) kernel, fig2's cut events, the damped
    fig3, fig4's energy-angle curve, and both CSV and SVG writing.  The
    outputs are small, so a gain that only pays off on large runs shows as
    no change here.  Oracle: the CSV SHA-256 digests recorded from the
    reference commit, and SVGs that parse as XML with the recorded
    polyline count.

``grid``
    400 initial states in one ``mu = 0``, ``t_max = 20`` scenario with one
    covered CSV output and no SVG, through ``cli.main(["run", ...])``, so
    that any batching inside ``run`` is measured.  The states are drawn
    with ``verify.lcg_uniform`` as one jittered point per cell of a 20x20
    grid over [-2, 2] x [-1.5, 1.5], a box that holds both wells, the
    separatrix band and outer orbits; the jitter keeps the mix of orbit
    types, and so the cost, nearly the same for every seed.  This is the
    many-orbit path: the kernel and cut refinement dominate, and about
    290k rows (17 MB) of CSV make output writing and memory visible.
    Oracle: every orbit's t rises strictly from 0 to t_max, its first row
    is the covered image of its initial state, the energy read back from
    the covered columns, (R + x1)^2/16 - x1/2 with R = hypot(x1, y1),
    drifts by at most 1e-8, and each orbit has as many rows as
    ``integrate_original`` returns for it.  Later passes must reproduce
    the first pass byte for byte.

``verify``
    ``cli.main(["verify", "--seed", seed])``, all registered checks.  Most
    of its time is in the per-sample Python loops of ``check_dh_dtheta``
    and ``check_theta_angle``; it barely touches the kernel, event
    location or output writing, so it is the workload on which kernel,
    event and CSV changes are predicted to change nothing.  Oracle: all 8
    reports pass, and each ``n_samples`` equals the count the reference
    sampling rule gives for the seed, recomputed here with an independent
    copy of the generator.

``actions``
    20 seeded energy levels, one jittered level in each of 10 equal strata
    of [-0.24, -0.01] and of [0.01, 1.0].  One query is ``find_period``,
    ``action_covered`` and ``action_original`` on ``state_on_level(h)``.
    It is the only workload that runs ``integrate_covered`` (one
    ``inverse_cover`` call per sample) and section-return events, so it
    covers trajectory assembly and uses event location differently from
    ``grid``.  Oracle: the period matches the AGM closed form to 1e-7
    relative; the covered action matches an independent trapezoid over
    the covered image of ``integrate_original`` (one period inside the
    separatrix, half a period outside) to 1e-3 relative; the classical
    action matches a trapezoid over one closed-form period to 1e-7
    relative.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any

import numpy as np

import duffing_aa
from duffing_aa import cli, verify


@dataclass
class PassResult:
    """One pass: program time, operations run, what they returned, and the
    latency of each operation where an operation is a query."""

    seconds: float
    attempted: int
    outputs: Any
    latencies: list[float] = field(default_factory=list)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# --------------------------------------------------------------------------
# figures

# name -> (CSV file, SHA-256 of it, SVG file, polyline count), recorded
# from the reference commit's `duffing-aa run figN`
FIGURES = {
    "fig1": ("fig1_original.csv",
             "0c0893ea10078fdfcdd5bd0fc41419998fed57fd757a55b97ae4af9ed770eaea",
             "fig1_portrait.svg", 10),
    "fig2": ("fig2_covered.csv",
             "153aa8a606a1cabbf3f1874920b143446e067956508869f8ac243de7ee584518",
             "fig2_portrait.svg", 34),
    "fig3": ("fig3_original.csv",
             "51235472cb927ccd4eedfba82194b994cf37b69c4845194b156e9a6e22ff3d8c",
             "fig3_portrait.svg", 4),
    "fig4": ("fig4_energy_angle.csv",
             "082083a5e134645baa3d59678db6899ec5d24dc2a73e95d892e6a77b090c0260",
             "fig4_energy_angle.svg", 1),
}

_SVG_NS = "{http://www.w3.org/2000/svg}"


def check_svg(path: str, polylines: int) -> str | None:
    """None if the file is an SVG document with `polylines` polylines."""
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as e:
        return f"{path}: not parseable XML ({e})"
    if root.tag != _SVG_NS + "svg":
        return f"{path}: root element is {root.tag}, not svg"
    n = len(root.findall(_SVG_NS + "polyline"))
    if n != polylines:
        return f"{path}: {n} polylines, expected {polylines}"
    return None


def check_figure(name: str) -> str | None:
    """None if figure `name`'s outputs in the current directory are right."""
    csv, digest, svg, polylines = FIGURES[name]
    try:
        got = _sha256(csv)
    except OSError as e:
        return f"{csv}: {e}"
    if got != digest:
        return f"{csv}: sha256 {got[:12]}, expected {digest[:12]}"
    return check_svg(svg, polylines)


class Figures:
    name = "figures"

    def __init__(self, seed: int):
        for name in FIGURES:  # the inputs; each run loads its own again
            cli.load_scenario(name)

    def prepare_check(self) -> None:
        pass  # the references are the recorded digests

    def run_pass(self) -> PassResult:
        for csv, _, svg, _ in FIGURES.values():
            _remove(csv)
            _remove(svg)
        codes = {}
        t0 = perf_counter()
        for name in FIGURES:
            try:
                codes[name] = cli.main(["run", name, "--quiet"])
            except Exception as e:  # one failed figure must not stop the pass
                codes[name] = _error(e)
        return PassResult(perf_counter() - t0, len(FIGURES), codes)

    def check(self, codes) -> dict[str, str]:
        failures = {}
        for name, code in codes.items():
            if code != 0:
                failures[name] = f"run {name}: exit {code}"
            elif (problem := check_figure(name)) is not None:
                failures[name] = problem
        return failures


# --------------------------------------------------------------------------
# grid

GRID_SIDE = 20
GRID_BOX = (2.0, 1.5)  # half-widths in x and y
GRID_T_MAX = 20.0
GRID_DRIFT_TOL = 1e-8
GRID_START_TOL = 1e-12
GRID_CSV = "grid_covered.csv"
GRID_CONFIG = "grid.json"


def grid_states(seed: int, side: int = GRID_SIDE) -> np.ndarray:
    """One uniformly jittered state per cell of a side x side grid."""
    u = verify.lcg_uniform(seed, 2 * side * side)
    cell = np.arange(side * side)
    bx, by = GRID_BOX
    x = -bx + 2.0 * bx * (cell // side + u[0::2]) / side
    y = -by + 2.0 * by * (cell % side + u[1::2]) / side
    return np.column_stack((x, y))


def check_orbit(t, x1, y1, x0, y0, t_max) -> str | None:
    """None if one orbit's covered rows are right for initial state (x0, y0)."""
    if t[0] != 0.0 or t[-1] != t_max or np.any(np.diff(t) <= 0.0):
        return f"t does not rise strictly from 0 to {t_max:g}"
    start_err = max(abs(x1[0] - (x0 * x0 - y0 * y0)), abs(y1[0] - 2.0 * x0 * y0))
    if start_err > GRID_START_TOL * (1.0 + abs(x1[0])):
        return f"first row is not the image of ({x0!r}, {y0!r})"
    h = (np.hypot(x1, y1) + x1) ** 2 / 16.0 - x1 / 2.0
    drift = float(np.max(np.abs(h - h[0])))
    if drift > GRID_DRIFT_TOL:
        return f"energy drift {drift:.3e} > {GRID_DRIFT_TOL:g}"
    return None


def check_grid_csv(
    path: str, states: np.ndarray, t_max: float, rows_per_orbit: list[int]
) -> list[str]:
    """Problems with a covered-plane CSV of one orbit per state."""
    problems = []
    # read one orbit at a time so that the oracle's memory stays below the run's
    with open(path, encoding="utf-8") as f:
        header = f.readline()
        if header != "t,x1,y1,sheet\n":
            return [f"{path}: header {header!r}"]
        for k, ((x0, y0), n) in enumerate(zip(states.tolist(), rows_per_orbit)):
            lines = list(itertools.islice(f, n))
            if len(lines) < n:
                return problems + [f"{path}: ends in orbit {k}; expected "
                                   f"{sum(rows_per_orbit)} rows"]
            if any(line[-3:] not in (",U\n", ",L\n") for line in lines):
                problems.append(f"{path}: orbit {k}: a sheet is not U or L")
                continue
            t, x1, y1 = np.loadtxt(lines, delimiter=",", usecols=(0, 1, 2),
                                   unpack=True, ndmin=2)
            if (problem := check_orbit(t, x1, y1, x0, y0, t_max)) is not None:
                problems.append(f"{path}: orbit {k}: {problem}")
        if f.readline():
            problems.append(f"{path}: more than {sum(rows_per_orbit)} rows")
    return problems


class Grid:
    name = "grid"

    def __init__(self, seed: int, side: int = GRID_SIDE, t_max: float = GRID_T_MAX):
        self.t_max = t_max
        self.states = grid_states(seed, side)
        scenario = {
            "description": f"benchmark grid, seed {seed}",
            "mu": 0.0,
            "initial_states": self.states.tolist(),
            "t_max": t_max,
            "outputs": [{"kind": "covered", "format": "csv", "path": GRID_CSV}],
        }
        with open(GRID_CONFIG, "w", encoding="utf-8") as f:
            json.dump(scenario, f)
        cli.load_scenario(GRID_CONFIG)
        self.rows = None  # per orbit, from integrate_original
        self.digest = None  # of the first pass whose output checked out

    def prepare_check(self) -> None:
        p = duffing_aa.Params(mu=0.0)
        cfg = duffing_aa.IntegratorConfig(t_max=self.t_max)
        self.rows = [
            len(duffing_aa.integrate_original(duffing_aa.State(x, y), p, cfg))
            for x, y in self.states.tolist()
        ]

    def run_pass(self) -> PassResult:
        _remove(GRID_CSV)
        t0 = perf_counter()
        try:
            code = cli.main(["run", GRID_CONFIG, "--quiet"])
        except Exception as e:
            code = _error(e)
        return PassResult(perf_counter() - t0, 1, code)

    def check(self, code) -> dict[str, str]:
        if code != 0:
            return {"grid": f"run: exit {code}"}
        digest = _sha256(GRID_CSV)
        if self.digest is None:
            problems = check_grid_csv(GRID_CSV, self.states, self.t_max, self.rows)
            if problems:
                return {"grid": "; ".join(problems[:3])}
            self.digest = digest
        elif digest != self.digest:
            return {"grid": "output differs from the first checked pass"}
        return {}


# --------------------------------------------------------------------------
# verify

VERIFY_CHECKS = (
    "check_pushforward", "check_theta_dot", "check_conservation",
    "check_winding", "check_roundtrip", "check_energy_rate",
    "check_theta_angle", "check_dh_dtheta",
)


def _lcg(seed: int, n: int) -> np.ndarray:
    """The 64-bit LCG of the verify module, written out independently."""
    mask = (1 << 64) - 1
    s = seed & mask
    out = np.empty(n)
    for i in range(n):
        s = (s * 6364136223846793005 + 1442695040888963407) & mask
        out[i] = (s >> 11) * 2.0**-53
    return out


def expected_samples(seed: int, n: int = 10_000) -> dict[str, int]:
    """n_samples of each check at `seed` under the reference sampling rule:
    n points in [-3, 3]^2, with disks around (+-1, 0) and the origin
    skipped by the checks that are singular there."""
    u = _lcg(seed, 2 * n)
    x = -3.0 + 6.0 * u[0::2]
    y = -3.0 + 6.0 * u[1::2]
    d_plus = (x - 1.0) ** 2 + y**2
    d_minus = (x + 1.0) ** 2 + y**2
    away_6 = (d_plus >= 1e-6) & (d_minus >= 1e-6)
    away_4 = (d_plus >= 1e-4) & (d_minus >= 1e-4)
    off_origin = x**2 + y**2 >= 1e-12
    mus = 3  # each of these checks runs at mu = 0, 0.1 and 0.5
    return {
        "check_pushforward": mus * n,
        "check_theta_dot": int(away_6.sum()) + 2,
        "check_conservation": 3,
        "check_winding": 2,
        "check_roundtrip": n,
        "check_energy_rate": mus * n,
        "check_theta_angle": int(away_4.sum()),
        "check_dh_dtheta": mus * int((away_6 & off_origin).sum()),
    }


def check_reports(text: str, expected: dict[str, int]) -> dict[str, str]:
    """Failures among the JSON report lines `verify` printed, by check."""
    reports = {}
    for line in text.splitlines():
        try:
            r = json.loads(line)
            reports[r["name"]] = r
        except (ValueError, KeyError, TypeError):
            continue
    failures = {}
    for name, n in expected.items():
        r = reports.get(name)
        if r is None:
            failures[name] = f"{name}: no report"
        elif r.get("passed") is not True:
            failures[name] = (
                f"{name}: failed, max_abs_error {r.get('max_abs_error')}, "
                f"max_rel_error {r.get('max_rel_error')}, "
                f"tolerance {r.get('tolerance')}"
            )
        elif r.get("n_samples") != n:
            failures[name] = f"{name}: n_samples {r.get('n_samples')}, expected {n}"
    return failures


class Verify:
    name = "verify"

    def __init__(self, seed: int):
        self.seed = seed
        self.expected = None  # n_samples per check

    def prepare_check(self) -> None:
        self.expected = expected_samples(self.seed)

    def run_pass(self) -> PassResult:
        out = io.StringIO()
        err = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["verify", "--seed", str(self.seed)])
        except Exception as e:
            code = _error(e)
        return PassResult(perf_counter() - t0, len(VERIFY_CHECKS),
                          (code, out.getvalue(), err.getvalue()))

    def check(self, outputs) -> dict[str, str]:
        code, out, err = outputs
        failures = check_reports(out, self.expected)
        if code != 0 and not failures:
            failures["exit"] = f"verify: exit {code}: {err.strip()}"
        return failures


# --------------------------------------------------------------------------
# actions

ACTION_BANDS = ((-0.24, -0.01), (0.01, 1.0))
ACTION_STRATA = 10  # per band
PERIOD_TOL = 1e-7
COVERED_ACTION_TOL = 1e-3
ACTION_TOL = 1e-7


def action_levels(seed: int, strata: int = ACTION_STRATA) -> list[float]:
    """One uniformly jittered energy level per stratum of each band."""
    u = verify.lcg_uniform(seed, strata * len(ACTION_BANDS))
    levels = []
    for b, (lo, hi) in enumerate(ACTION_BANDS):
        w = (hi - lo) / strata
        levels += [lo + w * (k + u[b * strata + k]) for k in range(strata)]
    return levels


def _agm(a: float, b: float) -> float:
    for _ in range(64):
        if a == b:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


def ellipk(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m) = pi/(2 AGM)."""
    return math.pi / (2.0 * _agm(1.0, math.sqrt(1.0 - m)))


def closed_form_period(h: float) -> float:
    """Period of the mu = 0 orbit on level h, with a^2 = 1 - sqrt(1 + 4h)
    and b^2 = 1 + sqrt(1 + 4h): 2 sqrt2 K(1 - a^2/b^2)/b in a well,
    4 sqrt2 K(b^2/(b^2 - a^2))/sqrt(b^2 - a^2) outside the separatrix."""
    s = math.sqrt(1.0 + 4.0 * h)
    a2, b2 = 1.0 - s, 1.0 + s
    if h < 0.0:
        return 2.0 * math.sqrt(2.0) * ellipk(1.0 - a2 / b2) / math.sqrt(b2)
    return 4.0 * math.sqrt(2.0) * ellipk(b2 / (b2 - a2)) / math.sqrt(b2 - a2)


def loop_action(x: np.ndarray, y: np.ndarray) -> float:
    """(1/2pi) |closed trapezoid integral of y dx| over the samples."""
    s = float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))
    s += 0.5 * (y[-1] + y[0]) * (x[0] - x[-1])
    return abs(s) / (2.0 * math.pi)


def reference_query(h: float) -> tuple[float, float, float]:
    """(period, covered action, classical action) on level h, from the
    closed-form period and trapezoids over `integrate_original` samples."""
    s0 = duffing_aa.state_on_level(h)
    p = duffing_aa.Params(mu=0.0)
    period = closed_form_period(h)
    full = duffing_aa.integrate_original(
        s0, p, replace(duffing_aa.DEFAULT_CONFIG, t_max=period)
    )
    # one global revolution is a full period in a well, half of one outside
    rev = full if h < 0.0 else duffing_aa.integrate_original(
        s0, p, replace(duffing_aa.DEFAULT_CONFIG, t_max=period / 2.0)
    )
    covered = loop_action(rev.covered[:, 0], rev.covered[:, 1])
    classical = loop_action(full.states[:, 0], full.states[:, 1])
    return period, covered, classical


def check_query(h: float, got, ref) -> str | None:
    """None if (period, covered action, classical action) match `ref`."""
    names = ("find_period", "action_covered", "action_original")
    for name, g, r, tol in zip(
        names, got, ref, (PERIOD_TOL, COVERED_ACTION_TOL, ACTION_TOL)
    ):
        if not abs(g - r) <= tol * abs(r):
            return f"h={h!r}: {name} {g!r}, reference {r!r} (rel tol {tol:g})"
    return None


class Actions:
    name = "actions"

    def __init__(self, seed: int, strata: int = ACTION_STRATA):
        self.levels = action_levels(seed, strata)
        self.states = [duffing_aa.state_on_level(h) for h in self.levels]
        self.refs = None  # reference values per level

    def prepare_check(self) -> None:
        self.refs = [reference_query(h) for h in self.levels]

    def run_pass(self) -> PassResult:
        p = duffing_aa.Params(mu=0.0)
        cfg = duffing_aa.DEFAULT_CONFIG
        results = []
        latencies = []
        t0 = perf_counter()
        for s0 in self.states:
            q0 = perf_counter()
            try:
                results.append((
                    duffing_aa.find_period(s0, p, cfg),
                    duffing_aa.action_covered(s0, p, cfg),
                    duffing_aa.action_original(s0, p, cfg),
                ))
            except Exception as e:  # one failed query must not stop the pass
                results.append(_error(e))
            latencies.append(perf_counter() - q0)
        return PassResult(perf_counter() - t0, len(self.states), results, latencies)

    def check(self, results) -> dict[str, str]:
        failures = {}
        for k, (h, got) in enumerate(zip(self.levels, results)):
            if isinstance(got, str):
                failures[f"query {k}"] = f"h={h!r}: {got}"
                continue
            if (problem := check_query(h, got, self.refs[k])) is not None:
                failures[f"query {k}"] = problem
        return failures


WORKLOADS = {w.name: w for w in (Figures, Grid, Verify, Actions)}
