"""Command-line front end: scenario runs, verification, point evaluation.

Subcommands:

  run <config>       integrate a scenario file and write its outputs
  verify             run registered checks, one JSON report per line
  field --at x,y     evaluate either vector field at one point

Scenario files are strict JSON: unknown fields are errors, so a config
reproduces the same figure or not at all.  Fields:

  mu, c              system parameters
  initial_states     list of [x, y] pairs -- or instead:
  grid               {"x_range": [a,b], "y_range": [a,b], "nx": n, "ny": m},
                     at most MAX_GRID_STATES orbits (nx*ny)
  t_max              integration horizon (top level, not inside integrator)
  integrator         optional {"step","rel_tol","abs_tol","max_steps"} of
                     the adaptive Dormand-Prince 5(4) stepper
  outputs            list of {"kind","format","path"}; kind is one of
                     original | covered | energy_angle, format csv | svg
  description        optional free text documenting the choice of orbits

CSV schemas (17-significant-digit decimals, '\\n' line endings):
  original      t,x,y
  covered       t,x1,y1,sheet        (sheet is U or L)
  energy_angle  theta_unwrapped,h

Rows are ordered by initial-state index, then time.  On Linux a CSV of
at least 2 * ROWS_PER_WORKER rows going to a regular file is formatted on
up to one process per usable CPU: forked children write contiguous blocks
of orbits to unnamed temporary files in the output's directory, which run
appends in order, so the bytes are those one process writes.

SVG outputs are self-contained: one polyline per orbit, viewBox fitted to
the data with a 5% margin, and covered-plane orbits drawn in two stroke
colors (red for the Upper sheet, green for Lower).

Exit codes: run 0/2/3 (ok / config error / integration failure), verify
0/1/2 (all passed / failures listed on stderr / unknown check, bad seed,
or a tolerance that is not a finite number >= 0), field 0/2 (printed /
a bad point or --mu, or a field value that overflows).  DUFFING_SEED
overrides the default verification seed 42; --seed overrides both.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import stat
import sys
import tempfile
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .actionangle import energy_angle_curve
from .covering import CoveredState, Sheet, covered_field
from .dynamics import Params, State, duffing_field
from .exceptions import ConfigError, DuffingError
from .integrate import IntegratorConfig, Trajectory, integrate_original_orbits
from .verify import CHECKS, run_check

KINDS = ("original", "covered", "energy_angle")
FORMATS = ("csv", "svg")

_SCENARIO_KEYS = {
    "mu", "c", "initial_states", "grid", "t_max", "integrator", "outputs",
    "description",
}
_GRID_KEYS = {"x_range", "y_range", "nx", "ny"}
_INTEGRATOR_KEYS = {"step", "rel_tol", "abs_tol", "max_steps"}
_OUTPUT_KEYS = {"kind", "format", "path"}

# run holds every orbit in memory until its outputs are written, so the grid
# size bounds its memory: 400 orbits at t_max = 20 (287k samples) peak at
# 48.8-49.1 MiB RSS, 29 MiB of it the interpreter and numpy.  Each orbit keeps
# 24 bytes per sample (views of the batch t and states; its covered images and
# sheets are computed from them while it is written); while they run, the
# lockstep kernel's recording buffers and sort order need 56 more per sample
# (36 at full buffers), the cut walk 12.  The forked process that writes the
# second half of that grid's CSV peaks at 35.4 MiB RSS (RUSAGE_CHILDREN, which
# RUSAGE_SELF does not count), most of it pages it shares copy-on-write with run
MAX_GRID_STATES = 10_000

# _write_csv gives each process that formats rows at least this many.
# Measured on a 2-vCPU Xeon with the 400-orbit grid in memory (49 MiB RSS):
# a covered row costs about 2.4 us to format and 0.02 us to append with
# sendfile, a child about 3 ms to fork, reap and append; a second process
# gained nothing on writes of up to about 8,000 rows and took a third off
# one of 12,000.  A 10,000-row block formats in about 24 ms, 8 forks' worth
ROWS_PER_WORKER = 10_000

_STROKE = "#1f4e9c"
_STROKE_UPPER = "#c0392b"
_STROKE_LOWER = "#1e8449"


@dataclass(frozen=True)
class OutputSpec:
    kind: str
    format: str
    path: str


@dataclass(frozen=True)
class Scenario:
    mu: float
    c: float
    initial_states: tuple[State, ...]
    t_max: float
    integrator: IntegratorConfig
    outputs: tuple[OutputSpec, ...]
    description: str = ""


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _finite(v, where: str) -> float:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"{where}: expected a finite number, got {v!r}")


def _num(obj: dict, key: str, where: str) -> float:
    return _finite(obj[key], f"{where}.{key}")


class _Constant(str):
    """A NaN, Infinity or -Infinity token, which strict JSON does not have."""


def _reject_constants(obj, where: str) -> None:
    if isinstance(obj, _Constant):
        raise ConfigError(f"{where}: {obj} is not valid in strict JSON")
    if isinstance(obj, dict):
        for key, v in obj.items():
            _reject_constants(v, f"{where}.{key}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _reject_constants(v, f"{where}[{i}]")


def _unknown(keys, allowed, where: str) -> None:
    extra = sorted(set(keys) - allowed)
    if extra:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(extra)}")


def _expand_grid(grid: dict) -> tuple[State, ...]:
    _unknown(grid.keys(), _GRID_KEYS, "grid")
    for key in _GRID_KEYS:
        if key not in grid:
            raise ConfigError(f"grid.{key}: missing")
    for key in ("nx", "ny"):
        v = grid[key]
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ConfigError(f"grid.{key}: expected an integer >= 1, got {v!r}")
    if grid["nx"] * grid["ny"] > MAX_GRID_STATES:
        raise ConfigError(
            f"grid: nx*ny = {grid['nx'] * grid['ny']} orbits exceeds the limit "
            f"of {MAX_GRID_STATES}"
        )
    ranges = {}
    for key in ("x_range", "y_range"):
        rng = grid[key]
        if not (isinstance(rng, list) and len(rng) == 2):
            raise ConfigError(f"grid.{key}: expected [lo, hi], got {rng!r}")
        ranges[key] = (_finite(rng[0], f"grid.{key}[0]"),
                       _finite(rng[1], f"grid.{key}[1]"))
    xs = np.linspace(*ranges["x_range"], grid["nx"])
    ys = np.linspace(*ranges["y_range"], grid["ny"])
    return tuple(State(float(x), float(y)) for x in xs for y in ys)


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file (strict: unknown fields fail)."""
    resolved = _resolve_config_path(path)
    try:
        with open(resolved, encoding="utf-8") as f:
            raw = json.load(f, parse_constant=_Constant)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _reject_constants(raw, "scenario")
    _unknown(raw.keys(), _SCENARIO_KEYS, "scenario")

    for key in ("mu", "t_max", "outputs"):
        if key not in raw:
            raise ConfigError(f"scenario.{key}: missing")
    mu = _num(raw, "mu", "scenario")
    c = _num(raw, "c", "scenario") if "c" in raw else 0.0
    t_max = _num(raw, "t_max", "scenario")

    has_states = "initial_states" in raw
    has_grid = "grid" in raw
    if has_states == has_grid:
        raise ConfigError(
            "scenario: provide exactly one of initial_states or grid"
        )
    if has_states:
        lst = raw["initial_states"]
        if not isinstance(lst, list) or not lst:
            raise ConfigError(
                "scenario.initial_states: expected a nonempty list of [x, y]"
            )
        states = []
        for i, pair in enumerate(lst):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ConfigError(
                    f"scenario.initial_states[{i}]: expected [x, y], got {pair!r}"
                )
            where = f"scenario.initial_states[{i}]"
            states.append(State(_finite(pair[0], f"{where}[0]"),
                                _finite(pair[1], f"{where}[1]")))
        initial_states = tuple(states)
    else:
        if not isinstance(raw["grid"], dict):
            raise ConfigError("scenario.grid: expected an object")
        initial_states = _expand_grid(raw["grid"])

    integ_raw = raw.get("integrator", {})
    if not isinstance(integ_raw, dict):
        raise ConfigError("scenario.integrator: expected an object")
    if "t_max" in integ_raw:
        raise ConfigError("integrator.t_max: set the top-level t_max instead")
    _unknown(integ_raw.keys(), _INTEGRATOR_KEYS, "integrator")
    try:
        integrator = IntegratorConfig(t_max=t_max, **integ_raw)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"integrator: {e}") from e

    outs_raw = raw["outputs"]
    if not isinstance(outs_raw, list):
        raise ConfigError("scenario.outputs: expected a list")
    outputs = []
    for i, out in enumerate(outs_raw):
        if not isinstance(out, dict):
            raise ConfigError(f"outputs[{i}]: expected an object")
        _unknown(out.keys(), _OUTPUT_KEYS, f"outputs[{i}]")
        for key in _OUTPUT_KEYS:
            if key not in out:
                raise ConfigError(f"outputs[{i}].{key}: missing")
        if out["kind"] not in KINDS:
            raise ConfigError(
                f"outputs[{i}].kind: expected one of {', '.join(KINDS)}, "
                f"got {out['kind']!r}"
            )
        if out["format"] not in FORMATS:
            raise ConfigError(
                f"outputs[{i}].format: expected csv or svg, got {out['format']!r}"
            )
        if not (isinstance(out["path"], str) and out["path"]):
            raise ConfigError(
                f"outputs[{i}].path: expected a non-empty string, got {out['path']!r}"
            )
        outputs.append(OutputSpec(out["kind"], out["format"], out["path"]))

    description = raw.get("description", "")
    if not isinstance(description, str):
        raise ConfigError(
            f"scenario.description: expected a string, got {description!r}"
        )

    try:
        Params(mu=mu, c=c)
    except ValueError as e:
        raise ConfigError(f"scenario: {e}") from e

    return Scenario(
        mu, c, initial_states, t_max, integrator, tuple(outputs), description
    )


def _resolve_config_path(path: str) -> str:
    if os.path.exists(path):
        return path
    name = path if path.endswith(".json") else path + ".json"
    bundled = resources.files("duffing_aa") / "scenarios" / name
    if bundled.is_file():
        return str(bundled)
    raise ConfigError(f"no such config file or bundled scenario: {path}")


_CSV_HEADERS = {
    "original": b"t,x,y\n",
    "covered": b"t,x1,y1,sheet\n",
    "energy_angle": b"theta_unwrapped,h\n",
}
_CSV_ROWS = {
    "original": b"%.17g,%.17g,%.17g\n",
    "energy_angle": b"%.17g,%.17g\n",
    "covered": (b"%.17g,%.17g,%.17g,L\n", b"%.17g,%.17g,%.17g,U\n"),  # by sheet
}


def _sheet_runs(traj: Trajectory):
    """(start, stop, upper) of every run of samples on one sheet, in order;
    upper is True on the Upper sheet."""
    sheets = traj.sheets
    starts = [0] + (np.flatnonzero(np.diff(sheets)) + 1).tolist()
    upper = (sheets[starts] > 0).tolist()
    return zip(starts, starts[1:] + [len(traj)], upper)


def _write_rows(f, kind: str, trajs, curves) -> None:
    """Each orbit's rows as bytes from one tolist, each run of rows on one
    template (a covered orbit's run on one sheet) in one %-operation (%.17g
    prints exactly as format(v, ".17g")), one orbit at a time so that
    memory stays bounded by the largest orbit."""
    for traj, curve in zip(trajs, curves):
        if kind == "covered":
            values = tuple(np.column_stack((traj.t, traj.covered)).ravel().tolist())
            for start, stop, upper in _sheet_runs(traj):
                row = _CSV_ROWS[kind][upper]
                f.write(row * (stop - start) % values[3 * start : 3 * stop])
        else:
            cols = (traj.t, traj.states) if kind == "original" else (curve,)
            rows = np.column_stack(cols)
            f.write(_CSV_ROWS[kind] * len(rows) % tuple(rows.ravel().tolist()))


def _workers(rows: int) -> int:
    """Processes that format a CSV of this many rows: one per usable CPU,
    each with at least ROWS_PER_WORKER rows.  One off Linux: Windows has no
    fork, and elsewhere sendfile writes only to sockets."""
    if sys.platform != "linux":
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // ROWS_PER_WORKER))


def _blocks(trajs) -> list[int]:
    """Orbit indices 0 = b0 < b1 < ... < bk = len(trajs) that cut the
    orbits into one contiguous block per worker, of about equal row
    counts: an orbit goes to the block its middle row falls in.  Python
    lists, because np.unique would import numpy.ma (1.2 MiB of RSS)."""
    rows = [len(traj) for traj in trajs]
    total = sum(rows)
    n = _workers(total)
    mids = [end - r / 2 for end, r in zip(itertools.accumulate(rows), rows)]
    cuts = {bisect.bisect_left(mids, total * k / n) for k in range(1, n)}
    return [0, *sorted(c for c in cuts if 0 < c < len(trajs)), len(trajs)]


def _fork_rows(directory: str, kind: str, trajs, curves):
    """Start a child that formats these orbits' rows into an unnamed
    temporary file in `directory`; returns (pid, file)."""
    tmp = tempfile.TemporaryFile(dir=directory)
    try:
        pid = os.fork()
    except OSError:
        tmp.close()
        raise
    if pid == 0:
        # the child formats and leaves through _exit: it never returns into
        # the caller's stack and never flushes the stdio it inherited
        code = 1
        try:
            _write_rows(tmp, kind, trajs, curves)
            tmp.flush()
            code = 0
        finally:
            os._exit(code)
    return pid, tmp


def _append(fd: int, tmp) -> None:
    """Copy the whole of `tmp` to the end of `fd` in the kernel."""
    size = os.fstat(tmp.fileno()).st_size
    offset = 0
    while offset < size:
        offset += os.sendfile(fd, tmp.fileno(), offset, size - offset)


def _write_csv(path: str, kind: str, trajs, curves) -> None:
    """One header, then every orbit's rows (_write_rows).  A large CSV is
    cut into contiguous blocks of orbits (_blocks): forked children format
    every block but the first into unnamed temporary files while this
    process writes the first, then each child's bytes are appended in
    order.  Every child is reaped, also on failure; a failed child is an
    OSError.  With one worker no child starts, and a path that is not a
    regular file (/dev/stdout, a pipe) has one worker: its directory may
    not take temporary files."""
    children = []  # (pid, file) of each child not yet reaped
    try:
        with open(path, "wb") as f:
            regular = stat.S_ISREG(os.fstat(f.fileno()).st_mode)
            bounds = _blocks(trajs) if regular else [0, len(trajs)]
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                children.append(_fork_rows(os.path.dirname(path) or ".", kind,
                                           trajs[lo:hi], curves[lo:hi]))
            f.write(_CSV_HEADERS[kind])
            _write_rows(f, kind, trajs[: bounds[1]], curves[: bounds[1]])
            f.flush()
            while children:
                pid, tmp = children[0]
                status = os.waitpid(pid, 0)[1]
                children.pop(0)
                with tmp:
                    if status:
                        raise OSError("a CSV writer process exited with status "
                                      f"{os.waitstatus_to_exitcode(status)}")
                    _append(f.fileno(), tmp)
    finally:
        for pid, tmp in children:
            tmp.close()
            os.waitpid(pid, 0)


def _polylines(kind: str, trajs, curves):
    """(points, color) pairs to draw; covered orbits split at sheet flips."""
    lines = []
    for traj, curve in zip(trajs, curves):
        if kind == "original":
            lines.append((traj.states, _STROKE))
        elif kind == "energy_angle":
            lines.append((curve, _STROKE))
        else:
            covered = traj.covered
            for start, stop, upper in _sheet_runs(traj):
                color = _STROKE_UPPER if upper else _STROKE_LOWER
                # one sample of overlap keeps the curve joined
                lines.append((covered[start : stop + 1], color))
    return lines


def _write_svg(path: str, kind: str, trajs, curves) -> None:
    lines = _polylines(kind, trajs, curves)
    pts = np.vstack([p for p, _ in lines])
    x_min, y_min = pts.min(axis=0)
    x_max, y_max = pts.max(axis=0)
    w = x_max - x_min or 1.0
    h = y_max - y_min or 1.0
    x_min -= 0.05 * w
    y_min -= 0.05 * h
    w *= 1.1
    h *= 1.1
    stroke = 0.004 * max(w, h)

    # SVG y grows downward: emit with y negated
    vb_y = -(y_min + h)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{x_min:.9g} {vb_y:.9g} {w:.9g} {h:.9g}">',
    ]
    axis = f'stroke="#999999" stroke-width="{stroke / 2:.9g}"'
    if x_min < 0.0 < x_min + w:
        out.append(f'<line x1="0" y1="{vb_y:.9g}" x2="0" y2="{vb_y + h:.9g}" {axis}/>')
    if y_min < 0.0 < y_min + h:
        out.append(
            f'<line x1="{x_min:.9g}" y1="0" x2="{x_min + w:.9g}" y2="0" {axis}/>'
        )
    for points, color in lines:
        # one %-operation per polyline; %.9g prints as format(v, ".9g")
        coords = " ".join(("%.9g,%.9g",) * len(points)) % tuple(
            (points * (1.0, -1.0)).ravel().tolist()
        )
        out.append(
            f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{stroke:.9g}" points="{coords}"/>'
        )
    out.append("</svg>")
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("\n".join(out) + "\n")


def run_scenario(path: str, quiet: bool = False) -> int:
    """Integrate every initial state of a scenario and write its outputs."""
    try:
        scenario = load_scenario(path)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    p = Params(mu=scenario.mu, c=scenario.c)
    needs_curve = any(o.kind == "energy_angle" for o in scenario.outputs)
    trajs = []
    curves = []
    orbits = integrate_original_orbits(
        scenario.initial_states, p, scenario.integrator
    )
    for idx, s0 in enumerate(scenario.initial_states):
        try:
            traj = next(orbits)
            curves.append(energy_angle_curve(traj) if needs_curve else None)
            trajs.append(traj)
        except DuffingError as e:
            print(
                f"integration failed for initial state #{idx} "
                f"({_fmt(s0.x)}, {_fmt(s0.y)}): {e}",
                file=sys.stderr,
            )
            return 3

    try:
        for out in scenario.outputs:
            if out.format == "csv":
                _write_csv(out.path, out.kind, trajs, curves)
            else:
                _write_svg(out.path, out.kind, trajs, curves)
            if not quiet:
                print(f"wrote {out.path}")
    except OSError as e:
        print(f"config error: cannot write output: {e}", file=sys.stderr)
        return 2
    return 0


def verify_all(
    seed: int, tolerance: float | None = None, only: str | None = None
) -> int:
    """Stream one JSON report per check to stdout; 0 iff all passed."""
    names = [only] if only else list(CHECKS)
    failed = []
    for name in names:
        try:
            report = run_check(name, seed=seed, tolerance=tolerance)
        except ValueError as e:
            print(str(e), file=sys.stderr)
            return 2
        print(report.to_json())
        if not report.passed:
            failed.append(report.name)
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_field(args) -> int:
    try:
        sx, sy = args.at.split(",")
        x, y = float(sx), float(sy)
    except ValueError:
        print(f"--at expects 'x,y', got {args.at!r}", file=sys.stderr)
        return 2
    try:
        p = Params(mu=args.mu)
        with np.errstate(all="ignore"):  # an overflow is reported below
            if args.covered:
                u, v = covered_field(CoveredState(x, y, Sheet.UPPER), p)
            else:
                u, v = duffing_field(State(x, y), p)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    if not (math.isfinite(u) and math.isfinite(v)):
        print(f"the field at ({_fmt(x)}, {_fmt(y)}) is not finite", file=sys.stderr)
        return 2
    print(f"{_fmt(u)} {_fmt(v)}")
    return 0


def _default_seed() -> int:
    raw = os.environ.get("DUFFING_SEED", "42")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"DUFFING_SEED: expected an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duffing-aa",
        description="Phase portraits and global angle diagnostics for the "
        "double-well Duffing oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file (or bundled name)")
    p_run.add_argument("config", help="path to a JSON scenario, or a bundled "
                       "scenario name such as fig1")
    p_run.add_argument("--quiet", action="store_true", help="suppress the "
                       "per-file 'wrote ...' lines")

    p_ver = sub.add_parser("verify", help="run the numerical cross-checks")
    p_ver.add_argument("--only", metavar="NAME", help="run a single check")
    p_ver.add_argument("--tolerance", type=float, help="override every "
                       "check's tolerance")
    p_ver.add_argument("--seed", type=int, help="sampling seed (default: "
                       "DUFFING_SEED or 42)")

    p_fld = sub.add_parser("field", help="evaluate a vector field at a point")
    p_fld.add_argument("--at", required=True, metavar="X,Y")
    p_fld.add_argument("--mu", type=float, default=0.0)
    p_fld.add_argument("--covered", action="store_true",
                       help="evaluate the covered-plane field instead")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return run_scenario(args.config, quiet=args.quiet)
    if args.command == "verify":
        try:
            seed = args.seed if args.seed is not None else _default_seed()
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        return verify_all(seed, tolerance=args.tolerance, only=args.only)
    return _cmd_field(args)


if __name__ == "__main__":
    sys.exit(main())
