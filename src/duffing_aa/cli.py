"""Command-line front end: scenario runs, verification, point evaluation.

Subcommands:

  run <config>       integrate a scenario file and write its outputs
  verify             run registered checks, one JSON report per line
  field --at x,y     evaluate either vector field at one point

Scenario files are strict JSON: unknown fields and repeated keys are
errors, so a config reproduces the same figure or not at all.  Every
number is a finite number that is not a bool (an integer for nx, ny and
max_steps), checked by the package's one rule (dynamics._number) with
the bound of its field: a NaN or Infinity token reads as a float and is
refused like 1e999, and the config error names the field.  Fields:

  mu                 damping, a number >= 0
  initial_states     list of [x, y] pairs -- or instead:
  grid               {"x_range": [a,b], "y_range": [a,b], "nx": n, "ny": m},
                     at most MAX_GRID_STATES orbits (nx*ny)
  t_max              integration horizon (top level, not inside integrator)
  integrator         optional {"step","rel_tol","abs_tol","max_steps"} of
                     the adaptive Dormand-Prince 5(4) stepper
  outputs            list of {"kind","format","path"}; kind is one of
                     original | covered | energy_angle, format csv | svg;
                     no two paths name one file
  description        optional free text documenting the choice of orbits

CSV schemas (each value as format(v, ".17g") prints it, '\\n' line endings):
  original      t,x,y
  covered       t,x1,y1,sheet        (sheet is U or L)
  energy_angle  theta_unwrapped,h

Rows are ordered by initial-state index, then time.  run cuts the orbits
into contiguous blocks of about equal estimated work (_bounds) and on
Linux forks a process per block but the first.  Each block integrates its
orbits, formats each CSV output's rows into its own unnamed temporary file
in the system temporary directory and draws its SVG polylines.  Once
every block has succeeded, run writes each CSV header and copies the
blocks' files in order, so the bytes are the same for any cut.  An output
that names stdout's file (/dev/stdout, or where stdout is redirected) is
written through stdout's descriptor, after the 'wrote' lines before it.

SVG outputs are self-contained: one polyline per orbit, viewBox fitted to
the data with a 5% margin, and covered-plane orbits drawn in two stroke
colors (red for the Upper sheet, green for Lower).

Exit codes: run 0/2/3 (ok / config error, an output that cannot be
written or a stdout its reader closed / integration failure), verify
0/1/2 (all passed / failures listed on stderr / unknown check, bad seed,
a tolerance that is not a finite number >= 0, or a stdout its reader
closed), field 0/2 (printed / a bad point or --mu, a field value that
overflows, or a stdout its reader closed).  --seed sets the verification
seed, 42 by default.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import marshal
import math
import os
import shutil
import signal
import stat
import sys
import tempfile
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .actionangle import energy_angle_curve
from .covering import covered_field, sheet_sign, square
from .dynamics import Params, State, _number, duffing_field, hamiltonian
from .exceptions import ConfigError, DuffingError
from .integrate import IntegratorConfig, Trajectory, _lanes, integrate_original_orbits
from .verify import CHECKS, DEFAULT_SEED, run_check

KINDS = ("original", "covered", "energy_angle")
FORMATS = ("csv", "svg")

_GRID_KEYS = ("x_range", "y_range", "nx", "ny")
_INTEGRATOR_KEYS = ("step", "rel_tol", "abs_tol", "max_steps")
_OUTPUT_KEYS = ("kind", "format", "path")

# each process of run holds the orbits of its block in memory until their
# outputs are formatted, so the grid size bounds its memory: 400 orbits at
# t_max = 20 (287k samples) in one block peak at 39.7-39.9 MiB RSS, 30.0
# MiB of it the interpreter, numpy and this package.  Each orbit keeps 24
# bytes per sample, views of the rows the lockstep wrote once into its
# lane's slot of one pool (_kernels' memory rule), whose slack is never
# written.  A mirror or duplicate start shares its lane's t and owns its
# states, 16 bytes per sample.  _write_rows holds about 100 bytes per
# value of the chunk it formats.  Cut in two blocks of 200 (_bounds) run
# peaked at 35.7-35.9 MiB and the child at 29.6-29.8 MiB
# (RUSAGE_CHILDREN), much of it shared copy-on-write with run
MAX_GRID_STATES = 10_000

# run forks only when every block carries this estimated work (_bounds, in
# kernel steps).  A run of (1.2, 0) and (0, 1), one CSV and one SVG, 2-vCPU
# Xeon, median ms, one block | two: t_max 30 (lighter block 1,296) 17.4 |
# 18.6, 35 (1,512) 17.8 | 20.7, 40 (1,728) 22.3 | 22.1, 60 (2,592) 31.9 | 30.1
MIN_BLOCK_WORK = 2000.0

# _write_rows formats at least this many rows of whole orbits at once: the
# benchmark grid's wall_s at 512 | 1,024 | 2,048 | 4,096 rows 0.264 | 0.242
# | 0.246 | 0.243 s, its peak RSS 46.1 | 46.0 | 46.3 | 46.9 MiB (medians of
# 4 runs, seeds 4301-4304 in rotating order, 2-vCPU Xeon)
CSV_CHUNK_ROWS = 1024

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
    params: Params
    initial_states: tuple[State, ...]
    integrator: IntegratorConfig
    outputs: tuple[OutputSpec, ...]
    description: str = ""


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _object(v, where: str, required, optional=()) -> dict:
    """v if it is an object with every required key and no key outside
    required and optional; else ConfigError naming the object or key."""
    if not isinstance(v, dict):
        raise ConfigError(f"{where}: expected an object")
    extra = sorted(set(v) - {*required, *optional})
    if extra:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(extra)}")
    for key in required:
        if key not in v:
            raise ConfigError(f"{where}.{key}: missing")
    return v


def _checked(v, where: str, *bounds, **rule):
    """_number(v, where, ...), a refusal a ConfigError naming where."""
    try:
        return _number(v, where, *bounds, **rule)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _pair(v, where: str) -> tuple[float, float]:
    """v, a list of two numbers, as floats."""
    if not (isinstance(v, list) and len(v) == 2):
        raise ConfigError(f"{where}: expected a list of two numbers, got {v!r}")
    return _checked(v[0], f"{where}[0]"), _checked(v[1], f"{where}[1]")


def _expand_grid(grid: dict) -> tuple[State, ...]:
    nx, ny = (_checked(grid[k], f"grid.{k}", 1, integer=True) for k in ("nx", "ny"))
    if nx * ny > MAX_GRID_STATES:
        raise ConfigError(
            f"grid: nx*ny = {nx * ny} orbits exceeds the limit of {MAX_GRID_STATES}"
        )
    xs = np.linspace(*_pair(grid["x_range"], "grid.x_range"), nx)
    ys = np.linspace(*_pair(grid["y_range"], "grid.y_range"), ny)
    return tuple(State(float(x), float(y)) for x in xs for y in ys)


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file (strict: unknown or repeated keys fail)."""
    def unique(pairs):  # an object's dict: a key given twice is refused
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f'{path}: duplicate key "{key}"')
            obj[key] = value
        return obj

    resolved = _resolve_config_path(path)
    try:
        with open(resolved, encoding="utf-8") as f:
            raw = json.load(f, object_pairs_hook=unique)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _object(raw, "scenario", ("mu", "t_max", "outputs"),
            ("initial_states", "grid", "integrator", "description"))
    integ = _object(raw.get("integrator", {}), "integrator", (),
                    ("t_max", *_INTEGRATOR_KEYS))
    if "t_max" in integ:
        raise ConfigError("integrator.t_max: set the top-level t_max instead")
    try:
        integrator = IntegratorConfig(**integ)
    except ValueError as e:
        raise ConfigError(f"integrator: {e}") from e
    try:
        params = Params(mu=raw["mu"])
        integrator = replace(integrator, t_max=raw["t_max"])
    except ValueError as e:
        raise ConfigError(f"scenario.{e}") from e

    if ("initial_states" in raw) == ("grid" in raw):
        raise ConfigError("scenario: provide exactly one of initial_states or grid")
    if "grid" in raw:
        initial_states = _expand_grid(_object(raw["grid"], "grid", _GRID_KEYS))
    else:
        lst = raw["initial_states"]
        if not isinstance(lst, list) or not lst:
            raise ConfigError(
                "scenario.initial_states: expected a nonempty list of [x, y]"
            )
        initial_states = tuple(State(*_pair(pair, f"scenario.initial_states[{i}]"))
                               for i, pair in enumerate(lst))

    outs_raw = raw["outputs"]
    if not isinstance(outs_raw, list):
        raise ConfigError("scenario.outputs: expected a list")
    outputs, files = [], {}  # each output's file: its real path and, if any, inode
    for i, out in enumerate(outs_raw):
        _object(out, f"outputs[{i}]", _OUTPUT_KEYS)
        if out["kind"] not in KINDS:
            raise ConfigError(
                f"outputs[{i}].kind: expected one of {', '.join(KINDS)}, "
                f"got {out['kind']!r}"
            )
        if out["format"] not in FORMATS:
            raise ConfigError(
                f"outputs[{i}].format: expected csv or svg, got {out['format']!r}"
            )
        if not (isinstance(out["path"], str) and out["path"] and "\0" not in out["path"]):
            raise ConfigError(f"outputs[{i}].path: expected a non-empty string "
                              f"without NUL, got {out['path']!r}")
        folder = os.path.dirname(out["path"]) or "."
        if os.path.isdir(out["path"]) or not os.path.isdir(folder):
            raise ConfigError(f"outputs[{i}].path: {out['path']!r}: " + (
                "is a directory" if os.path.isdir(folder) else "no such directory"))
        keys = [os.path.normcase(os.path.realpath(out["path"]))]
        with contextlib.suppress(OSError):  # a file that exists: (inode, device)
            keys.append(os.stat(out["path"])[1:3])  # too, which its hard links share
        j = min(files.setdefault(key, i) for key in keys)
        if j != i:  # the later write would replace the earlier one's file
            raise ConfigError(f"outputs[{i}].path: {out['path']!r}: the same file "
                              f"as outputs[{j}].path")
        outputs.append(OutputSpec(out["kind"], out["format"], out["path"]))

    description = raw.get("description", "")
    if not isinstance(description, str):
        raise ConfigError(
            f"scenario.description: expected a string, got {description!r}"
        )
    return Scenario(params, initial_states, integrator, tuple(outputs), description)


def _resolve_config_path(path: str) -> str:
    if os.path.exists(path) and not os.path.isdir(path):
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
_POW10 = np.array([float(10**k) for k in range(23)])  # exact: 5**22 < 2**53
# a value's cell: sign, "0.000", 17 digits, ".", the digits again, separator
_CELL = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b",?\n", np.uint8)
# which bytes of a cell print its value: row (s*20 + e+4)*17 + l for the
# digits of sign s, exponent e (-4..15) and last nonzero digit l, 680 +
# s*24 + k for a fallback string of length k; then the separator's ","
_KEEP = np.frombuffer(b"".join(r + b"\1\0\0" for r in [
    b"\1" * s + b"\0" * (1 - s) + (  # "0." and -e-1 zeros, the digits 0..l
        b"\1" * (1 - e) + b"\0" * (4 + e) + b"\1" * (l + 1) + b"\0" * (34 - l) if e < 0
        else b"\0" * 5 + b"\1" * (e + 1) + b"\0" * (16 - e) + (b"\1" if l > e else b"\0")
        + b"\0" * (e + 1) + b"\1" * max(l - e, 0) + b"\0" * (16 - max(l, e)))  # e+1..l
    for s in (0, 1) for e in range(-4, 16) for l in range(17)] + [
    b"\0" * (1 - s) + b"\1" * (s + k) + b"\0" * (40 - k) for s in (0, 1) for k in range(24)]),
    bool).reshape(-1, _CELL.size)


def _write_table(f, kind: str, chunk) -> None:
    """Write the rows of chunk, (traj, curve) pairs, as _write_rows does: a
    cell a value, holding its digits or fallback, and its row of _KEEP.
    D's digits are those of its int32 halves hi = D // 10**9 (a 0, then 8)
    and lo (9); a fallback's garbage D may wrap in the cast."""
    if kind == "energy_angle":
        table = np.vstack([curve for _, curve in chunk])
    else:  # filled in place: t, then the states (squared below, if covered)
        table = np.empty((sum(len(traj) for traj, _ in chunk), 3))
        np.concatenate([traj.t for traj, _ in chunk], out=table[:, 0])
        np.concatenate([traj.states for traj, _ in chunk], out=table[:, 1:])
    if kind == "covered":  # a row ends ",U\n" or ",L\n", else "\n"
        upper = sheet_sign(table[:, 1], table[:, 2]) > 0
        table[:, 1], table[:, 2] = square(table[:, 1], table[:, 2])
    v = table.ravel()
    a = np.abs(v)
    with np.errstate(all="ignore"):  # garbage where the fallback applies
        e = np.floor(np.log10(np.fmin(np.fmax(a, 1e-4), 1e16))).astype(np.intp)
        b = _POW10[16 - e]
        p = a * b
        ah, bh = (t - (t - z) for z in (a, b) for t in [134217729.0 * z])
        al, bl = a - ah, b - bh  # halves of 26 bits: Veltkamp's split
        err = al * bl - (((p - ah * bh) - al * bh) - ah * bl)  # a*b - p, exactly
        r = np.rint(err)
        d = p.astype(np.int64) + r.astype(np.int64)
        fast = (a >= 1e-4) & (a < 1e16) & (d >= 10**16) & (d < 10**17) & (abs(err - r) != 0.5)
    del a, b, p, ah, bh, al, bl, err, r  # the chunk's memory peaks above
    hi = d // 10**9
    d = np.array((hi, d - hi * 10**9), np.int32)
    digits = np.empty((2, 9, v.size), np.uint8)
    for k in range(8, -1, -1):  # each half's digits, the last first
        q = d // 10
        digits[:, k] = d - q * 10 + ord("0")
        d = q
    digits = digits.reshape(18, -1)[1:]
    # the last nonzero digit: the largest k whose digit is nonzero (D's
    # first digit is, on the fast path)
    last = ((digits != ord("0")) * np.arange(17, dtype=np.uint8)[:, None]).max(axis=0)
    pick = ((v < 0.0) * 20 + e + 4) * 17 + last  # each value's row of _KEEP
    cells = np.tile(_CELL, (v.size, 1))
    cells[:, 6:23] = cells[:, 24:41] = digits.T
    if (slow := np.flatnonzero(~fast)).size:  # the fallback: format(v, ".17g")
        text = [format(x, ".17g") for x in v[slow].tolist()]
        pick[slow] = [680 + 23 * (s[0] == "-") + len(s) for s in text]
        cells[slow, 1:24] = np.frombuffer("".join(
            s.lstrip("-").ljust(23) for s in text).encode(), np.uint8).reshape(-1, 23)
    cells, pick = cells.reshape(*table.shape, -1), pick.reshape(table.shape)
    if kind == "covered":
        cells[:, -1, -2] = np.where(upper, ord("U"), ord("L"))
    for lo in range(0, len(table), 512):  # the kept bytes, a bool a byte
        kept = np.take(_KEEP, pick[lo : lo + 512], axis=0)
        kept[:, -1, -3:] = [kind == "covered"] * 2 + [True]
        f.write(cells[lo : lo + 512][kept])


def _sheet_runs(traj: Trajectory):
    """(start, stop, upper) of every run of samples on one sheet, in order;
    upper is True on the Upper sheet."""
    sheets = traj.sheets
    starts = [0] + (np.flatnonzero(np.diff(sheets)) + 1).tolist()
    upper = (sheets[starts] > 0).tolist()
    return zip(starts, starts[1:] + [len(traj)], upper)


def _write_rows(f, kind: str, trajs, curves) -> None:
    """The orbits' rows, CSV_CHUNK_ROWS or more of whole orbits at a time,
    every value as format(v, ".17g") prints it (_write_table).

    For 1e-4 <= |v| < 1e16 that is fixed-point: the 17 digits of D =
    round(|v| * 10**(16 - e)), e = floor(log10 |v|), a point after digit e
    (or "0." and -e-1 zeros before them), trailing fraction zeros and a
    bare point stripped.  10**k is exact in float64 for k <= 22, so
    Dekker's TwoProduct (Numer. Math. 18, 1971) gives p + err = |v| * 10**k
    exactly, nothing overflowing or underflowing in that range, and once
    D >= 10**16 > 2**53 p is an integer: D = p + rint(err), correctly
    rounded.  An exact tie (|err - rint(err)| = 1/2), a D outside
    [10**16, 10**17) (log10 an ulp off, or rounding up to 10**(e + 1)),
    zeros, non-finite values and every other |v| are format(v, ".17g")."""
    chunk, rows = [], 0
    for i, (traj, curve) in enumerate(zip(trajs, curves), 1):
        chunk.append((traj, curve))
        rows += len(traj)
        if rows >= CSV_CHUNK_ROWS or i == len(trajs):
            _write_table(f, kind, chunk)
            chunk, rows = [], 0


def _bounds(scenario: Scenario) -> list[int]:
    """Orbit indices 0 = b0 < ... < bn = orbits that cut the initial states
    into contiguous blocks of about equal estimated work: cut k of n at the
    index nearest k/n of it, n the most blocks, up to the usable CPUs, that
    each carry MIN_BLOCK_WORK.  One block off Linux: run forks only where
    CI tests it, and Windows has no fork.

    Work is in kernel steps: t_max * (24 + 20 sqrt(max(H, 0)) / (1 + 0.4
    mu t_max)) for each class's lane, plus 0.4 per output for each start's
    rows, one a step.  That fits adaptive_path's 21.7-25.9 steps a unit of
    time in the wells, 29.8, 38.5, 53.7, 64.0 at H = 0.1, 0.5, 2, 4 (t_max
    20-100), damping leaving 0.95-0.14 of the excess at mu t_max 0.2-18.  A
    CSV row takes 0.15-0.23 steps, an SVG point 0.2-0.3 (2-vCPU Xeon); a row
    weight of 0.2 cuts fig3 at [0, 1, 4], 17.7-21.8 ms against 16.2-19.6 at
    [0, 2, 4] (medians of 40 alternating runs, three times)."""
    starts, p = scenario.initial_states, scenario.params
    t_max = scenario.integrator.t_max
    cpus = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
    first, lanes = _lanes(starts)
    lead = np.array([s0 is first[k] for s0, (k, _) in zip(starts, lanes)])
    with np.errstate(all="ignore"):  # an energy that overflows: its start fails at once
        h = np.nan_to_num(hamiltonian(State(*np.array(starts).T), p), posinf=0.0)
    rate = 24.0 + 20.0 * np.sqrt(np.fmax(h, 0.0)) / (1.0 + 0.4 * p.mu * t_max)
    work = np.r_[0.0, np.cumsum(rate * (lead + 0.4 * len(scenario.outputs)))]
    for n in range(min(cpus, len(starts)), 1, -1):
        picks = {1 + abs(work[1:-1] - work[-1] * k / n).argmin() for k in range(1, n)}
        bounds = [0, *sorted(picks), len(starts)]
        if np.diff(work[bounds]).min() * t_max >= MIN_BLOCK_WORK:
            return [int(b) for b in bounds]
    return [0, len(starts)]


def _run_block(scenario: Scenario, lo: int, hi: int, tmps) -> tuple:
    """Integrate orbits lo..hi-1 and format their part of every output:
    (0, parts), parts[i] an SVG's _svg_part, or None once a CSV's rows are
    in the temporary file tmps[i].  (3, message) names the first orbit that
    fails, (2, message) the output whose rows it cannot write."""
    states = scenario.initial_states[lo:hi]
    needs_curve = any(o.kind == "energy_angle" for o in scenario.outputs)
    trajs, curves = [], []
    orbits = integrate_original_orbits(states, scenario.params, scenario.integrator)
    for idx, s0 in enumerate(states, lo):
        try:
            traj = next(orbits)
            curves.append(energy_angle_curve(traj) if needs_curve else None)
            trajs.append(traj)
        except DuffingError as e:
            return 3, (f"integration failed for initial state #{idx} "
                       f"({_fmt(s0.x)}, {_fmt(s0.y)}): {e}")
    try:
        for out, tmp in zip(scenario.outputs, tmps):
            if out.format == "csv":
                _write_rows(tmp, out.kind, trajs, curves)
                tmp.flush()
    except OSError as e:
        return 2, f"config error: cannot write output: {out.path}: {e}"
    return 0, [_svg_part(out.kind, trajs, curves) if out.format == "svg" else None
               for out in scenario.outputs]


def _renamed_path(path: str) -> str | None:
    """The file that output path's new file is renamed over: its real path,
    when it is not there yet or is a regular file of one link, named
    through ordinary links.  None for any other output, which is written
    into as it is: a pipe or device, a file with other links, or one named
    through a /proc or /dev/fd link such as /dev/stdout, because a rename
    would leave those links, or this process's descriptor, on the old file."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return os.path.realpath(path)
    except OSError:
        return None  # opening the output reports it
    if not stat.S_ISREG(st.st_mode) or st.st_nlink > 1:
        return None
    link = os.path.abspath(path)
    while True:  # each link on the way (finite, as os.stat followed them)
        where = os.path.realpath(os.path.dirname(link))
        if (where + os.sep).startswith(("/proc/", "/dev/fd/")):
            return None
        if not os.path.islink(link):
            return os.path.realpath(path)
        link = os.path.join(where, os.readlink(link))


def _write_output(path: str, head: bytes, tmps=()) -> None:
    """head, then each block's rows from its temporary file, from the start
    (a child's writes moved the offset it shares with this process).  An
    output that names stdout's file (/dev/stdout, or where stdout is
    redirected) is written through stdout's descriptor, at its offset.
    Others go into a new file beside the file _renamed_path names, created
    "xb" under a unique name, given the earlier output's mode if there is
    one (else the umask sets it) and renamed over it once complete; a
    failure removes it.  Any other output is written into directly."""
    try:
        stdout = os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):  # no such file, or stdout has none
        stdout = False
    real = None if stdout else _renamed_path(path)
    new = path if real is None else f"{real}.{os.urandom(6).hex()}.tmp"
    f = open(sys.stdout.fileno() if stdout else new, "wb" if real is None else "xb",
             closefd=not stdout)
    try:
        with f:
            f.write(head)
            for tmp in tmps:
                tmp.seek(0)
                shutil.copyfileobj(tmp, f)
        if real is not None:
            with contextlib.suppress(FileNotFoundError):
                shutil.copymode(real, new)
            os.replace(new, real)
    except BaseException:
        if real is not None:
            os.remove(new)
        raise


def _write_csv(path: str, kind: str, tmps) -> None:
    """The kind's header, then the blocks' rows (_write_output)."""
    _write_output(path, _CSV_HEADERS[kind], tmps)


def _svg_part(kind: str, trajs, curves):
    """(extents, lines) of these orbits' drawing: the [x_min, y_min, x_max,
    y_max] of their points, and (color, points) of each polyline, y negated
    (SVG y grows downward); covered orbits split at sheet flips."""
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
    pts = np.vstack([p for p, _ in lines])
    # one %-operation per polyline; %.9g prints as format(v, ".9g")
    return [*pts.min(axis=0).tolist(), *pts.max(axis=0).tolist()], [
        (c, " ".join(("%.9g,%.9g",) * len(p)) % tuple((p * (1.0, -1.0)).ravel().tolist()))
        for p, c in lines]


def _write_svg(path: str, parts) -> None:
    """Every block's polylines (_svg_part) in order, in a viewBox fitted
    to the union of their extents with a 5% margin."""
    x_min, y_min = (min(extents[k] for extents, _ in parts) for k in (0, 1))
    x_max, y_max = (max(extents[k] for extents, _ in parts) for k in (2, 3))
    w = x_max - x_min or 1.0
    h = y_max - y_min or 1.0
    x_min -= 0.05 * w
    y_min -= 0.05 * h
    w *= 1.1
    h *= 1.1
    stroke = 0.004 * max(w, h)

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
    for _, lines in parts:
        out += (f'<polyline fill="none" stroke="{color}" '
                f'stroke-width="{stroke:.9g}" points="{coords}"/>'
                for color, coords in lines)
    out.append("</svg>")
    _write_output(path, ("\n".join(out) + "\n").encode())


def _run_blocks(scenario: Scenario, bounds, tmps, sent) -> list[tuple]:
    """_run_block's result for each block in order: the first run here,
    every other in a child that marshals it into its file of sent, reaped
    in turn.  On an error here every child left is stopped and reaped."""
    children = []  # the pid of each child not yet reaped
    try:
        for b, f in enumerate(sent, 1):
            pid = os.fork()
            if pid == 0:
                # the child leaves through _exit: it never returns into the
                # caller's stack and never flushes the stdio it inherited
                code = 1
                try:
                    marshal.dump(_run_block(scenario, *bounds[b : b + 2], tmps[b]), f)
                    f.flush()
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        results = [_run_block(scenario, *bounds[:2], tmps[0])]
        for f in sent:  # from the start: the child moved the offset they share
            status = os.waitpid(children[0], 0)[1]
            del children[0]
            f.seek(0)
            results.append((2, (
                "config error: cannot write output: a block process exited "
                f"with status {os.waitstatus_to_exitcode(status)}"
            )) if status else marshal.load(f))
        return results
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_scenario(path: str, quiet: bool = False) -> int:
    """Integrate every initial state of a scenario, one process per block
    of orbits (_bounds), and write its outputs once every block succeeded."""
    try:
        scenario = load_scenario(path)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    bounds = _bounds(scenario)
    with contextlib.ExitStack() as files:
        try:
            # tmps[b][i]: the temporary file for block b's rows of CSV output i
            tmps = [[files.enter_context(tempfile.TemporaryFile()) if o.format == "csv"
                     else None for o in scenario.outputs] for _ in bounds[1:]]
            # sent[b - 1]: the one a child fills with block b's result, b > 0
            sent = [files.enter_context(tempfile.TemporaryFile()) for _ in bounds[2:]]
            results = _run_blocks(scenario, bounds, tmps, sent)
        except OSError as e:  # no temporary file or no fork
            print(f"config error: cannot write output: {e}", file=sys.stderr)
            return 2
        failed = [result for result in results if result[0]]
        if failed:  # the lowest block's integration failure, else its write error
            code, message = max(failed, key=lambda result: result[0])
            print(message, file=sys.stderr)
            return code
        for i, out in enumerate(scenario.outputs):
            try:
                if out.format == "csv":
                    _write_csv(out.path, out.kind, [tmp[i] for tmp in tmps])
                else:
                    _write_svg(out.path, [result[1][i] for result in results])
            except OSError as e:
                print(f"config error: cannot write output: {out.path}: {e}",
                      file=sys.stderr)
                return 2
            if not quiet and _print(f"wrote {out.path}"):
                return 2
    return 0


def _print(line: str) -> int:
    """Print line to stdout, flushed, so that an output through stdout
    follows it: 0, or 2 with one line on stderr where stdout cannot be
    written, such as a pipe whose reader has closed it.  What stdout
    holds then goes to os.devnull, not to a failing flush at exit."""
    try:
        print(line, flush=True)
        return 0
    except OSError as e:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        print(f"config error: cannot write output: stdout: {e}", file=sys.stderr)
        return 2


def verify_all(
    seed: int, tolerance: float | None = None, only: str | None = None
) -> int:
    """Stream one JSON report per check to stdout; 0 iff all passed."""
    names = list(CHECKS) if only is None else [only]
    failed = []
    for name in names:
        try:
            report = run_check(name, seed=seed, tolerance=tolerance)
        except ValueError as e:
            print(str(e), file=sys.stderr)
            return 2
        if _print(report.to_json()):
            return 2
        if not report.passed:
            failed.append(report.name)
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_field(args) -> int:
    try:  # float() refuses a non-number, _number a non-finite one
        x, y = (_number(float(v), "--at") for v in args.at.split(","))
    except ValueError:
        print(f"--at expects 'x,y' of two finite numbers, got {args.at!r}",
              file=sys.stderr)
        return 2
    try:
        p = Params(mu=args.mu)
        with np.errstate(all="ignore"):  # an overflow is reported below
            if args.covered:
                u, v = covered_field(x, y, p)
            else:
                u, v = duffing_field(State(x, y), p)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    if not (math.isfinite(u) and math.isfinite(v)):
        print(f"the field at ({_fmt(x)}, {_fmt(y)}) is not finite", file=sys.stderr)
        return 2
    return _print(f"{_fmt(u)} {_fmt(v)}")


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
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="sampling seed in [0, 2**64) (default: %(default)s)")

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
        return verify_all(args.seed, tolerance=args.tolerance, only=args.only)
    return _cmd_field(args)


if __name__ == "__main__":
    sys.exit(main())
