#!/usr/bin/env python3
"""Benchmark of duffing-aa: one workload per invocation, from a source tree.

    python3 perfbench/run.py --workload {figures,grid,verify,actions} \\
        --seed N --seconds S --trace {0,1}

BENCHMARK.json lists figures, grid and actions; verify runs the same way
but is left out of it because the program fails its own checks on some
seeds (see README.md).

Run it from anywhere inside a checkout; it imports ``duffing_aa`` from the
checkout's ``src/`` and writes only to a temporary directory under
``.perfbench_tmp/`` in the checkout, removed on exit.  It runs in one
process and one thread; only ``setup_s`` starts fresh interpreters, one
after another.

``--trace 0`` measures the end-to-end metrics with no hook installed.
Times are in reference seconds (``speed.py``): corrected for the speed the
shared host ran at, so that they move with the program's work and not
with the host's load.  The raw times are in the report line.

  setup_s      median over SETUP_RUNS fresh interpreters of the time from
               spawn to having imported duffing_aa and duffing_aa.cli and
               built the workload's inputs, before the first integration
               (one untimed interpreter first fills the bytecode cache)
  wall_s       median time of one full pass of the workload
  peak_rss_mb  the process's resident-memory high-water mark; one
               workload per process, so no workload's peak leaks into
               another's

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``tracing.py`` (medians over the traced passes) plus
``trace.overhead``, the fastest traced pass over the fastest untraced one.

Passes repeat until the next one would end after ``--seconds``; at least
one runs (two when tracing).  Every pass's outputs go through the
workload's oracles (see ``workloads.py``).  The last stdout line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a JSON report with the environment, ``error_rate`` with its
base, every pass time, the query latencies of ``actions`` and the first
failures.  The exit code is 0 iff every operation succeeded, 1 if any
failed, 2 if the checkout has no ``src/duffing_aa``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_BASE = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("figures", "grid", "verify", "actions")
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 10


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


class _Workdir:
    """A fresh directory under WORK_BASE, made the working directory."""

    def __enter__(self) -> str:
        WORK_BASE.mkdir(exist_ok=True)
        self.path = tempfile.mkdtemp(dir=WORK_BASE)
        self.cwd = os.getcwd()
        os.chdir(self.path)
        return self.path

    def __exit__(self, *exc) -> None:
        os.chdir(self.cwd)
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_BASE.rmdir()
        except OSError:
            pass  # another run is still using it


def _probe(args) -> int:
    """Set-up as timed by setup_s: imports and inputs, then exit.  Reports
    the host's speed around them and the time its own samples took."""
    from speed import timed_ref

    before, spent = timed_ref()
    import duffing_aa  # noqa: F401
    import duffing_aa.cli  # noqa: F401
    from workloads import WORKLOADS

    with _Workdir():
        WORKLOADS[args.workload](args.seed)
        after, spent_after = timed_ref()
        print(json.dumps({"ref_s": 0.5 * (before + after),
                          "sampling_s": spent + spent_after}), flush=True)
    return 0


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(raw, reference) seconds of SETUP_RUNS fresh set-ups, spawn to ready,
    without the probe's own speed samples."""
    from speed import REF_TASK_S

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    raw, ref = [], []
    for i in range(SETUP_RUNS + 1):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            try:
                proc.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        try:
            probe = json.loads(line)
        except ValueError:
            probe = None
        if proc.returncode != 0 or not isinstance(probe, dict):
            raise RuntimeError(f"set-up probe failed: exit {proc.returncode}")
        if i:  # the first run only fills the bytecode cache
            dt -= probe["sampling_s"]
            raw.append(dt)
            ref.append(dt * REF_TASK_S / probe["ref_s"])
    return raw, ref


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """The checkout's commit, read from .git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    import duffing_aa

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "seed": seed,
        "backend": "numba" if duffing_aa.USING_NUMBA else "numpy",
    }


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum (100th) when there are too few."""
    v = sorted(latencies)
    n = len(v)
    if n < 11:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def _traced_pass(wl):
    """One pass with every layer hook installed; (pass, layer metrics,
    metrics left unmeasured)."""
    from tracing import Hooks, Tracer, layer_metrics
    from workloads import VERIFY_CHECKS

    tracer = Tracer()
    hooks = Hooks(tracer).install()
    try:
        outcome = wl.run_pass()
    finally:
        hooks.remove()
    unmeasured = hooks.unmeasured + [
        f"{layer} (result unreadable)" for layer in tracer.unreadable]
    checks = VERIFY_CHECKS if wl.name == "verify" else ()
    return outcome, layer_metrics(tracer, checks), unmeasured


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result, report)."""
    from speed import Speedometer
    from workloads import WORKLOADS

    report = {"workload": workload, "env": environment(seed),
              "seconds": seconds, "trace": int(trace)}
    if not trace:
        report["raw_setup_s_runs"], report["setup_s_runs"] = setup_times(
            workload, seed)

    raw, untraced, traced, layer_runs, failures, latencies = [], [], [], [], [], []
    attempted = failed = 0
    unmeasured = set()
    # when tracing, the host's speed is sampled only around untraced passes
    speedometer = Speedometer()
    with _Workdir(), contextlib.nullcontext() if trace else speedometer:
        wl = WORKLOADS[workload](seed)
        wl.prepare_check()
        start = perf_counter()
        while True:
            if trace and len(raw) > len(traced):
                outcome, layers, missing = _traced_pass(wl)
                traced.append(outcome.seconds)
                layer_runs.append(layers)
                unmeasured.update(missing)
            else:
                outcome, raw_s, ref_s = speedometer.time(wl.run_pass)
                raw.append(raw_s)
                untraced.append(ref_s)
            problems = wl.check(outcome.outputs)
            attempted += outcome.attempted
            failed += len(problems)
            failures += problems.values()
            latencies += outcome.latencies
            if (traced or not trace) and (
                perf_counter() - start + raw[-1] > seconds
            ):
                break

    report.update({
        "passes": len(raw) + len(traced),
        "raw_pass_s": raw,
        "pass_s": untraced,
        "raw_wall_s": statistics.median(raw),
        "error_rate": {"value": failed / attempted, "failed": failed,
                       "attempted": attempted},
        "failures": failures[:MAX_REPORTED_FAILURES],
    })
    if latencies:
        tail, pct = tail_latency(latencies)
        report["query_p50_ms"] = {"value": 1e3 * statistics.median(latencies),
                                  "unit": "ms"}
        report["query_tail_ms"] = {"value": 1e3 * tail, "unit": "ms",
                                   "percentile": pct, "count": len(latencies)}

    if trace:
        metrics = {
            name: {"value": statistics.median(run[name][0] for run in layer_runs),
                   "unit": unit}
            for name, (_, unit) in layer_runs[0].items()
        }
        metrics["trace.overhead"] = {
            "value": min(traced) / min(raw), "unit": "ratio"}
        report["traced_pass_s"] = traced
        report["unmeasured"] = sorted(unmeasured)
    else:
        report["raw_setup_s"] = statistics.median(report["raw_setup_s_runs"])
        metrics = {
            "setup_s": {"value": statistics.median(report["setup_s_runs"]),
                        "unit": "s"},
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
        }
        report.update(metrics)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "duffing_aa" / "__init__.py").is_file():
        print(f"error: no duffing_aa package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _probe(args)
    result, report = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    for problem in report["failures"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
