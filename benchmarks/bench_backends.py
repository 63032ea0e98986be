#!/usr/bin/env python3
"""Compare the numba kernels against the pure-numpy fallback.

Spawns one worker subprocess per requested backend (the flag is read at import
time, so each backend needs a fresh interpreter) and times two things
after a warmup pass that absorbs JIT compilation:

  * kernel:     raw adaptive stepping loop (`_kernels.adaptive_path`)
  * end-to-end: `integrate_original`, i.e. kernel plus event detection,
                sheet tracking and trajectory assembly in Python

Rows are labelled with the backend each worker reports as active; when
numba is not installed only the numpy row is printed, with no speedup.

    python benchmarks/bench_backends.py [--orbits N] [--t-max T]
"""

import argparse
import json
import os
import subprocess
import sys
import time


def _starts(n_orbits):
    import numpy as np

    xs = [(float(x), 0.0) for x in np.linspace(1.05, 1.4, n_orbits // 2)]
    ys = [(0.0, float(y)) for y in np.linspace(0.5, 2.0, n_orbits - len(xs))]
    return xs + ys


def time_kernel(n_orbits: int, t_max: float) -> tuple[float, int]:
    from duffing_aa import _kernels

    total = 0
    t0 = time.perf_counter()
    for x, y in _starts(n_orbits):
        t, *_ , status = _kernels.adaptive_path(
            _kernels.FIELD_ORIGINAL, x, y, 0.0, t_max, 1e-10, 1e-10, 0.01, 10**7
        )
        assert status == _kernels.STATUS_OK
        total += t.shape[0]
    return time.perf_counter() - t0, total


def time_end_to_end(n_orbits: int, t_max: float) -> tuple[float, int]:
    from dataclasses import replace

    from duffing_aa import DEFAULT_CONFIG, Params, State, integrate_original

    cfg = replace(DEFAULT_CONFIG, t_max=t_max)
    p = Params(mu=0.0)
    total = 0
    t0 = time.perf_counter()
    for x, y in _starts(n_orbits):
        total += len(integrate_original(State(x, y), p, cfg))
    return time.perf_counter() - t0, total


def run_worker(args) -> None:
    from duffing_aa import USING_NUMBA

    time_kernel(2, 1.0)  # warmup: triggers JIT compilation on the numba path
    time_end_to_end(2, 1.0)
    kernel_s, samples = time_kernel(args.orbits, args.t_max)
    full_s, _ = time_end_to_end(args.orbits, args.t_max)
    print(json.dumps({
        "backend": "numba" if USING_NUMBA else "numpy",
        "kernel_s": kernel_s,
        "full_s": full_s,
        "samples": samples,
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orbits", type=int, default=20)
    parser.add_argument("--t-max", type=float, default=100.0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        run_worker(args)
        return 0

    # each worker reports the backend that actually ran: asking for numba
    # without numba installed gives a second numpy run, which is dropped
    results = {}
    for flag in ("0", "1"):
        env = dict(os.environ, DUFFING_AA_NUMBA=flag)
        cmd = [
            sys.executable, os.path.abspath(__file__), "--worker",
            "--orbits", str(args.orbits), "--t-max", str(args.t_max),
        ]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return 1
        r = json.loads(out.stdout.strip().splitlines()[-1])
        results.setdefault(r["backend"], r)

    n = results["numpy"]["samples"]
    print(f"{args.orbits} orbits to t={args.t_max:g}, {n} accepted steps total")
    print(f"{'':>8} {'kernel':>10} {'end-to-end':>12}")
    for backend, r in results.items():
        print(f"{backend:>8} {r['kernel_s']:9.3f}s {r['full_s']:11.3f}s")
    if "numba" in results:
        ks = results["numpy"]["kernel_s"] / results["numba"]["kernel_s"]
        fs = results["numpy"]["full_s"] / results["numba"]["full_s"]
        print(f"{'speedup':>8} {ks:9.1f}x {fs:11.1f}x")
    else:
        print("numba is not available: only the numpy backend ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
