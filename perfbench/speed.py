"""Pass times corrected for the speed the host happens to run at.

A shared host changes speed by up to about 1.8x for seconds to minutes at
a time, for every kind of work at once; CPU time changes with it, so it is
no steadier than wall time.  A fixed reference task, timed every
``INTERVAL_S`` while the program runs, measures that speed where and when
the program ran, and each slice of a pass between two samples is charged
in units of the reference task's duration there.  Multiplied by
``REF_TASK_S``, a pass's corrected time reads in *reference seconds*: the
seconds it takes while the host runs at the speed at which the reference
task takes ``REF_TASK_S``.  A change of the program's own work moves the
corrected time in proportion; a change of host speed mostly does not.

The samples run in a SIGALRM handler, between two bytecodes of the main
thread, so no thread or process is added.  The time they take is left out
of both the raw and the corrected time of a pass.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# About the duration of ref_task on a two-vCPU Intel Xeon VM (Python 3.11,
# numpy 2) in its fast state; only scales corrected times to read like seconds.
REF_TASK_S = 1.1e-3
INTERVAL_S = 0.05

_REF_ARRAY = np.linspace(0.0, 1.0, 8)


def ref_task() -> float:
    """About a millisecond of interpreter arithmetic, small-array numpy
    calls and float formatting, the mix the workloads spend their time
    in.  Each part alone tracks the workloads' slow-down less well: the
    interpreter part slows less than they do, the other two more."""
    s = 0
    for i in range(5_000):
        s += i * i
    x = _REF_ARRAY
    for _ in range(150):
        x = np.sin(x) * 0.5 + _REF_ARRAY
    text = ",".join("%.17g" % (i * 0.1) for i in range(750))
    return s + float(x[0]) + len(text)


def timed_ref(repeat: int = 3) -> tuple[float, float]:
    """(median duration, total time) of `repeat` runs of ref_task."""
    durations = []
    for _ in range(repeat):
        t0 = perf_counter()
        ref_task()
        durations.append(perf_counter() - t0)
    return statistics.median(durations), sum(durations)


class Speedometer:
    """Samples the host's speed while installed (``with``), and times calls
    between two samples."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._busy = False
        self._old_handler = None

    def sample(self) -> None:
        if self._busy:  # the alarm fired inside a sample
            return
        self._busy = True
        try:
            t0 = perf_counter()
            ref_task()
            self.samples.append((t0, perf_counter() - t0))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Speedometer":
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def time(self, fn):
        """(fn(), raw seconds, reference seconds) of one call, both without
        the samples taken during it."""
        self.sample()
        first = len(self.samples) - 1
        result = fn()
        self.sample()
        return (result,) + corrected(self.samples[first:])


def corrected(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """(raw, reference) seconds of the time between consecutive samples;
    each gap is charged at the mean duration of the two samples around it."""
    raw = ref = 0.0
    for (s0, d0), (s1, d1) in zip(samples, samples[1:]):
        gap = s1 - (s0 + d0)
        raw += gap
        ref += gap * REF_TASK_S / (0.5 * (d0 + d1))
    return raw, ref
