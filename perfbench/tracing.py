"""Per-layer tracing, installed from the benchmark's side only.

The traced run wraps the calls into each ``duffing_aa`` module at the
names its callers use: ``integrate`` calls ``_kernels.adaptive_path``
through the module, so the module attribute is wrapped; ``cli`` and
``actionangle`` import ``integrate_original`` by name, so every module
binding of that function is wrapped.  Nothing under ``src/`` changes, and
the untraced run installs nothing.

A *span* times a call and charges its *self time* (duration minus the
spans opened inside it) to its layer; a *counter* only counts calls (and
optionally their time) without taking time from the enclosing span, so
its own small cost lands in that span's self time.  A hook whose target
no longer exists -- a refactor renamed or removed it -- is skipped, and
the metrics it feeds are reported as unmeasured.

Layers, their metrics and the end-to-end metric each should move:

  _kernels     kernel.calls, kernel.busy_s, kernel.accepted_steps (len(t) - 1
               of each result), kernel.ns_per_step, all of the DP5(4)
               adaptive_path (every workload uses rk45).  wall_s on grid and
               figures, query latency on actions; about 4% of verify.
  integrate    events.busy_s (self time of _cut_crossings and
  (events)     _section_crossings), events.brackets (_bisect_crossing calls),
               events.dense_evals (Trajectory.dense_point calls),
               events.found, events.useful_ratio = found / brackets.  wall_s
               on grid and figures, query latency on actions.
  integrate /  assembly.self_s (integrate_* minus kernel and events),
  covering     assembly.inverse_cover_calls, assembly.inverse_cover_s.
               Query latency on actions; zero or unchanged elsewhere.
  actionangle  angle.busy_s (unwrap_theta, energy_angle_curve), action.busy_s
               (action_covered, action_original), period.busy_s
               (find_period), all self times.  actions; angle also figures.
  cli          config.load_s (load_scenario; moves setup_s), output.csv_s,
               output.csv_bytes (wall_s and peak_rss_mb on grid, wall_s on
               figures), output.svg_s, output.svg_bytes (figures only).
  verify       verify.<check>.busy_s (inclusive) and .n_samples for each
               registered check, printed by the verify workload only (which
               BENCHMARK.json does not list; see README.md).  wall_s on
               verify only.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

from workloads import VERIFY_CHECKS


class Tracer:
    """Span self times, outermost-span times and counters of one pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.unreadable = set()  # layers whose results no longer parse
        self._open = []  # time covered by child spans, per open span
        self._depth = defaultdict(int)

    def span(self, layer, fn, on_result=None):
        """Wrap fn in a span of `layer`; on_result(tracer, result, args)
        adds the counts read from the call."""

        def traced(*args, **kwargs):
            self._open.append(0.0)
            self._depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = self._open.pop()
                if self._open:
                    self._open[-1] += dt
                self._depth[layer] -= 1
                self.self_s[layer] += dt - children
                if self._depth[layer] == 0:
                    self.total_s[layer] += dt
                self.counts[layer + ".calls"] += 1
            if on_result is not None:
                try:
                    on_result(self, result, args)
                except (TypeError, IndexError, AttributeError, OSError):
                    self.unreadable.add(layer)
            return result

        return traced

    def counter(self, name, fn, timed=False):
        """Wrap fn to count its calls under `name` (and time them)."""
        if not timed:

            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        def timed_count(*args, **kwargs):
            self.counts[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total_s[name] += perf_counter() - t0

        return timed_count


def _kernel_steps(tr, result, args):
    tr.counts["kernel.accepted_steps"] += len(result[0]) - 1


def _cut_events(tr, result, args):
    tr.counts["events.found"] += len(result[0])


def _section_events(tr, result, args):
    tr.counts["events.found"] += len(result)


def _file_bytes(kind):
    def count(tr, result, args):
        tr.counts[f"output.{kind}_bytes"] += os.path.getsize(args[0])

    return count


def _check_samples(name):
    def count(tr, result, args):
        tr.counts[f"verify.{name}.n_samples"] += result.n_samples

    return count


def _package_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "duffing_aa" or n.startswith("duffing_aa."))
    ]


class Hooks:
    """Wrappers installed on duffing_aa for one traced pass."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []
        self.unmeasured = []

    def _set(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def _set_item(self, d, key, value):
        self._undo.append((d, key, d[key]))
        d[key] = value

    def _module_attr(self, module, name, metrics, wrap):
        mod = sys.modules.get("duffing_aa." + module)
        fn = getattr(mod, name, None)
        if not callable(fn):
            self.unmeasured += metrics
            return
        self._set(mod, name, wrap(fn))

    def _everywhere(self, module, name, metrics, wrap):
        """Wrap every duffing_aa binding of the function `module.name`."""
        fn = getattr(sys.modules.get("duffing_aa." + module), name, None)
        if not callable(fn):
            self.unmeasured += metrics
            return
        wrapped = wrap(fn)
        for mod in _package_modules():
            if getattr(mod, name, None) is fn:
                self._set(mod, name, wrapped)

    def install(self) -> "Hooks":
        tr = self.tracer
        span = tr.span
        self._module_attr(
            "_kernels", "adaptive_path",
            ["kernel.calls", "kernel.busy_s", "kernel.accepted_steps",
             "kernel.ns_per_step"],
            lambda fn: span("kernel", fn, _kernel_steps),
        )
        events = ["events.busy_s", "events.found", "events.useful_ratio"]
        self._module_attr("integrate", "_cut_crossings", events,
                          lambda fn: span("events", fn, _cut_events))
        self._module_attr("integrate", "_section_crossings", events,
                          lambda fn: span("events", fn, _section_events))
        self._module_attr(
            "integrate", "_bisect_crossing",
            ["events.brackets", "events.useful_ratio"],
            lambda fn: tr.counter("events.brackets", fn),
        )
        traj = getattr(sys.modules.get("duffing_aa.integrate"), "Trajectory", None)
        if callable(getattr(traj, "dense_point", None)):
            self._set(traj, "dense_point",
                      tr.counter("events.dense_evals", traj.dense_point))
        else:
            self.unmeasured.append("events.dense_evals")
        self._module_attr(
            "integrate", "inverse_cover",
            ["assembly.inverse_cover_calls", "assembly.inverse_cover_s"],
            lambda fn: tr.counter("assembly.inverse_cover", fn, timed=True),
        )
        for name in ("integrate_original", "integrate_covered"):
            self._everywhere("integrate", name, ["assembly.self_s"],
                             lambda fn: span("assembly", fn))
        for module, name, layer in (
            ("actionangle", "unwrap_theta", "angle"),
            ("actionangle", "energy_angle_curve", "angle"),
            ("actionangle", "action_covered", "action"),
            ("actionangle", "action_original", "action"),
            ("integrate", "find_period", "period"),
        ):
            self._everywhere(module, name, [f"{layer}.busy_s"],
                             lambda fn, layer=layer: span(layer, fn))
        self._module_attr("cli", "load_scenario", ["config.load_s"],
                          lambda fn: span("config", fn))
        for kind in ("csv", "svg"):
            self._module_attr(
                "cli", f"_write_{kind}", [f"output.{kind}_s", f"output.{kind}_bytes"],
                lambda fn, kind=kind: span(f"output.{kind}", fn, _file_bytes(kind)),
            )
        checks = getattr(sys.modules.get("duffing_aa.verify"), "CHECKS", {})
        for name in VERIFY_CHECKS:
            if name in checks:
                self._set_item(checks, name, span(
                    f"verify.{name}", checks[name], _check_samples(name)))
            else:
                self.unmeasured += [f"verify.{name}.busy_s",
                                    f"verify.{name}.n_samples"]
        return self

    def remove(self) -> None:
        for obj, name, old in reversed(self._undo):
            if isinstance(obj, dict):
                obj[name] = old
            else:
                setattr(obj, name, old)
        self._undo.clear()


def layer_metrics(tr: Tracer, checks=()) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as name -> (value, unit);
    the verify layer's for the named checks only."""
    c = tr.counts
    steps = c["kernel.accepted_steps"]
    brackets = c["events.brackets"]
    m = {
        "kernel.calls": (c["kernel.calls"], "count"),
        "kernel.busy_s": (tr.self_s["kernel"], "s"),
        "kernel.accepted_steps": (steps, "count"),
        "kernel.ns_per_step": (1e9 * tr.self_s["kernel"] / steps if steps else 0.0,
                               "ns"),
        "events.busy_s": (tr.self_s["events"], "s"),
        "events.brackets": (brackets, "count"),
        "events.dense_evals": (c["events.dense_evals"], "count"),
        "events.found": (c["events.found"], "count"),
        "events.useful_ratio": (c["events.found"] / brackets if brackets else 0.0,
                                "ratio"),
        "assembly.self_s": (tr.self_s["assembly"], "s"),
        "assembly.inverse_cover_calls": (c["assembly.inverse_cover"], "count"),
        "assembly.inverse_cover_s": (tr.total_s["assembly.inverse_cover"], "s"),
        "angle.busy_s": (tr.self_s["angle"], "s"),
        "action.busy_s": (tr.self_s["action"], "s"),
        "period.busy_s": (tr.self_s["period"], "s"),
        "config.load_s": (tr.self_s["config"], "s"),
        "output.csv_s": (tr.self_s["output.csv"], "s"),
        "output.csv_bytes": (c["output.csv_bytes"], "bytes"),
        "output.svg_s": (tr.self_s["output.svg"], "s"),
        "output.svg_bytes": (c["output.svg_bytes"], "bytes"),
    }
    for name in checks:
        m[f"verify.{name}.busy_s"] = (tr.total_s[f"verify.{name}"], "s")
        m[f"verify.{name}.n_samples"] = (c[f"verify.{name}.n_samples"], "count")
    return m
