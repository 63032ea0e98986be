"""The benchmark's per-layer tracer still finds the names it hooks.

``perfbench/tracing.py`` wraps package functions by name and reports a
metric as unmeasured when its target is gone, so a refactor that deletes
or renames a hooked function would silently blind that layer.
"""

import importlib
from pathlib import Path

import duffing_aa.cli  # noqa: F401  (the tracer hooks cli and verify too)
import duffing_aa.verify  # noqa: F401
from duffing_aa import integrate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

KNOWN_UNMEASURED = {
    # their hooks name integrate._bisect_crossing and integrate.inverse_cover,
    # which the event locator replaced (ROADMAP, open item 1)
    "assembly.inverse_cover_calls",
    "assembly.inverse_cover_s",
    "events.brackets",
    "events.useful_ratio",
    # the tracer also hooks integrate_covered for it, and the covered-plane
    # integrator is gone; integrate_original is still wrapped (see below)
    "assembly.self_s",
    # it counted Trajectory.dense_point, which nothing in the package
    # called, so it read 0 on every workload; the method is gone
    "events.dense_evals",
}


def test_tracer_hooks_find_their_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assembly = integrate.integrate_original
    hooks = tracing.Hooks(tracing.Tracer()).install()
    try:
        unmeasured = set(hooks.unmeasured)
        # assembly.self_s still times the one assembly path left
        assert integrate.integrate_original is not assembly
    finally:
        hooks.remove()
    assert integrate.integrate_original is assembly
    assert unmeasured <= KNOWN_UNMEASURED
