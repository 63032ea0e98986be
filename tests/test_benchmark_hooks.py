"""The benchmark's per-layer tracer still finds the names it hooks.

``perfbench/tracing.py`` wraps package functions by name and reports a
metric as unmeasured when its target is gone, so a refactor that deletes
or renames a hooked function would silently blind that layer.
"""

import importlib
from pathlib import Path

import duffing_aa.cli  # noqa: F401  (the tracer hooks cli and verify too)
import duffing_aa.verify  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# their hooks name integrate._bisect_crossing and integrate.inverse_cover,
# which the event locator replaced (ROADMAP, open item 1)
KNOWN_UNMEASURED = {
    "assembly.inverse_cover_calls",
    "assembly.inverse_cover_s",
    "events.brackets",
    "events.useful_ratio",
}


def test_tracer_hooks_find_their_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    hooks = tracing.Hooks(tracing.Tracer()).install()
    try:
        unmeasured = set(hooks.unmeasured)
    finally:
        hooks.remove()
    assert unmeasured <= KNOWN_UNMEASURED
