"""Smoke test of the benchmark: tiny workloads pass their oracles, and a
corrupted output or a failed check is counted and exits non-zero.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from duffing_aa import cli, verify  # noqa: E402


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_figures_pass_their_oracles(workdir):
    figures = workloads.Figures(seed=0)
    outcome = figures.run_pass()
    assert outcome.attempted == 4
    assert figures.check(outcome.outputs) == {}


def test_tiny_grid_passes_its_oracles(workdir):
    grid = workloads.Grid(seed=3, side=3, t_max=2.0)
    grid.prepare_check()
    assert grid.check(grid.run_pass().outputs) == {}
    assert grid.digest is not None
    assert grid.check(grid.run_pass().outputs) == {}  # byte-identical


def test_tiny_actions_pass_their_oracles(workdir):
    actions = workloads.Actions(seed=3, strata=1)
    actions.prepare_check()
    outcome = actions.run_pass()
    assert outcome.attempted == 2
    assert actions.check(outcome.outputs) == {}
    assert len(outcome.latencies) == 2


def test_verify_sample_counts_match_the_program():
    reports = {r.name: r.n_samples for r in verify.run_all(seed=11)}
    assert reports == workloads.expected_samples(11)
    assert tuple(reports) == workloads.VERIFY_CHECKS


def test_check_reports_counts_a_failed_report():
    expected = workloads.expected_samples(11)
    lines = [
        json.dumps({"name": n, "n_samples": k, "passed": True})
        for n, k in expected.items()
    ]
    assert workloads.check_reports("\n".join(lines), expected) == {}
    lines[4] = lines[4].replace('"passed": true', '"passed": false')
    assert list(workloads.check_reports("\n".join(lines), expected)) == [
        "check_roundtrip"
    ]


def test_grid_oracle_catches_a_broken_orbit(workdir):
    grid = workloads.Grid(seed=3, side=2, t_max=2.0)
    assert cli.main(["run", workloads.GRID_CONFIG, "--quiet"]) == 0
    grid.prepare_check()
    rows = grid.rows
    assert workloads.check_grid_csv(workloads.GRID_CSV, grid.states, 2.0, rows) == []
    rows[1] += 1
    assert workloads.check_grid_csv(workloads.GRID_CSV, grid.states, 2.0, rows)


def test_action_oracle_catches_a_wrong_period():
    h = -0.1
    ref = workloads.reference_query(h)
    assert workloads.check_query(h, ref, ref) is None
    assert workloads.check_query(h, (ref[0] * (1 + 1e-6),) + ref[1:], ref)


def _main(argv, capsys):
    code = run.main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-2])["report"], json.loads(out[-1])


def test_flipped_csv_byte_fails_the_run(capsys, monkeypatch):
    write_csv = cli._write_csv

    def corrupting(path, *args):
        write_csv(path, *args)
        if os.path.basename(path) == "fig2_covered.csv":
            with open(path, "r+b") as f:
                f.seek(100)
                b = f.read(1)
                f.seek(100)
                f.write(bytes([b[0] ^ 1]))

    monkeypatch.setattr(cli, "_write_csv", corrupting)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    code, report, result = _main(
        ["--workload", "figures", "--seed", "1", "--seconds", "0"], capsys)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 4
    assert report["error_rate"]["value"] == 0.25
    assert "fig2_covered.csv: sha256" in report["failures"][0]


def test_failed_verify_report_fails_the_run(capsys, monkeypatch):
    def failing(seed, tolerance):
        return verify.CheckReport("check_winding", 2, 1.0, 1.0, False, 1e-6)

    def passing(name, n):
        return lambda seed, tolerance: verify.CheckReport(
            name, n, 0.0, 0.0, True, 1.0)

    # stand-ins keep the run short; only check_winding fails
    expected = workloads.expected_samples(5)
    checks = {name: passing(name, n) for name, n in expected.items()}
    checks["check_winding"] = failing
    monkeypatch.setattr(verify, "CHECKS", checks)
    monkeypatch.setattr(cli, "CHECKS", checks)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    code, report, result = _main(
        ["--workload", "verify", "--seed", "5", "--seconds", "0"], capsys)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 8
    assert report["failures"] == [
        "check_winding: failed, max_abs_error 1.0, max_rel_error 1.0, "
        "tolerance 1e-06"
    ]


def test_traced_run_reports_every_layer_metric(capsys):
    code, report, result = _main(
        ["--workload", "figures", "--seed", "1", "--seconds", "0", "--trace", "1"],
        capsys)
    assert code == 0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert report["unmeasured"] == []
    assert result["metrics"]["kernel.calls"]["value"] == 25


def test_missing_hook_target_is_reported_unmeasured(workdir, monkeypatch):
    from duffing_aa import integrate

    # as if a refactor had removed it; figures never detect sections
    monkeypatch.delattr(integrate, "_section_crossings")
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer).install()
    try:
        outcome = workloads.Figures(seed=0).run_pass()
    finally:
        hooks.remove()
    assert "events.found" in hooks.unmeasured
    assert outcome.outputs == {name: 0 for name in workloads.FIGURES}
    assert tracing.layer_metrics(tracer)["kernel.calls"] == (25, "count")


def test_untraced_run_prints_every_end_to_end_metric(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    code, report, result = _main(
        ["--workload", "figures", "--seed", "1", "--seconds", "0"], capsys)
    assert code == 0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert report["env"]["backend"] in ("numpy", "numba")


def test_gaps_are_charged_at_the_speed_around_them():
    d = 2 * speed.REF_TASK_S  # the host runs at half the reference speed
    samples = [(0.0, d), (1.0, d), (3.0, d)]
    raw, ref = speed.corrected(samples)
    assert raw == pytest.approx(3.0 - 2 * d)
    assert ref == pytest.approx(raw / 2)


def test_speedometer_times_a_call_and_restores_the_alarm():
    import signal

    old = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer(interval=0.005) as s:
        result, raw, ref = s.time(lambda: sum(i * i for i in range(300_000)))
    assert result == sum(i * i for i in range(300_000))
    assert len(s.samples) > 2 and raw > 0 and ref > 0
    assert signal.getsignal(signal.SIGALRM) is old
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
