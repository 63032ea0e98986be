import contextlib
import errno
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duffing_aa import (Params, State, _kernels, cli, energy_angle_curve, integrate,
                        integrate_original)
from duffing_aa.cli import (
    FORMATS,
    KINDS,
    MAX_GRID_STATES,
    _fmt,
    _write_svg,
    load_scenario,
    main,
)
from duffing_aa.exceptions import ConfigError, StepFailure
from duffing_aa.verify import run_check


def write_config(tmp_path, body: dict, name: str = "scn.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def small_scenario(tmp_path, **overrides) -> str:
    body = {
        "mu": 0.0,
        "initial_states": [[1.2, 0.0], [0.0, 1.0]],
        "t_max": 3.0,
        "outputs": [
            {"kind": "original", "format": "csv", "path": "out.csv"},
            {"kind": "covered", "format": "csv", "path": "cov.csv"},
            {"kind": "original", "format": "svg", "path": "out.svg"},
        ],
    }
    body.update(overrides)
    return write_config(tmp_path, body)


def test_bundled_scenarios_present():
    shipped = resources.files("duffing_aa") / "scenarios"
    names = sorted(p.name for p in shipped.iterdir() if p.name.endswith(".json"))
    assert names == ["fig1.json", "fig2.json", "fig3.json", "fig4.json"]
    for name in ("fig1", "fig2.json"):
        scn = load_scenario(name)
        assert scn.outputs and scn.description


def test_run_writes_csv_and_svg(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", small_scenario(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "wrote out.csv" in out and "wrote out.svg" in out

    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "t,x,y"
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(len(r) == 3 for r in rows)
    # ordered by initial-state index, then time: t resets exactly once
    t = np.array([float(r[0]) for r in rows])
    resets = np.nonzero(np.diff(t) < 0.0)[0]
    assert len(resets) == 1
    # first orbit starts at its initial state, decimals round-trip
    assert float(rows[0][1]) == 1.2 and float(rows[0][2]) == 0.0

    cov = (tmp_path / "cov.csv").read_text().splitlines()
    assert cov[0] == "t,x1,y1,sheet"
    sheets = {ln.rsplit(",", 1)[1] for ln in cov[1:]}
    assert sheets <= {"U", "L"}


def test_run_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = small_scenario(tmp_path)
    assert main(["run", "--quiet", cfg]) == 0
    first = (tmp_path / "out.csv").read_bytes(), (tmp_path / "out.svg").read_bytes()
    assert main(["run", "--quiet", cfg]) == 0
    second = (tmp_path / "out.csv").read_bytes(), (tmp_path / "out.svg").read_bytes()
    assert first == second


def test_svg_structure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    body = {
        "mu": 0.0,
        "initial_states": [[1.2, 0.0], [0.0, 1.5]],
        "t_max": 5.0,
        "outputs": [
            {"kind": "original", "format": "svg", "path": "orig.svg"},
            {"kind": "covered", "format": "svg", "path": "cov.svg"},
        ],
    }
    assert main(["run", "--quiet", write_config(tmp_path, body)]) == 0

    root = ET.parse(tmp_path / "orig.svg").getroot()
    assert root.tag.endswith("svg") and root.get("viewBox")
    polys = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polys) == 2
    assert all(e.get("fill") == "none" for e in polys)
    # viewBox carries the 5% margin around the data
    xs = [
        float(pair.split(",")[0])
        for e in polys
        for pair in e.get("points").split()
    ]
    vb = [float(v) for v in root.get("viewBox").split()]
    assert vb[0] < min(xs) and vb[0] + vb[2] > max(xs)

    root = ET.parse(tmp_path / "cov.svg").getroot()
    colors = {
        e.get("stroke") for e in root.iter() if e.tag.endswith("polyline")
    }
    assert colors == {"#c0392b", "#1e8449"}  # both sheets visible


def test_grid_expansion(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    body = {
        "mu": 0.0,
        "grid": {"x_range": [1.1, 1.3], "y_range": [-0.1, 0.1], "nx": 2, "ny": 3},
        "t_max": 1.0,
        "outputs": [{"kind": "original", "format": "csv", "path": "g.csv"}],
    }
    assert main(["run", "--quiet", write_config(tmp_path, body)]) == 0
    lines = (tmp_path / "g.csv").read_text().splitlines()[1:]
    starts = [ln for ln in lines if ln.startswith("0,")]
    assert len(starts) == 6


def test_config_errors(tmp_path, capsys):
    cases = [
        ({"mu": 0.0, "t_max": 1.0, "initial_states": [], "outputs": []},
         "initial_states"),
        ({"mu": 0.0, "t_max": 1.0, "initial_states": [[0, 1]], "outputs": [],
          "bogus": 1}, "bogus"),
        ({"mu": 0.0, "t_max": 1.0, "outputs": []}, "exactly one"),
        ({"mu": 0.0, "t_max": 1.0, "initial_states": [[0, 1]],
          "grid": {"x_range": [0, 1], "y_range": [0, 1], "nx": 1, "ny": 1},
          "outputs": []}, "exactly one"),
        ({"mu": 0.0, "t_max": 1.0, "initial_states": [[0, 1]],
          "integrator": {"t_max": 5.0}, "outputs": []}, "integrator.t_max"),
        ({"mu": 0.0, "t_max": 1.0, "initial_states": [[0, 1]],
          "outputs": [{"kind": "3d", "format": "csv", "path": "x"}]}, "kind"),
        ({"mu": -1.0, "t_max": 1.0, "initial_states": [[0, 1]], "outputs": []},
         "mu"),
        ({"mu": 0.0, "t_max": 1.0, "initial_states": [[0, 1]],
          "outputs": [{"kind": "original", "format": "csv"}]}, "path"),
        # the stepper is not selectable: rk45 is the only one
        ({"mu": 0.0, "t_max": 1.0, "initial_states": [[0, 1]],
          "integrator": {"method": "rk45"}, "outputs": []},
         "integrator: unknown field(s) method"),
    ]
    for body, fragment in cases:
        code = main(["run", write_config(tmp_path, body)])
        err = capsys.readouterr().err
        assert code == 2, body
        assert fragment in err, (body, err)


def test_malformed_json_names_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"mu": 0.0,\n  "t_max": oops}')
    assert main(["run", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_a_scenario_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    # a valid scenario and one byte 0xff: a config error, not a traceback
    path = small_scenario(tmp_path)
    with open(path, "ab") as f:
        f.write(b"\xff")
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: not UTF-8: "), err
    assert sorted(os.listdir(tmp_path)) == ["scn.json"]


@pytest.mark.parametrize("given_twice, key", [
    ('"mu": 0.0', "mu"), ('"path": "cov.csv"', "path")], ids=["mu", "outputs-path"])
def test_a_key_given_twice_exits_2_naming_it(tmp_path, monkeypatch, capsys,
                                             given_twice, key):
    # JSON keeps a repeated key's last value, which would run mu 0.5 or
    # write the second path; a scenario refuses it and writes nothing
    monkeypatch.chdir(tmp_path)
    path = small_scenario(tmp_path)
    text = (tmp_path / "scn.json").read_text()
    assert given_twice in text
    (tmp_path / "scn.json").write_text(text.replace(given_twice,
                                                    f'{given_twice}, "{key}": 0.5'))
    assert main(["run", path]) == 2
    assert capsys.readouterr().err == f'config error: {path}: duplicate key "{key}"\n'
    assert sorted(os.listdir(tmp_path)) == ["scn.json"]


def test_missing_config(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "no_such_scenario" in capsys.readouterr().err


@pytest.mark.parametrize("what", ["directory", "pipe"])
def test_a_config_path_names_a_file_or_pipe_not_a_directory(tmp_path, monkeypatch,
                                                            capsys, what):
    # a directory named fig1 is no scenario file, so fig1 runs the bundled
    # one; a pipe (run /dev/stdin, or <(cat s.json) in a shell) is read
    monkeypatch.chdir(tmp_path)
    if what == "directory":
        (tmp_path / "fig1").mkdir()
        assert main(["run", "fig1"]) == 0
        written = ["fig1_original.csv", "fig1_portrait.svg"]
    else:
        if sys.platform != "linux":
            pytest.skip("a pipe named by /dev/fd")
        small_scenario(tmp_path)
        r, w = os.pipe()
        with open(w, "wb") as f:
            f.write((tmp_path / "scn.json").read_bytes())
        try:
            assert main(["run", f"/dev/fd/{r}"]) == 0
        finally:
            os.close(r)
        written = ["out.csv", "cov.csv", "out.svg"]
    assert capsys.readouterr().out == "".join(f"wrote {name}\n" for name in written)


def test_integration_failure_names_state(tmp_path, capsys):
    cfg = small_scenario(
        tmp_path, integrator={"max_steps": 10}, t_max=50.0,
        initial_states=[[0.0, 1.0]],
    )
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert "#0" in err and "(0, 1)" in err


def test_verify_single_check(capsys):
    assert main(["verify", "--only", "check_winding"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    rep = json.loads(out[0])
    assert rep["name"] == "check_winding" and rep["passed"] is True


def test_verify_impossible_tolerance(capsys):
    assert main(["verify", "--only", "check_roundtrip", "--tolerance", "1e-16"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out.strip())["passed"] is False
    assert "check_roundtrip" in captured.err
    # zero is a valid tolerance, reported as a failure like any other
    assert main(["verify", "--only", "check_roundtrip", "--tolerance", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["tolerance"] == 0.0


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1"])
def test_verify_bad_tolerance_exits_2(capsys, tolerance):
    assert main(["verify", f"--tolerance={tolerance}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "tolerance" in captured.err


@pytest.mark.parametrize("tolerance", [True, "1e-6", 10**400],
                         ids=["bool", "string", "huge-int"])
def test_run_check_rejects_bad_tolerance(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        run_check("check_roundtrip", tolerance=tolerance)


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
def test_verify_seed_that_would_alias_exits_2(capsys, seed):
    # the generator's states are mod 2**64: -1 would run 2**64 - 1 and
    # 2**64 would run 0, so both are refused before any report
    assert main(["verify", "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seed" in captured.err


def test_verify_largest_seed_runs(capsys):
    assert main(["verify", "--only", "check_roundtrip", "--seed", str(2**64 - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_unknown_check(capsys):
    assert main(["verify", "--only", "check_bogus"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_only_an_empty_name_exits_2(capsys):
    # "" names no check: it is unknown, not a request for every check
    assert main(["verify", "--only", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("unknown check ''")


def test_verify_seed_is_42_whatever_the_environment(monkeypatch, capsys):
    # --seed is the one way to give the seed; no variable stands in for it
    assert main(["verify", "--only", "check_roundtrip", "--seed", "42"]) == 0
    want = capsys.readouterr().out
    monkeypatch.setenv("DUFFING_SEED", "abc")
    assert main(["verify", "--only", "check_roundtrip"]) == 0
    assert capsys.readouterr().out == want


def test_field_command(capsys):
    assert main(["field", "--at", "0,1", "--mu", "0.1"]) == 0
    assert capsys.readouterr().out.strip() == "1 -0.10000000000000001"
    assert main(["field", "--at=-1,0", "--covered"]) == 0
    assert capsys.readouterr().out.strip() == "0 2"
    assert main(["field", "--at", "zero,one"]) == 2


@pytest.mark.parametrize("covered", [False, True], ids=["original", "covered"])
def test_field_that_overflows_exits_2_naming_the_point(capsys, covered):
    # x^3 overflows at x = 1e200; RuntimeWarnings fail the suite, so the
    # covered field's overflow must not warn either
    assert main(["field", "--at", "1e200,1"] + ["--covered"] * covered) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"the field at ({_fmt(1e200)}, 1) is not finite"), err


@pytest.mark.parametrize("covered", [False, True], ids=["original", "covered"])
@pytest.mark.parametrize("at", ["nan,0", "inf,1", "1,-inf"])
def test_field_at_a_non_finite_point_exits_2_naming_at(capsys, at, covered):
    assert main(["field", "--at", at] + ["--covered"] * covered) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"--at expects 'x,y' of two finite numbers, got {at!r}\n"


# SHA-256 of each bundled figure's CSV, as recorded for the benchmark's
# figures workload: the regression oracle for byte-identical outputs
FIGURE_DIGESTS = {
    "fig1_original.csv":
        "0c0893ea10078fdfcdd5bd0fc41419998fed57fd757a55b97ae4af9ed770eaea",
    "fig2_covered.csv":
        "153aa8a606a1cabbf3f1874920b143446e067956508869f8ac243de7ee584518",
    "fig3_original.csv":
        "51235472cb927ccd4eedfba82194b994cf37b69c4845194b156e9a6e22ff3d8c",
    "fig4_energy_angle.csv":
        "082083a5e134645baa3d59678db6899ec5d24dc2a73e95d892e6a77b090c0260",
}


# the same for each bundled figure's SVG
FIGURE_SVG_DIGESTS = {
    "fig1_portrait.svg":
        "d333cc2788803c8757d0825512774d70694651f39647288b83ca6d2f98bedf6f",
    "fig2_portrait.svg":
        "9b3352ac6962aaf02a7f48114ff68a5af40b7278753ea4729090aeef52ff6c47",
    "fig3_portrait.svg":
        "ed5ae368fdedd2d5aa961346705b2e0c873e57812d2731d5243dee46e8e73606",
    "fig4_energy_angle.svg":
        "f4cc572102d47d85dece2b3759e1d0375b85379e2dc2874fa08b7a375a331187",
}


def test_bundled_figures_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("fig1", "fig2", "fig3", "fig4"):
        assert main(["run", "--quiet", name]) == 0
    for out, digest in {**FIGURE_DIGESTS, **FIGURE_SVG_DIGESTS}.items():
        assert hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() == digest, out


def test_bundled_fig4_spiral_is_monotone(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--quiet", "fig4"]) == 0
    lines = (tmp_path / "fig4_energy_angle.csv").read_text().splitlines()
    assert lines[0] == "theta_unwrapped,h"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    order = np.argsort(data[:, 0])
    assert np.all(np.diff(data[order, 1]) >= 0.0)


def test_load_scenario_is_strict_about_grid(tmp_path):
    body = {
        "mu": 0.0,
        "t_max": 1.0,
        "grid": {"x_range": [0, 1], "y_range": [0, 1], "nx": 0, "ny": 2},
        "outputs": [],
    }
    with pytest.raises(ConfigError, match="nx"):
        load_scenario(write_config(tmp_path, body))


def test_energy_angle_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    body = {
        "mu": 0.1,
        "initial_states": [[0.0, 1.5]],
        "t_max": 20.0,
        "outputs": [
            {"kind": "energy_angle", "format": "csv", "path": "ea.csv"},
        ],
    }
    assert main(["run", "--quiet", write_config(tmp_path, body)]) == 0
    lines = (tmp_path / "ea.csv").read_text().splitlines()
    assert lines[0] == "theta_unwrapped,h"
    theta = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
    h = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert np.all(np.diff(theta) < 0.0)
    order = np.argsort(theta)
    assert np.all(np.diff(h[order]) >= -1e-12)
    assert theta[0] == math.pi  # launch from the y-axis covers to the cut


def _base_text(states: str = "[[1.2, 0.0]]", mu: str = "0.0", grid: str = "",
               integrator: str = "{}", t_max: str = "1.0") -> str:
    where = f'"grid": {grid}' if grid else f'"initial_states": {states}'
    return (
        f'{{"mu": {mu}, "t_max": {t_max}, {where}, "integrator": {integrator}, '
        '"outputs": [{"kind": "original", "format": "csv", "path": "o.csv"}]}'
    )


@pytest.mark.parametrize(
    "text, field",
    [
        (_base_text(states="[[NaN, 0.0]]"), "scenario.initial_states[0][0]"),
        (_base_text(mu="Infinity"), "scenario.mu"),
        (_base_text(states='[[1.2, 0.0], [0.5, "fast"]]'), "initial_states[1][1]"),
        (_base_text(states="[[1e400, 0.0]]"), "initial_states[0][0]"),
        (_base_text(grid='{"x_range": ["a", 1], "y_range": [0, 1], "nx": 2, '
                         '"ny": 2}'), "grid.x_range[0]"),
        (_base_text(grid='{"x_range": [0, 1], "y_range": [0, -1e999], "nx": 2, '
                         '"ny": 2}'), "grid.y_range[1]"),
        (_base_text(integrator='{"max_steps": 2.5}'), "max_steps"),
        (_base_text(integrator='{"max_steps": true}'), "max_steps"),
        (_base_text(integrator='{"step": true}'), "step"),
        (_base_text(integrator='{"max_steps": 1e400}'), "max_steps"),
        (_base_text(integrator='{"rel_tol": "1e-10"}'), "rel_tol"),
        (_base_text(integrator='{"step": 1e-20}'), "step"),
        (_base_text(t_max="1e-15"), "t_max"),
    ],
    ids=["nan-constant", "infinity-constant", "non-numeric-state",
         "non-finite-state", "non-numeric-grid", "non-finite-grid",
         "fractional-max-steps", "boolean-max-steps", "boolean-step",
         "non-finite-max-steps", "string-tolerance", "step-below-min-step",
         "t-max-below-min-step"],
)
def test_bad_numbers_exit_2_naming_the_field(tmp_path, monkeypatch, capsys, text, field):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err, err
    assert not (tmp_path / "o.csv").exists()


_EVERY_FIELD = {
    "mu": 0.0, "t_max": 1.0, "initial_states": [[1.2, 0.0]],
    "integrator": {"step": 0.01, "rel_tol": 1e-10, "abs_tol": 1e-10,
                   "max_steps": 1000},
    "outputs": [{"kind": "original", "format": "csv", "path": "o.csv"}],
    "description": "every field set",
}
_GRID = {"x_range": [0.5, 1.5], "y_range": [-0.5, 0.5], "nx": 2, "ny": 2}

# (where the token goes, the name the message starts with); a path under
# "grid" replaces initial_states with _GRID
_FIELD_PATHS = [
    (("mu",), "scenario.mu"),
    (("t_max",), "scenario.t_max"),
    (("initial_states",), "scenario.initial_states"),
    (("initial_states", 0), "scenario.initial_states[0]"),
    (("initial_states", 0, 0), "scenario.initial_states[0][0]"),
    (("initial_states", 0, 1), "scenario.initial_states[0][1]"),
    (("grid",), "grid"),
    (("grid", "x_range"), "grid.x_range"),
    (("grid", "x_range", 0), "grid.x_range[0]"),
    (("grid", "x_range", 1), "grid.x_range[1]"),
    (("grid", "y_range"), "grid.y_range"),
    (("grid", "y_range", 0), "grid.y_range[0]"),
    (("grid", "y_range", 1), "grid.y_range[1]"),
    (("grid", "nx"), "grid.nx"),
    (("grid", "ny"), "grid.ny"),
    (("integrator",), "integrator"),
    (("integrator", "step"), "integrator: step"),
    (("integrator", "rel_tol"), "integrator: rel_tol"),
    (("integrator", "abs_tol"), "integrator: abs_tol"),
    (("integrator", "max_steps"), "integrator: max_steps"),
    (("outputs",), "scenario.outputs"),
    (("outputs", 0), "outputs[0]"),
    (("outputs", 0, "kind"), "outputs[0].kind"),
    (("outputs", 0, "format"), "outputs[0].format"),
    (("outputs", 0, "path"), "outputs[0].path"),
    (("description",), "scenario.description"),
]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("keys, name", _FIELD_PATHS,
                         ids=[name for _, name in _FIELD_PATHS])
def test_every_field_refuses_non_finite_tokens(tmp_path, monkeypatch, capsys,
                                                keys, name, token):
    # json reads NaN and +-Infinity as floats; every field refuses them by
    # the rule it refuses any other value out of its type or range
    monkeypatch.chdir(tmp_path)
    body = dict(_EVERY_FIELD)
    if keys[0] == "grid":
        del body["initial_states"]
        body["grid"] = _GRID
    parent = body = json.loads(json.dumps(body))  # a deep copy
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = "@token@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body).replace('"@token@"', token))
    assert main(["run", str(path)]) == 2
    err, named = capsys.readouterr().err, f"config error: {name}"
    assert err.startswith(named) and err[len(named)] in ": ", err
    assert os.listdir(tmp_path) == ["bad.json"]


def test_energy_offset_is_an_unknown_field(tmp_path, monkeypatch, capsys):
    # H has no offset: a scenario that sets one, even to 0, does not run
    monkeypatch.chdir(tmp_path)
    cfg = small_scenario(tmp_path, c=0.0)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err == "config error: scenario: unknown field(s) c\n", err
    assert os.listdir(tmp_path) == ["scn.json"]


def test_overflowing_state_exits_3(tmp_path, capsys):
    cfg = small_scenario(tmp_path, initial_states=[[1e200, 0.0]])
    assert main(["run", cfg]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_oversize_grid_exits_2_before_expanding(tmp_path, monkeypatch, capsys):
    def grid(nx, ny):
        return _base_text(grid=f'{{"x_range": [0, 1], "y_range": [0, 1], '
                               f'"nx": {nx}, "ny": {ny}}}')

    path = tmp_path / "grid.json"
    path.write_text(grid(100, MAX_GRID_STATES // 100))
    assert len(load_scenario(str(path)).initial_states) == MAX_GRID_STATES
    # 10^18 orbits must be refused from nx and ny alone, before any array
    monkeypatch.setattr(np, "linspace", lambda *a, **k: pytest.fail("expanded"))
    path.write_text(grid(10**9, 10**9))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid") and str(MAX_GRID_STATES) in err


@pytest.mark.parametrize("path", [None, 5, "", os.path.join("missing", "o.csv"), ".",
                                  "a\u0000b.csv"],
                         ids=["null", "number", "empty", "missing-directory", "directory",
                              "nul"])
def test_bad_output_path_exits_2_before_integrating(tmp_path, monkeypatch, capsys,
                                                     path):
    # a path that is no non-empty string, holds a NUL (no file can be named
    # by it), is a directory, or is in a missing directory is refused with
    # the config: nothing integrates or is written
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "integrate_original_orbits",
                        lambda *a: pytest.fail("integrated"))
    cfg = small_scenario(
        tmp_path, outputs=[{"kind": "original", "format": "csv", "path": "o.csv"},
                           {"kind": "original", "format": "csv", "path": path}])
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: outputs[1].path: "), err
    assert repr(path) in err  # as repr quotes it, also on Windows
    assert sorted(os.listdir(tmp_path)) == ["scn.json"]


@pytest.mark.parametrize("spelling", ["same", "dotted", "absolute"])
def test_outputs_naming_one_file_exit_2_before_integrating(tmp_path, monkeypatch,
                                                            capsys, spelling):
    # the later write would silently replace the earlier output's file
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "integrate_original_orbits",
                        lambda *a: pytest.fail("integrated"))
    path = {"same": "a.csv", "dotted": os.path.join(".", "a.csv"),
            "absolute": str(tmp_path / "a.csv")}[spelling]
    cfg = small_scenario(
        tmp_path, outputs=[{"kind": "original", "format": "csv", "path": "a.csv"},
                           {"kind": "original", "format": "svg", "path": "a.svg"},
                           {"kind": "covered", "format": "csv", "path": path}])
    assert main(["run", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: outputs[2].path: {path!r}: the same "
                            "file as outputs[0].path\n")
    assert sorted(os.listdir(tmp_path)) == ["scn.json"]


@pytest.mark.parametrize("link", ["file-symlink", "directory-symlink", "hard-link"])
def test_outputs_linked_to_one_file_exit_2_before_integrating(tmp_path, monkeypatch,
                                                               capsys, link):
    # two paths of one file through a link: the later write would silently
    # replace the earlier output's file, as with equal paths.  The symlinks
    # name a file not written yet; the hard link shares an existing one's inode
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "integrate_original_orbits",
                        lambda *a: pytest.fail("integrated"))
    os.mkdir("d")
    first = os.path.join("d", "a.csv")
    try:
        if link == "file-symlink":
            os.symlink(tmp_path / first, second := "link.csv")
        elif link == "directory-symlink":
            os.symlink(tmp_path / "d", "dl", target_is_directory=True)
            second = os.path.join("dl", "a.csv")
        else:
            (tmp_path / first).write_bytes(b"kept\n")
            os.link(first, second := "hard.csv")
    except (OSError, NotImplementedError) as e:  # links need a privilege on Windows
        pytest.skip(f"the OS refuses the link: {e}")
    listed = sorted(os.listdir(tmp_path)), sorted(os.listdir("d"))
    cfg = small_scenario(
        tmp_path, outputs=[{"kind": "original", "format": "csv", "path": first},
                           {"kind": "covered", "format": "csv", "path": second}])
    assert main(["run", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: outputs[1].path: {second!r}: the same "
                            "file as outputs[0].path\n")
    assert (sorted(os.listdir(tmp_path)), sorted(os.listdir("d"))) == (
        sorted(listed[0] + ["scn.json"]), listed[1])
    if link == "hard-link":
        assert (tmp_path / first).read_bytes() == b"kept\n"


@pytest.mark.parametrize("description", [None, 5, ["a"]],
                         ids=["null", "number", "list"])
def test_bad_description_exits_2(tmp_path, capsys, description):
    assert main(["run", small_scenario(tmp_path, description=description)]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: scenario.description: expected a string, "
                   f"got {description!r}\n"), err


def test_svg_matches_per_point_format(tmp_path):
    # the bulk writer must print every point as x, -y in format(v, ".9g"),
    # -0.0 and the smallest subnormal included
    curve = np.array([[-0.0, 5e-324], [1e300, 0.0], [2.5, -0.0], [-1.0 / 3.0, 1e-7]])
    part = cli._svg_part("energy_angle", [None], [curve])
    _write_svg(str(tmp_path / "c.svg"), [part])
    root = ET.parse(tmp_path / "c.svg").getroot()
    (poly,) = [e for e in root.iter() if e.tag.endswith("polyline")]
    want = " ".join(f"{format(x, '.9g')},{format(-y, '.9g')}"
                    for x, y in curve.tolist())
    assert poly.get("points") == want
    assert want.startswith("-0,-4.94065646e-324 1e+300,-0 2.5,0 ")


def test_csv_matches_per_value_format(tmp_path, monkeypatch):
    # the bulk writer must print every value as format(v, ".17g") does
    monkeypatch.chdir(tmp_path)
    cfg = small_scenario(tmp_path, initial_states=[[0.0, 1.0], [-1.3, -0.0]])
    assert main(["run", "--quiet", cfg]) == 0
    p = Params()
    cfg_obj = load_scenario(cfg).integrator
    expected = ["t,x1,y1,sheet"]
    for s0 in (State(0.0, 1.0), State(-1.3, -0.0)):
        traj = integrate_original(s0, p, cfg_obj)
        for i in range(len(traj)):
            expected.append(",".join(
                [format(float(v), ".17g") for v in
                 (traj.t[i], traj.covered[i, 0], traj.covered[i, 1])]
                + ["U" if traj.sheets[i] > 0 else "L"]))
    assert (tmp_path / "cov.csv").read_text().splitlines() == expected


def _csv_of(values) -> bytes:
    """values, as float64, through the CSV formatter: rows of two, the
    second column the first reversed."""
    v = np.asarray(values, dtype=np.float64)
    f = io.BytesIO()
    for lo in range(0, v.size, 1 << 16):  # bounded memory for a long sweep
        part = v[lo : lo + (1 << 16)]
        cli._write_table(f, "energy_angle", [(None, np.column_stack((part, part[::-1])))])
    return f.getvalue()


def _format_of(values) -> bytes:
    """The reference: format(v, ".17g") of each value, laid out as _csv_of."""
    v = np.asarray(values, dtype=np.float64)
    return "".join(
        f"{format(a, '.17g')},{format(b, '.17g')}\n"
        for lo in range(0, v.size, 1 << 16)
        for a, b in zip(v[lo : lo + (1 << 16)].tolist(),
                        v[lo : lo + (1 << 16)][::-1].tolist())).encode()


_BITS = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(_BITS, st.floats()), min_size=1, max_size=64))
def test_csv_formatter_matches_format_on_any_float(values):
    # any bit pattern: both signs, subnormals, +-0, inf and nan, besides
    # hypothesis' own choice of floats
    assert _csv_of(values) == _format_of(values)


def test_csv_formatter_matches_format_on_a_seeded_sweep():
    # 10**6 values, |v| log-uniform from 1e-6 to 1e18: the fast path's range
    # [1e-4, 1e16) and both fallbacks beyond it
    rng = np.random.default_rng(33)
    v = 10.0 ** rng.uniform(-6.0, 18.0, 1_000_000) * rng.choice((-1.0, 1.0), 1_000_000)
    assert _csv_of(v) == _format_of(v)


def _ties() -> list[float]:
    """m / 2**(17 - e) for odd m, in [10**e, 10**(e + 1)) for e = -4..15:
    times 10**(16 - e) it is m * 5**(16 - e) / 2, an odd number of halves,
    so its 17 digits are an exact tie."""
    ties = []
    for e in range(-4, 16):
        lo = math.ceil(Fraction(10) ** e * 2 ** (17 - e)) | 1
        ties += [(m / 2 ** (17 - e), e) for m in range(lo, lo + 40, 2)]
    assert all((Fraction(v) * Fraction(10) ** (16 - e)).denominator == 2 for v, e in ties)
    return [v for v, _ in ties]


def test_csv_formatter_matches_format_on_edge_cases():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    values = [1e-4, 9.9999999999999991e-05, 1e16, 9999999999999998.0, 1e17, 0.1, 0.5,
              20.0, -0.0, 0.0, 5e-324, math.inf, -math.inf, math.nan, *_ties(),
              *(float(2**53 + k) * 2.0**j for j in range(-62, 8) for k in range(40))]
    for p in powers:
        values += [p, -p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    assert _csv_of(values) == _format_of(values)
    split = _split_values()
    assert _csv_of(split) == _format_of(split)
    # one chunk: fast-path values among those whose garbage D wraps in the
    # int32 halves (1e300's D is int64's least, NaN's and inf's too)
    mixed = [*split[:8], 0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
             -5e-324, 1e300, -1e300, 0.1, -20.0]
    assert _csv_of(mixed) == _format_of(mixed)
    assert _csv_of([0.1, 20.0, -0.0, 5e-324]) == (
        b"0.10000000000000001,4.9406564584124654e-324\n20,-0\n"
        b"-0,20\n4.9406564584124654e-324,0.10000000000000001\n")


def _split_values() -> list[float]:
    """Values whose 17 digits D sit on the formatter's int32 split of D into
    hi = D // 10**9 and lo = D - hi * 10**9, both signs, for every exponent
    e in -4..15: the first of 100 candidates whose digits end in nine 0s
    (lo = 0), and in nine 9s (lo = 10**9 - 1) where one does; 10**e (D =
    10**16, hi = 10**7; 0.1 prints one more digit); and the largest double
    below 10**(e + 1) (hi = 10**8 - 1).  No double has D = 10**17 - 1: the
    gap below 10**(e + 1) is at least 2**-53 of it, more than the 1.5e-17
    that D needs."""
    def digits(v):  # D, as 17 characters
        return format(v, ".16e")[:18].replace(".", "")

    values, tails = [], {"0" * 9: 0, "9" * 9: 0}
    for e in range(-4, 16):
        for tail in tails:
            found = [v for hi in range(12345678, 12345778)
                     for v in [float(f"{hi}{tail}e{e - 16}")] if digits(v).endswith(tail)]
            tails[tail] += bool(found)
            values += found[:1]
        values += [float(f"1e{e}"), math.nextafter(float(f"1e{e + 1}"), 0.0)]
        assert digits(values[-2]) == ("10000000000000001" if e == -1 else "1" + "0" * 16)
        assert digits(values[-1]).startswith("9" * 8)
    assert tails == {"0" * 9: 20, "9" * 9: 12}
    return [x for v in values for x in (v, -v)]


def _digit_row(v: float) -> int:
    """The row of cli._KEEP that lays out format(v, ".17g") for 1e-4 <= |v|
    < 1e16: (s*20 + e+4)*17 + l for sign s, exponent e and last nonzero
    digit l of the 17 digits printed."""
    sign, digits, exponent = Decimal(format(v, ".17g")).normalize().as_tuple()
    return (sign * 20 + len(digits) + exponent - 1 + 4) * 17 + len(digits) - 1


def _digit_row_values() -> list[float]:
    """One value for each digit row of cli._KEEP, both signs: for every
    exponent e in -4..15 and last nonzero digit l in 0..16, an integer
    (10**l + 1 or 1) * 10**(e - l) if l <= e; else the dyadic rational
    m / 2**k = m * 5**k / 10**k with k = l - e and m the least odd number
    giving l + 1 digits, an exact decimal; else the first short decimal
    n * 10**(e - l) (n of l + 1 digits, the last nonzero) whose double
    prints as itself.  No dyadic has the digits of 12 rows (e = -4 and l
    = 0..5, -3 and 0..3, -2 and 0..1): no odd m gives l + 1 digits there,
    for m * 5**k has more; a short decimal does, 1e-4 or 1.1e-4 say."""
    values = []
    for e, l in itertools.product(range(-4, 16), range(17)):
        k, m = l - e, math.ceil(Fraction(10) ** e * 2 ** max(l - e, 0)) | 1
        if k <= 0:
            v = float((10**l + (l > 0)) * 10**-k)
        elif m * 5**k < 10 ** (l + 1):
            v = m / 2**k
        else:
            v = next(v for n in range(10**l, 10 ** (l + 1)) if n % 10
                     for v in [float(f"{n}e{e - l}")]
                     if _digit_row(v) == (e + 4) * 17 + l)
        assert _digit_row(v) == (e + 4) * 17 + l
        values += [v, -v]
    return values


def test_csv_formatter_lays_out_every_digit_row(monkeypatch):
    # the sweeps above rarely print trailing zeros, and each value's last
    # nonzero digit picks its row of _KEEP: here every one of the 680 digit
    # rows (2 signs x 20 exponents x 17 last digits) formats a value, and
    # no value falls back to format itself
    picked = set()

    class Recorded(np.ndarray):
        def take(self, rows, *args, **kwargs):
            picked.update(np.unique(rows).tolist())
            return np.asarray(self).take(rows, *args, **kwargs)

    monkeypatch.setattr(cli, "_KEEP", cli._KEEP.view(Recorded))
    values = _digit_row_values()
    assert sorted(map(_digit_row, values)) == list(range(680))
    assert _csv_of(values) == _format_of(values)
    assert picked == set(range(680))


@pytest.mark.parametrize("chunk_rows", [1, 100, cli.CSV_CHUNK_ROWS])
@pytest.mark.parametrize("kind", KINDS)
def test_write_rows_matches_format_row_by_row(kind, chunk_rows, monkeypatch):
    # every kind, a chunk a single orbit, several, or the default size;
    # the starts cross the cut (both sheets) and sit on the axes (zeros)
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
    p, cfg = Params(mu=0.1), integrate.IntegratorConfig(t_max=15.0)
    trajs = [integrate_original(s0, p, cfg) for s0 in
             (State(0.0, 1.5), State(-1.3, -0.0), State(0.5, 0.2), State(2.0, 0.0))]
    curves = [energy_angle_curve(traj) for traj in trajs]
    f = io.BytesIO()
    cli._write_rows(f, kind, trajs, curves)
    expected = []
    for traj, curve in zip(trajs, curves):
        if kind == "energy_angle":
            rows = curve
        else:
            rows = np.column_stack((traj.t, traj.covered if kind == "covered" else traj.states))
        for i, row in enumerate(rows.tolist()):
            sheet = [("U" if traj.sheets[i] > 0 else "L")] if kind == "covered" else []
            expected.append(",".join([format(x, ".17g") for x in row] + sheet))
    assert f.getvalue().decode().splitlines() == expected
    if kind == "covered":
        assert {line[-1] for line in expected} == {"U", "L"}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_many_orbit_run_matches_per_orbit_csv(tmp_path, monkeypatch, rng):
    # 64 orbits reach the lockstep kernel, which the bundled figures
    # (at most 10 orbits) never do
    monkeypatch.chdir(tmp_path)
    n = 64
    assert n >= _kernels.MIN_LANES
    states = np.column_stack((rng.uniform(-2.0, 2.0, n), rng.uniform(-1.5, 1.5, n)))
    outputs = [{"kind": "covered", "format": "csv", "path": "cov.csv"},
               {"kind": "original", "format": "csv", "path": "out.csv"}]
    cfg = small_scenario(
        tmp_path, initial_states=states.tolist(), t_max=5.0, outputs=outputs
    )
    assert main(["run", "--quiet", cfg]) == 0
    scn = load_scenario(cfg)
    trajs = [integrate_original(s0, Params(), scn.integrator)
             for s0 in scn.initial_states]
    for kind, name, header in (("covered", "cov.csv", b"t,x1,y1,sheet\n"),
                               ("original", "out.csv", b"t,x,y\n")):
        with open(f"ref_{name}", "wb") as f:
            f.write(header)
            cli._write_rows(f, kind, trajs, [None] * n)
        assert _sha256(tmp_path / name) == _sha256(tmp_path / f"ref_{name}")


def test_overflowing_state_in_many_orbit_run_exits_3(tmp_path, monkeypatch, capsys):
    # state #k overflows inside the lockstep; the run reports it as the
    # one-orbit-at-a-time loop does, and writes nothing
    monkeypatch.chdir(tmp_path)
    k = 17
    states = [[0.1 * i - 2.0, 0.5] for i in range(_kernels.MIN_LANES + 8)]
    states[k] = [1e200, 0.0]
    cfg = small_scenario(tmp_path, initial_states=states)
    assert main(["run", cfg]) == 3
    with pytest.raises(StepFailure) as scalar:
        integrate_original(State(1e200, 0.0), Params(), load_scenario(cfg).integrator)
    assert capsys.readouterr().err == (
        f"integration failed for initial state #{k} ({_fmt(1e200)}, {_fmt(0.0)}): "
        f"{scalar.value}\n"
    )
    assert not (tmp_path / "out.csv").exists()


FORKED = pytest.mark.skipif(sys.platform != "linux",
                            reason="orbits are split over processes on Linux only")


def _usable_cpus(monkeypatch, n: int, least_work: float = 0.0) -> None:
    """n usable CPUs; a block of least_work estimated steps is worth a fork
    (by default any block, so that small test runs split)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(cli, "MIN_BLOCK_WORK", least_work)


def _counted_forks(monkeypatch) -> list:
    """A list that grows by one at each os.fork of this process."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_EVERY_OUTPUT = [{"kind": kind, "format": fmt, "path": f"{kind}.{fmt}"}
                 for kind in KINDS for fmt in FORMATS]


@FORKED
@pytest.mark.parametrize("states, cpus, bounds", [
    # the cut splits the mirror pair 1, 2 (a signed zero): each block
    # integrates that class, and block 2-4 also holds the mirror pair 3, 4
    ([[1.2, 0.0], [0.0, 1.0], [-0.0, -1.0], [0.5, 0.2], [-0.5, -0.2]], 2, [0, 2, 5]),
    ([[1.2, 0.0], [0.0, 1.0], [-1.3, -0.1], [0.5, 0.2], [1.5, 0.5]], 3, [0, 2, 3, 5]),
    ([[1.2, 0.0], [0.0, 1.0], [-1.3, -0.1]], 8, [0, 1, 2, 3]),
    ([[0.0, 1.0]], 8, [0, 1]),
], ids=["two-workers", "three-workers", "more-workers-than-orbits", "one-orbit"])
def test_split_csv_is_byte_identical(tmp_path, monkeypatch, states, cpus, bounds):
    # every CSV and SVG is what one process writes; a block process
    # formats all of its outputs, so there is one fork per block but the
    # first.  Every block is worth a fork here (_usable_cpus)
    monkeypatch.chdir(tmp_path)
    cfg = small_scenario(tmp_path, mu=0.1, initial_states=states, t_max=5.0,
                         outputs=_EVERY_OUTPUT)
    names = [out["path"] for out in _EVERY_OUTPUT]
    counted = _counted_forks(monkeypatch)
    _usable_cpus(monkeypatch, 1)
    assert main(["run", "--quiet", cfg]) == 0
    assert counted == []
    one_process = {name: (tmp_path / name).read_bytes() for name in names}

    _usable_cpus(monkeypatch, cpus)
    assert cli._bounds(load_scenario(cfg)) == bounds
    assert main(["run", "--quiet", cfg]) == 0
    assert len(counted) == len(bounds) - 2
    for name in names:
        assert (tmp_path / name).read_bytes() == one_process[name], name
    assert sorted(os.listdir(tmp_path)) == sorted(names + ["scn.json"])
    _no_child_left()


@FORKED
def test_output_that_is_no_regular_file_is_split(tmp_path, monkeypatch, capsys):
    # the blocks' rows wait in the system temporary directory, so an output
    # that is no regular file (/dev/null, a pipe) splits like any other
    _usable_cpus(monkeypatch, 2)
    cfg = small_scenario(tmp_path, outputs=[
        {"kind": "covered", "format": "csv", "path": os.devnull}])
    bounds = cli._bounds(load_scenario(cfg))
    assert bounds == [0, 1, 2]
    forks = _counted_forks(monkeypatch)
    assert main(["run", cfg]) == 0
    assert len(forks) == len(bounds) - 2
    assert capsys.readouterr().out == f"wrote {os.devnull}\n"
    _no_child_left()


@FORKED
def test_bundled_figures_cut_by_work(monkeypatch):
    # fig1 and fig2: the three well orbits and their mirrors (classes of
    # orbits 0-5) and the first outer orbit, then the three costlier outer
    # ones; fig3 (mu 0.1): its two outer starts, which damping drains, then
    # the mirror pair.  Measured with `run` on a 2-vCPU Xeon (medians of
    # 60-100 runs, ms):
    # fig1 37.5 at [0, 5, 10], 34.1 at [0, 6, 10], 29.9 at [0, 7, 10] and
    # 32.4 at [0, 8, 10]; fig2 39.7 at [0, 5, 10], 31.7 at [0, 7, 10]; fig3
    # 30.0 at [0, 2, 4], 32.8 at [0, 1, 4]
    _usable_cpus(monkeypatch, 2, cli.MIN_BLOCK_WORK)
    assert [cli._bounds(load_scenario(fig)) for fig in ("fig1", "fig2", "fig3", "fig4")] \
        == [[0, 7, 10], [0, 7, 10], [0, 2, 4], [0, 1]]
    # with 64 CPUs every block must still be worth a fork.  fig1's first
    # cut splits the class of +-1.38 (orbits 2 and 5); its slowest block,
    # the two outermost orbits [8, 10), is the one [0, 6, 8, 10] made
    _usable_cpus(monkeypatch, 64, cli.MIN_BLOCK_WORK)
    assert [cli._bounds(load_scenario(fig)) for fig in ("fig1", "fig3")] \
        == [[0, 5, 8, 10], [0, 1, 2, 4]]


@FORKED
def test_symmetric_grid_is_cut(tmp_path, monkeypatch):
    # np.linspace makes mirror pairs i, 399 - i that straddle every index;
    # the cut splits them and balances the work (the CI workflow's grid)
    _usable_cpus(monkeypatch, 2, cli.MIN_BLOCK_WORK)
    cfg = write_config(tmp_path, {
        "mu": 0.0, "t_max": 20.0,
        "grid": {"x_range": [-2.0, 2.0], "y_range": [-1.5, 1.5], "nx": 20, "ny": 20},
        "outputs": [{"kind": "covered", "format": "csv", "path": "g.csv"},
                    {"kind": "covered", "format": "svg", "path": "g.svg"}]})
    assert cli._bounds(load_scenario(cfg)) == [0, 192, 400]


_COORDS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.2, -1.2, 1.38, 2.0, -2.0, 1e200])


@FORKED
@settings(max_examples=200, deadline=None)
@given(picks=st.lists(st.tuples(_COORDS, _COORDS,
                                st.sampled_from(["new", "same", "mirror"]),
                                st.integers(0, 23)), min_size=1, max_size=24),
       cpus=st.integers(1, 8), t_max=st.sampled_from([0.5, 3.0, 20.0, 100.0]),
       least_work=st.sampled_from([0.0, cli.MIN_BLOCK_WORK]))
def test_bounds_rise_with_a_block_per_cpu_at_most(picks, cpus, t_max, least_work):
    # a start equal (==) to an earlier one, or to its negative, shares its
    # lane and is charged no integration; the bounds rise strictly and
    # number at most a block per CPU.  A start may repeat or mirror an
    # earlier one (k), so that classes interleave
    states = []
    for x, y, kind, k in picks:
        if kind != "new" and states:
            x, y = states[k % len(states)]
            x, y = (-x, -y) if kind == "mirror" else (x, y)
        states.append((x, y))
    scn = replace(load_scenario("fig1"),
                  initial_states=tuple(State(x, y) for x, y in states),
                  integrator=integrate.IntegratorConfig(t_max=t_max))
    with pytest.MonkeyPatch.context() as mp:
        _usable_cpus(mp, cpus, least_work)
        bounds = cli._bounds(scn)
    assert bounds[0] == 0 and bounds[-1] == len(states)
    assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
    assert len(bounds) - 1 <= cpus


@FORKED
def test_two_orbit_run_forks_nothing(tmp_path, monkeypatch):
    # a fork, the file of its result and its reap cost more than half of this run
    # (MIN_BLOCK_WORK): 2 CPUs and the real threshold leave one process
    monkeypatch.chdir(tmp_path)
    _usable_cpus(monkeypatch, 2, cli.MIN_BLOCK_WORK)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    cfg = small_scenario(tmp_path, t_max=20.0, outputs=[
        {"kind": "original", "format": "csv", "path": "out.csv"},
        {"kind": "original", "format": "svg", "path": "out.svg"}])
    assert cli._bounds(load_scenario(cfg)) == [0, 2]
    assert main(["run", "--quiet", cfg]) == 0
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.svg", "scn.json"]


def test_one_worker_off_linux(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "platform", "win32")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: pytest.fail("asked"),
                        raising=False)
    assert cli._bounds(load_scenario("fig1")) == [0, 10]
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--quiet", small_scenario(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["cov.csv", "out.csv", "out.svg", "scn.json"]


def _outputs_in(directory) -> list:
    return [{"kind": "covered", "format": "csv", "path": str(directory / "cov.csv")},
            {"kind": "original", "format": "svg", "path": str(directory / "o.svg")}]


@FORKED
@pytest.mark.parametrize("failing", ["child", "parent", "killed", "one-block"])
def test_failed_block_exits_2_and_reaps_every_child(tmp_path, monkeypatch, capsys,
                                                    failing):
    # a block that cannot write its rows to its temporary file leaves every
    # output as it was, with one block (1 CPU) as with four
    out = tmp_path / "out"
    out.mkdir()
    (out / "cov.csv").write_bytes(b"earlier run\n")
    cfg = small_scenario(
        tmp_path, initial_states=[[1.2, 0.0], [0.0, 1.0], [-1.3, -0.1], [0.5, 0.2]],
        outputs=_outputs_in(out))
    _usable_cpus(monkeypatch, 1 if failing == "one-block" else 4)
    parent = os.getpid()
    write_rows = cli._write_rows

    def write_or_fail(f, *args):
        if (os.getpid() == parent) == (failing in ("parent", "one-block")):
            if failing == "killed":
                os._exit(7)  # a child that dies without a word
            raise OSError(errno.ENOSPC, "No space left on device")
        write_rows(f, *args)

    monkeypatch.setattr(cli, "_write_rows", write_or_fail)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: cannot write output: " + (
        "a block process exited with status 7" if failing == "killed"
        else f"{out / 'cov.csv'}: [Errno 28] No space left on device") + "\n")
    # nothing written beside the earlier output
    assert os.listdir(out) == ["cov.csv"]
    assert (out / "cov.csv").read_bytes() == b"earlier run\n"
    _no_child_left()


@FORKED
@pytest.mark.parametrize("failing", ["none", "killed", "write", "integration"])
def test_run_leaks_no_descriptor_and_leaves_no_child(tmp_path, monkeypatch, capsys,
                                                      failing):
    # a raw descriptor left open is no file object, so no ResourceWarning
    # shows it: the process holds the same descriptors after a run over 4
    # blocks, whether it succeeds or a child dies, cannot write its rows
    # or fails to integrate
    states = [[1.2, 0.0], [0.0, 1.0], [-1.3, -0.1], [0.5, 0.2]]
    if failing == "integration":
        states[2] = [1e200, 2.0]
    cfg = small_scenario(tmp_path, initial_states=states, outputs=_outputs_in(tmp_path))
    _usable_cpus(monkeypatch, 4)
    assert cli._bounds(load_scenario(cfg)) == [0, 1, 2, 3, 4]
    parent = os.getpid()
    write_rows = cli._write_rows

    def write_or_fail(f, *args):
        if os.getpid() != parent and failing == "killed":
            os._exit(7)
        if os.getpid() != parent and failing == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        write_rows(f, *args)

    monkeypatch.setattr(cli, "_write_rows", write_or_fail)
    code, err = {
        "none": (0, ""),
        "killed": (2, "config error: cannot write output: a block process exited "
                      "with status 7\n"),
        "write": (2, f"config error: cannot write output: {tmp_path / 'cov.csv'}: "
                     "[Errno 28] No space left on device\n"),
        "integration": (3, "integration failed for initial state #2 "),
    }[failing]
    before = sorted(os.listdir("/proc/self/fd"))
    assert main(["run", "--quiet", cfg]) == code
    assert sorted(os.listdir("/proc/self/fd")) == before
    got = capsys.readouterr().err
    assert got.startswith(err) if failing == "integration" else got == err
    _no_child_left()


@pytest.mark.parametrize("failing", ["csv", "svg"])
def test_failed_output_write_exits_2_naming_the_output(tmp_path, monkeypatch, capsys,
                                                        failing):
    # the rows are ready; copying them into the CSV output, or renaming the
    # complete SVG over its output, fails with no space left.  The output
    # from an earlier run keeps its bytes and the new file is removed
    monkeypatch.chdir(tmp_path)

    def no_space(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    if failing == "csv":
        monkeypatch.setattr(cli.shutil, "copyfileobj", no_space)
    else:
        rename = os.replace
        monkeypatch.setattr(cli.os, "replace", lambda new, old: (
            no_space() if old.endswith("o.svg") else rename(new, old)))
    cfg = small_scenario(tmp_path, outputs=_outputs_in(tmp_path))
    for name in ("cov.csv", "o.svg"):
        (tmp_path / name).write_bytes(b"earlier run\n")
    files = sorted(os.listdir(tmp_path))
    assert main(["run", cfg]) == 2
    out, err = capsys.readouterr()
    path = tmp_path / ("cov.csv" if failing == "csv" else "o.svg")
    assert out == ("" if failing == "csv" else f"wrote {tmp_path / 'cov.csv'}\n")
    assert err == (f"config error: cannot write output: {path}: "
                   "[Errno 28] No space left on device\n")
    assert path.read_bytes() == b"earlier run\n"
    assert sorted(os.listdir(tmp_path)) == files


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX symlinks and modes")
def test_an_output_is_replaced_whole_through_its_symlink(tmp_path):
    # the new file is made beside the symlink's target and renamed over it:
    # the link stays a link, the earlier output's mode stays, and an
    # output not there before gets the umask's mode
    target = tmp_path / "data"
    target.mkdir()
    (target / "cov.csv").write_bytes(b"earlier run\n")
    (target / "cov.csv").chmod(0o600)
    (tmp_path / "cov.csv").symlink_to(target / "cov.csv")
    cfg = small_scenario(tmp_path, outputs=_outputs_in(tmp_path))
    old_mask = os.umask(0o022)
    try:
        assert main(["run", cfg, "--quiet"]) == 0
    finally:
        os.umask(old_mask)
    assert (tmp_path / "cov.csv").is_symlink()
    assert (target / "cov.csv").read_bytes().startswith(b"t,x1,y1,sheet\n0,")
    assert (target / "cov.csv").stat().st_mode & 0o777 == 0o600
    assert (tmp_path / "o.svg").stat().st_mode & 0o777 == 0o644
    assert os.listdir(target) == ["cov.csv"]


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX hard links")
def test_an_output_with_another_link_is_written_in_place(tmp_path):
    # a rename would cut the hard link: the file is written into, and both
    # names show the new bytes
    cfg = small_scenario(tmp_path, outputs=_outputs_in(tmp_path)[:1])
    (tmp_path / "cov.csv").write_bytes(b"earlier run\n")
    os.link(tmp_path / "cov.csv", tmp_path / "twin.csv")
    inode = (tmp_path / "cov.csv").stat().st_ino
    assert main(["run", cfg, "--quiet"]) == 0
    assert (tmp_path / "cov.csv").stat().st_ino == inode
    assert (tmp_path / "twin.csv").read_bytes().startswith(b"t,x1,y1,sheet\n0,")
    assert sorted(os.listdir(tmp_path)) == ["cov.csv", "scn.json", "twin.csv"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("named", [False, True], ids=["unnamed", "named"])
def test_stdout_output_reaches_the_file_stdout_writes(tmp_path, named):
    # /dev/stdout on a regular file is written through stdout's own file,
    # not replaced by rename: an unnamed file (no name to rename over) and
    # a named one (whose descriptor would keep the old file) get the rows,
    # and no file is left beside either.  Without --quiet, with sys.stdout
    # on that file too, its 'wrote' line follows the rows
    cov = _outputs_in(tmp_path)[:1]
    assert main(["run", small_scenario(tmp_path, outputs=cov), "--quiet"]) == 0
    expected = (tmp_path / "cov.csv").read_bytes()
    cfg = small_scenario(tmp_path, outputs=[{**cov[0], "path": "/dev/stdout"}])
    (tmp_path / "cov.csv").unlink()
    files = sorted(os.listdir(tmp_path) + ["cov.csv"] * named)
    for quiet in (True, False):
        with (open(tmp_path / "cov.csv", "w+b") if named
              else tempfile.TemporaryFile(dir=tmp_path)) as out:
            inode = os.fstat(out.fileno()).st_ino
            saved = os.dup(1)
            os.dup2(out.fileno(), 1)
            try:
                if quiet:
                    code = main(["run", cfg, "--quiet"])
                else:
                    with (open(1, "w", closefd=False) as stdout,
                          contextlib.redirect_stdout(stdout)):
                        code = main(["run", cfg])
            finally:
                os.dup2(saved, 1)
                os.close(saved)
            out.seek(0)
            assert (code, out.read()) == (
                0, expected + b"wrote /dev/stdout\n" * (not quiet))
        assert sorted(os.listdir(tmp_path)) == files
        if named:
            assert (tmp_path / "cov.csv").stat().st_ino == inode


@pytest.mark.skipif(sys.platform == "win32", reason="a POSIX pipe with no reader")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("output", ["file", "stdout"])
def test_a_closed_stdout_exits_2_naming_stdout(tmp_path, output, unbuffered):
    # run's stdout is a pipe whose reader has gone, so its 'wrote' line, or
    # a CSV output at /dev/stdout, cannot be written: run exits 2 with one
    # line naming stdout, and neither a traceback nor Python's flush of
    # stdout at exit adds another
    path = "/dev/stdout" if output == "stdout" else str(tmp_path / "cov.csv")
    cfg = small_scenario(tmp_path, outputs=[{**_outputs_in(tmp_path)[0], "path": path}])
    paths = (os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run([sys.executable, "-m", "duffing_aa.cli", "run", cfg],
                              stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    where = "/dev/stdout" if output == "stdout" else "stdout"
    assert (done.returncode, done.stderr.decode()) == (
        2, f"config error: cannot write output: {where}: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(sys.platform == "win32", reason="a POSIX pipe with no reader")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [["verify", "--seed", "1"],
                                     ["field", "--at", "0.3,-0.7"]],
                         ids=["verify", "field"])
def test_verify_and_field_exit_2_naming_a_closed_stdout(command, unbuffered):
    # as run does: the first report, or the field's line, cannot be
    # written to a pipe whose reader has gone, so the command exits 2 with
    # one line naming stdout, and neither a traceback nor Python's flush
    # of stdout at exit adds another
    paths = (os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run([sys.executable, "-m", "duffing_aa.cli", *command],
                              stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert (done.returncode, done.stderr.decode()) == (
        2, "config error: cannot write output: stdout: [Errno 32] Broken pipe\n")


def test_a_new_file_that_cannot_be_made_exits_2_and_removes_nothing(
        tmp_path, monkeypatch, capsys):
    # the output's new file is created exclusively; a file already under
    # its name is not the run's, so it stays, as does the output
    monkeypatch.setattr(cli.os, "urandom", lambda n: b"\0" * n)
    cfg = small_scenario(tmp_path, outputs=_outputs_in(tmp_path)[:1])
    taken = tmp_path / f"cov.csv.{'00' * 6}.tmp"
    taken.write_bytes(b"someone else's\n")
    (tmp_path / "cov.csv").write_bytes(b"earlier run\n")
    assert main(["run", cfg, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot write output: {tmp_path / 'cov.csv'}: [Errno 17] ")
    assert taken.read_bytes() == b"someone else's\n"
    assert (tmp_path / "cov.csv").read_bytes() == b"earlier run\n"


@FORKED
@pytest.mark.parametrize("unwritable", [False, True], ids=["", "unwritable"])
@pytest.mark.parametrize(
    "failing", [[1], [4], [1, 4], [0, 5]],
    ids=["first-block", "later-block", "both-blocks", "block-ends"])
def test_integration_failure_in_any_block_exits_3(tmp_path, monkeypatch, capsys,
                                                  failing, unwritable):
    # blocks 0-1, 2-3 and 4-5: each failing orbit overflows (each its own
    # class, so no class spans blocks); the lowest index is reported and
    # nothing is written.  An integration failure outranks a block that
    # integrated but could not write its rows
    def no_space(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    if unwritable:
        monkeypatch.setattr(cli, "_write_rows", no_space)
    out = tmp_path / "out"
    out.mkdir()
    (out / "cov.csv").write_bytes(b"earlier run\n")
    states = [[0.2 * i - 0.7, 0.5] for i in range(6)]
    for k in failing:
        states[k] = [1e200, float(k)]
    cfg = small_scenario(tmp_path, initial_states=states, outputs=_outputs_in(out))
    _usable_cpus(monkeypatch, 3)
    assert cli._bounds(load_scenario(cfg)) == [0, 2, 4, 6]
    forks = _counted_forks(monkeypatch)
    assert main(["run", cfg]) == 3
    assert len(forks) == 2
    first = State(1e200, float(failing[0]))
    with pytest.raises(StepFailure) as alone:
        integrate_original(first, Params(), load_scenario(cfg).integrator)
    assert capsys.readouterr().err == (
        f"integration failed for initial state #{failing[0]} "
        f"({_fmt(first.x)}, {_fmt(first.y)}): {alone.value}\n"
    )
    assert os.listdir(out) == ["cov.csv"]
    assert (out / "cov.csv").read_bytes() == b"earlier run\n"
    _no_child_left()


@FORKED
def test_failed_fork_exits_2_and_stops_every_child(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    states = [[0.2 * i - 0.7, 0.5] for i in range(6)]
    cfg = small_scenario(tmp_path, initial_states=states, outputs=_outputs_in(out))
    _usable_cpus(monkeypatch, 3)
    forks = _counted_forks(monkeypatch)
    fork = os.fork

    def second_fails():
        if len(forks) == 1:  # block 1's child is running
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: cannot write output: [Errno 11] Resource temporarily "
        "unavailable\n")
    assert os.listdir(out) == []
    _no_child_left()
