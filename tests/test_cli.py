import errno
import hashlib
import json
import math
import os
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from duffing_aa import Params, State, _kernels, cli, integrate, integrate_original
from duffing_aa.cli import (
    FORMATS,
    KINDS,
    MAX_GRID_STATES,
    _fmt,
    _write_csv,
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
        "c": 0.0,
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


def test_missing_config(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "no_such_scenario" in capsys.readouterr().err


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


def test_verify_unknown_check(capsys):
    assert main(["verify", "--only", "check_bogus"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("DUFFING_SEED", "123")
    assert main(["verify", "--only", "check_roundtrip"]) == 0
    via_env = capsys.readouterr().out
    monkeypatch.delenv("DUFFING_SEED")
    assert main(["verify", "--only", "check_roundtrip", "--seed", "123"]) == 0
    via_flag = capsys.readouterr().out
    assert via_env == via_flag


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
    "mu": 0.0, "c": 0.0, "t_max": 1.0, "initial_states": [[1.2, 0.0]],
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
    (("c",), "scenario.c"),
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


def test_bad_seed_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("DUFFING_SEED", "abc")
    assert main(["verify", "--only", "check_roundtrip"]) == 2
    assert "DUFFING_SEED" in capsys.readouterr().err


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


@pytest.mark.parametrize("path", [None, 5, ""], ids=["null", "number", "empty"])
def test_bad_output_path_exits_2_before_integrating(tmp_path, monkeypatch, capsys,
                                                     path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "integrate_original_orbits",
                        lambda *a: pytest.fail("integrated"))
    cfg = small_scenario(
        tmp_path, outputs=[{"kind": "original", "format": "csv", "path": "o.csv"},
                           {"kind": "original", "format": "csv", "path": path}])
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: outputs[1].path: "), err
    assert sorted(os.listdir(tmp_path)) == ["scn.json"]


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
    for kind, name in (("covered", "cov.csv"), ("original", "out.csv")):
        _write_csv(f"ref_{name}", kind, [(trajs, [None] * n)])
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


def _usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


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
@pytest.mark.parametrize("states, cpus, forks", [
    # block 0 is orbits 0-1, block 1 orbits 2-4: the mirror pair 1, 2 is
    # cut by the boundary, the pair 3, 4 is not
    ([[1.2, 0.0], [0.0, 1.0], [-0.0, -1.0], [0.5, 0.2], [-0.5, -0.2]], 2, 1),
    ([[1.2, 0.0], [0.0, 1.0], [-1.3, -0.1], [0.5, 0.2], [1.5, 0.5]], 3, 2),
    ([[1.2, 0.0], [0.0, 1.0], [-1.3, -0.1]], 8, 2),
    ([[0.0, 1.0]], 8, 0),
], ids=["two-workers", "three-workers", "more-workers-than-orbits", "one-orbit"])
def test_split_csv_is_byte_identical(tmp_path, monkeypatch, states, cpus, forks):
    # every CSV and SVG is what one process writes; a block process
    # formats all of its outputs, so there is one fork per block
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
    assert main(["run", "--quiet", cfg]) == 0
    assert len(counted) == forks
    for name in names:
        assert (tmp_path / name).read_bytes() == one_process[name], name
    assert sorted(os.listdir(tmp_path)) == sorted(names + ["scn.json"])
    _no_child_left()


@FORKED
def test_output_that_is_no_regular_file_is_not_split(tmp_path, monkeypatch, capsys):
    # the temporary files go beside the output, and /dev may not take them
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    _usable_cpus(monkeypatch, 4)
    cfg = small_scenario(tmp_path, outputs=[
        {"kind": "covered", "format": "csv", "path": os.devnull}])
    assert main(["run", cfg]) == 0
    assert capsys.readouterr().out == f"wrote {os.devnull}\n"


@FORKED
def test_blocks_are_equal_orbit_counts_one_per_cpu(monkeypatch):
    fig1 = load_scenario("fig1")  # 10 orbits
    for cpus, bounds in [(1, [0, 10]), (2, [0, 5, 10]), (3, [0, 3, 6, 10]),
                         (4, [0, 2, 5, 7, 10]), (64, list(range(11)))]:
        _usable_cpus(monkeypatch, cpus)
        assert cli._bounds(fig1) == bounds, cpus
    # no row threshold: two orbits make two blocks, as 400 do
    _usable_cpus(monkeypatch, 2)
    for orbits in (2, 400):
        scn = replace(fig1, initial_states=fig1.initial_states[:1] * orbits)
        assert cli._bounds(scn) == [0, orbits // 2, orbits]


def test_one_worker_off_linux(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "platform", "win32")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: pytest.fail("asked"),
                        raising=False)
    assert cli._bounds(load_scenario("fig1")) == [0, 10]
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--quiet", small_scenario(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["cov.csv", "out.csv", "out.svg", "scn.json"]


def test_output_in_missing_directory_exits_2(tmp_path, monkeypatch, capsys):
    # with two blocks the temporary files cannot go there either: run falls
    # back to one block, and the error names the output, not its directory
    _usable_cpus(monkeypatch, 2)
    out = tmp_path / "missing" / "cov.csv"
    cfg = small_scenario(
        tmp_path, outputs=[{"kind": "covered", "format": "csv", "path": str(out)}])
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ")
    assert repr(str(out)) in err  # as OSError quotes it, also on Windows
    assert os.listdir(tmp_path) == ["scn.json"]


def _outputs_in(directory) -> list:
    return [{"kind": "covered", "format": "csv", "path": str(directory / "cov.csv")},
            {"kind": "original", "format": "svg", "path": str(directory / "o.svg")}]


@FORKED
@pytest.mark.parametrize("failing", ["child", "parent", "killed"])
def test_failed_block_exits_2_and_reaps_every_child(tmp_path, monkeypatch, capsys,
                                                    failing):
    out = tmp_path / "out"
    out.mkdir()
    (out / "cov.csv").write_bytes(b"earlier run\n")
    cfg = small_scenario(
        tmp_path, initial_states=[[1.2, 0.0], [0.0, 1.0], [-1.3, -0.1], [0.5, 0.2]],
        outputs=_outputs_in(out))
    _usable_cpus(monkeypatch, 4)
    parent = os.getpid()
    write_rows = cli._write_rows

    def write_or_fail(f, *args):
        if (os.getpid() == parent) == (failing == "parent"):
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
    # nothing written, no temporary file left behind
    assert os.listdir(out) == ["cov.csv"]
    assert (out / "cov.csv").read_bytes() == b"earlier run\n"
    _no_child_left()


@FORKED
@pytest.mark.parametrize("unwritable", [False, True], ids=["", "unwritable"])
@pytest.mark.parametrize(
    "failing", [[1], [4], [1, 4], [0, 5]],
    ids=["first-block", "later-block", "both-blocks", "block-ends"])
def test_integration_failure_in_any_block_exits_3(tmp_path, monkeypatch, capsys,
                                                  failing, unwritable):
    # blocks 0-1, 2-3 and 4-5: each failing orbit overflows; the lowest
    # index is reported and nothing is written.  An integration failure
    # outranks a block that integrated but could not write its rows
    def no_space(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    if unwritable:
        monkeypatch.setattr(cli, "_write_rows", no_space)
    out = tmp_path / "out"
    out.mkdir()
    (out / "cov.csv").write_bytes(b"earlier run\n")
    states = [[0.2 * i - 0.7, 0.5] for i in range(6)]
    for k in failing:
        states[k] = [1e200, 0.0]
    cfg = small_scenario(tmp_path, initial_states=states, outputs=_outputs_in(out))
    _usable_cpus(monkeypatch, 3)
    forks = _counted_forks(monkeypatch)
    assert main(["run", cfg]) == 3
    assert len(forks) == 2
    with pytest.raises(StepFailure) as alone:
        integrate_original(State(1e200, 0.0), Params(), load_scenario(cfg).integrator)
    assert capsys.readouterr().err == (
        f"integration failed for initial state #{failing[0]} "
        f"({_fmt(1e200)}, {_fmt(0.0)}): {alone.value}\n"
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
