"""Tests for config parsing, initial-data construction, and the CLI driver."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import MISSING, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlwlab
from nlwlab import (
    RadialGrid,
    load_state,
    make_params,
    reference_ode_blowup,
    save_state,
)
from nlwlab.cli import (
    ConfigError,
    build_initial,
    main,
    ode_flat_blowup_time,
    parse_config,
    profile_bump,
    profile_gaussian,
    profile_ode_flat,
    run,
    SCENARIOS,
    _CHECKS,
    _INITIAL,
    _OPTIONS,
    _RUN,
    _UNREAD,
    _check,
)


def _minimal(scenario, out="/tmp/unused"):
    return {"scenario": scenario, "output": {"dir": out}}


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_field_path_errors(tmp_path):
    out = str(tmp_path)
    cases = [
        ({}, None, "scenario"),
        ({"scenario": "evolve"}, "norms", "config says"),
        ({"scenario": "explode"}, None, "unknown scenario"),
        (_minimal("evolve"), None, "grid"),
        ({**_minimal("evolve"), "grid": {"h": -0.1, "n": 10}}, None, "grid"),
        ({**_minimal("evolve"), "grid": {"h": "wide", "n": 10}}, None, "grid.h"),
        ({**_minimal("evolve"), "grid": {"h": 0.1, "n": True}}, None, "grid.n"),
        ({**_minimal("evolve"), "grid": {"h": 0.1, "n": 10}}, None, "initial"),
        ({**_minimal("evolve"), "grid": {"h": 0.1, "n": 10},
          "initial": {"kind": "plane"}}, None, "initial.kind"),
        ({**_minimal("evolve"), "grid": {"h": 0.1, "n": 10},
          "initial": {"kind": "bump"}}, None, "run.t_final"),
        ({**_minimal("evolve"), "grid": {"h": 0.1, "n": 10},
          "initial": {"kind": "bump"}, "run": {"t_final": 1.0,
                                               "snapshot_stride": 0}},
         None, "run.snapshot_stride"),
        ({**_minimal("evolve"), "grid": {"h": 0.1, "n": 10},
          "initial": {"kind": "bump"}, "run": {"t_final": 1.0,
                                               "origin_band": 1}},
         None, "run.origin_band"),
        ({**_minimal("evolve"), "grid": {"h": 0.1, "n": 10},
          "initial": {"kind": "bump"}, "run": {"t_final": 1.0},
          "checks": {"bogus": 1.0}}, None, "checks.bogus"),
        ({**_minimal("verify-W"), "equation": {"p": 7.0, "mu": -1}},
         None, "^equation: scenario verify-W does not read it$"),
        ({**_minimal("evolve"), "equation": {"p": 2.0, "mu": 1},
          "grid": {"h": 0.1, "n": 10}, "initial": {"kind": "bump"},
          "run": {"t_final": 1.0}}, None, "equation"),
        ({"scenario": "evolve", "grid": {"h": 0.1, "n": 10},
          "initial": {"kind": "bump"}, "run": {"t_final": 1.0}},
         None, "output.dir"),
    ]
    for raw, scenario, fragment in cases:
        with pytest.raises(ConfigError, match=fragment):
            parse_config(raw, scenario=scenario)


def test_parse_config_scenario_defaults(tmp_path):
    out = str(tmp_path)
    cfg = parse_config({"scenario": "linear-check"}, out_override=out)
    assert cfg.grid.h == 1.0 and cfg.grid.n == 2048
    assert cfg.run.t_final == 2000.0
    assert cfg.params.p == 5.0 and cfg.params.mu == 1
    assert cfg.out_dir == out

    cfg = parse_config({"scenario": "bootstrap"}, out_override=out)
    assert cfg.scenario == "bootstrap"

    cfg = parse_config({"scenario": "verify-W"}, out_override=out)
    assert cfg.params.p == 5.0 and cfg.params.mu == -1
    assert cfg.run.cone_floor is None  # the profile is not compactly supported
    assert cfg.initial["kind"] == "W"


def test_parse_config_cone_floor_accepts_null():
    base = {**_minimal("evolve"), "grid": {"h": 0.1, "n": 10},
            "initial": {"kind": "bump"}}
    for run, expected in [({}, 1e-13), ({"cone_floor": None}, None),
                          ({"cone_floor": 1}, 1.0), ({"cone_floor": 2e-9}, 2e-9)]:
        cfg = parse_config({**base, "run": {"t_final": 1.0, **run}})
        floor = cfg.run.cone_floor
        assert floor == expected and type(floor) is type(expected)
    for bad in ["1e-13", True, [1e-13]]:
        with pytest.raises(ConfigError, match=r"^run\.cone_floor: expected a number or null"):
            parse_config({**base, "run": {"t_final": 1.0, "cone_floor": bad}})


def test_parse_config_out_override_wins(tmp_path):
    raw = {"scenario": "bootstrap", "output": {"dir": "/nonexistent/spot"}}
    cfg = parse_config(raw, out_override=str(tmp_path))
    assert cfg.out_dir == str(tmp_path)
    # the output section is checked all the same
    with pytest.raises(ConfigError, match=r"^output\.dir: expected a string, got int$"):
        parse_config({**raw, "output": {"dir": 3}}, out_override=str(tmp_path))


def test_check_ops():
    assert _check("x", 1.0, 1.0)["pass"] is True
    assert _check("x", 1.0, 1.0, op="<")["pass"] is False
    assert _check("x", 1.0, 1.0, op=">=")["pass"] is True
    row = _check("drift", np.float64(0.5), 1.0)
    assert row == {"name": "drift", "value": 0.5, "threshold": 1.0,
                   "op": "<=", "pass": True}
    assert isinstance(row["value"], float)


# ---------------------------------------------------------------------------
# initial-data profiles


def test_profile_gaussian_formula():
    r = np.linspace(0.0, 3.0, 7)
    assert np.array_equal(profile_gaussian(r, 0.5, 1.0), np.exp(-2.0 * r * r))
    assert profile_gaussian(np.array([0.0]), 2.0, 3.5)[0] == 3.5


def test_profile_bump_support_and_peak():
    r = np.linspace(0.0, 2.0, 401)
    u = profile_bump(r, 1.0, 2.0)
    assert u[0] == 2.0  # e * exp(-1) = 1 at the center
    assert np.all(u[r >= 1.0] == 0.0)
    assert np.all(u[r < 1.0] > 0.0)
    assert np.all(np.diff(u[r <= 1.0]) <= 0.0)


def test_profile_ode_flat_plateau_and_ramp():
    r = np.linspace(0.0, 2.0, 801)
    u = profile_ode_flat(r, 1.5)
    assert np.all(u[r <= 1.0] == 1.5)
    assert np.all(u[r >= 1.5] == 0.0)
    ramp = u[(r > 1.0) & (r < 1.5)]
    assert np.all((0.0 < ramp) & (ramp < 1.5))
    assert np.all(np.diff(ramp) < 0.0)


def test_ode_flat_blowup_time():
    params = make_params(5.0, -1)
    c_p = (params.a * (params.a + 1.0)) ** (1.0 / 4.0)
    assert ode_flat_blowup_time(params, 2.0 * c_p) == 0.25
    # consistency with the exact solution at t = 0
    for amp in (1.3, 2.0, 3.7):
        T = ode_flat_blowup_time(params, amp)
        u_exact = reference_ode_blowup(params, T, 0.0)
        assert abs(u_exact - amp) <= 1e-13 * amp


# ---------------------------------------------------------------------------
# build_initial


def test_build_initial_validation(tmp_path):
    grid = RadialGrid(h=0.1, n=50)
    with pytest.raises(ConfigError, match="W requires"):
        build_initial({"kind": "W"}, grid, make_params(7.0, -1))
    with pytest.raises(ConfigError, match="focusing"):
        build_initial({"kind": "ode_flat", "amplitude": 1.0}, grid,
                      make_params(5.0, 1))
    with pytest.raises(ConfigError, match="width"):
        build_initial({"kind": "gaussian", "width": -1.0}, grid,
                      make_params(5.0, 1))
    with pytest.raises(ConfigError, match="radius"):
        build_initial({"kind": "bump", "radius": 0.0}, grid, make_params(5.0, 1))
    with pytest.raises(ConfigError, match="amplitude"):
        build_initial({"kind": "ode_flat", "amplitude": -2.0}, grid,
                      make_params(5.0, -1))


def test_build_initial_ode_flat_velocity():
    grid = RadialGrid(h=0.01, n=300)
    params = make_params(5.0, -1)
    state = build_initial({"kind": "ode_flat", "amplitude": 2.0}, grid, params)
    T = ode_flat_blowup_time(params, 2.0)
    assert np.array_equal(state.v, (params.a / T) * state.u)
    assert state.u[0] == 2.0


def test_build_initial_from_file(tmp_path):
    grid = RadialGrid(h=0.1, n=40)
    params = make_params(7.0, 1)
    state = build_initial({"kind": "gaussian", "width": 1.0, "amplitude": 0.5},
                          grid, params)
    path = tmp_path / "init.txt"
    save_state(state, path)

    loaded = build_initial({"kind": "file", "path": str(path)}, grid, params)
    assert np.array_equal(loaded.u, state.u)
    assert np.array_equal(loaded.v, state.v)

    with pytest.raises(ConfigError, match="grid"):
        build_initial({"kind": "file", "path": str(path)},
                      RadialGrid(h=0.1, n=41), params)
    with pytest.raises(ConfigError, match="parameters"):
        build_initial({"kind": "file", "path": str(path)}, grid,
                      make_params(5.0, 1))


# ---------------------------------------------------------------------------
# end-to-end runs


def _linear_config(out, **overrides):
    raw = {
        "scenario": "linear-check",
        "grid": {"h": 1.0, "n": 256},
        "run": {"t_final": 200.0},
        "output": {"dir": str(out)},
        "checks": {"dalembert_error": 1e-12, "reversibility": 1e-10,
                   "traveling_wave": 1e-10},
        "linear-check": {"reversal_steps": 64},
    }
    raw.update(overrides)
    return raw


def _write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2) + "\n")
    return str(path)


def test_main_linear_check_passes(tmp_path):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, _linear_config(out))
    assert main(["linear-check", "--config", cfg_path]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "pass"
    assert manifest["scenario"] == "linear-check"
    assert manifest["version"] == nlwlab.__version__
    assert manifest["config"] == _linear_config(out)
    assert manifest["walltime_s"] > 0.0
    assert {c["name"] for c in manifest["checks"]} == \
        {"dalembert_error", "reversibility", "traveling_wave"}
    assert all(c["pass"] for c in manifest["checks"])
    assert (out / "report.json").exists()


def test_main_byte_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = _write_config(tmp_path, _linear_config(out1), "c1.json")
    p2 = _write_config(tmp_path, _linear_config(out2), "c2.json")
    assert main(["linear-check", "--config", p1]) == 0
    assert main(["linear-check", "--config", p2]) == 0

    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1["walltime_s"] = m2["walltime_s"] = None
    m1["config"]["output"] = m2["config"]["output"] = None
    assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_main_out_override(tmp_path):
    raw = _linear_config(tmp_path / "ignored")
    del raw["output"]
    cfg_path = _write_config(tmp_path, raw)
    out = tmp_path / "forced"
    assert main(["linear-check", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


def test_main_config_errors_exit_2(tmp_path, capsys):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{nope")
    assert main(["linear-check", "--config", str(bad_json)]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    assert main(["linear-check", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err

    mismatched = _write_config(tmp_path, {"scenario": "evolve"}, "m.json")
    assert main(["norms", "--config", mismatched]) == 2
    assert "config says" in capsys.readouterr().err


def test_main_runner_config_error_leaves_no_directory(tmp_path, capsys):
    # initial data is checked while parsing, so no output directory is made
    raw = {
        "scenario": "evolve",
        "grid": {"h": 0.125, "n": 64},
        "initial": {"kind": "gaussian", "width": -1.0},
        "run": {"t_final": 0.25},
        "output": {"dir": str(tmp_path / "out" / "run")},
    }
    with pytest.raises(ConfigError, match=r"^initial\.width: "):
        parse_config(raw)
    cfg_path = _write_config(tmp_path, raw)
    assert main(["evolve", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("config: initial.width: ")
    assert not (tmp_path / "out" / "run").exists()

    # a directory that existed before the run is left in place
    (tmp_path / "out" / "run").mkdir(parents=True)
    assert main(["evolve", "--config", cfg_path]) == 2
    assert (tmp_path / "out" / "run").is_dir()


def test_main_failing_check_exits_1(tmp_path):
    out = tmp_path / "out"
    raw = _linear_config(out)
    raw["checks"]["dalembert_error"] = 1e-30  # unreachable
    cfg_path = _write_config(tmp_path, raw)
    assert main(["linear-check", "--config", cfg_path]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "fail"
    failed = [c for c in manifest["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["dalembert_error"]


def test_main_solver_error_exits_1(tmp_path, capsys):
    # focusing plateau data blows up before t_final and no detection check
    # is enabled, so the driver surfaces the solver error
    params = make_params(5.0, -1)
    c_p = (params.a * (params.a + 1.0)) ** 0.25
    raw = {
        "scenario": "evolve",
        "equation": {"p": 5.0, "mu": -1},
        "grid": {"h": 1.0 / 128.0, "n": 256},
        "initial": {"kind": "ode_flat", "amplitude": 4.0 * c_p},
        "run": {"t_final": 0.125, "snapshot_stride": 16},
        "output": {"dir": str(tmp_path / "out")},
        "checks": {},
    }
    cfg_path = _write_config(tmp_path, raw)
    assert main(["evolve", "--config", cfg_path]) == 1
    assert "solver:" in capsys.readouterr().err


def test_main_solver_abort_writes_manifest(tmp_path, capsys):
    # a p = 7 bump on a grid too short for t_final trips the cone guard; the
    # run still leaves a manifest saying why and when it stopped
    out = tmp_path / "out"
    raw = {
        "scenario": "evolve",
        "equation": {"p": 7.0, "mu": 1},
        "grid": {"h": 0.01, "n": 200},
        "initial": {"kind": "bump", "radius": 1.0, "amplitude": 1.0},
        "run": {"t_final": 2.0},
        "output": {"dir": str(out)},
    }
    cfg_path = _write_config(tmp_path, raw)
    assert main(["evolve", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "aborted"
    assert manifest["scenario"] == "evolve"
    assert manifest["config"] == raw
    assert manifest["checks"] == []
    error = manifest["error"]
    assert error["type"] == "ConeViolation"
    assert 0.0 < error["t"] < 2.0
    assert err == f"solver: {error['message']} (t = {error['t']!r})\n"


def test_main_non_finite_v_writes_manifest(tmp_path, capsys):
    # at an infinite blowup threshold the plateau's v overflows at the final
    # layer while u is still finite; the run aborts as on a guard
    out = tmp_path / "out"
    raw = {"scenario": "evolve", "equation": {"p": 5.0, "mu": -1},
           "grid": {"h": 0.015625, "n": 256},
           "initial": {"kind": "ode_flat", "amplitude": 1.5},
           "run": {"t_final": 0.453125, "blowup_threshold": math.inf},
           "checks": {"blowup_detection": 5.0}, "output": {"dir": str(out)}}
    with np.errstate(over="ignore"):
        assert main(["evolve", "--config", _write_config(tmp_path, raw)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f.name for f in out.iterdir()] == ["manifest.json"]
    assert (manifest["status"], manifest["checks"]) == ("aborted", [])
    assert manifest["error"] == {"type": "SolverError", "t": 0.453125,
                                 "message": "v contains non-finite entries at t = 0.453125"}
    assert capsys.readouterr().err == (
        "solver: v contains non-finite entries at t = 0.453125 (t = 0.453125)\n")


def test_main_off_lattice_time_exits_2(tmp_path, capsys):
    # rejected while parsing: no output directory is created
    raw = {
        "scenario": "evolve",
        "grid": {"h": 0.125, "n": 64},
        "initial": {"kind": "bump"},
        "run": {"t_final": 0.3},  # not a lattice multiple of h
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg_path = _write_config(tmp_path, raw)
    assert main(["evolve", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: run.t_final: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, extra", [
    ("evolve", {"initial": {"kind": "bump"}}),
    # explicit times: the default midpoint of t_final = 3h is off the lattice
    ("diagnose", {"initial": {"kind": "bump"}, "diagnose": {"Rc": 1.0, "times": [0.125]}}),
    ("verify-W", {"verify-W": {"decay_r_min": 1.0}}),  # R/4 = 2
    ("linear-check", {}),
    ("norms", {"initial": {"kind": "bump"}, "norms": {"sp_interval": [0.0, 0.875]}}),
])
def test_parse_config_rejects_off_lattice_t_final(scenario, extra):
    raw = {"scenario": scenario, "grid": {"h": 0.125, "n": 64},
           "output": {"dir": "/tmp/unused"}, **extra}
    for t_final in (0.3, -0.25, float("inf")):
        raw["run"] = {"t_final": t_final}
        with pytest.raises(ConfigError, match=r"^run\.t_final: "):
            parse_config(raw)
    # norms: the 8 stored layers that sp_interval needs inside it
    accepted = 0.875 if scenario == "norms" else 0.375
    raw["run"] = {"t_final": accepted}
    assert parse_config(raw).run.t_final == accepted


def test_parse_config_lattice_rule_skips_unevolved_and_file_data(tmp_path):
    # norms without sp_interval never evolves; file data starts at its stored
    # time, so the rule is checked from there, under initial.path
    raw = {"scenario": "norms", "grid": {"h": 0.125, "n": 64},
           "initial": {"kind": "bump"}, "run": {"t_final": 0.3},
           "output": {"dir": str(tmp_path / "norms")}}
    assert parse_config(raw).run.t_final == 0.3

    grid, params = RadialGrid(h=0.125, n=64), make_params(5.0, 1)
    state = build_initial({"kind": "bump"}, grid, params)
    save_state(state, tmp_path / "init.txt")
    raw = {"scenario": "evolve", "grid": {"h": 0.125, "n": 64},
           "initial": {"kind": "file", "path": str(tmp_path / "init.txt")},
           "run": {"t_final": 0.3}, "output": {"dir": str(tmp_path / "out")}}
    with pytest.raises(ConfigError, match=r"^initial\.path: stored time t = 0\.0 "):
        parse_config(raw)
    assert main(["evolve", "--config", _write_config(tmp_path, raw)]) == 2


def _python(code: str, cwd, *args: str) -> subprocess.CompletedProcess:
    """``python -c code`` (or, for code None, ``python args``) on this nlwlab."""
    src = str(Path(nlwlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, *(["-c", code] if code is not None else []), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_runtime_needs_no_scipy(tmp_path):
    # with scipy unimportable, the norm engine still runs its exemplar
    config = Path(__file__).resolve().parents[1] / "configs" / "norms_gaussian.json"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import json, pathlib\n"
        "from nlwlab import cli\n"
        f"raw = json.loads(pathlib.Path({str(config)!r}).read_text())\n"
        "sys.exit(cli.run(cli.parse_config(raw, out_override='out')))\n")
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "pass"

    proc = _python("import sys, nlwlab.cli; print('scipy' in sys.modules)", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_main_evolve_artifacts(tmp_path):
    out = tmp_path / "out"
    raw = {
        "scenario": "evolve",
        "equation": {"p": 7.0, "mu": 1},
        "grid": {"h": 1.0 / 64.0, "n": 160},
        "initial": {"kind": "bump", "radius": 1.0, "amplitude": 1.0},
        "run": {"t_final": 1.0, "snapshot_stride": 16},
        "output": {"dir": str(out)},
        "checks": {"energy_drift": 1e-3, "finite_speed": 0.0,
                   "exterior_zero": 1e-12},
    }
    cfg_path = _write_config(tmp_path, raw)
    assert main(["evolve", "--config", cfg_path]) == 0
    assert (out / "step_log.csv").exists()
    snaps = sorted(out.glob("state_*.txt"))
    assert len(snaps) == 5  # strides 0, 16, 32, 48, 64
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "pass"


def test_main_norms_artifacts(tmp_path):
    out = tmp_path / "out"
    raw = {
        "scenario": "norms",
        "equation": {"p": 5.0, "mu": 1},
        "grid": {"h": 0.05, "n": 1200},
        "initial": {"kind": "gaussian", "width": 0.5, "amplitude": 1.0},
        "run": {"t_final": 0.0},
        "output": {"dir": str(out)},
        "norms": {"betas": [0.0, 0.5, 1.0], "tail_radii": [2.0, 4.0]},
        "checks": {"route_agreement": 1e-6, "l2_match": 1e-10,
                   "tail_monotone": 0.0, "hardy": 1.0},
    }
    cfg_path = _write_config(tmp_path, raw)
    assert main(["norms", "--config", cfg_path]) == 0
    report = json.loads((out / "normreport.json").read_text())
    assert set(report["tail"]) == {"2.0", "4.0"}
    tails = (out / "tails.csv").read_text().strip().split("\n")
    assert tails[0].startswith("r,") and len(tails) == 3


def test_main_bootstrap_artifacts_and_precision(tmp_path):
    out = tmp_path / "out"
    raw = {
        "scenario": "bootstrap",
        "output": {"dir": str(out)},
        "bootstrap": {"p_values": [5.0, 7.0], "beta0_values": [0.1],
                      "tol": 1e-12, "dense_sample": 200},
        "checks": {"contraction_subunit": 1.0, "iteration_monotone": 0.0,
                   "limit_gap": 1e-10, "fixed_point": 5e-15},
    }
    cfg_path = _write_config(tmp_path, raw)
    assert main(["bootstrap", "--config", cfg_path]) == 0

    lines = (out / "contraction.csv").read_text().strip().split("\n")
    assert lines[0] == "p,value,theta"
    row5 = lines[1].split(",")
    assert float(row5[0]) == 5.0
    assert float(row5[1]) == 0.9659258262890682
    exp_files = sorted(out.glob("exponents_p*_b*.csv"))
    assert len(exp_files) == 2
    body = exp_files[0].read_text()
    assert body.startswith("# p=5.0 beta0=0.1\nn,beta,gamma\n")

    # extended-precision pass reuses the same pipeline, and the manifest's
    # config echo says so
    out2 = tmp_path / "out-ext"
    raw2 = dict(raw, output={"dir": str(out2)},
                bootstrap=dict(raw["bootstrap"], precision="extended"))
    cfg2 = _write_config(tmp_path, raw2, "c2.json")
    assert main(["bootstrap", "--config", cfg2]) == 0
    echo = json.loads((out2 / "manifest.json").read_text())["config"]
    assert echo["bootstrap"]["precision"] == "extended"

    out3 = tmp_path / "out-bad"
    raw3 = dict(raw, output={"dir": str(out3)},
                bootstrap=dict(raw["bootstrap"], precision="half"))
    cfg3 = _write_config(tmp_path, raw3, "c3.json")
    assert main(["bootstrap", "--config", cfg3]) == 2
    assert not out3.exists()

    # files are numbered by position: a repeated p gets a file of its own
    out4 = tmp_path / "out-repeat"
    raw4 = dict(raw, output={"dir": str(out4)},
                bootstrap=dict(raw["bootstrap"], p_values=[5.0, 7.0, 5.0]))
    assert main(["bootstrap", "--config", _write_config(tmp_path, raw4, "c4.json")]) == 0
    assert len(list(out4.glob("exponents_p*_b*.csv"))) == 3
    assert (out4 / "exponents_p2_b0.csv").read_text() == body


def test_bootstrap_threads_leave_the_artifacts_unchanged(tmp_path):
    raw = {
        "scenario": "bootstrap",
        "bootstrap": {"p_values": [5.0, 7.0, 13.0], "beta0_values": [0.01, 0.1],
                      "dense_sample": 50},
        "checks": {"iteration_monotone": 0.0, "limit_gap": 1e-10},
    }
    texts = []
    for threads in (1, 3):
        out = tmp_path / f"t{threads}"
        assert run(parse_config(raw, out_override=str(out)), threads=threads) == 0
        texts.append({p.name: p.read_text() for p in sorted(out.glob("*.csv"))})
    assert len(texts[0]) == 7 and texts[0] == texts[1]


def test_parsed_grid_is_the_grid_states_load_onto(tmp_path):
    grid, params = RadialGrid(h=0.125, n=64), make_params(5.0, 1)
    save_state(build_initial({"kind": "bump"}, grid, params), tmp_path / "init.txt")
    raw = {"scenario": "evolve", "grid": {"h": 0.125, "n": 64},
           "initial": {"kind": "file", "path": str(tmp_path / "init.txt")},
           "run": {"t_final": 0.25}, "output": {"dir": str(tmp_path / "out")}}
    cfg = parse_config(raw)
    assert load_state(tmp_path / "init.txt").grid is cfg.grid
    assert parse_config(raw).grid is cfg.grid


def test_main_diagnose_time_validation(tmp_path, capsys):
    raw = {
        "scenario": "diagnose",
        "equation": {"p": 7.0, "mu": 1},
        "grid": {"h": 1.0 / 32.0, "n": 144},
        "initial": {"kind": "gaussian", "width": 0.5, "amplitude": 0.5},
        "run": {"t_final": 1.0, "cone_floor": None},
        "output": {"dir": str(tmp_path / "out")},
        "diagnose": {"Rc": 1.0, "times": [1.0]},  # t_final itself
        "checks": {"z_monotone": 0.0},
    }
    cfg_path = _write_config(tmp_path, raw)
    assert main(["diagnose", "--config", cfg_path]) == 2
    assert "diagnose.times" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    # the default time, the middle of the run, is checked while parsing too
    raw["run"]["t_final"] = 31.0 / 32.0
    del raw["diagnose"]["times"]
    assert main(["diagnose", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err.startswith("config: diagnose.times: 0.484375 ")
    assert not (tmp_path / "out").exists()


def test_main_diagnose_refinement_lattice_exits_2_before_output(tmp_path, capsys):
    # the coarse rerun steps 2h, and t_final = 31 h is not a multiple of it;
    # rejected while parsing, before the fine run writes anything
    raw = {
        "scenario": "diagnose",
        "equation": {"p": 7.0, "mu": 1},
        "grid": {"h": 1.0 / 32.0, "n": 160},
        "initial": {"kind": "gaussian", "width": 0.5, "amplitude": 0.5},
        "run": {"t_final": 31.0 / 32.0, "cone_floor": None},
        "output": {"dir": str(tmp_path / "out")},
        "diagnose": {"Rc": 1.0, "times": [0.5]},
        "checks": {"identity_order": 1.5},
    }
    cfg_path = _write_config(tmp_path, raw)
    assert main(["diagnose", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: run.t_final: refinement checks") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()

    raw["run"]["t_final"] = 1.0
    raw["grid"]["n"] = 161
    assert main(["diagnose", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err.startswith("config: grid.n: ")
    assert not (tmp_path / "out").exists()

    # identity_order looks each time up on the 2h rerun as well: 17h is on
    # the fine lattice only
    raw["grid"]["n"] = 160
    raw["diagnose"]["times"] = [17.0 / 32.0]
    assert main(["diagnose", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err.startswith("config: diagnose.times: 0.53125 ")
    assert not (tmp_path / "out").exists()


def test_main_diagnose_artifacts(tmp_path):
    out = tmp_path / "out"
    raw = {
        "scenario": "diagnose",
        "equation": {"p": 7.0, "mu": 1},
        "grid": {"h": 1.0 / 32.0, "n": 144},
        "initial": {"kind": "gaussian", "width": 0.5, "amplitude": 0.5},
        "run": {"t_final": 1.0, "cone_floor": None},
        "output": {"dir": str(out)},
        "diagnose": {"Rc": 1.0, "times": [0.5]},
        "checks": {"z_monotone": 0.0, "energy_drift": 1e-2},
    }
    cfg_path = _write_config(tmp_path, raw)
    assert main(["diagnose", "--config", cfg_path]) == 0
    assert (out / "records.csv").exists()
    assert (out / "residuals.json").exists()


def test_diagnose_computes_each_identity_residual_once(tmp_path, monkeypatch):
    # the records, residuals.json and identity_order's fine side read one
    # result per distinct (cutoff, time); the coarse rerun adds one per time
    from nlwlab import diagnostics
    real = diagnostics.localized_identity_residuals
    calls = []

    def spy(traj, Rc, t):
        calls.append((traj, Rc, t))
        return real(traj, Rc, t)

    monkeypatch.setattr(diagnostics, "localized_identity_residuals", spy)
    out = tmp_path / "out"
    cutoffs, times = [1.0, 2.0, 1.0], [0.25, 0.5]
    raw = {
        "scenario": "diagnose",
        "equation": {"p": 7.0, "mu": 1},
        "grid": {"h": 1.0 / 32.0, "n": 160},
        "initial": {"kind": "gaussian", "width": 0.5, "amplitude": 0.5},
        "run": {"t_final": 1.0, "cone_floor": None},
        "output": {"dir": str(out)},
        "diagnose": {"Rc": 1.0, "times": times, "cutoffs": cutoffs},
        "checks": {"identity_order": 1.5},
    }
    assert main(["diagnose", "--config", _write_config(tmp_path, raw)]) in (0, 1)
    fine = [(Rc, t) for traj, Rc, t in calls if traj.grid.h == 1.0 / 32.0]
    coarse = [(Rc, t) for traj, Rc, t in calls if traj.grid.h == 1.0 / 16.0]
    assert sorted(fine) == [(1.0, 0.25), (1.0, 0.5), (2.0, 0.25), (2.0, 0.5)]
    assert coarse == [(1.0, 0.25), (1.0, 0.5)]
    assert len(calls) == 6
    traj = calls[0][0]
    sweep = json.loads((out / "residuals.json").read_text())
    assert list(sweep.items()) == [(f"Rc={c!r},t={t!r}", list(real(traj, c, t)))
                                   for c in (1.0, 2.0) for t in times]


@pytest.mark.parametrize("t0, t_final, times", [
    (0.5, 1.0, [0.25]),  # before the stored time
    (0.5, 0.5, None),  # the default, the run's midpoint t0 + (t_final - t0) / 2
    (0.3, 1.3, [0.5]),  # off the lattice from t0
])
def test_diagnose_times_from_a_state_file_exit_2_without_output(
        tmp_path, capsys, t0, t_final, times):
    # a state file starts the run at its stored time, so each time is checked
    # from there, before any output exists
    grid, params = RadialGrid(h=1.0 / 64.0, n=128), make_params(7.0, 1)
    state = build_initial({"kind": "bump"}, grid, params)
    save_state(replace(state, t=t0), tmp_path / "init.txt")
    out = tmp_path / "out"
    raw = {"scenario": "diagnose", "equation": {"p": 7.0, "mu": 1},
           "grid": {"h": 1.0 / 64.0, "n": 128},
           "initial": {"kind": "file", "path": str(tmp_path / "init.txt")},
           "run": {"t_final": t_final, "cone_floor": None},
           "output": {"dir": str(out)}, "diagnose": {"Rc": 0.5}}
    if times is not None:
        raw["diagnose"]["times"] = times
    assert main(["diagnose", "--config", _write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: diagnose.times: ") and err.count("\n") == 1
    assert not out.exists()

    # a time on the lattice from t0 runs (0.8 is off the lattice from 0)
    raw["run"]["t_final"] = t0 + 1.0
    raw["diagnose"]["times"] = [t0 + 0.5]
    assert main(["diagnose", "--config", _write_config(tmp_path, raw)]) in (0, 1)
    assert (out / "manifest.json").exists()
    assert float((out / "records.csv").read_text().split("\n")[1].split(",")[0]) == t0 + 0.5


def test_diagnose_default_time_is_the_midpoint_from_a_state_files_time(tmp_path, capsys):
    # the default time is taken from the run's start, the stored time t0
    grid, params = RadialGrid(h=1.0 / 64.0, n=128), make_params(7.0, 1)
    save_state(replace(build_initial({"kind": "bump"}, grid, params), t=1.0),
               tmp_path / "init.txt")
    out = tmp_path / "out"
    raw = {"scenario": "diagnose", "equation": {"p": 7.0, "mu": 1},
           "grid": {"h": 1.0 / 64.0, "n": 128},
           "initial": {"kind": "file", "path": str(tmp_path / "init.txt")},
           "run": {"t_final": 1.5, "cone_floor": None},
           "output": {"dir": str(out)}, "diagnose": {"Rc": 0.5}}
    assert main(["diagnose", "--config", _write_config(tmp_path, raw)]) in (0, 1)
    assert capsys.readouterr().err == ""
    records = (out / "records.csv").read_text().splitlines()
    assert len(records) == 2 and float(records[1].split(",")[0]) == 1.25
    # generated data start at t = 0: the default is t_final / 2
    cfg = parse_config(dict(raw, initial={"kind": "bump"}))
    assert cfg.options["times"] == [0.75]


def test_main_verify_w_exemplar_passes(tmp_path):
    # the exemplar checks the static profile's decay fit against the exact
    # window slope of W, so all four checks pass on the shipped config
    from pathlib import Path

    config = Path(__file__).resolve().parents[1] / "configs" / "verify_w.json"
    out = tmp_path / "out"
    assert main(["verify-W", "--config", str(config), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "pass"
    assert [c["name"] for c in manifest["checks"]] == \
        ["static_drift", "decay_c0", "decay_slope", "tail_slope"]
    assert all(c["pass"] for c in manifest["checks"])
    report = manifest["report"]
    check = next(c for c in manifest["checks"] if c["name"] == "decay_slope")
    assert check["value"] == abs(report["slope"] - report["slope_W"])
    assert -0.95 < report["slope_W"] < -0.93


def test_verify_w_decay_slope_catches_damped_profile(tmp_path, monkeypatch):
    # a solver that damps the profile's tail: sup_t |u| over all layers is W
    # itself (layer 0), so only a fit over the evolved layers can see it
    from nlwlab import RadialState, Trajectory
    from nlwlab.cli import solver

    real_evolve = solver.evolve

    def damped_evolve(config, initial, *args, **kwargs):
        traj = real_evolve(config, initial, *args, **kwargs)
        damp = (1.0 + traj.grid.r ** 2 / 3.0) ** -0.05
        states = [traj.states[0]] + [
            RadialState(grid=s.grid, params=s.params, t=s.t, u=s.u * damp, v=s.v)
            for s in traj.states[1:]]
        return Trajectory(grid=traj.grid, params=traj.params, states=states,
                          log=traj.log)

    raw = {"scenario": "verify-W", "grid": {"h": 0.05, "n": 400},
           "run": {"t_final": 0.5, "snapshot_stride": 5},
           "checks": {"decay_slope": 1e-6}}

    def decay_slope(out):
        assert main(["verify-W", "--config", _write_config(tmp_path, raw),
                     "--out", str(out)]) in (0, 1)
        manifest = json.loads((out / "manifest.json").read_text())
        return next(c for c in manifest["checks"] if c["name"] == "decay_slope")

    assert decay_slope(tmp_path / "exact")["pass"]
    monkeypatch.setattr(solver, "evolve", damped_evolve)
    check = decay_slope(tmp_path / "damped")
    assert not check["pass"]
    assert check["value"] > 1e-3


# ---------------------------------------------------------------------------
# the check table


# small configs that run each scenario in well under a second
_QUICK = {
    "evolve": {"equation": {"p": 7.0, "mu": 1}, "grid": {"h": 1.0 / 64.0, "n": 160},
               "initial": {"kind": "bump"},
               "run": {"t_final": 1.0, "snapshot_stride": 16}},
    "norms": {"grid": {"h": 0.05, "n": 400},
              "initial": {"kind": "gaussian", "width": 0.5}, "run": {"t_final": 0.0},
              "norms": {"tail_radii": [2.0, 4.0]}},
    "diagnose": {"equation": {"p": 7.0, "mu": 1}, "grid": {"h": 1.0 / 32.0, "n": 144},
                 "initial": {"kind": "gaussian", "width": 0.5, "amplitude": 0.5},
                 "run": {"t_final": 1.0, "cone_floor": None},
                 "diagnose": {"Rc": 1.0, "times": [0.5]}},
    "bootstrap": {"bootstrap": {"p_values": [5.0, 7.0], "beta0_values": [0.1],
                                "dense_sample": 50}},
    "verify-W": {"grid": {"h": 0.05, "n": 400},
                 "run": {"t_final": 0.5, "snapshot_stride": 5}},
    "linear-check": {"grid": {"h": 1.0, "n": 256}, "run": {"t_final": 200.0},
                     "linear-check": {"reversal_steps": 64}},
}


def _quick(scenario, out, checks):
    return {"scenario": scenario, **copy.deepcopy(_QUICK[scenario]),
            "output": {"dir": str(out)}, "checks": checks}


def _manifest_checks(out):
    return json.loads((out / "manifest.json").read_text())["checks"]


@pytest.mark.parametrize("scenario, name",
                         [(s, n) for s, table in _CHECKS.items() for n in table])
def test_non_number_threshold_exits_2_before_output(tmp_path, capsys, scenario, name):
    out = tmp_path / "out"
    raw = _quick(scenario, out, {name: "tight"})
    assert main([scenario, "--config", _write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err == f"config: checks.{name}: expected a number, got str\n"
    assert not out.exists()


@pytest.mark.parametrize("scenario, name", [
    ("evolve", "finite_speed"), ("norms", "tail_monotone"),
    ("diagnose", "z_monotone"), ("bootstrap", "iteration_monotone")])
def test_signed_excess_checks_read_their_threshold(tmp_path, scenario, name):
    # these four once compared against a fixed 0.0 whatever the config said
    rows = {}
    for threshold in (0.0, -1.0):
        out = tmp_path / f"t{threshold}"
        rc = run(parse_config(_quick(scenario, out, {name: threshold})))
        [rows[threshold]] = _manifest_checks(out)
        assert rows[threshold]["threshold"] == threshold
        assert rc == (0 if rows[threshold]["pass"] else 1)
    assert rows[0.0]["pass"] and not rows[-1.0]["pass"]
    assert rows[0.0]["value"] == rows[-1.0]["value"]
    assert -1.0 < rows[0.0]["value"] <= 0.0


@pytest.mark.parametrize("scenario", list(_CHECKS))
def test_manifest_rows_follow_the_table_order(tmp_path, scenario):
    # evolve's blowup pair needs ode_flat data and replaces the other three
    names = [n for n in _CHECKS[scenario] if n not in ("blowup_detection", "ode_match")]
    out = tmp_path / "out"
    raw = _quick(scenario, out, {n: 1.0 for n in reversed(names)})
    cfg = parse_config(raw)
    assert list(cfg.checks) == names
    assert run(cfg) in (0, 1)
    assert [c["name"] for c in _manifest_checks(out)] == names
    assert [c["op"] for c in _manifest_checks(out)] == [_CHECKS[scenario][n][0]
                                                        for n in names]


def test_parse_config_resolves_thresholds_and_defaults():
    raw = _quick("evolve", "/tmp/unused", {"exterior_zero": 1, "energy_drift": 1e-4})
    checks = parse_config(raw).checks
    assert list(checks.items()) == [("energy_drift", 1e-4), ("exterior_zero", 1.0)]
    assert type(checks["exterior_zero"]) is float
    assert parse_config(_quick("linear-check", "/tmp/unused", {})).checks == {
        "dalembert_error": 1e-12, "reversibility": 1e-10, "traveling_wave": 1e-10}
    raw = _quick("linear-check", "/tmp/unused", {"reversibility": 1e-3})
    assert parse_config(raw).checks["reversibility"] == 1e-3


@pytest.mark.parametrize("scenario, edit, message", [
    ("norms", {"norms": {"tail_radii": [2.0]}, "checks": {"tail_monotone": 0.0}},
     "checks.tail_monotone: needs at least two tail radii"),
    ("evolve", {"checks": {"blowup_detection": 5.0}},
     "checks.blowup_detection: requires ode_flat initial data"),
    # blowup at T = 0.054 < 10h: checked before the blowup run, not after it
    ("evolve", {"equation": {"p": 5.0, "mu": -1},
                "initial": {"kind": "ode_flat", "amplitude": 4.0},
                "checks": {"blowup_detection": 5.0, "ode_match": 0.01}},
     "checks.ode_match: no lattice times before T - 10h"),
    # every listed check is judged: ode_match is measured only with
    # blowup_detection, which measures nothing else
    ("evolve", {"checks": {"ode_match": 0.01}},
     "checks.ode_match: requires blowup_detection"),
    *[("evolve", {"equation": {"p": 5.0, "mu": -1},
                  "initial": {"kind": "ode_flat", "amplitude": 1.0},
                  "checks": {"blowup_detection": 5.0, name: 1.0}},
       f"checks.{name}: a blowup_detection run does not measure it")
      for name in ("energy_drift", "finite_speed", "exterior_zero")],
    # the run to the last compared layer would exceed evolve's 2^53 steps,
    # and ended in a ValueError traceback with exit 1
    ("evolve", {"equation": {"p": 5.0, "mu": -1},
                "initial": {"kind": "ode_flat", "amplitude": 1e-31},
                "checks": {"blowup_detection": 0.0, "ode_match": 0.0}},
     "checks.ode_match: T - 10h (T = 8.660254037844384e+61) is more than 2^53 steps "
     "of h = 0.015625"),
])
def test_check_preconditions_exit_2_before_output(tmp_path, capsys, scenario, edit,
                                                  message):
    out = tmp_path / "out"
    raw = {**_quick(scenario, out, {}), **edit}
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert str(exc.value) == message
    assert main([scenario, "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == f"config: {message}\n"
    assert not out.exists()


def test_unreadable_initial_file_exits_2_without_leftovers(tmp_path, capsys):
    out = tmp_path / "out"
    raw = {**_quick("evolve", out, {}),
           "initial": {"kind": "file", "path": str(tmp_path / "missing.txt")}}
    cfg_path = _write_config(tmp_path, raw)
    assert main(["evolve", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("config: initial.path: ")
    assert not out.exists()

    (tmp_path / "missing.txt").write_text("not a state\n")
    assert main(["evolve", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("config: initial.path: ")
    assert not out.exists()


@pytest.mark.parametrize("scenario, field, value, message", [
    ("norms", "betas", ["x"], "expected a list of numbers"),
    ("norms", "tail_radii", [1.0, True], "expected a list of numbers"),
    ("norms", "g1_radii", "x", "expected a list of numbers"),
    ("norms", "sp_interval", ["a", 0.5], "expected a list of numbers"),
    ("diagnose", "Rc", "x", "expected a number, got str"),
    ("diagnose", "cutoffs", [None], "expected a list of numbers"),
    ("diagnose", "times", ["x"], "expected a list of numbers"),
    ("bootstrap", "p_values", ["x"], "expected a list of numbers"),
    ("bootstrap", "beta0_values", [0.1, "x"], "expected a list of numbers"),
    ("bootstrap", "tol", "x", "expected a number, got str"),
    ("bootstrap", "n_max", 1.5, "expected an integer, got float"),
    ("bootstrap", "dense_sample", "x", "expected an integer, got str"),
    ("verify-W", "decay_r_min", "x", "expected a number, got str"),
    ("linear-check", "reversal_steps", "x", "expected an integer, got str"),
    # the norms values meet the library's own rules while parsing (R = 20)
    ("norms", "betas", [0.0, 2.0], "beta must lie in [0, 3/2), got 2.0"),
    ("norms", "tail_radii", [2.0, 25.0], "tail radius must lie in [0, R - 2h], got 25.0"),
    ("norms", "g1_radii", [25.0], "radius 25.0 exceeds the grid's outer radius R = 20.0"),
    ("norms", "sp_interval", [0.1, 0.0], "interval must be ordered"),
    ("norms", "sp_interval", [0.0], "expected [t0, t1]"),
    ("bootstrap", "p_values", [], "needs at least one value"),
    ("bootstrap", "beta0_values", [], "needs at least one value"),
])
def test_section_fields_report_their_path(tmp_path, capsys, scenario, field, value,
                                          message):
    out = tmp_path / "out"
    raw = _quick(scenario, out, {})
    raw.setdefault(scenario, {})[field] = value
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert str(exc.value) == f"{scenario}.{field}: {message}"
    assert main([scenario, "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == f"config: {scenario}.{field}: {message}\n"
    assert not out.exists()


def test_g1_radii_up_to_the_outer_radius_pass(tmp_path):
    # g1 is defined up to R = 20; radii in (R/4, R] failed the window [r, 4r]
    # of the g2 and g3 moduli, which are gone
    out = tmp_path / "out"
    raw = _quick("norms", out, {})
    raw["norms"]["g1_radii"] = [6.0, 20.0]
    assert main(["norms", "--config", _write_config(tmp_path, raw)]) == 0
    g1 = json.loads((out / "normreport.json").read_text())["g1"]
    assert sorted(g1) == ["20.0", "6.0"]


@pytest.mark.parametrize("edit, field", [
    ({"Rc": 5.0}, "Rc"), ({"Rc": 0.0}, "Rc"), ({"Rc": -1.0}, "Rc"),
    ({"cutoffs": [1.0, 4.5]}, "cutoffs"), ({"cutoffs": [0.0]}, "cutoffs"),
])
def test_diagnose_cutoff_checked_before_the_run(tmp_path, capsys, monkeypatch, edit,
                                                field):
    # R = 8: an Rc of 5 broke the identities' 2 Rc <= R only after the whole
    # fine run, and the error carried no field path
    from nlwlab.cli import solver

    def spy(*args, **kwargs):
        raise AssertionError("evolve called")

    monkeypatch.setattr(solver, "evolve", spy)
    out = tmp_path / "out"
    raw = {"scenario": "diagnose", "grid": {"h": 0.125, "n": 64},
           "initial": {"kind": "gaussian"}, "run": {"t_final": 1.0},
           "diagnose": {"Rc": 1.0, **edit}, "output": {"dir": str(out)}}
    assert main(["diagnose", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err.startswith(f"config: diagnose.{field}: ")
    assert not out.exists()
    raw["diagnose"] = {"Rc": 4.0, "cutoffs": [0.5, 4.0]}  # 2 Rc = R is allowed
    assert parse_config(raw).options["cutoffs"] == [0.5, 4.0]


@pytest.mark.parametrize("r_min, message", [
    (1000.0, "fit window [1000.0, R/4 = 5.0] contains fewer than two grid nodes"),
    (0.5, "the fit window starts at r_min >= 1, got 0.5"),
])
def test_verify_w_fit_window_checked_before_the_run(tmp_path, capsys, monkeypatch,
                                                    r_min, message):
    # R = 20: the window [r_min, R/4] was checked only by the fit, after the
    # run had written step_log.csv and final_state.txt
    from nlwlab.cli import solver

    def spy(*args, **kwargs):
        raise AssertionError("evolve called")

    monkeypatch.setattr(solver, "evolve", spy)
    out = tmp_path / "out"
    raw = {"scenario": "verify-W", "grid": {"h": 0.05, "n": 400},
           "run": {"t_final": 0.5}, "verify-W": {"decay_r_min": r_min},
           "output": {"dir": str(out)}}
    assert main(["verify-W", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == f"config: verify-W.decay_r_min: {message}\n"
    assert not out.exists()
    raw["verify-W"] = {"decay_r_min": 4.95}  # two nodes: 4.95 and R/4
    assert parse_config(raw).options["decay_r_min"] == 4.95


def test_verify_w_drift_region_kept_to_the_final_layer(tmp_path, capsys):
    # R = 20, h = 1: static_drift reads r <= R - t - 2h, which at t = 19 held
    # no node, and np.max over it left main with a traceback and no manifest
    raw = {"scenario": "verify-W", "grid": {"h": 1.0, "n": 20},
           "run": {"t_final": 19.0, "linear": True}, "output": {"dir": str(tmp_path / "a")}}
    assert main(["verify-W", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == ("config: run.t_final: 19.0 leaves no drift region "
                                       "r <= R - t - 2h (R = 20.0, h = 1.0)\n")
    assert not (tmp_path / "a").exists()
    # at t = 18 node 0 is left
    raw["run"]["t_final"], raw["output"]["dir"] = 18.0, str(tmp_path / "b")
    assert main(["verify-W", "--config", _write_config(tmp_path, raw)]) in (0, 1)
    assert json.loads((tmp_path / "b" / "manifest.json").read_text())["status"] != "aborted"


@pytest.mark.parametrize("edit, message", [
    ({"p_values": [5.0, 4.0]}, "bootstrap.p_values: p must be a finite real >= 5"),
    ({"beta0_values": [0.1, 0.9]}, "bootstrap.beta0_values: beta0 must lie in "),
    ({"n_max": 0}, "bootstrap.n_max: n_max must be positive"),
    ({"dense_sample": 0}, "bootstrap.dense_sample: must be positive"),
])
def test_bootstrap_rejected_values_leave_no_output(tmp_path, capsys, edit, message):
    # p = 5 puts the fixed point 1 - a at 0.5; the exponent rules are the
    # bootstrap library's, checked while parsing under their field paths
    out = tmp_path / "out"
    raw = {"scenario": "bootstrap", "bootstrap": {"p_values": [5.0], **edit},
           "checks": {"contraction_subunit": 1.0}, "output": {"dir": str(out)}}
    with pytest.raises(ConfigError, match=f"^{message}"):
        parse_config(raw)
    assert main(["bootstrap", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err.startswith(f"config: {message}")
    assert not out.exists()


# the rules that read more than the config's fields: a state file, the
# bootstrap library, the layers evolve will store; (edit of the config, message)
_RULES_PAST_THE_FIELDS = {
    "unreadable": ({"initial": {"kind": "file", "path": "missing.txt"}},
                   "initial.path: [Errno 2] No such file or directory"),
    "grid": ({"grid": {"h": 0.125, "n": 32}},
             "initial.path: stored grid does not match config grid"),
    "parameters": ({"equation": {"p": 7.0, "mu": 1}},
                   "initial.path: stored parameters do not match config"),
    "stored_time": ({"run": {"t_final": 0.3}}, "initial.path: stored time t = 0.0 puts "
                    "run.t_final = 0.3 off the lattice of h"),
    "p": ({"scenario": "bootstrap", "bootstrap": {"p_values": [5.0, 4.0]}},
          "bootstrap.p_values: p must be a finite real >= 5, got 4.0"),
    "beta0": ({"scenario": "bootstrap",
               "bootstrap": {"p_values": [5.0], "beta0_values": [0.6]}},
              "bootstrap.beta0_values: beta0 must lie in (0, 1 - a] = (0, 0.5], got 0.6"),
    "n_max": ({"scenario": "bootstrap", "bootstrap": {"n_max": 0}},
              "bootstrap.n_max: n_max must be positive"),
    "sp_interval": ({"scenario": "norms", "norms": {"sp_interval": [0.0, 0.25]}},
                    "norms.sp_interval: only 3 snapshots inside [0.0, 0.25]; "
                    "snapshot stride too coarse"),
}


@pytest.mark.parametrize("rule", list(_RULES_PAST_THE_FIELDS))
def test_rules_past_the_fields_reject_while_parsing(tmp_path, capsys, monkeypatch, rule):
    # parse_config reads the state file, applies the library's rules and
    # predicts the stored layers, so each of these exits 2 with no output
    # directory, through main and through python -m nlwlab.cli (which runs
    # cli as __main__) alike
    monkeypatch.chdir(tmp_path)
    grid, params = RadialGrid(h=0.125, n=64), make_params(5.0, 1)
    save_state(build_initial({"kind": "bump"}, grid, params), tmp_path / "init.txt")
    edit, message = _RULES_PAST_THE_FIELDS[rule]
    out = tmp_path / "out"
    raw = {"scenario": "evolve", "grid": {"h": 0.125, "n": 64},
           "initial": {"kind": "file", "path": str(tmp_path / "init.txt")},
           "run": {"t_final": 0.25}, "output": {"dir": str(out)}, **edit}
    if raw["scenario"] == "bootstrap":
        raw = {k: raw[k] for k in ("scenario", "bootstrap", "output")}
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert str(exc.value).startswith(message)
    cfg_path = _write_config(tmp_path, raw)
    assert main([raw["scenario"], "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config: {message}") and err.count("\n") == 1
    proc = _python(None, tmp_path, "-m", "nlwlab.cli", raw["scenario"], "--config", cfg_path)
    assert (proc.returncode, proc.stderr) == (2, err)
    assert not out.exists()


def test_diagnose_log_whose_energy_is_not_finite_aborts_the_run(tmp_path, capsys):
    # a linear run keeps u = 1e40 finite, but E's |u|^(p+1) overflows: the
    # run aborts at the first record time, as on a solver guard
    out = tmp_path / "out"
    raw = {"scenario": "diagnose", "equation": {"p": 7.0, "mu": 1},
           "grid": {"h": 0.0625, "n": 64},
           "initial": {"kind": "gaussian", "width": 0.5, "amplitude": 1e40},
           "run": {"t_final": 0.5, "cone_floor": None, "blowup_threshold": 1e300,
                   "linear": True},
           "diagnose": {"Rc": 1.0, "times": [0.25]}, "checks": {"z_monotone": 0.0},
           "output": {"dir": str(out)}}
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["diagnose", "--config", _write_config(tmp_path, raw)]) == 1
    assert [f.name for f in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["checks"]) == ("aborted", [])
    message = "logged E or z is not finite at t = 0.25"
    assert manifest["error"] == {"type": "SolverError", "message": message, "t": 0.25}
    assert capsys.readouterr().err == f"solver: {message} (t = 0.25)\n"


@pytest.mark.parametrize("scenario, field, value, message", [
    ("evolve", "cone_floor", -1.0, "must be positive (or None to disable)"),
    ("evolve", "blowup_threshold", 0.0, "must be positive"),
    ("evolve", "snapshot_stride", 0, "must be >= 1"),
    ("norms", "t_final", math.inf, "must be finite"),  # a run that never evolves
])
def test_run_settings_checked_while_parsing(tmp_path, capsys, scenario, field, value,
                                            message):
    # cone_floor and blowup_threshold were checked only by the solver, once
    # the run had started, and their errors had no path
    out = tmp_path / "out"
    raw = _quick(scenario, out, {})
    raw["run"][field] = value
    assert main([scenario, "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == f"config: run.{field}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("steps", [0, -3])
def test_reversal_steps_below_one_exit_2_before_output(tmp_path, capsys, steps):
    # 0 failed with an IndexError (exit 1), -3 as a t_final error without a path
    out = tmp_path / "out"
    raw = _quick("linear-check", out, {})
    raw["linear-check"]["reversal_steps"] = steps
    assert main(["linear-check", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == "config: linear-check.reversal_steps: must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("initial, message", [
    ({"kind": "gaussian", "width": "x"}, "initial.width: expected a number, got str"),
    ({"kind": "bump", "radius": "x"}, "initial.radius: expected a number, got str"),
    ({"kind": "bump", "amplitude": True}, "initial.amplitude: expected a number, got bool"),
    ({"kind": "file", "path": 3}, "initial.path: expected a string, got int"),
    ({"kind": "gaussian", "amplitude": math.inf}, "initial.amplitude: must be finite"),
    ({"kind": "bump", "radius": math.nan}, "initial.radius: must be finite"),
])
def test_initial_fields_report_their_path(tmp_path, capsys, initial, message):
    out = tmp_path / "out"
    raw = {**_quick("evolve", out, {}), "initial": initial}
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert str(exc.value) == message
    assert main(["evolve", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == f"config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("amplitude", [1e150, 1e200, 1e-300])
def test_ode_flat_amplitude_that_overflows_exits_2_before_output(tmp_path, capsys,
                                                                amplitude):
    # at p = 5: v = (a / T) u overflows at 1e150, T underflows to 0 at 1e200,
    # and T overflows at 1e-300
    out = tmp_path / "out"
    raw = {**_quick("evolve", out, {}), "equation": {"p": 5.0, "mu": -1},
           "initial": {"kind": "ode_flat", "amplitude": amplitude}}
    assert main(["evolve", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err.startswith(f"config: initial.amplitude: {amplitude!r} ")
    assert not out.exists()
    with pytest.raises(ConfigError, match="^initial.amplitude: "):
        build_initial(raw["initial"], RadialGrid(h=1.0 / 64.0, n=160), make_params(5.0, -1))


@pytest.mark.parametrize("edit, message", [
    # 2 width^2 underflowed to 0, so u(0) = exp(-0/0) was NaN (exit 1)
    ({"initial": {"kind": "gaussian", "width": 1e-300}},
     "initial.width: 1e-300 makes 2 width^2 underflow to 0"),
    # s_p rounded to 3/2, which the norms' beta rule rejected (exit 1)
    ({"equation": {"p": 1e300, "mu": 1}},
     "equation: p = 1e+300 is too large: s_p = 3/2 - 2/(p - 1) rounds to 3/2"),
])
def test_values_that_round_away_exit_2_before_output(tmp_path, capsys, edit, message):
    out = tmp_path / "out"
    raw = {**_quick("norms", out, {}), **edit}
    assert main(["norms", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == f"config: {message}\n"
    assert not out.exists()


def test_grid_whose_h_squared_underflows_exits_2_before_output(tmp_path, capsys):
    # 2 h r underflowed to 0, so a linear run's first stored v was not finite
    # and RadialState's ValueError left main; one step of h keeps the step rule
    out = tmp_path / "out"
    raw = _quick("evolve", out, {})
    h = 2.0 ** -600
    raw["grid"] = {"h": h, "n": 64}
    raw["run"] = {"t_final": h, "linear": True, "cone_floor": None}
    assert main(["evolve", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == f"config: grid.h: {h!r} makes h^2 underflow to 0\n"
    assert not out.exists()


@pytest.mark.parametrize("config, section, field, value, message", [
    # the step count overflowed np.empty's dimension (exit 1)
    ("evolve_bump.json", "run", "t_final", 1e300, "run.t_final: 1e+300 is not a whole"),
    ("verify_w.json", "run", "t_final", 1e300, "run.t_final: 1e+300 is not a whole"),
    ("linear_check.json", "run", "t_final", 1e300, "run.t_final: 1e+300 is not a whole"),
    ("evolve_bump.json", "grid", "h", 1e-300, "run.t_final: 10.0 is not a whole"),
    # grid.h ** 2 raised OverflowError in the Parseval norm (exit 1)
    ("norms_gaussian.json", "grid", "h", 1e300, "grid: h = 1e+300, n = 3000 make h^2 "),
])
def test_step_counts_and_grids_that_overflow_exit_2_before_output(
        tmp_path, capsys, config, section, field, value, message):
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / config).read_text())
    raw[section] = {**raw.get(section, {}), field: value}
    out = tmp_path / "out"
    raw["output"] = {"dir": str(out)}
    assert main([raw["scenario"], "--config", _write_config(tmp_path, raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config: {message}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("config", ["verify_w.json", "linear_check.json"])
def test_state_file_kind_keeps_the_lattice_rule_where_it_is_not_read(tmp_path, capsys,
                                                                      config):
    # these scenarios start at t = 0 on their own data; a file kind once
    # skipped the lattice rule, and the runner's ValueError left main (exit
    # 1).  The initial section they never read is now rejected itself
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / config).read_text())
    raw["initial"] = {"kind": "file", "path": str(tmp_path / "unread.txt")}
    raw["run"] = {**raw.get("run", {}), "t_final": 0.5 * raw["grid"]["h"]}
    out = tmp_path / "out"
    raw["output"] = {"dir": str(out)}
    assert main([raw["scenario"], "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == (
        f"config: initial: scenario {raw['scenario']} does not read it\n")
    assert not out.exists()


@pytest.mark.parametrize("edit, unmeasured", [
    ({"initial": {"kind": "gaussian", "amplitude": 0.0}},
     ["virial_consistency_order", "identity_order"]),
    ({"diagnose": {"Rc": 1.0, "times": []}}, ["identity_order"]),
])
def test_refinement_order_that_measures_nothing_fails(tmp_path, edit, unmeasured):
    # zero data leave every residual zero and no times leave identity_order
    # none; a check with no residual positive on both grids neither crashes
    # nor passes
    out = tmp_path / "out"
    raw = {**_quick("diagnose", out, {"virial_consistency_order": 1.5,
                                      "identity_order": 1.5}), **edit}
    assert main(["diagnose", "--config", _write_config(tmp_path, raw)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert [c["name"] for c in manifest["checks"] if not c["pass"]] == unmeasured
    assert [c["value"] for c in manifest["checks"]
            if c["name"] in unmeasured] == [-math.inf] * len(unmeasured)
    assert [note.split(":")[0] for note in manifest["notes"]] == unmeasured


@pytest.mark.parametrize("scenario, section, extra, path", [
    ("evolve", None, {"bogus": 1}, "bogus"),
    ("evolve", None, {"norms": {}}, "norms"),  # another scenario's options section
    ("evolve", "equation", {"q": 2.0}, "equation.q"),
    ("evolve", "grid", {"R": 2.5}, "grid.R"),
    ("evolve", "initial", {"kind": "W", "amplitude": 1.0}, "initial.amplitude"),
    ("evolve", "initial", {"kind": "gaussian", "widht": 3.0}, "initial.widht"),
    ("evolve", "initial", {"kind": "bump", "width": 1.0}, "initial.width"),
    ("evolve", "initial", {"kind": "ode_flat", "amplitude": 1.0, "radius": 1.0},
     "initial.radius"),
    ("evolve", "initial", {"kind": "file", "path": "init.txt", "t": 0.0}, "initial.t"),
    ("evolve", "run", {"snapshot_strid": 3}, "run.snapshot_strid"),
    ("evolve", "output", {"format": "csv"}, "output.format"),
    ("norms", "norms", {"tail_radiuss": [2.0, 4.0]}, "norms.tail_radiuss"),
    ("evolve", "run", {"origin_band": 2}, "run.origin_band"),  # the u-form source has none
])
def test_unknown_fields_exit_2_before_output(tmp_path, capsys, monkeypatch, scenario,
                                             section, extra, path):
    # every level names its fields, so a misspelt one is rejected rather than
    # left to its default
    from nlwlab.cli import solver

    def spy(*args, **kwargs):
        raise AssertionError("evolve called")

    monkeypatch.setattr(solver, "evolve", spy)
    out = tmp_path / "out"
    raw = _quick(scenario, out, {})
    if section is None:
        raw.update(extra)
    else:
        raw[section] = {**raw.get(section, {}), **extra}
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert str(exc.value) == f"{path}: unknown field"
    assert main([scenario, "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == f"config: {path}: unknown field\n"
    assert not out.exists()


# a value each section would accept; run fields take their defaults
_UNREAD_VALUES = {"equation": {"p": 5.0, "mu": 1}, "grid": {"h": 1.0, "n": 64},
                  "initial": {"kind": "W"}, "run": {"t_final": 0.0}}


@pytest.mark.parametrize("scenario, path",
                         [(s, path) for s, paths in _UNREAD.items() for path in paths])
def test_unread_inputs_exit_2_before_output(tmp_path, capsys, scenario, path):
    # a value that reaches no artifact would be echoed in the manifest as an
    # input of the run; it is rejected, even at its default
    out = tmp_path / "out"
    raw = _quick(scenario, out, {})
    parse_config(raw)
    section, _, key = path.partition(".")
    if key:
        raw[section] = {**raw.get(section, {}), key: _RUN[key][1]}
    else:
        raw[section] = _UNREAD_VALUES[section]
    assert main([scenario, "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == f"config: {path}: scenario {scenario} does not read it\n"
    assert not out.exists()


@pytest.mark.parametrize("stride", [1, 7])
def test_conditionally_unread_run_fields_exit_2(tmp_path, capsys, stride):
    # the ode_match run stores every layer whatever the stride
    out = tmp_path / "out"
    raw = _ode_blowup(out)
    raw["run"] = {**raw.get("run", {}), "snapshot_stride": stride}
    assert main(["evolve", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == ("config: run.snapshot_stride: a run with ode_match "
                                       "stores every layer; it does not read it\n")
    assert not out.exists()
    # the stride is read without ode_match, and ode_match without the stride
    parse_config({**raw, "checks": {k: v for k, v in raw["checks"].items() if k != "ode_match"}})
    parse_config({**raw, "run": {k: v for k, v in raw["run"].items() if k != "snapshot_stride"}})
    # ode_match alone is rejected: it is measured only with blowup_detection
    with pytest.raises(ConfigError, match="checks.ode_match: requires blowup_detection"):
        parse_config({**raw, "checks": {"ode_match": raw["checks"]["ode_match"]}})


def test_internal_value_error_is_not_a_config_error(tmp_path):
    # only a ConfigError is reported as "config:" with exit 2; a ValueError
    # from inside the library is a fault of the program and keeps its traceback
    raw = _quick("norms", tmp_path / "out", {})
    code = (
        "import sys\n"
        "from nlwlab import cli, norms\n"
        "def broken(*args, **kwargs):\n"
        "    raise ValueError('internal')\n"
        "norms.tail_table = broken\n"
        f"sys.exit(cli.main(['norms', '--config', {_write_config(tmp_path, raw)!r}]))\n")
    proc = _python(code, tmp_path)
    assert proc.returncode not in (0, 2)
    assert "config:" not in proc.stderr
    assert proc.stderr.rstrip().endswith("ValueError: internal")
    assert "Traceback" in proc.stderr


def test_sp_interval_coverage_is_reported_under_its_path(tmp_path, capsys):
    # the layers evolve will store are known from the config and t0, so
    # sp_norm's selection rejects the interval while parsing, under its path
    out = tmp_path / "out"
    raw = _quick("norms", out, {})
    raw["run"] = {"t_final": 0.1}
    raw["norms"]["sp_interval"] = [0.0, 0.1]
    assert main(["norms", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == (
        "config: norms.sp_interval: only 3 snapshots inside [0.0, 0.1]; "
        "snapshot stride too coarse\n")
    assert not out.exists()


def _norms_over_an_interval(out):
    raw = _quick("norms", out, {"tail_monotone": 0.0})
    raw["run"] = {"t_final": 1.6}  # 33 stored layers
    raw["norms"]["sp_interval"] = [0.0, 1.6]
    return raw


def _ode_blowup(out):
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "evolve_ode_blowup.json").read_text())
    raw["output"]["dir"] = str(out)
    return raw


@pytest.mark.parametrize("config, logs, files", [
    (_norms_over_an_interval, [False], {"normreport.json", "tails.csv"}),
    (lambda out: _quick("linear-check", out, {}), [False] * 4, {"report.json"}),
    # one logged run, ended by the guard: step_log.csv is its first rows
    (_ode_blowup, [True], {"step_log.csv"})])
def test_runs_that_read_no_step_log_compute_and_write_none(tmp_path, monkeypatch, config,
                                                           logs, files):
    from nlwlab.cli import solver
    seen = []

    def spy(*args, step_log=True, _f=solver.evolve, **kwargs):
        seen.append(step_log)
        traj = _f(*args, step_log=step_log, **kwargs)
        assert (traj.log is None) is not step_log
        return traj

    monkeypatch.setattr(solver, "evolve", spy)
    out = tmp_path / "out"
    assert run(parse_config(config(out))) == 0
    assert seen == logs
    assert {p.name for p in out.iterdir()} == {"manifest.json", *files}


def _two_run_blowup(cfg, out):
    # the blowup branch of the evolve runner as two runs: the detection run
    # without a log, then the ode_match run from layer 0 to n_cmp h
    from nlwlab import cli
    metrics, extra = {}, {}
    initial = build_initial(cfg.initial, cfg.grid, cfg.params)
    T_star = ode_flat_blowup_time(cfg.params, cfg.initial["amplitude"])
    extra["expected_blowup_time"] = T_star
    try:
        cli.solver.evolve(cfg.run, initial, step_log=False)
        metrics["blowup_detection"] = float("inf")
    except cli.solver.BlowupDetected as e:
        extra["detected_blowup_time"] = e.t
        metrics["blowup_detection"] = abs(e.t - T_star) / cfg.grid.h
    if "ode_match" in cfg.checks:
        h = cfg.grid.h
        n_cmp = cli._ode_match_steps(T_star, h)
        traj = cli.solver.evolve(
            replace(cfg.run, t_final=n_cmp * h, snapshot_stride=1), initial)
        worst = 0.0
        for s in traj.states:
            exact = reference_ode_blowup(cfg.params, T_star, s.t)
            worst = max(worst, abs(s.u[0] - exact) / exact)
        metrics["ode_match"] = worst
        (out / "step_log.csv").write_text(traj.log.to_csv())
    return metrics, ["energy: non-coercive (focusing sign)"], extra


def _outcome(tmp_path, capsys, raw):
    # exit code, last stderr line, and every file, the manifest without walltime_s
    out = Path(raw["output"]["dir"])
    code = main(["evolve", "--config", _write_config(tmp_path, raw)])
    last = capsys.readouterr().err.splitlines()[-1:]
    files = {f.name: f.read_text() for f in sorted(out.iterdir())}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["walltime_s"]
    for f in out.iterdir():
        f.unlink()
    return code, last, list(manifest.items()), files


_BLOWUP_EDGES = {
    "exemplar": (lambda raw: None, 0),
    # the guard fires on layer 79, which ode_match compares: aborted at 0.154296875
    "threshold_on_a_compared_layer": (
        lambda raw: raw["run"].update(blowup_threshold=3.0), 1),
    # the run to t_final detects nothing (inf fails the check); the compared
    # layers go on past it
    "t_final_below_the_compared_layers": (lambda raw: raw["run"].update(t_final=0.125), 1),
    # without ode_match the detection run reads the stride
    "stride_5": (lambda raw: (raw["run"].update(snapshot_stride=5),
                              raw["checks"].pop("ode_match")), 0),
    "detection_alone": (lambda raw: raw["checks"].pop("ode_match"), 0),
    # the plateau reaches the outer nodes of 600 at once: ConeViolation at t = 0
    "cone_guard_on": (lambda raw: (raw["grid"].update(n=600), raw["run"].pop("cone_floor")),
                      1),
}


@pytest.mark.parametrize("edge", _BLOWUP_EDGES)
def test_blowup_scenario_runs_once_with_the_outcome_of_two_runs(tmp_path, capsys,
                                                                 monkeypatch, edge):
    from nlwlab import cli
    from nlwlab.cli import solver
    edit, code = _BLOWUP_EDGES[edge]
    raw = _ode_blowup(tmp_path / "out")
    edit(raw)
    calls = []

    def counted(*args, _f=solver.evolve, **kwargs):
        calls.append(1)
        return _f(*args, **kwargs)

    monkeypatch.setattr(solver, "evolve", counted)
    got = _outcome(tmp_path, capsys, raw)
    assert len(calls) == 1
    monkeypatch.setitem(cli._RUNNERS, "evolve", _two_run_blowup)
    assert got == _outcome(tmp_path, capsys, raw)
    assert got[0] == code
    manifest = dict(got[2])
    if edge == "threshold_on_a_compared_layer":
        assert manifest["error"]["t"] == 0.154296875
        assert manifest["error"]["type"] == "BlowupDetected"
    if edge == "t_final_below_the_compared_layers":
        assert manifest["checks"][0]["value"] == math.inf
        assert [c["name"] for c in manifest["checks"]] == ["blowup_detection", "ode_match"]
    if edge == "cone_guard_on":
        assert manifest["error"]["type"] == "ConeViolation" and manifest["error"]["t"] == 0.0
    if edge == "exemplar":  # a header and layers 0..n_cmp = 118
        assert got[3]["step_log.csv"].count("\n") == 1 + 119


@pytest.mark.parametrize("p, h", [(7.0, 1e-100), (200.0, 0.01)])
def test_source_whose_r_power_underflows_runs(tmp_path, p, h):
    # r^(p-1) underflows to 0 from node 2 on; the source, -mu r |u|^{p-1} u,
    # divides by no power of r, so the run finishes with finite states (a
    # w-form source divided by it and aborted on "field magnitude nan")
    assert (2.0 * h) ** (p - 1.0) == 0.0
    out = tmp_path / "out"
    raw = _quick("evolve", out, {})
    raw["equation"]["p"] = p
    raw["grid"] = {"h": h, "n": 64}
    raw["run"] = {"t_final": h, "cone_floor": None}
    assert main(["evolve", "--config", _write_config(tmp_path, raw)]) == 0
    assert json.loads((out / "manifest.json").read_text())["status"] == "pass"
    final = load_state(out / "state_000001.txt")
    assert np.isfinite(final.u).all() and np.isfinite(final.v).all() and final.u[1] != 0.0


def test_linear_check_runs_on_a_grid_shorter_than_its_traveling_wave(tmp_path):
    # the reversibility and traveling-wave runs take a 512-node grid of their
    # own; on the config's 64 nodes the wave's segment left the grid
    raw = _quick("linear-check", tmp_path / "out", {})
    raw["grid"]["n"] = 64
    raw["run"] = {"t_final": 48.0, "cone_floor": None}
    assert run(parse_config(raw)) in (0, 1)
    rows = {c["name"]: c for c in _manifest_checks(tmp_path / "out")}
    assert rows["reversibility"]["pass"] and rows["traveling_wave"]["pass"]


def test_threads_option_is_gone(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _linear_config(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        main(["linear-check", "--config", cfg_path, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_check_table_matches_the_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| scenario       | check                      | op   | default |"
    rows = readme.split(header + "\n", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    table = {}
    for row in rows:
        scenario, name, op, default = (c.strip().strip("`")
                                       for c in row.strip("|").split("|"))
        table.setdefault(scenario, {})[name] = (
            op, None if default == "none" else float(default))
    assert table == _CHECKS
    assert [list(t) for t in table.values()] == [list(t) for t in _CHECKS.values()]


def test_readme_options_match_the_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| section        | field            | kind    | default                     |"
    rows = readme.split(header + "\n", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    kinds = {"number": float, "integer": int, "numbers": list[float], "string": str}
    table = {scenario: {} for scenario, fields in _OPTIONS.items() if not fields}
    for row in rows:
        section, field, kind, default = (c.strip().strip("`")
                                         for c in row.strip("|").split("|"))
        if default == "required":
            default = MISSING
        else:
            try:
                default = json.loads(default)
            except json.JSONDecodeError:  # a rule, which parse_config fills in
                pass
        table.setdefault(section, {})[field] = (kinds[kind], default)
    assert table == _OPTIONS
    assert [list(t) for t in table.values() if t] == [list(t) for t in _OPTIONS.values()
                                                       if t]


def test_readme_unread_inputs_match_the_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| scenario       | not read                                                 |"
    rows = readme.split(header + "\n", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    table = {}
    for row in rows:
        scenario, paths = (c.strip() for c in row.strip("|").split("|"))
        table[scenario.strip("`")] = tuple(p.strip().strip("`") for p in paths.split(","))
    conditional = {k: table.pop(k) for k in list(table) if ", if " in k}
    assert table == _UNREAD and list(table) == list(_UNREAD)
    assert conditional == {  # the rows of test_conditionally_unread_run_fields_exit_2
        "evolve`, if `checks` lists `blowup_detection` and `ode_match":
            ("run.snapshot_stride",)}


# ---------------------------------------------------------------------------
# the exit-code contract


_EDGES = [0.0, -1.0, 1e-300, 1e300, math.nan, math.inf, -math.inf, 0.5, 3.0]
_UNUSUAL = (st.sampled_from(_EDGES) | st.floats(-10.0, 10.0) | st.integers(-3, 3)
            | st.sampled_from(["x", None, [], True]))
# typical values per field kind, and for the fields whose range is narrower;
# the integer fields (strides, bootstrap's n_max and
# dense_sample, reversal_steps) set the work of a run
_TYPICAL = {bool: st.booleans(), int: st.integers(1, 300),
            float: st.floats(0.0, 4.0), float | None: st.none() | st.floats(0.0, 4.0),
            list[float]: st.lists(st.floats(0.0, 4.0), max_size=4),
            str: st.sampled_from(["f64", "extended"])}  # bootstrap.precision
_TYPICAL_FIELDS = {
    "p_values": st.lists(st.floats(5.0, 13.0), min_size=1, max_size=3),
    "beta0_values": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    "Rc": st.floats(0.1, 2.0), "cutoffs": st.lists(st.floats(0.1, 2.0), max_size=3)}


def _mostly(typical, unusual=_UNUSUAL):
    """``typical``, or one draw in twelve ``unusual``: edge values and wrong types."""
    return st.integers(0, 11).flatmap(lambda k: unusual if k == 0 else typical)


# stored times of the state file: on the lattice of its h = 1/32 and off it
_STATE_TIMES = [0.0, 0.5, 3.0 / 32.0, 0.3, -1.0, 1e10]


@st.composite
def _schema_configs(draw, state_path, t0):
    """A config drawn from the schema tables: a grid of at most 256 nodes and
    at most 64 steps to t_final, every field the scenario reads at random or
    left out.  ``state_path`` holds a state stored at time ``t0`` on
    h = 1/32, n = 64 with p = 5, mu = 1: file data mostly get that grid and
    equation, and their run starts at t0."""
    scenario = draw(st.sampled_from(SCENARIOS))
    unread = _UNREAD.get(scenario, ())
    raw = {"scenario": scenario,
           "checks": {name: draw(_mostly(st.floats(-1.0, 1.0)))
                      for name in _CHECKS[scenario] if draw(st.booleans())}}
    # nor the checks that the run would not measure (the last rows of
    # test_check_preconditions_exit_2_before_output)
    for name in (("energy_drift", "finite_speed", "exterior_zero")
                 if "blowup_detection" in raw["checks"] else ("ode_match",)):
        raw["checks"].pop(name, None)
    kind = "W"  # the data of the scenarios that read no initial section
    if "initial" not in unread:
        kind = draw(st.sampled_from(list(_INITIAL)))
        raw["initial"] = {"kind": kind}
        for key, (field_kind, default) in _INITIAL[kind].items():
            if field_kind is str:
                raw["initial"][key] = draw(
                    st.sampled_from([state_path, state_path + ".missing"]))
            elif default is MISSING or draw(st.booleans()):
                raw["initial"][key] = draw(_mostly(_TYPICAL[field_kind]))
    on_file = kind == "file"
    h = draw(_mostly(st.just(1.0 / 32.0) if on_file
                     else st.sampled_from([1.0 / 64.0, 1.0 / 32.0, 0.05, 0.25, 1.0])))
    steps = draw(st.integers(0, 64))
    if "grid" not in unread:
        n = st.just(64) if on_file else st.just(64) | st.integers(16, 256)
        raw["grid"] = {"h": h, "n": draw(_mostly(n))}
    if "equation" not in unread and draw(st.booleans()):  # else the scenario's default
        p = st.just(5.0) if on_file else st.just(5.0) | st.floats(5.0, 9.0)
        mu = st.just(1) if on_file else st.sampled_from([-1, 1])
        raw["equation"] = {"p": draw(_mostly(p)), "mu": draw(_mostly(mu))}
    start = t0 if on_file else 0.0  # the run's first time
    if "run" not in unread:
        # t_final is always given, on or off the lattice: its defaults are long runs
        dt = h if type(h) in (int, float) else 1.0
        raw["run"] = {"t_final": draw(_mostly(st.just(start + steps * dt),
                                               st.just(start + (steps + 0.5) * dt)))}
        for key, (field_kind, _) in _RUN.items():
            if key != "t_final" and f"run.{key}" not in unread and draw(st.booleans()):
                raw["run"][key] = draw(_mostly(_TYPICAL[field_kind]))
        # nor the run fields the rest of the config leaves unread (the rows
        # of test_conditionally_unread_run_fields_exit_2)
        if {"blowup_detection", "ode_match"} <= raw["checks"].keys():
            raw["run"].pop("snapshot_stride", None)
    typical = {**_TYPICAL_FIELDS,  # the times a run reads, counted from its start
               "sp_interval": st.lists(st.floats(start, start + 1.0), min_size=2,
                                       max_size=2).map(sorted),
               "times": st.lists(st.sampled_from([start + 0.25, start + 0.5]), max_size=2)}
    raw[scenario] = {
        key: draw(_mostly(typical.get(key, _TYPICAL[field_kind])))
        for key, (field_kind, default) in _OPTIONS[scenario].items()
        if default is MISSING or draw(st.booleans())}
    return raw


@settings(max_examples=150)
@given(data=st.data())
def test_every_config_ends_in_one_of_the_three_documented_outcomes(data):
    # a config error exits 2 and leaves nothing; a finished run exits 0 or 1
    # with its manifest; a solver guard exits 1 with an aborted manifest.
    # Anything else, an exception out of main included, is a fault
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        state = tmp / "state.txt"
        grid = RadialGrid(h=1.0 / 32.0, n=64)
        t0 = data.draw(st.sampled_from(_STATE_TIMES))
        save_state(nlwlab.RadialState(grid=grid, params=make_params(5.0, 1), t=t0,
                                      u=profile_gaussian(grid.r, 0.5, 1.0),
                                      v=np.zeros(grid.n + 1)), state)
        raw = data.draw(_schema_configs(str(state), t0))
        out = tmp / "out"
        raw["output"] = {"dir": str(out)}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([raw["scenario"], "--config", _write_config(tmp, raw)])
        err = err.getvalue()
        try:  # parse_config is the one place a config is rejected
            parse_config(raw)
            rejected = False
        except ConfigError:
            rejected = True
        assert (code == 2) is rejected
        if code == 2:
            assert err.startswith("config: ") and not out.exists()
            return
        manifest = json.loads((out / "manifest.json").read_text())
        if manifest["status"] == "aborted":
            assert code == 1 and err.startswith("solver: ")
        else:
            assert code == (0 if manifest["status"] == "pass" else 1)
            # every listed check is judged
            assert [c["name"] for c in manifest["checks"]] == list(parse_config(raw).checks)
