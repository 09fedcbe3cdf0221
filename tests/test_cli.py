"""Tests for config parsing, initial-data construction, and the CLI driver."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    _CHECKS,
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
         None, "verify-W requires"),
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
    assert cfg.t_final == 2000.0
    assert cfg.params.p == 5.0 and cfg.params.mu == 1
    assert cfg.out_dir == out

    cfg = parse_config({"scenario": "bootstrap"}, out_override=out)
    assert cfg.scenario == "bootstrap"

    cfg = parse_config({"scenario": "verify-W"}, out_override=out)
    assert cfg.params.p == 5.0 and cfg.params.mu == -1
    assert cfg.cone_floor is None  # the profile is not compactly supported
    assert cfg.initial["kind"] == "W"


def test_parse_config_cone_floor_accepts_null():
    base = {**_minimal("evolve"), "grid": {"h": 0.1, "n": 10},
            "initial": {"kind": "bump"}}
    for run, expected in [({}, 1e-13), ({"cone_floor": None}, None),
                          ({"cone_floor": 1}, 1.0), ({"cone_floor": 2e-9}, 2e-9)]:
        cfg = parse_config({**base, "run": {"t_final": 1.0, **run}})
        assert cfg.cone_floor == expected and type(cfg.cone_floor) is type(expected)
    for bad in ["1e-13", True, [1e-13]]:
        with pytest.raises(ConfigError, match=r"^run\.cone_floor: expected a number or null"):
            parse_config({**base, "run": {"t_final": 1.0, "cone_floor": bad}})


def test_parse_config_out_override_wins(tmp_path):
    raw = {"scenario": "bootstrap", "output": {"dir": "/nonexistent/spot"}}
    cfg = parse_config(raw, out_override=str(tmp_path))
    assert cfg.out_dir == str(tmp_path)


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
    # initial data is validated once the run has started; the empty output
    # directory the run created is removed again
    raw = {
        "scenario": "evolve",
        "grid": {"h": 0.125, "n": 64},
        "initial": {"kind": "gaussian", "width": -1.0},
        "run": {"t_final": 0.25},
        "output": {"dir": str(tmp_path / "out" / "run")},
    }
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
    ("diagnose", {"initial": {"kind": "bump"}, "diagnose": {"Rc": 1.0}}),
    ("verify-W", {}),
    ("linear-check", {}),
    ("norms", {"initial": {"kind": "bump"}, "norms": {"sp_interval": [0.0, 0.25]}}),
])
def test_parse_config_rejects_off_lattice_t_final(scenario, extra):
    raw = {"scenario": scenario, "grid": {"h": 0.125, "n": 64},
           "output": {"dir": "/tmp/unused"}, **extra}
    for t_final in (0.3, -0.25, float("inf")):
        raw["run"] = {"t_final": t_final}
        with pytest.raises(ConfigError, match=r"^run\.t_final: "):
            parse_config(raw)
    raw["run"] = {"t_final": 0.375}
    assert parse_config(raw).t_final == 0.375


def test_parse_config_lattice_rule_skips_unevolved_and_file_data(tmp_path):
    # norms without sp_interval never evolves; file data starts at its stored
    # time, so the solver keeps the check (exit 2 before any step is taken)
    raw = {"scenario": "norms", "grid": {"h": 0.125, "n": 64},
           "initial": {"kind": "bump"}, "run": {"t_final": 0.3},
           "output": {"dir": str(tmp_path / "norms")}}
    assert parse_config(raw).t_final == 0.3

    grid, params = RadialGrid(h=0.125, n=64), make_params(5.0, 1)
    state = build_initial({"kind": "bump"}, grid, params)
    save_state(state, tmp_path / "init.txt")
    raw = {"scenario": "evolve", "grid": {"h": 0.125, "n": 64},
           "initial": {"kind": "file", "path": str(tmp_path / "init.txt")},
           "run": {"t_final": 0.3}, "output": {"dir": str(tmp_path / "out")}}
    assert parse_config(raw).t_final == 0.3
    assert main(["evolve", "--config", _write_config(tmp_path, raw)]) == 2


def _python(code: str, cwd) -> subprocess.CompletedProcess:
    src = str(Path(nlwlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
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


def test_main_bootstrap_artifacts_and_precision(tmp_path, monkeypatch):
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

    # extended-precision pass reuses the same pipeline
    monkeypatch.setenv("NLWLAB_PRECISION", "extended")
    out2 = tmp_path / "out-ext"
    raw2 = dict(raw, output={"dir": str(out2)})
    cfg2 = _write_config(tmp_path, raw2, "c2.json")
    assert main(["bootstrap", "--config", cfg2]) == 0

    monkeypatch.setenv("NLWLAB_PRECISION", "half")
    out3 = tmp_path / "out-bad"
    raw3 = dict(raw, output={"dir": str(out3)})
    cfg3 = _write_config(tmp_path, raw3, "c3.json")
    assert main(["bootstrap", "--config", cfg3]) == 2


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
])
def test_check_preconditions_exit_2_before_output(tmp_path, capsys, scenario, edit,
                                                  message):
    out = tmp_path / "out"
    raw = {**_quick(scenario, out, {}), **edit}
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


def test_library_value_error_removes_the_empty_directory(tmp_path, capsys):
    # the cutoff's 2 Rc <= R contract is checked by the library once the run
    # has started, before diagnose writes anything
    out = tmp_path / "out"
    raw = _quick("diagnose", out, {})
    raw["diagnose"]["Rc"] = 3.0  # R = 4.5
    assert main(["diagnose", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == "config: cutoff must satisfy 0 < 2 Rc <= R\n"
    assert not out.exists()


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
