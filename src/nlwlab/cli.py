"""Experiment driver: JSON configs, canned scenarios, artifact emission.

Subcommands: evolve, norms, diagnose, bootstrap, verify-W, linear-check.
Every run reads one JSON config, writes its artifacts into an output
directory, and finishes with a manifest.json recording the config echo, the
package version, wall time, and one pass/fail entry per enabled check; the
process exits 0 only if every enabled check passed.  Identical configs
produce byte-identical artifacts except for the manifest's wall-time field.

Config schema (see configs/ for one exemplar per scenario):

    {
      "scenario":  "evolve" | "norms" | "diagnose" | "bootstrap"
                   | "verify-W" | "linear-check",
      "equation":  {"p": 7.0, "mu": 1},
      "grid":      {"h": 0.01, "n": 5000},
      "initial":   {"kind": "W"}
                   | {"kind": "gaussian", "width": 1.0, "amplitude": 1.0}
                   | {"kind": "bump", "radius": 1.0, "amplitude": 1.0}
                   | {"kind": "ode_flat", "amplitude": 1.861}
                   | {"kind": "file", "path": "state.txt"},
      "run":       {"t_final": 1.0, "snapshot_stride": 1, "origin_band": 2,
                    "cone_floor": 1e-13 or null, "blowup_threshold": 1e12,
                    "linear": false},
      "output":    {"dir": "out"},
      "checks":    {<name>: <threshold>, ...}          (scenario-specific),
      "<scenario>": {...}          (options section named after the scenario)
    }

Malformed configs are reported with the offending field path.  The
environment variable NLWLAB_PRECISION (f64 | extended) selects the float
type used by the bootstrap arithmetic.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nlwlab import __version__, bootstrap, diagnostics, norms, solver
from nlwlab.core import (
    EquationParams,
    RadialGrid,
    RadialState,
    _ode_blowup_constant,
    _shared_grid,
    load_state,
    make_params,
    reference_W,
    reference_ode_blowup,
    save_state,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "build_initial",
    "main",
    "parse_config",
    "profile_bump",
    "profile_gaussian",
    "profile_ode_flat",
    "run",
]

SCENARIOS = ("evolve", "norms", "diagnose", "bootstrap", "verify-W", "linear-check")

_MISSING = object()


class ConfigError(ValueError):
    """Malformed configuration, reported with the offending field path."""


def _field(raw: dict, path: str, kind, default=_MISSING, nullable=False):
    """Value at a dotted path, checked against ``kind``.

    With ``nullable``, JSON null passes and is returned as None.
    """
    node = raw
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _MISSING:
                raise ConfigError(f"{path}: required field is missing")
            return default
        node = node[part]
    if nullable and node is None:
        return None
    if kind is float:
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            what = "a number or null" if nullable else "a number"
            raise ConfigError(f"{path}: expected {what}, got {type(node).__name__}")
        return float(node)
    if kind is int:
        if isinstance(node, bool) or not isinstance(node, int):
            raise ConfigError(f"{path}: expected an integer, got {type(node).__name__}")
        return node
    if kind is bool:
        if not isinstance(node, bool):
            raise ConfigError(f"{path}: expected a boolean, got {type(node).__name__}")
        return node
    if kind is str:
        if not isinstance(node, str):
            raise ConfigError(f"{path}: expected a string, got {type(node).__name__}")
        return node
    if kind is dict:
        if not isinstance(node, dict):
            raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")
        return node
    if kind is list:
        if not isinstance(node, list):
            raise ConfigError(f"{path}: expected a list, got {type(node).__name__}")
        return node
    raise AssertionError(kind)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment configuration."""

    scenario: str
    params: EquationParams
    grid: RadialGrid
    initial: dict
    t_final: float
    snapshot_stride: int
    origin_band: int
    cone_floor: float | None
    blowup_threshold: float
    linear: bool
    out_dir: str | None
    checks: dict  # name -> threshold, in _CHECKS order
    section: dict
    raw: dict


_SCENARIO_DEFAULTS = {
    # (p, mu, h, n, t_final, initial descriptor)
    "verify-W": (5.0, -1, 0.01, 5000, 1.0, {"kind": "W"}),
    "linear-check": (5.0, 1, 1.0, 2048, 2000.0, {"kind": "W"}),  # initial unused
    "bootstrap": (5.0, 1, 1.0, 2, 0.0, {"kind": "W"}),  # grid-free scenario
}

# check name -> (comparison op, default threshold), in manifest order; a check
# without a default runs only when the config lists it
_CHECKS = {
    "evolve": {"blowup_detection": ("<=", None), "ode_match": ("<=", None),
               "energy_drift": ("<=", None), "finite_speed": ("<=", None),
               "exterior_zero": ("<=", None)},
    "norms": {"route_agreement": ("<=", None), "l2_match": ("<=", None),
              "tail_monotone": ("<=", None), "hardy": ("<=", None)},
    "diagnose": {"virial_consistency_order": (">=", None),
                 "identity_order": (">=", None), "z_monotone": ("<", None),
                 "energy_drift": ("<=", None)},
    "bootstrap": {"contraction_subunit": ("<", None), "iteration_monotone": ("<", None),
                  "limit_gap": ("<=", None), "fixed_point": ("<=", None)},
    "verify-W": {"static_drift": ("<=", None), "decay_c0": ("<=", None),
                 "decay_slope": ("<=", None), "tail_slope": ("<=", None)},
    "linear-check": {"dalembert_error": ("<=", 1e-12), "reversibility": ("<=", 1e-10),
                     "traveling_wave": ("<=", 1e-10)},
}


def parse_config(raw: dict, scenario: str | None = None,
                 out_override: str | None = None) -> ExperimentConfig:
    """Validate a raw config dict against the schema (field-path errors)."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    declared = _field(raw, "scenario", str, default=None)
    if declared is None and scenario is None:
        raise ConfigError("scenario: required field is missing")
    if declared is not None and scenario is not None and declared != scenario:
        raise ConfigError(
            f"scenario: config says {declared!r} but the subcommand is {scenario!r}")
    name = scenario or declared
    if name not in SCENARIOS:
        raise ConfigError(f"scenario: unknown scenario {name!r}")

    dp, dmu, dh, dn, dt_final, dinit = _SCENARIO_DEFAULTS.get(
        name, (5.0, 1, None, None, None, None))
    p = _field(raw, "equation.p", float, default=dp)
    mu = _field(raw, "equation.mu", int, default=dmu)
    if name == "verify-W" and (p != 5.0 or mu != -1):
        raise ConfigError("equation: scenario verify-W requires p = 5, mu = -1")
    try:
        params = make_params(p, mu)
    except ValueError as e:
        raise ConfigError(f"equation: {e}") from None

    h = _field(raw, "grid.h", float, default=dh)
    n = _field(raw, "grid.n", int, default=dn)
    if h is None or n is None:
        raise ConfigError("grid: h and n are required for this scenario")
    try:
        # the grid state files load onto, so written and read states share one
        grid = _shared_grid(h, n)
    except ValueError as e:
        raise ConfigError(f"grid: {e}") from None

    initial = _field(raw, "initial", dict, default=dinit)
    if initial is None:
        raise ConfigError("initial: required field is missing")
    kind = _field({"initial": initial}, "initial.kind", str)
    if kind not in ("W", "gaussian", "bump", "ode_flat", "file"):
        raise ConfigError(f"initial.kind: unknown initial data kind {kind!r}")

    t_final = _field(raw, "run.t_final", float, default=dt_final)
    if t_final is None:
        raise ConfigError("run.t_final: required field is missing")
    cone_floor = _field(raw, "run.cone_floor", float, default=1e-13, nullable=True)
    if name == "verify-W":
        cone_floor = None  # the static profile is not compactly supported
    for key in _field(raw, "checks", dict, default={}):
        if key not in _CHECKS[name]:
            raise ConfigError(f"checks.{key}: unknown check for scenario {name}")
    thresholds = {c: _field(raw, f"checks.{c}", float, default=default)
                  for c, (_, default) in _CHECKS[name].items()}
    cfg = ExperimentConfig(
        scenario=name,
        params=params,
        grid=grid,
        initial=initial,
        t_final=t_final,
        snapshot_stride=_field(raw, "run.snapshot_stride", int, default=1),
        origin_band=_field(raw, "run.origin_band", int, default=2),
        cone_floor=cone_floor,
        blowup_threshold=_field(raw, "run.blowup_threshold", float, default=1e12),
        linear=_field(raw, "run.linear", bool, default=False),
        out_dir=out_override or _field(raw, "output.dir", str, default=None),
        checks={c: t for c, t in thresholds.items() if t is not None},
        section=_field(raw, name, dict, default={}),
        raw=raw,
    )
    if cfg.out_dir is None:
        raise ConfigError("output.dir: required (or pass --out)")
    if cfg.snapshot_stride < 1:
        raise ConfigError("run.snapshot_stride: must be >= 1")
    if cfg.origin_band < 2:
        raise ConfigError("run.origin_band: must be >= 2")
    if "blowup_detection" in cfg.checks and kind != "ode_flat":
        raise ConfigError("checks.blowup_detection: requires ode_flat initial data")
    if ("tail_monotone" in cfg.checks
            and len(_field(raw, "norms.tail_radii", list, default=[])) < 2):
        raise ConfigError("checks.tail_monotone: needs at least two tail radii")
    # the solver's lattice rule, applied before any output exists; file data
    # keeps the solver-side check, since its start time is known only once loaded
    evolves = name in ("evolve", "diagnose", "verify-W", "linear-check") or (
        name == "norms" and "sp_interval" in cfg.section)
    if evolves and kind != "file":
        try:
            solver.step_count(0.0, t_final, h)
        except ValueError:
            raise ConfigError(
                f"run.t_final: {t_final!r} is not a whole, nonnegative number of "
                f"steps of h = {h!r} from t = 0") from None
    if name == "diagnose":
        _validate_diagnose(cfg, kind)
    return cfg


def _diagnose_times(cfg: ExperimentConfig) -> list:
    """diagnose.times as floats (default: the middle of the run), each a
    lattice time whose neighbours t - h and t + h lie inside the run."""
    h = cfg.grid.h
    times = _field(cfg.section, "times", list, default=[cfg.t_final / 2.0])
    if any(isinstance(t, bool) or not isinstance(t, (int, float)) for t in times):
        raise ConfigError("diagnose.times: expected a list of numbers")
    for t in times:
        k = round(t / h)
        if abs(t - k * h) > 1e-9 * max(h, abs(t)):
            raise ConfigError(f"diagnose.times: {t} is not on the time lattice")
        if not (h - 1e-12 <= t <= cfg.t_final - h + 1e-12):
            raise ConfigError(
                f"diagnose.times: {t} needs both t - h and t + h inside the run")
    return [float(t) for t in times]


def _validate_diagnose(cfg: ExperimentConfig, kind: str) -> None:
    """The diagnose run's lattice rules, checked before any output exists.

    Explicit diagnose.times are checked here; the default midpoint, which
    depends on t_final alone, is checked as the run starts, before it writes
    anything.  The refinement checks rerun the scenario at 2h on n / 2 nodes.
    """
    if "times" in cfg.section:
        _diagnose_times(cfg)
    if "virial_consistency_order" in cfg.checks or "identity_order" in cfg.checks:
        if cfg.grid.n % 2 != 0:
            raise ConfigError("grid.n: refinement checks need an even node count")
        if kind == "file":
            raise ConfigError("initial.kind: refinement checks need generated data, "
                              "not a state file on one grid")
        try:
            solver.step_count(0.0, cfg.t_final, 2.0 * cfg.grid.h)
        except ValueError:
            raise ConfigError(
                f"run.t_final: refinement checks need a whole number of steps of "
                f"2h = {2.0 * cfg.grid.h!r} from t = 0") from None


# --- initial data -------------------------------------------------------------


def profile_gaussian(r, width: float, amplitude: float):
    """amplitude * exp(-r^2 / (2 width^2))."""
    return amplitude * np.exp(-r * r / (2.0 * width * width))


def profile_bump(r, radius: float, amplitude: float):
    """Compactly supported mollifier: amplitude * e * exp(-1/(1 - (r/radius)^2))."""
    x = np.minimum(np.abs(r) / radius, 1.0)
    out = np.zeros_like(np.asarray(r, dtype=float))
    inside = x < 1.0
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def profile_ode_flat(r, amplitude: float):
    """Plateau of height amplitude on [0, 1], quintic ramp to zero on [1, 1.5].

    Matches the space-independent blowup solution near the origin; the ramp
    keeps the data compact so the blowup at r = 0 is causally isolated from
    the boundary.
    """
    y = np.clip((np.asarray(r, dtype=float) - 1.0) / 0.5, 0.0, 1.0)
    return amplitude * (1.0 - y ** 3 * (10.0 - 15.0 * y + 6.0 * y * y))


def ode_flat_blowup_time(params: EquationParams, amplitude: float) -> float:
    """T with c_p T^{-a} = amplitude, the blowup time of the plateau data."""
    return (_ode_blowup_constant(params) / amplitude) ** (1.0 / params.a)


def build_initial(desc: dict, grid: RadialGrid, params: EquationParams) -> RadialState:
    """Materialize an initial-data descriptor on the grid."""
    kind = desc["kind"]
    r = grid.r
    if kind == "W":
        if params.p != 5.0 or params.mu != -1:
            raise ConfigError("initial.kind: W requires p = 5, mu = -1")
        return reference_W(grid)
    if kind == "gaussian":
        width = _field(desc, "width", float, default=1.0)
        amp = _field(desc, "amplitude", float, default=1.0)
        if width <= 0:
            raise ConfigError("initial.width: must be positive")
        return RadialState(grid=grid, params=params, t=0.0,
                           u=profile_gaussian(r, width, amp), v=np.zeros(grid.n + 1))
    if kind == "bump":
        radius = _field(desc, "radius", float, default=1.0)
        amp = _field(desc, "amplitude", float, default=1.0)
        if radius <= 0:
            raise ConfigError("initial.radius: must be positive")
        return RadialState(grid=grid, params=params, t=0.0,
                           u=profile_bump(r, radius, amp), v=np.zeros(grid.n + 1))
    if kind == "ode_flat":
        amp = _field(desc, "amplitude", float)
        if amp <= 0:
            raise ConfigError("initial.amplitude: must be positive")
        if params.mu != -1:
            raise ConfigError("initial.kind: ode_flat requires the focusing sign mu = -1")
        u0 = profile_ode_flat(r, amp)
        T = ode_flat_blowup_time(params, amp)
        # the exact solution grows like (T - t)^{-a}, so v = (a / T) u at t = 0
        return RadialState(grid=grid, params=params, t=0.0,
                           u=u0, v=(params.a / T) * u0)
    if kind == "file":
        path = _field(desc, "path", str)
        try:
            state = load_state(path)
        except (OSError, ValueError) as e:
            raise ConfigError(f"initial.path: {e}") from None
        if state.grid != grid:
            raise ConfigError("initial.path: stored grid does not match config grid")
        if state.params != params:
            raise ConfigError("initial.path: stored parameters do not match config")
        return state
    raise ConfigError(f"initial.kind: unknown initial data kind {kind!r}")


# --- manifest plumbing --------------------------------------------------------


def _check(name: str, value: float, threshold: float, op: str = "<="):
    value = float(value)
    ok = {"<=": value <= threshold, "<": value < threshold,
          ">=": value >= threshold}[op]
    return {"name": name, "value": value, "threshold": float(threshold),
            "op": op, "pass": bool(ok)}


def _solver_config(cfg: ExperimentConfig, **overrides) -> solver.SolverConfig:
    kw = dict(grid=cfg.grid, params=cfg.params, t_final=cfg.t_final,
              snapshot_stride=cfg.snapshot_stride, origin_band=cfg.origin_band,
              linear=cfg.linear, cone_floor=cfg.cone_floor,
              blowup_threshold=cfg.blowup_threshold)
    kw.update(overrides)
    return solver.SolverConfig(**kw)


def _write(out: Path, name: str, text: str) -> None:
    (out / name).write_text(text)


def _write_states(out: Path, traj) -> None:
    for k, state in enumerate(traj.states):
        save_state(state, out / f"state_{k:06d}.txt")


# --- scenario runners ----------------------------------------------------------


def _energy_drift(log) -> float:
    """max_t |E(t) - E(t0)| / |E(t0)| over the step log (|E(t0)| floored at 1e-14)."""
    scale = max(abs(log.energy[0]), 1e-14)
    return float(np.max(np.abs(log.energy - log.energy[0])) / scale)


def _run_evolve(cfg: ExperimentConfig, out: Path):
    metrics, notes, extra = {}, [], {}
    initial = build_initial(cfg.initial, cfg.grid, cfg.params)
    if cfg.params.mu == -1:
        notes.append("energy: non-coercive (focusing sign)")

    if "blowup_detection" in cfg.checks:
        T_star = ode_flat_blowup_time(cfg.params, float(cfg.initial["amplitude"]))
        extra["expected_blowup_time"] = T_star
        try:
            solver.evolve(_solver_config(cfg), initial)
            metrics["blowup_detection"] = float("inf")
        except solver.BlowupDetected as e:
            extra["detected_blowup_time"] = e.t
            metrics["blowup_detection"] = abs(e.t - T_star) / cfg.grid.h
        if "ode_match" in cfg.checks:
            h = cfg.grid.h
            margin = 10.0  # compare while T - t >= 10 h
            n_cmp = int(np.floor((T_star - margin * h) / h))
            if n_cmp < 1:
                raise ConfigError("checks.ode_match: no lattice times before T - 10h")
            traj = solver.evolve(
                _solver_config(cfg, t_final=n_cmp * h, snapshot_stride=1), initial)
            worst = 0.0
            for s in traj.states:
                exact = reference_ode_blowup(cfg.params, T_star, s.t)
                worst = max(worst, abs(s.u[0] - exact) / exact)
            metrics["ode_match"] = worst
            _write(out, "step_log.csv", traj.log.to_csv())
        return metrics, notes, extra

    traj = solver.evolve(_solver_config(cfg), initial)
    _write(out, "step_log.csv", traj.log.to_csv())
    _write_states(out, traj)
    log, final = traj.log, traj.states[-1]
    rho0 = log.support_radius[0]
    allowed = rho0 + (log.t - log.t[0]) + 2.0 * cfg.grid.h
    outside = cfg.grid.r > rho0 + (final.t - log.t[0]) + 2.0 * cfg.grid.h
    if "finite_speed" in cfg.checks:
        notes.append("finite_speed: support radius vs rho0 + t + 2h, all layers")
    metrics = {"energy_drift": _energy_drift(log),
               "finite_speed": float(np.max(log.support_radius - allowed)),
               "exterior_zero": (float(np.max(np.abs(final.u[outside])))
                                 if np.any(outside) else 0.0)}
    return metrics, notes, extra


def _run_norms(cfg: ExperimentConfig, out: Path):
    metrics = {}
    sec = cfg.section
    state = build_initial(cfg.initial, cfg.grid, cfg.params)
    betas = [float(b) for b in _field(sec, "betas", list, default=[0.0, 0.5, 1.0])]
    tail_radii = [float(x) for x in _field(sec, "tail_radii", list, default=[])]
    g1_radii = [float(x) for x in _field(sec, "g1_radii", list, default=[])]
    sp_interval = _field(sec, "sp_interval", list, default=None)

    traj = None
    if sp_interval is not None:
        if len(sp_interval) != 2:
            raise ConfigError("norms.sp_interval: expected [t0, t1]")
        traj = solver.evolve(_solver_config(cfg), state)
    tails = norms.tail_table(state, tail_radii)
    hsp = None
    if "route_agreement" in cfg.checks or "l2_match" in cfg.checks:
        # each route transforms u once; beta = 0 (for l2_match) and s_p (the
        # report's hsp) come last
        swept = betas if "route_agreement" in cfg.checks else []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            freq, one_d = norms.sobolev_norms(state.u, cfg.grid,
                                              [*swept, 0.0, cfg.params.s_p])
        hsp, freq, one_d = freq[-1], freq[:-1], one_d[:-1]
    report = norms.norm_report(state, traj, tail_radii=tail_radii,
                               g1_radii=g1_radii,
                               sp_interval=tuple(sp_interval) if sp_interval else None,
                               hsp=hsp, tails=tails)
    _write(out, "normreport.json", report.to_json())
    if tails:
        _write(out, "tails.csv", norms.tails_to_csv(tails))

    if "route_agreement" in cfg.checks:
        worst = 0.0
        for n1, n2 in zip(freq[:-1], one_d[:-1]):
            worst = max(worst, abs(n1 - n2) / max(n2, 1e-300))
        metrics["route_agreement"] = worst
    if "l2_match" in cfg.checks:
        direct = float(np.sqrt(4.0 * np.pi * np.trapezoid(
            state.u ** 2 * cfg.grid.r ** 2, dx=cfg.grid.h)))
        metrics["l2_match"] = abs(freq[-1] - direct) / max(direct, 1e-300)
    if "tail_monotone" in cfg.checks:
        recs = sorted(tails, key=lambda rec: rec.r)
        metrics["tail_monotone"] = max(
            getattr(b, f) - getattr(a, f)
            for a, b in zip(recs, recs[1:])
            for f in ("lm_du", "lm_v", "l2_du", "l2_v"))
    if "hardy" in cfg.checks:
        _, hardy = diagnostics.support_and_hardy(state)
        grad2 = report.energy_norms[0] ** 2
        metrics["hardy"] = hardy / max(4.0 * grad2, 1e-300)
    return metrics, [], {}


def _per_step_virial_residual(traj) -> float:
    """max over interior layers of |centered dz/dt - closed-form rate|."""
    z = traj.log.virial
    h = traj.grid.h
    worst = 0.0
    for k in range(1, len(traj.states) - 1):
        lhs = (z[k + 1] - z[k - 1]) / (2.0 * h)
        rate = diagnostics.virial_rate(traj.states[k])
        worst = max(worst, abs(lhs - rate))
    return worst


def _run_diagnose(cfg: ExperimentConfig, out: Path):
    metrics, notes = {}, []
    sec = cfg.section
    Rc = _field(sec, "Rc", float)
    times = _diagnose_times(cfg)
    cutoffs = [float(c) for c in _field(sec, "cutoffs", list, default=[Rc])]
    if cfg.params.mu == -1:
        notes.append("energy: non-coercive (focusing sign)")

    initial = build_initial(cfg.initial, cfg.grid, cfg.params)
    fine = solver.evolve(_solver_config(cfg, snapshot_stride=1), initial)
    records = [diagnostics.diagnostic_record(fine, t, Rc) for t in times]
    _write(out, "records.csv", diagnostics.records_to_csv(records, mu=cfg.params.mu))
    _write(out, "residuals.json",
           diagnostics.residual_sweep_to_json(fine, cutoffs, times))
    _write(out, "step_log.csv", fine.log.to_csv())

    if "virial_consistency_order" in cfg.checks or "identity_order" in cfg.checks:
        cgrid = RadialGrid(h=2.0 * cfg.grid.h, n=cfg.grid.n // 2)
        cinitial = build_initial(cfg.initial, cgrid, cfg.params)
        coarse = solver.evolve(_solver_config(cfg, grid=cgrid, snapshot_stride=1),
                               cinitial)
    if "virial_consistency_order" in cfg.checks:
        m_fine = _per_step_virial_residual(fine)
        m_coarse = _per_step_virial_residual(coarse)
        metrics["virial_consistency_order"] = float(np.log2(m_coarse / m_fine))
    if "identity_order" in cfg.checks:
        worst = float("inf")
        for t in times:
            rf = diagnostics.localized_identity_residuals(fine, Rc, t)
            rc = diagnostics.localized_identity_residuals(coarse, Rc, t)
            for a, b in zip(rf, rc):
                worst = min(worst, float(np.log2(b / a)))
        metrics["identity_order"] = worst
    metrics["z_monotone"] = float(np.max(np.diff(fine.log.virial)))
    metrics["energy_drift"] = _energy_drift(fine.log)
    return metrics, notes, {}


def _run_bootstrap(cfg: ExperimentConfig, out: Path):
    metrics = {}
    sec = cfg.section
    p_values = [float(p) for p in _field(sec, "p_values", list,
                                         default=[5.0, 6.0, 7.0, 9.0, 13.0])]
    beta0_values = [float(b) for b in _field(sec, "beta0_values", list,
                                             default=[0.01, 0.1])]
    tol = _field(sec, "tol", float, default=1e-12)
    n_max = _field(sec, "n_max", int, default=100000)
    dense = _field(sec, "dense_sample", int, default=2000)

    lines = ["p,value,theta"]
    for p, (value, theta) in zip(p_values, bootstrap.contraction_table(p_values)):
        lines.append(f"{p!r},{value!r},{theta!r}")
    _write(out, "contraction.csv", "\n".join(lines) + "\n")

    jobs = [(p, b0) for p in p_values for b0 in beta0_values]
    seqs = [bootstrap.exponent_iteration(p, b0, n_max=n_max, tol=tol) for p, b0 in jobs]
    for (p, b0), seq in zip(jobs, seqs):
        i, j = p_values.index(p), beta0_values.index(b0)
        body = f"# p={p!r} beta0={b0!r}\n" + seq.to_csv()
        _write(out, f"exponents_p{i}_b{j}.csv", body)

    if "contraction_subunit" in cfg.checks:
        sample = np.geomspace(5.0, 1e4, dense)
        metrics["contraction_subunit"] = max(
            value for value, _ in bootstrap.contraction_table(sample))
    if "iteration_monotone" in cfg.checks:
        worst = -float("inf")
        for (p, b0), seq in zip(jobs, seqs):
            limit = 1.0 - 2.0 / (p - 1.0)
            if b0 >= limit:  # fixed point: constant sequence, exempt
                continue
            diffs = np.diff(seq.beta)
            worst = max(worst, float(np.max(-diffs)) if diffs.size else -float("inf"))
        metrics["iteration_monotone"] = worst
    if "limit_gap" in cfg.checks:
        metrics["limit_gap"] = max(seq.limit_gap for seq in seqs)
    if "fixed_point" in cfg.checks:
        worst = 0.0
        for p in p_values:
            seq = bootstrap.exponent_iteration(p, 1.0 - 2.0 / (p - 1.0))
            worst = max(worst, abs(seq.gamma[0] * p - 1.0))
        metrics["fixed_point"] = worst
    return metrics, [], {}


def _run_verify_w(cfg: ExperimentConfig, out: Path):
    notes = ["cone guard disabled: the static profile is not compactly supported",
             "drift region: r <= R - t - 2h (outer truncation is causally excluded)",
             "energy: non-coercive (focusing sign)"]
    initial = reference_W(cfg.grid)
    traj = solver.evolve(_solver_config(cfg), initial)
    _write(out, "step_log.csv", traj.log.to_csv())
    save_state(traj.states[-1], out / "final_state.txt")

    W = initial.u
    r = cfg.grid.r
    drift = 0.0
    for s in traj.states:
        clean = r <= cfg.grid.R - (s.t - initial.t) - 2.0 * cfg.grid.h
        drift = max(drift, float(np.max(np.abs(s.u[clean] - W[clean]))))
    r_min = _field(cfg.section, "decay_r_min", float, default=4.0) \
        if cfg.section else 4.0
    C0, _ = bootstrap.decay_fit(traj, r_min=r_min)
    # the slope is fitted to the evolved layers only: sup_t |u| over all of
    # them would include W itself and could not see a damped profile
    evolved = traj.states[1:] or traj.states
    sup_u = np.max([np.abs(s.u) for s in evolved], axis=0)
    _, slope = bootstrap.profile_decay_fit(cfg.grid, sup_u, r_min=r_min)
    # the exact profile's own window slope: W only tends to sqrt(3)/r, its
    # local log-log slope is -r^2/(3 + r^2), so the window fit is not -1
    _, slope_W = bootstrap.profile_decay_fit(cfg.grid, W, r_min=r_min)

    # tail decay is a property of the profile; the evolved field carries
    # boundary-truncation garbage near R that would swamp the tail integral
    window = (r >= r_min) & (r <= cfg.grid.R / 4.0)
    radii = r[window]
    profile = traj.states[0]
    tails = np.array([norms.tail_norms(profile, rr).l2_du for rr in radii])
    pos = tails > 0
    tail_slope = float(np.polyfit(np.log(radii[pos]), np.log(tails[pos]), 1)[0])

    metrics = {"static_drift": drift,
               "decay_c0": abs(C0 - np.sqrt(3.0)) / np.sqrt(3.0),
               "decay_slope": abs(slope - slope_W),
               "tail_slope": abs(tail_slope - (-0.5))}
    return metrics, notes, {"report": {"static_drift": drift, "C0": C0, "slope": slope,
                                       "slope_W": slope_W, "tail_slope": tail_slope}}


def _hat_state(grid: RadialGrid, params: EquationParams) -> RadialState:
    """Piecewise-linear reduced field supported on nodes 8..40 (peak at 24)."""
    j = np.arange(grid.n + 1, dtype=float)
    w = np.maximum(0.0, 1.0 - np.abs(j - 24.0) / 16.0)
    u = np.zeros(grid.n + 1)
    u[1:] = w[1:] / grid.r[1:]
    return RadialState(grid=grid, params=params, t=0.0, u=u, v=np.zeros(grid.n + 1))


def _dalembert_final(w0: np.ndarray, n_steps: int) -> np.ndarray:
    """Exact free evolution of an odd-extended lattice profile (v0 = 0)."""
    n = len(w0) - 1

    def sample(k: np.ndarray) -> np.ndarray:
        k = np.asarray(k)
        out = np.zeros(k.shape)
        inside = np.abs(k) <= n
        ki = np.abs(k[inside]).astype(int)
        out[inside] = np.sign(k[inside]) * w0[ki]
        return out

    j = np.arange(n + 1)
    return 0.5 * (sample(j + n_steps) + sample(j - n_steps))


def _run_linear_check(cfg: ExperimentConfig, out: Path):
    params = cfg.params
    grid = cfg.grid
    n_steps = solver.step_count(0.0, cfg.t_final, grid.h)

    hat = _hat_state(grid, params)
    traj = solver.evolve(_solver_config(cfg, linear=True,
                                        snapshot_stride=max(1, n_steps)), hat)
    w_exact = _dalembert_final(hat.w, n_steps)
    err = float(np.max(np.abs(traj.states[-1].w - w_exact)))

    # reversibility on a reduced grid: forward then backward through step()
    rev_steps = _field(cfg.section, "reversal_steps", int, default=256) \
        if cfg.section else 256
    small = RadialGrid(h=grid.h, n=min(grid.n, 512))
    hat_s = _hat_state(small, params)
    fwd = solver.evolve(
        solver.SolverConfig(grid=small, params=params, t_final=rev_steps * small.h,
                            snapshot_stride=1, linear=True, cone_floor=None), hat_s)
    lo, hi = fwd.states[-2], fwd.states[-1]
    cur, prev = lo, hi
    for _ in range(rev_steps - 1):
        cur, prev = solver.step(prev, cur, linear=True), cur
    rev_err = float(np.max(np.abs(cur.u - hat_s.u)))

    # lattice traveling wave: exact transport means zero characteristic defect
    prof = np.maximum(0.0, 1.0 - np.abs(np.arange(small.n + 1) - 100.0) / 40.0)
    u0 = np.zeros(small.n + 1)
    u0[1:] = prof[1:] / small.r[1:]
    back = np.zeros(small.n + 1)
    back[:-1] = prof[1:]  # f(r + h): the wave one step earlier
    ub = np.zeros(small.n + 1)
    ub[1:] = back[1:] / small.r[1:]
    state0 = RadialState(grid=small, params=params, t=0.0, u=u0,
                         v=np.zeros(small.n + 1))
    state_back = RadialState(grid=small, params=params, t=-small.h, u=ub,
                             v=np.zeros(small.n + 1))
    twave = solver.evolve(
        solver.SolverConfig(grid=small, params=params, t_final=128.0 * small.h,
                            snapshot_stride=1, linear=True, cone_floor=None),
        state0, initial_prev=state_back)
    resid = solver.characteristic_transport_residual(
        twave, r0=40.0 * small.h, t0=64.0 * small.h, tau_max=32.0 * small.h)
    metrics = {"dalembert_error": err, "reversibility": rev_err, "traveling_wave": resid}
    _write(out, "report.json", json.dumps(metrics, indent=2) + "\n")
    return metrics, [], {}


_RUNNERS = {
    "evolve": _run_evolve,
    "norms": _run_norms,
    "diagnose": _run_diagnose,
    "bootstrap": _run_bootstrap,
    "verify-W": _run_verify_w,
    "linear-check": _run_linear_check,
}


def run(config: ExperimentConfig, threads: int = 1) -> int:
    """Execute a parsed config; write artifacts + manifest; 0 iff checks pass.

    The scenario's runner measures; each configured check is judged here,
    against its threshold with the op of ``_CHECKS``.  A solver guard the
    scenario does not handle (``solver.SolverError``) still leaves a
    manifest, with status "aborted" and the error's type, message and time;
    the error is then re-raised.  A ``ValueError`` (a ``ConfigError``, or a
    library contract that a config value broke) leaves no manifest; the
    output directory is removed if this call created it and it is still
    empty.  ``threads`` is ignored: every scenario runs in one thread, and
    the keyword stays only because ``bench/worker.py`` still passes it.
    """
    out = Path(config.out_dir)
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    error = None
    try:
        metrics, notes, extra = _RUNNERS[config.scenario](config, out)
    except ValueError:
        if created and not any(out.iterdir()):
            out.rmdir()
        raise
    except solver.SolverError as e:
        error = e
        checks, notes, status = [], [], "aborted"
        extra = {"error": {"type": type(e).__name__, "message": str(e), "t": float(e.t)}}
    else:
        ops = _CHECKS[config.scenario]
        checks = [_check(n, metrics[n], thr, ops[n][0])
                  for n, thr in config.checks.items() if n in metrics]
        status = "pass" if all(c["pass"] for c in checks) else "fail"
    walltime = time.perf_counter() - t0
    manifest = {
        "scenario": config.scenario,
        "version": __version__,
        "config": config.raw,
        "walltime_s": walltime,
        "checks": checks,
        "notes": notes,
        **extra,
        "status": status,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if error is not None:
        raise error
    return 0 if status == "pass" else 1


def main(argv=None) -> int:
    import argparse  # only the command line needs it, not library use

    parser = argparse.ArgumentParser(
        prog="nlwlab",
        description="Numerical laboratory for the radial semilinear wave equation")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(name, help=f"run the {name} scenario")
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as e:
        print(f"config: cannot read {args.config}: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"config: invalid JSON in {args.config}: {e}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(raw, scenario=args.scenario, out_override=args.out)
    except ConfigError as e:
        print(f"config: {e}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except solver.SolverError as e:
        print(f"solver: {e} (t = {e.t!r})", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"config: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        # contract violations raised by the library (lattice misalignment,
        # coverage shortfalls) trace back to config values
        print(f"config: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
