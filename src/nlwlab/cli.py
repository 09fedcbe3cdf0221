"""Experiment driver: JSON configs, canned scenarios, artifact emission.

Subcommands: evolve, norms, diagnose, bootstrap, verify-W, linear-check.
Every run reads one JSON config, writes its artifacts into an output
directory, and finishes with a manifest.json recording the config echo, the
package version, wall time, and one pass/fail entry per enabled check; the
process exits 0 only if every enabled check passed.  Identical configs
produce byte-identical artifacts except for the manifest's wall-time field.

The config schema is README.md's "Config schema" section (configs/ has one
exemplar per scenario).  :func:`parse_config`, the one place a config is
rejected, with the offending field path, reads and checks every field and
builds the initial state.  Every input that changes an artifact is a config
field, so the manifest's config echo names all of a run's inputs; no
environment variable is read.  Conversely, a config may set only what its
scenario reads: a section or run field that changes none of the scenario's
artifacts (``_UNREAD``), or a run field that the rest of the config leaves
unread (the stride of an ``ode_match`` run), is rejected, so every value
the echo holds is an input of the run; so is a check that the run would
not measure, so every listed check is judged.

This module holds the schema, the initial data, the evolve runner and the
manifest; the runners of the other five scenarios are in
:mod:`nlwlab.scenarios`.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from nlwlab import __version__, bootstrap, norms, solver
from nlwlab.core import (
    EquationParams,
    RadialGrid,
    RadialState,
    StepLog,
    _lattice_steps,
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


class ConfigError(ValueError):
    """Malformed configuration, reported with the offending field path."""


def _field(raw: dict, path: str, kind, default=MISSING):
    """Value at a dotted path, checked against ``kind``; required unless a
    default is given.

    ``list[float]`` takes a list of numbers and returns them as floats;
    ``float | None`` takes a number or JSON null, returned as None.
    """
    node = raw
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is MISSING:
                raise ConfigError(f"{path}: required field is missing")
            return default
        node = node[part]
    if kind == float | None and node is None:
        return None
    if kind == list[float]:
        if not isinstance(node, list) or any(
                isinstance(x, bool) or not isinstance(x, (int, float)) for x in node):
            raise ConfigError(f"{path}: expected a list of numbers")
        return [float(x) for x in node]
    what = {float | None: "a number or null", float: "a number", int: "an integer",
            bool: "a boolean", str: "a string", dict: "an object", list: "a list"}[kind]
    number = kind in (float, float | None)
    # JSON true/false are Python bools, which are also ints
    if (not isinstance(node, (int, float) if number else kind)
            or isinstance(node, bool) and kind is not bool):
        raise ConfigError(f"{path}: expected {what}, got {type(node).__name__}")
    return float(node) if number else node


def _section(raw: dict, path: str, spec: dict) -> dict:
    """The object at ``path`` (default {}) read against ``spec``, field ->
    (kind, default): every field through :func:`_field`, its default filled
    in.  A key that ``spec`` does not name is rejected."""
    for key in _field(raw, path, dict, default={}):
        if key not in spec:
            raise ConfigError(f"{path}.{key}: unknown field")
    return {key: _field(raw, f"{path}.{key}", kind, default)
            for key, (kind, default) in spec.items()}


@contextmanager
def _reported_as(path: str):
    """A library ValueError (a rule the config broke) as a ConfigError under ``path``."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """A config as :func:`parse_config` read and checked it: every field
    typed, every default filled in, and the initial state built."""

    scenario: str
    params: EquationParams
    grid: RadialGrid
    initial: dict  # "kind" and that kind's fields (_INITIAL)
    run: solver.SolverConfig  # the run section, on grid and params
    out_dir: str
    checks: dict  # name -> threshold, in _CHECKS order
    options: dict  # the scenario's options section (_OPTIONS)
    raw: dict  # the config as given, echoed in the manifest
    # the initial data of evolve, norms and diagnose, None for the others
    state: RadialState | None = None


_SCENARIO_DEFAULTS = {
    # (p, mu, h, n, t_final, initial descriptor)
    "verify-W": (5.0, -1, 0.01, 5000, 1.0, {"kind": "W"}),
    "linear-check": (5.0, 1, 1.0, 2048, 2000.0, {"kind": "W"}),  # initial unused
    "bootstrap": (5.0, 1, 1.0, 2, 0.0, {"kind": "W"}),  # grid-free scenario
}

# scenario -> the sections and run fields whose values reach none of its
# artifacts, which its config must not set
_UNREAD = {
    "diagnose": ("run.snapshot_stride",),  # both runs store every layer
    "bootstrap": ("equation", "grid", "initial", "run"),  # grid-free arithmetic
    "verify-W": ("equation", "initial", "run.cone_floor"),  # W, p = 5, mu = -1, no guard
    # four linear runs on the runner's own data, at fixed strides
    "linear-check": ("equation", "initial", "run.linear", "run.snapshot_stride"),
}

# initial-data kind -> field -> (kind, default)
_INITIAL = {
    "W": {},
    "gaussian": {"width": (float, 1.0), "amplitude": (float, 1.0)},
    "bump": {"radius": (float, 1.0), "amplitude": (float, 1.0)},
    "ode_flat": {"amplitude": (float, MISSING)},
    "file": {"path": (str, MISSING)},
}

# the run section: every solver.SolverConfig setting but the grid and the
# parameters, with its type and default (t_final's default is the scenario's)
_RUN = {f.name: (get_type_hints(solver.SolverConfig)[f.name], f.default)
        for f in fields(solver.SolverConfig) if f.name not in ("grid", "params")}

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

# field of the scenario's options section -> (kind, default), in README
# order; MISSING marks a required field, and a default written as text is
# filled in from other fields (diagnose.times by parse_config, from t0)
_OPTIONS = {
    "evolve": {},
    "norms": {"betas": (list[float], [0.0, 0.5, 1.0]), "tail_radii": (list[float], []),
              "g1_radii": (list[float], []), "sp_interval": (list[float], None)},
    "diagnose": {"Rc": (float, MISSING), "times": (list[float], "[t0 + (t_final - t0) / 2]"),
                 "cutoffs": (list[float], "[Rc]")},
    "bootstrap": {"p_values": (list[float], [5.0, 6.0, 7.0, 9.0, 13.0]),
                  "beta0_values": (list[float], [0.01, 0.1]), "tol": (float, 1e-12),
                  "n_max": (int, 100000), "dense_sample": (int, 2000),
                  "precision": (str, "f64")},
    "verify-W": {"decay_r_min": (float, 4.0)},
    "linear-check": {"reversal_steps": (int, 256)},
}


def parse_config(raw: dict, scenario: str | None = None,
                 out_override: str | None = None) -> ExperimentConfig:
    """Read and check a raw config dict against the schema (field-path errors).

    Every field is read here, once, with its default filled in; a key the
    schema does not name is rejected, and so is one the scenario does not
    read (``_UNREAD``); then the rules that depend on the config alone are
    checked.  Last, evolve, norms and diagnose build their initial state
    (``ExperimentConfig.state``) and check what counts from its time t0: a
    file's contents and stored t0, diagnose.times, the layers that cover
    norms.sp_interval.  No config is rejected later, or after output exists.
    """
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
    for key in raw:  # the sections, the options section named after the scenario
        if key not in ("scenario", "equation", "grid", "initial", "run", "output",
                       "checks", name):
            raise ConfigError(f"{key}: unknown field")
    for path in _UNREAD.get(name, ()):
        section, _, key = path.partition(".")
        if section in raw and (not key or isinstance(raw[section], dict)
                               and key in raw[section]):
            raise ConfigError(f"{path}: scenario {name} does not read it")

    dp, dmu, dh, dn, dt_final, dinit = _SCENARIO_DEFAULTS.get(
        name, (5.0, 1, MISSING, MISSING, MISSING, MISSING))
    equation = _section(raw, "equation", {"p": (float, dp), "mu": (int, dmu)})
    with _reported_as("equation"):
        params = make_params(equation["p"], equation["mu"])
    size = _section(raw, "grid", {"h": (float, dh), "n": (int, dn)})
    with _reported_as("grid"):
        # the grid state files load onto, so written and read states share one
        grid = _shared_grid(size["h"], size["n"])
    initial = _initial_fields(_field(raw, "initial", dict, default=dinit))

    settings = _section(raw, "run", {**_RUN, "t_final": (float, dt_final)})
    if name == "verify-W":
        settings["cone_floor"] = None  # the static profile is not compactly supported
    try:
        run_settings = solver.SolverConfig(grid=grid, params=params, **settings)
    except ValueError as e:  # the message starts with the rejected field
        key, _, rule = str(e).partition(" ")
        raise ConfigError(f"run.{key}: {rule}") from None
    for key in _field(raw, "checks", dict, default={}):
        if key not in _CHECKS[name]:
            raise ConfigError(f"checks.{key}: unknown check for scenario {name}")
    thresholds = {c: _field(raw, f"checks.{c}", float, default=default)
                  for c, (_, default) in _CHECKS[name].items()}
    output = _section(raw, "output", {"dir": (str, None)})  # checked even with --out
    out_dir = out_override or output["dir"]
    if out_dir is None:
        raise ConfigError("output.dir: required (or pass --out)")
    options = _section(raw, name, _OPTIONS[name])
    if name == "diagnose" and isinstance(options["cutoffs"], str):  # a default as text
        options["cutoffs"] = [options["Rc"]]
    checks = {c: t for c, t in thresholds.items() if t is not None}
    cfg = ExperimentConfig(scenario=name, params=params, grid=grid, initial=initial,
                           run=run_settings, out_dir=out_dir, checks=checks,
                           options=options, raw=raw)

    # the rules the config alone decides across its fields
    h, o, t_final, kind = grid.h, options, run_settings.t_final, initial["kind"]
    if "blowup_detection" in checks and kind != "ode_flat":
        raise ConfigError("checks.blowup_detection: requires ode_flat initial data")
    if "ode_match" in checks and "blowup_detection" not in checks:
        raise ConfigError("checks.ode_match: requires blowup_detection")
    for c in ("energy_drift", "finite_speed", "exterior_zero"):  # the plain run's metrics
        if c in checks and "blowup_detection" in checks:
            raise ConfigError(f"checks.{c}: a blowup_detection run does not measure it")
    if "tail_monotone" in checks and len(o["tail_radii"]) < 2:
        raise ConfigError("checks.tail_monotone: needs at least two tail radii")
    if name in ("evolve", "norms", "diagnose"):  # the scenarios that build initial data
        _initial_equation_rule(initial, params)
    if _evolves(cfg) and kind != "file":  # a read file sets t0
        try:
            solver.step_count(0.0, t_final, h)
        except ValueError:
            raise ConfigError(
                f"run.t_final: {t_final!r} is not a whole, nonnegative number, at "
                f"most 2^53, of steps of h = {h!r} from t = 0") from None
    if _evolves(cfg) and not h * h > 0.0:  # h^2 scales the source, 2 h r divides v
        raise ConfigError(f"grid.h: {h!r} makes h^2 underflow to 0")
    if "ode_match" in checks:
        T = ode_flat_blowup_time(params, initial["amplitude"])
        n_cmp = _ode_match_steps(T, h)
        if n_cmp < 1:
            raise ConfigError("checks.ode_match: no lattice times before T - 10h")
        if _lattice_steps(n_cmp * h, h) is None:  # the run goes to n_cmp h at least
            raise ConfigError(f"checks.ode_match: T - 10h (T = {T!r}) is more than "
                              f"2^53 steps of h = {h!r}")
        if "snapshot_stride" in raw.get("run", {}):  # unread under this condition
            raise ConfigError("run.snapshot_stride: a run with ode_match stores every "
                              "layer; it does not read it")
    if name == "norms":
        with _reported_as("norms.betas"):
            for beta in o["betas"]:
                norms._check_beta(beta)
        with _reported_as("norms.tail_radii"):
            for r in o["tail_radii"]:
                norms._check_tail_radius(r, grid)
        if o["g1_radii"]:
            with _reported_as("norms.g1_radii"):
                norms._check_radii(o["g1_radii"], grid.R)
    if name == "diagnose":
        # the refinement checks rerun the scenario at 2h on n / 2 nodes
        refine = "virial_consistency_order" in checks or "identity_order" in checks
        for key, c in [("Rc", o["Rc"])] + [("cutoffs", c) for c in o["cutoffs"]]:
            if not (c > 0.0 and 2.0 * c <= grid.R):
                raise ConfigError(
                    f"diagnose.{key}: {c!r} must satisfy 0 < 2 Rc <= R = {grid.R!r}")
        if refine and (grid.n % 2 != 0 or grid.n < 4):
            raise ConfigError("grid.n: refinement checks need an even node count >= 4")
        if refine and kind == "file":
            raise ConfigError("initial.kind: refinement checks need generated data, "
                              "not a state file on one grid")
        if refine and _lattice_steps(t_final, 2.0 * h) is None:
            raise ConfigError(
                f"run.t_final: refinement checks need a whole number of steps of "
                f"2h = {2.0 * h!r} from t = 0")
    if name == "bootstrap":
        for key in ("p_values", "beta0_values"):
            if not o[key]:
                raise ConfigError(f"bootstrap.{key}: needs at least one value")
        if o["dense_sample"] < 1:
            raise ConfigError("bootstrap.dense_sample: must be positive")
        with _reported_as("bootstrap.precision"):
            bootstrap.working_dtype(o["precision"])
        # the library's rules, in the order the runner meets them
        with _reported_as("bootstrap.p_values"):
            for p in o["p_values"]:
                bootstrap._check_p(p)
        for p in o["p_values"]:
            for b0 in o["beta0_values"]:
                with _reported_as("bootstrap.beta0_values"):
                    bootstrap._start(p, b0, o["precision"])
                if o["n_max"] < 1:
                    raise ConfigError("bootstrap.n_max: n_max must be positive")
    if name == "verify-W":
        with _reported_as("verify-W.decay_r_min"):
            bootstrap._fit_window(grid, o["decay_r_min"])
        if not _drift_bound(grid, solver.step_count(0.0, t_final, h) * h) >= 0.0:
            raise ConfigError(f"run.t_final: {t_final!r} leaves no drift region "
                              f"r <= R - t - 2h (R = {grid.R!r}, h = {h!r})")
    if name == "linear-check" and o["reversal_steps"] < 1:
        raise ConfigError("linear-check.reversal_steps: must be >= 1")

    # last, the rules that count from the initial state's time t0 (a file's)
    state = (build_initial(initial, grid, params)
             if name in ("evolve", "norms", "diagnose") else None)
    if kind == "file" and _evolves(cfg):
        try:
            solver.step_count(state.t, t_final, h)
        except ValueError:
            raise ConfigError(f"initial.path: stored time t = {state.t!r} puts run.t_final "
                              f"= {t_final!r} off the lattice of h") from None
    if name == "diagnose":
        # each time t on the lattice of h from t0, with t - h and t + h inside
        # the run; identity_order looks t up on the 2h rerun too
        t0 = state.t
        if isinstance(o["times"], str):  # the default
            o["times"] = [t0 + (t_final - t0) / 2.0]
        steps = [(h, "h"), (2.0 * h, "2h")] if "identity_order" in checks else [(h, "h")]
        for t in o["times"]:
            for step, what in steps:
                if _lattice_steps(t - t0, step) is None:
                    raise ConfigError(
                        f"diagnose.times: {t} is not on the time lattice of step {what}")
                if not (t0 + step - 1e-12 <= t <= t_final - step + 1e-12):
                    raise ConfigError(f"diagnose.times: {t} needs both t - {what} and "
                                      f"t + {what} inside the run")
    if name == "norms" and o["sp_interval"] is not None:
        if len(o["sp_interval"]) != 2:
            raise ConfigError("norms.sp_interval: expected [t0, t1]")
        with _reported_as("norms.sp_interval"):
            norms._interval_layers(solver._stored_times(run_settings, state.t),
                                   o["sp_interval"], h)
    if name not in _RUNNERS:  # see nlwlab.scenarios' docstring
        import nlwlab.scenarios
    return replace(cfg, state=state)


def _evolves(cfg: ExperimentConfig) -> bool:
    """Whether the run evolves: every scenario but bootstrap, norms only for sp_interval."""
    return cfg.scenario != "bootstrap" and (
        cfg.scenario != "norms" or cfg.options["sp_interval"] is not None)


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


def _ode_match_steps(T: float, h: float) -> int:
    """Whole steps of h before T - 10h: ode_match compares while T - t >= 10 h."""
    return int(np.floor((T - 10.0 * h) / h))


def _drift_bound(grid: RadialGrid, elapsed: float) -> float:
    """R - elapsed - 2h: verify-W's static_drift reads r <= R - (t - t0) - 2h,
    out of the outer truncation's reach, which must keep node 0 to t_final."""
    return grid.R - elapsed - 2.0 * grid.h


def _initial_fields(desc: dict) -> dict:
    """An initial-data descriptor read against ``_INITIAL``: its kind and
    that kind's fields, defaults filled in.  Numbers must be finite, the
    gaussian width, the bump radius and the ode_flat amplitude positive, and
    the gaussian's 2 width^2 too."""
    init = {"initial": desc}  # fields are read, and reported, under initial.<key>
    kind = _field(init, "initial.kind", str)
    if kind not in _INITIAL:
        raise ConfigError(f"initial.kind: unknown initial data kind {kind!r}")
    values = _section(init, "initial", {"kind": (str, MISSING), **_INITIAL[kind]})
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"initial.{key}: must be finite")
    size = {"gaussian": "width", "bump": "radius", "ode_flat": "amplitude"}.get(kind)
    if size is not None and values[size] <= 0:
        raise ConfigError(f"initial.{size}: must be positive")
    if kind == "gaussian" and not 2.0 * values["width"] * values["width"] > 0.0:
        # r^2 / (2 width^2) would be 0/0 = NaN at r = 0
        raise ConfigError(f"initial.width: {values['width']!r} makes 2 width^2 "
                          "underflow to 0")
    return values


def _initial_equation_rule(initial: dict, params: EquationParams) -> None:
    """W is the static solution of p = 5, mu = -1; ode_flat data blow up for
    mu = -1, at a time T whose velocity v = (a / T) u must be finite."""
    kind = initial["kind"]
    if kind == "W" and (params.p != 5.0 or params.mu != -1):
        raise ConfigError("initial.kind: W requires p = 5, mu = -1")
    if kind == "ode_flat" and params.mu != -1:
        raise ConfigError("initial.kind: ode_flat requires the focusing sign mu = -1")
    if kind == "ode_flat":
        amp = initial["amplitude"]
        try:
            T = ode_flat_blowup_time(params, amp)
        except OverflowError:  # a tiny amplitude puts T past the float range
            T = math.inf
        if not (0.0 < T < math.inf and math.isfinite(params.a / T * amp)):
            raise ConfigError(f"initial.amplitude: {amp!r} puts the blowup time at "
                              f"T = {T!r}; T and v = (a / T) u must be positive and finite")


def build_initial(desc: dict, grid: RadialGrid, params: EquationParams) -> RadialState:
    """Materialize an initial-data descriptor on the grid, checked as
    :func:`parse_config` checks ``initial``; file errors are ``initial.path``."""
    desc = _initial_fields(desc)
    kind = desc["kind"]
    _initial_equation_rule(desc, params)
    r = grid.r
    if kind == "W":
        return reference_W(grid)
    if kind in ("gaussian", "bump"):
        key, profile = {"gaussian": ("width", profile_gaussian),
                        "bump": ("radius", profile_bump)}[kind]
        return RadialState(grid=grid, params=params, t=0.0,
                           u=profile(r, desc[key], desc["amplitude"]),
                           v=np.zeros(grid.n + 1))
    if kind == "ode_flat":
        amp = desc["amplitude"]
        u0 = profile_ode_flat(r, amp)
        T = ode_flat_blowup_time(params, amp)
        # the exact solution grows like (T - t)^{-a}, so v = (a / T) u at t = 0
        return RadialState(grid=grid, params=params, t=0.0,
                           u=u0, v=(params.a / T) * u0)
    try:
        state = load_state(desc["path"])
    except (OSError, ValueError) as e:
        raise ConfigError(f"initial.path: {e}") from None
    if state.grid != grid:
        raise ConfigError("initial.path: stored grid does not match config grid")
    if state.params != params:
        raise ConfigError("initial.path: stored parameters do not match config")
    return state


# --- manifest plumbing --------------------------------------------------------


def _check(name: str, value: float, threshold: float, op: str = "<="):
    value = float(value)
    ok = {"<=": value <= threshold, "<": value < threshold,
          ">=": value >= threshold}[op]
    return {"name": name, "value": value, "threshold": float(threshold),
            "op": op, "pass": bool(ok)}


def _write(out: Path, name: str, text: str) -> None:
    (out / name).write_text(text)


def _write_states(out: Path, traj) -> None:
    for k, state in enumerate(traj.states):
        save_state(state, out / f"state_{k:06d}.txt")


# --- the evolve runner (the others are nlwlab.scenarios.RUNNERS) --------------


def _energy_drift(log) -> float:
    """max_t |E(t) - E(t0)| / |E(t0)| over the step log (|E(t0)| floored at 1e-14)."""
    scale = max(abs(log.energy[0]), 1e-14)
    return float(np.max(np.abs(log.energy - log.energy[0])) / scale)


def _run_evolve(cfg: ExperimentConfig, out: Path):
    metrics, notes, extra = {}, [], {}
    if cfg.params.mu == -1:
        notes.append("energy: non-coercive (focusing sign)")

    if "blowup_detection" in cfg.checks:
        h, match = cfg.grid.h, "ode_match" in cfg.checks
        T_star = ode_flat_blowup_time(cfg.params, cfg.initial["amplitude"])
        extra["expected_blowup_time"] = T_star
        n_cmp = _ode_match_steps(T_star, h) if match else 0  # >= 1 with ode_match
        # parse_config leaves the stride at its default 1 here: every layer is stored
        run_cfg = replace(cfg.run, t_final=max(cfg.run.t_final, n_cmp * h)) if match else cfg.run
        try:
            traj = solver.evolve(run_cfg, cfg.state, step_log=match)
            metrics["blowup_detection"] = float("inf")
        except solver.BlowupDetected as e:
            traj = e.trajectory
            if len(traj.states) <= n_cmp:  # the guard fired on a compared layer
                raise
            extra["detected_blowup_time"] = e.t
            metrics["blowup_detection"] = abs(e.t - T_star) / h
        if match:
            worst = 0.0
            for s in traj.states[:n_cmp + 1]:
                exact = reference_ode_blowup(cfg.params, T_star, s.t)
                worst = max(worst, abs(s.u[0] - exact) / exact)
            metrics["ode_match"] = worst
            head = StepLog(*(getattr(traj.log, f.name)[:n_cmp + 1] for f in fields(StepLog)))
            _write(out, "step_log.csv", head.to_csv())
        return metrics, notes, extra

    traj = solver.evolve(cfg.run, cfg.state)
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


_RUNNERS = {"evolve": _run_evolve}


def _runner(scenario: str):
    """The scenario's runner."""
    if scenario in _RUNNERS:
        return _RUNNERS[scenario]
    from nlwlab.scenarios import RUNNERS
    return RUNNERS[scenario]


def run(config: ExperimentConfig, threads: int = 1) -> int:
    """Execute a parsed config; write artifacts + manifest; 0 iff checks pass.

    :func:`parse_config` checked every rule, so no config is rejected here.
    The scenario's runner measures every configured check; each is judged
    here, against its threshold with the op of ``_CHECKS``.  A solver
    guard the scenario does not handle (``solver.SolverError``) still
    leaves a manifest, with status "aborted" and the error's type, message
    and time; the error is then re-raised.  Any other exception is a fault
    of the program and propagates as it is.  ``threads`` is ignored: every
    scenario runs in one thread, and the keyword stays only because
    ``bench/worker.py`` still passes it.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    error = None
    try:
        metrics, notes, extra = _runner(config.scenario)(config, out)
    except solver.SolverError as e:
        error = e
        checks, notes, status = [], [], "aborted"
        extra = {"error": {"type": type(e).__name__, "message": str(e), "t": float(e.t)}}
    else:
        ops = _CHECKS[config.scenario]
        checks = [_check(n, metrics[n], thr, ops[n][0]) for n, thr in config.checks.items()]
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
        return run(parse_config(raw, scenario=args.scenario, out_override=args.out))
    except solver.SolverError as e:
        print(f"solver: {e} (t = {e.t!r})", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"config: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
