"""The analysis scenarios: norms, diagnose, bootstrap, verify-W, linear-check.

Each runner takes a config that :func:`nlwlab.cli.parse_config` read and
checked and the output directory, writes the scenario's artifacts there,
and returns its metrics, notes and extra manifest entries, which
:func:`nlwlab.cli.run` judges and records.  The evolve runner stays in
``cli``, with the initial data and the helpers these runners share with it.
``parse_config`` imports this module only for the scenarios here, so it
compiles while their config is parsed, not inside ``run``, and a run of the
evolve scenario never compiles it.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from nlwlab import bootstrap, diagnostics, norms, solver
from nlwlab.cli import (
    ConfigError,
    ExperimentConfig,
    _drift_bound,
    _energy_drift,
    _initial_state,
    _reported_as,
    _times_rule,
    _write,
    build_initial,
)
from nlwlab.core import (
    EquationParams,
    RadialGrid,
    RadialState,
    _csv_text,
    reference_W,
    save_state,
)

__all__ = ["RUNNERS"]


def _run_norms(cfg: ExperimentConfig, out: Path):
    metrics = {}
    state = _initial_state(cfg)
    o = cfg.options
    betas, tail_radii, sp_interval = o["betas"], o["tail_radii"], o["sp_interval"]

    traj = sp = None
    if sp_interval is not None:
        traj = solver.evolve(cfg.run, state, step_log=False)
        # whether the stored layers cover the interval is known only now
        with _reported_as("norms.sp_interval"):
            sp = norms.sp_norm(traj, sp_interval)
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
    report = replace(norms.norm_report(state, traj, tail_radii=tail_radii,
                                       g1_radii=o["g1_radii"], hsp=hsp, tails=tails),
                     sp=sp)
    _write(out, "normreport.json", report.to_json())
    if tails:
        _write(out, "tails.csv", norms.tails_to_csv(tails))

    if "route_agreement" in cfg.checks:
        worst = 0.0
        for n1, n2 in zip(freq[:-1], one_d[:-1]):
            worst = max(worst, abs(n1 - n2) / max(n2, 1e-300))
        metrics["route_agreement"] = worst
    if "l2_match" in cfg.checks:
        direct = float(np.sqrt(diagnostics._radial_integral(
            state.u * state.u, cfg.grid.r, cfg.grid.h)))
        metrics["l2_match"] = abs(freq[-1] - direct) / max(direct, 1e-300)
    if "tail_monotone" in cfg.checks:
        recs = sorted(tails, key=lambda rec: rec.r)
        metrics["tail_monotone"] = max(
            getattr(b, f) - getattr(a, f)
            for a, b in zip(recs, recs[1:])
            for f in ("lm_du", "lm_v", "l2_du", "l2_v"))
    if "hardy" in cfg.checks:
        grad2 = report.energy_norms[0] ** 2
        metrics["hardy"] = diagnostics.hardy_mass(state) / max(4.0 * grad2, 1e-300)
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


def _refinement_order(pairs) -> float:
    """The smallest order log2(coarse / fine) over the (fine, coarse) residual
    pairs; a pair not positive on both grids measures no order.  -inf when no
    pair does, so that the check fails."""
    return min((float(np.log2(c / f)) for f, c in pairs if f > 0.0 and c > 0.0),
               default=-math.inf)


def _run_diagnose(cfg: ExperimentConfig, out: Path):
    metrics, notes = {}, []
    Rc = cfg.options["Rc"]
    if cfg.params.mu == -1:
        notes.append("energy: non-coercive (focusing sign)")

    initial = _initial_state(cfg)
    times = _times_rule(cfg, initial.t)  # a state file's stored time starts the run
    fine = solver.evolve(replace(cfg.run, snapshot_stride=1), initial)
    # the identity residuals of each distinct (cutoff, time), computed once
    cutoffs = cfg.options["cutoffs"]
    residuals = {(c, t): diagnostics.localized_identity_residuals(fine, c, t)
                 for c in dict.fromkeys([Rc, *cutoffs]) for t in dict.fromkeys(times)}
    records = [diagnostics.diagnostic_record(fine, t, residuals[Rc, t]) for t in times]
    _write(out, "records.csv", diagnostics.records_to_csv(records, mu=cfg.params.mu))
    _write(out, "residuals.json", json.dumps(
        {f"Rc={c!r},t={t!r}": list(residuals[c, t]) for c in cutoffs for t in times},
        indent=2) + "\n")
    _write(out, "step_log.csv", fine.log.to_csv())

    if "virial_consistency_order" in cfg.checks or "identity_order" in cfg.checks:
        cgrid = RadialGrid(h=2.0 * cfg.grid.h, n=cfg.grid.n // 2)
        cinitial = build_initial(cfg.initial, cgrid, cfg.params)
        coarse = solver.evolve(replace(cfg.run, grid=cgrid, snapshot_stride=1), cinitial)
    pairs = {}
    if "virial_consistency_order" in cfg.checks:
        pairs["virial_consistency_order"] = [
            (_per_step_virial_residual(fine), _per_step_virial_residual(coarse))]
    if "identity_order" in cfg.checks:
        pairs["identity_order"] = [
            pair for t in times for pair in zip(
                residuals[Rc, t], diagnostics.localized_identity_residuals(coarse, Rc, t))]
    for name, checked in pairs.items():
        metrics[name] = _refinement_order(checked)
        if metrics[name] == -math.inf:
            notes.append(f"{name}: no residual is positive on both grids; "
                         "no order measured")
    metrics["z_monotone"] = float(np.max(np.diff(fine.log.virial)))
    metrics["energy_drift"] = _energy_drift(fine.log)
    return metrics, notes, {}


def _run_bootstrap(cfg: ExperimentConfig, out: Path):
    metrics = {}
    o = cfg.options
    p_values, beta0_values, precision = o["p_values"], o["beta0_values"], o["precision"]

    # everything is computed before the first write, so a rejected value
    # leaves no partial output
    jobs = [(p, b0) for p in p_values for b0 in beta0_values]
    try:
        table = bootstrap.contraction_table(p_values, precision)
        seqs = [bootstrap.exponent_iteration(p, b0, n_max=o["n_max"], tol=o["tol"],
                                             precision=precision) for p, b0 in jobs]
    except ValueError as e:  # the message starts with the rejected argument
        field = {"p": "p_values", "beta0": "beta0_values", "n_max": "n_max"}.get(
            str(e).split(" ", 1)[0])
        if field is None:
            raise
        raise ConfigError(f"bootstrap.{field}: {e}") from None

    if "contraction_subunit" in cfg.checks:
        sample = np.geomspace(5.0, 1e4, o["dense_sample"])
        metrics["contraction_subunit"] = max(
            value for value, _ in bootstrap.contraction_table(sample, precision))
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
        metrics["fixed_point"] = max(abs(bootstrap.exponent_iteration(
            p, 1.0 - 2.0 / (p - 1.0), precision=precision).gamma[0] * p - 1.0)
            for p in p_values)

    _write(out, "contraction.csv", _csv_text(
        "p,value,theta", ((p, value, theta) for p, (value, theta) in zip(p_values, table))))
    for k, ((p, b0), seq) in enumerate(zip(jobs, seqs)):
        i, j = divmod(k, len(beta0_values))
        body = f"# p={p!r} beta0={b0!r}\n" + seq.to_csv()
        _write(out, f"exponents_p{i}_b{j}.csv", body)
    return metrics, [], {}


def _run_verify_w(cfg: ExperimentConfig, out: Path):
    notes = ["cone guard disabled: the static profile is not compactly supported",
             "drift region: r <= R - t - 2h (outer truncation is causally excluded)",
             "energy: non-coercive (focusing sign)"]
    r_min = cfg.options["decay_r_min"]
    initial = reference_W(cfg.grid)
    traj = solver.evolve(cfg.run, initial)
    _write(out, "step_log.csv", traj.log.to_csv())
    save_state(traj.states[-1], out / "final_state.txt")

    W = initial.u
    r = cfg.grid.r
    drift = 0.0
    for s in traj.states:
        clean = r <= _drift_bound(cfg.grid, s.t - initial.t)
        drift = max(drift, float(np.max(np.abs(s.u[clean] - W[clean]))))
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
    radii = r[bootstrap._fit_window(cfg.grid, r_min)]
    tails = np.array([rec.l2_du for rec in norms.tail_table(traj.states[0], radii)])
    pos = tails > 0
    tail_slope = float(np.polyfit(np.log(radii[pos]), np.log(tails[pos]), 1)[0])

    metrics = {"static_drift": drift,
               "decay_c0": abs(C0 - np.sqrt(3.0)) / np.sqrt(3.0),
               "decay_slope": abs(slope - slope_W),
               "tail_slope": abs(tail_slope - (-0.5))}
    return metrics, notes, {"report": {"static_drift": drift, "C0": C0, "slope": slope,
                                       "slope_W": slope_W, "tail_slope": tail_slope}}


def _state_from_w(grid: RadialGrid, params: EquationParams, w: np.ndarray,
                  t: float = 0.0) -> RadialState:
    """State with reduced field w and v = 0: u = w / r off the origin, u(0) = 0."""
    u = np.zeros(grid.n + 1)
    u[1:] = w[1:] / grid.r[1:]
    return RadialState(grid=grid, params=params, t=t, u=u, v=np.zeros(grid.n + 1))


def _hat_state(grid: RadialGrid, params: EquationParams) -> RadialState:
    """Piecewise-linear reduced field supported on nodes 8..40 (peak at 24)."""
    j = np.arange(grid.n + 1, dtype=float)
    return _state_from_w(grid, params, np.maximum(0.0, 1.0 - np.abs(j - 24.0) / 16.0))


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
    n_steps = solver.step_count(0.0, cfg.run.t_final, grid.h)
    rev_steps = cfg.options["reversal_steps"]

    hat = _hat_state(grid, params)
    traj = solver.evolve(replace(cfg.run, linear=True, snapshot_stride=max(1, n_steps)),
                         hat, step_log=False)
    w_exact = _dalembert_final(hat.w, n_steps)
    err = float(np.max(np.abs(traj.states[-1].w - w_exact)))

    # reversibility on 512 nodes whatever the config's n (the traveling wave
    # below needs 72): forward, then back from the last two layers swapped, v negated
    small = RadialGrid(h=grid.h, n=512)
    small_run = solver.SolverConfig(grid=small, params=params, t_final=0.0, linear=True,
                                    cone_floor=None, snapshot_stride=max(1, rev_steps - 1))
    hat_s = _hat_state(small, params)
    fwd = solver.evolve(replace(small_run, t_final=rev_steps * small.h), hat_s, step_log=False)
    lo, hi = fwd.states[-2], fwd.states[-1]
    rev = solver.evolve(replace(small_run, t_final=(rev_steps - 1) * small.h),
                        replace(lo, t=0.0, v=-lo.v),
                        initial_prev=replace(hi, t=-small.h, v=-hi.v), step_log=False)
    rev_err = float(np.max(np.abs(rev.states[-1].u - hat_s.u)))

    # lattice traveling wave: exact transport means zero characteristic defect
    prof = np.maximum(0.0, 1.0 - np.abs(np.arange(small.n + 1) - 100.0) / 40.0)
    back = np.append(prof[1:], 0.0)  # f(r + h): the wave one step earlier
    state0 = _state_from_w(small, params, prof)
    state_back = _state_from_w(small, params, back, t=-small.h)
    twave = solver.evolve(replace(small_run, t_final=128.0 * small.h, snapshot_stride=1),
                          state0, initial_prev=state_back, step_log=False)
    resid = solver.characteristic_transport_residual(
        twave, r0=40.0 * small.h, t0=64.0 * small.h, tau_max=32.0 * small.h)
    metrics = {"dalembert_error": err, "reversibility": rev_err, "traveling_wave": resid}
    _write(out, "report.json", json.dumps(metrics, indent=2) + "\n")
    return metrics, [], {}


# scenario -> runner, for cli.run
RUNNERS = {
    "norms": _run_norms,
    "diagnose": _run_diagnose,
    "bootstrap": _run_bootstrap,
    "verify-W": _run_verify_w,
    "linear-check": _run_linear_check,
}
