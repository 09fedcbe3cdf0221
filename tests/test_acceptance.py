"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each test prints its verdict line before asserting, so the report is complete
even when a criterion fails.  Run with `pytest tests/test_acceptance.py -v`
for the per-criterion PASSED/FAILED summary, add `-s` to see the measured
values for passing criteria too.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import bump, norm_corpus, w_window_slope
from nlwlab import (
    RadialGrid,
    RadialState,
    make_params,
    reference_W,
    reference_ode_blowup,
    scale_state,
)
from nlwlab import bootstrap, cli, diagnostics, norms
from nlwlab.solver import BlowupDetected, SolverConfig, evolve


def _line(num, name, ok, detail):
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def identity_runs():
    """Defocusing p = 7 bump runs past t = 2 on three nested grids."""
    params = make_params(7.0, 1)
    runs = {}
    for h in (1.0 / 64.0, 1.0 / 128.0, 1.0 / 256.0):
        n = int(round(4.5 / h))
        grid = RadialGrid(h=h, n=n)
        state = RadialState(grid=grid, params=params, t=0.0,
                            u=bump(grid.r), v=np.zeros(n + 1))
        cfg = SolverConfig(grid=grid, params=params, t_final=2.0 + h,
                           snapshot_stride=1)
        runs[h] = evolve(cfg, state)
    return runs


@pytest.fixture(scope="module")
def bump_big_run():
    """Defocusing p = 7 bump on [0, 10] at h = 1/256 with the cone guard on."""
    h = 1.0 / 256.0
    params = make_params(7.0, 1)
    grid = RadialGrid(h=h, n=3008)
    state = RadialState(grid=grid, params=params, t=0.0,
                        u=bump(grid.r), v=np.zeros(grid.n + 1))
    cfg = SolverConfig(grid=grid, params=params, t_final=10.0,
                       snapshot_stride=256)
    return evolve(cfg, state)


@pytest.fixture(scope="module")
def virial_runs():
    """Defocusing p = 7 gaussian runs with every layer stored."""
    params = make_params(7.0, 1)
    runs = {}
    for h in (1.0 / 128.0, 1.0 / 256.0):
        n = int(round(4.5 / h))
        grid = RadialGrid(h=h, n=n)
        state = RadialState(grid=grid, params=params, t=0.0,
                            u=np.exp(-2.0 * grid.r ** 2), v=np.zeros(n + 1))
        cfg = SolverConfig(grid=grid, params=params, t_final=2.0,
                           snapshot_stride=1, cone_floor=None)
        runs[h] = evolve(cfg, state)
    return runs


def _per_step_virial_residual(traj):
    z = traj.log.virial
    h = traj.grid.h
    worst = 0.0
    for k in range(1, len(traj.states) - 1):
        lhs = (z[k + 1] - z[k - 1]) / (2.0 * h)
        worst = max(worst, abs(lhs - diagnostics.virial_rate(traj.states[k])))
    return worst


# ---------------------------------------------------------------------------
# criteria


def test_acceptance_01_linear_exactness():
    # mu-disabled evolution vs d'Alembert of the odd extension:
    # max-norm <= 1e-12 on 2048 nodes after 2000 steps, under one second
    n, steps = 2048, 2000
    grid = RadialGrid(h=1.0, n=n)
    params = make_params(5.0, 1)
    j = np.arange(n + 1, dtype=float)
    w0 = np.maximum(0.0, 1.0 - np.abs(j - 24.0) / 16.0)
    u0 = np.zeros(n + 1)
    u0[1:] = w0[1:] / grid.r[1:]
    state = RadialState(grid=grid, params=params, t=0.0, u=u0,
                        v=np.zeros(n + 1))
    cfg = SolverConfig(grid=grid, params=params, t_final=float(steps),
                       snapshot_stride=steps, linear=True)
    t0 = time.perf_counter()
    traj = evolve(cfg, state)
    elapsed = time.perf_counter() - t0

    def w0_odd(k):
        k = int(k)
        if abs(k) > n:
            return 0.0
        return math.copysign(1.0, k) * w0[abs(k)] if k != 0 else 0.0

    w_exact = np.array([0.5 * (w0_odd(jj - steps) + w0_odd(jj + steps))
                        for jj in range(n + 1)])
    err = float(np.max(np.abs(traj.states[-1].w - w_exact)))
    ok = err <= 1e-12 and elapsed < 1.0
    _line(1, "linear-exactness", ok,
          f"max error {err:.3e} <= 1e-12, runtime {elapsed:.2f}s < 1s")
    assert err <= 1e-12
    assert elapsed < 1.0


def test_acceptance_02_static_profile_fidelity():
    # evolving the p = 5 focusing static profile on R = 50 to T = 1:
    # causal-region drift <= 1e-3 at h = 0.01, order >= 1.9 across
    # h in {0.02, 0.01, 0.005}, all inside 30 seconds
    t0 = time.perf_counter()
    drifts = {}
    for h in (0.02, 0.01, 0.005):
        n = int(round(50.0 / h))
        grid = RadialGrid(h=h, n=n)
        state = reference_W(grid)
        cfg = SolverConfig(grid=grid, params=state.params, t_final=1.0,
                           snapshot_stride=int(round(0.1 / h)),
                           cone_floor=None)
        traj = evolve(cfg, state)
        worst = 0.0
        for s in traj.states:
            mask = grid.r <= grid.R - s.t - 2.0 * h
            worst = max(worst, float(np.max(np.abs(s.u - state.u)[mask])))
        drifts[h] = worst
    elapsed = time.perf_counter() - t0
    order_a = math.log2(drifts[0.02] / drifts[0.01])
    order_b = math.log2(drifts[0.01] / drifts[0.005])
    ok = (drifts[0.01] <= 1e-3 and order_a >= 1.9 and order_b >= 1.9
          and elapsed < 30.0)
    _line(2, "static-profile-fidelity", ok,
          f"drift(h=0.01) {drifts[0.01]:.3e} <= 1e-3, orders "
          f"{order_a:.3f}/{order_b:.3f} >= 1.9, runtime {elapsed:.1f}s < 30s")
    assert drifts[0.01] <= 1e-3
    assert max(drifts.values()) <= 1e-3
    assert order_a >= 1.9
    assert order_b >= 1.9
    assert elapsed < 30.0


def test_acceptance_03_static_profile_decay(w_rest_trajectory):
    # pointwise decay fit on r in [4, 12.5]: slope equal to the closed-form
    # window slope of W to 1e-9 and C0 within 2 percent of sqrt(3); L^2 tail
    # slope -1/2 +- 0.05.  The window slope of W is not -1: its local log-log
    # slope -r^2/(3 + r^2) runs from -0.842 at r = 4 to -0.981 at r = 12.5.
    c0, slope = bootstrap.decay_fit(w_rest_trajectory, r_min=4.0)
    grid = w_rest_trajectory.grid
    slope_W = w_window_slope(grid, 4.0)
    profile = w_rest_trajectory.states[0]
    radii = grid.r[(grid.r >= 4.0) & (grid.r <= grid.R / 4.0 + 1e-12)]
    tails = np.array([norms.tail_norms(profile, rr).l2_du for rr in radii])
    tail_slope = float(np.polyfit(np.log(radii), np.log(tails), 1)[0])

    ok_c0 = abs(c0 - math.sqrt(3.0)) <= 0.02 * math.sqrt(3.0)
    ok_slope = abs(slope - slope_W) <= 1e-9
    ok_tail = abs(tail_slope - (-0.5)) <= 0.05
    _line(3, "static-profile-decay", ok_c0 and ok_slope and ok_tail,
          f"C0 {c0:.6f} within 2% of sqrt(3): {ok_c0}; "
          f"slope {slope:.9f} vs slope_W {slope_W:.9f} within 1e-9: "
          f"{ok_slope}; "
          f"tail slope {tail_slope:.6f} in -0.5 +- 0.05: {ok_tail}")
    assert ok_c0
    assert ok_tail
    assert ok_slope, \
        f"decay slope {slope:.12f} differs from slope_W {slope_W:.12f}"


def test_acceptance_04_energy_and_identities(identity_runs, bump_big_run):
    # relative energy drift <= 1e-4 over the [0, 10] bump run at h = 1/256,
    # and all three localized identity residuals converge at order >= 1.9
    log = bump_big_run.log
    drift = float(np.max(np.abs(log.energy - log.energy[0]))
                  / abs(log.energy[0]))

    res = {h: diagnostics.localized_identity_residuals(traj, 1.5, 2.0)
           for h, traj in identity_runs.items()}
    orders_coarse = [math.log2(a / b) for a, b in
                     zip(res[1.0 / 64.0], res[1.0 / 128.0])]
    orders_fine = [math.log2(a / b) for a, b in
                   zip(res[1.0 / 128.0], res[1.0 / 256.0])]
    worst_order = min(orders_coarse + orders_fine)
    ok = drift <= 1e-4 and worst_order >= 1.9
    _line(4, "energy-and-identities", ok,
          f"energy drift {drift:.3e} <= 1e-4, identity orders "
          f"{['%.3f' % o for o in orders_coarse + orders_fine]} >= 1.9")
    assert drift <= 1e-4
    assert worst_order >= 1.9


def test_acceptance_05_virial_mechanism(virial_runs):
    # centered dz/dt matches the closed-form rate to O(h^2) at every
    # interior step, and z decreases strictly on a nonzero defocusing run
    h_c, h_f = 1.0 / 128.0, 1.0 / 256.0
    res_c = _per_step_virial_residual(virial_runs[h_c])
    res_f = _per_step_virial_residual(virial_runs[h_f])
    order = math.log2(res_c / res_f)
    c_est = res_c / h_c ** 2
    dz = np.diff(virial_runs[h_f].log.virial)
    strictly_decreasing = bool(np.all(dz < 0.0))
    ok = order >= 1.9 and res_f <= 1.25 * c_est * h_f ** 2 \
        and strictly_decreasing
    _line(5, "virial-mechanism", ok,
          f"per-step residuals {res_c:.3e} -> {res_f:.3e}, order "
          f"{order:.3f} >= 1.9, z strictly decreasing: {strictly_decreasing}")
    assert order >= 1.9
    assert res_f <= 1.25 * c_est * h_f ** 2
    assert strictly_decreasing


def test_acceptance_06_ode_blowup():
    # focusing plateau data: origin value tracks c_p (T - t)^{-a} within 1%
    # while T - t >= 10h, and detection fires within 5h of the analytic T
    h = 1.0 / 512.0
    params = make_params(5.0, -1)
    grid = RadialGrid(h=h, n=1280)
    c_p = (params.a * (params.a + 1.0)) ** (1.0 / (params.p - 1.0))
    amp = 2.0 * c_p
    T = cli.ode_flat_blowup_time(params, amp)
    assert T == 0.25
    state = cli.build_initial({"kind": "ode_flat", "amplitude": amp},
                              grid, params)

    t_match = math.floor((T - 10.0 * h) / h) * h
    cfg = SolverConfig(grid=grid, params=params, t_final=t_match,
                       snapshot_stride=1, cone_floor=None)
    traj = evolve(cfg, state)
    rel = max(abs(s.u[0] - reference_ode_blowup(params, T, s.t))
              / reference_ode_blowup(params, T, s.t) for s in traj.states)

    cfg2 = SolverConfig(grid=grid, params=params, t_final=0.3125,
                        snapshot_stride=1, cone_floor=None)
    with pytest.raises(BlowupDetected) as exc:
        evolve(cfg2, state)
    t_detect = exc.value.t
    ok = rel <= 0.01 and abs(t_detect - T) <= 5.0 * h
    _line(6, "ode-blowup", ok,
          f"match error {rel:.3e} <= 1e-2 while T - t >= 10h, detection at "
          f"t = {t_detect} ({abs(t_detect - T) / h:.1f}h from T) <= 5h")
    assert rel <= 0.01
    assert abs(t_detect - T) <= 5.0 * h


def test_acceptance_07_norm_engine():
    # gaussian squared norms vs 2 pi Gamma(beta + 3/2); route agreement on a
    # ten-profile corpus; critical-norm scale invariance -- all at 1e-6
    big = RadialGrid(h=0.02, n=3000)
    gauss = np.exp(-big.r ** 2 / 2.0)
    gamma_rel = 0.0
    for beta in (0.0, 0.5, 1.0, 1.16667):
        sq = norms.sobolev_norm(gauss, big, beta) ** 2
        target = 2.0 * math.pi * math.gamma(beta + 1.5)
        gamma_rel = max(gamma_rel, abs(sq - target) / target)

    # the DST-I sine transform against the doubled-grid FFT of the odd
    # extension: separate code paths, not independent algorithms (the
    # direct-sum oracle check is in tests/test_norms.py)
    small = RadialGrid(h=0.05, n=1200)
    corpus = norm_corpus(small.r)
    route_rel = 0.0
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for phi in corpus:
            for beta in (0.0, 0.5, 1.0, 1.4):
                a = norms.sobolev_norm(phi, small, beta)
                b = norms.sobolev_norm_1d(phi, small, beta)
                route_rel = max(route_rel, abs(a - b) / max(a, 1e-300))

    params = make_params(5.0, 1)
    state = RadialState(grid=big, params=params, t=0.0, u=gauss,
                        v=np.zeros(big.n + 1))
    base = norms.sobolev_norm(state.u, big, params.s_p)
    scale_rel = 0.0
    for lam in (2.0, 0.5):
        scaled = scale_state(state, lam)
        val = norms.sobolev_norm(scaled.u, scaled.grid, params.s_p)
        scale_rel = max(scale_rel, abs(val - base) / base)

    ok = gamma_rel <= 1e-6 and route_rel <= 1e-6 and scale_rel <= 1e-6
    _line(7, "norm-engine", ok,
          f"gamma rel {gamma_rel:.3e}, route rel {route_rel:.3e}, "
          f"scale rel {scale_rel:.3e}, all <= 1e-6")
    assert gamma_rel <= 1e-6
    assert route_rel <= 1e-6
    assert scale_rel <= 1e-6


def test_acceptance_08_bootstrap_arithmetic():
    # contraction constant 0.9659258 +- 1e-6 at p = 5 and < 1 on a dense
    # sample of [5, 1e4]; exponent iteration monotone with limit gap
    # <= 1e-10 inside 200 iterations for each starting point
    value5, _ = bootstrap.contraction_constant(5.0)
    dense = np.geomspace(5.0, 1e4, 2000)
    worst_dense = max(bootstrap.contraction_constant(p)[0] for p in dense)

    max_iters, worst_gap, monotone = 0, 0.0, True
    for p in (5.0, 6.0, 7.0, 9.0, 13.0):
        limit = 1.0 - 2.0 / (p - 1.0)
        for beta0 in (0.01, 0.1, 0.3 * limit):
            seq = bootstrap.exponent_iteration(p, beta0, tol=1e-10)
            max_iters = max(max_iters, len(seq.beta) - 1)
            worst_gap = max(worst_gap, seq.limit_gap)
            monotone = monotone and bool(np.all(np.diff(seq.beta) > 0.0))
            assert seq.converged

    ok = (abs(value5 - 0.9659258) <= 1e-6 and worst_dense < 1.0
          and monotone and worst_gap <= 1e-10 and max_iters <= 200)
    _line(8, "bootstrap-arithmetic", ok,
          f"contraction(5) {value5:.9f} within 1e-6 of 0.9659258, dense max "
          f"{worst_dense:.9f} < 1, iterations <= {max_iters} <= 200, "
          f"limit gap {worst_gap:.3e} <= 1e-10, monotone: {monotone}")
    assert abs(value5 - 0.9659258) <= 1e-6
    assert worst_dense < 1.0
    assert monotone
    assert worst_gap <= 1e-10
    assert max_iters <= 200


def test_acceptance_09_finite_speed(bump_big_run):
    # support radius <= rho + t + 2h at every logged step; exterior values
    # <= 1e-12 at every snapshot (initial support rho = 1)
    traj = bump_big_run
    h = traj.grid.h
    rho = 1.0
    bound = rho + traj.log.t + 2.0 * h
    support_ok = bool(np.all(traj.log.support_radius <= bound + 1e-12))
    exterior = 0.0
    for s in traj.states:
        mask = traj.grid.r > rho + s.t + 2.0 * h
        if np.any(mask):
            exterior = max(exterior, float(np.max(np.abs(s.u[mask]))),
                           float(np.max(np.abs(s.v[mask]))))
    ok = support_ok and exterior <= 1e-12
    _line(9, "finite-speed", ok,
          f"support within rho + t + 2h at all {len(traj.log.t)} logged "
          f"steps: {support_ok}, exterior max {exterior:.3e} <= 1e-12")
    assert support_ok
    assert exterior <= 1e-12


def test_acceptance_10_determinism(tmp_path):
    # repeated CLI runs of every exemplar config produce byte-identical
    # artifacts apart from the wall-time field of the manifest
    import pathlib

    configs = sorted(pathlib.Path("configs").glob("*.json"))
    assert configs, "exemplar configs are missing"
    mismatches = []
    for cfg_path in configs:
        scenario = json.loads(cfg_path.read_text())["scenario"]
        outs, codes = [], []
        for rep in ("a", "b"):
            out = tmp_path / f"{cfg_path.stem}-{rep}"
            codes.append(cli.main([scenario, "--config", str(cfg_path),
                                   "--out", str(out)]))
            outs.append(out)
        if codes[0] != codes[1]:
            mismatches.append(f"{cfg_path.name}: exit codes differ {codes}")
            continue
        names = sorted(p.name for p in outs[0].iterdir())
        if names != sorted(p.name for p in outs[1].iterdir()):
            mismatches.append(f"{cfg_path.name}: artifact sets differ")
            continue
        for name in names:
            a, b = (outs[0] / name), (outs[1] / name)
            if name == "manifest.json":
                ma, mb = json.loads(a.read_text()), json.loads(b.read_text())
                ma.pop("walltime_s"), mb.pop("walltime_s")
                same = json.dumps(ma, sort_keys=True) == \
                    json.dumps(mb, sort_keys=True)
            else:
                same = a.read_bytes() == b.read_bytes()
            if not same:
                mismatches.append(f"{cfg_path.name}: {name} differs")
    ok = not mismatches
    _line(10, "determinism", ok,
          f"{len(configs)} exemplar configs run twice each; "
          + ("all artifacts byte-identical excluding wall time" if ok
             else "; ".join(mismatches)))
    assert not mismatches
