"""Tests for the frequency-side norms, the decay modulus g1, and tail norms."""

import inspect
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from conftest import direct_sine_sum, norm_corpus
from nlwlab import (
    RadialGrid,
    RadialState,
    StepLog,
    Trajectory,
    evolve,
    make_params,
    scale_state,
    SolverConfig,
)
from nlwlab import norms
from nlwlab.norms import (
    NormReport,
    norm_report,
    sine_transform,
    sobolev_norm,
    sobolev_norm_1d,
    sp_norm,
    tail_norms,
    tail_table,
    tails_to_csv,
)


GAUSS_GRID = RadialGrid(h=0.02, n=3000)


def gauss(r):
    return np.exp(-(r ** 2) / 2.0)


# ---------------------------------------------------------------------------
# sine transform and radial Fourier transform


SMALL_GRID = RadialGrid(h=0.05, n=1200)


def _oracle_cases():
    yield GAUSS_GRID, gauss(GAUSS_GRID.r)
    for phi in norm_corpus(SMALL_GRID.r):
        yield SMALL_GRID, phi


def test_radial_integral_is_the_trapezoid_bitwise():
    # the one 4 pi int f r^2 dr: the trapezoid of the f r r form bit for bit,
    # on a row and on a stack of rows
    from nlwlab.diagnostics import _radial_integral
    stack = []
    for grid, phi in _oracle_cases():
        r, h = grid.r, grid.h
        exact = 4.0 * np.pi * np.trapezoid(phi * r * r, dx=h)
        assert _radial_integral(phi, r, h) == exact
        if grid is SMALL_GRID:
            stack.append((phi, exact))
    assert len(stack) > 1
    phis, exact = zip(*stack)
    assert _radial_integral(np.stack(phis), SMALL_GRID.r, SMALL_GRID.h) == list(exact)


def test_sine_transform_methods_agree_bitwise_scale():
    # the DST-I equals the explicit trapezoid sine sum to rounding
    for grid, phi in _oracle_cases():
        t_direct = direct_sine_sum(phi, grid)
        t_dst = sine_transform(phi, grid)
        assert np.max(np.abs(t_dst - t_direct)) <= 1e-12 * np.max(np.abs(t_direct))


def test_sine_transform_auto_dispatch():
    # one code path at every grid size: no method knob, and the default call
    # matches the direct sum on both sides of the former 2048-node switch
    assert list(inspect.signature(sine_transform).parameters) == ["phi", "grid"]
    for n in (512, 2048, 2049):
        grid = RadialGrid(h=0.01, n=n)
        phi = gauss(grid.r)
        t_direct = direct_sine_sum(phi, grid)
        t_dst = sine_transform(phi, grid)
        assert np.max(np.abs(t_dst - t_direct)) <= 1e-12 * np.max(np.abs(t_direct))


@pytest.mark.parametrize("n", [2, 3, 4, 1019])
def test_sine_transform_edge_sizes(n):
    # n = 2: one interior node, an extension of length 4; n = 1019: the FFT
    # length 2n has the large prime factor 1019, off pocketfft's radix path
    grid = RadialGrid(h=10.0 / n, n=n)
    rng = np.random.default_rng(n)
    for phi in (gauss(grid.r), rng.standard_normal(n + 1)):
        t_direct = direct_sine_sum(phi, grid)
        t_dst = sine_transform(phi, grid)
        assert t_dst.shape == (n + 1,)
        assert np.max(np.abs(t_dst - t_direct)) <= 1e-12 * np.max(np.abs(t_direct))
        ends = t_dst[[0, -1]]
        assert ends.tobytes() == np.zeros(2).tobytes()  # +0.0, not just == 0


def test_sobolev_norm_matches_direct_oracle():
    # 8 int rho^{2 beta} T^2 with T from the direct sum: a check of
    # sobolev_norm that goes through no FFT
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some corpus profiles decay slowly
        for grid, phi in _oracle_cases():
            T = direct_sine_sum(phi, grid)
            drho = np.pi / (grid.n * grid.h)
            rho = np.arange(grid.n + 1) * drho
            for beta in (0.0, 0.5, 1.0, 1.4):
                y = rho ** (2.0 * beta) * T ** 2
                exact = math.sqrt(8.0 * drho * (np.sum(y) - 0.5 * (y[0] + y[-1])))
                got = sobolev_norm(phi, grid, beta)
                assert abs(got - exact) <= 1e-12 * exact


def test_sobolev_norm_allocates_no_sine_matrix():
    # an (n+1) x (n-1) sine matrix at n = 4096 is about 134 MB
    grid = RadialGrid(h=0.01, n=4096)
    phi = gauss(grid.r)
    tracemalloc.start()
    try:
        sobolev_norm(phi, grid, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024 * 1024


def test_radial_fourier_gaussian_analytic():
    # transform of exp(-r^2/2) is (2 pi)^{3/2} exp(-rho^2/2): phi_hat =
    # 4 pi T / rho, with the rho = 0 limit 4 pi int s^2 phi ds
    from nlwlab.diagnostics import _radial_integral

    phi = gauss(GAUSS_GRID.r)
    T = sine_transform(phi, GAUSS_GRID)
    rho = np.arange(GAUSS_GRID.n + 1) * (np.pi / GAUSS_GRID.R)
    peak = (2.0 * math.pi) ** 1.5
    assert abs(_radial_integral(phi, GAUSS_GRID.r, GAUSS_GRID.h) - peak) <= 1e-6 * peak
    sel = (rho > 0.0) & (rho <= 4.0)
    phi_hat = 4.0 * math.pi * T[sel] / rho[sel]
    exact = peak * np.exp(-(rho[sel] ** 2) / 2.0)
    assert np.max(np.abs(phi_hat - exact)) <= 1e-6 * peak


def test_radial_fourier_warns_on_slow_decay():
    # the frequency-side norm transforms phi only after checking its decay
    short = RadialGrid(h=0.02, n=200)  # R = 4, gaussian still ~3e-4 there
    with pytest.warns(UserWarning, match="outer boundary"):
        sobolev_norm(gauss(short.r), short, 0.0)


# ---------------------------------------------------------------------------
# Sobolev norms: analytic values, route independence, invariances


def test_gaussian_norms_match_gamma_values():
    # ||exp(-r^2/2)||^2_{Hdot^beta} = 2 pi Gamma(beta + 3/2)
    phi = gauss(GAUSS_GRID.r)
    for beta in (0.0, 0.5, 1.0, 1.16667):
        sq = sobolev_norm(phi, GAUSS_GRID, beta) ** 2
        target = 2.0 * math.pi * math.gamma(beta + 1.5)
        assert abs(sq - target) <= 1e-6 * target


def test_l2_norm_matches_physical_side():
    phi = gauss(GAUSS_GRID.r)
    direct = math.sqrt(4.0 * math.pi * np.trapezoid(
        phi ** 2 * GAUSS_GRID.r ** 2, dx=GAUSS_GRID.h))
    assert abs(sobolev_norm(phi, GAUSS_GRID, 0.0) - direct) <= 1e-10 * direct


def test_route_agreement_small_grid():
    # DST-I against the doubled-grid FFT: separate code paths, not
    # independent algorithms (the direct-sum oracle tests are above)
    phi = gauss(SMALL_GRID.r)
    for beta in (0.0, 0.25, 0.5, 1.0, 1.4):
        a = sobolev_norm(phi, SMALL_GRID, beta)
        b = sobolev_norm_1d(phi, SMALL_GRID, beta)
        assert abs(a - b) <= 1e-9 * a


def test_route_agreement_large_grid():
    phi = gauss(GAUSS_GRID.r)
    for beta in (0.0, 0.5, 1.0):
        a = sobolev_norm(phi, GAUSS_GRID, beta)
        b = sobolev_norm_1d(phi, GAUSS_GRID, beta)
        assert abs(a - b) <= 1e-9 * a


def test_beta_range_validation():
    phi = gauss(GAUSS_GRID.r)
    for bad in (-0.1, 1.5, 2.0):
        with pytest.raises(ValueError):
            sobolev_norm(phi, GAUSS_GRID, bad)
        with pytest.raises(ValueError):
            sobolev_norm_1d(phi, GAUSS_GRID, bad)


def test_critical_norm_scale_invariance():
    # at beta = s_p the norm is invariant under the symmetry rescaling
    params = make_params(5.0, 1)
    state = RadialState(grid=GAUSS_GRID, params=params, t=0.0,
                        u=gauss(GAUSS_GRID.r), v=np.zeros(GAUSS_GRID.n + 1))
    base = sobolev_norm(state.u, state.grid, params.s_p)
    for lam in (2.0, 0.5):
        scaled = scale_state(state, lam)
        val = sobolev_norm(scaled.u, scaled.grid, params.s_p)
        assert abs(val - base) <= 1e-10 * base


@given(c=st.floats(min_value=0.1, max_value=10.0),
       beta=st.sampled_from([0.0, 0.5, 1.0, 1.25]))
def test_norm_amplitude_homogeneity(c, beta):
    grid = RadialGrid(h=0.1, n=400)
    phi = gauss(grid.r)
    base = sobolev_norm(phi, grid, beta)
    assert abs(sobolev_norm(c * phi, grid, beta) - c * base) <= 1e-12 * c * base


# ---------------------------------------------------------------------------
# decay modulus g1 on the static ground-state profile


def test_g_moduli_ground_state_analytic(w_state):
    g1 = norms._g1(w_state, [2.0, 4.0])
    # r^{1/2} W is decreasing past sqrt(3), so the sup sits at the left edge
    assert abs(g1[0] - math.sqrt(6.0 / 7.0)) <= 1e-12
    assert abs(g1[1] - math.sqrt(12.0 / 19.0)) <= 1e-12


def test_g_moduli_trajectory_matches_state(w_state, w_rest_trajectory):
    a = norms._g1(w_state, [1.0, 3.0])
    b = norms._g1(w_rest_trajectory, [1.0, 3.0])
    assert np.array_equal(a, b)


def test_g_moduli_validation(w_state):
    with pytest.raises(ValueError, match="at least one radius"):
        norms._g1(w_state, [])
    with pytest.raises(ValueError, match="nonnegative"):
        norms._g1(w_state, [-1.0])
    with pytest.raises(ValueError, match="radius 51.0 exceeds the grid's outer radius R = 50.0"):
        norms._g1(w_state, [51.0])


def test_g1_is_defined_up_to_the_outer_radius(w_state):
    # g1 needs no window [r, 4r]: every radius up to R is a suffix of the grid
    suffix = norms._g1_suffix(w_state)
    n = w_state.grid.n
    assert norms._g1(w_state, [13.0, 50.0]).tolist() == [suffix[1300], suffix[n]]


# ---------------------------------------------------------------------------
# tail norms


def test_tail_norms_ground_state(w_state):
    recs = tail_table(w_state, [2.0, 4.0, 8.0])
    for field in ("lm_du", "lm_v", "l2_du", "l2_v"):
        vals = [getattr(rec, field) for rec in recs]
        assert all(x >= y for x, y in zip(vals, vals[1:]))
    # v = 0 for the static profile
    assert all(rec.lm_v == 0.0 and rec.l2_v == 0.0 for rec in recs)
    # s d_s W = -(s^2/3)(1 + s^2/3)^{-3/2}; L^2 tail via quadrature
    R = w_state.grid.R
    for rec in recs:
        exact = quad(lambda s: (s * s / 3.0) ** 2 * (1.0 + s * s / 3.0) ** -3,
                     rec.r, R)[0] ** 0.5
        assert abs(rec.l2_du - exact) <= 1e-3 * exact


def test_tail_table_matches_one_derivative_per_radius():
    # reference: each radius takes its own derivative and slices, as
    # tail_norms did before tail_table computed s d_r u and s v once
    from nlwlab.diagnostics import _radial_derivative

    grid = RadialGrid(h=0.05, n=400)
    r = grid.r
    state = RadialState(grid=grid, params=make_params(7.0, 1), t=0.0,
                        u=np.exp(-r * r), v=r * np.exp(-r * r))
    radii = [0.0, 0.07, 2.0, 5.5, grid.R - 2.0 * grid.h]
    m, h = state.params.m, grid.h
    for rec, rad in zip(tail_table(state, radii), radii):
        j = int(np.ceil(rad / h - 1e-9))
        s_du = (r * _radial_derivative(state.u, h))[j:]
        s_v = (r * state.v)[j:]
        ref = [float(np.trapezoid(np.abs(f) ** q, dx=h) ** (1.0 / q))
               for f, q in ((s_du, m), (s_v, m), (s_du, 2.0), (s_v, 2.0))]
        assert [rec.lm_du, rec.lm_v, rec.l2_du, rec.l2_v] == ref
        assert tail_norms(state, rad) == rec


def test_tail_norms_validation(w_state):
    R, h = w_state.grid.R, w_state.grid.h
    with pytest.raises(ValueError):
        tail_norms(w_state, R - h)
    with pytest.raises(ValueError):
        tail_norms(w_state, -1.0)


def test_tails_to_csv_round_trip(w_state):
    recs = tail_table(w_state, [2.0, 4.0])
    text = tails_to_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == "r,lm_tail_du,lm_tail_v,l2_tail_du,l2_tail_v"
    assert len(lines) == 3
    row = [float(x) for x in lines[1].split(",")]
    assert row == [recs[0].r, recs[0].lm_du, recs[0].lm_v,
                   recs[0].l2_du, recs[0].l2_v]


# ---------------------------------------------------------------------------
# space-time norm


def _static_trajectory(state, n_snaps, t1=1.0):
    times = np.linspace(0.0, t1, n_snaps)
    states = tuple(
        RadialState(grid=state.grid, params=state.params, t=float(t),
                    u=state.u, v=state.v)
        for t in times)
    log = StepLog(t=times, energy=np.zeros(n_snaps), virial=np.zeros(n_snaps),
                  max_abs_u=np.ones(n_snaps),
                  support_radius=np.full(n_snaps, state.grid.R))
    return Trajectory(grid=state.grid, params=state.params, states=states, log=log)


def test_sp_norm_static_ground_state(w_state):
    # for a time-independent state over |I| = 1 the norm reduces to
    # (4 pi int W^{2(p-1)} r^2 dr)^{1/(2(p-1))}
    traj = _static_trajectory(w_state, 9)
    val = sp_norm(traj, (0.0, 1.0))
    r, h = w_state.grid.r, w_state.grid.h
    space = 4.0 * math.pi * np.trapezoid(w_state.u ** 8 * r * r, dx=h)
    assert abs(val - space ** 0.125) <= 1e-12 * val


def test_sp_norm_validation(w_state):
    traj = _static_trajectory(w_state, 9)
    assert sp_norm(traj, (0.3, 0.3)) == 0.0
    with pytest.raises(ValueError):
        sp_norm(traj, (0.5, 0.2))
    with pytest.raises(ValueError, match="stride too coarse"):
        sp_norm(traj, (0.0, 0.3))  # only 3 of 9 snapshots inside
    with pytest.raises(ValueError, match="cover"):
        sp_norm(traj, (0.0, 2.0))


# ---------------------------------------------------------------------------
# norm report assembly


def test_norm_report_fields_and_json():
    params = make_params(7.0, 1)
    state = RadialState(grid=GAUSS_GRID, params=params, t=0.0,
                        u=gauss(GAUSS_GRID.r),
                        v=0.5 * gauss(GAUSS_GRID.r))
    report = norm_report(state, tail_radii=(2.0, 4.0), g1_radii=(2.0,))
    assert isinstance(report, NormReport)
    assert report.hsp == sobolev_norm(state.u, GAUSS_GRID, params.s_p)
    assert report.hsp_minus1 == sobolev_norm(state.v, GAUSS_GRID, params.s_p - 1.0)
    grad, vel, pot = report.energy_norms
    assert grad > 0 and vel > 0 and pot > 0
    assert set(report.tail) == {2.0, 4.0}
    assert report.sp is None

    payload = json.loads(report.to_json())
    assert payload["sp_norm"] is None
    assert payload["energy_norms"]["grad_u_L2"] == grad
    assert list(payload["tail"]["2.0"]) == list(report.tail[2.0])
    assert payload["g1"]["2.0"] == report.g1[2.0]


def test_norm_report_with_evolved_trajectory():
    grid = RadialGrid(h=1.0 / 64.0, n=320)
    params = make_params(7.0, 1)
    state = RadialState(grid=grid, params=params, t=0.0,
                        u=gauss(grid.r), v=np.zeros(grid.n + 1))
    cfg = SolverConfig(grid=grid, params=params, t_final=0.5,
                       snapshot_stride=1, cone_floor=None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = evolve(cfg, state)
        report = norm_report(traj.states[-1], traj=traj, g1_radii=(0.5,))
    assert report.sp is None  # the caller sets sp from sp_norm
    assert math.isfinite(report.g1[0.5])


# ---------------------------------------------------------------------------
# bit-identity oracles: each quantity computed once gives the bits of the
# per-call routes it replaced


def _seed_sobolev_norm(phi, grid, beta):
    phi = np.asarray(phi, dtype=float)
    T = sine_transform(phi, grid)
    rho = np.arange(grid.n + 1) * (np.pi / grid.R)
    integrand = np.zeros_like(T)
    integrand[1:] = rho[1:] ** (2.0 * beta) * T[1:] ** 2
    if beta == 0.0:
        integrand[0] = T[0] ** 2
    return float(np.sqrt(8.0 * np.trapezoid(integrand, dx=np.pi / grid.R)))


def _seed_sobolev_norm_1d(phi, grid, beta):
    phi = np.asarray(phi, dtype=float)
    n = grid.n
    X = np.fft.fft(norms._odd_extension(grid.r * phi))
    xi = 2.0 * np.pi * np.fft.fftfreq(2 * n, d=grid.h)
    weight = np.empty_like(xi)
    weight[0] = 1.0 if beta == 0.0 else 0.0
    weight[1:] = np.abs(xi[1:]) ** (2.0 * beta)
    total = np.sum(weight * np.abs(X) ** 2)
    return float(np.sqrt((np.pi / grid.R) * grid.h ** 2 * total))


@given(beta=st.floats(min_value=0.0, max_value=1.5, exclude_max=True))
def test_sobolev_norms_match_both_routes_bitwise(beta):
    betas = [beta, 0.0, 1.25, beta]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for grid, phi in _oracle_cases():
            freq, one_d = norms.sobolev_norms(phi, grid, betas)
            assert [repr(x) for x in freq] == [repr(sobolev_norm(phi, grid, b)) for b in betas]
            assert [repr(x) for x in one_d] == [repr(sobolev_norm_1d(phi, grid, b)) for b in betas]
            assert repr(freq[0]) == repr(_seed_sobolev_norm(phi, grid, beta))
            assert repr(one_d[0]) == repr(_seed_sobolev_norm_1d(phi, grid, beta))


def test_sobolev_norms_check_every_beta():
    phi = gauss(SMALL_GRID.r)
    assert norms.sobolev_norms(phi, SMALL_GRID, []) == ([], [])
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="beta"):
            norms.sobolev_norms(phi, SMALL_GRID, [0.5, bad])


def _moving_trajectory():
    grid = RadialGrid(h=1.0 / 32.0, n=256)
    params = make_params(7.0, 1)
    state = RadialState(grid=grid, params=params, t=0.0,
                        u=1.5 * gauss(2.0 * grid.r), v=np.zeros(grid.n + 1))
    cfg = SolverConfig(grid=grid, params=params, t_final=1.0, snapshot_stride=4,
                       cone_floor=None)
    return evolve(cfg, state)


def _seed_g_moduli(obj, radii):
    """g1 as the former ``norms.g_moduli`` computed it: the max of r^a |u|
    from the node at or past each radius outward, maxed over the states."""
    states = obj.states if isinstance(obj, Trajectory) else (obj,)
    values = []
    for s in states:
        ra_u = s.grid.r ** s.params.a * np.abs(s.u)
        values.append([ra_u[int(np.ceil(rad / s.grid.h - 1e-9)):].max() for rad in radii])
    return np.max(values, axis=0)


def test_norm_report_g1_equals_g_moduli_bitwise(w_state):
    radii = (0.0, 0.5, 1.0, 2.0, 4.0, 12.5)
    report = norm_report(w_state, g1_radii=radii)
    g1 = _seed_g_moduli(w_state, radii)
    assert [repr(report.g1[r]) for r in radii] == [repr(float(x)) for x in g1]

    traj = _moving_trajectory()
    assert len(traj.states) > 2
    radii = (0.25, 0.5, 1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = norm_report(traj.states[-1], traj=traj, g1_radii=radii)
    g1 = _seed_g_moduli(traj, radii)
    assert [repr(report.g1[r]) for r in radii] == [repr(float(x)) for x in g1]
    # the sup over stored times, not the last layer's value
    assert np.any(g1 > norms._g1(traj.states[-1], radii))


def _seed_sp_norm(traj, interval):
    """sp_norm's space-time sum with np.abs(u) ** q, as before the masked power."""
    t0, t1 = interval
    snaps = [s for s in traj.states if t0 - 1e-9 <= s.t <= t1 + 1e-9]
    q = 2.0 * (traj.params.p - 1.0)
    r, h = traj.grid.r, traj.grid.h
    space = np.array([4.0 * np.pi * np.trapezoid(np.abs(s.u) ** q * r * r, dx=h)
                      for s in snaps])
    return float(np.trapezoid(space, x=np.array([s.t for s in snaps])) ** (1.0 / q))


def test_underflowing_powers_keep_their_bits():
    # gaussian tails whose q-th and (p+1)-th powers underflow: sp_norm and
    # the report's L^{p+1} norm give the bits of the plain np.power formula
    traj = _moving_trajectory()
    state = traj.states[-1]
    q = 2.0 * (state.params.p - 1.0)
    assert np.mean(np.abs(state.u) ** q == 0.0) > 0.1
    assert repr(sp_norm(traj, (0.0, 1.0))) == repr(_seed_sp_norm(traj, (0.0, 1.0)))
    r, h, p = state.grid.r, state.grid.h, state.params.p
    lp1 = float((4.0 * np.pi * np.trapezoid(np.abs(state.u) ** (p + 1.0) * r * r, dx=h))
                ** (1.0 / (p + 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert repr(norm_report(state).energy_norms[2]) == repr(lp1)


def test_norm_report_takes_hsp_and_tails_handed_over(w_state):
    radii = [2.0, 4.0, 8.0]
    tails = tail_table(w_state, radii)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hsp = sobolev_norm(w_state.u, w_state.grid, w_state.params.s_p)
    fresh = norm_report(w_state, tail_radii=radii, g1_radii=(1.0,))
    handed = norm_report(w_state, tail_radii=radii, g1_radii=(1.0,), hsp=hsp, tails=tails)
    assert handed.to_json() == fresh.to_json()
    with pytest.raises(ValueError, match="tail_radii"):
        norm_report(w_state, tail_radii=radii[:2], tails=tails)


def test_norms_run_transforms_u_once_and_takes_the_tails_once(tmp_path, monkeypatch):
    from nlwlab.cli import build_initial, main, parse_config
    calls = {"sine_transform": 0, "tail_table": 0}
    for name in calls:
        def counting(*args, _f=getattr(norms, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(norms, name, counting)
    out = tmp_path / "out"
    raw = {
        "scenario": "norms",
        "equation": {"p": 5.0, "mu": 1},
        "grid": {"h": 0.05, "n": 600},
        "initial": {"kind": "gaussian", "width": 0.5, "amplitude": 1.0},
        "run": {"t_final": 0.0},
        "output": {"dir": str(out)},
        "norms": {"betas": [0.0, 0.5, 1.0], "tail_radii": [2.0, 4.0, 8.0]},
        "checks": {"route_agreement": 1e-6, "l2_match": 1e-10, "tail_monotone": 0.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["norms", "--config", str(path)]) == 0
    # u once for the routes and hsp, v once for hsp_minus1; one tail table
    # for the three radii, which the report reuses
    assert calls == {"sine_transform": 2, "tail_table": 1}
    cfg = parse_config(raw, scenario="norms")
    state = build_initial(cfg.initial, cfg.grid, cfg.params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hsp = sobolev_norm(state.u, cfg.grid, cfg.params.s_p)
    assert json.loads((out / "normreport.json").read_text())["hsp"] == hsp
