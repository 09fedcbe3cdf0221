"""Tests for energy, virial, localized identities, and support/Hardy checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import bump
from nlwlab import (
    RadialGrid,
    RadialState,
    SolverConfig,
    StepLog,
    Trajectory,
    evolve,
    make_params,
)
from nlwlab.diagnostics import (
    DiagnosticRecord,
    diagnostic_record,
    energy,
    localized_identity_residuals,
    records_to_csv,
    residual_sweep_to_json,
    smooth_cutoff,
    smooth_cutoff_gradient,
    support_and_hardy,
    support_radius,
    virial,
    virial_rate,
)


def _gauss_state(p=7.0, mu=1, h=0.02, n=3000, v_scale=0.0):
    grid = RadialGrid(h=h, n=n)
    u = np.exp(-2.0 * grid.r ** 2)
    return RadialState(grid=grid, params=make_params(p, mu), t=0.0,
                       u=u, v=v_scale * u)


def _static_trajectory(state, times):
    states = tuple(
        RadialState(grid=state.grid, params=state.params, t=float(t),
                    u=state.u, v=state.v)
        for t in times)
    k = len(times)
    log = StepLog(t=np.asarray(times, dtype=float), energy=np.zeros(k),
                  virial=np.zeros(k), max_abs_u=np.ones(k),
                  support_radius=np.full(k, state.grid.R))
    return Trajectory(grid=state.grid, params=state.params,
                      states=states, log=log)


def _gauss_run(h, t_final=0.5):
    params = make_params(7.0, 1)
    n = int(round(4.5 / h))
    grid = RadialGrid(h=h, n=n)
    u0 = np.exp(-2.0 * grid.r ** 2)
    s0 = RadialState(grid=grid, params=params, t=0.0, u=u0, v=np.zeros(n + 1))
    cfg = SolverConfig(grid=grid, params=params, t_final=t_final,
                       snapshot_stride=1, cone_floor=None)
    return evolve(cfg, s0)


# ---------------------------------------------------------------------------
# cutoff function


def test_cutoff_plateau_and_support():
    r = np.linspace(0.0, 5.0, 2001)
    phi = smooth_cutoff(r, 1.5)
    assert np.all(phi[r <= 1.5] == 1.0)
    assert np.all(phi[r >= 3.0] == 0.0)
    inside = (r > 1.5) & (r < 3.0)
    assert np.all((phi[inside] > 0.0) & (phi[inside] < 1.0))
    assert np.all(np.diff(phi) <= 0.0)


def test_cutoff_gradient_matches_finite_difference():
    r = np.linspace(0.01, 5.0, 997)
    d = 1e-5
    fd = (smooth_cutoff(r + d, 1.5) - smooth_cutoff(r - d, 1.5)) / (2.0 * d)
    assert np.max(np.abs(fd - smooth_cutoff_gradient(r, 1.5))) <= 1e-8


def test_cutoff_gradient_support_and_junctions():
    r = np.linspace(0.0, 5.0, 2001)
    dphi = smooth_cutoff_gradient(r, 1.5)
    assert np.all(dphi[(r <= 1.5) | (r >= 3.0)] == 0.0)
    assert np.all(dphi <= 0.0)
    # C^1 at both junctions
    assert abs(smooth_cutoff_gradient(1.5 + 1e-9, 1.5)) <= 1e-8
    assert abs(smooth_cutoff_gradient(3.0 - 1e-9, 1.5)) <= 1e-8


@given(rc=st.floats(min_value=0.1, max_value=10.0))
def test_cutoff_range_bounded(rc):
    r = np.linspace(0.0, 4.0 * rc, 101)
    phi = smooth_cutoff(r, rc)
    # the quintic wobbles by an ulp just inside the outer junction
    assert np.all((-1e-12 <= phi) & (phi <= 1.0 + 1e-12))


# ---------------------------------------------------------------------------
# energy and virial functionals


def test_energy_gaussian_analytic():
    # u = exp(-2 r^2), v = 0, p = 7 defocusing:
    # E = pi^{3/2} (3/8 + 1/512); centered-difference d_r u costs O(h^2)
    st7 = _gauss_state()
    exact = math.pi ** 1.5 * (3.0 / 8.0 + 1.0 / 512.0)
    assert abs(energy(st7) - exact) <= 1e-3 * exact


def test_energy_velocity_term():
    base = energy(_gauss_state(v_scale=0.0))
    with_v = energy(_gauss_state(v_scale=1.0))
    grid = RadialGrid(h=0.02, n=3000)
    u = np.exp(-2.0 * grid.r ** 2)
    vterm = 2.0 * math.pi * np.trapezoid(u * u * grid.r ** 2, dx=grid.h)
    assert abs((with_v - base) - vterm) <= 1e-12 * vterm


def test_energy_sign_split_matches_potential_term():
    # defocusing minus focusing energy = twice the potential integral
    e_plus = energy(_gauss_state(mu=1))
    e_minus = energy(_gauss_state(mu=-1))
    grid = RadialGrid(h=0.02, n=3000)
    u = np.exp(-2.0 * grid.r ** 2)
    pot = 4.0 * math.pi * np.trapezoid(u ** 8 / 8.0 * grid.r ** 2, dx=grid.h)
    assert abs((e_plus - e_minus) - 2.0 * pot) <= 1e-12
    assert e_plus > e_minus


def test_zero_state_functionals_vanish():
    grid = RadialGrid(h=0.1, n=100)
    z = np.zeros(grid.n + 1)
    state = RadialState(grid=grid, params=make_params(5.0, 1), t=0.0, u=z, v=z)
    assert energy(state) == 0.0
    assert virial(state) == 0.0
    assert virial_rate(state) == 0.0


def test_virial_vanishes_for_static_states(w_state):
    assert virial(w_state) == 0.0
    assert virial(_gauss_state()) == 0.0


def test_virial_rate_negative_for_defocusing_rest_data():
    assert virial_rate(_gauss_state(mu=1)) < 0.0


def test_virial_rate_matches_centered_difference_at_second_order():
    resids = []
    for h in (1.0 / 64.0, 1.0 / 128.0):
        traj = _gauss_run(h)
        t = 0.25
        z_lo = virial(traj.state_at(t - h))
        z_hi = virial(traj.state_at(t + h))
        resids.append(abs((z_hi - z_lo) / (2.0 * h)
                          - virial_rate(traj.state_at(t))))
    assert resids[0] <= 1e-3
    assert resids[0] / resids[1] >= 3.5  # halving h quarters the defect


# ---------------------------------------------------------------------------
# localized identities


def test_identity_residuals_zero_solution():
    grid = RadialGrid(h=0.01, n=500)
    z = np.zeros(grid.n + 1)
    state = RadialState(grid=grid, params=make_params(5.0, 1), t=0.0, u=z, v=z)
    traj = _static_trajectory(state, [0.0, 0.01, 0.02])
    assert localized_identity_residuals(traj, 1.0, 0.01) == (0.0, 0.0, 0.0)


def test_identity_residuals_static_ground_state(w_state):
    # frozen-in-time profile: the time difference vanishes, so each residual
    # is the quadrature of a continuum identity that holds for the profile
    h = w_state.grid.h
    traj = _static_trajectory(w_state, [0.0, h, 2.0 * h])
    res = localized_identity_residuals(traj, 2.0, h)
    assert res[0] == 0.0  # rhs_i carries a factor v = 0
    assert res[1] <= 1e-4
    assert res[2] <= 1e-4


def test_identity_residuals_validation(w_state):
    h = w_state.grid.h
    traj = _static_trajectory(w_state, [0.0, h, 2.0 * h])
    with pytest.raises(ValueError, match="cutoff"):
        localized_identity_residuals(traj, 0.0, h)
    with pytest.raises(ValueError, match="cutoff"):
        localized_identity_residuals(traj, 26.0, h)  # 2 Rc > R = 50
    with pytest.raises(KeyError):
        localized_identity_residuals(traj, 2.0, 2.0 * h)  # t + h not stored


def test_identity_residuals_second_order_on_smooth_run():
    resids = []
    for h in (1.0 / 64.0, 1.0 / 128.0):
        traj = _gauss_run(h)
        resids.append(localized_identity_residuals(traj, 1.5, 0.25))
    for coarse, fine in zip(*resids):
        assert coarse / fine >= 3.0


# ---------------------------------------------------------------------------
# support radius and Hardy bound


def test_support_radius_compact_bump(w_grid):
    u = bump(w_grid.r, radius=2.0)
    state = RadialState(grid=w_grid, params=make_params(5.0, 1), t=0.0,
                        u=u, v=np.zeros(w_grid.n + 1))
    support, hardy = support_and_hardy(state)
    # last node where the bump still clears the 1e-12 floor sits just
    # inside r = 2
    assert 1.9 <= support < 2.0
    assert hardy > 0.0


def test_support_radius_of_prefix_matches_full_grid(w_grid):
    # the solver's step log passes prefixes that hold every nonzero
    u = bump(w_grid.r, radius=2.0)
    v = 0.5 * bump(w_grid.r, radius=2.3)
    state = RadialState(grid=w_grid, params=make_params(5.0, 1), t=0.0, u=u, v=v)
    full = support_radius(u, v, w_grid.r)
    assert full == support_and_hardy(state)[0]
    assert 2.2 <= full < 2.3  # set by v, which reaches further than u
    assert support_radius(u[:240], v[:240], w_grid.r) == full


def test_radial_integral_in_scratch_matches_fresh_terms():
    # the terms scratch may hold anything before column m - 1 (an earlier
    # block's terms) and zeros from m - 1 on; the density block and the tiled
    # r are overwritten
    from nlwlab.diagnostics import _radial_integral, _radial_quadrature
    rng = np.random.default_rng(3)
    r, h, m = np.arange(41) * 0.25, 0.25, 17
    density = rng.standard_normal((2, 3, m))
    terms = np.zeros((6, len(r) - 1))
    terms[:, :m - 1] = rng.standard_normal((6, m - 1))
    rt = np.tile(r[:m], (6, 1))
    (got,) = _radial_quadrature((density.reshape(6, m).copy(),), rt, h, terms)
    assert got.reshape(2, 3).tolist() == _radial_integral(density, r, h)
    assert not terms[:, m - 1:].any()
    # fresh zero-padded terms, formed as the full-grid formula
    y = density * r[:m] * r[:m]
    fresh = np.zeros((2, 3, len(r) - 1))
    fresh[..., :m - 1] = (y[..., 1:] + y[..., :-1]) * h / 2.0
    assert _radial_integral(density, r, h) == (4.0 * np.pi * fresh.sum(axis=-1)).tolist()


def test_step_log_rows_match_one_row_calls(w_grid):
    # rows whose support ends near the block's last column, far inside it,
    # and nowhere: the windowed support search falls back per row, and every
    # value equals the one-row call on that row's full-grid field
    from nlwlab.diagnostics import SUPPORT_WINDOW, _RowBuffers, step_log_rows
    r, h = w_grid.r, w_grid.h
    width = 400
    assert width > SUPPORT_WINDOW
    rows = [bump(r, radius=3.9), bump(r, radius=1.0, amp=0.3),
            np.full(w_grid.n + 1, 1e-13), np.zeros(w_grid.n + 1)]
    u = np.zeros((len(rows), width))
    v = np.zeros((len(rows), width))
    for i, f in enumerate(rows):
        u[i, :width - 2] = f[:width - 2]
        v[i, :width - 2] = 0.5 * f[:width - 2]
    params = make_params(7.0, -1)
    got = step_log_rows(u, v, r, h, params.p, params.mu, _RowBuffers(len(rows), len(r)))
    for i in range(len(rows)):
        full_u = np.zeros(w_grid.n + 1)
        full_u[:width] = u[i]
        full_v = np.zeros(w_grid.n + 1)
        full_v[:width] = v[i]
        state = RadialState(grid=w_grid, params=params, t=0.0, u=full_u, v=full_v)
        assert got[0][i] == energy(state)
        assert got[1][i] == virial(state)
        assert got[2][i] == support_radius(full_u, full_v, r)
    assert got[2][0] > r[width - SUPPORT_WINDOW] and got[2][1] < 1.0
    assert got[2][2:] == [0.0, 0.0]


@pytest.mark.parametrize("k", [1, 2, 8])
def test_step_log_rows_same_bits_in_every_layout(w_grid, k):
    # a contiguous block, strided views of a wider buffer and one-row calls
    # give the same bits; one buffer set serves every width, growing and
    # shrinking, so a wide call's terms must not leak into a narrow one
    from nlwlab.diagnostics import _RowBuffers, step_log_rows
    r, h = w_grid.r, w_grid.h
    params = make_params(7.0, 1)
    rng = np.random.default_rng(k)
    buffers = _RowBuffers(8, len(r))
    widths = [3, 4, 63, 64, 65, 400]
    for W in widths + widths[::-1]:
        u, v = np.zeros((k, W)), np.zeros((k, W))
        live = max(W - 2, 1)  # the last column of a solver row is +0.0
        u[:, :live] = rng.standard_normal((k, live)) * np.exp(-r[:live])
        v[:, :live] = rng.standard_normal((k, live))
        u[k - 1, live // 2:] = 0.0  # one row ends well inside the block
        ref = step_log_rows(u, v, r, h, params.p, params.mu)
        # every other row and column of a wider buffer, and the rows of one
        wide = np.zeros((2, 2 * k, 2 * W + 7))
        wide[0, ::2, :2 * W:2], wide[1, ::2, :2 * W:2] = u, v
        strided = (wide[0, ::2, :2 * W:2], wide[1, ::2, :2 * W:2])
        assert not strided[0].flags.c_contiguous
        rows = np.zeros((2, k, W + 7))
        rows[0, :, :W], rows[1, :, :W] = u, v
        for us, vs in ((u, v), strided, (rows[0, :, :W], rows[1, :, :W]),
                       (u[::-1], v[::-1])):
            got = step_log_rows(us, vs, r, h, params.p, params.mu, buffers)
            if us.strides[0] < 0:
                got = [col[::-1] for col in got]
            assert _bits(got) == _bits(ref)
        for i in range(k):
            one = step_log_rows(u[i:i + 1], v[i:i + 1], r, h, params.p, params.mu,
                                buffers)
            assert _bits(one) == _bits([col[i:i + 1] for col in ref])
        assert not buffers.terms[:, W - 1:].any()


def _bits(cols):
    return [np.asarray(col, dtype=float).view(np.int64).tolist() for col in cols]


def test_support_zero_for_tiny_field(w_grid):
    u = np.full(w_grid.n + 1, 1e-13)
    state = RadialState(grid=w_grid, params=make_params(5.0, 1), t=0.0,
                        u=u, v=np.zeros(w_grid.n + 1))
    support, _ = support_and_hardy(state)
    assert support == 0.0


def test_hardy_inequality_on_smooth_profiles(w_grid):
    params = make_params(5.0, 1)
    for u in (np.exp(-2.0 * w_grid.r ** 2), bump(w_grid.r, radius=3.0)):
        state = RadialState(grid=w_grid, params=params, t=0.0,
                            u=u, v=np.zeros(w_grid.n + 1))
        _, hardy = support_and_hardy(state)
        du = np.gradient(u, w_grid.h)
        grad_sq = 4.0 * math.pi * np.trapezoid(du * du * w_grid.r ** 2,
                                               dx=w_grid.h)
        assert hardy <= 4.0 * grad_sq


# ---------------------------------------------------------------------------
# records and serialization


def test_diagnostic_record_consistency():
    traj = _gauss_run(1.0 / 64.0)
    t = 0.25
    rec = diagnostic_record(traj, t, 1.5)
    state = traj.state_at(t)
    assert rec.t == t
    assert rec.energy == energy(state)
    assert rec.virial == virial(state)
    assert rec.z_rate_rhs == virial_rate(state)
    assert abs(rec.z_rate_lhs - rec.z_rate_rhs) <= 1e-3
    assert (rec.res_i, rec.res_ii, rec.res_iii) == \
        localized_identity_residuals(traj, 1.5, t)
    assert 0.0 <= rec.support_radius <= traj.grid.R


def test_diagnostic_record_takes_energy_and_virial_from_one_call(monkeypatch):
    # one row for the record's state (E and z together), one each for z at t +- h
    from nlwlab import diagnostics
    traj = _gauss_run(1.0 / 64.0)
    rows = []
    real = diagnostics._energy_virial

    def spy(u, *args, **kwargs):
        rows.append(len(u))
        return real(u, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "_energy_virial", spy)
    rec = diagnostic_record(traj, 0.25, 1.5)
    assert rows == [1, 1, 1]
    monkeypatch.undo()
    state = traj.state_at(0.25)
    assert (rec.energy, rec.virial) == (energy(state), virial(state))


def test_log_matches_diagnostics_recompute():
    traj = _gauss_run(1.0 / 64.0)
    idx = {float(t): k for k, t in enumerate(traj.log.t)}
    for state in traj.states:
        k = idx[state.t]
        assert traj.log.energy[k] == energy(state)
        assert traj.log.virial[k] == virial(state)


def test_diagnostic_record_rejects_non_finite():
    with pytest.raises(ValueError, match="not finite"):
        DiagnosticRecord(t=0.0, energy=math.nan, virial=0.0, z_rate_lhs=0.0,
                         z_rate_rhs=0.0, res_i=0.0, res_ii=0.0, res_iii=0.0,
                         support_radius=0.0, hardy_bound=0.0)
    with pytest.raises(ValueError, match="not finite"):
        DiagnosticRecord(t=0.0, energy=0.0, virial=math.inf, z_rate_lhs=0.0,
                         z_rate_rhs=0.0, res_i=0.0, res_ii=0.0, res_iii=0.0,
                         support_radius=0.0, hardy_bound=0.0)


def test_records_to_csv_layout():
    traj = _gauss_run(1.0 / 64.0)
    recs = [diagnostic_record(traj, t, 1.5) for t in (0.25, 0.375)]
    plain = records_to_csv(recs, mu=1)
    lines = plain.strip().split("\n")
    assert lines[0].startswith("t,E,z,")
    assert len(lines) == 3
    row = [float(x) for x in lines[1].split(",")]
    assert row[0] == recs[0].t and row[1] == recs[0].energy

    focusing = records_to_csv(recs, mu=-1)
    assert focusing.startswith("# energy: non-coercive (focusing sign)\n")


def test_residual_sweep_json():
    traj = _gauss_run(1.0 / 64.0)
    text = residual_sweep_to_json(traj, [1.0, 1.5], [0.25])
    sweep = json.loads(text)
    assert set(sweep) == {"Rc=1.0,t=0.25", "Rc=1.5,t=0.25"}
    for vals in sweep.values():
        assert len(vals) == 3
        assert all(isinstance(x, float) and x >= 0.0 for x in vals)
