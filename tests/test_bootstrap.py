"""Tests for the contraction constant, exponent recursion, and decay fits."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import w_window_slope
from nlwlab import (
    RadialGrid,
    RadialState,
    SolverConfig,
    StepLog,
    Trajectory,
    evolve,
    make_params,
)
from nlwlab import norms
from nlwlab.bootstrap import (
    ExponentSequence,
    contraction_constant,
    contraction_table,
    decay_fit,
    exponent_iteration,
    profile_decay_fit,
    working_dtype,
)

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# working dtype selection


def test_working_dtype_default():
    assert working_dtype() is np.float64


def test_working_dtype_choices():
    assert working_dtype("f64") is np.float64
    assert working_dtype("extended") is np.longdouble
    with pytest.raises(ValueError, match="precision"):
        working_dtype("quad")


# ---------------------------------------------------------------------------
# contraction constant


def test_contraction_constant_values():
    value5, theta5 = contraction_constant(5.0)
    assert value5 == 0.9659258262890682
    assert theta5 == (1.0 - value5) / 2.0
    value7, _ = contraction_constant(7.0)
    assert value7 == 0.9701656110259425
    value_large, _ = contraction_constant(1000.0)
    assert value_large == 0.9997386018912535


def test_contraction_constant_closed_form():
    # (1/2) [ (3/2)^{1-a} + (1/2)^{1-a} ] with a = 2/(p-1)
    for p in (5.0, 9.0, 42.0):
        a = 2.0 / (p - 1.0)
        expected = 0.5 * (1.5 ** (1.0 - a) + 0.5 ** (1.0 - a))
        value, theta = contraction_constant(p)
        assert abs(value - expected) <= 4.0 * EPS
        assert 0.0 < value < 1.0
        assert theta > 0.0


def test_contraction_subunit_and_monotone_on_dense_sample():
    sample = np.geomspace(5.0, 1e4, 60)
    values = np.array([contraction_constant(p)[0] for p in sample])
    assert np.all((0.0 < values) & (values < 1.0))
    assert np.all(np.diff(values) > 0.0)  # degenerates toward 1 as p grows


def test_contraction_constant_validation():
    for bad in (4.9, 3.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            contraction_constant(bad)


# ---------------------------------------------------------------------------
# exponent recursion


def test_exponent_iteration_first_steps_are_rational():
    # p = 7, beta0 = 1/10: beta1 = 7/19 exactly, beta2 = 49/82
    seq = exponent_iteration(7.0, 0.1)
    assert seq.beta[0] == 0.1
    assert seq.beta[1] == 7.0 / 19.0
    assert abs(seq.beta[2] - 49.0 / 82.0) <= 2.0 * EPS


def test_exponent_iteration_monotone_convergence():
    for p in (5.0, 7.0, 13.0):
        limit = 1.0 - 2.0 / (p - 1.0)
        for beta0 in (0.01, 0.1, 0.3 * limit):
            seq = exponent_iteration(p, beta0, tol=1e-10)
            assert seq.converged
            assert len(seq.beta) <= 201
            assert seq.limit_gap <= 1e-10
            betas = np.array(seq.beta)
            assert np.all(np.diff(betas) > 0.0)
            assert np.all(betas <= limit + 1e-15)
            # the multiplier gamma * p stays above 1 until the fixed point
            for b, g in zip(seq.beta[:-1], seq.gamma[:-1]):
                assert g * p > 1.0


def test_exponent_iteration_fixed_point():
    for p in (5.0, 7.0):
        limit = 1.0 - 2.0 / (p - 1.0)
        seq = exponent_iteration(p, limit)
        assert seq.converged
        assert seq.beta == (limit,)
        assert abs(seq.gamma[0] * p - 1.0) <= 4.0 * EPS
        assert seq.limit_gap == 0.0


def test_exponent_iteration_without_convergence():
    seq = exponent_iteration(5.0, 0.01, n_max=3, tol=1e-12)
    assert not seq.converged
    assert len(seq.beta) == 4
    assert len(seq.gamma) == 4
    assert seq.limit_gap > 0.0


def test_exponent_iteration_validation():
    with pytest.raises(ValueError):
        exponent_iteration(4.0, 0.1)
    with pytest.raises(ValueError):
        exponent_iteration(5.0, 0.0)
    with pytest.raises(ValueError):
        exponent_iteration(5.0, -0.1)
    with pytest.raises(ValueError):
        exponent_iteration(5.0, 0.5 + 1e-9)  # beyond the fixed point 1 - a
    with pytest.raises(ValueError):
        exponent_iteration(5.0, 0.1, n_max=0)


@given(p=st.floats(min_value=5.0, max_value=100.0),
       frac=st.floats(min_value=0.01, max_value=0.99))
def test_exponent_iteration_limit_property(p, frac):
    limit = 1.0 - 2.0 / (p - 1.0)
    seq = exponent_iteration(p, frac * limit, tol=1e-10)
    assert seq.converged
    assert abs(seq.beta[-1] - limit) <= 1e-10


def test_exponent_sequence_csv():
    seq = exponent_iteration(7.0, 0.1)
    lines = seq.to_csv().strip().split("\n")
    assert lines[0] == "n,beta,gamma"
    assert len(lines) == len(seq.beta) + 1
    n, beta, gamma = lines[2].split(",")
    assert int(n) == 1
    assert float(beta) == seq.beta[1]
    assert float(gamma) == seq.gamma[1]


# ---------------------------------------------------------------------------
# convexity step


def _g1_profile(r):
    # analytic g1 of the ground state in its decreasing range r >= sqrt(3)
    return math.sqrt(3.0 * r / (3.0 + r * r))


def test_convexity_step_ground_state_samples(w_state):
    # W's g1 at halving radii contracts strictly, so the linearized step
    # g1(r) <= (1 - theta) g1(r/2) holds with no nonlinear correction
    radii = [8.0, 4.0, 2.0]
    g1 = norms._g1(w_state, radii)
    assert np.allclose(g1, [_g1_profile(r) for r in radii], rtol=1e-12, atol=0.0)
    _, theta = contraction_constant(5.0)
    for g_big, g_half in zip(g1, g1[1:]):
        assert g_big <= (1.0 - theta) * g_half


# ---------------------------------------------------------------------------
# decay fit


def test_decay_fit_ground_state(w_rest_trajectory):
    c0, slope = decay_fit(w_rest_trajectory, r_min=4.0)
    assert c0 == 1.7156587907687908
    assert slope == -0.941911462063044
    # the closed-form window slope of W, not the r -> infinity limit -1
    assert abs(slope - w_window_slope(w_rest_trajectory.grid, 4.0)) <= 1e-9
    # C0 within 2 percent of the r -> infinity limit sqrt(3)
    assert abs(c0 - math.sqrt(3.0)) <= 0.02 * math.sqrt(3.0)


def test_profile_decay_fit_static_profile(w_state):
    c0, slope = profile_decay_fit(w_state.grid, w_state.u, r_min=4.0)
    assert abs(slope - w_window_slope(w_state.grid, 4.0)) <= 1e-9
    assert abs(c0 - math.sqrt(3.0)) <= 0.02 * math.sqrt(3.0)


def test_decay_fit_zero_window():
    grid = RadialGrid(h=0.05, n=400)
    z = np.zeros(grid.n + 1)
    state = RadialState(grid=grid, params=make_params(5.0, 1), t=0.0, u=z, v=z)
    log = StepLog(t=np.zeros(1), energy=np.zeros(1), virial=np.zeros(1),
                  max_abs_u=np.zeros(1), support_radius=np.zeros(1))
    traj = Trajectory(grid=grid, params=state.params, states=(state,), log=log)
    c0, slope = decay_fit(traj)
    assert c0 == 0.0 and slope == 0.0


def test_decay_fit_validation(w_rest_trajectory):
    with pytest.raises(ValueError, match="r_min"):
        decay_fit(w_rest_trajectory, r_min=0.5)
    grid = RadialGrid(h=0.5, n=10)  # R/4 = 1.25: window holds one node
    z = np.zeros(grid.n + 1)
    state = RadialState(grid=grid, params=make_params(5.0, 1), t=0.0, u=z, v=z)
    log = StepLog(t=np.zeros(1), energy=np.zeros(1), virial=np.zeros(1),
                  max_abs_u=np.zeros(1), support_radius=np.zeros(1))
    traj = Trajectory(grid=grid, params=state.params, states=(state,), log=log)
    with pytest.raises(ValueError, match="window"):
        decay_fit(traj)


def test_exponent_iteration_fixed_point_extended():
    # the fixed point computed in float64 lands an ulp above the extended
    # limit; the iteration must still read it as the fixed point
    for p in (5.0, 7.0):
        seq = exponent_iteration(p, 1.0 - 2.0 / (p - 1.0), precision="extended")
        assert seq.converged
        assert len(seq.beta) == 1
        assert abs(seq.gamma[0] * p - 1.0) <= 4.0 * EPS


# ---------------------------------------------------------------------------
# bit-identity oracles: the arithmetic as it ran in numpy scalars of
# working_dtype(precision) at every operation, before f64 moved to Python floats


def _seed_contraction_constant(p, precision="f64"):
    if not (np.isfinite(p) and p >= 5.0):
        raise ValueError(f"p must be a finite real >= 5, got {p}")
    dt = working_dtype(precision)
    one = dt(1.0)
    a = dt(2.0) / (dt(p) - one)
    value = (dt(1.5) ** (one - a) + dt(0.5) ** (one - a)) / dt(2.0)
    theta = (one - value) / dt(2.0)
    return float(value), float(theta)


def _seed_exponent_iteration(p, beta0, n_max=100000, tol=1e-12, precision="f64"):
    if not (np.isfinite(p) and p >= 5.0):
        raise ValueError(f"p must be a finite real >= 5, got {p}")
    dt = working_dtype(precision)
    one = dt(1.0)
    pp = dt(p)
    a = dt(2.0) / (pp - one)
    limit = one - a
    b0 = dt(beta0)
    slack = dt(4.0) * dt(np.finfo(np.float64).eps) * limit
    if limit < b0 <= limit + slack:
        b0 = limit
    if not (b0 > 0.0 and b0 <= limit):
        raise ValueError(f"beta0 must lie in (0, 1 - a] = (0, {float(limit)}], got {beta0}")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    betas = [b0]
    gammas = []
    b = b0
    converged = abs(b - limit) < tol
    for _ in range(n_max):
        if converged:
            break
        g = limit / (limit + b * (pp - one))
        gammas.append(g)
        b = g * b * pp
        betas.append(b)
        converged = abs(b - limit) < tol
    gammas.append(limit / (limit + betas[-1] * (pp - one)))
    return ExponentSequence(
        p=float(p),
        beta=tuple(float(x) for x in betas),
        gamma=tuple(float(x) for x in gammas),
        converged=bool(converged),
        limit_gap=float(abs(betas[-1] - limit)),
    )


PRECISIONS = ("f64", "extended")
P_RANGE = st.floats(min_value=5.0, max_value=1e6)


@given(p=P_RANGE)
def test_contraction_constant_matches_seed_bitwise(p):
    assert repr(contraction_constant(p)) == repr(_seed_contraction_constant(p))
    for choice in PRECISIONS:
        want = _seed_contraction_constant(p, choice)
        assert contraction_table([p, np.float64(p)], choice) == [want, want], choice


@given(p=P_RANGE, data=st.data())
def test_exponent_iteration_matches_seed_bitwise(p, data):
    limit = 1.0 - 2.0 / (p - 1.0)
    beta0 = data.draw(st.floats(min_value=0.0, max_value=limit, exclude_min=True))
    assert repr(exponent_iteration(p, beta0)) == repr(_seed_exponent_iteration(p, beta0))
    for choice in PRECISIONS:
        got = exponent_iteration(p, beta0, precision=choice)
        want = _seed_exponent_iteration(p, beta0, precision=choice)
        assert repr(got) == repr(want), choice


def test_bootstrap_arithmetic_rejects_like_seed():
    for c in PRECISIONS:
        for bad in (4.9, -math.inf, math.nan, math.inf):
            for new, seed in ((lambda q: contraction_table([q], c)[0],
                               lambda q: _seed_contraction_constant(q, c)),
                              (lambda q: exponent_iteration(q, 0.1, precision=c),
                               lambda q: _seed_exponent_iteration(q, 0.1, precision=c))):
                with pytest.raises(ValueError) as e_new:
                    new(bad)
                with pytest.raises(ValueError) as e_seed:
                    seed(bad)
                assert str(e_new.value) == str(e_seed.value)
            with pytest.raises(ValueError, match="finite real"):
                contraction_table([5.0, bad], c)
        for beta0 in (0.0, -0.1, 0.5 + 1e-9):
            with pytest.raises(ValueError) as e_new:
                exponent_iteration(5.0, beta0, precision=c)
            with pytest.raises(ValueError) as e_seed:
                _seed_exponent_iteration(5.0, beta0, precision=c)
            assert str(e_new.value) == str(e_seed.value)
