"""Arithmetic skeleton of the decay bootstrap.

The decay argument upgrades the modulus g1(r) = sup_t sup_{alpha >= r}
alpha^a |u| through a convexity step

    g1(r) <= kappa * g1(r/2) + C g1(r/2)^p,
    kappa = (1/2) [ (3/2)^{1-a} + (1/2)^{1-a} ] = 1 - 2 theta_p < 1,

and an exponent iteration beta_{n+1} = gamma_n beta_n p with
gamma_n = (1-a) / (1-a + beta_n (p-1)), which climbs monotonically to the
critical decay rate 1 - a.  This module evaluates kappa and the iteration
exactly, in float64 or in extended ``precision``, and fits the pointwise
decay of simulated profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nlwlab.core import RadialGrid, Trajectory, _csv_text

__all__ = [
    "ExponentSequence",
    "contraction_constant",
    "contraction_table",
    "decay_fit",
    "exponent_iteration",
    "profile_decay_fit",
    "working_dtype",
]


def working_dtype(precision: str = "f64"):
    """The arithmetic's float type: np.float64 for "f64", np.longdouble for "extended"."""
    if precision == "f64":
        return np.float64
    if precision == "extended":
        return np.longdouble
    raise ValueError(f"precision must be 'f64' or 'extended', got {precision!r}")


def _scalar_type(precision: str):
    """Scalar type the arithmetic runs in, resolved from :func:`working_dtype`.

    f64 runs in Python floats: the same IEEE double operations and the same
    libm pow as numpy float64 scalars, at a fraction of the per-operation
    cost.  extended runs in numpy longdouble scalars.
    """
    dt = working_dtype(precision)
    return float if dt is np.float64 else dt


def _check_p(p) -> None:
    if not (5.0 <= p < math.inf):
        raise ValueError(f"p must be a finite real >= 5, got {p}")


def contraction_constant(p: float):
    """Contraction factor of the convexity step and its gap to 1.

    Returns (value, theta_p) with value = (1/2)[(3/2)^{1-a} + (1/2)^{1-a}]
    and theta_p = (1 - value)/2.  The value is strictly inside (0, 1) for
    every p >= 5 and degenerates to 1 as p -> infinity.  Computed in f64.
    """
    return contraction_table((p,))[0]


def contraction_table(p_values, precision: str = "f64") -> list:
    """:func:`contraction_constant` at every p, in the working type of ``precision``."""
    dt = _scalar_type(precision)
    one, two = dt(1.0), dt(2.0)
    table = []
    for p in p_values:
        _check_p(p)
        a = two / (dt(p) - one)
        value = (dt(1.5) ** (one - a) + dt(0.5) ** (one - a)) / two
        table.append((float(value), float((one - value) / two)))
    return table


@dataclass(frozen=True)
class ExponentSequence:
    """Iterates of the decay-exponent recursion.

    beta[n+1] = gamma[n] * beta[n] * p with
    gamma[n] = (1-a) / (1-a + beta[n] (p-1)); gamma is evaluated at every
    iterate (including the last).  For beta[0] < 1-a the betas increase
    strictly toward 1-a with gamma_n * p > 1 at every step; beta[0] = 1-a is
    the fixed point and yields a constant sequence with gamma = 1/p.
    """

    p: float
    beta: tuple
    gamma: tuple
    converged: bool
    limit_gap: float

    def to_csv(self) -> str:
        return _csv_text("n,beta,gamma", (
            (n, float(b), float(g)) for n, (b, g) in enumerate(zip(self.beta, self.gamma))))


def _start(p: float, beta0: float, precision: str = "f64"):
    """(p, 1 - a, beta0) in the working type of ``precision``, a beta0 an
    ulp above the fixed point 1 - a read as it; ValueError unless
    0 < beta0 <= 1 - a."""
    dt = _scalar_type(precision)
    one, pp = dt(1.0), dt(p)
    limit = one - dt(2.0) / (pp - one)
    b0 = dt(beta0)
    # a caller computing 1 - a in coarser arithmetic can land an ulp above
    # the fixed point; read that as the fixed point rather than rejecting it
    slack = dt(4.0) * dt(np.finfo(np.float64).eps) * limit
    if limit < b0 <= limit + slack:
        b0 = limit
    if not (b0 > 0.0 and b0 <= limit):
        raise ValueError(f"beta0 must lie in (0, 1 - a] = (0, {float(limit)}], got {beta0}")
    return pp, limit, b0


def exponent_iteration(p: float, beta0: float, n_max: int = 100000,
                       tol: float = 1e-12, precision: str = "f64") -> ExponentSequence:
    """Run the exponent recursion from beta0 until within tol of 1 - a.

    Requires p >= 5, 0 < beta0 <= 1 - a (the upper endpoint is the fixed
    point; starting beyond it leaves the regime the recursion models) and
    n_max >= 1; the ValueError for a rejected argument starts with its name.
    Convergence is geometric near the fixed point, so the default cap is
    generous.  Arithmetic runs in the :func:`working_dtype` of ``precision``.
    """
    _check_p(p)
    pp, limit, b0 = _start(p, beta0, precision)
    if n_max < 1:
        raise ValueError("n_max must be positive")
    betas = [b0]
    gammas = []
    b = b0
    converged = abs(b - limit) < tol
    for _ in range(n_max):
        if converged:
            break
        g = limit / (limit + b * (pp - 1.0))
        gammas.append(g)
        b = g * b * pp
        betas.append(b)
        converged = abs(b - limit) < tol
    # gamma at the final iterate, so the two columns stay aligned
    gammas.append(limit / (limit + betas[-1] * (pp - 1.0)))
    return ExponentSequence(
        p=float(p),
        beta=tuple(float(x) for x in betas),
        gamma=tuple(float(x) for x in gammas),
        converged=bool(converged),
        limit_gap=float(abs(betas[-1] - limit)),
    )


def _fit_window(grid: RadialGrid, r_min: float) -> np.ndarray:
    """Node mask of the fit window [r_min, R/4] (1e-12 slack at both ends);
    ValueError unless r_min >= 1 and the window holds at least two nodes."""
    if not r_min >= 1.0:
        raise ValueError(f"the fit window starts at r_min >= 1, got {r_min!r}")
    r = grid.r
    mask = (r >= r_min - 1e-12) & (r <= grid.R / 4.0 + 1e-12)
    if np.count_nonzero(mask) < 2:
        raise ValueError(f"fit window [{r_min!r}, R/4 = {grid.R / 4.0!r}] contains "
                         "fewer than two grid nodes")
    return mask


def profile_decay_fit(grid: RadialGrid, f, r_min: float = 1.0):
    """Fit |f(r)| ~ C0 / r over the window [r_min, R/4] of one nodal profile.

    Returns (C0, slope): C0 = max of r |f(r)| over grid nodes in the window,
    and slope = least-squares slope of log |f| against log r over all window
    nodes with f nonzero; (0, 0) for an identically zero window.  The window
    rule is :func:`_fit_window`'s.
    """
    mask = _fit_window(grid, r_min)
    rr = grid.r[mask]
    ss = np.abs(np.asarray(f))[mask]
    C0 = float(np.max(rr * ss))
    pos = ss > 0
    if np.count_nonzero(pos) < 2:
        return C0, 0.0
    slope = float(np.polyfit(np.log(rr[pos]), np.log(ss[pos]), 1)[0])
    return C0, slope


def decay_fit(traj: Trajectory, r_min: float = 1.0):
    """Fit sup_t |u(r, t)| ~ C0 / r over the window [r_min, R/4]:
    :func:`profile_decay_fit` applied to sup_t |u| over the stored states."""
    sup_u = np.zeros(traj.grid.n + 1)
    for s in traj.states:
        np.maximum(sup_u, np.abs(s.u), out=sup_u)
    return profile_decay_fit(traj.grid, sup_u, r_min)
