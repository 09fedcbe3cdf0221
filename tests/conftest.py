import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def w_grid():
    """The R = 50 grid used by the static-profile fidelity runs."""
    from nlwlab import RadialGrid
    return RadialGrid(h=0.01, n=5000)


@pytest.fixture(scope="session")
def w_state(w_grid):
    from nlwlab import reference_W
    return reference_W(w_grid)


@pytest.fixture(scope="session")
def w_rest_trajectory(w_state):
    """Single-layer trajectory holding the static profile at t = 0."""
    from nlwlab.solver import SolverConfig, evolve
    cfg = SolverConfig(grid=w_state.grid, params=w_state.params, t_final=0.0,
                       cone_floor=None)
    return evolve(cfg, w_state)


def bump(r, radius=1.0, amp=1.0):
    x = np.minimum(np.abs(r) / radius, 1.0)
    out = np.zeros_like(np.asarray(r, dtype=float))
    inside = x < 1.0
    out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def w_window_slope(grid, r_min):
    """Least-squares log-log slope of W(r) = (1 + r^2/3)^(-1/2) on [r_min, R/4].

    The closed-form oracle for decay fits of the static profile.  W only tends
    to sqrt(3)/r: its local log-log slope is -r^2/(3 + r^2), so a fit over a
    finite window is shallower than -1.  Computed from explicit sums over the
    window's grid nodes, sharing no code with nlwlab.
    """
    r = np.arange(grid.n + 1, dtype=float) * grid.h
    r = r[(r >= r_min - 1e-12) & (r <= grid.n * grid.h / 4.0 + 1e-12)]
    x = np.log(r)
    y = -0.5 * np.log(1.0 + r * r / 3.0)
    dx = x - x.mean()
    return float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))


def direct_sine_sum(phi, grid):
    """T(rho_k) = h * sum_j sin(rho_k r_j) r_j phi_j, rho_k = k pi / R, k = 0..n.

    The composite-trapezoid sine transform as the explicit O(n^2) sum over the
    interior nodes (the end terms vanish: r_0 = 0 and sin(rho_k R) = 0).  A
    test oracle built from np.sin and np.outer only, sharing no code with
    nlwlab.norms, whose DST-I and doubled-grid FFT routes are both FFTs of
    the odd extension of r phi.
    """
    r = grid.r
    rho = np.arange(grid.n + 1, dtype=float) * (np.pi / (grid.n * grid.h))
    f = r[1:-1] * np.asarray(phi, dtype=float)[1:-1]
    return grid.h * (np.sin(np.outer(rho, r[1:-1])) @ f)


def norm_corpus(r):
    """The ten radial profiles of the norm-engine acceptance criterion."""
    from nlwlab.cli import profile_ode_flat
    return [
        np.exp(-r ** 2 / 2.0),
        np.exp(-2.0 * r ** 2),
        0.7 * np.exp(-r ** 2 / 4.5),
        bump(r, radius=1.0),
        0.5 * bump(r, radius=2.0),
        1.3 * bump(r, radius=3.0),
        profile_ode_flat(r, 1.0),
        (1.0 + r ** 2) ** -2,
        r ** 2 * np.exp(-r ** 2),
        np.exp(-r ** 2 / 2.0) * np.cos(r),
    ]
