"""Scale-critical Sobolev norms, the decay modulus g1, tail norms, and the
space-time norm.

Fractional norms are computed in the radial frequency domain.  The 3D radial
Fourier transform is

    phi_hat(rho) = (4 pi / rho) * T(rho),   T(rho) = int_0^inf sin(rho s) s phi(s) ds,

with the constant fixed so that Plancherel reads
||phi||^2_{L^2} = (2 pi)^{-3} ||phi_hat||^2_{L^2} (calibrated on a Gaussian:
the squared Hdot^beta norm of e^{-r^2/2} equals 2 pi Gamma(beta + 3/2)).
T is a trapezoid quadrature on the grid at the frequency nodes rho_k = k pi / R,
evaluated by a type-I discrete sine transform (O(n log n)), computed as the
real FFT (numpy.fft.rfft) of the odd extension of s * phi on the doubled grid;
in squared-norm form

    ||phi||^2_{Hdot^beta(R^3)} = 8 * int_0^inf rho^{2 beta} T(rho)^2 d rho.

A second route computes the same norm as 2 pi times the 1D fractional norm of
s * phi(s) extended oddly, via an FFT on the doubled grid.  It is a separate
code path, not an independent algorithm: the DST-I is itself an FFT of that
odd extension.  The two routes must agree on smooth decayed profiles and their
comparison is part of the acceptance surface.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import astuple, dataclass

import numpy as np

from nlwlab.core import RadialGrid, RadialState, Trajectory, _csv_text, _nonneg_power
from nlwlab.diagnostics import _radial_derivative, _radial_integral

__all__ = [
    "DECAY_WARN_FLOOR",
    "NormReport",
    "TailRecord",
    "norm_report",
    "sine_transform",
    "sobolev_norm",
    "sobolev_norm_1d",
    "sobolev_norms",
    "sp_norm",
    "tail_norms",
    "tail_table",
]

DECAY_WARN_FLOOR = 1e-12


def _decayed_profile(phi) -> np.ndarray:
    """phi as a float array; warns when it has not decayed at the outer boundary."""
    phi = np.asarray(phi, dtype=float)
    edge = float(np.max(np.abs(phi[-2:])))
    if edge > DECAY_WARN_FLOOR:
        warnings.warn(
            f"radial profile has magnitude {edge:.3e} at the outer boundary; "
            "truncation error is uncontrolled", stacklevel=3)
    return phi


def _odd_extension(f: np.ndarray) -> np.ndarray:
    """[f_0, ..., f_n, -f_{n-1}, ..., -f_1]: f extended oddly onto the doubled grid."""
    n = len(f) - 1
    x = np.empty(2 * n)
    x[: n + 1] = f
    x[n + 1:] = -f[n - 1:0:-1]
    return x


def sine_transform(phi, grid: RadialGrid) -> np.ndarray:
    """T(rho_k) = int_0^R sin(rho_k s) s phi(s) ds at rho_k = k pi / R, k = 0..n.

    Composite trapezoid on the grid.  Since s phi vanishes at s = 0 and
    sin(rho_k s) vanishes at s = R for every k, the trapezoid sum reduces to
    the interior sine sum h * sum_j sin(pi k j / n) f_j, which is half a
    type-I DST of the interior nodes.  The DST-I is minus the imaginary part
    of the real FFT (numpy.fft.rfft) of the odd extension [0, f_1..f_{n-1},
    0, -f_{n-1}..-f_1] of length 2n: O(n log n) time, O(n) memory, equal to
    the explicit sum to rounding (not bit for bit).  T(0) = T(rho_n) = 0.
    """
    x = _odd_extension(grid.r * np.asarray(phi, dtype=float))
    x[0] = x[grid.n] = 0.0  # the end terms of the trapezoid vanish
    T = np.zeros(grid.n + 1)
    T[1:-1] = -0.5 * grid.h * np.fft.rfft(x).imag[1:-1]
    return T


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not (0.0 <= beta < 1.5):
        raise ValueError(f"beta must lie in [0, 3/2), got {beta}")
    return beta


def _frequency_norm(T: np.ndarray, grid: RadialGrid, beta: float) -> float:
    """sqrt(8 * trapezoid(rho^{2 beta} T^2)) from T = sine_transform(phi, grid),
    for a checked beta."""
    rho = np.arange(grid.n + 1) * (np.pi / grid.R)
    integrand = np.zeros_like(T)
    integrand[1:] = rho[1:] ** (2.0 * beta) * T[1:] ** 2
    if beta == 0.0:
        integrand[0] = T[0] ** 2  # rho^0 = 1; T(0) = 0 anyway
    return float(np.sqrt(8.0 * np.trapezoid(integrand, dx=np.pi / grid.R)))


def _odd_fft(phi: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """FFT of s phi(s) extended oddly onto the doubled grid (the 1D route's transform)."""
    return np.fft.fft(_odd_extension(grid.r * phi))


def _parseval_norm(X: np.ndarray, grid: RadialGrid, beta: float) -> float:
    """The 1D route's Parseval sum from X = _odd_fft(phi, grid), for a checked beta."""
    xi = 2.0 * np.pi * np.fft.fftfreq(2 * grid.n, d=grid.h)
    weight = np.empty_like(xi)
    weight[0] = 1.0 if beta == 0.0 else 0.0
    weight[1:] = np.abs(xi[1:]) ** (2.0 * beta)
    total = np.sum(weight * np.abs(X) ** 2)
    return float(np.sqrt((np.pi / grid.R) * grid.h ** 2 * total))


def sobolev_norm(phi, grid: RadialGrid, beta: float) -> float:
    """Homogeneous Sobolev norm ||phi||_{Hdot^beta(R^3)} of a radial profile.

    Frequency-side route: sqrt(8 * trapezoid(rho^{2 beta} T^2)).  beta in
    [0, 3/2); beta = 0 reproduces the L^2 norm.  See :func:`sobolev_norm_1d`
    for the cross-validation route.
    """
    beta = _check_beta(beta)
    phi = _decayed_profile(phi)
    return _frequency_norm(sine_transform(phi, grid), grid, beta)


def sobolev_norm_1d(phi, grid: RadialGrid, beta: float) -> float:
    """The same norm through the 1D reduction: s phi(s), extended oddly.

    ||phi||^2_{Hdot^beta(R^3)} = 2 pi ||s phi||^2_{Hdot^beta(R)}; the 1D norm
    is a Parseval sum over the FFT of the odd extension on the doubled grid.
    A separate code path from :func:`sobolev_norm`, kept for cross-validation;
    not an independent algorithm, since the DST-I behind
    :func:`sine_transform` is also an FFT of the odd extension.
    """
    beta = _check_beta(beta)
    phi = _decayed_profile(phi)
    return _parseval_norm(_odd_fft(phi, grid), grid, beta)


def sobolev_norms(phi, grid: RadialGrid, betas):
    """:func:`sobolev_norm` and :func:`sobolev_norm_1d` at every beta.

    Each route transforms phi once and evaluates every beta from that
    transform with the one-beta functions' arithmetic, so the values equal
    theirs bit for bit.  Returns two lists aligned with betas.
    """
    betas = [_check_beta(b) for b in betas]
    phi = _decayed_profile(phi)
    T, X = sine_transform(phi, grid), _odd_fft(phi, grid)
    return ([_frequency_norm(T, grid, b) for b in betas],
            [_parseval_norm(X, grid, b) for b in betas])


def _lm_norm(f: np.ndarray, m: float, h: float) -> float:
    """(trapezoid |f|^m ds)^{1/m}: the 1D L^m norm of f on nodes h apart."""
    return float(np.trapezoid(np.abs(f) ** m, dx=h) ** (1.0 / m))


def _node_at_least(x: float, h: float, n: int) -> int:
    j = int(np.ceil(x / h - 1e-9))
    return max(0, min(j, n))


def _g1_suffix(state: RadialState) -> np.ndarray:
    """sup over nodes alpha >= r_j of alpha^a |u(alpha)|, for every node j.

    Exact on the grid: the suffix running maximum of r^a |u|.
    """
    ra_u = state.grid.r ** state.params.a * np.abs(state.u)
    return np.maximum.accumulate(ra_u[::-1])[::-1]


def _check_radii(radii, R: float) -> list:
    """g1's radius rules on a grid of outer radius R: at least one radius,
    each in [0, R].  Returns them as floats."""
    radii = [float(x) for x in radii]
    if not radii:
        raise ValueError("need at least one radius")
    if any(not rad >= 0.0 for rad in radii):
        raise ValueError("radii must be nonnegative")
    if max(radii) > R * (1.0 + 1e-12):
        raise ValueError(f"radius {max(radii)} exceeds the grid's outer radius R = {R}")
    return radii


def _g1(obj, radii) -> np.ndarray:
    """Decay modulus g1(r) = sup over nodes alpha >= r of alpha^a |u(alpha)|
    at the radii, checked by :func:`_check_radii`.

    obj is a state or a trajectory; for a trajectory, g1 is the max over the
    stored times (a finite sample of the sup over all t).
    """
    states = obj.states if isinstance(obj, Trajectory) else (obj,)
    grid = states[0].grid
    radii = _check_radii(radii, grid.R)
    nodes = [_node_at_least(rad, grid.h, grid.n) for rad in radii]
    return np.stack([_g1_suffix(s)[nodes] for s in states]).max(axis=0)


@dataclass(frozen=True)
class TailRecord:
    """Tail norms from radius r outward: L^m and L^2 of s d_r u and of s v."""

    r: float
    lm_du: float
    lm_v: float
    l2_du: float
    l2_v: float


def _check_tail_radius(r: float, grid: RadialGrid) -> None:
    """The tail norms' radius rule: r in [0, R - 2h]."""
    if not (0.0 <= r <= grid.R - 2.0 * grid.h + 1e-12):
        raise ValueError(f"tail radius must lie in [0, R - 2h], got {r}")


def tail_norms(state: RadialState, r: float) -> TailRecord:
    """Tail quantities at radius r: (int_r^R |s f(s)|^q ds)^{1/q}.

    Four values: f = d_r u and f = v, each in L^m (m = (p-1)/2) and L^2,
    all over the 1D measure ds.  Requires r <= R - 2h; each quantity is
    non-increasing in r by construction.
    """
    return tail_table(state, [r])[0]


def tail_table(state: RadialState, radii) -> list:
    """:func:`tail_norms` at several radii (CSV-friendly).

    s d_r u and s v are computed once and sliced per radius, so a record
    does not depend on the other radii.
    """
    grid = state.grid
    for r in radii:
        _check_tail_radius(r, grid)
    m = state.params.m
    h = grid.h
    s_du = grid.r * _radial_derivative(state.u, h)
    s_v = grid.r * state.v
    records = []
    for r in radii:
        j = _node_at_least(r, h, grid.n)
        records.append(TailRecord(
            r=float(r),
            lm_du=_lm_norm(s_du[j:], m, h), lm_v=_lm_norm(s_v[j:], m, h),
            l2_du=_lm_norm(s_du[j:], 2.0, h), l2_v=_lm_norm(s_v[j:], 2.0, h),
        ))
    return records


def tails_to_csv(records) -> str:
    return _csv_text("r,lm_tail_du,lm_tail_v,l2_tail_du,l2_tail_v", map(astuple, records))


def _interval_layers(times, interval, h: float) -> list:
    """The indices of the stored times inside [t0, t1], as :func:`sp_norm`
    selects them ([] for t1 = t0); ValueError unless t0 <= t1 and, for
    t0 < t1, 8 or more lie inside it, reaching both of its ends."""
    t0, t1 = float(interval[0]), float(interval[1])
    if t1 < t0:
        raise ValueError("interval must be ordered")
    if t1 == t0:
        return []
    tol = 1e-9 * max(h, 1.0)
    inside = [k for k, t in enumerate(times) if t0 - tol <= t <= t1 + tol]
    if len(inside) < 8:
        raise ValueError(
            f"only {len(inside)} snapshots inside [{t0}, {t1}]; snapshot stride too coarse")
    if times[inside[0]] > t0 + tol or times[inside[-1]] < t1 - tol:
        raise ValueError("snapshots do not cover the interval")
    return inside


def sp_norm(traj: Trajectory, interval) -> float:
    """Space-time norm ||u||_{L^{2(p-1)} in t and x} over a snapshot interval.

    ( int_I 4 pi int |u|^{2(p-1)} r^2 dr dt )^{1/(2(p-1))}, trapezoid in both
    variables over the stored snapshots that :func:`_interval_layers`
    selects.  An interval of length zero gives 0; fewer than 8 snapshots
    inside a nondegenerate interval is an error (stride too coarse for a
    meaningful time quadrature).
    """
    inside = _interval_layers([s.t for s in traj.states], interval, traj.grid.h)
    if not inside:
        return 0.0
    snaps = [traj.states[k] for k in inside]
    q = 2.0 * (traj.params.p - 1.0)
    r, h = traj.grid.r, traj.grid.h
    times = np.array([s.t for s in snaps])
    space = np.array([_radial_integral(_nonneg_power(np.abs(s.u), q), r, h) for s in snaps])
    return float(np.trapezoid(space, x=times) ** (1.0 / q))


@dataclass(frozen=True)
class NormReport:
    """Norm summary of a state (and optionally a trajectory).

    hsp / hsp_minus1: critical norms of u and v at beta = s_p, s_p - 1;
    energy_norms: (||grad u||_{L^2}, ||v||_{L^2}, ||u||_{L^{p+1}});
    tail: radius -> (lm_du, lm_v, l2_du, l2_v); g1: radius -> value;
    sp: space-time norm (:func:`sp_norm`), None if not computed.
    """

    hsp: float
    hsp_minus1: float
    energy_norms: tuple
    tail: dict
    g1: dict
    sp: float | None

    def to_json(self) -> str:
        payload = {
            "hsp": self.hsp,
            "hsp_minus1": self.hsp_minus1,
            "energy_norms": {
                "grad_u_L2": self.energy_norms[0],
                "v_L2": self.energy_norms[1],
                "u_Lp1": self.energy_norms[2],
            },
            "tail": {repr(float(r)): list(vals) for r, vals in sorted(self.tail.items())},
            "g1": {repr(float(r)): val for r, val in sorted(self.g1.items())},
            "sp_norm": self.sp,
        }
        return json.dumps(payload, indent=2) + "\n"


def norm_report(state: RadialState, traj: Trajectory | None = None,
                tail_radii=(), g1_radii=(), *,
                hsp: float | None = None, tails=None) -> NormReport:
    """Assemble a NormReport for a state; g1 is maxed over traj's stored
    times when a trajectory is given.

    A caller that already holds ``sobolev_norm(state.u, grid, s_p)`` or the
    records ``tail_table(state, tail_radii)`` passes them as ``hsp`` and
    ``tails``, and neither is computed again.  ``sp`` is left None; a caller
    that computes :func:`sp_norm` sets it with ``dataclasses.replace``.
    """
    grid, params = state.grid, state.params
    du = _radial_derivative(state.u, grid.h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # report assembly tolerates slow tails
        if hsp is None:
            hsp = sobolev_norm(state.u, grid, params.s_p)
        hsp_m1 = sobolev_norm(state.v, grid, params.s_p - 1.0)
    p1 = params.p + 1.0
    grad2, v2, up1 = _radial_integral(
        np.stack([du * du, state.v * state.v, _nonneg_power(np.abs(state.u), p1)]),
        grid.r, grid.h)
    energy_norms = (math.sqrt(grad2), math.sqrt(v2), up1 ** (1.0 / p1))
    if tails is None:
        tails = tail_table(state, tail_radii)
    elif [rec.r for rec in tails] != [float(rr) for rr in tail_radii]:
        raise ValueError("tails do not match tail_radii")
    tail = {rec.r: (rec.lm_du, rec.lm_v, rec.l2_du, rec.l2_v) for rec in tails}
    g1 = {}
    if len(tuple(g1_radii)):
        g1_vals = _g1(traj if traj is not None else state, tuple(g1_radii))
        g1 = {float(rr): float(gv) for rr, gv in zip(g1_radii, g1_vals)}
    return NormReport(hsp=hsp, hsp_minus1=hsp_m1, energy_norms=energy_norms,
                      tail=tail, g1=g1, sp=None)
