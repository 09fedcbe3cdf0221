"""Conserved energy, localized space-time identities, the virial functional,
and support/Hardy quantities.

All integrals are radial quadratures: a 3D integral of a radial density f is
4 pi * trapezoid(f r^2 dr) on the grid, with the r^2 weight killing the
origin endpoint, and d_r u is the centered difference (one-sided at the
ends).  The localized identities use a fixed quintic smoothstep cutoff so
residual numbers are reproducible across implementations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from nlwlab.core import RadialState, Trajectory

__all__ = [
    "DiagnosticRecord",
    "diagnostic_record",
    "energy",
    "localized_identity_residuals",
    "records_to_csv",
    "residual_sweep_to_json",
    "smooth_cutoff",
    "smooth_cutoff_gradient",
    "step_log_rows",
    "support_and_hardy",
    "support_radius",
    "virial",
    "virial_rate",
]

SUPPORT_FLOOR = 1e-12
# trailing columns where the support search starts (see _support_radii)
SUPPORT_WINDOW = 64


def smooth_cutoff(r, Rc: float):
    """Radial cutoff phi(r) = q(r / Rc): 1 on [0, Rc], 0 beyond 2 Rc.

    q is the quintic smoothstep, C^2 across the junctions:
    q(x) = 1 - (10 y^3 - 15 y^4 + 6 y^5) with y = x - 1 on [1, 2].
    """
    x = np.asarray(r, dtype=float) / Rc
    y = np.clip(x - 1.0, 0.0, 1.0)
    return 1.0 - y ** 3 * (10.0 - 15.0 * y + 6.0 * y * y)


def smooth_cutoff_gradient(r, Rc: float):
    """d/dr of :func:`smooth_cutoff` (supported on Rc <= r <= 2 Rc)."""
    x = np.asarray(r, dtype=float) / Rc
    y = np.clip(x - 1.0, 0.0, 1.0)
    return -(30.0 * y * y - 60.0 * y ** 3 + 30.0 * y ** 4) / Rc


def _radial_quadrature(blocks, rt: np.ndarray, h: float, terms: np.ndarray) -> list:
    """4 pi * trapezoid(d r^2 dr) over the whole grid, one (k,) array per block d.

    Each block is a C-contiguous (k, W) stack of densities on the grid prefix
    r[:W], rt that prefix tiled over the k rows, and terms a C-contiguous
    (k, n) array (n + 1 grid nodes) that is zero from column W - 1 on.  The
    last column of every row is zero; the grid beyond it counts as zero.
    Every row is summed over its n terms either way, so a prefix gives the
    full-grid value bit for bit.  Every elementwise pass runs over whole
    contiguous blocks.  The blocks and rt are overwritten; terms keeps its
    zero tail.
    """
    for d in blocks:
        d *= rt  # (d r) r, in this order; r^2 is never formed
        d *= rt
    W = rt.shape[1]
    pairs = rt.reshape(-1)[:-1]
    values = []
    for d in blocks:
        # pair sums over the flattened block; the copy drops each row's seam
        flat = d.reshape(-1)
        np.add(flat[1:], flat[:-1], out=pairs)
        pairs *= h
        pairs *= 0.5  # x * 0.5 and x / 2 round the same real number: equal bits
        np.copyto(terms[:, :W - 1], rt[:, :W - 1])
        values.append(4.0 * np.pi * terms.sum(axis=-1))
    return values


def _radial_integral(density: np.ndarray, r: np.ndarray, h: float):
    """4 pi * trapezoid(density r^2 dr) over the whole grid r.

    density may cover only a prefix of the grid whose last node is zero; the
    grid beyond it counts as zero, with the same bits as the full grid.  A
    stack of densities (integrated along the last axis) gives a list.
    """
    d = np.array(density, dtype=float)
    W = d.shape[-1]
    d2 = d.reshape(-1, W)
    rt = np.tile(r[:W], (len(d2), 1))
    (values,) = _radial_quadrature((d2,), rt, h, np.zeros((len(d2), len(r) - 1)))
    return values.reshape(d.shape[:-1]).tolist()


class _RowBuffers:
    """Scratch for :func:`_energy_virial` on up to ``rows`` rows of a grid
    with ``n_nodes`` nodes.

    The solver allocates one set per run.  ``du``, ``e`` and ``s`` are flat;
    a call on k rows of width W uses their first k W entries as C-contiguous
    (k, W) blocks (:meth:`blocks`), and the rows of ``terms`` hold the
    quadrature's n_nodes - 1 terms, zero past the columns the rows span.
    """

    def __init__(self, rows: int, n_nodes: int):
        self.du, self.e, self.s = np.zeros((3, rows * n_nodes))
        self.terms = np.zeros((rows, n_nodes - 1))
        self._width = 0  # widest call so far: terms is zero from column _width - 1 on

    def blocks(self, k: int, W: int):
        """(du, e, s) as (k, W) blocks, and the first k rows of terms, zero
        from column W - 1 on."""
        if W < self._width:
            self.terms[:, W - 1:self._width - 1] = 0.0
        self._width = W
        du, e, s = (x[:k * W].reshape(k, W) for x in (self.du, self.e, self.s))
        return du, e, s, self.terms[:k]


def _energy_virial(u: np.ndarray, v: np.ndarray, r: np.ndarray, h: float,
                   p: float, mu: int, buffers: _RowBuffers | None = None):
    """Lists (E, z), one value per row of the field stacks u, v of shape (k, W).

    Each row is one layer on the grid prefix r[:W], +0.0 past its own last
    nonzero; the quadrature sums over the whole grid r, so a row gives the
    value of its full-grid field bit for bit.  The arithmetic of a row does
    not depend on the others, nor on the stacks' memory layout: strided
    stacks are copied to C-contiguous ones, on which every elementwise pass
    runs over the whole block.  :func:`energy`, :func:`virial` (one row) and
    the solver's per-step log (:func:`step_log_rows`, a block of rows) all
    go through here, so the logged and recomputed values agree bit for bit.
    u and v are only read.
    """
    k, W = u.shape
    if buffers is None:
        buffers = _RowBuffers(k, len(r))
    u, v = np.ascontiguousarray(u), np.ascontiguousarray(v)
    du, e, s, terms = buffers.blocks(k, W)
    # np.gradient(u, h, axis=-1), same arithmetic without its generic set-up:
    # centred differences over the flattened block, then each row's two ends
    # (where the flat difference straddles a seam) by the one-sided rule
    uf, duf = u.reshape(-1), du.reshape(-1)
    np.subtract(uf[2:], uf[:-2], out=duf[1:-1])
    duf[1:-1] /= 2.0 * h
    np.subtract(u[:, 1], u[:, 0], out=du[:, 0])
    np.subtract(u[:, -1], u[:, -2], out=du[:, -1])
    du[:, 0] /= h
    du[:, -1] /= h
    # energy density 0.5 du^2 + 0.5 v^2 + mu |u|^(p+1) / (p+1)
    np.multiply(du, 0.5, out=e)
    e *= du
    np.multiply(v, 0.5, out=s)
    s *= v
    e += s
    np.abs(u, out=s)
    np.power(s, p + 1.0, out=s)
    s /= p + 1.0
    # mu = -1 negates the term, and IEEE a + (-x) is a - x bit for bit
    (np.add if mu > 0 else np.subtract)(e, s, out=e)
    # virial density (u + r du) v, in place of du; s now holds r tiled
    rt = s
    np.copyto(rt, r[:W])
    z = du
    np.multiply(rt, du, out=z)
    z += u
    z *= v
    return [x.tolist() for x in _radial_quadrature((e, z), rt, h, terms)]


def _last_above_floor(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per row, the last column with max(|u|, |v|) > SUPPORT_FLOOR, or -1."""
    live = np.maximum(np.abs(u), np.abs(v)) > SUPPORT_FLOOR
    last = u.shape[-1] - 1 - live[:, ::-1].argmax(axis=1)
    return np.where(live[np.arange(len(last)), last], last, -1)


def _support_radii(u: np.ndarray, v: np.ndarray, r: np.ndarray) -> list:
    """Per row of the stacks u, v (k, W): the largest r_j with
    max(|u_j|, |v_j|) > SUPPORT_FLOOR, or 0 for a tiny field.

    The search looks at the last SUPPORT_WINDOW columns first, where a
    solver layer's support ends (its prefix runs past the support by the
    few nodes where a compact tail is below the floor), and at whole rows
    only for those it finds nothing there.
    """
    W = u.shape[-1]
    start = max(W - SUPPORT_WINDOW, 0)
    last = _last_above_floor(u[:, start:], v[:, start:]) + start
    rows = np.flatnonzero(last < start)
    if start and rows.size:
        last[rows] = _last_above_floor(u[rows], v[rows])
    return np.where(last >= 0, r[last], 0.0).tolist()


def step_log_rows(u: np.ndarray, v: np.ndarray, r: np.ndarray, h: float, p: float,
                  mu: int, buffers: _RowBuffers | None = None):
    """Lists (E, z, support radius), one value per row of the field stacks u, v.

    The solver's step log calls this once per block of layers (see
    :func:`_energy_virial` for the row layout); each value equals
    :func:`energy`, :func:`virial` or :func:`support_radius` of the row's
    full-grid field bit for bit.
    """
    E, z = _energy_virial(u, v, r, h, p, mu, buffers)
    return E, z, _support_radii(u, v, r)


def energy(state: RadialState) -> float:
    """Conserved energy of the flow.

    E = 4 pi * int [ (d_r u)^2 / 2 + v^2 / 2 + mu |u|^{p+1} / (p+1) ] r^2 dr.

    For the focusing sign (mu = -1) the potential term enters negatively and
    E is not coercive; conservation still holds and downstream reports label
    the value "non-coercive" so drift checks are not misread as positivity.
    """
    return _state_energy_virial(state)[0]


def virial(state: RadialState) -> float:
    """Virial functional z = 4 pi * int (u + r d_r u) v r^2 dr."""
    return _state_energy_virial(state)[1]


def _state_energy_virial(state: RadialState):
    """(E, z) of one state from one :func:`_energy_virial` row."""
    (E,), (z,) = _energy_virial(state.u[None], state.v[None], state.grid.r,
                                state.grid.h, state.params.p, state.params.mu)
    return E, z


def virial_rate(state: RadialState) -> float:
    """Closed-form dz/dt along the flow.

    z' = 4 pi * int [ -v^2/2 - (d_r u)^2/2 - mu (1 - 3/(p+1)) |u|^{p+1} ] r^2 dr,
    which is strictly negative for nonzero defocusing states with v = 0
    (note 3/(p+1) < 1 for p > 2).
    """
    r, h = state.grid.r, state.grid.h
    p, mu = state.params.p, state.params.mu
    du = np.gradient(state.u, h)
    density = -0.5 * state.v * state.v - 0.5 * du * du \
        - mu * (1.0 - 3.0 / (p + 1.0)) * np.abs(state.u) ** (p + 1.0)
    return _radial_integral(density, r, h)


def _identity_sides(state: RadialState, Rc: float):
    """Left-side functionals (Q_i, Q_ii, Q_iii) and right sides at one time."""
    r, h = state.grid.r, state.grid.h
    p, mu = state.params.p, state.params.mu
    u, v = state.u, state.v
    du = np.gradient(u, h)
    phi = smooth_cutoff(r, Rc)
    phip = smooth_cutoff_gradient(r, Rc)
    up1 = np.abs(u) ** (p + 1.0)

    I = lambda f: _radial_integral(f, r, h)
    q_i = I(phi * (0.5 * v * v + 0.5 * du * du + mu * up1 / (p + 1.0)))
    q_ii = I(phi * u * v)
    q_iii = I(phi * (r * du) * v)
    rhs_i = I(-phip * du * v)
    rhs_ii = I(phi * (v * v - du * du - mu * up1) - u * phip * du)
    # the x.grad(phi) (d_t u)^2 term carries coefficient -1/2 (consistency of
    # the finite-difference residual on smooth data is the arbiter; the
    # coefficient -1 leaves an O(1) defect)
    rhs_iii = I(-1.5 * phi * v * v - 0.5 * r * phip * v * v
                + 0.5 * phi * du * du - 0.5 * r * phip * du * du
                + mu * (3.0 / (p + 1.0)) * phi * up1
                + mu * (1.0 / (p + 1.0)) * r * phip * up1)
    return (q_i, q_ii, q_iii), (rhs_i, rhs_ii, rhs_iii)


def localized_identity_residuals(traj: Trajectory, Rc: float, t: float):
    """Finite-difference defects of the three localized identities at time t.

    For each identity, the left side is a cutoff space integral Q(t) and the
    right side a quadrature of local densities:

      i)   Q = int phi [ v^2/2 + (d_r u)^2/2 + mu |u|^{p+1}/(p+1) ]
           (localized energy; flux through the cutoff shell),
      ii)  Q = int phi u v,
      iii) Q = int phi (r d_r u) v  (the radial multiplier).

    Residual = | (Q(t+h) - Q(t-h)) / (2h) - rhs(t) |, one value per identity;
    O(h^2) on smooth solutions, zero for the zero solution.  Requires the
    three layers t-h, t, t+h among the stored snapshots and 2 Rc <= R.
    """
    if not (Rc > 0.0) or 2.0 * Rc > traj.grid.R:
        raise ValueError("cutoff must satisfy 0 < 2 Rc <= R")
    h = traj.grid.h
    before = traj.state_at(t - h)
    here = traj.state_at(t)
    after = traj.state_at(t + h)
    q_lo, _ = _identity_sides(before, Rc)
    q_hi, _ = _identity_sides(after, Rc)
    _, rhs = _identity_sides(here, Rc)
    return tuple(
        float(abs((hi - lo) / (2.0 * h) - rr))
        for hi, lo, rr in zip(q_hi, q_lo, rhs)
    )


def support_radius(u: np.ndarray, v: np.ndarray, r: np.ndarray) -> float:
    """Largest r_j with max(|u_j|, |v_j|) > SUPPORT_FLOOR, or 0 for a tiny field.

    u and v may be prefixes of the grid r.  One row of the solver's per-step
    support column, which :func:`support_and_hardy` shares.
    """
    return _support_radii(u[None], v[None], r)[0]


def support_and_hardy(state: RadialState):
    """Support radius and the Hardy-weighted mass.

    Returns (support_radius, hardy_value): the largest r_j where
    max(|u_j|, |v_j|) > 1e-12 (0 for an identically small field), and
    4 pi * int u^2 dr, the radial form of int u^2 / |x|^2.  The 1D Hardy
    inequality bounds the latter by 4 * ||d_r u||_{L^2}^2.
    """
    support = support_radius(state.u, state.v, state.grid.r)
    hardy = float(4.0 * np.pi * np.trapezoid(state.u * state.u, dx=state.grid.h))
    return support, hardy


@dataclass(frozen=True)
class DiagnosticRecord:
    """One row of the diagnostics report at a snapshot time.

    z_rate_lhs is the centered finite-difference dz/dt from neighboring
    snapshots; z_rate_rhs the closed-form rate; the three identity residuals
    are evaluated at the cutoff radius Rc the record was built with.
    """

    t: float
    energy: float
    virial: float
    z_rate_lhs: float
    z_rate_rhs: float
    res_i: float
    res_ii: float
    res_iii: float
    support_radius: float
    hardy_bound: float

    def __post_init__(self) -> None:
        for name in ("t", "energy", "virial", "z_rate_lhs", "z_rate_rhs",
                     "res_i", "res_ii", "res_iii", "support_radius", "hardy_bound"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"diagnostic field {name} is not finite")


def diagnostic_record(traj: Trajectory, t: float, Rc: float) -> DiagnosticRecord:
    """Assemble the full diagnostic row at a stored time t (t +- h also stored)."""
    h = traj.grid.h
    state = traj.state_at(t)
    z_lo = virial(traj.state_at(t - h))
    z_hi = virial(traj.state_at(t + h))
    res = localized_identity_residuals(traj, Rc, t)
    support, hardy = support_and_hardy(state)
    if support > traj.grid.R:
        raise ValueError("support radius exceeds the grid")
    E, z = _state_energy_virial(state)
    return DiagnosticRecord(
        t=float(t),
        energy=E,
        virial=z,
        z_rate_lhs=float((z_hi - z_lo) / (2.0 * h)),
        z_rate_rhs=virial_rate(state),
        res_i=res[0],
        res_ii=res[1],
        res_iii=res[2],
        support_radius=support,
        hardy_bound=hardy,
    )


def records_to_csv(records, mu: int | None = None) -> str:
    """CSV serialization; a leading comment flags the non-coercive focusing energy."""
    lines = []
    if mu is not None and mu < 0:
        lines.append("# energy: non-coercive (focusing sign)")
    lines.append("t,E,z,z_rate_lhs,z_rate_rhs,res_i,res_ii,res_iii,support_radius,hardy_bound")
    for rec in records:
        lines.append(",".join(repr(float(getattr(rec, name))) for name in (
            "t", "energy", "virial", "z_rate_lhs", "z_rate_rhs",
            "res_i", "res_ii", "res_iii", "support_radius", "hardy_bound")))
    return "\n".join(lines) + "\n"


def residual_sweep_to_json(traj: Trajectory, cutoffs, times) -> str:
    """Identity residuals over a (Rc, t) sweep, keyed by 'Rc=..,t=..'."""
    sweep = {}
    for Rc in cutoffs:
        for t in times:
            res = localized_identity_residuals(traj, Rc, t)
            sweep[f"Rc={float(Rc)!r},t={float(t)!r}"] = list(res)
    return json.dumps(sweep, indent=2) + "\n"
