"""Conserved energy, localized space-time identities, the virial functional,
and support/Hardy quantities.

Three formulas of the whole package live here.  d_r is
:func:`_radial_derivative`, the centred difference (one-sided at the ends)
with ``np.gradient``'s bits, on a row or a block of rows.  A 3D integral of
a radial density f, 4 pi * trapezoid(f r^2 dr) on the grid, is
:func:`_radial_integral` on a row or a stack, and its engine
:func:`_radial_quadrature` on the step log's blocks.  E, z, max |u| and the
support radius of a layer are :func:`step_log_rows`, which the solver calls
on every block of its run; a diagnostic record reads them from that log.
The localized identities use a fixed quintic smoothstep cutoff so residual
numbers are reproducible across implementations.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from nlwlab.core import RadialState, Trajectory, _csv_text, _lattice_steps

__all__ = [
    "DiagnosticRecord",
    "diagnostic_record",
    "hardy_mass",
    "localized_identity_residuals",
    "records_to_csv",
    "smooth_cutoff",
    "smooth_cutoff_gradient",
    "step_log_rows",
    "virial_rate",
]

SUPPORT_FLOOR = 1e-12
# trailing columns where the support search starts (see _support_radii).  A
# solver row runs past its layer's light-cone prefix by up to
# solver.PREFIX_CHUNK + solver.LOG_BLOCK + 2 columns, and its support ends a
# few nodes short of that prefix, where a compact tail is below the floor;
# the window covers both, so such a row is never searched whole
SUPPORT_WINDOW = 128


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


def _radial_derivative(u: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """d_r u along the last axis of a row or a (k, W) block, W >= 2, into the
    C-contiguous ``out`` if given: ``np.gradient(u, h, axis=-1)`` bit for bit.

    Centred differences run over the flat block (a strided one is copied
    first); then each row's two ends, where they straddle a seam, take the
    one-sided rule.
    """
    u = np.ascontiguousarray(u, dtype=float)
    du = np.empty_like(u) if out is None else out
    uf, duf = u.reshape(-1), du.reshape(-1)
    np.subtract(uf[2:], uf[:-2], out=duf[1:-1])
    duf[1:-1] /= 2.0 * h
    np.subtract(u[..., 1], u[..., 0], out=du[..., 0])
    np.subtract(u[..., -1], u[..., -2], out=du[..., -1])
    du[..., 0] /= h
    du[..., -1] /= h
    return du


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
    rt = np.empty_like(d2)
    rt[...] = r[:W]
    (values,) = _radial_quadrature((d2,), rt, h, np.zeros((len(d2), len(r) - 1)))
    return values.reshape(d.shape[:-1]).tolist()


class _RowBuffers:
    """Scratch for :func:`step_log_rows` on up to ``rows`` rows of a grid
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


def _outermost_live(u: np.ndarray, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per row of u, v (k, W) on the nodes r (W,): the largest r_j with
    max(|u_j|, |v_j|) > SUPPORT_FLOOR, or 0.0.  r increases along a row, so
    that is the max of r over the live columns."""
    live = np.maximum(np.abs(u), np.abs(v)) > SUPPORT_FLOOR
    return np.where(live, r, 0.0).max(axis=1)


def _support_radii(u: np.ndarray, v: np.ndarray, r: np.ndarray) -> list:
    """Per row of the stacks u, v (k, W): the largest r_j with
    max(|u_j|, |v_j|) > SUPPORT_FLOOR, or 0 for a tiny field.

    The search looks at the last SUPPORT_WINDOW columns first, where a
    solver layer's support ends, and at whole rows only for those it finds
    nothing there (r > 0 in such a window).
    """
    W = u.shape[-1]
    start = max(W - SUPPORT_WINDOW, 0)
    radii = _outermost_live(u[:, start:], v[:, start:], r[start:W])
    if start:
        rows = np.flatnonzero(radii == 0.0)
        if rows.size:
            radii[rows] = _outermost_live(u[rows], v[rows], r[:W])
    return radii.tolist()


def step_log_rows(u: np.ndarray, v: np.ndarray, r: np.ndarray, h: float, p: float,
                  mu: int, buffers: _RowBuffers):
    """Lists (E, z, max |u|, support radius), one value per row of the field
    stacks u, v of shape (k, W): the step log's columns after t.

    E = 4 pi * int [(d_r u)^2/2 + v^2/2 + mu |u|^(p+1)/(p+1)] r^2 dr and the
    virial functional z = 4 pi * int (u + r d_r u) v r^2 dr; max |u| comes
    from the |u| that the potential term raises to the power p + 1, and the
    support radius is that of :func:`_support_radii`.

    Each row is one layer on the grid prefix r[:W], +0.0 past its own last
    nonzero; the quadrature sums over the whole grid r, so a row gives the
    value of its full-grid field bit for bit.  The arithmetic of a row does
    not depend on the others, nor on the stacks' memory layout: strided
    stacks are copied to C-contiguous ones, on which every elementwise pass
    runs over the whole block.  The solver calls this once per block of
    layers, reads the rows' max |u| for its blowup guard, and builds its
    snapshots from the same rows; this is the one computation of these four
    values, so a one-row call on a stored layer gives its logged values bit
    for bit.  u and v are only read.
    """
    k, W = u.shape
    u, v = np.ascontiguousarray(u), np.ascontiguousarray(v)
    du, e, s, terms = buffers.blocks(k, W)
    _radial_derivative(u, h, out=du)
    # energy density 0.5 du^2 + 0.5 v^2 + mu |u|^(p+1) / (p+1)
    np.multiply(du, 0.5, out=e)
    e *= du
    np.multiply(v, 0.5, out=s)
    s *= v
    e += s
    np.abs(u, out=s)
    top = np.maximum.reduce(s, axis=1)
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
    E, z = _radial_quadrature((e, z), rt, h, terms)
    return E.tolist(), z.tolist(), top.tolist(), _support_radii(u, v, r)


def virial_rate(state: RadialState) -> float:
    """Closed-form dz/dt along the flow.

    z' = 4 pi * int [ -v^2/2 - (d_r u)^2/2 - mu (1 - 3/(p+1)) |u|^{p+1} ] r^2 dr,
    which is strictly negative for nonzero defocusing states with v = 0
    (note 3/(p+1) < 1 for p > 2).
    """
    r, h = state.grid.r, state.grid.h
    p, mu = state.params.p, state.params.mu
    du = _radial_derivative(state.u, h)
    density = -0.5 * state.v * state.v - 0.5 * du * du \
        - mu * (1.0 - 3.0 / (p + 1.0)) * np.abs(state.u) ** (p + 1.0)
    return _radial_integral(density, r, h)


def _identity_sides(state: RadialState, Rc: float):
    """Left-side functionals (Q_i, Q_ii, Q_iii) and right sides at one time."""
    r, h = state.grid.r, state.grid.h
    p, mu = state.params.p, state.params.mu
    u, v = state.u, state.v
    du = _radial_derivative(u, h)
    phi = smooth_cutoff(r, Rc)
    phip = smooth_cutoff_gradient(r, Rc)
    up1 = np.abs(u) ** (p + 1.0)

    values = _radial_integral(np.stack([
        phi * (0.5 * v * v + 0.5 * du * du + mu * up1 / (p + 1.0)),
        phi * u * v,
        phi * (r * du) * v,
        -phip * du * v,
        phi * (v * v - du * du - mu * up1) - u * phip * du,
        # the x.grad(phi) (d_t u)^2 term carries coefficient -1/2 (consistency
        # of the finite-difference residual on smooth data is the arbiter;
        # the coefficient -1 leaves an O(1) defect)
        -1.5 * phi * v * v - 0.5 * r * phip * v * v
        + 0.5 * phi * du * du - 0.5 * r * phip * du * du
        + mu * (3.0 / (p + 1.0)) * phi * up1
        + mu * (1.0 / (p + 1.0)) * r * phip * up1,
    ]), r, h)
    return tuple(values[:3]), tuple(values[3:])


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


def hardy_mass(state: RadialState) -> float:
    """The Hardy-weighted mass 4 pi * int u^2 dr, the radial form of
    int u^2 / |x|^2.  The 1D Hardy inequality bounds it by
    4 * ||d_r u||_{L^2}^2."""
    return float(4.0 * np.pi * np.trapezoid(state.u * state.u, dx=state.grid.h))


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
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"diagnostic field {f.name} is not finite")


def diagnostic_record(traj: Trajectory, t: float, residuals) -> DiagnosticRecord:
    """The diagnostic row at a stored time t of a run with a step log, t +- h
    inside the run: E, z, the centred dz/dt and the support radius from the
    log's rows, the closed-form rate and the Hardy mass from the state at t,
    and the three identity residuals given."""
    h, log = traj.grid.h, traj.log
    state = traj.state_at(t)
    k = _lattice_steps(t - log.t[0], h)
    if not 0 < k < len(log.t) - 1:
        raise KeyError(f"t = {t} needs t - h and t + h inside the run")
    return DiagnosticRecord(
        t=float(t),
        energy=float(log.energy[k]),
        virial=float(log.virial[k]),
        z_rate_lhs=float((log.virial[k + 1] - log.virial[k - 1]) / (2.0 * h)),
        z_rate_rhs=virial_rate(state),
        res_i=residuals[0],
        res_ii=residuals[1],
        res_iii=residuals[2],
        support_radius=float(log.support_radius[k]),
        hardy_bound=hardy_mass(state),
    )


def records_to_csv(records, mu: int | None = None) -> str:
    """CSV serialization; a leading comment flags the non-coercive focusing energy."""
    return _csv_text(
        "t,E,z,z_rate_lhs,z_rate_rhs,res_i,res_ii,res_iii,support_radius,hardy_bound",
        map(astuple, records),
        "energy: non-coercive (focusing sign)" if mu is not None and mu < 0 else None)
