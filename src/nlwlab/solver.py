"""Characteristic-aligned finite differences for the reduced field w = r * u.

The radial equation for u is equivalent, away from r = 0, to the 1D wave
equation with a weighted source for w = r * u:

    d_t^2 w - d_r^2 w = F(w),    F(w) = -mu |w|^{p-1} w / r^{p-1},

with the origin pinned at w(0, t) = 0 by radial symmetry.  The scheme is the
leapfrog update at unit CFL (time step equal to the grid spacing h),

    w_j^{n+1} = w_{j+1}^n + w_{j-1}^n - w_j^{n-1} + h^2 F_j^n,

which transports the linear part exactly along grid characteristics; all
discretization error enters through the source quadrature.  Ghost values
beyond the outer radius R are zero, valid while the light cone of the data
has not reached R (a configurable floor on the outermost nodes guards this).

Accuracy is established against smooth reference solutions (static ground
state, space-independent blowup, explicit linear solutions); genuinely rough
data is outside the validated envelope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from nlwlab.core import (
    EquationParams,
    RadialGrid,
    RadialState,
    StepLog,
    Trajectory,
    _lattice_steps,
    _live_length,
    even_origin_value,
)
from nlwlab import diagnostics

__all__ = [
    "BlowupDetected",
    "ConeViolation",
    "SolverConfig",
    "SolverError",
    "characteristic_transport_residual",
    "evolve",
    "step_count",
]

# layers per call of the row-wise energy/virial/support log in evolve
LOG_BLOCK = 8
# evolve steps the light-cone prefix rounded up to whole chunks of this many nodes
PREFIX_CHUNK = 64


class SolverError(RuntimeError):
    """Run aborted; ``t`` is the time of the offending layer and
    ``trajectory`` the run before it, None unless :func:`evolve` raised."""

    def __init__(self, message: str, t: float, trajectory: Trajectory | None = None):
        super().__init__(message)
        self.t, self.trajectory = t, trajectory


class ConeViolation(SolverError):
    """Nontrivial field reached the outermost nodes: zero ghosts are no longer valid."""


class BlowupDetected(SolverError):
    """The field exceeded the overflow threshold (or left the representable range)."""


@dataclass(frozen=True)
class SolverConfig:
    """Evolution run settings.

    Parameters
    ----------
    grid, params : discretization and equation data.
    t_final : float
        Final time; the run covers the lattice times from the initial state's
        time up to t_final in steps of h (unit CFL), so the span must be a
        multiple of h.
    snapshot_stride : int
        Keep every stride-th layer as a full state (layer 0 and the final
        layer are always kept).
    origin_band : int
        Number of nodes near r = 0 where the source is evaluated through
        u = w / r instead of dividing |w|^{p-1} w by r^{p-1}.  At least 2.
    linear : bool
        Drop the nonlinearity (evolve the free wave equation).
    cone_floor : float or None
        Abort with :class:`ConeViolation` when max |u| over the outermost two
        nodes exceeds this; None disables the guard (needed for data that is
        not compactly supported, where the zero-ghost truncation is already
        an outer-boundary approximation).
    blowup_threshold : float
        Abort with :class:`BlowupDetected` when max |u| exceeds this or stops
        being finite.
    """

    grid: RadialGrid
    params: EquationParams
    t_final: float
    snapshot_stride: int = 1
    origin_band: int = 2
    linear: bool = False
    cone_floor: float | None = 1e-13
    blowup_threshold: float = 1e12

    def __post_init__(self) -> None:
        if not np.isfinite(self.t_final):
            raise ValueError("t_final must be finite")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.origin_band < 2:
            raise ValueError("origin_band must be >= 2")
        if self.cone_floor is not None and not self.cone_floor > 0.0:
            raise ValueError("cone_floor must be positive (or None to disable)")
        if not self.blowup_threshold > 0.0:
            raise ValueError("blowup_threshold must be positive")


def _characteristics(state: RadialState) -> tuple[np.ndarray, np.ndarray]:
    """Characteristic fields of a state: z1 = d_r w + r v, z2 = d_r w - r v.

    d_r w is :func:`diagnostics._radial_derivative`, the centered difference
    (one-sided at the ends); d_t w = r v holds pointwise since w = r u.
    """
    dw = diagnostics._radial_derivative(state.w, state.grid.h)
    rv = state.grid.r * state.v
    return dw + rv, dw - rv


class _Views:
    """Views of one node buffer that the kernel reads and writes on the prefix
    [0, mk): the origin band [1, b), the tail [b, mk), the interior [1, mk),
    and the shifted neighbours [2, hi + 1), [0, hi - 1) of the nodes [1, hi),
    hi = min(mk, n).  A step reads about twenty of them, a noticeable cost
    next to its ufunc calls on a short prefix, so :func:`evolve` builds them
    only when its prefix grows.
    """

    __slots__ = ("band", "tail", "live", "right", "left", "inner", "prefix", "whole")

    def __init__(self, x: np.ndarray, mk: int, origin_band: int):
        n = len(x) - 1
        b, hi = min(origin_band, n, mk), min(mk, n)
        self.band, self.tail, self.live = x[1:b], x[b:mk], x[1:mk]
        self.right, self.left, self.inner = x[2:hi + 1], x[:hi - 1], x[1:hi]
        self.prefix, self.whole = x[:mk], x


def _prefix_views(buffers, mk: int, origin_band: int) -> list:
    """:class:`_Views` of each buffer on the prefix [0, mk)."""
    return [_Views(x, mk, origin_band) for x in buffers]


def _row_views(buffers, rows: int, width: int) -> list:
    """Per flat buffer: its head as a C-contiguous (rows, width) block, the
    block's rows and the rows' nodes [1, width)."""
    blocks = [x[:rows * width].reshape(rows, width) for x in buffers]
    return [(b, list(b), list(b[:, 1:])) for b in blocks]


def _source_term(w: _Views, u: np.ndarray, r: np.ndarray, rp: _Views, out: _Views,
                 p: float, h: float, linear: bool) -> None:
    """h^2 |w|^{p-1} w / r^{p-1} on nodes [1, mk): the update term h^2 F without
    its factor -mu, which :func:`_source_op` applies where the term is used.

    rp holds r^{p-1}.  Inside the origin band [1, b) the term is evaluated in
    the u-form r |u|^{p-1} u from the node values u and r, which avoids 0/0.
    The band's |u| and products are taken in Python floats, around the one
    np.power over [1, mk): the same IEEE operations as numpy's, so the same
    bits, without three ufunc calls on a node or two.  Node 0 is not
    computed, and the linear term is left as ``out`` holds it (+0.0
    throughout).
    """
    if linear:
        return
    x = out.whole
    band = range(1, len(out.band) + 1)
    for j in band:
        x[j] = abs(u.item(j))
    np.abs(w.tail, out=out.tail)
    np.power(out.live, p - 1.0, out=out.live)
    for j in band:
        x[j] = r.item(j) * x.item(j) * u.item(j)
    np.multiply(out.tail, w.tail, out=out.tail)
    np.divide(out.tail, rp.tail, out=out.tail)
    np.multiply(out.live, h * h, out=out.live)


def _source_op(mu: int, linear: bool):
    """The ufunc that adds h^2 F = -mu * :func:`_source_term` to a layer.

    For mu = +1 it subtracts the term: IEEE a + (-x) is a - x bit for bit,
    signed zeros included.  The linear term is +0.0 and is added.
    """
    return np.subtract if mu > 0 and not linear else np.add


def _advance(w_prev: _Views, w_cur: _Views, src: _Views, op, out: _Views) -> None:
    """Leapfrog layer w_{j+1} + w_{j-1} - w_prev + h^2 F on nodes [0, mk).

    src is :func:`_source_term`'s output and op the matching :func:`_source_op`.
    """
    nxt, x = out.inner, out.whole
    np.add(w_cur.right, w_cur.left, out=nxt)
    np.subtract(nxt, w_prev.inner, out=nxt)
    op(nxt, src.inner, out=nxt)
    x[0] = 0.0
    if len(out.prefix) == len(x):  # zero ghost beyond R, in Python floats
        n = len(x) - 1
        d, s = w_cur.whole.item(n - 1) - w_prev.whole.item(n), src.whole.item(n)
        x[n] = d - s if op is np.subtract else d + s


def _u_from_w(w: np.ndarray, r: np.ndarray, out: np.ndarray, live: np.ndarray) -> None:
    """u = w / r into ``live``, the nodes [1, len(out)) of ``out``, from w and r
    on the same nodes; out[0] is the even extrapolation."""
    np.divide(w, r, out=live)
    # Python floats take the same IEEE operations as numpy scalars, faster
    out[0] = even_origin_value(out.item(1), out.item(2))


def _v_from_layers(w_hi: np.ndarray, w_lo: np.ndarray, two_h_r: np.ndarray,
                   out: np.ndarray, live: np.ndarray) -> None:
    """Centered time derivative v = (w^{n+1} - w^{n-1}) / (2 h r), written as
    :func:`_u_from_w` writes u."""
    np.subtract(w_hi, w_lo, out=live)
    np.divide(live, two_h_r, out=live)
    out[0] = even_origin_value(out.item(1), out.item(2))


def _active_length(*layers: np.ndarray) -> int:
    """Live prefix of the layers (:func:`nlwlab.core._live_length`), at least 3 nodes.

    The origin extrapolation reads nodes 1 and 2, hence the clamp.  The
    stencil maps a +0.0 neighbourhood to +0.0, so one step can only extend
    the prefix by the one node the light cone adds.
    """
    return min(len(layers[0]), max(_live_length(*layers), 3))


class _ErrorLog:
    """numpy's error callback in its "log" mode: keeps each floating-point
    error of the kernel that the caller's numpy settings (``np.geterr()``)
    do not ignore, as the message numpy warns with and the step it came
    from, until :meth:`warn` gives those of the steps that a check after
    every step would have reached."""

    KINDS = {"overflow": "over", "invalid": "invalid", "divide": "divide"}

    def __init__(self, settings: dict):
        self.settings, self.step, self.lines = settings, 0, []

    def write(self, line: str) -> None:  # "Warning: <kind> ... encountered in <ufunc>\n"
        message = line.removeprefix("Warning: ").rstrip()
        if self.settings[self.KINDS[message.split()[0]]] != "ignore":
            self.lines.append((self.step, message))

    def warn(self, through: int) -> None:
        for step, message in self.lines:
            if step <= through:
                warnings.warn(message, RuntimeWarning, stacklevel=2)
        self.lines.clear()


def step_count(t0: float, t_final: float, h: float) -> int:
    """Number of steps of size h from t0 to t_final.

    Raises ValueError unless t_final is t0 plus a whole, nonnegative number
    of steps (:func:`nlwlab.core._lattice_steps`).
    """
    span = t_final - t0
    if not np.isfinite(span):
        raise ValueError("t_final must be finite")
    n_steps = _lattice_steps(span, h)
    if n_steps is None or n_steps < 0:
        raise ValueError("t_final must be the initial time plus a whole number of steps")
    return n_steps


def evolve(config: SolverConfig, initial: RadialState,
           initial_prev: RadialState | None = None, *, step_log: bool = True) -> Trajectory:
    """Run the scheme from an initial state up to config.t_final.

    Parameters
    ----------
    config : SolverConfig
    initial : RadialState
        Data (u, v) at the starting time.
    initial_prev : RadialState, optional
        Field one step before the starting time.  When omitted, the back
        layer is synthesized by a second-order Taylor expansion
        w^{-1} = w - h r v + (h^2/2)(d_r^2 w + F), which reproduces v exactly
        in the stored initial layer (a run of no steps makes none).  The
        stencil is time-symmetric: a run's last two layers swapped, the last
        one as initial_prev, both with v negated, step backward.
    step_log : bool
        Compute the per-step scalar log.  Without it a flush forms only what
        the guards read, each row's max |u| (the log's own bits) and outer
        two nodes; snapshots, guards and kernel warnings are the same.

    Returns
    -------
    Trajectory
        Snapshots every ``snapshot_stride`` layers (the initial and final
        layers always included) and the per-step scalar log, None when
        ``step_log`` is False.  Snapshot v
        fields are centered time differences at every layer (the final one
        fed by an unstored auxiliary step), the given (u, v) verbatim at
        layer 0.

    Raises
    ------
    ConeViolation
        Nontrivial field at the outermost two nodes (see SolverConfig.cone_floor).
    BlowupDetected
        max |u| exceeded config.blowup_threshold or became non-finite.
    SolverError
        A stored layer's v is not finite: "v contains non-finite entries
        at t = ...", at the layer's time.

    Notes
    -----
    The run goes block by block, a block being LOG_BLOCK consecutive layers.
    Their u and v live only in the rows of one (rows, P) block, C-contiguous,
    from which :func:`diagnostics.step_log_rows` computes E, z, max |u| and
    the support radius of every row at once.  The kernel writes u^k and v^k
    straight into layer k's row; a block is flushed before the next one's
    first u is written, so one block buffer serves the whole run.  A stored
    layer is its row written once into fresh full-grid arrays, wrapped
    read-only without a second copy; only its v is checked finite, as its
    u is once its guards pass.

    P is the block's prefix, fixed when it starts: the nodes up to the last
    one where either starting layer is nonzero (exactly), one more per step
    up to the block's last layer, and two +0.0 columns past that, rounded up
    to whole chunks of PREFIX_CHUNK nodes and capped at the grid.  The
    kernel steps every layer of the block on [0, P), and the rows span the
    same nodes; all their views are rebuilt only when P grows, once per
    chunk.  Beyond the light cone the stencil yields exact zeros, so the
    result is the same bit for bit as stepping the whole grid.
    :func:`diagnostics.step_log_rows` is the package's one computation of
    these four values: diagnostic records read them from this log, and a
    one-row call on a stored snapshot gives its logged values bit for bit.

    The guards run when a block is flushed, layer by layer in order, on the
    max |u| the log forms, so the first failing layer raises with the time
    and message of a check after every step; a stored layer whose v is not
    finite raises a plain SolverError in its turn, after the next layer's
    guards.  The at most LOG_BLOCK - 1 layers stepped past a failure are
    discarded, so the kernel's overflow, invalid and divide-by-zero errors,
    those of the back layer as step 0's, are logged, not warned of: a
    finished run, or one that a stored layer's v ends, then gives them as
    RuntimeWarnings up to that layer, unless numpy's settings ignore them;
    a run that a guard ends drops them.  A block whose E or z is not finite
    is logged once more, after the guards of its layers and of the next
    one, with numpy's settings, for the log's own warnings.  A run without
    the log gives none of the log's own warnings.  The error of a guard or
    of a stored layer j keeps the run before that layer as ``trajectory``:
    the states stored so far and the log's rows [0, j), which a block
    writes before its guards run.
    """
    grid, params = config.grid, config.params
    if initial.grid != grid:
        raise ValueError("initial state grid does not match the configuration")
    if initial.params != params:
        raise ValueError("initial state parameters do not match the configuration")
    h, r, n = grid.h, grid.r, grid.n
    t0 = initial.t
    n_steps = step_count(t0, config.t_final, h)

    p, mu = params.p, params.mu
    band, linear, stride = config.origin_band, config.linear, config.snapshot_stride
    op = _source_op(mu, linear)
    w_cur = initial.w.copy()
    # the w buffers are +0.0 beyond the prefix, as the full-grid stencil would
    # leave them; the views start on the full grid for the back layer.  They
    # are w at layers k - 1, k and k + 1, the source term, r^{p-1}, r and 2 h r
    w_prev = np.zeros(n + 1)
    wp, wc, wn, sv, rpv, rv, tv = _prefix_views(
        [w_prev, w_cur, np.zeros(n + 1), np.zeros(n + 1), r ** (p - 1.0), r, 2.0 * h * r],
        n + 1, band)
    if initial_prev is not None:
        if initial_prev.grid != grid or initial_prev.params != params:
            raise ValueError("initial_prev does not match the configuration")
        if _lattice_steps(t0 - initial_prev.t, h) != 1:
            raise ValueError("initial_prev must sit one step before the initial state")
        w_prev[:] = initial_prev.w

    # one comparison catches NaN, +inf and the threshold; the cap keeps +inf
    # caught when the threshold is inf
    limit = float(min(config.blowup_threshold, np.finfo(float).max))
    floor = config.cone_floor
    settings = np.geterr()  # numpy's floating-point error settings of the caller
    errors = _ErrorLog(settings)

    def check(j: int, mx: float, u: np.ndarray) -> None:
        # the guards of layer j, whose row u holds its prefix at least
        t = t0 + j * h if j else t0
        if not mx <= limit:
            raise BlowupDetected(f"field magnitude {mx!r} at t = {t!r}", t, trajectory(j))
        # the outer two nodes hold +0.0 until the prefix reaches node n - 1
        if floor is not None and len(u) >= n and max(map(abs, u[n - 1:].tolist())) > floor:
            raise ConeViolation(
                f"field reached the outer boundary at t = {t!r}; "
                "enlarge the grid or disable the cone guard", t, trajectory(j))

    rows = min(LOG_BLOCK, n_steps + 1)
    if step_log:
        # the log's rows: t, E, z, max |u| and the support radius of every layer
        log = np.empty((5, n_steps + 1))
        log[0] = t0 + np.arange(n_steps + 1) * h
        log[0, 0] = t0
        buffers = diagnostics._RowBuffers(rows, n + 1)
    # the block's u and v are C-contiguous (rows, P) views of these
    flat_u, flat_v = np.zeros(rows * (n + 1)), np.zeros(rows * (n + 1))
    states = [initial]

    def trajectory(j: int) -> Trajectory:
        # the states stored so far and the log's rows [0, j)
        return Trajectory(grid=grid, params=params, states=tuple(states),
                          log=StepLog(*log[:, :j]) if step_log else None, linear=linear)

    def fail(j: int) -> None:
        # stored layer j's v is not finite: the full-grid loop stopped there
        errors.warn(j)
        t = t0 + j * h
        raise SolverError(f"v contains non-finite entries at t = {t!r}", t, trajectory(j))

    def flush(count: int, w_next: np.ndarray | None) -> None:
        # the block's first count rows, complete: the log, then the guards
        # and the snapshots layer by layer, as the full-grid loop takes them.
        # w_next is w of the next layer, which that loop checked before it
        # logged and stored these (None past the last layer)
        us, vs = U[:count], V[:count]
        mark = len(errors.lines)
        if step_log:
            E, z, top, support = diagnostics.step_log_rows(us, vs, r, h, p, mu, buffers)
            del errors.lines[mark:]  # the log's own warnings come below
            log[1:, first:first + count] = E, z, top, support
        else:  # the log's max |u|, bit for bit
            top = np.maximum.reduce(np.abs(us), axis=1).tolist()
        # no guard can fail below the limit and short of the outer nodes
        guarded = floor is not None and P >= n or not all(map(limit.__ge__, top))
        failed = None
        for i in range(count):
            j = first + i
            if guarded:
                check(j, top[i], u_rows[i])
            if failed:  # raised in its turn
                fail(failed)
            if j and (j % stride == 0 or j == n_steps):
                if not np.isfinite(v_rows[i]).all():  # u is, past the guards
                    failed = j
                    continue
                u, v = np.zeros(n + 1), np.zeros(n + 1)  # only the state holds them
                u[:P], v[:P] = u_rows[i], v_rows[i]
                states.append(RadialState._wrap(grid, params, t0 + j * h, u, v))
        if failed or step_log and not math.isfinite(sum(E) + sum(z)):
            if w_next is not None:
                u = np.zeros(n + 1)
                _u_from_w(w_next[1:], r[1:], u, u[1:])
                del errors.lines[mark:]  # the next step logs them
                check(first + count, float(np.maximum.reduce(np.abs(u))), u)
            if step_log:
                with np.errstate(**settings):  # the log's own warnings, once more
                    diagnostics.step_log_rows(us, vs, r, h, p, mu, buffers)
            if failed:
                fail(failed)

    with np.errstate(over="log", invalid="log", divide="log", call=errors):
        if initial_prev is None and n_steps:  # the back layer, as step 0
            # the term stays in src on the live nodes of w_cur and initial.u,
            # all inside the first step's prefix, which overwrites it
            _source_term(wc, initial.u, r, rpv, sv, p, h, linear)
            d2 = np.zeros_like(w_cur)
            d2[1:-1] = w_cur[2:] - 2.0 * w_cur[1:-1] + w_cur[:-2]
            d2[-1] = w_cur[-2] - 2.0 * w_cur[-1]  # zero ghost
            w_prev[:] = w_cur - h * (r * initial.v) + 0.5 * op(d2, sv.whole)
            w_prev[0] = 0.0
        # initial.u counts: it is layer 0's row, which the first source term
        # reads.  Layer k is live on at most m + k + 1 nodes (layer 0 on its
        # own live length), and its row reaches two +0.0 columns past that.
        # Past them every buffer holds +0.0, which every operation of the
        # stencil maps to +0.0, so the nodes that the chunks add change no bit
        m = _active_length(w_cur, w_prev, initial.u)
        live0 = _live_length(initial.u, initial.v)
        P = 0
        for first in range(0, n_steps + 1, rows):
            count = min(rows, n_steps + 1 - first)
            need = max(m + first + rows + 2, 0 if first else live0 + 2)
            need = min(-(-need // PREFIX_CHUNK) * PREFIX_CHUNK, n + 1)
            if need > P:
                P = need
                wp, wc, wn, sv, rpv, rv, tv = _prefix_views(
                    [x.whole for x in (wp, wc, wn, sv, rpv, rv, tv)], P, band)
                (U, u_rows, u_lives), (V, v_rows, v_lives) = _row_views(
                    [flat_u, flat_v], rows, P)
            if not first:
                u_rows[0][:], v_rows[0][:] = initial.u[:P], initial.v[:P]
            # the last pass (when there is a step at all) is one auxiliary
            # interior step past t_final that feeds the same centered stencil
            # as every other layer; the extra layer is neither stored, logged,
            # nor run through the guards (a one-sided endpoint stencil would
            # amplify grid-scale wavefront oscillation several-fold)
            for k in range(first, first + count if n_steps else 0):
                i = k - first
                if k:  # u^k, which step k - 1 made
                    _u_from_w(wc.live, rv.live, u_rows[i], u_lives[i])
                errors.step = k
                _source_term(wc, u_rows[i], r, rpv, sv, p, h, linear)
                _advance(wp, wc, sv, op, wn)
                if k:
                    # layer k gets its centered v now that layer k+1 exists
                    _v_from_layers(wn.live, wp.live, tv.live, v_rows[i], v_lives[i])
                wp, wc, wn = wc, wn, wp
            flush(count, wc.whole if first + count <= n_steps else None)
    errors.warn(n_steps)
    return trajectory(n_steps + 1)


def _source_of_state(s: RadialState, linear: bool) -> np.ndarray:
    """Pointwise source F = -mu r |u|^{p-1} u reconstructed from a snapshot: the
    u-form of F, whose w-form with the h^2 factor is :func:`_source_term`."""
    if linear:
        return np.zeros_like(s.u)
    p, mu = s.params.p, s.params.mu
    return -mu * s.grid.r * np.abs(s.u) ** (p - 1.0) * s.u


def characteristic_transport_residual(traj: Trajectory, r0: float, t0: float,
                                      tau_max: float) -> float:
    """Defect of the transport law for the characteristic fields.

    Along leftward characteristics z1 obeys
    d_tau z1(r0 + tau, t0 - tau) = -F = mu (r0 + tau) |u|^{p-1} u, with F
    from :func:`_source_of_state`, and z2 obeys the same law along
    (r0 + tau, t0 + tau); both are checked by forward
    differences against the trapezoid average of the right side, for tau up
    to tau_max.  Returns the larger of the two max defects.  The scheme
    satisfies this balance exactly on interior stencils, so the defect is
    rounding-level there; the contract only promises O(h).
    """
    h = traj.grid.h
    j0 = _lattice_steps(r0, h, "r0")
    S = _lattice_steps(tau_max, h, "tau_max")
    if S < 1:
        raise ValueError("tau_max must be at least one step")
    if j0 + S > traj.grid.n:
        raise ValueError("characteristic segment leaves the grid")
    n0 = _lattice_steps(t0 - traj.states[0].t, h, "t0")

    worst = 0.0
    for sign, pick in ((-1, 0), (+1, 1)):  # z1 leftward, z2 rightward
        vals = np.empty(S + 1)
        rhs = np.empty(S + 1)
        for s in range(S + 1):
            st = traj.state_at(traj.states[0].t + (n0 + sign * s) * h)
            vals[s] = _characteristics(st)[pick][j0 + s]
            rhs[s] = -_source_of_state(st, traj.linear)[j0 + s]
        fd = (vals[1:] - vals[:-1]) / h
        mid = 0.5 * (rhs[1:] + rhs[:-1])
        worst = max(worst, float(np.max(np.abs(fd - mid))))
    return worst
