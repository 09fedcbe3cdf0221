import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwlab import (EquationParams, RadialGrid, RadialState, StepLog, Trajectory,
                    diagnostics, make_params, scale_state, solver)
from nlwlab.cli import (build_initial, ode_flat_blowup_time, parse_config,
                        profile_gaussian, profile_ode_flat)
from nlwlab.core import _live_length, even_origin_value
from nlwlab.solver import (
    LOG_BLOCK,
    BlowupDetected,
    ConeViolation,
    SolverConfig,
    SolverError,
    _characteristics,
    characteristic_transport_residual,
    evolve,
)
from conftest import bump

ROOT = Path(__file__).resolve().parents[1]


def _hat_w(n, center=24, half=16):
    j = np.arange(n + 1, dtype=float)
    return np.maximum(0.0, 1.0 - np.abs(j - center) / half)


def _state_from_w(grid, params, w, t=0.0, v=None):
    u = np.zeros(grid.n + 1)
    u[1:] = w[1:] / grid.r[1:]
    return RadialState(grid=grid, params=params, t=t, u=u,
                       v=np.zeros(grid.n + 1) if v is None else v)


def _gauss_run(h, t_final=2.0, p=7.0, mu=1, R=4.5, stride=1):
    params = make_params(p, mu)
    n = int(round(R / h))
    grid = RadialGrid(h=h, n=n)
    u0 = np.exp(-2.0 * grid.r ** 2)
    s0 = RadialState(grid=grid, params=params, t=0.0, u=u0, v=np.zeros(n + 1))
    cfg = SolverConfig(grid=grid, params=params, t_final=t_final,
                       snapshot_stride=stride, cone_floor=None)
    return evolve(cfg, s0)


# --- reference: the full-grid loop -------------------------------------------------
#
# The per-step loop evolve used before it was confined to the light-cone
# prefix, kept verbatim with its kernel: it allocates every layer, steps the
# whole grid, builds a RadialState per layer and logs one layer at a time
# through a frozen copy of the energy/virial helper.  evolve must reproduce it
# bit for bit.

_SEED_SUPPORT_FLOOR = 1e-12


def _seed_source(u: np.ndarray, r: np.ndarray, params: EquationParams,
                 linear: bool) -> np.ndarray:
    """Discrete source F = -mu r |u|^{p-1} u, the u-form of -mu |w|^{p-1} w / r^{p-1}."""
    F = np.zeros_like(u)
    if linear:
        return F
    p, mu = params.p, params.mu
    F[1:] = -mu * r[1:] * np.abs(u[1:]) ** (p - 1.0) * u[1:]
    return F


def _seed_advance(w_prev: np.ndarray, w_cur: np.ndarray, F: np.ndarray, h: float) -> np.ndarray:
    w_nxt = np.empty_like(w_cur)
    w_nxt[1:-1] = w_cur[2:] + w_cur[:-2] - w_prev[1:-1] + h * h * F[1:-1]
    w_nxt[0] = 0.0
    w_nxt[-1] = w_cur[-2] - w_prev[-1] + h * h * F[-1]  # zero ghost beyond R
    return w_nxt


def _seed_u_from_w(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    u = np.empty_like(w)
    u[1:] = w[1:] / r[1:]
    u[0] = even_origin_value(u[1], u[2])
    return u


def _seed_v_from_layers(w_hi: np.ndarray, w_lo: np.ndarray, r: np.ndarray, h: float) -> np.ndarray:
    """Centered time derivative v = (w^{n+1} - w^{n-1}) / (2 h r)."""
    v = np.empty_like(w_hi)
    v[1:] = (w_hi[1:] - w_lo[1:]) / (2.0 * h * r[1:])
    v[0] = even_origin_value(v[1], v[2])
    return v


def _seed_support_radius(u: np.ndarray, v: np.ndarray, r: np.ndarray) -> float:
    mask = np.maximum(np.abs(u), np.abs(v)) > _SEED_SUPPORT_FLOOR
    idx = np.nonzero(mask)[0]
    return float(r[idx[-1]]) if idx.size else 0.0


def _seed_energy_virial(state: RadialState):
    """(E, z) of one layer, formed on its nonzero extent and summed over the grid."""
    u, v, r, h = state.u, state.v, state.grid.r, state.grid.h
    p, mu = state.params.p, state.params.mu
    nz = np.flatnonzero((u != 0.0) | (v != 0.0))
    m = min(len(u), max(int(nz[-1]) + 3 if nz.size else 0, 3))
    u, v = u[:m], v[:m]
    du = np.empty(m)
    np.subtract(u[2:], u[:-2], out=du[1:-1])
    du[1:-1] /= 2.0 * h
    du[0], du[-1] = (u[1] - u[0]) / h, (u[-1] - u[-2]) / h
    densities = np.empty((2, m))
    densities[0] = 0.5 * du * du + 0.5 * v * v + mu * np.abs(u) ** (p + 1.0) / (p + 1.0)
    densities[1] = (u + r[:m] * du) * v
    y = densities * r[:m] * r[:m]
    terms = np.zeros((2, len(r) - 1))
    head = terms[:, :m - 1]
    np.add(y[:, 1:], y[:, :-1], out=head)
    head *= h
    head /= 2.0
    E, z = (4.0 * np.pi * terms.sum(axis=-1)).tolist()
    return E, z


def _seed_log_row(state: RadialState):
    return (state.t, *_seed_energy_virial(state), float(np.max(np.abs(state.u))),
            _seed_support_radius(state.u, state.v, state.grid.r))


def _seed_evolve(config, initial, initial_prev=None):
    grid, params = config.grid, config.params
    if initial.grid != grid:
        raise ValueError("initial state grid does not match the configuration")
    if initial.params != params:
        raise ValueError("initial state parameters do not match the configuration")
    h, r = grid.h, grid.r
    t0 = initial.t
    span = config.t_final - t0
    n_steps = int(round(span / h))
    if n_steps < 0 or abs(span - n_steps * h) > 1e-9 * max(h, abs(span)):
        raise ValueError("t_final must be the initial time plus a whole number of steps")

    w_cur = initial.w.copy()
    u_cur = initial.u.copy()
    if initial_prev is not None:
        if initial_prev.grid != grid or initial_prev.params != params:
            raise ValueError("initial_prev does not match the configuration")
        if abs((t0 - initial_prev.t) - h) > 1e-9 * h:
            raise ValueError("initial_prev must sit one step before the initial state")
        w_prev = initial_prev.w.copy()
    else:
        F0 = _seed_source(u_cur, r, params, config.linear)
        d2 = np.zeros_like(w_cur)
        d2[1:-1] = w_cur[2:] - 2.0 * w_cur[1:-1] + w_cur[:-2]
        d2[-1] = w_cur[-2] - 2.0 * w_cur[-1]  # zero ghost
        w_prev = w_cur - h * (r * initial.v) + 0.5 * (d2 + h * h * F0)
        w_prev[0] = 0.0

    def check_layer(u: np.ndarray, t: float) -> None:
        mx = np.max(np.abs(u))
        if not np.isfinite(mx) or mx > config.blowup_threshold:
            raise BlowupDetected(f"field magnitude {float(mx)!r} at t = {t!r}", t)
        if config.cone_floor is not None and np.max(np.abs(u[-2:])) > config.cone_floor:
            raise ConeViolation(
                f"field reached the outer boundary at t = {t!r}; "
                "enlarge the grid or disable the cone guard", t)

    def state(t: float, u: np.ndarray, v: np.ndarray) -> RadialState:
        # a layer whose v is not finite ends the run
        try:
            return RadialState(grid=grid, params=params, t=t, u=u, v=v)
        except ValueError as e:
            raise SolverError(f"{e} at t = {t!r}", t) from None

    check_layer(u_cur, t0)

    states = [initial]
    log_rows = [_seed_log_row(initial)]

    for k in range(n_steps):
        F = _seed_source(u_cur, r, params, config.linear)
        w_nxt = _seed_advance(w_prev, w_cur, F, h)
        u_nxt = _seed_u_from_w(w_nxt, r)
        check_layer(u_nxt, t0 + (k + 1) * h)
        if k >= 1:
            # layer k gets its centered v now that layer k+1 exists
            state_k = state(t0 + k * h, u_cur, _seed_v_from_layers(w_nxt, w_prev, r, h))
            log_rows.append(_seed_log_row(state_k))
            if k % config.snapshot_stride == 0:
                states.append(state_k)
        w_prev, w_cur, u_cur = w_cur, w_nxt, u_nxt

    if n_steps >= 1:
        # one auxiliary interior step past t_final feeds the same centered
        # stencil as every other layer; the extra layer is neither stored,
        # logged, nor run through the guards (a one-sided endpoint stencil
        # would amplify grid-scale wavefront oscillation several-fold)
        F = _seed_source(u_cur, r, params, config.linear)
        w_aux = _seed_advance(w_prev, w_cur, F, h)
        v_fin = _seed_v_from_layers(w_aux, w_prev, r, h)
        final = state(t0 + n_steps * h, u_cur, v_fin)
        log_rows.append(_seed_log_row(final))
        states.append(final)

    cols = list(zip(*log_rows))
    log = StepLog(t=np.array(cols[0]), energy=np.array(cols[1]), virial=np.array(cols[2]),
                  max_abs_u=np.array(cols[3]), support_radius=np.array(cols[4]))
    return Trajectory(grid=grid, params=params, states=tuple(states), log=log,
                      linear=config.linear)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _oracle_case(name):
    """(config, initial, initial_prev, expected exception) for the seed-loop oracle."""
    if name == "bump_prefix_grows":
        params = make_params(7.0, 1)
        grid = RadialGrid(h=1.0 / 64.0, n=256)
        s0 = RadialState(grid=grid, params=params, t=0.0, u=bump(grid.r),
                         v=0.3 * bump(grid.r, radius=0.8))
        return SolverConfig(grid=grid, params=params, t_final=1.5,
                            snapshot_stride=8), s0, None, None
    if name == "gaussian_full_grid":
        params = make_params(5.0, -1)
        grid = RadialGrid(h=1.0 / 64.0, n=288)
        s0 = RadialState(grid=grid, params=params, t=0.25,
                         u=0.8 * np.exp(-2.0 * grid.r ** 2), v=np.zeros(grid.n + 1))
        return SolverConfig(grid=grid, params=params, t_final=1.25, snapshot_stride=5,
                            cone_floor=None), s0, None, None
    if name == "bump_cone_violation":
        params = make_params(5.0, 1)
        grid = RadialGrid(h=1.0 / 64.0, n=128)
        s0 = RadialState(grid=grid, params=params, t=0.0, u=bump(grid.r),
                         v=np.zeros(grid.n + 1))
        return SolverConfig(grid=grid, params=params, t_final=2.0,
                            snapshot_stride=16), s0, None, ConeViolation
    if name == "cone_sharp_front":
        # a jump at r = 2 sends an O(1) front outward, one node per step from
        # a back layer equal to the initial one: the guard fires on the first
        # layer whose prefix reaches node n - 1
        params = make_params(5.0, 1)
        grid = RadialGrid(h=1.0 / 16.0, n=40)
        w = grid.r * np.where(grid.r <= 2.0, 0.5, 0.0)
        return (SolverConfig(grid=grid, params=params, t_final=1.0),
                _state_from_w(grid, params, w), _state_from_w(grid, params, w, t=-grid.h),
                ConeViolation)
    if name == "ode_flat_blowup":
        params = make_params(5.0, -1)
        grid = RadialGrid(h=1.0 / 256.0, n=640)
        amp = 1.8612097182041992
        u0 = profile_ode_flat(grid.r, amp)
        s0 = RadialState(grid=grid, params=params, t=0.0, u=u0,
                         v=(params.a / ode_flat_blowup_time(params, amp)) * u0)
        return SolverConfig(grid=grid, params=params, t_final=0.5, snapshot_stride=4,
                            cone_floor=None), s0, None, BlowupDetected
    if name == "linear":
        params = make_params(7.0, -1)
        grid = RadialGrid(h=1.0 / 32.0, n=160)
        s0 = RadialState(grid=grid, params=params, t=0.0, u=bump(grid.r, amp=3.0),
                         v=bump(grid.r, radius=0.5))
        return SolverConfig(grid=grid, params=params, t_final=3.0, snapshot_stride=7,
                            linear=True), s0, None, None
    if name == "initial_prev":
        params = make_params(6.0, 1)
        grid = RadialGrid(h=1.0 / 64.0, n=256)
        w = grid.r * bump(grid.r - 1.0, radius=0.5)
        back = np.zeros_like(w)
        back[:-1] = w[1:]
        return (SolverConfig(grid=grid, params=params, t_final=1.0, snapshot_stride=3),
                _state_from_w(grid, params, w), _state_from_w(grid, params, back, t=-grid.h),
                None)
    if name == "gaussian_reaches_grid_end":
        # exp(-2 r^2) is exactly zero past node 154; the prefix reaches the
        # grid end at layer 13, in the middle of the second log block, and the
        # tail values underflow in the powers
        params = make_params(5.0, 1)
        grid = RadialGrid(h=1.0 / 8.0, n=167)
        s0 = RadialState(grid=grid, params=params, t=0.0,
                         u=0.5 * np.exp(-2.0 * grid.r ** 2), v=np.zeros(grid.n + 1))
        return SolverConfig(grid=grid, params=params, t_final=5.0, snapshot_stride=1,
                            cone_floor=None), s0, None, None
    if name == "initial_prev_wider":
        # the back layer reaches 20 nodes past the initial one, so the first
        # log block is sized by the solver's prefix, not by layer 0's; the
        # block width grows between blocks and the prefix reaches the grid
        # end at layer 29, inside the fourth block
        params = make_params(5.0, 1)
        grid = RadialGrid(h=1.0 / 16.0, n=64)
        w = grid.r * 0.5 * bump(grid.r)
        back = w + grid.r * bump(grid.r - 1.2, amp=0.01)
        return (SolverConfig(grid=grid, params=params, t_final=40 * grid.h,
                             cone_floor=None),
                _state_from_w(grid, params, w), _state_from_w(grid, params, back, t=-grid.h),
                None)
    if name == "gaussian_underflow":
        # exp(-2 r^2) out to R = 11 is live on the whole grid, and its outer
        # nodes lie far below 2^(-1080/(p-1)), where |u|^(p-1) underflows
        params = make_params(5.0, 1)
        grid = RadialGrid(h=1.0 / 16.0, n=176)
        s0 = RadialState(grid=grid, params=params, t=0.0,
                         u=np.exp(-2.0 * grid.r ** 2), v=np.zeros(grid.n + 1))
        return SolverConfig(grid=grid, params=params, t_final=2.0, snapshot_stride=4,
                            cone_floor=None), s0, None, None
    if name == "bump_crosses_chunks":
        # the prefix starts at 33 nodes and crosses the chunk edges 64, 128 and
        # 192; n + 1 = 201 is no multiple of 64, so the last chunk is cut at
        # the grid end, which the prefix reaches 8 steps into that chunk
        params = make_params(7.0, 1)
        grid = RadialGrid(h=1.0 / 32.0, n=200)
        s0 = RadialState(grid=grid, params=params, t=0.0, u=bump(grid.r),
                         v=0.5 * bump(grid.r, radius=0.7))
        return SolverConfig(grid=grid, params=params, t_final=6.0, snapshot_stride=9,
                            cone_floor=None), s0, None, None
    if name == "band_wider_than_prefix":
        # data on nodes 0 and 1 only: the prefix starts at 3 nodes, the
        # clamp of _active_length
        params = make_params(5.0, -1)
        grid = RadialGrid(h=1.0 / 32.0, n=96)
        s0 = RadialState(grid=grid, params=params, t=0.0,
                         u=np.where(grid.r < 1.5 * grid.h, 0.5, 0.0),
                         v=np.where(grid.r < 1.5 * grid.h, 0.25, 0.0))
        return SolverConfig(grid=grid, params=params, t_final=1.0,
                            snapshot_stride=2), s0, None, None
    if name.startswith("overflow_to_"):
        # blowup_threshold = inf: |w|^(p-1) overflows in the first step.  With
        # the back layer equal to the initial one the new layer holds -inf; with
        # the synthesized back layer (already -inf) it holds inf - inf = NaN
        params = make_params(7.0, 1)
        grid = RadialGrid(h=1.0 / 8.0, n=32)
        w = grid.r * np.where((grid.r >= 1.0) & (grid.r <= 2.0), 1e60, 0.0)
        prev = _state_from_w(grid, params, w, t=-grid.h) if name.endswith("inf") else None
        return (SolverConfig(grid=grid, params=params, t_final=1.0, cone_floor=None,
                             blowup_threshold=np.inf),
                _state_from_w(grid, params, w), prev, BlowupDetected)
    if name in _GUARD_CASES:
        # focusing plateau data on R = 1.625: max |u| grows from 1.86 at layer 0
        # (2.48 at 7, 3.03 at 10, 3.70 at 12, 5.15 at 14, 6.92 at 15) to NaN at
        # layer 21, and the front reaches node n - 1 at layer 8, where
        # max |u[n-1:]| grows (0.014 at 11, 0.025 at 12, 0.056 at 14); the log
        # block holds layers 8 .. 15
        floor, threshold, steps, expected, _ = _GUARD_CASES[name]
        params = make_params(5.0, -1)
        grid = RadialGrid(h=1.0 / 64.0, n=104)
        amp = 1.8612097182041992
        u0 = profile_ode_flat(grid.r, amp)
        s0 = RadialState(grid=grid, params=params, t=0.0, u=u0,
                         v=(params.a / ode_flat_blowup_time(params, amp)) * u0)
        return SolverConfig(grid=grid, params=params, t_final=steps * grid.h,
                            cone_floor=floor, blowup_threshold=threshold), s0, None, expected
    if name == "linear_log_overflows":
        # a free wave of height 1e200: the kernel stays finite, the log's
        # |u|^(p+1) overflows, and no logged E is finite
        params = make_params(5.0, 1)
        grid = RadialGrid(h=1.0 / 64.0, n=128)
        s0 = RadialState(grid=grid, params=params, t=0.0, u=bump(grid.r, amp=1e200),
                         v=np.zeros(grid.n + 1))
        return SolverConfig(grid=grid, params=params, t_final=0.5, snapshot_stride=5,
                            linear=True, blowup_threshold=1e300), s0, None, None
    if name == "linear_v_overflows":
        # fronts of height 1e307 on nodes 64..72 moving out and 80..88 moving
        # in, one node per step: u stays at most 1e307 until they meet, but
        # v = (w^{k+1} - w^{k-1}) / (2 h r) overflows at layer 1, whose
        # snapshot is rejected once layer 2 has passed the guards; the sum
        # where the fronts meet passes the threshold from layer 4 on
        params = make_params(5.0, 1)
        grid = RadialGrid(h=1.0 / 64.0, n=128)
        j = np.arange(grid.n + 1)
        out, inward = (j >= 64) & (j <= 72), (j >= 80) & (j <= 88)
        w = np.where(out | inward, 1e307, 0.0)
        back = np.zeros_like(w)
        back[:-1] = np.where(out[1:], w[1:], 0.0)
        back[1:] += np.where(inward[:-1], w[:-1], 0.0)
        return (SolverConfig(grid=grid, params=params, t_final=1.0, linear=True,
                             cone_floor=None, blowup_threshold=1.2e307),
                _state_from_w(grid, params, w), _state_from_w(grid, params, back, t=-grid.h),
                SolverError)
    if name.startswith("steps_"):
        # focusing bump over a step count around the log block edges; the
        # stride does not divide the block
        params = make_params(7.0, -1)
        grid = RadialGrid(h=1.0 / 64.0, n=128)
        s0 = RadialState(grid=grid, params=params, t=0.0, u=bump(grid.r),
                         v=0.5 * bump(grid.r, radius=0.7))
        steps = int(name.split("_")[1])
        return SolverConfig(grid=grid, params=params, t_final=steps * grid.h,
                            snapshot_stride=3), s0, None, None
    raise KeyError(name)


# (cone_floor, blowup_threshold, steps, outcome, failing layer) of the
# plateau data: the first failing layer decides, its blowup check first
_GUARD_CASES = {
    "blowup_on_layer_0": (None, 1.5, 18, BlowupDetected, 0),
    "blowup_on_block_last_row": (None, 6.0, 18, BlowupDetected, 15),
    "cone_then_blowup_in_block": (0.02, 5.0, 18, ConeViolation, 12),  # blowup at 14
    "blowup_then_cone_in_block": (0.05, 3.5, 18, BlowupDetected, 12),  # cone at 14
    "blowup_and_cone_on_one_layer": (0.02, 3.5, 18, BlowupDetected, 12),
    "overflow_at_infinite_threshold": (None, np.inf, 40, BlowupDetected, 21),  # NaN
    # the auxiliary step overflows: the final layer's v is not finite
    "overflow_in_final_v": (None, np.inf, 20, SolverError, 20),
}
_BLOCK_EDGE_CASES = ["steps_0", "steps_1", "steps_7", "steps_8", "steps_9", "steps_17",
                     "gaussian_reaches_grid_end", "initial_prev_wider"]
_ORACLE_CASES = ["bump_prefix_grows", "gaussian_full_grid", "bump_cone_violation",
                 "cone_sharp_front", "ode_flat_blowup", "linear", "initial_prev",
                 "overflow_to_inf", "overflow_to_nan", *_BLOCK_EDGE_CASES,
                 "gaussian_underflow", "bump_crosses_chunks", "band_wider_than_prefix",
                 *_GUARD_CASES, "linear_v_overflows", "linear_log_overflows"]


@pytest.mark.parametrize("case", _GUARD_CASES)
def test_guard_cases_fail_where_named(case):
    cfg, s0, prev, expected = _oracle_case(case)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _run_or_error(_seed_evolve, cfg, s0, prev)
    layer = _GUARD_CASES[case][-1]
    assert type(ref) is expected
    assert ref.t == layer * cfg.grid.h
    if case == "blowup_on_block_last_row":
        assert layer % LOG_BLOCK == LOG_BLOCK - 1
    if case.startswith("overflow"):
        assert cfg.blowup_threshold == np.inf
        assert str(ref) == (f"field magnitude nan at t = {ref.t!r}" if expected is BlowupDetected
                            else f"v contains non-finite entries at t = {ref.t!r}")


@pytest.mark.parametrize("case", [*_GUARD_CASES, "linear_v_overflows", "ode_flat_blowup",
                                  "bump_cone_violation", "overflow_to_inf"])
def test_guards_do_not_depend_on_the_block_size(case, monkeypatch):
    # the failing layer may start a block, end one or sit inside one, with
    # the layer that fails and the snapshot whose v is not finite in one
    # block or in two
    cfg, s0, prev, expected = _oracle_case(case)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _run_or_error(_seed_evolve, cfg, s0, prev)
        for rows in (1, 2, 3, 5):
            monkeypatch.setattr(solver, "LOG_BLOCK", rows)
            _assert_same_outcome(_run_or_error(evolve, cfg, s0, prev), ref, expected)


def test_log_warnings_of_a_finished_run_are_kept():
    # the log's own overflow warnings, computed with warnings off, are given
    # once more when the run goes on past the block
    cfg, s0, prev, _ = _oracle_case("linear_log_overflows")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        traj = evolve(cfg, s0, prev)
    assert "overflow encountered in power" in {str(w.message) for w in seen}
    assert not np.any(np.isfinite(traj.log.energy))


@pytest.mark.parametrize("case, message", [
    ("overflow_in_final_v", "overflow encountered in power"),
    ("linear_v_overflows", "overflow encountered in divide")])
def test_kernel_warnings_of_a_run_a_snapshot_ends(case, message):
    # the kernel's floating-point errors up to the layer whose snapshot
    # fails are warned of as numpy warns, unless the caller ignores them
    cfg, s0, prev, _ = _oracle_case(case)
    for setting, warned in (("warn", True), ("ignore", False)):
        with np.errstate(over=setting), warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(SolverError, match="v contains non-finite entries at t = "):
                evolve(cfg, s0, prev)
        kernel = {str(w.message) for w in seen if Path(w.filename).name == "solver.py"}
        assert (message in kernel) is warned


def test_kernel_warnings_of_a_finished_run():
    # a front of height 1e307 moving out from r in [1, 1.5]: v = (w^{k+1} -
    # w^{k-1}) / (2 h r) overflows at its edges until they pass r = 1.78, on
    # layers that are not stored, and the run finishes
    params = make_params(5.0, 1)
    grid = RadialGrid(h=1.0 / 64.0, n=256)
    w = np.where((grid.r >= 1.0) & (grid.r <= 1.5), 1e307, 0.0)
    back = np.zeros_like(w)
    back[:-1] = w[1:]
    cfg = SolverConfig(grid=grid, params=params, t_final=100 * grid.h, snapshot_stride=1000,
                       linear=True, cone_floor=None, blowup_threshold=np.inf)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        traj = evolve(cfg, _state_from_w(grid, params, w),
                      _state_from_w(grid, params, back, t=-grid.h))
    kernel = {str(w.message) for w in seen if Path(w.filename).name == "solver.py"}
    assert kernel == {"overflow encountered in divide"}
    assert not np.isfinite(traj.log.energy[1]) and traj.states[-1].t == cfg.t_final


def test_linear_case_overflows_v_only():
    # layer 1's v overflows while u stays at most 1e307 on layers 0 to 3, so
    # the layer-1 snapshot fails after layer 2 has passed the guards; a
    # later layer of the same log block fails the blowup guard
    cfg, s0, prev, _ = _oracle_case("linear_v_overflows")
    r, h, zero = cfg.grid.r, cfg.grid.h, np.zeros(cfg.grid.n + 1)
    w = [prev.w, s0.w]
    for _ in range(6):
        w.append(_seed_advance(w[-2], w[-1], zero, h))
    top = [np.max(np.abs(_seed_u_from_w(x, r))) for x in w[1:]]
    assert max(top[:4]) <= 1e307 and max(top[4:]) > cfg.blowup_threshold
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(_seed_v_from_layers(w[3], w[1], r, h)))
    assert cfg.snapshot_stride == 1


def _run_or_error(run, cfg, s0, prev):
    # a guard, or a snapshot whose v is not finite
    try:
        return run(cfg, s0, prev)
    except SolverError as exc:
        return exc


def _assert_same_states(got, ref):
    assert len(got.states) == len(ref.states)
    for a, b in zip(got.states, ref.states):
        assert a.t == b.t
        assert np.array_equal(_bits(a.u), _bits(b.u))
        assert np.array_equal(_bits(a.v), _bits(b.v))


def _assert_same_bits(got, ref):
    _assert_same_states(got, ref)
    for col in ("t", "energy", "virial", "max_abs_u", "support_radius"):
        assert np.array_equal(_bits(getattr(got.log, col)), _bits(getattr(ref.log, col)))


def _assert_same_outcome(got, ref, expected):
    if expected is not None:
        assert type(ref) is expected
        assert type(got) is expected and str(got) == str(ref)
        assert getattr(got, "t", None) == getattr(ref, "t", None)
        # the message prints Python floats, not numpy scalar reprs
        assert "np.float64" not in str(got)
        return
    # the arithmetic is unchanged, so every log column matches bit for bit
    # (E and z too: the quadrature sums over the whole grid either way)
    _assert_same_bits(got, ref)


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_evolve_matches_full_grid_loop(case):
    cfg, s0, prev, expected = _oracle_case(case)
    with np.errstate(over="ignore", invalid="ignore"):
        ref, got = (_run_or_error(run, cfg, s0, prev) for run in (_seed_evolve, evolve))
    _assert_same_outcome(got, ref, expected)
    if case == "gaussian_underflow":
        # the case must keep reaching the band where |u|^(p-1) underflows
        # (the outgoing wave fills it in later)
        theta = 2.0 ** (-1080.0 / (cfg.params.p - 1.0))
        for s in got.states[:2]:
            u = np.abs(s.u)
            assert np.any((u > 0.0) & (u < theta))


@pytest.mark.parametrize("mu", [1, -1])
@pytest.mark.parametrize("p", [5.0, 7.0, 9.5])
def test_source_of_state_is_the_kernel_term_over_h_squared(p, mu):
    # one formula, F = -mu r |u|^{p-1} u: h^2 times the snapshot's F is -mu
    # times the kernel's term, bit for bit on nodes [1, n], node 1, signed
    # zeros and tails whose term is subnormal or 0 included
    params = make_params(p, mu)
    grid = RadialGrid(h=1.0 / 64.0, n=400)
    r = grid.r
    u = 0.9 * np.exp(-r * r) * np.cos(7.0 * r)  # both signs
    u[1] = 1.3
    u[40:44] = [0.0, -0.0, 0.0, -0.0]
    u[100:] = np.geomspace(1e-20, 1e-200, 301) * (-1.0) ** np.arange(301)
    state = RadialState(grid=grid, params=params, t=0.0, u=u, v=np.zeros(grid.n + 1))
    term = np.full(grid.n, np.nan)
    solver._source_term(state.u[1:], r[1:], term, p, grid.h, False)
    h2F = grid.h * grid.h * solver._source_of_state(state, False)[1:]
    assert _bits(h2F).tolist() == _bits(-mu * term).tolist()
    assert np.signbit(term[39:43]).tolist() == [False, True, False, True]  # u[40:44]
    tiny = np.finfo(float).tiny
    assert np.any((term != 0.0) & (np.abs(term) < tiny))
    assert np.any((term == 0.0) & (u[1:] != 0.0))


def _kernel_run(cfg, s0, prev, **kwargs):
    # the outcome, and the warnings given from solver.py in their order
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got = _run_or_error(lambda *a: evolve(*a, **kwargs), cfg, s0, prev)
    return got, [(str(w.message), w.lineno) for w in seen
                 if Path(w.filename).name == "solver.py"]


@pytest.mark.parametrize("case", _ORACLE_CASES)  # the _GUARD_CASES among them
def test_run_without_step_log_keeps_states_guards_and_kernel_warnings(case, monkeypatch):
    cfg, s0, prev, expected = _oracle_case(case)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _run_or_error(_seed_evolve, cfg, s0, prev)
    _, logged_warnings = _kernel_run(cfg, s0, prev)

    def forbidden(*args, **kwargs):
        raise AssertionError("step log computed by a run without one")

    for name in ("step_log_rows", "_RowBuffers"):
        monkeypatch.setattr(diagnostics, name, forbidden)
    got, got_warnings = _kernel_run(cfg, s0, prev, step_log=False)
    if expected is not None:
        _assert_same_outcome(got, ref, expected)
    else:
        _assert_same_states(got, ref)
        assert got.log is None
    assert got_warnings == logged_warnings


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_prefix_chunk_does_not_change_bits(case, monkeypatch):
    # the nodes a chunk adds past the prefix hold +0.0 and stay +0.0
    cfg, s0, prev, expected = _oracle_case(case)
    n = cfg.grid.n
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _run_or_error(_seed_evolve, cfg, s0, prev)
        for chunk in (1, 3, 64, n + 1, 4 * n):
            monkeypatch.setattr(solver, "PREFIX_CHUNK", chunk)
            _assert_same_outcome(_run_or_error(evolve, cfg, s0, prev), ref, expected)


def _spy_views(monkeypatch):
    widths = []

    def spy(buffers, mk, _f=solver._prefix_views):
        widths.append(mk)
        return _f(buffers, mk)

    monkeypatch.setattr(solver, "_prefix_views", spy)
    return widths


@pytest.mark.parametrize("case, chunk", [
    ("bump_prefix_grows", 64), ("bump_prefix_grows", 3), ("bump_crosses_chunks", 64),
    ("bump_crosses_chunks", 1), ("gaussian_reaches_grid_end", 16),
    ("band_wider_than_prefix", 64), ("initial_prev_wider", 7), ("steps_0", 64)])
def test_views_are_rebuilt_once_per_chunk(case, chunk, monkeypatch):
    # full-grid views for layer 0 and the back layer, then one set of views
    # per chunk edge the prefix crosses, never one per step or per block; the
    # log rows are rebuilt with the kernel's views, on the same prefix
    monkeypatch.setattr(solver, "PREFIX_CHUNK", chunk)
    widths, row_widths = _spy_views(monkeypatch), []

    def rows_spy(buffers, rows, width, _f=solver._row_views):
        row_widths.append(width)
        return _f(buffers, rows, width)

    monkeypatch.setattr(solver, "_row_views", rows_spy)
    cfg, s0, prev, _ = _oracle_case(case)
    evolve(cfg, s0, prev)
    n = cfg.grid.n
    assert len(widths) <= -(-(n + 1) // chunk) + 1
    assert widths[0] == n + 1
    assert widths[1:] == sorted(set(widths[1:]))
    assert all(mk % chunk == 0 or mk == n + 1 for mk in widths[1:])
    assert row_widths == widths[1:]


def test_chunk_case_reaches_grid_end_mid_chunk(monkeypatch):
    widths = _spy_views(monkeypatch)
    cfg, s0, prev, _ = _oracle_case("bump_crosses_chunks")
    traj = evolve(cfg, s0, prev)
    n = cfg.grid.n
    assert solver.PREFIX_CHUNK == 64 and (n + 1) % 64 != 0
    assert widths == [n + 1, 64, 128, 192, n + 1]
    assert _live_length(traj.states[-1].u) == n + 1


def test_band_case_starts_below_the_origin_band(monkeypatch):
    # the case is named for a u-form band of nodes that the source once had;
    # every node now takes that form, and the case keeps its short start
    starts = []

    def spy(*layers, _f=solver._active_length):
        starts.append(_f(*layers))
        return starts[-1]

    monkeypatch.setattr(solver, "_active_length", spy)
    cfg, s0, prev, _ = _oracle_case("band_wider_than_prefix")
    evolve(cfg, s0, prev)
    assert starts == [3]


def test_gaussian_case_reaches_grid_end_mid_block():
    cfg, s0, _, _ = _oracle_case("gaussian_reaches_grid_end")
    traj = evolve(cfg, s0)
    n = cfg.grid.n
    first = next(k for k, s in enumerate(traj.states) if _live_length(s.u) == n + 1)
    assert _live_length(s0.u) < n + 1
    assert first % LOG_BLOCK not in (0, LOG_BLOCK - 1)


@pytest.mark.parametrize("case", ["overflow_to_inf", "overflow_to_nan"])
def test_blowup_guard_catches_inf_and_nan_at_infinite_threshold(case):
    # the guard's one comparison against the threshold capped at the largest
    # float fires on the first non-finite layer, as the isfinite check did
    cfg, s0, prev, _ = _oracle_case(case)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupDetected) as err:
            evolve(cfg, s0, prev)
        ref = _run_or_error(_seed_evolve, cfg, s0, prev)
    word = case.split("_")[-1]
    assert str(err.value) == f"field magnitude {word} at t = {cfg.grid.h!r}"
    assert err.value.t == ref.t == cfg.grid.h and str(ref) == str(err.value)


def test_log_blocks_are_contiguous_and_widen(monkeypatch):
    # every block reaches step_log_rows as C-contiguous (k, W) stacks; W
    # grows between blocks up to the grid and covers the solver's prefix
    # from the first block on (the back layer is wider than layer 0 here).
    # 8-node chunks let W take several values on this 65-node grid
    cfg, s0, prev, _ = _oracle_case("initial_prev_wider")
    monkeypatch.setattr(solver, "PREFIX_CHUNK", 8)
    seen = []

    def spy(u, v, *args, _f=diagnostics.step_log_rows, **kwargs):
        seen.append((u.shape, u.flags.c_contiguous, v.flags.c_contiguous))
        return _f(u, v, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "step_log_rows", spy)
    traj = evolve(cfg, s0, prev)
    n = cfg.grid.n
    widths = [shape[1] for shape, _, _ in seen]
    assert all(c_u and c_v for _, c_u, c_v in seen)
    assert widths == sorted(widths) and len(set(widths)) >= 3 and widths[-1] == n + 1
    assert widths[0] > _live_length(s0.u, s0.v) + LOG_BLOCK + 2
    first = next(k for k, s in enumerate(traj.states) if _live_length(s.u) == n + 1)
    assert first % LOG_BLOCK not in (0, LOG_BLOCK - 1)


@pytest.mark.parametrize("case", ["bump_prefix_grows", "gaussian_reaches_grid_end",
                                  "steps_17", "initial_prev_wider"])
def test_log_block_size_does_not_change_bits(case, monkeypatch):
    cfg, s0, prev, _ = _oracle_case(case)
    ref = evolve(cfg, s0, prev)
    for rows in (1, 3):
        monkeypatch.setattr(solver, "LOG_BLOCK", rows)
        _assert_same_bits(evolve(cfg, s0, prev), ref)


@pytest.mark.parametrize("case", ["bump_prefix_grows", "steps_0", "steps_7", "steps_8",
                                  "steps_9"])
def test_evolve_logs_in_blocks(case, monkeypatch):
    # one row-wise log call per block of LOG_BLOCK layers, and none per layer;
    # a fall-back to per-layer rows fails here without any timing
    cfg, s0, prev, _ = _oracle_case(case)
    calls = {"step_log_rows": [], "_support_radii": []}
    for name, seen in calls.items():
        def counting(*args, _f=getattr(diagnostics, name), _seen=seen, **kwargs):
            _seen.append(len(args[0]))
            return _f(*args, **kwargs)
        monkeypatch.setattr(diagnostics, name, counting)
    traj = evolve(cfg, s0, prev)
    layers = len(traj.log.t)
    blocks = -(-layers // LOG_BLOCK)
    assert len(calls["step_log_rows"]) == blocks
    assert calls["_support_radii"] == calls["step_log_rows"]
    assert sum(calls["step_log_rows"]) == layers


class _CountingNumpy:
    """numpy as a module sees it through its ``np``, counting every call made
    through it (ufunc methods included)."""

    def __init__(self):
        self.calls = 0
        self._seen = {}

    def __getattr__(self, name):
        if name not in self._seen:
            self._seen[name] = _Counted(getattr(np, name), self)
        return self._seen[name]


class _Counted:
    def __init__(self, f, owner):
        self.f, self.owner = f, owner

    def __call__(self, *args, **kwargs):
        self.owner.calls += 1
        return self.f(*args, **kwargs)

    def __getattr__(self, name):
        return _Counted(getattr(self.f, name), self.owner)


@pytest.mark.parametrize("case", ["bump_prefix_grows", "gaussian_full_grid"])
def test_solver_makes_eleven_numpy_calls_per_step(case, monkeypatch):
    # source 5, advance 3, u 1, v 2; the guards and the log's t, E, z, max |u|
    # and support radius add none per step, and no layer is copied
    cfg, s0, prev, _ = _oracle_case(case)
    counted = _CountingNumpy()
    monkeypatch.setattr(solver, "np", counted)
    calls = {}
    for steps in (16, 48):
        run = SolverConfig(grid=cfg.grid, params=cfg.params, t_final=s0.t + steps * cfg.grid.h,
                           snapshot_stride=1000, cone_floor=cfg.cone_floor)
        counted.calls = 0
        evolve(run, s0, prev)
        calls[steps] = counted.calls
    assert calls[48] - calls[16] <= 11 * 32


def test_one_block_buffer_holds_every_layer(monkeypatch):
    # the kernel writes u and v straight into the rows that the log reads:
    # every row and block is a view of one u buffer and one v buffer of
    # LOG_BLOCK full-grid rows, so no layer is copied
    cfg, s0, prev, _ = _oracle_case("bump_prefix_grows")
    bases, written = [], {"_u_from_w": [], "_v_from_layers": []}

    def spy(u, v, *args, _f=diagnostics.step_log_rows, **kwargs):
        bases.append((u.base, v.base))
        return _f(u, v, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "step_log_rows", spy)
    for name, outs in written.items():
        def kernel(*args, _f=getattr(solver, name), _outs=outs):
            _outs.append(args[-2])  # the row written
            return _f(*args)
        monkeypatch.setattr(solver, name, kernel)
    evolve(cfg, s0, prev)
    u_base, v_base = bases[0]
    assert u_base is not v_base and u_base.shape == (LOG_BLOCK * (cfg.grid.n + 1),)
    assert all(u is u_base and v is v_base for u, v in bases)
    assert len(bases) == -(-int(round(cfg.t_final / cfg.grid.h + 1)) // LOG_BLOCK)
    assert all(row.base is u_base for row in written["_u_from_w"])
    assert all(row.base is v_base for row in written["_v_from_layers"])
    steps = int(round(cfg.t_final / cfg.grid.h))
    assert len(written["_u_from_w"]) == len(written["_v_from_layers"]) == steps


def test_blowup_config_emits_no_runtime_warning(tmp_path):
    # the layers stepped past the failing one, up to the end of its log
    # block, run with the kernel's warnings off
    raw = json.loads((ROOT / "configs" / "evolve_ode_blowup.json").read_text())
    cfg = parse_config(raw, out_override=str(tmp_path))
    s0 = build_initial(cfg.initial, cfg.grid, cfg.params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupDetected):
            evolve(cfg.run, s0)


@pytest.mark.parametrize("case", ["bump_prefix_grows", "bump_crosses_chunks"])
def test_support_search_stays_in_its_window(case, monkeypatch):
    # a growing compact bump: one windowed search per log block, and no
    # block falls back to whole rows, although each row runs up to a chunk
    # and a block past its layer's prefix
    assert diagnostics.SUPPORT_WINDOW >= solver.PREFIX_CHUNK + LOG_BLOCK + 2
    cfg, s0, prev, _ = _oracle_case(case)
    widths = []

    def spy(u, v, r, _f=diagnostics._outermost_live):
        widths.append(u.shape[1])
        return _f(u, v, r)

    monkeypatch.setattr(diagnostics, "_outermost_live", spy)
    traj = evolve(cfg, s0, prev)
    assert len(widths) == -(-len(traj.log.t) // LOG_BLOCK)
    assert max(widths) == diagnostics.SUPPORT_WINDOW < cfg.grid.n + 1


def test_evolve_builds_states_only_for_snapshots(monkeypatch):
    cfg, s0, _, _ = _oracle_case("bump_prefix_grows")
    wrapped, public = [], []
    wrap, init = RadialState._wrap.__func__, RadialState.__init__

    def counting_wrap(cls, grid, params, t, u, v):
        wrapped.append(t)
        return wrap(cls, grid, params, t, u, v)

    def counting_init(self, *args, **kwargs):
        public.append(kwargs.get("t"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(RadialState, "_wrap", classmethod(counting_wrap))
    monkeypatch.setattr(RadialState, "__init__", counting_init)
    traj = evolve(cfg, s0)
    monkeypatch.undo()
    # one private build per stored layer past layer 0, the given state, and
    # no public one
    assert wrapped == [s.t for s in traj.states[1:]] and len(wrapped) == 12
    assert public == []
    assert len(traj.log.t) == int(round(cfg.t_final / cfg.grid.h)) + 1


@pytest.mark.parametrize("t0", [0.0, 0.5, 3.0 / 32.0, -1.0, 1e10])
@pytest.mark.parametrize("steps, stride", [(0, 1), (0, 5), (12, 1), (12, 4), (12, 5),
                                           (13, 13), (7, 20)])
def test_stored_times_are_the_times_of_the_stored_layers(t0, steps, stride):
    # parse_config checks norms.sp_interval against these times before the
    # run, so they are the stored layers' times bit for bit: the strides
    # divide the step count or not, and a run of no steps stores layer 0
    grid, params = RadialGrid(h=1.0 / 32.0, n=64), make_params(5.0, 1)
    cfg = SolverConfig(grid=grid, params=params, t_final=t0 + steps * grid.h,
                       snapshot_stride=stride)
    s0 = RadialState(grid=grid, params=params, t=t0, u=bump(grid.r, 0.5),
                     v=np.zeros(grid.n + 1))
    stored = [s.t for s in evolve(cfg, s0, step_log=False).states]
    assert list(map(repr, solver._stored_times(cfg, t0))) == list(map(repr, stored))


def test_stored_states_own_read_only_arrays_and_public_states_copy(monkeypatch):
    cfg, s0, prev, _ = _oracle_case("bump_prefix_grows")
    bases = []

    def spy(u, v, *args, _f=diagnostics.step_log_rows, **kwargs):
        bases.append((u.base, v.base))
        return _f(u, v, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "step_log_rows", spy)
    traj = evolve(cfg, s0, prev)
    u_base, v_base = bases[0]
    arrays = [x for s in traj.states[1:] for x in (s.u, s.v)]
    for x in arrays:
        assert not x.flags.writeable and x.base is None and x.shape == (cfg.grid.n + 1,)
        assert not np.shares_memory(x, u_base) and not np.shares_memory(x, v_base)
        with pytest.raises(ValueError):
            x[0] = 1.0
    assert len({id(x) for x in arrays}) == len(arrays)
    # the public constructor still copies: writing to its input afterwards
    # leaves the state unchanged
    a, b = s0.u.copy(), s0.v.copy()
    state = RadialState(grid=s0.grid, params=s0.params, t=0.0, u=a, v=b)
    a[:], b[:] = 7.0, 7.0
    assert np.array_equal(state.u, s0.u) and np.array_equal(state.v, s0.v)
    assert a.flags.writeable and not state.u.flags.writeable


# --- the discrete energy ledger ------------------------------------------------------
#
# The unit-CFL leapfrog w^{k+1}_j + w^{k-1}_j = w^k_{j+1} + w^k_{j-1} + h^2 F^k_j,
# with w_0 = 0 and the ghost w_{n+1} = 0, has the exact discrete identity
#     E_h^{k+1/2} - E_h^{k-1/2} = h^2 sum_j F^k_j (w^{k+1}_j - w^{k-1}_j),
#     E_h^{k+1/2} = sum_{j=1..n} (w^{k+1}_j - w^k_j)^2
#                 + sum_{j=0..n} (w^{k+1}_{j+1} - w^{k+1}_j)(w^k_{j+1} - w^k_j),
# so E_h is conserved by linear runs.  Over 80 seeded runs (p in 5..13, both
# signs, linear or not, compact or not, h = 1/32..1/128,
# up to 1025 nodes) the largest residual relative to max |E_h| was 2.3e-15
# (median 9.8e-16), while E_h itself moved by up to 1.7e-2 per step; the
# bound is about four times that largest residual.

LEDGER_BOUND = 1e-14


def _ledger(traj, linear, mu=None):
    """Max |E_h^{k+1/2} - E_h^{k-1/2} - h^2 sum_j F^k_j (w^{k+1}_j - w^{k-1}_j)|
    and max |E_h^{k+1/2} - E_h^{k-1/2}|, both over max |E_h|, for every layer
    k with stored neighbours; w = r u, F in w-form, with the sign mu."""
    h, r, p = traj.grid.h, traj.grid.r, traj.params.p
    mu = traj.params.mu if mu is None else mu
    w = np.array([s.w for s in traj.states])
    w = np.concatenate([w, np.zeros((len(w), 1))], axis=1)  # the ghost node
    dw = np.diff(w, axis=1)
    E = np.sum((w[1:, 1:-1] - w[:-1, 1:-1]) ** 2, axis=1) + np.sum(dw[1:] * dw[:-1], axis=1)
    F = np.zeros_like(w)
    if not linear:
        x = w[:, 1:-1]
        F[:, 1:-1] = -mu * np.abs(x) ** (p - 1.0) * x / r[1:] ** (p - 1.0)
    source = h * h * np.sum(F[1:-1] * (w[2:] - w[:-2]), axis=1)
    scale = np.max(np.abs(E))
    return (float(np.max(np.abs(np.diff(E) - source)) / scale),
            float(np.max(np.abs(np.diff(E))) / scale))


def _ledger_run(p, mu, linear, kind, amp, width=0.5, R=4.0, h=1.0 / 64.0):
    params = make_params(p, mu)
    grid = RadialGrid(h=h, n=int(round(R / h)))
    r = grid.r
    u0 = amp * np.exp(-r * r / (2.0 * width * width)) if kind == "gaussian" else bump(r, 1.0, amp)
    s0 = RadialState(grid=grid, params=params, t=0.0, u=u0, v=np.zeros(grid.n + 1))
    cfg = SolverConfig(grid=grid, params=params, t_final=1.5, snapshot_stride=1,
                       linear=linear,
                       cone_floor=None if kind == "gaussian" else 1e-13)
    return evolve(cfg, s0)


# the fifth column is the origin band, a solver setting these runs once
# took: the u-form source has none, and the column keeps the case ids
@pytest.mark.parametrize("p, mu, linear, kind, band, amp", [
    (5.0, 1, True, "gaussian", 2, 1.0),  # E_h conserved
    (7.0, 1, False, "bump", 2, 1.0),
    (5.0, -1, False, "gaussian", 2, 1.0),
    (9.0, -1, False, "bump", 6, 0.8),
    (5.5, 1, False, "gaussian", 3, 2.0),
    (13.0, -1, False, "bump", 4, 0.7),
])
def test_discrete_energy_ledger_is_exact(p, mu, linear, kind, band, amp):
    traj = _ledger_run(p, mu, linear, kind, amp)
    residual, moved = _ledger(traj, linear)
    assert residual <= LEDGER_BOUND
    if not linear:  # E_h moves, and the ledger sees a wrong source sign
        assert moved > 1e3 * LEDGER_BOUND
        assert _ledger(traj, linear, mu=-mu)[0] > 1e3 * LEDGER_BOUND


def test_discrete_energy_ledger_is_exact_in_the_underflow_band():
    # a narrow gaussian on R = 8: |w|^{p-1} underflows to subnormals and 0
    # on the tail while w does not
    traj = _ledger_run(7.0, 1, False, "gaussian", 1.0, width=0.3, R=8.0)
    w = traj.states[-1].w
    assert np.any((w != 0.0) & (np.abs(w) ** 6.0 < np.finfo(float).tiny))
    assert _ledger(traj, False)[0] <= LEDGER_BOUND


@settings(max_examples=20)
@given(p=st.sampled_from([5.0, 6.0, 7.0, 9.0]), mu=st.sampled_from([-1, 1]),
       linear=st.booleans(), kind=st.sampled_from(["gaussian", "bump"]),
       amp=st.floats(min_value=0.05, max_value=0.8))
def test_discrete_energy_ledger_holds_for_any_data(p, mu, linear, kind, amp):
    traj = _ledger_run(p, mu, linear, kind, amp, h=1.0 / 32.0)
    assert _ledger(traj, linear)[0] <= LEDGER_BOUND


# --- linear exactness --------------------------------------------------------------


def test_hat_matches_dalembert():
    n, steps = 256, 200
    grid = RadialGrid(h=1.0, n=n)
    params = make_params(5.0, 1)
    w0 = _hat_w(n)
    s0 = _state_from_w(grid, params, w0)
    cfg = SolverConfig(grid=grid, params=params, t_final=float(steps),
                       linear=True, snapshot_stride=steps)
    traj = evolve(cfg, s0)

    def odd(k):
        k = np.asarray(k)
        out = np.zeros(k.shape)
        ok = np.abs(k) <= n
        out[ok] = np.sign(k[ok]) * w0[np.abs(k[ok]).astype(int)]
        return out

    j = np.arange(n + 1)
    w_exact = 0.5 * (odd(j + steps) + odd(j - steps))
    assert np.max(np.abs(traj.states[-1].w - w_exact)) <= 1e-12


def _reversed(config, fwd):
    # the time-symmetric stencil run backward: the last two layers in swapped
    # roles under t -> -t, v -> -v, stepped back to t = 0
    lo, hi = fwd.states[-2], fwd.states[-1]
    return evolve(dataclasses.replace(config, t_final=0.0),
                  dataclasses.replace(lo, t=-lo.t, v=-lo.v),
                  initial_prev=dataclasses.replace(hi, t=-hi.t, v=-hi.v))


def test_reversible_to_rounding():
    params = make_params(5.0, -1)
    grid = RadialGrid(h=1.0 / 128.0, n=512)
    u0 = bump(grid.r)
    v0 = 0.3 * bump(grid.r, radius=0.8)
    s0 = RadialState(grid=grid, params=params, t=0.0, u=u0, v=v0)
    steps = 128
    cfg = SolverConfig(grid=grid, params=params, t_final=steps * grid.h, snapshot_stride=1)
    cur = _reversed(cfg, evolve(cfg, s0)).states[-1]
    assert cur.t == pytest.approx(0.0, abs=1e-12)
    # node 0 is the even extrapolation, not evolved data; compare the rest
    assert np.max(np.abs(cur.u[1:] - u0[1:])) <= 1e-10


# --- characteristics ---------------------------------------------------------------


def test_traveling_wave_has_null_z1():
    # profile f(r - t) with the exact previous layer f(r + h) transports
    # without exciting the leftward characteristic field
    n = 512
    grid = RadialGrid(h=1.0, n=n)
    params = make_params(5.0, 1)
    prof = np.maximum(0.0, 1.0 - np.abs(np.arange(n + 1) - 100.0) / 40.0)
    back = np.zeros(n + 1)
    back[:-1] = prof[1:]
    s0 = _state_from_w(grid, params, prof)
    s_back = _state_from_w(grid, params, back, t=-1.0)
    cfg = SolverConfig(grid=grid, params=params, t_final=128.0,
                       linear=True, snapshot_stride=1, cone_floor=None)
    traj = evolve(cfg, s0, initial_prev=s_back)
    worst = max(
        float(np.max(np.abs(_characteristics(s)[0][1:-1]))) for s in traj.states[1:-1])
    assert worst <= 1e-12
    assert characteristic_transport_residual(traj, r0=40.0, t0=64.0,
                                             tau_max=32.0) <= 1e-10


def test_transport_residual_exact_on_scheme_fields():
    traj = _gauss_run(h=1.0 / 64.0)
    res = characteristic_transport_residual(traj, r0=0.5, t0=1.0, tau_max=0.5)
    assert res <= 1e-10


def test_transport_residual_detects_corruption():
    traj = _gauss_run(h=1.0 / 64.0)
    states = list(traj.states)
    s = states[48]
    v = s.v.copy()
    v[48] += 1e-3  # lies on the sampled leftward characteristic
    states[48] = RadialState(grid=s.grid, params=s.params, t=s.t, u=s.u, v=v)
    broken = Trajectory(grid=traj.grid, params=traj.params,
                        states=tuple(states), log=traj.log)
    assert characteristic_transport_residual(
        broken, r0=0.5, t0=1.0, tau_max=0.5) >= 1e-3


def test_transport_residual_requires_dense_snapshots():
    traj = _gauss_run(h=1.0 / 64.0, stride=4)
    with pytest.raises(KeyError, match="snapshot_stride"):
        characteristic_transport_residual(traj, r0=0.5, t0=1.0, tau_max=0.5)


# --- guards ------------------------------------------------------------------------


def test_cone_violation_raised_when_wave_reaches_boundary():
    params = make_params(5.0, 1)
    grid = RadialGrid(h=1.0 / 64.0, n=128)  # R = 2
    s0 = RadialState(grid=grid, params=params, t=0.0, u=bump(grid.r),
                     v=np.zeros(grid.n + 1))
    cfg = SolverConfig(grid=grid, params=params, t_final=2.0, snapshot_stride=16)
    with pytest.raises(ConeViolation) as exc:
        evolve(cfg, s0)
    assert isinstance(exc.value, SolverError)
    assert 0.0 < exc.value.t <= 2.0


def test_blowup_detected_with_time():
    params = make_params(5.0, -1)
    grid = RadialGrid(h=1.0 / 256.0, n=640)
    r = grid.r
    y = np.clip((r - 1.0) / 0.5, 0.0, 1.0)
    amp = 2.0 * 0.75 ** 0.25          # blows up at T = 0.25
    u0 = amp * (1.0 - y ** 3 * (10.0 - 15.0 * y + 6.0 * y * y))
    v0 = (0.5 / 0.25) * u0
    s0 = RadialState(grid=grid, params=params, t=0.0, u=u0, v=v0)
    cfg = SolverConfig(grid=grid, params=params, t_final=0.5,
                       snapshot_stride=8, cone_floor=None)
    with pytest.raises(BlowupDetected) as exc:
        evolve(cfg, s0)
    assert abs(exc.value.t - 0.25) <= 5.0 * grid.h


# the plateau blowup and a bump reaching R with the guard on, and two guard
# cases: a blowup on a log block's last row and a cone violation inside one
_ENDED_BY_A_GUARD = ["ode_flat_blowup", "bump_cone_violation", "blowup_on_block_last_row",
                     "cone_then_blowup_in_block"]


@pytest.mark.parametrize("step_log", [True, False])
@pytest.mark.parametrize("case", _ENDED_BY_A_GUARD)
def test_guard_error_keeps_the_run_before_its_layer(case, step_log):
    # at stride 1 the error's trajectory is the run ended one step before the
    # failing layer, bit for bit in every state and every log row
    cfg, s0, prev, expected = _oracle_case(case)
    cfg = dataclasses.replace(cfg, snapshot_stride=1)
    with pytest.raises(expected) as err:
        evolve(cfg, s0, prev, step_log=step_log)
    got = err.value.trajectory
    ref = evolve(dataclasses.replace(cfg, t_final=err.value.t - cfg.grid.h), s0, prev,
                 step_log=step_log)
    assert (got.grid, got.params, got.linear) == (ref.grid, ref.params, ref.linear)
    assert len(got.states) == round((err.value.t - s0.t) / cfg.grid.h) > 1
    if step_log:
        _assert_same_bits(got, ref)
    else:
        _assert_same_states(got, ref)
        assert got.log is None


@pytest.mark.parametrize("step_log", [True, False])
@pytest.mark.parametrize("case", _ENDED_BY_A_GUARD)
def test_guard_error_keeps_the_stored_layers_below_its_layer(case, step_log):
    cfg, s0, prev, expected = _oracle_case(case)
    cfg = dataclasses.replace(cfg, snapshot_stride=3)
    with pytest.raises(expected) as err:
        evolve(cfg, s0, prev, step_log=step_log)
    got, h = err.value.trajectory, cfg.grid.h
    j = round((err.value.t - s0.t) / h)
    assert [s.t for s in got.states] == [s0.t + k * h if k else s0.t
                                         for k in range(0, j, 3)]
    if step_log:
        assert len(got.log.t) == j
    else:
        assert got.log is None


def test_solver_error_made_directly_keeps_no_trajectory():
    assert SolverError("stopped", 0.5).trajectory is None
    assert BlowupDetected("field magnitude nan at t = 0.5", 0.5).trajectory is None


def test_finite_speed_of_support():
    params = make_params(7.0, 1)
    grid = RadialGrid(h=1.0 / 64.0, n=256)  # R = 4
    s0 = RadialState(grid=grid, params=params, t=0.0, u=bump(grid.r),
                     v=np.zeros(grid.n + 1))
    cfg = SolverConfig(grid=grid, params=params, t_final=1.5, snapshot_stride=96)
    traj = evolve(cfg, s0)
    log = traj.log
    rho0 = log.support_radius[0]
    assert np.all(log.support_radius <= rho0 + (log.t - log.t[0]) + 2.0 * grid.h)
    final = traj.states[-1]
    outside = grid.r > rho0 + 1.5 + 2.0 * grid.h
    assert np.max(np.abs(final.u[outside])) <= 1e-12


# --- bookkeeping -------------------------------------------------------------------


def test_snapshot_stride_and_log_shape():
    traj = _gauss_run(h=1.0 / 32.0, t_final=12.0 / 32.0, stride=5)
    # layers 0, 5, 10 plus the always-stored final layer 12
    assert np.allclose([s.t for s in traj.states], np.array([0, 5, 10, 12]) / 32.0)
    assert len(traj.log.t) == 13


def test_zero_step_run_makes_no_kernel_step():
    # the log's |u|^(p+1) overflows; a run of no steps synthesizes no back
    # layer, whose |w|^(p-1) would overflow too, and makes no auxiliary step,
    # so nothing else warns
    cfg, s0, _, _ = _oracle_case("overflow_to_nan")
    cfg = dataclasses.replace(cfg, t_final=s0.t)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        traj = evolve(cfg, s0)
    assert sorted((str(w.message), Path(w.filename).name) for w in seen) == [
        ("overflow encountered in power", "diagnostics.py")]
    assert traj.states == (s0,) and not np.isfinite(traj.log.energy[0])


def test_back_layer_errors_are_dropped_with_the_run_a_guard_ends():
    # the synthesized back layer's |w|^(p-1) overflows, as step 0's source
    # term does; the guard stops layer 1, and no kernel error is warned of
    cfg, s0, _, _ = _oracle_case("overflow_to_nan")
    cfg = dataclasses.replace(cfg, blowup_threshold=1e300)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(BlowupDetected) as err:
            evolve(cfg, s0)
    assert err.value.t == cfg.grid.h
    assert [str(w.message) for w in seen] == []


def test_zero_step_run_returns_initial_only():
    params = make_params(5.0, 1)
    grid = RadialGrid(h=0.1, n=10)
    s0 = RadialState(grid=grid, params=params, t=0.0,
                     u=np.zeros(11), v=np.zeros(11))
    traj = evolve(SolverConfig(grid=grid, params=params, t_final=0.0), s0)
    assert len(traj.states) == 1
    assert traj.states[0] is s0


def test_initial_layer_stored_verbatim():
    traj = _gauss_run(h=1.0 / 32.0, t_final=0.5)
    assert traj.states[0].t == 0.0
    assert np.max(np.abs(traj.states[0].v)) == 0.0


def _restart(traj, **settings):
    # one step from stored layers 10 and 11, the first as initial_prev
    prev, cur = traj.states[10], traj.states[11]
    cfg = SolverConfig(grid=traj.grid, params=traj.params, t_final=cur.t + traj.grid.h,
                       cone_floor=None, **settings)
    return evolve(cfg, cur, initial_prev=prev).states[-1]


def test_step_matches_evolve_layers():
    traj = _gauss_run(h=1.0 / 64.0, t_final=0.5)
    nxt = _restart(traj)
    assert nxt.t == pytest.approx(traj.states[12].t, abs=1e-12)
    assert np.max(np.abs(nxt.u - traj.states[12].u)) <= 1e-13


def test_off_lattice_t_final_rejected():
    params = make_params(5.0, 1)
    grid = RadialGrid(h=0.1, n=10)
    s0 = RadialState(grid=grid, params=params, t=0.0,
                     u=np.zeros(11), v=np.zeros(11))
    with pytest.raises(ValueError):
        evolve(SolverConfig(grid=grid, params=params, t_final=0.55), s0)


def test_initial_prev_time_gap_checked():
    params = make_params(5.0, 1)
    grid = RadialGrid(h=0.1, n=10)
    mk = lambda t: RadialState(grid=grid, params=params, t=t,
                               u=np.zeros(11), v=np.zeros(11))
    for t_final in (0.5, 0.0):  # a run of no steps checks it too
        cfg = SolverConfig(grid=grid, params=params, t_final=t_final)
        with pytest.raises(ValueError, match="one step before"):
            evolve(cfg, mk(0.0), initial_prev=mk(-0.25))


def test_solver_config_validation():
    params = make_params(5.0, 1)
    grid = RadialGrid(h=0.1, n=10)
    with pytest.raises(ValueError):
        SolverConfig(grid=grid, params=params, t_final=1.0, snapshot_stride=0)
    with pytest.raises(ValueError):
        SolverConfig(grid=grid, params=params, t_final=1.0, blowup_threshold=0.0)


# --- exact discrete symmetries -----------------------------------------------------


@settings(max_examples=20)
@given(p=st.floats(min_value=5.0, max_value=9.0),
       mu=st.sampled_from([-1, 1]),
       lam=st.sampled_from([0.5, 2.0, 3.0]))
def test_scaling_equivariance(p, mu, lam):
    # a (p - 1) = 2 makes the unit-CFL scheme commute with the scaling
    # symmetry; only rounding separates the two orders (measured over this
    # range: 4.8e-13 in u, 4.6e-12 in v, relative to the field maxima)
    params = make_params(p, mu)
    grid = RadialGrid(h=1.0 / 64.0, n=320)
    s0 = RadialState(grid=grid, params=params, t=0.0, u=bump(grid.r),
                     v=0.3 * bump(grid.r, radius=0.8))

    def run(s):
        return evolve(SolverConfig(grid=s.grid, params=params,
                                   t_final=s.t + 200 * s.grid.h, snapshot_stride=50), s)

    scaled_first = run(scale_state(s0, lam))
    for a, b in zip(run(s0).states, scaled_first.states):
        ref = scale_state(a, lam)
        assert b.t == pytest.approx(ref.t, abs=1e-12)
        assert np.max(np.abs(b.u - ref.u)) <= 1e-11 * np.max(np.abs(ref.u))
        assert np.max(np.abs(b.v - ref.v)) <= 1e-10 * np.max(np.abs(ref.v))


@pytest.mark.parametrize("p", [5.0, 6.5, 7.0])
@pytest.mark.parametrize("mu", [1, -1])
def test_three_grid_self_convergence_is_second_order(p, mu):
    # u(T) of gaussian data on h = 1/16, 1/32, 1/64 compared on the coarse
    # nodes: log2 of the ratio of successive differences is the order
    # (measured 2.005 to 2.053 over these six cases)
    params = make_params(p, mu)
    finals = []
    for k in (16, 32, 64):
        grid = RadialGrid(h=1.0 / k, n=8 * k)  # R = 8
        s0 = RadialState(grid=grid, params=params, t=0.0,
                         u=profile_gaussian(grid.r, 1.0, 1.0), v=np.zeros(grid.n + 1))
        cfg = SolverConfig(grid=grid, params=params, t_final=1.0, snapshot_stride=k,
                           cone_floor=None)
        finals.append(evolve(cfg, s0, step_log=False).states[-1].u)
    coarse, mid, fine = finals[0], finals[1][::2], finals[2][::4]
    order = np.log2(np.max(np.abs(coarse - mid)) / np.max(np.abs(mid - fine)))
    assert abs(order - 2.0) <= 0.1


@pytest.mark.parametrize("p, mu", [(5.0, -1), (6.5, 1), (7.0, -1), (9.0, 1)])
def test_nonlinear_time_reversal(p, mu):
    # N forward steps with evolve, then evolve back from the last two layers
    # to t = 0, matching every stored forward layer on the way (measured:
    # 2.6e-14 of max |w| after 256 steps)
    params = make_params(p, mu)
    grid = RadialGrid(h=1.0 / 128.0, n=512)
    s0 = RadialState(grid=grid, params=params, t=0.0, u=bump(grid.r),
                     v=0.3 * bump(grid.r, radius=0.8))
    steps = 256
    cfg = SolverConfig(grid=grid, params=params, t_final=steps * grid.h)
    fwd = evolve(cfg, s0)
    scale = max(np.max(np.abs(s.w)) for s in fwd.states)
    back = _reversed(cfg, fwd).states
    assert len(back) == steps and back[-1].t == pytest.approx(0.0, abs=1e-12)
    # back[k] is the layer at t = -(steps - 1 - k) h, forward layer steps - 1 - k
    worst = max(np.max(np.abs(b.w - f.w)) for b, f in zip(back[1:], fwd.states[-3::-1]))
    assert worst <= 1e-12 * scale
