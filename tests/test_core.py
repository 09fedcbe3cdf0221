import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlwlab import (
    RadialGrid,
    RadialState,
    StepLog,
    Trajectory,
    load_state,
    make_params,
    reference_W,
    reference_ode_blowup,
    save_state,
    scale_state,
)
from nlwlab.core import (
    _live_length,
    _zero_tail,
    even_origin_value,
    state_from_text,
    state_to_text,
)

EPS = np.finfo(float).eps


# --- parameter bundle ----------------------------------------------------------


def test_params_p5():
    p = make_params(5.0, -1)
    assert p.a == 0.5
    assert p.m == 2.0
    assert p.s_p == 1.0
    assert p.alpha_p == 0.5
    assert p.mu == -1


def test_params_p7():
    p = make_params(7.0, 1)
    assert p.m == 3.0
    assert abs(p.a - 1.0 / 3.0) <= EPS
    assert abs(p.s_p - (1.5 - 1.0 / 3.0)) <= EPS


@given(st.floats(min_value=5.0, max_value=20.0))
def test_params_product_identity(p):
    q = make_params(p, 1)
    # a * m is algebraically 1; float rounding stays below half an ulp
    assert abs(q.a * q.m - 1.0) <= 0.5 * EPS


@given(st.floats(min_value=5.0, max_value=20.0))
def test_params_criticality_identity(p):
    q = make_params(p, 1)
    # m (2 - a p) = -1; error grows with p through the a*p product rounding
    assert abs(q.m * (2.0 - q.a * q.p) + 1.0) <= 4.0 * EPS * p


def test_params_criticality_tight_at_small_p():
    q5 = make_params(5.0, 1)
    assert q5.m * (2.0 - q5.a * q5.p) == -1.0  # dyadic a: exact
    q7 = make_params(7.0, 1)
    assert abs(q7.m * (2.0 - q7.a * q7.p) + 1.0) <= 4.0 * EPS


@pytest.mark.parametrize("bad_p", [4.9, 1.0, 0.0, -5.0, float("inf"), float("nan")])
def test_params_rejects_bad_p(bad_p):
    with pytest.raises(ValueError):
        make_params(bad_p, 1)


def test_params_keep_s_p_below_three_halves():
    # 2/(p - 1) under half a unit in the last place of 3/2 rounds s_p to 3/2
    assert make_params(1e16, 1).s_p < 1.5
    for p in (1e17, 1e300):
        with pytest.raises(ValueError, match="s_p = 3/2 - 2/\\(p - 1\\) rounds to 3/2"):
            make_params(p, 1)


@pytest.mark.parametrize("bad_mu", [0, 2, -2])
def test_params_rejects_bad_mu(bad_mu):
    with pytest.raises(ValueError):
        make_params(5.0, bad_mu)


# --- grid ----------------------------------------------------------------------


def test_grid_nodes():
    g = RadialGrid(h=0.25, n=8)
    assert g.R == 2.0
    assert np.array_equal(g.r, 0.25 * np.arange(9))
    assert g.r[0] == 0.0


def test_grid_nodes_are_readonly():
    g = RadialGrid(h=0.1, n=4)
    with pytest.raises(ValueError):
        g.r[0] = 1.0


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(h=0.0, n=4)
    with pytest.raises(ValueError):
        RadialGrid(h=0.1, n=1)


def test_grid_equality_ignores_cache():
    assert RadialGrid(h=0.1, n=4) == RadialGrid(h=0.1, n=4)
    assert hash(RadialGrid(h=0.1, n=4)) == hash(RadialGrid(h=0.1, n=4))


# --- states ----------------------------------------------------------------------


def test_state_w_view():
    g = RadialGrid(h=0.5, n=4)
    p = make_params(5.0, 1)
    u = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    s = RadialState(grid=g, params=p, t=0.0, u=u, v=np.zeros(5))
    assert np.array_equal(s.w, g.r * u)


def test_state_rejects_wrong_shape():
    g = RadialGrid(h=0.5, n=4)
    p = make_params(5.0, 1)
    with pytest.raises(ValueError):
        RadialState(grid=g, params=p, t=0.0, u=np.zeros(4), v=np.zeros(5))


def test_state_rejects_nonfinite():
    g = RadialGrid(h=0.5, n=4)
    p = make_params(5.0, 1)
    u = np.zeros(5)
    u[2] = np.nan
    with pytest.raises(ValueError):
        RadialState(grid=g, params=p, t=0.0, u=u, v=np.zeros(5))


def test_even_origin_value_exact_on_even_quadratics():
    # f = c0 + c2 r^2 sampled at h, 2h reproduces c0 exactly
    h, c0, c2 = 0.25, 1.5, -0.75
    f1 = c0 + c2 * h * h
    f2 = c0 + c2 * (2 * h) ** 2
    assert even_origin_value(f1, f2) == pytest.approx(c0, abs=1e-15)


# --- scaling ----------------------------------------------------------------------


def test_scale_state_exponents():
    g = RadialGrid(h=0.1, n=50)
    p = make_params(5.0, -1)
    u = np.exp(-g.r ** 2)
    v = 0.3 * u
    s = RadialState(grid=g, params=p, t=1.0, u=u, v=v)
    lam = 2.0
    z = scale_state(s, lam)
    assert z.grid.h == pytest.approx(0.2)
    assert z.grid.n == g.n
    assert z.t == pytest.approx(2.0)
    assert np.allclose(z.u, lam ** (-p.a) * u, rtol=1e-15)
    assert np.allclose(z.v, lam ** (-p.a - 1.0) * v, rtol=1e-15)


def test_scale_state_round_trip():
    g = RadialGrid(h=0.1, n=20)
    p = make_params(7.0, 1)
    s = RadialState(grid=g, params=p, t=0.5, u=np.linspace(0, 1, 21),
                    v=np.linspace(1, 0, 21))
    back = scale_state(scale_state(s, 2.0), 0.5)
    assert back.grid.h == pytest.approx(g.h)
    assert np.allclose(back.u, s.u, rtol=1e-15)
    assert np.allclose(back.v, s.v, rtol=1e-15)


def test_scale_state_rejects_bad_lambda():
    g = RadialGrid(h=0.1, n=4)
    p = make_params(5.0, 1)
    s = RadialState(grid=g, params=p, t=0.0, u=np.zeros(5), v=np.zeros(5))
    with pytest.raises(ValueError):
        scale_state(s, 0.0)


# --- reference solutions -----------------------------------------------------------


def test_reference_w_profile(w_state):
    r = w_state.grid.r
    assert w_state.u[0] == 1.0
    assert np.all(np.diff(w_state.u) < 0)
    assert np.allclose(w_state.u ** 2 * (1.0 + r * r / 3.0), 1.0, rtol=1e-14)
    assert np.all(w_state.v == 0.0)
    assert w_state.params.p == 5.0 and w_state.params.mu == -1


def test_reference_w_half_power_peak(w_state):
    # r^{1/2} u peaks at r = sqrt(3) with value (3/4)^{1/4}
    r = w_state.grid.r
    vals = np.sqrt(r) * w_state.u
    peak = float(np.max(vals))
    assert abs(peak - 0.75 ** 0.25) <= 1e-4
    assert abs(r[np.argmax(vals)] - np.sqrt(3.0)) <= 0.01


def test_reference_ode_blowup_values():
    p = make_params(5.0, -1)
    T = 0.25
    # c_p = (a(a+1))^{1/(p-1)} = (3/4)^{1/4} for p = 5
    c_p = 0.75 ** 0.25
    assert reference_ode_blowup(p, T, 0.0) == pytest.approx(c_p * T ** -0.5, rel=1e-15)
    ts = np.array([0.0, 0.1, 0.2])
    vals = reference_ode_blowup(p, T, ts)
    assert vals.shape == (3,)
    assert np.all(np.diff(vals) > 0)


def test_reference_ode_blowup_validation():
    with pytest.raises(ValueError):
        reference_ode_blowup(make_params(5.0, 1), 1.0, 0.0)  # defocusing
    with pytest.raises(ValueError):
        reference_ode_blowup(make_params(5.0, -1), 1.0, 1.0)  # t = T


# --- serialization -----------------------------------------------------------------


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2 ** 31))
def test_state_text_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    g = RadialGrid(h=0.125, n=n)
    p = make_params(7.0, -1)
    s = RadialState(grid=g, params=p, t=0.75,
                    u=rng.standard_normal(n + 1), v=rng.standard_normal(n + 1))
    back = state_from_text(state_to_text(s))
    assert back.grid == g
    assert back.params == p
    assert back.t == s.t
    assert np.array_equal(back.u, s.u)
    assert np.array_equal(back.v, s.v)


def test_state_file_round_trip(tmp_path):
    g = RadialGrid(h=0.5, n=4)
    p = make_params(5.0, 1)
    s = RadialState(grid=g, params=p, t=0.0, u=np.arange(5.0), v=np.zeros(5))
    path = tmp_path / "s.txt"
    save_state(s, path)
    back = load_state(path)
    assert np.array_equal(back.u, s.u)


def test_state_text_rejects_tampered_header():
    g = RadialGrid(h=0.5, n=4)
    p = make_params(5.0, 1)
    s = RadialState(grid=g, params=p, t=0.0, u=np.zeros(5), v=np.zeros(5))
    text = state_to_text(s)
    header = json.loads(text.splitlines()[0][2:])
    header["n"] = 7
    bad = "# " + json.dumps(header) + "\n" + "\n".join(text.splitlines()[1:]) + "\n"
    with pytest.raises(ValueError):
        state_from_text(bad)


# The state writer before it learned to skip the +0.0 tail, kept verbatim
# (with the row helper it used) as the byte-level oracle for state_to_text.


def _seed_float_rows(*cols: np.ndarray):
    for k in range(0, len(cols[0]), 512):
        yield from zip(*(c[k:k + 512].tolist() for c in cols))


def _seed_state_to_text(state: RadialState) -> str:
    header = {
        "p": state.params.p,
        "mu": state.params.mu,
        "h": state.grid.h,
        "n": state.grid.n,
        "t": state.t,
    }
    lines = ["# " + json.dumps(header)]
    lines += [f"{r!r} {u!r} {v!r}" for r, u, v in _seed_float_rows(state.grid.r, state.u, state.v)]
    return "\n".join(lines) + "\n"


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _assert_writes_like_seed(state):
    text = state_to_text(state)
    assert text == _seed_state_to_text(state)
    back = state_from_text(text)
    assert np.array_equal(_bits(back.u), _bits(state.u))  # signs of zero too
    assert np.array_equal(_bits(back.v), _bits(state.v))


@pytest.mark.parametrize("name", ["evolve_bump.json", "verify_w.json"])
def test_state_to_text_matches_seed_on_exemplar_runs(name):
    from nlwlab import solver
    from nlwlab.cli import build_initial, parse_config

    raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / name).read_text())
    cfg = parse_config(raw)
    traj = solver.evolve(cfg.run, build_initial(cfg.initial, cfg.grid, cfg.params))
    assert len(traj.states) > 2
    for state in traj.states:
        _assert_writes_like_seed(state)


def _edge_states():
    r = RadialGrid(h=0.125, n=40).r
    tiny = 5e-324  # smallest subnormal
    zero = np.zeros(41)

    def at(idx, val, base=zero):
        x = base.copy()
        x[idx] = val
        return x

    bump = np.where(r < 2.0, np.cos(0.25 * np.pi * r) ** 2, 0.0)
    return {
        "all_zero": (zero, zero),
        "last_node_only": (at(40, 1e-3), zero),
        "last_node_only_v": (zero, at(40, -2.5)),
        "neg_zero_tail_u": (at(35, -0.0, bump), zero),
        "neg_zero_tail_v": (bump, at(40, -0.0)),
        "subnormal_edge_u": (at(16, tiny, bump), 0.5 * bump),
        "subnormal_edge_v": (bump, at(17, -2.2250738585072014e-308, bump)),
        "subnormal_only": (at(3, -tiny), at(4, 1e-310)),
        "gaussian_full": (np.exp(-r ** 2), -2.0 * r * np.exp(-r ** 2)),
    }


@pytest.mark.parametrize("case", sorted(_edge_states()))
def test_state_to_text_matches_seed_on_edge_cases(case):
    u, v = _edge_states()[case]
    g = RadialGrid(h=0.125, n=40)
    _assert_writes_like_seed(RadialState(grid=g, params=make_params(5.0, -1),
                                         t=0.375, u=u, v=v))


_TEXT_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]))


@given(st.integers(min_value=2, max_value=40), st.data())
def test_state_to_text_matches_seed_with_zero_tails(n, data):
    # u and v get independent live lengths; everything past them is +0.0,
    # and the values (from hypothesis' floats) include -0.0 and subnormals
    cols = []
    for _ in range(2):
        live = data.draw(st.lists(_TEXT_FLOATS, max_size=n + 1))
        cols.append(np.array(live + [0.0] * (n + 1 - len(live)), dtype=float))
    h = data.draw(st.sampled_from([0.1, 0.125, 1.0 / 3.0, 7.5]))
    g = RadialGrid(h=h, n=n)
    _assert_writes_like_seed(RadialState(grid=g, params=make_params(7.0, 1),
                                         t=data.draw(st.floats(-1e3, 1e3)),
                                         u=cols[0], v=cols[1]))


def test_state_text_cache_belongs_to_its_grid():
    # same n, different h: interleaved writes must each use their own grid's
    # coordinate text
    p = make_params(5.0, -1)
    grids = [RadialGrid(h=0.1, n=30), RadialGrid(h=0.3, n=30)]
    rng = np.random.default_rng(7)
    for k in range(6):
        g = grids[k % 2]
        u = np.zeros(31)
        u[:10 + k] = rng.standard_normal(10 + k)
        s = RadialState(grid=g, params=p, t=0.1 * k, u=u, v=np.zeros(31))
        assert state_to_text(s) == _seed_state_to_text(s)
    for g in grids:
        assert "_r_bytes" in vars(g)  # filled by the writes above
        fresh = RadialGrid(h=g.h, n=g.n)
        assert g == fresh and hash(g) == hash(fresh)
    assert grids[0] != grids[1]


# The state reader before it learned to skip the +0.0 tail, kept verbatim as
# the oracle for state_from_text: same bits, and ValueError on the same texts.


def _seed_state_from_text(text: str) -> RadialState:
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing JSON header line")
    header = json.loads(lines[0].lstrip("#").strip())
    for key in ("p", "mu", "h", "n", "t"):
        if key not in header:
            raise ValueError(f"header is missing field {key!r}")
    grid = RadialGrid(h=float(header["h"]), n=int(header["n"]))
    rows = [ln for ln in lines[1:] if ln.strip()]
    if len(rows) != grid.n + 1:
        raise ValueError(f"expected {grid.n + 1} node rows, found {len(rows)}")
    # loadtxt parses like float() and rejects rows whose column count differs
    data = np.loadtxt(rows, dtype=float, comments=None, ndmin=2)
    if data.shape[1] != 3:
        raise ValueError("node rows must have three columns: r u v")
    if not np.array_equal(data[:, 0], grid.r):
        raise ValueError("node coordinates do not match the header grid")
    return RadialState(
        grid=grid,
        params=make_params(float(header["p"]), int(header["mu"])),
        t=float(header["t"]),
        u=data[:, 1],
        v=data[:, 2],
    )


def _read_outcome(reader, text):
    try:
        s = reader(text)
    except ValueError:
        return "ValueError"
    return (s.grid, s.params, s.t, _bits(s.u).tolist(), _bits(s.v).tolist())


def _mutate(text, kind, row, token):
    """Text with one change at node row ``row`` (line 0 is the header)."""
    lines = text.splitlines(keepends=True)
    i = row + 1
    cols = lines[i].split()
    if kind in ("-0.0", "0.00", "0e0"):
        cols[token] = kind
    elif kind == "extra_token":
        cols.append("0.0")
    elif kind == "missing_token":
        del cols[token]
    elif kind == "coordinate_spelling":
        cols[0] = cols[0] + "0" if "." in cols[0] else cols[0] + ".0"
    elif kind == "coordinate_value":
        cols[0] = repr(float(cols[0]) + 1.0)
    elif kind == "trailing_space":
        lines[i] = lines[i].replace("\n", "\u3000\n" if token == 1 else " \t\n")
    elif kind == "glued":
        lines[i - 1] = lines[i - 1].rstrip("\n")
    elif kind == "tab":
        lines[i] = lines[i].replace(" ", "\t", 1)
    elif kind == "crlf_row":
        lines[i] = lines[i].replace("\n", "\r\n")
    elif kind == "crlf_all":
        return text.replace("\n", "\r\n")
    elif kind == "blank_interior":
        lines.insert(i, " \n" if token else "\n")
    elif kind == "blank_trailing":
        lines.append(" \n" if token else "\n")
    elif kind == "no_final_newline":
        return text[:-1]
    if kind in ("-0.0", "0.00", "0e0", "extra_token", "missing_token",
                "coordinate_spelling", "coordinate_value"):
        lines[i] = " ".join(cols) + "\n"
    return "".join(lines)


_MUTATIONS = ("none", "-0.0", "0.00", "0e0", "extra_token", "missing_token",
              "coordinate_spelling", "coordinate_value", "trailing_space", "glued",
              "tab", "crlf_row", "crlf_all", "blank_interior", "blank_trailing",
              "no_final_newline")


@pytest.mark.parametrize("kind", _MUTATIONS)
def test_state_from_text_matches_seed_reader_at_the_boundary(kind):
    # every change at every row near the start of the +0.0 tail, on a state
    # with a tail, an all-zero state and a state without a tail
    g = RadialGrid(h=0.125, n=12)
    bump = np.where(g.r < 0.75, 1.0 - g.r, 0.0)  # live on nodes 0..5
    v = 0.5 * bump
    v[5] = -0.0
    states = [(bump, v), (np.zeros(13), np.zeros(13)), (bump + 1.0, bump)]
    for u, v in states:
        s = RadialState(grid=g, params=make_params(5.0, -1), t=0.5, u=u, v=v)
        text = state_to_text(s)
        live = _live_length(s.u, s.v)
        for row in sorted({0, live - 1, live, live + 1, 12} & set(range(13))):
            for token in (1, 2):
                mutated = _mutate(text, kind, row, token)
                assert (_read_outcome(state_from_text, mutated)
                        == _read_outcome(_seed_state_from_text, mutated)), (live, row, token)


@given(st.integers(min_value=2, max_value=30), st.data())
def test_state_from_text_matches_seed_reader(n, data):
    # random live prefixes (all-zero states and tails from the first row
    # included), then one change at the live/zero boundary or inside the tail
    live = data.draw(st.integers(min_value=0, max_value=n + 1))
    cols = []
    for _ in range(2):
        vals = data.draw(st.lists(_TEXT_FLOATS, min_size=live, max_size=live))
        cols.append(np.array(vals + [0.0] * (n + 1 - live), dtype=float))
    h = data.draw(st.sampled_from([0.1, 0.125, 1.0 / 3.0, 7.5]))
    s = RadialState(grid=RadialGrid(h=h, n=n), params=make_params(7.0, 1),
                    t=0.25, u=cols[0], v=cols[1])
    text = state_to_text(s)
    # the reader skips exactly the +0.0 tail of a written state
    assert _zero_tail(text, s.grid) == _live_length(s.u, s.v)
    kind = data.draw(st.sampled_from(_MUTATIONS))
    row = data.draw(st.integers(min_value=max(0, live - 2), max_value=n))
    token = data.draw(st.integers(min_value=1, max_value=2))
    mutated = _mutate(text, kind, row, token)
    # brute force: the first node j from which the text ends in the zero rows,
    # row j starting a line; n + 1 when there is none
    zeros, offsets = s.grid._zero_rows
    starts = [len(mutated) - len(zeros) + offsets[j] for j in range(n + 1)]
    assert _zero_tail(mutated, s.grid) == next(
        (j for j, start in enumerate(starts) if start > 0 and mutated[start - 1] == "\n"
         and mutated[start:] == zeros[offsets[j]:]), n + 1)
    outcome = _read_outcome(state_from_text, mutated)
    assert outcome == _read_outcome(_seed_state_from_text, mutated)
    if kind == "none":
        assert outcome[3:] == (_bits(s.u).tolist(), _bits(s.v).tolist())


def test_zero_tail_search_behind_rows_of_zero_row_length():
    # "1.0" and "0e0" have the length of "0.0": the rows in front of them still
    # line up with the zero-row text, which a binary search alone would take
    g = RadialGrid(h=0.1, n=7)
    v = np.zeros(8)
    v[3] = 1.0
    s = RadialState(grid=g, params=make_params(5.0, 1), t=0.0, u=np.zeros(8), v=v)
    text = state_to_text(s)
    assert _zero_tail(text, g) == 4
    mutated = _mutate(text, "0e0", 5, 2)
    assert _zero_tail(mutated, g) == 6
    outcome = _read_outcome(state_from_text, mutated)
    assert outcome == _read_outcome(_seed_state_from_text, mutated)
    back = state_from_text(mutated)
    assert np.array_equal(_bits(back.v), _bits(v)) and not back.u.any()


def test_state_from_text_parses_only_the_live_rows(monkeypatch):
    parsed = []

    def counting_loadtxt(rows, *args, **kwargs):
        parsed.append(len(rows))
        return loadtxt(rows, *args, **kwargs)

    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    g = RadialGrid(h=0.125, n=40)
    for u, v in _edge_states().values():
        s = RadialState(grid=g, params=make_params(5.0, -1), t=0.0, u=u, v=v)
        parsed.clear()
        back = state_from_text(state_to_text(s))
        live = _live_length(s.u, s.v)
        assert parsed == ([live] if live else [])
        assert np.array_equal(_bits(back.u), _bits(s.u))
        assert np.array_equal(_bits(back.v), _bits(s.v))


def test_loaded_states_share_one_grid_per_h_n():
    p = make_params(5.0, -1)
    texts = {}
    for h, n in [(0.1, 30), (0.3, 30), (0.1, 31)]:
        g = RadialGrid(h=h, n=n)
        u = np.zeros(n + 1)
        u[:5] = 1.0 + np.arange(5)
        texts[h, n] = state_to_text(RadialState(grid=g, params=p, t=0.0, u=u,
                                                v=np.zeros(n + 1)))
    loaded = {key: [state_from_text(texts[key]) for _ in range(2)] for key in texts}
    for (h, n), (a, b) in loaded.items():
        assert a.grid is b.grid
        assert (a.grid.h, a.grid.n) == (h, n)
        assert np.array_equal(a.grid.r, h * np.arange(n + 1))
        assert a.u[4] == 5.0 and not a.u[5:].any()
    grids = [states[0].grid for states in loaded.values()]
    assert len({id(g) for g in grids}) == 3


def _step_log_from_csv(text: str) -> StepLog:
    """The step-log CSV oracle: the header StepLog.to_csv writes, then one
    row of five floats per layer."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    assert lines and lines[0] == "t,E,z,max_abs_u,support_radius"
    rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    return StepLog(*np.array(rows, dtype=float).reshape(len(rows), 5).T)


def test_step_log_csv_round_trip():
    log = StepLog(t=np.array([0.0, 0.1]), energy=np.array([1.0, 1.0 + 1e-15]),
                  virial=np.array([-0.5, -0.6]), max_abs_u=np.array([1.0, 0.9]),
                  support_radius=np.array([2.0, 2.1]))
    back = _step_log_from_csv(log.to_csv())
    for name in ("t", "energy", "virial", "max_abs_u", "support_radius"):
        # repr survives the round trip
        assert np.array_equal(getattr(back, name), getattr(log, name))


# The step-log writer as the seed had it, kept verbatim as the byte-level
# oracle for StepLog.to_csv.


def _seed_step_log_csv(log: StepLog) -> str:
    lines = ["t,E,z,max_abs_u,support_radius"]
    lines += [f"{t!r},{e!r},{z!r},{m!r},{s!r}" for t, e, z, m, s in _seed_float_rows(
        log.t, log.energy, log.virial, log.max_abs_u, log.support_radius)]
    return "\n".join(lines) + "\n"


_CSV_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                     float("nan"), float("inf"), float("-inf")]))


@given(st.integers(min_value=0, max_value=30), st.data())
def test_step_log_csv_matches_seed_writer(n, data):
    cols = [data.draw(st.lists(_CSV_FLOATS, min_size=n, max_size=n)) for _ in range(5)]
    log = StepLog(*(np.array(c, dtype=float) for c in cols))
    assert log.to_csv() == _seed_step_log_csv(log)


def test_step_log_csv_matches_seed_writer_across_chunks():
    # 1,300 rows of random bit patterns (every exponent, NaNs and infinities
    # among them) next to evolve-like columns: rows on both sides of every
    # chunk boundary
    rng = np.random.default_rng(28)
    n = 1300
    bits = rng.integers(0, 2 ** 64, size=(2, n), dtype=np.uint64).view(float)
    t = np.arange(n) / 512.0
    log = StepLog(t=t, energy=bits[0], virial=bits[1],
                  max_abs_u=np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-20, 20, n),
                  support_radius=np.round(rng.random(n) * 4096) / 512.0)
    assert log.to_csv() == _seed_step_log_csv(log)


# --- trajectory container -----------------------------------------------------------


def _tiny_traj():
    g = RadialGrid(h=0.5, n=4)
    p = make_params(5.0, 1)
    states = tuple(
        RadialState(grid=g, params=p, t=float(k), u=np.zeros(5), v=np.zeros(5))
        for k in range(3))
    log = StepLog(t=np.array([0.0, 1.0, 2.0]), energy=np.zeros(3),
                  virial=np.zeros(3), max_abs_u=np.zeros(3),
                  support_radius=np.zeros(3))
    return Trajectory(grid=g, params=p, states=states, log=log)


def test_trajectory_state_lookup():
    traj = _tiny_traj()
    assert np.array_equal([s.t for s in traj.states], [0.0, 1.0, 2.0])
    assert traj.state_at(1.0).t == 1.0
    with pytest.raises(KeyError):
        traj.state_at(0.5)


def test_trajectory_state_at_follows_the_lattice_rule():
    traj = _tiny_traj()  # h = 0.5, states at t = 0, 1, 2
    assert traj.state_at(2.0 + 1e-10) is traj.states[2]  # within 1e-9 max(h, |t - t0|)
    for t in (1.25, np.nan, 1.5, -0.5):  # off the lattice, then not stored
        with pytest.raises(KeyError):
            traj.state_at(t)


def test_trajectory_requires_increasing_times():
    traj = _tiny_traj()
    with pytest.raises(ValueError):
        Trajectory(grid=traj.grid, params=traj.params,
                   states=(traj.states[1], traj.states[0]), log=traj.log)


_TINY = 2.2250738585072014e-308  # smallest normal float


@given(p=st.floats(min_value=5.0, max_value=13.0), data=st.data())
def test_nonneg_power_matches_np_power_bitwise(p, data):
    # the exponents of the norms (2(p - 1), p + 1) and of the kernel (p - 1);
    # x around theta_e (within one ulp), subnormal, zero, NaN, inf and normal
    from nlwlab.core import _nonneg_power
    e = data.draw(st.sampled_from([2.0 * (p - 1.0), p + 1.0, p - 1.0]))
    theta = 2.0 ** (-1080.0 / e)
    near = [np.nextafter(theta, 0.0), theta, np.nextafter(theta, 1.0)]
    element = st.one_of(
        st.sampled_from(near + [0.0, 5e-324, _TINY, np.nan, np.inf]),
        st.floats(min_value=0.0, max_value=_TINY),
        st.floats(min_value=0.5 * theta, max_value=2.0 * theta),
        st.floats(min_value=0.0, max_value=1e6))
    x = np.array(data.draw(st.lists(element, min_size=1, max_size=80)), dtype=float)
    for arr in (x, x[x >= theta], np.repeat(x, 9)):
        assert np.array_equal(_nonneg_power(arr, e).view(np.int64),
                              np.power(arr, e).view(np.int64))


# --- float64 text ----------------------------------------------------------------


def _texts(x):
    from nlwlab.core import _float_text
    chars = _float_text(np.asarray(x, dtype=float))
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in chars]


@given(st.lists(st.floats(), max_size=60))
def test_float_text_matches_repr(values):
    x = np.array(values, dtype=float)
    assert _texts(x) == [repr(float(v)) for v in x]


def test_float_text_matches_repr_on_random_bit_patterns():
    from nlwlab.core import _text_rows
    x = np.random.default_rng(2018).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64).view(float)
    assert _text_rows((x,), "\n") == "\n".join(map(repr, x.tolist())) + "\n"


def test_float_text_matches_repr_at_powers_and_edges():
    two = np.ldexp(1.0, np.arange(-1074, 1024))
    ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    edges = np.array([5e-324, 2.2250738585072014e-308, np.finfo(float).max, 1e-4, 1e16,
                      1e-5, 1e15, 2.0 ** 53, 0.1, 0.0])
    x = np.concatenate([two, ten, edges])
    with np.errstate(over="ignore"):
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    x = np.concatenate([x, -x])
    assert _texts(x) == [repr(float(v)) for v in x]
