"""Equation parameters, radial grids, field states, and exact reference solutions.

The equation under study is the radial semilinear wave equation in three space
dimensions,

    (d_t^2 - Delta) u + mu |u|^{p-1} u = 0,    p >= 5,

with mu = +1 (defocusing) or mu = -1 (focusing).  Its scaling symmetry
u -> lam^{-a} u(x/lam, t/lam), a = 2/(p-1), fixes the critical Sobolev exponent
s_p = 3/2 - 2/(p-1).  Everything downstream works with the reduced field
w = r * u on a uniform radial grid; a state stores (u, v = d_t u) and derives w.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

__all__ = [
    "EquationParams",
    "RadialGrid",
    "RadialState",
    "StepLog",
    "Trajectory",
    "even_origin_value",
    "load_state",
    "make_params",
    "reference_W",
    "reference_ode_blowup",
    "save_state",
    "scale_state",
    "state_from_text",
    "state_to_text",
]


@dataclass(frozen=True)
class EquationParams:
    """Exponent data for the equation. Build through :func:`make_params`.

    Attributes
    ----------
    p : float
        Nonlinearity exponent, p >= 5.
    mu : int
        Sign of the nonlinearity: +1 defocusing, -1 focusing.
    a : float
        Scaling rate 2 / (p - 1); u scales like lam^{-a}.
    m : float
        Dual exponent (p - 1) / 2, so that a * m = 1.
    s_p : float
        Critical Sobolev regularity 3/2 - 2/(p - 1).
    alpha_p : float
        Critical decay rate s_p - 1/2 = 1 - 2/(p - 1).
    """

    p: float
    mu: int
    a: float
    m: float
    s_p: float
    alpha_p: float


def make_params(p: float, mu: int) -> EquationParams:
    """Validate (p, mu) and derive the scaling exponents.

    The derived values satisfy a * m = 1 and m * (2 - a * p) = -1 up to
    rounding; s_p lies in [7/6, 3/2).  A p above about 1.8e16 puts 2/(p - 1)
    below half a unit in the last place of 3/2, so s_p would round to 3/2:
    it is rejected.
    """
    p = float(p)
    if not np.isfinite(p) or p < 5.0:
        raise ValueError(f"p must be a finite real >= 5, got {p}")
    if mu not in (-1, 1):
        raise ValueError(f"mu must be +1 or -1, got {mu}")
    a = 2.0 / (p - 1.0)
    m = (p - 1.0) / 2.0
    s_p = 1.5 - a
    if not s_p < 1.5:
        raise ValueError(f"p = {p!r} is too large: s_p = 3/2 - 2/(p - 1) rounds to 3/2")
    return EquationParams(p=p, mu=int(mu), a=a, m=m, s_p=s_p, alpha_p=s_p - 0.5)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid r_j = j * h for j = 0..n (n + 1 nodes, outer radius R = n*h)."""

    h: float
    n: int
    _r: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"grid spacing must be positive, got {self.h}")
        if self.n < 2:
            raise ValueError(f"need at least 3 nodes, got n = {self.n}")
        if not np.isfinite(self.h * self.h) or not np.isfinite(self.n * self.h):
            raise ValueError(f"h = {self.h!r}, n = {self.n} make h^2 or R = n h overflow")
        r = np.arange(self.n + 1, dtype=float) * self.h
        r.setflags(write=False)
        object.__setattr__(self, "_r", r)

    @property
    def r(self) -> np.ndarray:
        """Node coordinates, read-only, shape (n + 1,)."""
        return self._r

    @property
    def R(self) -> float:
        """Outer radius n * h."""
        return self.n * self.h

    @cached_property
    def _r_bytes(self) -> np.ndarray:
        """Coordinate column of the state text: row j holds ``f"{r_j!r} "`` as
        ASCII bytes, NUL padded as :func:`_float_text` writes it.

        Built on first use and held by this grid (not a field, so equality and
        hashing ignore it); every snapshot written on the grid shares it.
        """
        text = np.concatenate([_float_text(self._r[a:a + 2048])
                               for a in range(0, len(self._r), 2048)])
        text = text[:, text.any(axis=0)]  # drop the columns that are NUL in every row
        return np.hstack([text, np.full((len(text), 1), ord(" "), np.uint8)])

    @cached_property
    def _zero_rows(self) -> tuple:
        """State text of every node's row with u = v = +0.0, and where each row starts.

        A pair (text, offsets): row j is ``text[offsets[j]:offsets[j + 1]]``,
        newline included, so ``text[offsets[m]:]`` is the +0.0 tail from node
        m on.  Held like ``_r_bytes``.
        """
        tail = np.frombuffer(b"0.0 0.0\n", np.uint8)
        rows = np.hstack([self._r_bytes, np.broadcast_to(tail, (len(self._r), len(tail)))])
        text = rows.tobytes().translate(None, b"\0").decode("ascii")
        return text, array("q", accumulate(map(len, text.splitlines(True)), initial=0))


def _live_length(*cols: np.ndarray) -> int:
    """Length of the prefix outside which every column is exactly +0.0.

    +0.0 is the only float64 whose bits are all zero, so -0.0 counts as live
    (it prints as -0.0, and the solver's stencil carries its sign).
    """
    bits = np.zeros(len(cols[0]), dtype=np.uint64)
    for x in cols:
        bits |= x.view(np.uint64)
    idx = np.flatnonzero(bits)
    return int(idx[-1]) + 1 if idx.size else 0


def _nonneg_power(x: np.ndarray, e: float) -> np.ndarray:
    """np.power(x, e) for an exponent e > 0 and x >= 0 without -0.0 (as
    np.abs gives), NaN included, bit for bit.

    np.power is about 30 times slower on elements whose result underflows.
    Below theta = 2^(-1080/e) the exact x^e is under 2^-1080, 1/64 of the
    smallest subnormal, so pow rounds it to +0.0: those elements are written
    as +0.0 and only the others (NaN among them) go through np.power.
    """
    low = x < 2.0 ** (-1080.0 / e)
    if not low.any():
        return np.power(x, e)
    out = np.zeros_like(x)
    np.power(x, e, out=out, where=~low)
    return out


def _lattice_steps(x: float, h: float, name: str | None = None) -> int | None:
    """The whole k with x = k h to a relative tolerance of 1e-9 max(h, |x|):
    the one test of the unit-CFL lattice.  Off it (a non-finite x included,
    and |x / h| past 2^53, where a float no longer tells whole numbers apart)
    None, or a ValueError naming ``name`` when one is given."""
    k = int(round(x / h)) if abs(x / h) <= 2.0 ** 53 else None
    if k is not None and abs(x - k * h) <= 1e-9 * max(h, abs(x)):
        return k
    if name is not None:
        raise ValueError(f"{name} = {x} is not on the grid lattice (spacing {h})")
    return None


def _readonly(x, n_nodes: int, name: str) -> np.ndarray:
    arr = np.array(x, dtype=float, copy=True)
    if arr.shape != (n_nodes,):
        raise ValueError(f"{name} must have shape ({n_nodes},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RadialState:
    """Snapshot (u, v = d_t u) of the field at time t on a radial grid.

    Arrays are defensively copied, checked finite and read-only.  The
    reduced field w = r * u always vanishes at the origin node.
    """

    grid: RadialGrid
    params: EquationParams
    t: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.t):
            raise ValueError(f"time must be finite, got {self.t}")
        n_nodes = self.grid.n + 1
        object.__setattr__(self, "u", _readonly(self.u, n_nodes, "u"))
        object.__setattr__(self, "v", _readonly(self.v, n_nodes, "v"))

    @classmethod
    def _wrap(cls, grid: RadialGrid, params: EquationParams, t: float, u, v) -> RadialState:
        """A state around full-grid arrays that nothing else holds and that
        are known finite: made read-only in place, neither copied nor checked."""
        u.setflags(write=False)
        v.setflags(write=False)
        state = object.__new__(cls)
        for name, x in (("grid", grid), ("params", params), ("t", t), ("u", u), ("v", v)):
            object.__setattr__(state, name, x)
        return state

    @property
    def w(self) -> np.ndarray:
        """Reduced field w = r * u (w[0] = 0 identically)."""
        w = self.grid.r * self.u
        w.setflags(write=False)
        return w


# --- float64 text ---------------------------------------------------------------
#
# repr() of a float64 is its shortest round-trip decimal: the fewest
# significant digits that read back as the same double, the candidate nearest
# the double among several that short.  _float_text computes that text for a
# whole array.  With |x| = m 2^q (m the integer significand, 2^q one unit in
# the last place) and the exponent k of _float_tables, y = |x| / 10^k =
# m S lies in [0, 2^53 100), and every decimal that reads back as x lies
# within S / 2 of y (S / 4 below a power of two), S in [10, 100).  y is
# formed in double-double arithmetic (error below 2^-40), split into a whole
# part and a fraction, and the candidates are the integers of the interval:
# a multiple of 100 if there is one (it is the only one, and its trailing
# zeros give the shortest text), else the multiple of 10, else the integer,
# nearest y.  Each comparison that decides the digits has a margin of 2^-32
# or the element is undecided; undecided elements (a decimal within 2^-32 of
# a rounding boundary or of a tie) and non-finite ones are written by repr()
# itself.


@lru_cache(maxsize=1)
def _float_tables() -> tuple:
    """Tables of :func:`_float_text`, built on first use.

    ``scale``, shape (5, 2047), per biased exponent e of a finite double
    (2^q its unit in the last place, q = max(e, 1) - 1075): S = 2^q / 10^k
    as the double-double S_hi + S_lo (error below 2^-104 S), S_hi's
    Dekker halves S_1 + S_2 = S_hi of 26 bits each, and k = floor(q log10 2)
    - 1, so that S lies in [10, 100).  ``quad``: the four ASCII digits of
    0..9999 as one uint32 each.  ``power``: 10^0 .. 10^18 as int64.
    ``exponent``, shape (633, 5): repr()'s exponent text "e-324" ..
    "e+308", NUL padded.  ``keep``, shape (29, 7): per text end b, the
    uint32 masks of a row of :func:`_float_text` that keep its bytes
    0 .. b - 1 and clear the rest.
    """
    q = np.maximum(np.arange(2047), 1) - 1075
    k = ((q * 78913) >> 18) - 1  # floor(q log10 2) - 1 for |q| < 1650
    first = np.flatnonzero(np.diff(k, prepend=k[0] - 1))  # k rises by 0 or 1 per q
    parts = []
    for kk, qq in zip(k[first].tolist(), q[first].tolist()):
        # S = 2^(q - k) 5^-k: 5^-k is an integer for k <= 0; else
        # floor(2^b / 5^k) 2^-b has 110 bits, error below 2^-110 S
        b = 0 if kk <= 0 else (5 ** kk).bit_length() + 110
        num = 5 ** -kk if kk <= 0 else (1 << b) // 5 ** kk
        h = float(num)
        parts.append((h, float(num - int(h)), qq - kk - b))
    hi, lo, shift = np.array(parts).T
    # the exponents of one k share S up to a power of two
    j = k - k[0]
    scale = np.empty((5, 2047))
    scale[:2] = np.ldexp(np.array([hi, lo])[:, j], shift[j].astype(int) + q - q[first[j]])
    split = scale[0] * 134217729.0  # 2^27 + 1: Veltkamp's split
    scale[2] = split - (split - scale[0])
    scale[3] = scale[0] - scale[2]
    scale[4] = k
    digit = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
    quad = (digit % 10 + ord("0")).astype(np.uint8).view("<u4").ravel()
    exponent = np.array([f"e{e:+03d}".encode() for e in range(-324, 309)], "S5")
    keep = (np.arange(28) < np.arange(29)[:, None]).astype(np.uint8) * 255
    return (scale, quad, 10 ** np.arange(19, dtype=np.int64),
            exponent.view(np.uint8).reshape(-1, 5), keep.view("<u4"))


_MARGIN = 2.0 ** -32  # the computed y and bounds err by less than 2^-40


def _shortest_digits(x: np.ndarray) -> tuple:
    """repr()'s digits of a float64 array: (digits, count, point, sure).

    |x| reads as 0.d_1 d_2 ... d_count times 10^point, the d_i being the
    decimal digits of the int64 ``digits``, the last of them not 0; +-0.0
    gives digits 0, count 1, point 1.  ``sure`` is False where the element
    is not finite or its digits were not decided.
    """
    scale, _, power, _, _ = _float_tables()
    bits = x.view(np.int64)
    biased = (bits >> 52) & 0x7FF
    frac = bits & 0xFFFFFFFFFFFFF
    s_hi, s_lo, s_1, s_2, k = scale.take(np.minimum(biased, 2046), axis=1)
    m = frac + (biased > 0) * (1 << 52)  # the significand
    m_1 = (m >> 26 << 26).astype(float)  # Dekker halves of m, exact products
    m_2 = (m & 0x3FFFFFF).astype(float)
    m = m_1 + m_2
    # y = m S as whole + frac_y, frac_y in [0, 1)
    lead = m * s_hi
    tail = ((m_1 * s_1 - lead) + m_1 * s_2 + m_2 * s_1) + m_2 * s_2 + m * s_lo
    whole = np.floor(lead)
    tail += lead - whole
    carry = np.floor(tail)
    frac_y = tail - carry
    whole = whole.astype(np.int64) + carry.astype(np.int64)
    # the integers in the interval are those in (low, high]
    half = 0.5 * s_hi
    up, down = frac_y + half, frac_y - np.where((frac == 0) & (biased > 1), 0.5 * half, half)
    high, low = np.floor(up), np.floor(down)
    sure = ((np.abs(up - high - 0.5) < 0.5 - _MARGIN)
            & (np.abs(down - low - 0.5) < 0.5 - _MARGIN) & (biased < 2047))
    high = whole + high.astype(np.int64)
    low = whole + low.astype(np.int64)
    width = high - low
    high_10 = high // 10
    high_100 = high_10 // 10
    by_100 = high - 100 * high_100 < width  # a multiple of 100 lies in the interval
    by_10 = high - 10 * high_10 < width
    # else the multiple of unit nearest y; twice its rounding remainder decides
    unit = np.where(by_10, 10, 1)
    near = np.where(by_10, whole // 10, whole)
    twice = (2 * (whole - near * unit) - unit).astype(float) + 2.0 * frac_y
    first = np.where(by_10, low // 10, low) + 1
    last = np.where(by_10, high_10, high)
    sure &= by_100 | (first == last) | (np.abs(twice) > 2.0 * _MARGIN)
    digits = np.where(by_100, high_100, np.minimum(np.maximum(near + (twice > 0.0), first), last))
    shift = k.astype(np.intp) + by_100 + by_10  # |x| reads as digits 10^shift
    # only a multiple of 100 can end in 0: drop its zeros
    ends = np.flatnonzero(by_100)
    ends = ends[(digits[ends] % 10 == 0) & (digits[ends] != 0)]
    while ends.size:
        digits[ends] //= 10
        shift[ends] += 1
        ends = ends[digits[ends] % 10 == 0]
    count = np.searchsorted(power, np.maximum(digits, 1), side="right")
    sure &= count <= 17
    point = count + shift
    point[digits == 0] = 1
    return digits, count, point, sure


_COLS = np.arange(28)


def _float_text(x: np.ndarray) -> np.ndarray:
    """repr(float(v)) of each element of a float64 array, as ASCII bytes.

    The result has shape (len(x), 28): row i holds element i's text with
    NUL bytes in between and after it, which the caller removes.  It equals
    repr() for every float64: fixed notation for a decimal point position in
    -3 .. 16 (1e-4 to below 1e16), ``.0`` on whole numbers, else
    ``d.ddde+XX``; ``-`` for a set sign bit, -0.0 included.  Elements whose
    digits are not decided, and NaN and infinities, are written by repr()
    itself.
    """
    digits, count, point, sure = _shortest_digits(x)
    _, quad, power, exponent, keep = _float_tables()
    n = len(x)
    expo = (point < -3) | (point > 16)
    zeros = np.where(expo | (point > 0), 0, 1 - point)  # the zeros of "0.000ddd"
    # the 25 places p_0 .. p_24: the zeros, the digits, zeros after them; in
    # two parts, p_0 .. p_12 and p_13 .. p_24, each exact in an int64
    e = 25 - count - zeros
    cut = power[np.maximum(12 - e, 0)]
    top = digits // cut
    halves = np.empty((2, n), np.int64)
    halves[1] = (digits - top * cut) * power[np.minimum(e, 18)]
    top *= power[np.maximum(e - 12, 0)]
    first = top // 10 ** 12  # p_0
    halves[0] = top - first * 10 ** 12
    # p_1 .. p_24 as six groups of four
    groups = np.empty((2, 3, n), np.intp)
    groups[:, 0] = halves // 10 ** 8
    groups[:, 1] = halves // 10 ** 4
    groups[:, 2] = halves - 10 ** 4 * groups[:, 1]
    groups[:, 1] -= 10 ** 4 * groups[:, 0]
    # four bytes per uint32: the sign, p_0 and the dot, then p_1 .. p_24 at
    # bytes 4 .. 27
    text = np.empty((n, 7), np.uint32)
    text[:, 0] = (x.view(np.int64) < 0) * ord("-") + (first + ord("0") + 256 * ord(".")) * 256
    text[:, 1:] = quad[groups.reshape(6, n).T]
    chars = text.view(np.uint8)
    # the dot follows p_(dot - 1); where dot > 1 the places from p_dot on
    # move up one byte and the dot goes before them
    dot = np.where(expo, 1, np.maximum(point, 1))
    wide = np.flatnonzero(dot > 1)
    if wide.size:
        at = dot[wide, None] + 3  # the byte of p_dot
        moved = chars[wide]
        moved = np.where(_COLS > at, np.roll(moved, 1, axis=1), moved)
        moved[:, 2] = 0
        chars[wide] = np.where(_COLS == at, ord("."), moved)
    # the text ends after the last nonzero place, or at "d.0"; "d" before an
    # exponent drops the dot.  The exponent follows the digits.
    last = zeros + count - 1
    end = np.maximum(last, dot) + 4 + (dot > 1) - 3 * (expo & (last == 0))
    text &= keep.take(end, axis=0)
    ex = np.flatnonzero(expo)
    if ex.size:
        at = (28 * ex + end[ex])[:, None] + np.arange(5)
        chars.reshape(-1)[at] = exponent[np.clip(point[ex] + 323, 0, 632)]
    slow = np.flatnonzero(~sure)
    if slow.size:
        pad = b"".join(repr(v).encode("ascii").ljust(28, b"\0") for v in x[slow].tolist())
        chars[slow] = np.frombuffer(pad, np.uint8).reshape(-1, 28)
    return chars


def _text_rows(cols, seps: str, lead: np.ndarray | None = None) -> str:
    """Text of rows of float64 columns: row i is ``lead``'s row i (NUL
    padded, like :func:`_float_text`'s result), then for each column j
    repr() of its element i followed by ``seps[j]``.

    Rows are formatted 2048 values at a time, so the arrays of a chunk stay
    small whatever the column length.
    """
    k, n = len(cols), len(cols[0])
    wide = 0 if lead is None else lead.shape[1]
    sep = np.frombuffer(seps.encode("ascii"), np.uint8)
    parts = []
    for a in range(0, n, 2048 // k):
        b = min(a + 2048 // k, n)
        rows = np.empty((b - a, wide + 29 * k), np.uint8)
        if lead is not None:
            rows[:, :wide] = lead[a:b]
        block = rows[:, wide:].reshape(b - a, k, 29)
        block[:, :, :28] = _float_text(np.concatenate([c[a:b] for c in cols])).reshape(
            k, b - a, 28).swapaxes(0, 1)
        block[:, :, 28] = sep
        parts.append(rows.tobytes())
    return b"".join(parts).translate(None, b"\0").decode("ascii")


def _csv_text(header: str, rows, comment: str | None = None) -> str:
    """CSV text: an optional ``# comment`` line, the header, then one line per
    row of Python numbers, each in repr (shortest round-trip) form."""
    lines = [f"# {comment}"] if comment else []
    lines.append(header)
    lines += [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class StepLog:
    """Per-step scalar diagnostics of an evolution run.

    One entry per time layer: time, conserved energy, virial functional,
    max |u| over the grid, and the support radius (largest r with
    max(|u|, |v|) > 1e-12, or 0 for an empty field).
    """

    t: np.ndarray
    energy: np.ndarray
    virial: np.ndarray
    max_abs_u: np.ndarray
    support_radius: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.t)
        for f in fields(self):
            arr = np.array(getattr(self, f.name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"step log column {f.name} has mismatched length")
            arr.setflags(write=False)
            object.__setattr__(self, f.name, arr)

    def to_csv(self) -> str:
        """Serialize as CSV, each value as repr() writes it (shortest round-trip)."""
        return "t,E,z,max_abs_u,support_radius\n" + _text_rows(
            (self.t, self.energy, self.virial, self.max_abs_u, self.support_radius),
            ",,,,\n")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An evolution run: snapshot states plus the per-step scalar log, None
    for a run that was asked for none.

    Snapshot times are strictly increasing and all states share one grid and
    one parameter set.  ``linear`` records whether the nonlinearity was
    switched off for the run (diagnostics that reconstruct the source need
    to know).
    """

    grid: RadialGrid
    params: EquationParams
    states: tuple
    log: StepLog | None
    linear: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise ValueError("trajectory needs at least one snapshot")
        times = [s.t for s in self.states]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")
        for s in self.states:
            if s.grid != self.grid:
                raise ValueError("snapshot grid differs from trajectory grid")
            if s.params != self.params:
                raise ValueError("snapshot parameters differ from trajectory parameters")

    @cached_property
    def _layers(self) -> dict:
        """Stored states by their whole number of steps of h after the first
        one (:func:`_lattice_steps`); a state off that lattice is left out."""
        t0, h = self.states[0].t, self.grid.h
        return {k: s for s in self.states if (k := _lattice_steps(s.t - t0, h)) is not None}

    def state_at(self, t: float) -> RadialState:
        """Snapshot at time t; KeyError unless t is a stored lattice time."""
        k = _lattice_steps(t - self.states[0].t, self.grid.h)
        if k not in self._layers:  # None, off the lattice, is no key
            raise KeyError(f"no snapshot stored at t = {t}; snapshot_stride = 1 stores all")
        return self._layers[k]


def even_origin_value(f1: float, f2: float):
    """Quadratic even extrapolation to r = 0 from the first two interior values."""
    return (4.0 * f1 - f2) / 3.0


def scale_state(state: RadialState, lam: float) -> RadialState:
    """Apply the scaling symmetry u -> lam^{-a} u(x/lam, t/lam).

    Returns the state on the dilated grid (spacing lam * h, same node count),
    with u' = lam^{-a} u, v' = lam^{-a-1} v, t' = lam * t.  Node j of the new
    grid sits at lam * r_j, so r^a |u| is preserved node-wise up to rounding.
    """
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError(f"scaling factor must be positive, got {lam}")
    a = state.params.a
    grid = RadialGrid(h=state.grid.h * lam, n=state.grid.n)
    return RadialState(
        grid=grid,
        params=state.params,
        t=lam * state.t,
        u=state.u * lam ** (-a),
        v=state.v * lam ** (-a - 1.0),
    )


def reference_W(grid: RadialGrid) -> RadialState:
    """Static ground state W(r) = (1 + r^2/3)^{-1/2} of the focusing quintic equation.

    Satisfies Delta W = -W^5, decays like sqrt(3)/r (so r * W -> sqrt(3)), and is
    an exact steady solution for p = 5, mu = -1.  Returned with v = 0 at t = 0.
    """
    r = grid.r
    u = 1.0 / np.sqrt(1.0 + r * r / 3.0)
    return RadialState(
        grid=grid,
        params=make_params(5.0, -1),
        t=0.0,
        u=u,
        v=np.zeros_like(u),
    )


def _ode_blowup_constant(params: EquationParams) -> float:
    """c_p = (a (a + 1))^{1/(p-1)}, the amplitude of the ODE blowup solution."""
    a = params.a
    return (a * (a + 1.0)) ** (1.0 / (params.p - 1.0))


def reference_ode_blowup(params: EquationParams, T: float, t):
    """Space-independent focusing blowup u(t) = c_p (T - t)^{-a}.

    Solves u'' = |u|^{p-1} u (the equation with mu = -1 and no spatial
    variation) with c_p^{p-1} = a (a + 1); for p = 5, c_p = (3/4)^{1/4}.
    Accepts scalar or array t < T.
    """
    if params.mu != -1:
        raise ValueError("the reference blowup solves the focusing equation (mu = -1)")
    t = np.asarray(t, dtype=float)
    if np.any(t >= T):
        raise ValueError("the reference blowup is defined for t < T only")
    a = params.a
    out = _ode_blowup_constant(params) * (T - t) ** (-a)
    return float(out) if out.ndim == 0 else out


# --- state serialization -----------------------------------------------------
#
# Text format: first line is a JSON header (p, mu, h, n, t), then one row per
# node "r u v" with repr() decimals, so a write/read cycle is bit-exact.  The
# coordinates and the live values are formatted by _float_text, whose text
# equals repr()'s for every float64, so the format is the one repr() gives
# row by row.


def state_to_text(state: RadialState) -> str:
    """Format a state; only the live prefix of (u, v) is converted to text.

    The live rows join the grid's cached coordinate bytes with u and v as
    :func:`_float_text` writes them.  Rows beyond the prefix hold +0.0 in
    both columns; they are taken as one slice of the grid's cached zero-row
    text, which is what repr() gives, so the output is the same as formatting
    every row with repr().
    """
    header = {
        "p": state.params.p,
        "mu": state.params.mu,
        "h": state.grid.h,
        "n": state.grid.n,
        "t": state.t,
    }
    zeros, offsets = state.grid._zero_rows
    m = _live_length(state.u, state.v)
    return "".join(["# " + json.dumps(header) + "\n",
                    _text_rows((state.u[:m], state.v[:m]), " \n", state.grid._r_bytes),
                    zeros[offsets[m]:]])


@lru_cache(maxsize=8)
def _shared_grid(h: float, n: int) -> RadialGrid:
    """The reader's grid for (h, n), so that loaded states share its r and text caches.

    Grids are immutable, so sharing one is safe; at most 8 are held.
    """
    return RadialGrid(h=h, n=n)


def _zero_tail(text: str, grid: RadialGrid) -> int:
    """First node of the trailing block of ``text`` that is the grid's +0.0 rows.

    The block is the longest suffix of ``text`` equal to the grid's zero-row
    text from some node j on, with a newline just before it; n + 1 when
    there is none.  j is found by one binary search.  It keeps ``hi``, a
    node from which the text is known to end in the zero rows, and compares
    a probe ``mid < hi`` on the rows mid .. hi - 1 only, so every probe is
    exact and the search monotone.
    """
    zeros, offsets = grid._zero_rows
    shift = len(text) - len(zeros)  # row j would start at offsets[j] + shift
    lo, hi = 0, grid.n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        start = offsets[mid] + shift
        if start > 0 and text.startswith(zeros[offsets[mid]:offsets[hi]], start):
            hi = mid
        else:
            lo = mid + 1
    if lo <= grid.n and text[offsets[lo] + shift - 1] != "\n":
        lo += 1  # row lo is glued to the line before; the rows after it are not
    return lo


def state_from_text(text: str) -> RadialState:
    """Parse a state text; accepts and rejects exactly what parsing every row does.

    The trailing block of rows that are the grid's +0.0 rows as written (see
    :func:`_zero_tail`) is not parsed: those nodes get +0.0.  The rows
    before it go through ``np.loadtxt``, which parses like float() and
    rejects rows whose column count differs.
    """
    first = text.lstrip().partition("\n")[0].splitlines()  # line 0 of the stripped text
    if not first or not first[0].startswith("#"):
        raise ValueError("missing JSON header line")
    header = json.loads(first[0].lstrip("#").strip())
    for key in ("p", "mu", "h", "n", "t"):
        if key not in header:
            raise ValueError(f"header is missing field {key!r}")
    grid = _shared_grid(float(header["h"]), int(header["n"]))
    live = _zero_tail(text, grid)
    zeros, offsets = grid._zero_rows
    # the text before the block ends in a newline, so its lines followed by
    # the block's rows are the lines of the whole text; stripping its end
    # changes no row, as np.loadtxt ignores trailing whitespace
    lines = text[:len(text) - len(zeros) + offsets[live]].strip().splitlines()
    rows = [ln for ln in lines[1:] if ln.strip()]
    if len(rows) != live:
        raise ValueError(f"expected {grid.n + 1} node rows, "
                         f"found {len(rows) + grid.n + 1 - live}")
    u = np.zeros(grid.n + 1)
    v = np.zeros(grid.n + 1)
    if rows:
        data = np.loadtxt(rows, dtype=float, comments=None, ndmin=2)
        if data.shape[1] != 3:
            raise ValueError("node rows must have three columns: r u v")
        if not np.array_equal(data[:, 0], grid.r[:live]):
            raise ValueError("node coordinates do not match the header grid")
        u[:live] = data[:, 1]
        v[:live] = data[:, 2]
    return RadialState(
        grid=grid,
        params=make_params(float(header["p"]), int(header["mu"])),
        t=float(header["t"]),
        u=u,
        v=v,
    )


def save_state(state: RadialState, path) -> None:
    """Write a state to a text file (see :func:`state_to_text` for the format)."""
    with open(path, "w") as fh:
        fh.write(state_to_text(state))


def load_state(path) -> RadialState:
    """Read a state written by :func:`save_state`; the cycle is bit-exact."""
    with open(path) as fh:
        return state_from_text(fh.read())
