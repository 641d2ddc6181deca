"""Littlewood-Paley blocks, Bony paraproducts, and the two norm helpers.

The dyadic partition lives in log2 of the wavenumber.  Block j >= 0 is a
plateau bump centred at j + 1/2 (plateau half-width 1/4, support
half-width 3/4); block -1 sits at -1/2 and catches the lowest modes.
After evaluating the raw bumps the weights are renormalized at every
mode, so the partition of unity is exact and block reconstruction is
bit-true, not merely close.

The three Bony pieces of a product f*g split over block pairs (i, j):
"lower" takes i <= j - 2, "resonant" |i - j| <= 1, "upper" i >= j + 2.
The time-smoothed variant replaces the low-pass factor with a causal
moving average whose memory shrinks like 2^(-gamma*i) with the block
index, mirroring the dissipation time-scale of that frequency band.

Q, the fixed block-side factor of the paracontrolled solver's
time-smoothed paraproduct, can be passed as ``_sample(q, n_modes)``:
each of its masked blocks is sampled once on the grid that block's
product uses, and ``modified_paraproduct`` then transforms only its
smoothed factor.  Grids and transforms are ``product_modes``' own, so
both routes give the same sums bit for bit.

The solvers' contraction norm on C^s cap H^s is the max of two row-wise
reads, both kept here so that every caller shares one definition:
``sobolev_norms`` gives the H^s norm of each row of a mode array, and
``holder_norms`` gives max_j 2^(js) times the block sup-norm, each
block read on an 8x-oversampled physical grid.

``intersection_sup`` is the max of both over all rows, and it skips the
block reads that cannot hold that max.  Block j of a real row with
coefficients c_k is 2 Re sum_k c_k w_jk e^(ikx), so its sup is at most
2 sum_k |c_k w_jk|, and 2^(js) times that bounds the pair's share of
the Hoelder norm with no FFT.  Starting from the largest Sobolev norm,
(row, block) pairs are read in order of descending bound, and a pair is
skipped when its bound times (1 + 1e-12) does not exceed the running
max.  The margin covers the roundoff by which a computed sup can exceed
the computed bound, so a skipped pair cannot raise the max, and the
returned float is the max of the full route bit for bit.  Every block
sup, here and in the regularity ladder, is read by ``_read_sups``.

``TimeMollifierBank.smooth`` convolves along time with numpy's FFT.  Its
lag kernel is real, so the kernel's spectrum is formed from the real
transform and its conjugate mirror: half the work of a complex
transform, and the same floats a real-input FFT gives, so the smoothed
values repeat those of a direct FFT convolution bit for bit.  The
spectrum and the clamped-history weights are cached per (dt, gamma, j,
horizon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BlockOutOfRange, GridMismatch
from .spectral import (
    FourierField,
    Grid,
    _next_fast_len,
    _product_grid,
    _product_of_samples,
    bump_profile,
    modes_to_physical,
)
from .trajectory import Trajectory

# ---------------------------------------------------------------- partition

_PLATEAU = 0.25
_SUPPORT = 0.75


def _transition(t: np.ndarray) -> np.ndarray:
    """Smooth step: 0 at t<=0, 1 at t>=1, C-infinity in between."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def _plateau_bump(d: np.ndarray) -> np.ndarray:
    """1 on |d| <= 1/4, 0 beyond |d| >= 3/4, smooth in between."""
    x = np.abs(d)
    return _transition((_SUPPORT - x) / (_SUPPORT - _PLATEAU))


@lru_cache(maxsize=32)
def _partition_weights(n_modes: int):
    """Rows j = -1..J of normalized block weights over modes 1..N."""
    logk = np.log2(np.arange(1, n_modes + 1, dtype=float))
    j_max = int(math.floor(logk[-1] + _PLATEAU))
    rows = np.arange(-1, j_max + 1)
    raw = _plateau_bump(logk[None, :] - (rows[:, None] + 0.5))
    raw /= raw.sum(axis=0, keepdims=True)
    raw.flags.writeable = False
    return rows, raw


@dataclass(frozen=True)
class DyadicPartition:
    """Exact smooth partition of unity over dyadic frequency blocks."""

    n_modes: int
    j_max: int = field(init=False)

    def __post_init__(self):
        rows, _ = _partition_weights(self.n_modes)
        object.__setattr__(self, "j_max", int(rows[-1]))

    def weights(self, j: int) -> np.ndarray:
        if not (-1 <= j <= self.j_max):
            raise BlockOutOfRange(
                f"block {j} outside -1..{self.j_max}")
        _, w = _partition_weights(self.n_modes)
        return w[j + 1]

    def lowpass_weights(self, m: int) -> np.ndarray:
        """Multiplier of the strict low-pass: sum of blocks i <= m - 1."""
        _, w = _partition_weights(self.n_modes)
        hi = min(m - 1, self.j_max) + 2  # one past the row of block m-1
        if hi <= 0:
            return np.zeros(self.n_modes)
        return w[:hi].sum(axis=0)


def lp_block(f: FourierField, j: int) -> FourierField:
    part = DyadicPartition(f.grid.n_modes)
    return FourierField(f.modes * part.weights(j), f.grid)


# ---------------------------------------------------------------- paraproducts


def _band(mask: np.ndarray) -> np.ndarray:
    """The mask cut after its last nonzero mode (read-only)."""
    nz = np.flatnonzero(mask)
    out = mask[:nz[-1] + 1 if nz.size else 0].copy()
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _para_masks(n_modes: int):
    """Per output block j: (lowpass S_{j-1} mask, resonant window mask,
    block mask), each cut to its band, i.e. after its last nonzero
    mode, so products of masked factors run on grids sized to the band.
    Masks of empty bands have length zero."""
    part = DyadicPartition(n_modes)
    _, w = _partition_weights(n_modes)
    out = []
    for j in range(-1, part.j_max + 1):
        lo = part.lowpass_weights(j - 1)
        lo_row = max(j - 1 + 1, 0)
        hi_row = min(j + 1 + 1, part.j_max + 1)
        window = w[lo_row:hi_row + 1].sum(axis=0)
        out.append((_band(lo), _band(window), _band(w[j + 1])))
    return tuple(out)


@lru_cache(maxsize=64)
def _pair_grids(n_modes: int, lower: bool):
    """The blocks of the lower (or resonant) pairing whose left band is
    not empty, each as (j, (left mask, block mask), m, top): the grid
    length and top that ``product_modes`` picks for the two masked
    factors."""
    out = []
    for j, (lo, window, blk) in enumerate(_para_masks(n_modes), start=-1):
        left = lo if lower else window
        if left.size:
            out.append((j, (left, blk))
                       + _product_grid(left.size, blk.size, n_modes))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class _Sampled:
    """Q held as its masked blocks sampled on their product grids:
    ``blocks[i]`` belongs to entry i of ``_pair_grids(n_modes, True)``,
    and the sampled Trajectory is kept for its times and grid."""

    n_modes: int
    blocks: tuple
    trajectory: Trajectory


def _sample(q: Trajectory, n_modes: int) -> _Sampled:
    """Sample q's masked blocks once on the grids of the lower pairing,
    so that every ``modified_paraproduct`` against it transforms only its
    smoothed factor.  The sums are the same bit for bit: the same arrays
    meet the same FFTs."""
    blocks = tuple(modes_to_physical(q.modes[..., :blk.size] * blk, m)
                   for _, (_, blk), m, _ in _pair_grids(n_modes, True))
    return _Sampled(n_modes, blocks, q)


def _bilinear(f_modes, g_modes, n_modes, which: str):
    """Shared engine: sums dealiased products of masked mode arrays.

    which = "lower": sum_j S_{j-1} f * Delta_j g
    which = "resonant": sum_{|i-j|<=1} Delta_i f * Delta_j g

    Blocks go one at a time, and each product is formed as soon as its
    block is sampled, so no sample outlives its block.
    """
    acc = np.zeros(np.broadcast_shapes(f_modes.shape, g_modes.shape),
                   dtype=np.complex128)
    for _, (left, blk), m, top in _pair_grids(n_modes, which == "lower"):
        acc += _product_of_samples(
            modes_to_physical(f_modes[..., :left.size] * left, m),
            modes_to_physical(g_modes[..., :blk.size] * blk, m), m, top,
            n_modes)
    return acc


def paraproduct_lower(f: FourierField, g: FourierField) -> FourierField:
    """Low-high pairing of f against g (f is the smoothed factor)."""
    if f.grid != g.grid:
        raise GridMismatch("paraproduct of fields on different grids")
    return FourierField(_bilinear(f.modes, g.modes, f.grid.n_modes, "lower"),
                        f.grid)


def resonant(f: FourierField, g: FourierField) -> FourierField:
    """Diagonal pairing over blocks at distance <= 1."""
    if f.grid != g.grid:
        raise GridMismatch("resonant product of fields on different grids")
    return FourierField(_bilinear(f.modes, g.modes, f.grid.n_modes,
                                  "resonant"), f.grid)


def paraproduct_upper(f: FourierField, g: FourierField) -> FourierField:
    """High-low pairing: mirror image of the lower paraproduct."""
    return paraproduct_lower(g, f)


def bony_decomposition(f: FourierField, g: FourierField):
    """(f lower g, f resonant g, f upper g); the three sum to f*g."""
    return paraproduct_lower(f, g), resonant(f, g), paraproduct_upper(f, g)


# ------------------------------------------------------- time-smoothed lower


def time_profile(u: np.ndarray) -> np.ndarray:
    """Causal mass-carrying profile supported in (0, 1)."""
    return bump_profile(2.0 * np.asarray(u, dtype=float) - 1.0)


@lru_cache(maxsize=256)
def _lag_weights(dt: float, gamma: float, j: int) -> np.ndarray:
    """Normalized causal lag weights for block j at step dt.

    The continuum kernel for block j has support (0, 2^(-gamma j)); the
    discrete weights sample it at lags l*dt and renormalize, so a
    constant-in-time input is reproduced exactly.  When the support
    holds no positive lag the kernel degenerates to a point mass at lag
    zero (no smoothing for bands faster than the time grid).
    """
    scale = 2.0 ** (-gamma * j)
    n_lags = int(math.floor(scale / dt))
    if n_lags >= 1:
        lags = np.arange(n_lags + 1, dtype=float)
        w = time_profile(lags * dt / scale)
        total = w.sum()
        if total > 0:
            w = w / total
            w.flags.writeable = False
            return w
    w = np.array([1.0])
    w.flags.writeable = False
    return w


def _real_fft(x: np.ndarray, m: int) -> np.ndarray:
    """Full m-point DFT along axis 0 of a real array: the real transform
    and its conjugate mirror."""
    half = np.fft.rfft(x, m, axis=0)
    return np.concatenate([half, half[1:(m + 1) // 2][::-1].conj()])


@lru_cache(maxsize=256)
def _smooth_kernel(dt: float, gamma: float, j: int, n: int):
    """(m, spectrum, tail) of the block-j average over n rows, or m = 0
    when the kernel is a point mass.  Row t reads lags <= t only, so the
    lag kernel is cut to n.  The average is a causal FFT convolution at
    a fast length m for complex input; the kernel is real, so its
    spectrum is its real transform plus the conjugate mirror
    (``_real_fft``), as a real-input FFT forms it (np.fft.fft of the
    kernel would differ at roundoff), and the result equals fftconvolve,
    the oracle in the tests, bit for bit.  Lags reaching past the first
    node read the clamped value there: ``tail`` weighs row 0."""
    w = _lag_weights(dt, gamma, j)[:n]
    if len(w) == 1:
        return 0, None, None
    m = _next_fast_len(n + len(w) - 1)
    spectrum = _real_fft(w, m)
    tail = np.zeros(n)
    tail[:len(w)] = np.clip(1.0 - np.cumsum(w), 0.0, None)
    spectrum.flags.writeable = False
    tail.flags.writeable = False
    return m, spectrum, tail


@dataclass(frozen=True)
class TimeMollifierBank:
    """Causal per-block moving averages with memory 2^(-gamma j)."""

    dt: float
    gamma: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not (1.0 < self.gamma <= 2.0):
            raise ValueError(f"gamma must lie in (1, 2], got {self.gamma}")

    def lag_weights(self, j: int) -> np.ndarray:
        return _lag_weights(self.dt, self.gamma, j)

    def mean_lag(self, j: int) -> float:
        w = self.lag_weights(j)
        return float(np.dot(w, np.arange(len(w))) * self.dt)

    def smooth(self, values: np.ndarray, j: int) -> np.ndarray:
        """Apply the block-j average along axis 0, reading index 0 for
        times before the start (clamped history)."""
        n = len(values)
        m, spectrum, tail = _smooth_kernel(self.dt, self.gamma, j, n)
        if m == 0:
            return values
        shape = (-1,) + (1,) * (values.ndim - 1)
        out = np.fft.ifft(np.fft.fft(values, m, axis=0)
                          * spectrum.reshape(shape), axis=0)[:n]
        return out + tail.reshape(shape) * values[0]


def modified_paraproduct(f: Trajectory, g, bank: TimeMollifierBank
                         ) -> Trajectory:
    """Lower paraproduct with a causally time-averaged low-pass factor;
    ``g`` may come as ``_sample(g, n_modes)``, taken for f's grid."""
    n_modes = f.grid.n_modes
    if not isinstance(g, _Sampled):
        g = _sample(g, n_modes)
    elif g.n_modes != n_modes:
        raise ValueError("Q sampled for another grid")
    f._check(g.trajectory)
    acc = np.zeros_like(g.trajectory.modes)
    for q_blk, (j, (lo, _), m, top) in zip(g.blocks,
                                           _pair_grids(n_modes, True)):
        left = bank.smooth(f.modes[..., :lo.size] * lo, j)
        acc += _product_of_samples(modes_to_physical(left, m), q_blk, m,
                                   top, n_modes)
    return Trajectory(g.trajectory.times, acc, g.trajectory.grid)


# ---------------------------------------------------------------- norms

_OVERSAMPLE = 8
_SUP_ROWS = 16


def sobolev_norms(modes: np.ndarray, grid: Grid, s: float) -> np.ndarray:
    """H^s norm sqrt(2 sum_k k^(2s) |c_k|^2) of every row of ``modes``;
    the leading axes are kept."""
    return _sobolev_of_moduli(np.abs(modes), grid, s)


def _sobolev_of_moduli(moduli: np.ndarray, grid: Grid, s: float
                       ) -> np.ndarray:
    """``sobolev_norms`` of the rows whose |c_k| are ``moduli``."""
    k = grid.wavenumbers
    return np.sqrt(2.0 * np.sum(k ** (2 * s) * moduli ** 2, axis=-1))


def _read_sups(band, out: np.ndarray, n_points: int) -> np.ndarray:
    """Fill ``out`` with the sup-norm of each band row on the n_points
    grid; ``band(sl)`` gives the masked modes of rows ``sl``.  Rows go
    _SUP_ROWS at a time, so each chunk's samples stay far below glibc's
    mmap threshold (at most 32 MiB, the value the harness fixes): they
    come from the heap, and every chunk reuses the pages the one before
    it freed, where one large temporary would be mmapped and faulted in
    afresh on every call.  This is the one place band rows become sups:
    max(x.max(), -x.min()) is max |x| without the |x| temporary, and the
    final abs only clears the sign of a zero."""
    for i in range(0, len(out), _SUP_ROWS):
        sl = slice(i, i + _SUP_ROWS)
        x = modes_to_physical(band(sl), n_points)
        np.abs(np.maximum(x.max(axis=-1), -x.min(axis=-1)), out=out[sl])
    return out


def _block_sup_norms(modes: np.ndarray, n_modes: int,
                     pairs: tuple | None = None) -> np.ndarray:
    """L-infinity of dyadic blocks, each read on an 8x-oversampled
    physical grid: of every block of every row, batched over leading
    axes, or, given ``pairs`` = (r, b), of block b[i] - 1 of row r[i]
    of the 2-D ``modes`` only (b indexes the partition's rows)."""
    _, w = _partition_weights(n_modes)
    n_points = _OVERSAMPLE * n_modes
    if pairs is not None:
        r, b = pairs
        return _read_sups(lambda sl: modes[r[sl]] * w[b[sl]],
                          np.empty(len(r)), n_points)
    rows = modes.reshape(-1, modes.shape[-1])
    out = _read_sups(lambda sl: rows[sl, None, :] * w,
                     np.empty((rows.shape[0], w.shape[0])), n_points)
    return out.reshape(modes.shape[:-1] + (w.shape[0],))


def _block_scales(n_blocks: int, s: float) -> np.ndarray:
    """2^(js) for the blocks j = -1..n_blocks - 2."""
    return 2.0 ** (np.arange(-1, n_blocks - 1, dtype=float) * s)


def _holder_max(blocks: np.ndarray, s: float) -> np.ndarray:
    """max_j 2^(js) * blocks[..., j + 1] over the block axis (last)."""
    return np.max(_block_scales(blocks.shape[-1], s) * blocks, axis=-1)


def holder_norms(modes: np.ndarray, n_modes: int, s: float) -> np.ndarray:
    """Besov sup-type norm max_j 2^(js) * (block j sup-norm) of every row
    of ``modes``; the leading axes are kept."""
    return _holder_max(_block_sup_norms(modes, n_modes), s)


def intersection_sup(modes: np.ndarray, grid: Grid, s: float) -> float:
    """max over rows of max(sobolev_norms, holder_norms), reading only
    the (row, block) sups whose l1 bound can beat the running max.

    The bound of pair (r, j) is 2^(js) * 2 * sum_k |c_rk * w_jk|.  A
    skipped pair has bound * (1 + 1e-12) <= running max.  Its computed
    bound and its computed sup are each within a relative roundoff of
    order N * eps of the exact values (2e-13 at N = 1024), so its
    computed weighted sup cannot exceed the running max.  A read pair
    meets the same array and transform as in ``holder_norms``, so the
    result is the full route's max bit for bit.  |c| is taken once, for
    the bounds and the Sobolev norms both.  Only the pairs whose bound
    beats the largest Sobolev norm are sorted, by descending bound
    (stable order): the running max never falls below that start, so
    no other pair can be read.  They go in chunks of 1, 2, 4 and 8
    pairs, then _SUP_ROWS at a time, up to the first chunk with no
    surviving pair: the first sups read usually lift the running max
    past most bounds, so small chunks first read the fewest pairs, and
    the chunks then grow to keep the calls few.  A non-finite bound or
    Sobolev norm (NaN or inf input, overflow) takes the full route, so
    the result stays non-finite."""
    rows = modes.reshape(-1, modes.shape[-1])
    _, w = _partition_weights(grid.n_modes)
    scale = _block_scales(w.shape[0], s)
    moduli = np.abs(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        bound = (scale * (2.0 * (moduli @ w.T))).ravel()
    sob = _sobolev_of_moduli(moduli, grid, s)
    top = float(np.max(sob))
    if not (math.isfinite(top) and np.all(np.isfinite(bound))):
        return float(np.max(np.maximum(sob, holder_norms(rows, grid.n_modes,
                                                         s))))
    cand = np.flatnonzero(bound * (1.0 + 1e-12) > top)
    order = cand[np.argsort(-bound[cand], kind="stable")]
    i, size = 0, 1
    while i < order.size:
        chunk = order[i:i + size]
        live = chunk[bound[chunk] * (1.0 + 1e-12) > top]
        if not live.size:
            break
        r, b = np.divmod(live, w.shape[0])
        sups = _block_sup_norms(rows, grid.n_modes, (r, b))
        top = max(top, float(np.max(scale[b] * sups)))
        i, size = i + size, min(2 * size, _SUP_ROWS)
    return top
