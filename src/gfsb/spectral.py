"""Spectral representation of mean-zero real fields on the torus.

Fields are stored as the complex coefficients of modes k = 1..N only; the
k = 0 mode is structurally absent (everything here is mean-zero) and
negative modes are implied by conjugate symmetry.  With the convention

    f(x) = sum_{k=1}^{N} ( c_k e^{ikx} + conj(c_k) e^{-ikx} ),

every stored field is exactly real-valued and mean-zero by construction.

All linear operators are diagonal Fourier multipliers.  The linear
flow e^{tL}, L = -|D|^gamma, is derived here once: ``flow_constants``
gives its per-mode rates and one-step decay and Duhamel weight, and
``free_flow`` propagates a start.  Products are computed on a physical
grid sized to the factors' bands: factors with ka and kb stored modes
produce modes up to ka + kb, and the grid holds just enough points that
every retained mode comes out free of aliasing (the 3/2 rule for two
full-band factors).  The mean and above-cutoff content of a product are
discarded.  A square samples its factor once.  The grid rule and the
transform back to modes are helpers that the paraproducts also call on
factors they sampled ahead of time.

Every transform is numpy's, so importing the package loads numpy and
nothing heavier.  Grid lengths come from ``_next_fast_len``: the
smallest length at least the need whose prime factors are 2, 3 and 5
(up to 11 for complex transforms), the same rule as the fast-length
helper the tests keep as its oracle.  ``besov``'s time smoothing takes
its lengths from it too, and forms its real kernel's spectrum as the
real transform plus the conjugate mirror: that is what a real-input FFT
does, while a complex FFT of the same kernel differs at roundoff.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FormatError, GridMismatch


@dataclass(frozen=True)
class Grid:
    """Mode count and dissipation exponent on the 2 pi torus."""

    n_modes: int
    gamma: float

    def __post_init__(self):
        if self.n_modes < 2:
            raise ValueError(f"need at least 2 modes, got {self.n_modes}")
        if not (1.0 < self.gamma <= 2.0):
            raise ValueError(f"gamma must lie in (1, 2], got {self.gamma}")

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(1, self.n_modes + 1, dtype=float)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FourierField:
    """Immutable mean-zero real field, stored as modes k = 1..N."""

    modes: np.ndarray
    grid: Grid

    def __post_init__(self):
        if self.modes.shape != (self.grid.n_modes,):
            raise ValueError(
                f"modes shape {self.modes.shape} != ({self.grid.n_modes},)")
        object.__setattr__(self, "modes", _frozen(self.modes))

    # ------------------------------------------------------------ factories

    @classmethod
    def pure_mode(cls, grid: Grid, k: int, coeff: complex = 1.0) -> "FourierField":
        """Field c e^{ikx} + conj, i.e. 2|c| cos(kx + arg c)."""
        if not (1 <= k <= grid.n_modes):
            raise ValueError(f"mode {k} outside 1..{grid.n_modes}")
        m = np.zeros(grid.n_modes, dtype=np.complex128)
        m[k - 1] = coeff
        return cls(m, grid)

    @classmethod
    def random(cls, grid: Grid, rng) -> "FourierField":
        """Gaussian random field with unit-variance complex modes."""
        n = grid.n_modes
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        return cls(z, grid)

    # ------------------------------------------------------------ evaluation

    def to_physical(self, n_points: int | None = None) -> np.ndarray:
        """Sample on a uniform grid of n_points (default 4N)."""
        if n_points is None:
            n_points = 4 * self.grid.n_modes
        return modes_to_physical(self.modes, n_points)

    def __add__(self, other):
        self._check(other)
        return FourierField(self.modes + other.modes, self.grid)

    def __sub__(self, other):
        self._check(other)
        return FourierField(self.modes - other.modes, self.grid)

    def __mul__(self, scalar):
        return FourierField(self.modes * scalar, self.grid)

    __rmul__ = __mul__

    def __neg__(self):
        return FourierField(-self.modes, self.grid)

    def _check(self, other):
        if not isinstance(other, FourierField) or other.grid != self.grid:
            raise GridMismatch("fields live on different grids")

    def l2(self) -> float:
        """Physical L2 norm (unitary convention, counts both +-k)."""
        return float(np.sqrt(2.0 * np.sum(np.abs(self.modes) ** 2)))


# ---------------------------------------------------------------- transforms


def modes_to_physical(modes: np.ndarray, n_points: int) -> np.ndarray:
    """Synthesize real samples from k=1..N coefficients (batched over
    leading axes)."""
    n = modes.shape[-1]
    if n_points < 2 * n + 1:
        raise ValueError(f"{n_points} points cannot carry {n} modes")
    spec = np.zeros(modes.shape[:-1] + (n_points // 2 + 1,), dtype=np.complex128)
    spec[..., 1:n + 1] = modes * n_points
    return np.fft.irfft(spec, n=n_points, axis=-1)


def physical_to_modes(values: np.ndarray, n_modes: int) -> np.ndarray:
    """Analyze real samples back to k=1..N coefficients (batched)."""
    n_points = values.shape[-1]
    spec = np.fft.rfft(values, axis=-1) / n_points
    return np.ascontiguousarray(spec[..., 1:n_modes + 1])


@lru_cache(maxsize=256)
def _next_fast_len(n: int, real: bool = False) -> int:
    """Smallest m >= n whose prime factors are all in (2, 3, 5), or in
    (2, 3, 5, 7, 11) for complex transforms."""
    primes = (2, 3, 5) if real else (2, 3, 5, 7, 11)
    m = max(n, 1)
    while True:
        rest = m
        for p in primes:
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _product_grid(ka: int, kb: int, n_modes: int) -> tuple[int, int]:
    """(grid length m, top) for the product of factors with ka and kb
    modes, kept to modes 1..n_modes: the grid rule of ``product_modes``."""
    top = min(n_modes, ka + kb)
    need = max(ka + kb + top + 1, 2 * max(ka, kb) + 1)
    return _next_fast_len(need, real=True), top


def _product_of_samples(pa: np.ndarray, pb: np.ndarray, m: int, top: int,
                        n_modes: int) -> np.ndarray:
    """Modes 1..n_modes of the product of two factors sampled on the
    m-point grid that ``_product_grid`` gave for them."""
    spec = np.fft.rfft(pa * pb, axis=-1)
    # only the kept band is scaled, straight into the result
    if top == n_modes:
        return np.divide(spec[..., 1:top + 1], m)
    out = np.zeros(spec.shape[:-1] + (n_modes,), dtype=np.complex128)
    np.divide(spec[..., 1:top + 1], m, out=out[..., :top])
    return out


def product_modes(a: np.ndarray, b: np.ndarray, n_modes: int) -> np.ndarray:
    """Dealiased product of two mode arrays (batched over leading axes).

    The factors carry modes 1..ka and 1..kb (their last axes), so the
    product carries modes up to ka + kb and the result keeps modes
    1..N with top = min(N, ka + kb) of them possibly nonzero.  The
    physical grid has the next fast length of
    max(ka + kb + top + 1, 2 max(ka, kb) + 1) points: aliases of the
    highest product modes then land above the kept ones, which is the
    3/2 rule for two full-band factors.  The mean and the modes above N
    are dropped.  A square (``b is a``) samples its factor once.
    """
    m, top = _product_grid(a.shape[-1], b.shape[-1], n_modes)
    pa = modes_to_physical(a, m)
    pb = pa if b is a else modes_to_physical(b, m)
    return _product_of_samples(pa, pb, m, top, n_modes)


def pointwise_product(f: FourierField, g: FourierField) -> FourierField:
    """Exact dealiased product, truncated back to the shared grid."""
    if f.grid != g.grid:
        raise GridMismatch("product of fields on different grids")
    return FourierField(product_modes(f.modes, g.modes, f.grid.n_modes), f.grid)


# ---------------------------------------------------------------- multipliers


def derivative_symbol(grid: Grid) -> np.ndarray:
    """Multiplier of d/dx on the stored (positive) modes."""
    return 1j * grid.wavenumbers


def flow_constants(grid: Grid, dt: float):
    """(rates, decay, weight) of the linear flow e^{tL}, L = -|D|^gamma,
    over one step dt: rates |k|^gamma, decay e^{-|k|^gamma dt} and the
    Duhamel weight (1 - decay)/|k|^gamma."""
    rates = grid.wavenumbers ** grid.gamma
    decay = np.exp(-rates * dt)
    return rates, decay, (1.0 - decay) / rates


def flow_table(grid: Grid, elapsed: np.ndarray) -> np.ndarray:
    """e^{tL} per mode at each elapsed time t: one row per time."""
    return np.exp(-np.outer(elapsed, grid.wavenumbers ** grid.gamma))


def free_flow(start: np.ndarray, grid: Grid,
              elapsed: np.ndarray) -> np.ndarray:
    """e^{tL} start at each elapsed time t: one row per time."""
    return flow_table(grid, elapsed) * start


# ---------------------------------------------------------------- mollifier


def bump_profile(y: np.ndarray) -> np.ndarray:
    """Smooth even bump: exp(1 - 1/(1-y^2)) for |y| < 1, else 0."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - yi * yi))
    return out


@dataclass(frozen=True)
class Mollifier:
    """Spectral cutoff phi(eps k) with phi the bump, which vanishes from
    |eps k| = 1 on; eps = 0 means no mollification."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")

    def factors(self, k: np.ndarray) -> np.ndarray:
        """phi(eps k) on an array of wavenumbers."""
        if self.epsilon == 0.0:
            return np.ones_like(np.asarray(k, dtype=float))
        return bump_profile(self.epsilon * np.asarray(k, dtype=float))

    def resolved_by(self, grid: Grid) -> bool:
        """True when every mode inside the support is carried by the grid."""
        if self.epsilon == 0.0:
            return True
        return grid.n_modes >= 1.0 / self.epsilon


# ---------------------------------------------------------------- snapshots

_MAGIC = b"GFSB"
_VERSION = 1


def write_snapshot(f: FourierField, path, beta: float = 0.0) -> None:
    """Binary snapshot: magic, version u16, N u32, gamma f64, beta f64,
    then re/im interleaved f64 little-endian for k = 1..N."""
    n = f.grid.n_modes
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HId d", _VERSION, n, f.grid.gamma, beta))
        inter = np.empty(2 * n, dtype="<f8")
        inter[0::2] = f.modes.real
        inter[1::2] = f.modes.imag
        fh.write(inter.tobytes())


def read_snapshot(path):
    """Returns (FourierField, beta)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}")
    version, n, gamma, beta = struct.unpack("<HId d", raw[4:4 + 22])
    if version != _VERSION:
        raise FormatError(f"unsupported snapshot version {version}")
    body = np.frombuffer(raw[4 + 22:], dtype="<f8")
    if body.size != 2 * n:
        raise FormatError(f"expected {2*n} floats, found {body.size}")
    modes = body[0::2] + 1j * body[1::2]
    return FourierField(modes, Grid(n, gamma)), beta

