"""Exact per-mode Ornstein-Uhlenbeck sampling of the forced linear flow.

Each Fourier mode of the stationary stochastic convolution is a complex
OU process: relaxation rate |k|^gamma, stationary variance

    sigma_k^2 = noise_scale^2 * phi(eps k)^2 * |k|^(2 beta - gamma) / 2,

updated exactly over a step (no time-discretization bias).  Real and
imaginary parts are independent with variance sigma_k^2 / 2 each
(circular convention); negative modes are the implied conjugates.

Randomness comes from counter-based Philox streams keyed by
(seed, purpose), so identical configurations reproduce bit-identical
trajectories regardless of threading, and configurations that differ
only in the mollification width consume identical underlying normals -
which is what makes pathwise width-comparison (coupling) exact.

Samples are returned in memory; ``gfsb sample-tree`` and ``gfsb solve``
save the trajectories they make (``gfsb.cli``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, UnresolvedMollifier, ValidationError
from .spectral import Grid, Mollifier, flow_constants
from .trajectory import Trajectory


@dataclass(frozen=True)
class NoiseConfig:
    gamma: float
    epsilon: float
    seed: int
    dt: float
    t_end: float
    beta: float = 0.5
    noise_scale: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.gamma <= 2.0):
            raise ValidationError(f"gamma must lie in (1, 2], got {self.gamma}")
        if self.beta < 0:
            raise ValidationError(f"beta must be >= 0, got {self.beta}")
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0 (0 = no mollifier)")
        if not (0 <= int(self.seed) < 2 ** 63):
            raise ValidationError("seed must be a nonnegative 63-bit integer")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValidationError("dt and t_end must be positive")
        if self.dt > self.t_end + 1e-12:
            raise ValidationError("dt exceeds t_end")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValidationError(
                f"t_end {self.t_end} is not a multiple of dt {self.dt}")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def mollifier(self) -> Mollifier:
        return Mollifier(self.epsilon)


def check_grid(config: NoiseConfig, grid: Grid) -> None:
    """Shared preconditions coupling a noise config to a grid.  Their
    gammas must be equal: the sampled flow decays at the grid's rates
    and has the config's variance."""
    if grid.gamma != config.gamma:
        raise GridMismatch(
            f"grid gamma {grid.gamma} != config gamma {config.gamma}")
    if config.epsilon > 0 and not config.mollifier().resolved_by(grid):
        raise UnresolvedMollifier(
            f"mollifier width {config.epsilon} needs n_modes >= "
            f"{1.0 / config.epsilon:.0f}, grid has {grid.n_modes}")
    stiffness = config.dt * grid.n_modes ** config.gamma
    if stiffness > 10.0:
        raise ValidationError(
            f"dt * N^gamma = {stiffness:.2f} > 10: the fastest mode's "
            "forced response is unresolved")
    if stiffness > 1.0:
        warnings.warn(
            f"dt * N^gamma = {stiffness:.2f} > 1: fast-mode forced "
            "responses are marginally resolved", stacklevel=2)


def stationary_sigma(config: NoiseConfig, grid: Grid) -> np.ndarray:
    """Per-mode stationary standard deviation sigma_k (complex total)."""
    k = grid.wavenumbers
    phi = config.mollifier().factors(k)
    var = (config.noise_scale ** 2 * phi ** 2
           * k ** (2 * config.beta - config.gamma) / 2.0)
    return np.sqrt(var)


def _normals(seed: int, purpose: int, shape) -> np.ndarray:
    """One deterministic vectorized draw from the (seed, purpose) stream."""
    bitgen = np.random.Philox(key=np.array([seed, purpose], dtype=np.uint64))
    return np.random.Generator(bitgen).standard_normal(shape)


def _ou_path(config: NoiseConfig, grid: Grid, z: np.ndarray) -> np.ndarray:
    """Exact OU recursion fed by pre-drawn standard normals.

    z has shape (..., n_steps + 1, N, 2): slot 0 seeds the stationary
    start, slots 1..T the per-step innovations.
    """
    sigma = stationary_sigma(config, grid)
    _, decay, _ = flow_constants(grid, config.dt)
    innov_sd = sigma * np.sqrt(np.clip(1.0 - decay ** 2, 0.0, None))
    zc = (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)
    out = np.empty(zc.shape, dtype=np.complex128)
    out[..., 0, :] = sigma * zc[..., 0, :]
    for n in range(1, zc.shape[-2]):
        out[..., n, :] = (decay * out[..., n - 1, :]
                          + innov_sd * zc[..., n, :])
    return out


def sample_Y(config: NoiseConfig, grid: Grid) -> Trajectory:
    """Stationary forced-flow trajectory on [0, t_end], drawn from the
    (seed, 0) stream."""
    check_grid(config, grid)
    z = _normals(config.seed, 0,
                 (config.n_steps + 1, grid.n_modes, 2))
    modes = _ou_path(config, grid, z)
    return Trajectory(config.times, modes, grid,
                      meta={"kind": "stationary", "seed": config.seed})


def sample_Y_ensemble(config: NoiseConfig, grid: Grid,
                      replicas: range) -> np.ndarray:
    """(R, T+1, N) mode array, one row per replica index in ``replicas``;
    replica r draws from the (seed, 1000 + r) stream, so any subset can
    be regenerated independently."""
    check_grid(config, grid)
    shape = (config.n_steps + 1, grid.n_modes, 2)
    out = np.empty((len(replicas),) + shape[:-1], dtype=np.complex128)
    for i, r in enumerate(replicas):
        z = _normals(config.seed, 1000 + r, shape)
        out[i] = _ou_path(config, grid, z)
    return out
