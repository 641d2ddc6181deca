"""Time-indexed families of spectral fields on a shared grid.

A trajectory stores the mode coefficients of a mean-zero real field at a
strictly increasing sequence of times, as a (T, N) complex array.  Most
consumers require a uniform time step; ``dt`` raises if the grid is not
uniform so that quadrature routines cannot silently mis-weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, NonuniformGrid, TimeGridMismatch
from .spectral import Grid

_UNIFORM_RTOL = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Immutable (times, modes) pair; modes has shape (len(times), N)."""

    times: np.ndarray
    modes: np.ndarray
    grid: Grid
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        t = np.ascontiguousarray(self.times, dtype=float)
        m = np.ascontiguousarray(self.modes, dtype=np.complex128)
        if t.ndim != 1 or len(t) < 1:
            raise ValueError("times must be a nonempty 1-d array")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if m.shape != (len(t), self.grid.n_modes):
            raise ValueError(
                f"modes shape {m.shape} != ({len(t)}, {self.grid.n_modes})")
        t.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "modes", m)

    # ------------------------------------------------------------ structure

    def __len__(self) -> int:
        return len(self.times)

    @property
    def dt(self) -> float:
        """Uniform time step; raises NonuniformGrid otherwise."""
        d = np.diff(self.times)
        if len(d) == 0:
            raise NonuniformGrid("single-node trajectory has no step")
        if np.max(np.abs(d - d[0])) > _UNIFORM_RTOL * d[0]:
            raise NonuniformGrid("time grid is not uniform")
        return float(d[0])

    # ------------------------------------------------------------ arithmetic

    def _check(self, other: "Trajectory"):
        if self.grid != other.grid:
            raise GridMismatch("trajectories live on different grids")
        if self.modes.shape != other.modes.shape or not np.array_equal(
                self.times, other.times):
            raise TimeGridMismatch("trajectories use different time grids")

    def __add__(self, other):
        self._check(other)
        return Trajectory(self.times, self.modes + other.modes, self.grid)

    def __sub__(self, other):
        self._check(other)
        return Trajectory(self.times, self.modes - other.modes, self.grid)

    def __mul__(self, scalar):
        return Trajectory(self.times, self.modes * scalar, self.grid)

    __rmul__ = __mul__
