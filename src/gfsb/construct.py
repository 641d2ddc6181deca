"""Gaussian input hierarchy: the forced flow and its integrated trees.

Starting from a forced-flow trajectory Y, the quadratic tree integrates
the transported square of Y against the dissipative flow, and the cubic
tree integrates the product of that result with Y again:

    quadratic = Flow * [c d/dx (Y^2)],   cubic = Flow * [c d/dx (quad Y)],

where Flow* is the Duhamel convolution with e^{t L}, L = -|D|^gamma, and
c = ``kernels.COUPLING`` is the nonlinearity strength.  Built "from
minus infinity" these are stationary objects.  The fixed-point solvers
consume the zero-initial-data versions instead (exactly zero at the
first node): `recenter` subtracts the propagated start from the
quadratic tree, and the cubic tree is then integrated from zero against
it.  All recursions use the
exact per-mode integrating factor, so there is no stiffness constraint
from large |k|^gamma dt.
"""

from __future__ import annotations

import numpy as np

from .kernels import COUPLING
from .spectral import (Grid, derivative_symbol, flow_constants, free_flow,
                       product_modes)
from .trajectory import Trajectory


# ---------------------------------------------------------------- Duhamel


def duhamel_scan(forcing: np.ndarray, decay: np.ndarray,
                 weight: np.ndarray, init: np.ndarray | None = None
                 ) -> np.ndarray:
    """March int_0^t e^{-(t-s) |k|^gamma} g(s) ds on a uniform grid.

    forcing has shape (..., T, N); decay = e^{-|k|^gamma dt} and weight
    = (1 - decay)/|k|^gamma are per-mode constants.  The trapezoid-in-g
    update F_{n+1} = decay F_n + weight (g_n + g_{n+1})/2 reproduces a
    constant forcing's steady state g/|k|^gamma exactly.

    The drive weight (g_n + g_{n+1})/2 of every step is written into
    ``out[1:]`` in one pass, and the march then only adds decay F_n.
    IEEE addition and multiplication commute exactly, so the values are
    those of the update as written above, bit for bit.
    """
    out = np.empty_like(forcing, dtype=np.complex128)
    out[..., 0, :] = 0.0 if init is None else init
    drive = out[..., 1:, :]
    np.add(forcing[..., :-1, :], forcing[..., 1:, :], out=drive)
    drive *= 0.5 * weight
    for n in range(forcing.shape[-2] - 1):
        out[..., n + 1, :] += decay * out[..., n, :]
    return out


def bilinear_forcing(a: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """c d/dx (a b) in mode space, batched over leading axes."""
    return (COUPLING * derivative_symbol(grid)
            * product_modes(a, b, grid.n_modes))


# ---------------------------------------------------------------- trees


def recenter(traj: Trajectory) -> Trajectory:
    """modes(t) - e^{(t - t0) L} modes(t0): exactly zero at the first node.

    A stationary tree and its zero-initial-data version obey the same
    forced equation, so their difference is this free flow.
    """
    start = free_flow(traj.modes[0], traj.grid, traj.times - traj.times[0])
    return Trajectory(traj.times, traj.modes - start, traj.grid)


def build_tree_family(base: Trajectory, *, recentered: bool = False) -> dict:
    """The canonical hierarchy of the forced flow ``base``, keyed by tree
    symbol: ``base`` itself, the quadratic and the cubic tree.

    Each tree is integrated from minus infinity (a forcing frozen at its
    first value over the infinite past, so it starts at g_0/|k|^gamma),
    or, with ``recentered``, from zero: the quadratic tree is recentred
    and the cubic tree is integrated from zero against it (its forcing
    changes with the quadratic tree, so subtraction cannot recentre it).
    """
    grid = base.grid
    rates, decay, weight = flow_constants(grid, base.dt)

    g = bilinear_forcing(base.modes, base.modes, grid)
    quad = Trajectory(base.times,
                      duhamel_scan(g, decay, weight, init=g[0] / rates), grid)
    if recentered:
        quad = recenter(quad)
    g = bilinear_forcing(quad.modes, base.modes, grid)
    cubic = Trajectory(base.times, duhamel_scan(
        g, decay, weight, init=None if recentered else g[0] / rates), grid)
    return {"n": base, "lr": quad, "rLlr": cubic}
