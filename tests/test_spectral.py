"""Spectral core: transforms, multipliers, products, mollifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfsb.errors import GridMismatch
from gfsb.spectral import (
    FourierField,
    Grid,
    Mollifier,
    bump_profile,
    derivative_symbol,
    modes_to_physical,
    physical_to_modes,
    pointwise_product,
)

GRID = Grid(n_modes=8, gamma=2.0)


def rand_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return FourierField.random(grid, rng)


def heat(grid, t, gamma):
    """The solvers' free-flow factor e^{-t |k|^gamma}."""
    return np.exp(-t * grid.wavenumbers ** gamma)


# ----------------------------------------------------------------- grid/field


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(n_modes=1, gamma=2.0)
    with pytest.raises(ValueError):
        Grid(n_modes=8, gamma=1.0)
    with pytest.raises(ValueError):
        Grid(n_modes=8, gamma=2.5)
    Grid(n_modes=8, gamma=1.0000001)


def test_field_is_real_and_mean_zero():
    f = rand_field(GRID)
    vals = f.to_physical(64)
    assert vals.dtype == np.float64
    assert abs(vals.mean()) < 1e-14


def test_pure_mode_is_cosine():
    f = FourierField.pure_mode(GRID, 3, 0.5)
    m = 64
    x = 2 * np.pi * np.arange(m) / m
    np.testing.assert_allclose(f.to_physical(m), np.cos(3 * x), atol=1e-13)


def test_transform_roundtrip():
    f = rand_field(GRID, seed=3)
    vals = modes_to_physical(f.modes, 40)
    back = physical_to_modes(vals, GRID.n_modes)
    np.testing.assert_allclose(back, f.modes, atol=1e-14)


def test_modes_need_enough_points():
    with pytest.raises(ValueError):
        modes_to_physical(np.zeros(8, dtype=complex), 16)


def test_arithmetic_and_grid_mismatch():
    f = rand_field(GRID)
    g = rand_field(GRID, seed=1)
    np.testing.assert_allclose((f + g).modes, f.modes + g.modes)
    np.testing.assert_allclose((f - g).modes, f.modes - g.modes)
    np.testing.assert_allclose((2.0 * f).modes, 2.0 * f.modes)
    other = rand_field(Grid(n_modes=9, gamma=2.0))
    with pytest.raises(GridMismatch):
        _ = f + other
    with pytest.raises(GridMismatch):
        pointwise_product(f, other)


def test_modes_are_immutable():
    f = rand_field(GRID)
    with pytest.raises(ValueError):
        f.modes[0] = 1.0


# ----------------------------------------------------------------- multipliers


def test_laplacian_pinned_values():
    # the dissipation rates |k|^gamma of the solvers, stored modes 1..N:
    # k = 2, gamma = 2 -> 4; k = 3, gamma = 1.6 -> 3^1.6
    assert GRID.wavenumbers[1] ** 2.0 == 4.0
    rates = Grid(n_modes=8, gamma=1.6).wavenumbers ** 1.6
    assert rates[2] == pytest.approx(5.799546134, rel=1e-9)


def test_derivative_matches_analytic():
    # d/dx cos(3x) = -3 sin(3x)
    f = FourierField.pure_mode(GRID, 3, 0.5)
    m = 64
    x = 2 * np.pi * np.arange(m) / m
    np.testing.assert_allclose(
        modes_to_physical(derivative_symbol(GRID) * f.modes, m),
        -3.0 * np.sin(3 * x), atol=1e-12)


def test_semigroup_pinned_factor():
    # k = 2, gamma = 2, t = 0.25 -> e^{-1}
    assert heat(GRID, 0.25, 2.0)[1] == pytest.approx(math.exp(-1.0),
                                                      rel=1e-14)


def test_semigroup_smoothing_supremum():
    # sup_{z>0} z^{d/g} e^{-t z} = (d/(g e t))^{d/g}; at t=1 the gain of
    # |D|^delta P(t) over modes is bounded by (delta/(gamma e))^{delta/gamma}.
    gamma, delta, t = 1.6, 0.8, 0.7
    grid = Grid(n_modes=512, gamma=gamma)
    k = grid.wavenumbers
    gain = (k ** delta) * np.exp(-t * k ** gamma)
    bound = (delta / (gamma * math.e * t)) ** (delta / gamma)
    assert gain.max() <= bound + 1e-12


def test_semigroup_composition():
    f = rand_field(GRID, seed=5)
    a = heat(GRID, 0.2, 1.7) * (heat(GRID, 0.3, 1.7) * f.modes)
    b = heat(GRID, 0.5, 1.7) * f.modes
    np.testing.assert_allclose(a, b, rtol=1e-14)


# ----------------------------------------------------------------- products


def conv_oracle(f, g):
    """Direct convolution over implied two-sided spectra (independent of
    any FFT path)."""
    n = f.grid.n_modes
    full = {}
    for k in range(1, n + 1):
        full[k] = f.modes[k - 1]
        full[-k] = np.conj(f.modes[k - 1])
    gull = {}
    for k in range(1, n + 1):
        gull[k] = g.modes[k - 1]
        gull[-k] = np.conj(g.modes[k - 1])
    out = np.zeros(n, dtype=complex)
    for k in range(1, n + 1):
        s = 0.0 + 0.0j
        for j, cj in full.items():
            s += cj * gull.get(k - j, 0.0)
        out[k - 1] = s
    return out


def test_product_cosine_identity():
    # cos(x) cos(2x) = cos(x)/2 + cos(3x)/2
    f = FourierField.pure_mode(GRID, 1, 0.5)
    g = FourierField.pure_mode(GRID, 2, 0.5)
    p = pointwise_product(f, g)
    expect = np.zeros(8, dtype=complex)
    expect[0] = 0.25
    expect[2] = 0.25
    np.testing.assert_allclose(p.modes, expect, atol=1e-15)


def discarded_energy(f, g, p):
    """Mean square of the physical product f g, on 64 points, which
    resolve its square, less the energy of the kept product p."""
    fg = f.to_physical(64) * g.to_physical(64)
    return float(np.mean(fg ** 2)) - p.l2() ** 2


def test_product_sin_squared_reports_mean():
    # sin^2(x) = 1/2 - cos(2x)/2: the mean, of energy 1/4, is discarded
    f = FourierField.pure_mode(GRID, 1, -0.5j)  # sin x
    p = pointwise_product(f, f)
    expect = np.zeros(8, dtype=complex)
    expect[1] = -0.25
    np.testing.assert_allclose(p.modes, expect, atol=1e-15)
    assert discarded_energy(f, f, p) == pytest.approx(0.25, rel=1e-12)


def test_product_high_mode_report():
    # cos(8x)^2 = 1/2 + cos(16x)/2: everything is discarded, the mean
    # (energy 1/4) and the +-16 pair (energy 2 * |1/4|^2)
    f = FourierField.pure_mode(GRID, 8, 0.5)
    p = pointwise_product(f, f)
    np.testing.assert_allclose(p.modes, 0.0, atol=1e-15)
    assert discarded_energy(f, f, p) == pytest.approx(0.375, rel=1e-12)


def test_product_matches_convolution_oracle():
    f = rand_field(GRID, seed=7)
    g = rand_field(GRID, seed=8)
    p = pointwise_product(f, g)
    np.testing.assert_allclose(p.modes, conv_oracle(f, g), atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
def test_product_commutes(sa, sb):
    f = rand_field(GRID, seed=sa)
    g = rand_field(GRID, seed=sb)
    p = pointwise_product(f, g)
    q = pointwise_product(g, f)
    np.testing.assert_allclose(p.modes, q.modes, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_multipliers_commute_with_semigroup(seed):
    f = rand_field(GRID, seed=seed)
    deriv, flow = derivative_symbol(GRID), heat(GRID, 0.1, 1.5)
    np.testing.assert_allclose(deriv * (flow * f.modes),
                               flow * (deriv * f.modes), rtol=1e-13)


# ----------------------------------------------------------------- mollifier


def test_bump_profile_shape():
    assert bump_profile(np.array([0.0]))[0] == pytest.approx(1.0)
    assert bump_profile(np.array([1.0]))[0] == 0.0
    assert bump_profile(np.array([-1.3]))[0] == 0.0
    y = np.linspace(-0.99, 0.99, 101)
    vals = bump_profile(y)
    assert np.all(vals > 0)
    np.testing.assert_allclose(vals, bump_profile(-y))  # even


def test_mollifier_cuts_high_modes():
    m = Mollifier(epsilon=0.25)
    grid = Grid(n_modes=8, gamma=2.0)
    fac = m.factors(grid.wavenumbers)
    assert np.all(fac[:3] > 0)      # k <= 3 inside support
    assert np.all(fac[3:] == 0.0)   # k >= 4 outside


def test_mollifier_identity_and_resolution():
    m0 = Mollifier(epsilon=0.0)
    grid = Grid(n_modes=4, gamma=2.0)
    np.testing.assert_allclose(m0.factors(grid.wavenumbers), 1.0)
    assert m0.resolved_by(grid)
    assert Mollifier(epsilon=0.25).resolved_by(grid)
    assert not Mollifier(epsilon=0.1).resolved_by(grid)  # needs N >= 10
    with pytest.raises(ValueError):
        Mollifier(epsilon=-0.1)
