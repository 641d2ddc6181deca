"""Dyadic blocks, paraproducts, time-smoothed paraproduct, norm helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfsb.besov import (
    DyadicPartition,
    TimeMollifierBank,
    _block_sup_norms,
    bony_decomposition,
    holder_norms,
    lp_block,
    modified_paraproduct,
    paraproduct_lower,
    paraproduct_upper,
    resonant,
    sobolev_norms,
)
from gfsb.errors import BlockOutOfRange, GridMismatch, TimeGridMismatch
from gfsb.spectral import FourierField, Grid, pointwise_product
from gfsb.trajectory import Trajectory

G16 = Grid(16, 2.0)


def rand_field(grid, seed=0):
    return FourierField.random(grid, np.random.default_rng(seed))


# ----------------------------------------------------------------- partition


def test_partition_of_unity_is_exact():
    part = DyadicPartition(16)
    total = np.zeros(16)
    for j in range(-1, part.j_max + 1):
        total = total + part.weights(j)
    np.testing.assert_array_equal(total, np.ones(16))


def test_block_reconstruction_bit_close():
    f = rand_field(G16, seed=2)
    part = DyadicPartition(16)
    acc = np.zeros(16, dtype=complex)
    for j in range(-1, part.j_max + 1):
        acc = acc + lp_block(f, j).modes
    np.testing.assert_allclose(acc, f.modes, rtol=0, atol=1e-15)


def test_block_membership_of_edge_modes():
    part = DyadicPartition(16)
    in_blocks = lambda k: [j for j in range(-1, part.j_max + 1)
                           if part.weights(j)[k - 1] > 0]
    assert in_blocks(1) == [-1, 0]
    assert in_blocks(8) == [2, 3]
    assert in_blocks(12) == [3]  # plateau interior


def test_pure_mode_in_plateau_owned_by_one_block():
    f = FourierField.pure_mode(G16, 12, 1.0 + 1.0j)
    np.testing.assert_array_equal(lp_block(f, 3).modes, f.modes)
    for j in (-1, 0, 1, 2, 4):
        assert np.all(lp_block(f, j).modes == 0)


def test_block_of_zero_field_is_zero():
    z = FourierField(np.zeros(16, dtype=complex), G16)
    assert np.all(lp_block(z, 0).modes == 0)


def test_block_out_of_range():
    f = rand_field(G16)
    with pytest.raises(BlockOutOfRange):
        lp_block(f, 99)
    with pytest.raises(BlockOutOfRange):
        lp_block(f, -2)


def test_lowpass_is_strictly_below():
    # S_m sums blocks i <= m-1: mode 1 lives in blocks {-1, 0}
    part = DyadicPartition(16)
    w_m1 = part.weights(-1)[0]
    assert part.lowpass_weights(0)[0] == pytest.approx(w_m1)  # block -1
    assert part.lowpass_weights(1)[0] == pytest.approx(1.0)   # blocks -1, 0
    assert np.all(part.lowpass_weights(-1) == 0)              # empty sum


# ----------------------------------------------------------------- paraproducts


def test_separated_modes_collapse_to_lower():
    f = FourierField.pure_mode(G16, 1, 0.5)
    g = FourierField.pure_mode(G16, 8, 0.5)
    lo, res, up = bony_decomposition(f, g)
    prod = pointwise_product(f, g)
    np.testing.assert_allclose(lo.modes, prod.modes, atol=1e-15)
    assert np.abs(res.modes).max() == 0
    assert np.abs(up.modes).max() == 0


def test_bony_identity_random_fields():
    for seed in range(5):
        f = rand_field(G16, seed=seed)
        g = rand_field(G16, seed=100 + seed)
        lo, res, up = bony_decomposition(f, g)
        total = lo.modes + res.modes + up.modes
        err = np.abs(total - pointwise_product(f, g).modes).max()
        assert err < 1e-12


def test_pieces_match_blockpair_oracle():
    """Direct double sum over block pairs, built only from lp_block and
    dealiased products."""
    f = rand_field(G16, seed=7)
    g = rand_field(G16, seed=8)
    part = DyadicPartition(16)

    def oracle(keep):
        acc = np.zeros(16, dtype=complex)
        for i in range(-1, part.j_max + 1):
            for j in range(-1, part.j_max + 1):
                if keep(i, j):
                    acc += pointwise_product(lp_block(f, i),
                                             lp_block(g, j)).modes
        return acc

    np.testing.assert_allclose(paraproduct_lower(f, g).modes,
                               oracle(lambda i, j: i <= j - 2), atol=1e-13)
    np.testing.assert_allclose(resonant(f, g).modes,
                               oracle(lambda i, j: abs(i - j) <= 1),
                               atol=1e-13)
    np.testing.assert_allclose(paraproduct_upper(f, g).modes,
                               oracle(lambda i, j: i >= j + 2), atol=1e-13)


def test_paraproduct_grid_mismatch():
    with pytest.raises(GridMismatch):
        paraproduct_lower(rand_field(G16), rand_field(Grid(8, 2.0)))


def test_lower_paraproduct_sobolev_bound():
    # frozen empirical bound: ratio max measured 0.188 over this family
    grid = Grid(64, 2.0)
    s = 0.5
    worst = 0.0
    for i in range(100):
        r = np.random.default_rng(1000 + i)
        a = FourierField.random(grid, r)
        b = FourierField.random(grid, r)
        num = sobolev_norms(paraproduct_lower(a, b).modes, grid, s)
        den = np.abs(a.to_physical(512)).max() * sobolev_norms(b.modes,
                                                               grid, s)
        worst = max(worst, num / den)
    assert worst < 0.5


# ------------------------------------------------------- time-smoothed lower


def make_traj(grid, dt, t_end, fn):
    times = np.arange(0, int(round(t_end / dt)) + 1) * dt
    return Trajectory(times, np.array([fn(t) for t in times]), grid)


def test_bank_validation_and_delta_limit():
    with pytest.raises(ValueError):
        TimeMollifierBank(dt=0.0, gamma=2.0)
    bank = TimeMollifierBank(dt=0.01, gamma=2.0)
    # fast band: support shorter than one step -> point mass, no lag
    w = bank.lag_weights(5)
    np.testing.assert_array_equal(w, [1.0])
    assert bank.mean_lag(5) == 0.0
    # slow band: several lags, normalized, mean lag below the band scale
    w = bank.lag_weights(0)
    assert len(w) > 2
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    assert 0.0 < bank.mean_lag(0) < 1.0  # scale 2^0


def test_mean_lag_below_band_scale():
    bank = TimeMollifierBank(dt=0.001, gamma=1.5)
    for j in range(-1, 7):
        assert bank.mean_lag(j) <= 2.0 ** (-1.5 * j) + 1e-15


def test_smoothing_preserves_constants():
    bank = TimeMollifierBank(dt=0.01, gamma=2.0)
    vals = np.ones((50, 3), dtype=complex) * (2.0 - 1.0j)
    for j in (-1, 0, 1, 4):
        out = bank.smooth(vals, j)
        np.testing.assert_allclose(out, vals, rtol=1e-13)


def test_constant_left_factor_reduces_to_lower():
    f = rand_field(G16, seed=3)
    g = rand_field(G16, seed=4)
    dt = 0.01
    bank = TimeMollifierBank(dt=dt, gamma=2.0)
    ft = make_traj(G16, dt, 1.0, lambda t: f.modes)
    gt = make_traj(G16, dt, 1.0, lambda t: g.modes)
    out = modified_paraproduct(ft, gt, bank)
    ref = paraproduct_lower(f, g).modes
    assert np.abs(out.modes - ref[None, :]).max() < 1e-12


def test_zero_left_factor_gives_zero():
    dt = 0.01
    bank = TimeMollifierBank(dt=dt, gamma=2.0)
    zt = make_traj(G16, dt, 0.5, lambda t: np.zeros(16, dtype=complex))
    gt = make_traj(G16, dt, 0.5, lambda t: rand_field(G16).modes)
    out = modified_paraproduct(zt, gt, bank)
    assert np.abs(out.modes).max() == 0.0


def test_linear_left_factor_mean_lag_identity():
    """For f(t) = (1 + b t) F the smoothed factor lags by exactly the
    kernel's mean lag, block by block."""
    from gfsb.besov import _para_masks
    from gfsb.spectral import product_modes

    b, dt = 0.7, 0.01
    bank = TimeMollifierBank(dt=dt, gamma=2.0)
    F = FourierField.pure_mode(G16, 1, 0.5)
    G = FourierField.pure_mode(G16, 8, 0.5)
    ft = make_traj(G16, dt, 1.0, lambda t: (1.0 + b * t) * F.modes)
    gt = make_traj(G16, dt, 1.0, lambda t: G.modes)
    out = modified_paraproduct(ft, gt, bank)
    n = len(out.times) - 1
    t_end = out.times[n]
    pred = paraproduct_lower(
        FourierField((1 + b * t_end) * F.modes, G16), G).modes.copy()
    for j, (lo, _, blk) in enumerate(_para_masks(16), start=-1):
        pred -= b * bank.mean_lag(j) * product_modes(
            F.modes[:lo.size] * lo, G.modes[:blk.size] * blk, 16)
    assert np.abs(out.modes[n] - pred).max() < 1e-14


def test_time_grid_mismatch():
    dt = 0.01
    bank = TimeMollifierBank(dt=dt, gamma=2.0)
    ft = make_traj(G16, dt, 0.5, lambda t: rand_field(G16).modes)
    gt = make_traj(G16, dt, 0.4, lambda t: rand_field(G16).modes)
    with pytest.raises(TimeGridMismatch):
        modified_paraproduct(ft, gt, bank)


def test_commutator_shrinks_under_time_refinement():
    """Distance between the smoothed and plain paraproducts at matched
    times decreases monotonically over three step refinements (toward
    the continuum commutator, from above)."""
    grid = G16
    rng = np.random.default_rng(3)
    F = FourierField.random(grid, rng)
    G = FourierField.random(grid, rng)

    def gap(dt):
        bank = TimeMollifierBank(dt=dt, gamma=2.0)
        times = np.arange(0, int(round(0.5 / dt)) + 1) * dt
        fm = np.array([(0.3 + t ** 0.6) * F.modes for t in times])
        gm = np.exp(-np.outer(times, grid.wavenumbers ** 2.0)) * G.modes
        out = modified_paraproduct(Trajectory(times, fm, grid),
                                   Trajectory(times, gm, grid), bank)
        prec = np.array([paraproduct_lower(
            FourierField(fm[i], grid), FourierField(gm[i], grid)).modes
            for i in range(len(times))])
        return np.abs(out.modes - prec).max()

    e = [gap(d) for d in (0.02, 0.01, 0.005)]
    assert e[0] > e[1] > e[2]


# ----------------------------------------------------------------- norms


def loop_sobolev(modes, s):
    """sqrt(2 sum_k k^(2s) |c_k|^2), one mode at a time."""
    total = 0.0
    for k, c in enumerate(modes, start=1):
        total += (k ** s * abs(c)) ** 2
    return math.sqrt(2.0 * total)


def lp_block_sups(modes, grid):
    """Sup of every Littlewood-Paley block, read on the 8N-point grid."""
    f = FourierField(modes, grid)
    part = DyadicPartition(grid.n_modes)
    return np.array([np.abs(lp_block(f, j).to_physical(8 * grid.n_modes)).max()
                     for j in range(-1, part.j_max + 1)])


@pytest.mark.parametrize("s", [-0.3, 0.0, 0.5, 1.2])
def test_sobolev_norms_match_mode_loop(s):
    modes = np.random.default_rng(4).standard_normal((3, 5, 16, 2)) @ [1, 1j]
    out = sobolev_norms(modes, G16, s)
    assert out.shape == (3, 5)
    for idx in np.ndindex(3, 5):
        assert out[idx] == pytest.approx(loop_sobolev(modes[idx], s),
                                         rel=1e-13)


@pytest.mark.parametrize("s", [-0.3, 0.5])
def test_block_sups_and_holder_match_lp_blocks(s):
    modes = np.random.default_rng(11).standard_normal((4, 16, 2)) @ [1, 1j]
    sups = _block_sup_norms(modes, 16)
    hold = holder_norms(modes, 16, s)
    assert hold.shape == (4,)
    for row, row_sups, row_hold in zip(modes, sups, hold):
        ref = lp_block_sups(row, G16)
        np.testing.assert_allclose(row_sups, ref, rtol=1e-12)
        j = np.arange(-1, len(ref) - 1)
        assert row_hold == pytest.approx(np.max(2.0 ** (j * s) * ref),
                                         rel=1e-12)


def test_h0_matches_parseval():
    f = rand_field(G16, seed=9)
    assert sobolev_norms(f.modes, G16, 0.0) == pytest.approx(f.l2(), rel=1e-12)
    assert sobolev_norms(f.modes, G16, 0.0) == pytest.approx(
        math.sqrt(2.0) * np.linalg.norm(f.modes), rel=1e-12)


def test_pure_mode_sobolev_closed_form():
    f = FourierField.pure_mode(G16, 5, 0.3 - 0.4j)  # |c| = 0.5
    s = 0.7
    assert sobolev_norms(f.modes, G16, s) == pytest.approx(
        5.0 ** s * 0.5 * math.sqrt(2.0), rel=1e-14)


def test_plateau_mode_holder_closed_form():
    # mode 12 sits wholly in block 3: C^s = 2^{3s} * sup|2 cos|
    f = FourierField.pure_mode(G16, 12, 0.5)
    val = holder_norms(f.modes, 16, 0.5)
    assert val == pytest.approx(2.0 ** 1.5 * 1.0, rel=0.01)


def test_zero_field_norms_vanish():
    zero = np.zeros((3, 16), dtype=complex)
    assert np.array_equal(sobolev_norms(zero, G16, 0.5), np.zeros(3))
    assert np.array_equal(holder_norms(zero, 16, 0.5), np.zeros(3))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 10.0), st.integers(0, 2 ** 31))
def test_norms_scale_homogeneously(c, seed):
    f = rand_field(G16, seed=seed)
    assert sobolev_norms(c * f.modes, G16, 0.5) == pytest.approx(
        c * sobolev_norms(f.modes, G16, 0.5), rel=1e-10)
    assert holder_norms(c * f.modes, 16, 0.5) == pytest.approx(
        c * holder_norms(f.modes, 16, 0.5), rel=1e-10)
