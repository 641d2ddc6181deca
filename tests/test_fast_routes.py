"""Band-sized products, horizon-cut time averages and row-chunked block
sups against the full routes.

The product kernel sizes its grid from the factors' bands, the
paraproduct masks are cut to their bands, the time average cuts its
lag kernel to the horizon, and the block sup norms run over row chunks.
Each reference below is the straightforward route those replace: every
product on the 4(N+1)-point grid, every mask over all N modes, the lag
kernel at full length, and every row's block samples at once.  The fast
routes must agree with them to roundoff on random inputs; the block
sups must agree bit for bit, and so must the time average with
scipy.signal.fftconvolve on the same cut kernel.
"""

import numpy as np
import pytest

from gfsb.besov import (
    _OVERSAMPLE,
    DyadicPartition,
    TimeMollifierBank,
    _bilinear,
    _block_sup_norms,
    _para_masks,
    _partition_weights,
    modified_paraproduct,
)
from gfsb.spectral import Grid, modes_to_physical, product_modes
from gfsb.trajectory import Trajectory
from scipy.signal import fftconvolve

RTOL = 1e-13


def full_grid_product(a, b, n_modes, with_report=False):
    m = 4 * (n_modes + 1)
    spec = np.fft.rfft(modes_to_physical(a, m) * modes_to_physical(b, m),
                       axis=-1) / m
    out = spec[..., 1:n_modes + 1]
    if not with_report:
        return out
    zero = np.abs(spec[..., 0]) ** 2
    high = 2.0 * np.sum(np.abs(spec[..., n_modes + 1:]) ** 2, axis=-1)
    return out, (zero, high)


def full_masks(n_modes):
    part = DyadicPartition(n_modes)
    _, w = _partition_weights(n_modes)
    out = []
    for j in range(-1, part.j_max + 1):
        lo_row = max(j, 0)
        hi_row = min(j + 2, part.j_max + 1)
        out.append((part.lowpass_weights(j - 1),
                    w[lo_row:hi_row + 1].sum(axis=0), w[j + 1]))
    return out


def full_bilinear(f, g, n_modes, which):
    acc = np.zeros(np.broadcast_shapes(f.shape, g.shape), dtype=complex)
    for lo, window, blk in full_masks(n_modes):
        left = f * (lo if which == "lower" else window)
        acc = acc + full_grid_product(left, g * blk, n_modes)
    return acc


def untruncated_smooth(bank, values, j):
    w = bank.lag_weights(j)
    if len(w) == 1:
        return values
    n = len(values)
    shape = (-1,) + (1,) * (values.ndim - 1)
    out = fftconvolve(values, w.reshape(shape), axes=0)[:n]
    cum = np.cumsum(w)
    tail = np.zeros(n)
    upto = min(n, len(w))
    tail[:upto] = np.clip(1.0 - cum[:upto], 0.0, None)
    return out + tail.reshape(shape) * values[0]


def fftconvolve_smooth(bank, values, j):
    """The time average through scipy.signal.fftconvolve, with the lag
    kernel cut to the horizon as in ``TimeMollifierBank.smooth``."""
    n = len(values)
    w = bank.lag_weights(j)[:n]
    if len(w) == 1:
        return values
    shape = (-1,) + (1,) * (values.ndim - 1)
    out = fftconvolve(values, w.reshape(shape), axes=0)[:n]
    tail = np.zeros(n)
    tail[:len(w)] = np.clip(1.0 - np.cumsum(w), 0.0, None)
    return out + tail.reshape(shape) * values[0]


def full_modified_paraproduct(f, g, bank, n_modes):
    acc = np.zeros_like(g)
    for j, (lo, _, blk) in enumerate(full_masks(n_modes), start=-1):
        left = untruncated_smooth(bank, f * lo, j)
        acc = acc + full_grid_product(left, g * blk, n_modes)
    return acc


def unchunked_block_sups(modes, n_modes):
    _, w = _partition_weights(n_modes)
    vals = modes_to_physical(modes[..., None, :] * w, _OVERSAMPLE * n_modes)
    return np.max(np.abs(vals), axis=-1)


def random_modes(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_close(fast, ref, rtol=RTOL):
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    assert fast.shape == ref.shape
    assert float(np.max(np.abs(fast - ref))) <= rtol * scale


BATCHES = [(), (3,), (40,)]


@pytest.mark.parametrize("n_modes", [7, 128, 256])
@pytest.mark.parametrize("batch", BATCHES)
def test_product_matches_full_grid(n_modes, batch):
    rng = np.random.default_rng(n_modes + len(batch))
    a = random_modes(rng, batch + (n_modes,))
    b = random_modes(rng, batch + (n_modes,))
    assert_close(product_modes(a, b, n_modes),
                 full_grid_product(a, b, n_modes))


@pytest.mark.parametrize("n_modes", [7, 128, 256])
@pytest.mark.parametrize("batch", BATCHES)
def test_band_limited_product_matches_zero_padded(n_modes, batch):
    """Factors with fewer stored modes equal full-length factors padded
    with zeros, whichever of the two bands is wider."""
    rng = np.random.default_rng(2 * n_modes + len(batch))
    for ka, kb in ((1, n_modes), (n_modes // 3 + 1, n_modes // 2 + 1),
                   (n_modes, 2), (n_modes // 4 + 1, n_modes // 4 + 1)):
        a = random_modes(rng, batch + (ka,))
        b = random_modes(rng, batch + (kb,))
        pad_a = np.zeros(batch + (n_modes,), dtype=complex)
        pad_b = np.zeros(batch + (n_modes,), dtype=complex)
        pad_a[..., :ka] = a
        pad_b[..., :kb] = b
        assert_close(product_modes(a, b, n_modes),
                     full_grid_product(pad_a, pad_b, n_modes))


def test_empty_band_product_is_zero():
    b = random_modes(np.random.default_rng(0), (5, 16))
    out = product_modes(b[..., :0], b, 16)
    assert out.shape == (5, 16)
    assert not np.any(out)


@pytest.mark.parametrize("n_modes", [7, 128, 256])
@pytest.mark.parametrize("batch", BATCHES)
def test_product_report_matches_full_grid(n_modes, batch):
    rng = np.random.default_rng(3 * n_modes + len(batch))
    for ka, kb in ((n_modes, n_modes), (n_modes // 2 + 1, n_modes)):
        a = random_modes(rng, batch + (ka,))
        b = random_modes(rng, batch + (kb,))
        pad_a = np.zeros(batch + (n_modes,), dtype=complex)
        pad_b = np.zeros(batch + (n_modes,), dtype=complex)
        pad_a[..., :ka] = a
        pad_b[..., :kb] = b
        out, (zero, high) = product_modes(a, b, n_modes, with_report=True)
        ref, (ref_zero, ref_high) = full_grid_product(
            pad_a, pad_b, n_modes, with_report=True)
        assert_close(out, ref)
        assert_close(zero, ref_zero, rtol=1e-12)
        assert_close(high, ref_high, rtol=1e-12)


@pytest.mark.parametrize("n_modes", [7, 128, 256])
def test_band_masks_are_the_full_masks_cut(n_modes):
    for cut, full in zip(_para_masks(n_modes), full_masks(n_modes)):
        for mask, ref in zip(cut, full):
            assert np.array_equal(mask, ref[:mask.size])
            assert not np.any(ref[mask.size:])


@pytest.mark.parametrize("which", ["lower", "resonant"])
@pytest.mark.parametrize("n_modes", [7, 128, 256])
@pytest.mark.parametrize("batch", BATCHES)
def test_bilinear_matches_full_masks(which, n_modes, batch):
    rng = np.random.default_rng(5 * n_modes + len(batch))
    f = random_modes(rng, batch + (n_modes,))
    g = random_modes(rng, batch + (n_modes,))
    assert_close(_bilinear(f, g, n_modes, which),
                 full_bilinear(f, g, n_modes, which))


# At dt = 0.01 and gamma = 2 blocks -1..4 keep 401, 101, 26, 7, 2 and 1
# lags: horizons of 1, 2 and 51 rows are shorter than some kernels and
# longer than others, and 600 rows outlast every kernel.
HORIZONS = [1, 2, 51, 600]


@pytest.mark.parametrize("rows", HORIZONS)
@pytest.mark.parametrize("tail", [(), (3,), (2, 7)])
def test_smooth_matches_untruncated_kernel(rows, tail):
    bank = TimeMollifierBank(dt=0.01, gamma=2.0)
    rng = np.random.default_rng(rows + len(tail))
    values = random_modes(rng, (rows,) + tail)
    for j in range(-1, 6):
        assert_close(bank.smooth(values, j),
                     untruncated_smooth(bank, values, j))


@pytest.mark.parametrize("rows", HORIZONS)
@pytest.mark.parametrize("tail", [(), (3,), (2, 7)])
def test_smooth_is_bit_identical_to_fftconvolve(rows, tail):
    bank = TimeMollifierBank(dt=0.01, gamma=2.0)
    rng = np.random.default_rng(rows + len(tail))
    values = random_modes(rng, (rows,) + tail)
    for j in range(-1, 6):
        fast = bank.smooth(values, j)
        ref = fftconvolve_smooth(bank, values, j)
        assert fast.dtype == ref.dtype
        assert np.array_equal(fast, ref)


@pytest.mark.parametrize("n_modes,rows", [(7, 1), (7, 51), (7, 600),
                                          (128, 2), (128, 51),
                                          (256, 51)])
def test_modified_paraproduct_matches_full_route(n_modes, rows):
    dt = 0.01
    bank = TimeMollifierBank(dt=dt, gamma=2.0)
    grid = Grid(n_modes, 2.0)
    times = dt * np.arange(rows)
    rng = np.random.default_rng(n_modes * rows)
    f = random_modes(rng, (rows, n_modes))
    g = random_modes(rng, (rows, n_modes))
    out = modified_paraproduct(Trajectory(times, f, grid),
                               Trajectory(times, g, grid), bank)
    assert_close(out.modes, full_modified_paraproduct(f, g, bank, n_modes))


@pytest.mark.parametrize("n_modes,batch", [(7, ()), (128, (51,)),
                                           (256, (1001,)), (16, (3, 17)),
                                           (16, (0,))])
def test_block_sups_match_unchunked_route(n_modes, batch):
    rng = np.random.default_rng(7 * n_modes + len(batch))
    modes = random_modes(rng, batch + (n_modes,))
    out = _block_sup_norms(modes, n_modes)
    ref = unchunked_block_sups(modes, n_modes)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert np.array_equal(out, ref)
