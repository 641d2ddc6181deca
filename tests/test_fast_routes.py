"""Band-sized products, horizon-cut time averages, row-chunked block
sups and the pruned solver norm against the full routes.

The product kernel sizes its grid from the factors' bands, the
paraproduct masks are cut to their bands, the time average cuts its
lag kernel to the horizon, the block sup norms run over row chunks with
a fused max, and the solver norm skips the (row, block) sups whose l1
bound cannot reach the max.  Each reference below is the
straightforward route those replace: every product on the 4(N+1)-point
grid, every mask over all N modes, the lag kernel at full length, every
row's block samples at once read as max |x|, and the max over every
row's norm.  The fast routes must agree with them to roundoff on random
inputs; the block sups, c06's band sups and the solver norm must agree
bit for bit, and so must the time average with
scipy.signal.fftconvolve on the same cut kernel.  The package runs on
numpy alone, so scipy.fft is the oracle for its two stand-ins: the
fast-length rule and a real kernel's mirrored spectrum.  A pairing, and a
time-smoothed paraproduct against Q sampled ahead of time, must equal,
bit for bit, the same sums formed one ``product_modes`` call per block,
and a square must equal the product of its factor with a copy.  The
paracontrolled sweep's one-product forcing must equal the paper's
pairing form of it to roundoff, since the dealiased Bony split is exact.
"""

import math

import numpy as np
import pytest

import gfsb.besov
import gfsb.solver
import gfsb.spectral
from gfsb.besov import (
    _OVERSAMPLE,
    _SUP_ROWS,
    DyadicPartition,
    TimeMollifierBank,
    _bilinear,
    _block_sup_norms,
    _para_masks,
    _partition_weights,
    _real_fft,
    _sample,
    intersection_sup,
    modified_paraproduct,
    sobolev_norms,
)
from gfsb.construct import bilinear_forcing
from gfsb.harness import _band_window_sups
from gfsb.kernels import COUPLING
from gfsb.noise import NoiseConfig, sample_Y
from gfsb.solver import _w_values, build_enhanced_data, solve_paracontrolled
from gfsb.spectral import (FourierField, Grid, _next_fast_len,
                           derivative_symbol, modes_to_physical,
                           product_modes)
from gfsb.trajectory import Trajectory
from gfsb.trees import CoefficientMap, RegularityParams
from scipy import fft as scipy_fft
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


def blockwise_bilinear(f, g, n_modes, which):
    """The pairing as one product_modes call per block, each call
    sampling both of its factors."""
    acc = np.zeros(np.broadcast_shapes(f.shape, g.shape), dtype=complex)
    for lo, window, blk in _para_masks(n_modes):
        left = lo if which == "lower" else window
        if left.size:
            acc += product_modes(f[..., :left.size] * left,
                                 g[..., :blk.size] * blk, n_modes)
    return acc


def blockwise_modified_paraproduct(f, g, bank, n_modes):
    acc = np.zeros_like(g)
    for j, (lo, _, blk) in enumerate(_para_masks(n_modes), start=-1):
        if lo.size:
            left = bank.smooth(f[..., :lo.size] * lo, j)
            acc += product_modes(left, g[..., :blk.size] * blk, n_modes)
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


def full_w_sup(modes, grid, s):
    return float(np.max(_w_values(modes, grid, s)))


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
        out = product_modes(a, b, n_modes)
        ref, (ref_zero, ref_high) = full_grid_product(
            pad_a, pad_b, n_modes, with_report=True)
        assert_close(out, ref)
        # what the product drops is the oracle's mean and high modes
        m = 4 * (n_modes + 1)
        whole = np.mean((modes_to_physical(pad_a, m)
                         * modes_to_physical(pad_b, m)) ** 2, axis=-1)
        dropped = whole - 2.0 * np.sum(np.abs(out) ** 2, axis=-1)
        assert_close(dropped, ref_zero + ref_high, rtol=1e-12)


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


@pytest.mark.parametrize("real", [True, False])
def test_fast_length_rule_is_scipys(real):
    got = [_next_fast_len(n, real=real) for n in range(1, 20001)]
    want = [scipy_fft.next_fast_len(n, real=real) for n in range(1, 20001)]
    assert got == want


@pytest.mark.parametrize("tail", [(), (1,), (1, 1)])
def test_mirrored_real_spectrum_is_scipys_complex_fft(tail):
    rng = np.random.default_rng(len(tail))
    for lags in range(1, 402):
        kernel = rng.random((lags,) + tail)
        for m in {lags, lags + 1, 2 * lags, 2 * lags + 1,
                  _next_fast_len(lags + 60)}:
            got = _real_fft(kernel, m)
            want = scipy_fft.fft(kernel, m, axis=0)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (lags, m)


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


# ------------------------------------------------------ pruned solver norm

W_EXPONENTS = (-0.4, 0.25, 0.9)


def decaying_rows(rng, rows, n_modes):
    """Modes decaying like 1/k, each row scaled by its own amplitude."""
    k = np.arange(1, n_modes + 1)
    return (random_modes(rng, (rows, n_modes)) / k
            * rng.exponential(size=(rows, 1)))


def tight_rows(rows):
    """0.5 e^{i phi} at mode 12 of N = 16, which sits on block 3's plateau
    (weight exactly 1), for phi a multiple of pi/2: each row's block sup
    2 * 0.5 is reached on the 8N grid, so the l1 bound is attained and
    every row has the same bound and Hoelder norm 2^{3s}."""
    modes = np.zeros((rows, 16), dtype=complex)
    modes[:, 11] = 0.5 * np.array([1, 1j, -1, -1j])[np.arange(rows) % 4]
    return modes


def sobolev_rows(rows):
    """0.5 at mode 16 of N = 16: the mode is split between blocks 3 and
    4, so every l1 bound stays under the Sobolev norm."""
    modes = np.zeros((rows, 16), dtype=complex)
    modes[:, 15] = 0.5
    return modes


def spread_top_rows(rng, rows):
    """Rows of N = 32 whose largest l1 bound is not their largest sup:
    seven unit modes on block 4's plateau (k = 20..26) with Schroeder
    phases, which keep their peak low, shifted by a random x, against
    one mode of amplitude 5 on block 2's plateau (k = 5).  The spread
    block's bound 2 * 7 beats the single mode's 2 * 5, but its sup
    falls short of it."""
    k = np.arange(20, 27)
    shift = 2.0 * np.pi * rng.random((rows, 1))
    modes = np.zeros((rows, 32), dtype=complex)
    modes[:, k - 1] = np.exp(1j * (np.pi * (k - 20) * (k - 19) / 7
                                   + k * shift))
    modes[:, 4] = 5.0 * np.exp(2j * np.pi * rng.random(rows))
    return modes * rng.exponential(size=(rows, 1))


def worst_phase_cos_rows(n_modes):
    """cos(nx + phi) for every n = 1..N, with phi half a node spacing of
    the 8N grid off its peak, so the sampled sup falls furthest below
    the l1 bound."""
    m = _OVERSAMPLE * n_modes
    n = np.arange(1, n_modes + 1)
    phase = np.pi * np.gcd(n, m) / m
    modes = np.zeros((n_modes, n_modes), dtype=complex)
    modes[n - 1, n - 1] = 0.5 * np.exp(1j * phase)
    return modes


def adversarial_inputs():
    rng = np.random.default_rng(11)
    base = decaying_rows(rng, 1, 32)[0]
    # -c, conj(c) and 1j*c have |c| bit for bit, so all 40 bounds tie
    equal = np.stack([v for _ in range(10)
                      for v in (base, -base, base.conj(), 1j * base)])
    spike = np.zeros((50, 32), dtype=complex)
    spike[23, 5] = 3.0 - 1.0j
    loud = decaying_rows(rng, 50, 32)
    loud[37] *= 1e6
    cos_rows = np.zeros((24, 32), dtype=complex)
    phase = np.exp(2j * np.pi * rng.integers(0, 8 * 32, 24) / (8 * 32))
    cos_rows[np.arange(24), rng.integers(0, 32, 24)] = 0.7 * phase
    return {
        "equal-bounds": (equal, 32),
        "spike": (spike, 32),
        "one-loud-row": (loud, 32),
        "all-zero": (np.zeros((20, 32), dtype=complex), 32),
        "pure-cos": (cos_rows, 32),
        "tight": (tight_rows(20), 16),
        "one-row": (decaying_rows(rng, 1, 32)[0][None, :], 32),
        "sobolev-wins": (sobolev_rows(20), 16),
        "l1-top-is-not-sup-top": (spread_top_rows(rng, 30), 32),
        # equal positive coefficients peak at x = 0, a grid node, where
        # every block attains its l1 bound
        "physical-spike": (np.full((6, 32), 1.0 / 32)
                           * np.arange(1, 7)[:, None], 32),
        "cos-worst-phase": (worst_phase_cos_rows(32), 32),
    }


@pytest.mark.parametrize("n_modes,rows", [(128, 51), (256, 1001), (17, 40),
                                          (7, 5)])
@pytest.mark.parametrize("s", W_EXPONENTS)
def test_w_sup_matches_full_route(n_modes, rows, s):
    rng = np.random.default_rng(3 * n_modes + rows)
    grid = Grid(n_modes, 2.0)
    for modes in (decaying_rows(rng, rows, n_modes),
                  random_modes(rng, (rows, n_modes))):
        assert intersection_sup(modes, grid, s) == full_w_sup(modes, grid, s)


@pytest.mark.parametrize("case", sorted(adversarial_inputs()))
@pytest.mark.parametrize("s", W_EXPONENTS + (0.5,))
def test_w_sup_matches_full_route_on_adversarial_rows(case, s):
    modes, n_modes = adversarial_inputs()[case]
    grid = Grid(n_modes, 2.0)
    assert intersection_sup(modes, grid, s) == full_w_sup(modes, grid, s)


def test_spread_rows_top_bound_and_top_sup_differ():
    rows = spread_top_rows(np.random.default_rng(11), 30)
    _, w = _partition_weights(32)
    bounds = 2.0 * (np.abs(rows) @ w.T)
    sups = _block_sup_norms(rows, 32)
    assert np.all(np.argmax(bounds, axis=1) != np.argmax(sups, axis=1))


@pytest.fixture(scope="module")
def sweep_differences():
    """The arguments of intersection_sup in real solves: both Picard
    solvers at the reconstruction shape (51 nodes, N = 128), and the
    first sweeps of a paracontrolled solve at the c10 shape (1001 nodes,
    N = 256)."""
    captured = {"reconstruction": [], "c10": []}
    u0 = np.zeros(256, dtype=complex)
    u0[:3] = (0.08 - 0.02j, 0.03 + 0.01j, -0.015j)
    orig = gfsb.solver.intersection_sup

    class Enough(Exception):
        pass

    for key, n_modes, dt, t_end in (("reconstruction", 128, 4e-4, 0.02),
                                    ("c10", 256, 1e-4, 0.1)):
        grid = Grid(n_modes, 1.75)
        cfg = NoiseConfig(gamma=1.75, epsilon=0.0625, seed=21, dt=dt,
                          t_end=t_end)
        data = build_enhanced_data(sample_Y(cfg, grid),
                                   RegularityParams(alpha=-0.2, b=0.5))
        u = FourierField(u0[:n_modes], grid)

        def spy(modes, grid, s, key=key):
            captured[key].append((modes.copy(), grid, s))
            if key == "c10" and len(captured[key]) == 4:
                raise Enough
            return orig(modes, grid, s)

        gfsb.solver.intersection_sup = spy
        try:
            solve_paracontrolled(data, None, u, tol=1e-12)
            if key == "reconstruction":
                gfsb.solver.solve_subcritical(data, None, u, tol=1e-12)
        except Enough:
            pass
        finally:
            gfsb.solver.intersection_sup = orig
    return captured


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("shape", ["reconstruction", "c10"])
def test_w_sup_matches_full_route_on_sweep_differences(sweep_differences,
                                                       shape):
    """Each argument is one slab's rows or, in a paracontrolled sweep,
    the steps of u' and u# stacked by rows."""
    calls = sweep_differences[shape]
    assert len(calls) >= 4
    rows, n_modes = (51, 128) if shape == "reconstruction" else (1001, 256)
    stacked = 0
    for modes, grid, s in calls:
        assert modes.shape in ((rows, n_modes), (2 * rows, n_modes))
        stacked += modes.shape[0] == 2 * rows
        assert intersection_sup(modes, grid, s) == full_w_sup(modes, grid, s)
    assert stacked >= 3


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_w_sup_reads_no_pair_of_sweep_rows_under_a_loud_sobolev_row(
        sweep_differences, pairs_read):
    """A stacked paracontrolled step with one loud row added at mode 128,
    which blocks 6 and 7 share half and half, so that row's Sobolev norm
    beats every l1 bound, its own included: no pair is sorted or read,
    and the max is that Sobolev norm."""
    modes, grid, s = next(c for c in sweep_differences["reconstruction"]
                          if c[0].shape == (102, 128))
    loud = np.zeros((1, 128), dtype=complex)
    loud[0, 127] = 1e3 * 128 * np.max(np.abs(modes))
    rows = np.concatenate([modes, loud])
    assert pairs_read(rows, grid, s) == 0
    assert intersection_sup(rows, grid, s) == sobolev_norms(loud, grid, s)[0]


def test_w_sup_sides_of_the_adversarial_rows():
    """The tight rows are won by the Hoelder side, the split-mode rows by
    the Sobolev side, so both starts of the running max are exercised."""
    s, grid = 0.5, Grid(16, 2.0)
    for modes, sobolev_wins in ((tight_rows(20), False),
                                (sobolev_rows(20), True)):
        top = float(np.max(sobolev_norms(modes, grid, s)))
        assert (intersection_sup(modes, grid, s) == top) == sobolev_wins


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_w_sup_stays_non_finite(bad):
    rng = np.random.default_rng(5)
    grid = Grid(32, 2.0)
    for where in ((0, 0), (17, 31), (3, 9), (5, 7), 8):
        modes = decaying_rows(rng, 20, 32)
        # row 5 is faint, so its pairs would be skipped were it finite
        modes[5] *= 1e-9
        modes[where] = bad
        got = intersection_sup(modes, grid, 0.25)
        ref = full_w_sup(modes, grid, 0.25)
        assert not math.isfinite(got)
        assert got == ref or (math.isnan(got) and math.isnan(ref))


@pytest.fixture
def pairs_read(monkeypatch):
    """(row, block) pairs whose sups intersection_sup reads, summed over its
    calls."""
    counted = []
    full = gfsb.besov._block_sup_norms

    def spy(modes, n_modes, pairs=None):
        counted.append(len(pairs[0]) if pairs is not None else
                       math.prod(modes.shape[:-1])
                       * _partition_weights(n_modes)[1].shape[0])
        return full(modes, n_modes, pairs)

    monkeypatch.setattr(gfsb.besov, "_block_sup_norms", spy)

    def read(modes, grid, s):
        ref = full_w_sup(modes, grid, s)
        counted.clear()
        assert intersection_sup(modes, grid, s) == ref
        return sum(counted)
    return read


def pairs_above(modes, grid, s):
    """The (row, block) pairs whose bound * (1 + 1e-12) beats the max
    that intersection_sup returns: every schedule must read them all."""
    rows = modes.reshape(-1, modes.shape[-1])
    _, w = _partition_weights(grid.n_modes)
    scale = 2.0 ** (np.arange(-1, w.shape[0] - 1) * s)
    bound = scale * (2.0 * (np.abs(rows) @ w.T))
    return int(np.sum(bound * (1.0 + 1e-12) > intersection_sup(modes, grid,
                                                              s)))


def test_w_sup_reads_few_rows_of_decaying_input(pairs_read):
    """Row amplitudes shrink geometrically, as along a contracting Picard
    sweep, so the top pairs' bounds clear the rest; the Hoelder side
    wins, so the prune is not won by the Sobolev start alone.  Of the
    1600 pairs, 12 have a bound above the max, and the chunks of 1, 2,
    4 and 8 read those 12 and no other (one chunk of 16 read 16)."""
    rng = np.random.default_rng(2)
    grid = Grid(64, 2.0)
    modes = decaying_rows(rng, 200, 64) * 0.97 ** np.arange(200)[:, None]
    assert (intersection_sup(modes, grid, 0.9)
            > np.max(sobolev_norms(modes, grid, 0.9)))
    assert pairs_read(modes, grid, 0.9) == pairs_above(modes, grid, 0.9) == 12


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_w_sup_reads_only_the_pairs_above_the_max_of_sweep_rows(
        sweep_differences, pairs_read):
    """On the reconstruction shape's sweep steps, the chunks of 1, 2, 4,
    8 and then 16 pairs read exactly the pairs whose bound beats the
    final max (61 over the 33 calls of one solve of each route), the
    fewest that any order of reads could take."""
    calls = sweep_differences["reconstruction"]
    read = [pairs_read(modes, grid, s) for modes, grid, s in calls]
    assert read == [pairs_above(modes, grid, s) for modes, grid, s in calls]
    assert sum(read) == 61


def test_w_sup_reads_every_row_when_bounds_tie_tight(pairs_read):
    """Each tight row has one block with a nonzero bound, and every such
    pair attains its bound, so all 40 are read and no other pair is."""
    assert pairs_read(tight_rows(40), Grid(16, 2.0), 0.5) == 40


@pytest.mark.parametrize("modes", [np.zeros((40, 16), dtype=complex),
                                   sobolev_rows(40)],
                         ids=["all-zero", "sobolev-wins"])
def test_w_sup_reads_no_row_under_the_sobolev_max(pairs_read, modes):
    assert pairs_read(modes, Grid(16, 2.0), 0.5) == 0


@pytest.mark.parametrize("n_modes,batch", [(7, (5,)), (128, (51,)),
                                           (32, (3, 17))])
def test_block_sup_pairs_match_the_full_table(n_modes, batch):
    """Sups read pair by pair, in any order and with repeats, equal the
    entries of the every-block table bit for bit."""
    rng = np.random.default_rng(n_modes + len(batch))
    modes = random_modes(rng, batch + (n_modes,))
    rows = modes.reshape(-1, n_modes)
    table = _block_sup_norms(rows, n_modes)
    flat = rng.integers(0, table.size, 3 * _SUP_ROWS + 5)
    r, b = np.divmod(flat, table.shape[1])
    assert np.array_equal(_block_sup_norms(rows, n_modes, (r, b)),
                          table[r, b])


def test_read_sups_of_zero_rows_are_positive_zeros():
    """max(x.max(), -x.min()) of a zero row can come out as -0.0; the
    reader returns +0.0, as max |x| does."""
    out = _block_sup_norms(np.zeros((3, 16), dtype=complex), 16)
    assert not np.any(out) and not np.any(np.signbit(out))


def unfused_band_window_sups(modes, n_modes, js):
    """Each block's sup over all rows as max |x| of one transform of
    every row's band, with no chunks and no fused max."""
    _, w = _partition_weights(n_modes)
    out = []
    for j in js:
        hi = int(np.nonzero(w[j + 1])[0][-1]) + 1
        n_phys = 1 << max(4, int(np.ceil(np.log2(8 * hi))))
        band = modes[:, :hi] * w[j + 1][:hi]
        out.append(float(np.max(np.abs(modes_to_physical(band, n_phys)))))
    return np.array(out)


@pytest.mark.parametrize("rows,n_modes", [(301, 1024), (40, 64), (1, 16)])
def test_band_window_sups_match_unfused_route(rows, n_modes):
    """c06's ladder sups go through the solver norm's chunked reader."""
    rng = np.random.default_rng(rows)
    modes = decaying_rows(rng, rows, n_modes)
    modes[rows // 2] = 0.0
    js = np.arange(-1, DyadicPartition(n_modes).j_max + 1)
    assert np.array_equal(_band_window_sups(modes, n_modes, js),
                          unfused_band_window_sups(modes, n_modes, js))


# ------------------------------------------------ pre-sampled fixed factors

SAMPLED_SHAPES = [(51, 128), (1001, 256), (40, 17), (5, 7)]


def assert_same(fast, ref):
    assert fast.dtype == ref.dtype and fast.shape == ref.shape
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("rows,n_modes", SAMPLED_SHAPES)
@pytest.mark.parametrize("which", ["lower", "resonant"])
def test_sampled_bilinear_is_bit_identical(rows, n_modes, which):
    """The pairing against the same sum formed one product_modes call
    per block, at the reconstruction and c10 shapes and two small ones."""
    rng = np.random.default_rng(rows + n_modes)
    f = random_modes(rng, (rows, n_modes))
    g = random_modes(rng, (rows, n_modes))
    assert_same(_bilinear(f, g, n_modes, which),
                blockwise_bilinear(f, g, n_modes, which))


def test_sampled_factor_is_refused_elsewhere():
    """Q sampled for another grid does not fit the paraproduct's blocks."""
    rng = np.random.default_rng(4)
    f = random_modes(rng, (5, 16))
    traj = Trajectory(0.01 * np.arange(5), f, Grid(16, 2.0))
    bank = TimeMollifierBank(dt=0.01, gamma=2.0)
    other = Trajectory(traj.times, random_modes(rng, (5, 17)), Grid(17, 2.0))
    with pytest.raises(ValueError):
        modified_paraproduct(traj, _sample(other, 17), bank)


@pytest.mark.parametrize("rows,n_modes", SAMPLED_SHAPES)
def test_modified_paraproduct_with_sampled_q_is_bit_identical(rows,
                                                              n_modes):
    dt = 0.01
    bank = TimeMollifierBank(dt=dt, gamma=2.0)
    grid = Grid(n_modes, 2.0)
    times = dt * np.arange(rows)
    rng = np.random.default_rng(rows * n_modes)
    f = random_modes(rng, (rows, n_modes))
    q = Trajectory(times, random_modes(rng, (rows, n_modes)), grid)
    ref = blockwise_modified_paraproduct(f, q.modes, bank, n_modes)
    f_traj = Trajectory(times, f, grid)
    plain = modified_paraproduct(f_traj, q, bank)
    sampled = modified_paraproduct(f_traj, _sample(q, n_modes), bank)
    assert_same(plain.modes, ref)
    assert_same(sampled.modes, ref)
    assert np.array_equal(sampled.times, times) and sampled.grid == grid


# ------------------------------------------- paracontrolled sweep forcing


def pairing_sweep_forcing(prime, xlr, y, grid):
    """The paracontrolled sweep's forcing in the paper's pairings: the
    tree square, 2c d(X_lr u'), c d(u'^2), 2c d lower(u', y) and
    2c d[resonant(u', y) + lower(y, u')]."""
    n = grid.n_modes
    d2c = 2.0 * COUPLING * derivative_symbol(grid)
    return (bilinear_forcing(xlr, xlr, grid)
            + 2.0 * bilinear_forcing(xlr, prime, grid)
            + bilinear_forcing(prime, prime, grid)
            + d2c * _bilinear(prime, y, n, "lower")
            + d2c * (_bilinear(prime, y, n, "resonant")
                     + _bilinear(y, prime, n, "lower")))


@pytest.mark.parametrize("n_modes", [128, 256])
def test_sweep_forcing_matches_the_pairing_form(n_modes, monkeypatch):
    """Every sweep of a paracontrolled solve on c10's trees (its gamma,
    width, seed, step and regularities, on a 31-node horizon) forms its
    forcing from one product of u'.  Captured with the u' it was formed
    from, it must equal the pairing form within 1e-12 max|forcing|: the
    dealiased Bony split is exact, but the sums round differently."""
    gamma = 1.75
    grid = Grid(n_modes, gamma)
    cfg = NoiseConfig(gamma=gamma, epsilon=0.0625, seed=21, dt=1e-4,
                      t_end=0.003)
    data = build_enhanced_data(sample_Y(cfg, grid),
                               RegularityParams(alpha=-0.2, b=0.5))
    u0 = np.zeros(n_modes, dtype=complex)
    u0[:3] = (0.08 - 0.02j, 0.03 + 0.01j, -0.015j)
    primes, forcings = [], []
    forcing, scan = gfsb.solver.bilinear_forcing, gfsb.solver.duhamel_scan

    def forcing_spy(a, b, grid):
        if a is not b:
            primes.append(a.copy())
        return forcing(a, b, grid)

    def scan_spy(g, decay, weight, init=None):
        if init is not None:
            forcings.append(g.copy())
        return scan(g, decay, weight, init=init)

    monkeypatch.setattr(gfsb.solver, "bilinear_forcing", forcing_spy)
    monkeypatch.setattr(gfsb.solver, "duhamel_scan", scan_spy)
    state = solve_paracontrolled(data, None, FourierField(u0, grid),
                                 tol=1e-12)
    assert len(state.diagnostics["slabs"]) == 1
    assert len(primes) == len(forcings) >= 3

    c = CoefficientMap.standard()
    y = c["n"] * data.trees["n"].modes
    xlr = c["lr"] * data.trees["lr"].modes
    assert np.max(np.abs(y)) > 0 and np.max(np.abs(xlr)) > 0
    for prime, got in zip(primes, forcings):
        want = pairing_sweep_forcing(prime, xlr, y, grid)
        scale = float(np.max(np.abs(want)))
        assert scale > 0
        assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


@pytest.mark.parametrize("n_modes", [7, 128, 256])
@pytest.mark.parametrize("batch", BATCHES)
def test_square_samples_its_factor_once(n_modes, batch, monkeypatch):
    rng = np.random.default_rng(9 * n_modes + len(batch))
    a = random_modes(rng, batch + (n_modes,))
    calls = []
    full = gfsb.spectral.modes_to_physical

    def spy(modes, n_points):
        calls.append(n_points)
        return full(modes, n_points)

    monkeypatch.setattr(gfsb.spectral, "modes_to_physical", spy)
    ref = product_modes(a, a.copy(), n_modes)
    assert len(calls) == 2
    calls.clear()
    out = product_modes(a, a, n_modes)
    assert len(calls) == 1
    assert_same(out, ref)
