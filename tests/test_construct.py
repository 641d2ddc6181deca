"""Tree constructor: Duhamel scans, frequency bookkeeping, the zero-start
family, and sampled covariances against the closed-form kernels."""

import math

import numpy as np
import pytest

from gfsb.construct import (
    bilinear_forcing,
    build_tree_family,
    duhamel_scan,
    recenter,
)
from gfsb.errors import NonuniformGrid
from gfsb.kernels import pair_kernel, quadratic_tree_covariance
from gfsb.noise import NoiseConfig, _normals, _ou_path, sample_Y
from gfsb.spectral import Grid
from gfsb.trajectory import Trajectory


def _uniform_times(dt, t_end):
    return np.arange(0, int(round(t_end / dt)) + 1) * dt


def _scan_constants(grid, dt):
    """Per-mode rates |k|^gamma, one-step decay and trapezoid weight."""
    rates = grid.wavenumbers ** grid.gamma
    decay = np.exp(-rates * dt)
    return rates, decay, (1.0 - decay) / rates


# ---------------------------------------------------------------- Duhamel


def test_duhamel_constant_forcing_is_exact():
    grid = Grid(n_modes=4, gamma=1.6)
    times = _uniform_times(0.01, 1.0)
    g = np.full((len(times), 4), 0.3 + 0.2j)
    rates, decay, weight = _scan_constants(grid, 0.01)
    out = duhamel_scan(g, decay, weight, init=g[0] / rates)
    want = (0.3 + 0.2j) / grid.wavenumbers ** 1.6
    assert np.abs(out - want).max() == 0.0


def test_duhamel_from_zero_starts_at_zero():
    grid = Grid(n_modes=4, gamma=1.6)
    times = _uniform_times(0.01, 0.5)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((len(times), 4)) + 0j
    _, decay, weight = _scan_constants(grid, 0.01)
    out = duhamel_scan(g, decay, weight)
    assert np.all(out[0] == 0.0)


def test_duhamel_sinusoid_reaches_steady_state():
    # forcing e^{i w t} relaxes onto 1/(|k|^gamma + i w); modes whose
    # relaxation rate clears the horizon agree to 1e-6
    grid = Grid(n_modes=4, gamma=1.6)
    w, dt, t_end = 3.0, 5e-4, 6.0
    times = _uniform_times(dt, t_end)
    g = np.exp(1j * w * times)[:, None] * np.ones((1, 4))
    rates, decay, weight = _scan_constants(grid, dt)
    out = duhamel_scan(g, decay, weight, init=g[0] / rates)
    steady = np.exp(1j * w * t_end) / (grid.wavenumbers ** 1.6 + 1j * w)
    rel = np.abs(out[-1] - steady) / np.abs(steady)
    assert rel[1:].max() < 1e-6


def test_duhamel_matches_closed_form_cosine():
    grid = Grid(n_modes=2, gamma=2.0)
    w, dt = 2.0, 1e-3
    times = _uniform_times(dt, 2.0)
    g = np.cos(w * times)[:, None] * np.array([[1.0, 0.0]])
    _, decay, weight = _scan_constants(grid, dt)
    out = duhamel_scan(g, decay, weight)
    a = 1.0  # mode 1, gamma = 2
    want = ((np.exp(1j * w * times) - np.exp(-a * times))
            / (a + 1j * w)).real
    assert np.abs(out[:, 0].real - want).max() < 1e-6


def test_duhamel_gamma_override():
    # the scan reads its exponent from the caller's per-mode constants,
    # not from the grid
    grid = Grid(n_modes=3, gamma=1.6)
    times = _uniform_times(0.01, 0.5)
    g = np.ones((len(times), 3), dtype=complex)
    rates, decay, weight = _scan_constants(Grid(n_modes=3, gamma=2.0), 0.01)
    out = duhamel_scan(g, decay, weight, init=g[0] / rates)
    assert np.allclose(out[-1], 1.0 / grid.wavenumbers ** 2)


def four_op_scan(forcing, decay, weight, init=None):
    """The scan as one four-operation update per step: the oracle for
    duhamel_scan, which forms every drive in one pass first."""
    out = np.empty_like(forcing, dtype=np.complex128)
    out[..., 0, :] = 0.0 if init is None else init
    half = 0.5 * weight
    for n in range(forcing.shape[-2] - 1):
        out[..., n + 1, :] = (decay * out[..., n, :]
                              + half * (forcing[..., n, :]
                                        + forcing[..., n + 1, :]))
    return out


def _scan_cases():
    rng = np.random.default_rng(28)
    cases = {}
    for name, shape in (("51x128", (51, 128)), ("batched", (3, 40, 16)),
                        ("one-node", (1, 16))):
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        start = g[..., 0, :] * (0.5 - 0.25j)
        cases[name] = (g, None)
        cases[name + "-init"] = (g, start)
    # zero_enhanced_data passes float rows
    cases["real-zero-init"] = (np.zeros((51, 128)),
                               rng.standard_normal(128) * (1 - 2j))
    return cases


SCAN_CASES = _scan_cases()


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_duhamel_scan_matches_the_four_op_update_bit_for_bit(case):
    g, init = SCAN_CASES[case]
    n = g.shape[-1]
    _, decay, weight = _scan_constants(Grid(n_modes=n, gamma=1.75), 4e-4)
    got = duhamel_scan(g, decay, weight, init=init)
    want = four_op_scan(g, decay, weight, init=init)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_duhamel_rejects_nonuniform_times():
    # the tree builder reads one step from the flow's time grid
    grid = Grid(n_modes=2, gamma=1.6)
    times = np.array([0.0, 0.1, 0.15, 0.4])
    base = Trajectory(times, np.zeros((4, 2), dtype=complex), grid)
    for recentered in (False, True):
        with pytest.raises(NonuniformGrid):
            build_tree_family(base, recentered=recentered)


# ------------------------------------------------------------ tree builds


def _two_mode_base(grid, amps, dt=0.01, t_end=0.3):
    times = _uniform_times(dt, t_end)
    modes = np.zeros((len(times), grid.n_modes), dtype=complex)
    for k, a in amps.items():
        modes[:, k - 1] = a
    return Trajectory(times, modes, grid)


def test_quadratic_tree_frequency_selection():
    grid = Grid(n_modes=12, gamma=1.6)
    base = _two_mode_base(grid, {2: 0.7 + 0.1j, 5: 0.3 - 0.2j})
    quad = build_tree_family(base)["lr"]
    support = {3, 4, 7, 10}  # |2-5|, 2+2, 2+5, 5+5
    scale = np.abs(quad.modes).max()
    for k in range(1, 13):
        col = np.abs(quad.modes[:, k - 1]).max()
        if k in support:
            assert col > 1e-6 * scale
        else:
            assert col < 1e-13 * scale  # transform roundoff only


def test_cubic_tree_frequency_selection():
    grid = Grid(n_modes=16, gamma=1.6)
    base = _two_mode_base(grid, {2: 0.7 + 0.1j, 5: 0.3 - 0.2j})
    cubic = build_tree_family(base)["rLlr"]
    quad_support = {3, 4, 7, 10}
    support = set()
    for q in quad_support:
        for b in (2, 5):
            for s in (q + b, abs(q - b)):
                if 1 <= s <= 16:
                    support.add(s)
    scale = np.abs(cubic.modes).max()
    for k in range(1, 17):
        col = np.abs(cubic.modes[:, k - 1]).max()
        if k in support:
            assert col > 1e-8 * scale
        else:
            assert col < 1e-13 * scale


def test_tree_family_returns_plain_trajectories():
    grid = Grid(n_modes=6, gamma=1.8)
    cfg = NoiseConfig(gamma=1.8, epsilon=0.0, seed=3, dt=0.01, t_end=0.2)
    base = sample_Y(cfg, grid)
    for recentered in (False, True):
        family = build_tree_family(base, recentered=recentered)
        assert set(family) == {"n", "lr", "rLlr"}
        assert family["n"] is base
        for tree in family.values():
            assert type(tree) is Trajectory
            assert tree.grid == grid
            assert np.array_equal(tree.times, base.times)


def test_tree_homogeneity_in_amplitude():
    # doubling the input scales the quadratic tree by 4 and the cubic
    # tree by 8 (powers of two keep float scaling exact step by step)
    grid = Grid(n_modes=8, gamma=1.6)
    cfg = NoiseConfig(gamma=1.6, epsilon=0.0, seed=12, dt=0.01, t_end=0.3)
    base = sample_Y(cfg, grid)
    doubled = Trajectory(base.times, 2.0 * base.modes, grid)
    f1 = build_tree_family(base)
    f2 = build_tree_family(doubled)
    assert np.allclose(f2["lr"].modes, 4.0 * f1["lr"].modes, rtol=1e-13)
    assert np.allclose(f2["rLlr"].modes, 8.0 * f1["rLlr"].modes, rtol=1e-13)


# ------------------------------------------------------------- recentering


def test_recenter_quadratic_starts_at_exact_zero():
    grid = Grid(n_modes=8, gamma=1.6)
    cfg = NoiseConfig(gamma=1.6, epsilon=0.0, seed=4, dt=0.01, t_end=0.5)
    base = sample_Y(cfg, grid)
    cen = build_tree_family(base, recentered=True)["lr"]
    assert np.all(cen.modes[0] == 0.0)
    assert np.array_equal(cen.modes,
                          recenter(build_tree_family(base)["lr"]).modes)


def test_recenter_gap_decays_like_slowest_mode():
    grid = Grid(n_modes=8, gamma=1.6)
    cfg = NoiseConfig(gamma=1.6, epsilon=0.0, seed=4, dt=0.01, t_end=2.0)
    quad = build_tree_family(sample_Y(cfg, grid))["lr"]
    cen = recenter(quad)
    gap = np.abs(quad.modes - cen.modes)
    envelope = (np.exp(-quad.times)[:, None]
                * np.abs(quad.modes[0])[None, :])
    assert np.all(gap <= envelope * (1 + 1e-12))
    # the gap is exactly the freely propagated initial slice
    exact = (np.exp(-np.outer(quad.times, grid.wavenumbers ** 1.6))
             * np.abs(quad.modes[0])[None, :])
    assert np.allclose(gap, exact, rtol=1e-10, atol=1e-14)


def test_recenter_cubic_starts_at_exact_zero():
    grid = Grid(n_modes=8, gamma=1.6)
    cfg = NoiseConfig(gamma=1.6, epsilon=0.0, seed=4, dt=0.01, t_end=0.5)
    cen = build_tree_family(sample_Y(cfg, grid), recentered=True)["rLlr"]
    assert np.all(cen.modes[0] == 0.0)


def test_recenter_commutes_with_scaling():
    grid = Grid(n_modes=8, gamma=1.6)
    cfg = NoiseConfig(gamma=1.6, epsilon=0.0, seed=8, dt=0.01, t_end=0.4)
    base = sample_Y(cfg, grid)
    doubled = Trajectory(base.times, 2.0 * base.modes, grid)
    cub1 = build_tree_family(base, recentered=True)["rLlr"]
    cub2 = build_tree_family(doubled, recentered=True)["rLlr"]
    assert np.allclose(cub2.modes, 8.0 * cub1.modes, rtol=1e-13)


def _recentered_tree_by_tree(base):
    """Oracle: the stationary family, then each tree recentred on its
    own.  The quadratic tree loses its propagated start; the cubic
    tree's forcing changes with it, so that tree is integrated again
    from zero against the recentred quadratic tree."""
    grid = base.grid
    rates, decay, weight = _scan_constants(grid, base.dt)
    stationary = build_tree_family(base)["lr"].modes
    free = np.exp(-np.outer(base.times - base.times[0], rates))
    lr = stationary - free * stationary[0]
    g = bilinear_forcing(lr, base.modes, grid)
    return {"n": base.modes, "lr": lr, "rLlr": duhamel_scan(g, decay, weight)}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("n_modes,dt,t_end,epsilon,seed", [
    (256, 1e-4, 0.1, 0.0625, 21),       # c10
    (32, 1e-3, 1.0, 0.03125, 0),        # c11, finest rung
    (64, 1e-3, 0.25, 0.125, 11),        # c12
], ids=["c10", "c11", "c12"])
def test_zero_start_family_equals_recentering_tree_by_tree(
        n_modes, dt, t_end, epsilon, seed):
    grid = Grid(n_modes=n_modes, gamma=1.75)
    cfg = NoiseConfig(gamma=1.75, epsilon=epsilon, seed=seed, dt=dt,
                      t_end=t_end)
    base = sample_Y(cfg, grid)
    direct = build_tree_family(base, recentered=True)
    oracle = _recentered_tree_by_tree(base)
    for key in ("n", "lr", "rLlr"):
        assert np.array_equal(direct[key].modes, oracle[key])


# ------------------------------------------------- sampled covariances


def _stationary_quadratic_endpoints(gamma, n_modes, dt, burn, n_replicas,
                                    seed, purpose0):
    grid = Grid(n_modes=n_modes, gamma=gamma)
    cfg = NoiseConfig(gamma=gamma, epsilon=0.0, seed=seed, dt=dt,
                      t_end=burn)
    T = cfg.n_steps + 1
    rates = grid.wavenumbers ** gamma
    decay = np.exp(-rates * dt)
    weight = (1.0 - decay) / rates
    out = []
    for r0 in range(0, n_replicas, 250):
        r1 = min(r0 + 250, n_replicas)
        z = _normals(seed, purpose0 + r0, (r1 - r0, T, n_modes, 2))
        y = _ou_path(cfg, grid, z)
        g = bilinear_forcing(y, y, grid)
        f = duhamel_scan(g, decay, weight, init=g[..., 0, :] / rates)
        out.append(f[:, -1, :])
    return np.concatenate(out, axis=0), cfg


@pytest.mark.parametrize("gamma,n_replicas,ks", [(1.6, 4000, (1, 2, 3)),
                                                 (2.0, 2000, (1, 2))])
def test_quadratic_variance_matches_oracle(gamma, n_replicas, ks):
    ends, cfg = _stationary_quadratic_endpoints(
        gamma, 8, 0.01, 7.0, n_replicas, seed=5, purpose0=50_000)
    for k in ks:
        samples = np.abs(ends[:, k - 1]) ** 2
        want = quadratic_tree_covariance(k, 0.0, 0.0, cfg, 8)
        se = samples.std(ddof=1) / math.sqrt(n_replicas)
        assert abs(samples.mean() - want) < 3 * se


def _channel_paths(y, k, j, gamma, dt):
    """Single (j, k-j) product channel pushed through the mode-k flow."""
    pj = y[..., abs(j) - 1] if j > 0 else np.conj(y[..., abs(j) - 1])
    kk = k - j
    pk = y[..., abs(kk) - 1] if kk > 0 else np.conj(y[..., abs(kk) - 1])
    prod = (pj * pk)[..., None]
    a = abs(k) ** gamma
    decay = np.array([math.exp(-a * dt)])
    weight = (1.0 - decay) / a
    f = duhamel_scan(prod, decay, weight, init=prod[..., 0, :] / a)
    return (0.5 * 1j * k * f)[..., 0]


def test_pair_channel_covariance_matches_kernel():
    gamma, n_modes, dt, burn = 1.6, 3, 0.01, 7.0
    grid = Grid(n_modes=n_modes, gamma=gamma)
    cfg = NoiseConfig(gamma=gamma, epsilon=0.0, seed=9, dt=dt,
                      t_end=burn + 0.4)
    T = cfg.n_steps + 1
    R = 10_000
    k, j, kp, jp = 2, 1, -2, -1
    i0 = int(round(burn / dt))
    meas = [i0, i0 + 20, i0 + 40]
    f1s, f2s = [], []
    for r0 in range(0, R, 2000):
        z = _normals(9, 70_000 + r0, (2000, T, n_modes, 2))
        y = _ou_path(cfg, grid, z)
        f1s.append(_channel_paths(y, k, j, gamma, dt)[:, meas])
        f2s.append(_channel_paths(y, kp, jp, gamma, dt)[:, meas])
    f1 = np.concatenate(f1s)
    f2 = np.concatenate(f2s)
    for a in range(3):
        for b in range(3):
            prod = np.real(f1[:, a] * f2[:, b])
            t, s = burn + 0.2 * a, burn + 0.2 * b
            want = pair_kernel(k, j, kp, jp, t, s, gamma, cfg)
            se = prod.std(ddof=1) / math.sqrt(R)
            assert abs(prod.mean() - want) < 3 * se


def test_pair_channel_mismatched_partner_is_null():
    gamma, n_modes, dt, burn = 1.6, 4, 0.01, 4.0
    grid = Grid(n_modes=n_modes, gamma=gamma)
    cfg = NoiseConfig(gamma=gamma, epsilon=0.0, seed=14, dt=dt, t_end=burn)
    T = cfg.n_steps + 1
    R = 5000
    z = _normals(14, 80_000, (R, T, n_modes, 2))
    y = _ou_path(cfg, grid, z)
    f1 = _channel_paths(y, 1, 2, gamma, dt)[:, -1]
    f2 = _channel_paths(y, -1, 3, gamma, dt)[:, -1]  # jp=3 not in {-2, 1}
    prod = np.real(f1 * f2)
    se = prod.std(ddof=1) / math.sqrt(R)
    assert pair_kernel(1, 2, -1, 3, 0.0, 0.0, gamma, cfg) == 0.0
    assert abs(prod.mean()) < 3 * se
