"""OU noise engine: stationarity, covariance, coupling, persistence."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from gfsb.besov import sobolev_norms
from gfsb.errors import (
    ConfigMismatch,
    GridMismatch,
    IncompleteManifest,
    UnresolvedMollifier,
    ValidationError,
)
from gfsb.noise import (
    NoiseConfig,
    _normals,
    _ou_path,
    check_grid,
    load_trajectory,
    sample_Y,
    sample_Y_ensemble,
    save_trajectory,
    stationary_sigma,
)
from gfsb.solver import epsilon_convergence_study
from gfsb.spectral import FourierField, Grid

CFG = NoiseConfig(gamma=2.0, epsilon=0.0, seed=42, dt=0.01, t_end=0.1)
G8 = Grid(8, 2.0)


# ----------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(ValidationError):
        NoiseConfig(gamma=1.0, epsilon=0.0, seed=1, dt=0.01, t_end=1.0)
    with pytest.raises(ValidationError):
        NoiseConfig(gamma=2.0, epsilon=0.0, seed=1, dt=0.01, t_end=1.0,
                    beta=-0.5)
    with pytest.raises(ValidationError):
        NoiseConfig(gamma=2.0, epsilon=-1.0, seed=1, dt=0.01, t_end=1.0)
    with pytest.raises(ValidationError):
        NoiseConfig(gamma=2.0, epsilon=0.0, seed=-3, dt=0.01, t_end=1.0)
    with pytest.raises(ValidationError):
        NoiseConfig(gamma=2.0, epsilon=0.0, seed=1, dt=0.0, t_end=1.0)
    with pytest.raises(ValidationError):
        NoiseConfig(gamma=2.0, epsilon=0.0, seed=1, dt=2.0, t_end=1.0)


def test_grid_coupling_checks():
    with pytest.raises(GridMismatch):
        check_grid(CFG, Grid(8, 1.5))
    cfg = dataclasses.replace(CFG, epsilon=0.05)  # needs N >= 20
    with pytest.raises(UnresolvedMollifier):
        check_grid(cfg, G8)
    stiff = NoiseConfig(gamma=2.0, epsilon=0.0, seed=1, dt=0.2, t_end=1.0)
    with pytest.raises(ValidationError):
        check_grid(stiff, G8)  # dt * N^gamma = 12.8
    warm = NoiseConfig(gamma=2.0, epsilon=0.0, seed=1, dt=0.05, t_end=1.0)
    with pytest.warns(UserWarning):
        check_grid(warm, G8)  # 3.2: resolved but marginal


def test_steps_and_times():
    assert CFG.n_steps == 10
    np.testing.assert_allclose(CFG.times, np.arange(11) * 0.01)


# ----------------------------------------------------------------- stationarity


def test_stationary_sigma_pinned_value():
    # k = 2, gamma = 2, beta = 1/2, no mollifier: variance 2^{-1}/2 = 1/4
    sig = stationary_sigma(CFG, G8)
    assert sig[1] ** 2 == pytest.approx(0.25, rel=1e-14)
    # k = 1 is scale-free: variance 1/2 regardless of exponents
    assert sig[0] ** 2 == pytest.approx(0.5, rel=1e-14)


def test_stationary_variance_monte_carlo():
    """10^5 replicas through the exact update: time-independent variance
    matching the closed form within 3 standard errors."""
    grid = Grid(4, 2.0)
    cfg = NoiseConfig(gamma=2.0, epsilon=0.0, seed=7, dt=0.05, t_end=0.1)
    n = 100_000
    z = _normals(cfg.seed, 5000, (n, cfg.n_steps + 1, 4, 2))
    path = _ou_path(cfg, grid, z)
    var_theory = stationary_sigma(cfg, grid) ** 2
    for node in (0, cfg.n_steps):
        emp = np.mean(np.abs(path[:, node, :]) ** 2, axis=0)
        se = var_theory / math.sqrt(n)
        assert np.all(np.abs(emp - var_theory) < 3 * se)


def test_update_matches_stationary_law_ks():
    """Distribution after several exact updates stays the stationary
    Gaussian: KS p > 0.01 on 10^4 samples for modes 1..3."""
    grid = Grid(3, 2.0)
    cfg = NoiseConfig(gamma=2.0, epsilon=0.0, seed=11, dt=0.05, t_end=0.25)
    n = 10_000
    z = _normals(cfg.seed, 6000, (n, cfg.n_steps + 1, 3, 2))
    path = _ou_path(cfg, grid, z)
    sig = stationary_sigma(cfg, grid)
    for k in range(3):
        samples = path[:, -1, k].real / (sig[k] / math.sqrt(2.0))
        p = stats.kstest(samples, "norm").pvalue
        assert p > 0.01


def test_temporal_decorrelation():
    """E[Y_k(t) conj(Y_k(s))] = sigma^2 e^{-|k|^gamma |t-s|}."""
    grid = Grid(4, 1.6)
    cfg = NoiseConfig(gamma=1.6, epsilon=0.0, seed=13, dt=0.1, t_end=0.4)
    n = 40_000
    z = _normals(cfg.seed, 7000, (n, cfg.n_steps + 1, 4, 2))
    path = _ou_path(cfg, grid, z)
    sig2 = stationary_sigma(cfg, grid) ** 2
    k_idx = 1  # mode 2
    se = sig2[k_idx] * math.sqrt(2.0 / n)
    for a in range(5):
        for b in range(5):
            emp = np.mean(path[:, a, k_idx] * np.conj(path[:, b, k_idx]))
            theory = sig2[k_idx] * math.exp(
                -2.0 ** 1.6 * abs(a - b) * cfg.dt)
            assert abs(emp - theory) < 3 * se


def test_cross_mode_independence():
    traj = sample_Y_ensemble(CFG, G8, 400)
    a = traj[:, -1, 0]
    b = traj[:, -1, 2]
    n = len(a)
    corr = np.mean(a * np.conj(b)) / math.sqrt(
        np.mean(np.abs(a) ** 2) * np.mean(np.abs(b) ** 2))
    assert abs(corr) < 3.0 / math.sqrt(n)


def test_circular_symmetry():
    grid = Grid(4, 2.0)
    cfg = NoiseConfig(gamma=2.0, epsilon=0.0, seed=17, dt=0.05, t_end=0.1)
    n = 50_000
    z = _normals(cfg.seed, 8000, (n, cfg.n_steps + 1, 4, 2))
    path = _ou_path(cfg, grid, z)
    y = path[:, -1, 1]
    sig2 = stationary_sigma(cfg, grid)[1] ** 2
    se = sig2 * math.sqrt(2.0 / n)
    assert abs(np.var(y.real) - sig2 / 2) < 3 * se
    assert abs(np.var(y.imag) - sig2 / 2) < 3 * se
    # vanishing pseudo-covariance E[Y^2]
    assert abs(np.mean(y * y)) < 3 * sig2 / math.sqrt(n)


def test_realization_is_real_and_mean_zero():
    traj = sample_Y(CFG, G8)
    vals = traj.field(3).to_physical(64)
    assert np.all(np.isreal(vals))
    assert abs(vals.mean()) < 1e-14


def test_reproducibility_bit_exact():
    a = sample_Y(CFG, G8)
    b = sample_Y(CFG, G8)
    np.testing.assert_array_equal(a.modes, b.modes)
    c = sample_Y(dataclasses.replace(CFG, seed=43), G8)
    assert np.any(c.modes != a.modes)


# ----------------------------------------------------------------- coupling
#
# Configs that differ only in epsilon share their normals, so sampling
# both with sample_Y couples them; epsilon_convergence_study relies on it.


def test_couple_equal_widths_identical():
    cfg = dataclasses.replace(CFG, epsilon=0.25)
    np.testing.assert_array_equal(sample_Y(cfg, G8).modes,
                                  sample_Y(cfg, G8).modes)


def test_couple_rejects_other_differences():
    cfg_a = dataclasses.replace(CFG, epsilon=0.25)
    cfg_b = dataclasses.replace(CFG, epsilon=0.125, seed=99)
    with pytest.raises(ConfigMismatch):
        epsilon_convergence_study([cfg_a, cfg_b], [0],
                                  FourierField(np.zeros(8, dtype=complex), G8))


def test_couple_shared_support_agreement():
    """Both widths kill modes outside their supports; where both act the
    draws differ only by the mollifier ratio."""
    cfg_a = dataclasses.replace(CFG, epsilon=0.5)    # support k < 2
    cfg_b = dataclasses.replace(CFG, epsilon=0.25)   # support k < 4
    a, b = sample_Y(cfg_a, G8), sample_Y(cfg_b, G8)
    assert np.all(a.modes[:, 1:] == 0)   # k >= 2 dead under eps = 1/2
    assert np.all(b.modes[:, 3:] == 0)
    fac_a = cfg_a.mollifier().factors(np.array([1.0]))[0]
    fac_b = cfg_b.mollifier().factors(np.array([1.0]))[0]
    np.testing.assert_allclose(a.modes[:, 0] * fac_b,
                               b.modes[:, 0] * fac_a, rtol=1e-12)


def test_couple_cauchy_differences_shrink():
    """Mean sup-in-time negative-order Sobolev distance between
    consecutive mollification widths decreases over three halvings."""
    grid = Grid(32, 1.6)
    gaps = {eps: [] for eps in (0.25, 0.125, 0.0625)}
    for seed in range(32):
        for eps in gaps:
            ca = NoiseConfig(gamma=1.6, epsilon=eps, seed=seed,
                             dt=0.002, t_end=0.2)
            cb = dataclasses.replace(ca, epsilon=eps / 2)
            a, b = sample_Y(ca, grid), sample_Y(cb, grid)
            diff = b - a
            worst = float(np.max(sobolev_norms(diff.modes[::10], grid,
                                               -0.3)))
            gaps[eps].append(worst)
    means = [np.mean(gaps[eps]) for eps in (0.25, 0.125, 0.0625)]
    assert means[0] > means[1] > means[2]


# ----------------------------------------------------------------- persistence


def test_trajectory_roundtrip(tmp_path):
    traj = sample_Y(CFG, G8)
    save_trajectory(traj, tmp_path / "run", meta={"purpose": "test"})
    back = load_trajectory(tmp_path / "run")
    np.testing.assert_allclose(back.times, traj.times, atol=1e-15)
    np.testing.assert_array_equal(back.modes, traj.modes)
    assert back.meta == {"purpose": "test"}


def test_trajectory_stride(tmp_path):
    traj = sample_Y(CFG, G8)
    save_trajectory(traj, tmp_path / "run", stride=5)
    back = load_trajectory(tmp_path / "run")
    assert len(back) == 3  # nodes 0, 5, 10
    np.testing.assert_array_equal(back.modes[1], traj.modes[5])


def test_incomplete_manifest(tmp_path):
    traj = sample_Y(CFG, G8)
    save_trajectory(traj, tmp_path / "run")
    (tmp_path / "run" / "node_000003.bin").unlink()
    with pytest.raises(IncompleteManifest):
        load_trajectory(tmp_path / "run")
    with pytest.raises(IncompleteManifest):
        load_trajectory(tmp_path / "empty")
