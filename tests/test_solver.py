"""Solver checks: degeneration, residual order, slab machinery, growth."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.special import gammaln

import gfsb.solver
from gfsb.besov import holder_norms, sobolev_norms
from gfsb.errors import (
    BlowupDetected,
    ConfigMismatch,
    GridMismatch,
    NoContraction,
    NonpositiveOrder,
    PreconditionViolated,
    TimeGridMismatch,
    ValidationError,
)
from gfsb.noise import NoiseConfig, sample_Y
from gfsb.solver import (
    EnhancedData,
    _w_values,
    build_enhanced_data,
    continuous_dependence_probe,
    dependence_ladder,
    enhanced_difference,
    epsilon_convergence_study,
    gronwall_envelope,
    mittag_leffler,
    solve_mollified,
    solve_paracontrolled,
    solve_subcritical,
    zero_enhanced_data,
)
from gfsb.spectral import FourierField, Grid
from gfsb.trajectory import Trajectory
from gfsb.construct import bilinear_forcing
from gfsb.trees import RegularityParams

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

PARAMS = RegularityParams(alpha=-0.2, b=0.5)


def _u0(grid, entries):
    modes = np.zeros(grid.n_modes, dtype=np.complex128)
    for i, v in enumerate(entries):
        modes[i] = v
    return FourierField(modes, grid)


def _ct_l2(modes):
    return float(np.max(np.sqrt(2.0 * np.sum(np.abs(modes) ** 2, axis=-1))))


def _head(data, steps):
    """The input family on its first ``steps`` steps only."""
    return EnhancedData.build(
        {key: Trajectory(tree.times[:steps + 1], tree.modes[:steps + 1],
                         tree.grid)
         for key, tree in data.trees.items()}, data.params)


# ------------------------------------------------------------ solver norm


def test_w_values_is_max_of_the_two_norms():
    """One pure mode per row, at amplitude 1/2, plus two random rows.
    A mode at a power of two is split between two blocks, so its block
    sups are small and the Sobolev side wins; a plateau mode sits in one
    block and the Hoelder side wins."""
    grid = Grid(16, 2.0)
    s = 0.5
    rng = np.random.default_rng(6)
    modes = np.concatenate([0.5 * np.eye(16, dtype=complex),
                            rng.standard_normal((2, 16, 2)) @ [1, 1j]])
    sob = sobolev_norms(modes, grid, s)
    hold = holder_norms(modes, 16, s)
    assert np.any(sob > hold) and np.any(hold > sob)
    w = _w_values(modes, grid, s)
    assert np.array_equal(w, np.maximum(sob, hold))
    for k in (1, 2, 4, 8, 16):
        assert w[k - 1] == pytest.approx(math.sqrt(2.0) * k ** s * 0.5,
                                         rel=1e-14)
    # mode 12 sits wholly in block 3: 2^{3s} * sup|2 * 0.5 cos|
    assert w[11] == pytest.approx(2.0 ** (3 * s), rel=0.01)


# ------------------------------------------------------------ degeneration


def test_degenerate_inputs_reduce_to_direct_solve():
    grid = Grid(n_modes=16, gamma=2.0)
    cfg = NoiseConfig(gamma=2.0, epsilon=0.0, seed=0, dt=1e-3, t_end=0.1,
                      noise_scale=0.0)
    u0 = _u0(grid, (0.08 - 0.02j, 0.03 + 0.01j, -0.015j))
    direct = solve_mollified(sample_Y(cfg, grid), u0)
    data = zero_enhanced_data(grid, direct.times, PARAMS)
    sub = solve_subcritical(data, None, u0, tol=1e-12)
    para = solve_paracontrolled(data, None, u0, tol=1e-12)
    assert _ct_l2(sub.reconstruct(data).modes - direct.modes) < 1e-12
    assert _ct_l2(para.reconstruct(data).modes - direct.modes) < 1e-12


def test_direct_solve_mild_residual_second_order():
    grid = Grid(n_modes=16, gamma=2.0)
    u0 = _u0(grid, (0.08 - 0.02j, 0.03 + 0.01j, -0.015j))
    residuals = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = NoiseConfig(gamma=2.0, epsilon=0.0, seed=0, dt=dt, t_end=0.2,
                          noise_scale=0.0)
        traj = solve_mollified(sample_Y(cfg, grid), u0)
        residuals.append(traj.meta["mild_residual"]["value"])
    assert residuals[0] == pytest.approx(9.40e-8, rel=1e-2)
    for r0, r1 in zip(residuals, residuals[1:]):
        assert 1.7 <= math.log2(r0 / r1) <= 2.3


def test_deterministic_solve_dissipates_energy():
    grid = Grid(n_modes=16, gamma=2.0)
    cfg = NoiseConfig(gamma=2.0, epsilon=0.0, seed=0, dt=1e-3, t_end=0.2,
                      noise_scale=0.0)
    traj = solve_mollified(sample_Y(cfg, grid),
                           _u0(grid, (0.08 - 0.02j, 0.03 + 0.01j)))
    energies = 2.0 * np.sum(np.abs(traj.modes) ** 2, axis=-1)
    assert energies[-1] < energies[0]
    assert np.all(np.diff(energies) <= 1e-15)


def test_transport_pairing_stays_at_roundoff():
    grid = Grid(n_modes=16, gamma=2.0)
    cfg = NoiseConfig(gamma=2.0, epsilon=0.0, seed=0, dt=1e-3, t_end=0.1,
                      noise_scale=0.0)
    traj = solve_mollified(sample_Y(cfg, grid),
                           _u0(grid, (0.08 - 0.02j, 0.03 + 0.01j)))
    # the integral of u against c d/dx(u^2) vanishes on the torus, and the
    # dealiased product drops only modes orthogonal to every resolved one
    g = bilinear_forcing(traj.modes, traj.modes, grid)
    pairing = 4.0 * math.pi * np.real(np.sum(traj.modes * np.conj(g), axis=-1))
    assert np.max(np.abs(pairing)) < 1e-10


def test_unconverged_implicit_step_raises():
    """One fixed-point iteration cannot meet the step tolerance; the
    step must fail loudly instead of being accepted."""
    grid = Grid(n_modes=16, gamma=2.0)
    cfg = NoiseConfig(gamma=2.0, epsilon=0.0, seed=0, dt=1e-3, t_end=0.01,
                      noise_scale=0.0)
    u0 = _u0(grid, (0.08 - 0.02j, 0.03 + 0.01j))
    y = sample_Y(cfg, grid)
    with pytest.raises(NoContraction, match="t = 0.001"):
        solve_mollified(y, u0, max_step_iter=1)
    assert solve_mollified(y, u0).meta["max_step_iterations"] > 1


def test_direct_solve_refuses_a_flow_on_another_grid():
    cfg = NoiseConfig(gamma=2.0, epsilon=0.0, seed=0, dt=1e-3, t_end=0.01,
                      noise_scale=0.0)
    y = sample_Y(cfg, Grid(n_modes=8, gamma=2.0))
    with pytest.raises(GridMismatch):
        solve_mollified(y, _u0(Grid(n_modes=16, gamma=2.0), (0.08,)))


# ----------------------------------------------------- slabs and ansatz


@pytest.fixture(scope="module")
def slab_regime():
    grid = Grid(n_modes=32, gamma=1.75)
    cfg = NoiseConfig(gamma=1.75, epsilon=0.125, seed=4, dt=1e-3, t_end=0.35)
    u0 = _u0(grid, (0.05 - 0.01j, 0.02j))
    y = sample_Y(cfg, grid)
    data = build_enhanced_data(y, PARAMS)
    direct = solve_mollified(y, u0)
    return grid, cfg, u0, data, direct


def test_multi_slab_reconstruction_is_exact(slab_regime):
    grid, cfg, u0, data, direct = slab_regime
    sub = solve_subcritical(data, None, u0, tol=1e-12)
    para = solve_paracontrolled(data, None, u0, tol=1e-12)
    assert len(sub.diagnostics["slabs"]) == 4
    assert len(para.diagnostics["slabs"]) == 4
    assert _ct_l2(sub.reconstruct(data).modes - direct.modes) < 1e-9
    assert _ct_l2(para.reconstruct(data).modes - direct.modes) < 1e-9
    assert para.diagnostics["ansatz_residual"] < 1e-9
    for slab in sub.diagnostics["slabs"]:
        assert all(f < 1.0 for f in slab["factors"])


def test_slab_shrink_resamples_the_fixed_factors(slab_regime, monkeypatch):
    """Sixteen sweeps cannot close a 100-step slab but close a 50-step
    one, so the first two slabs are tried at 100 steps and halve.  Each
    attempt samples Q on its own horizon; samples kept from another
    attempt or slab would not fit.  The solve must equal, bit for bit,
    the one that samples Q in every paraproduct, and still rebuild the
    direct solve."""
    grid, cfg, u0, data, direct = slab_regime
    sampled = []
    sample = gfsb.solver._sample

    def spy(q, n_modes):
        sampled.append(q.modes)
        return sample(q, n_modes)

    monkeypatch.setattr(gfsb.solver, "_sample", spy)
    held = solve_paracontrolled(_head(data, 150), None, u0, tol=1e-12,
                                max_iter=16)
    stops = [slab["stop"] for slab in held.diagnostics["slabs"]]
    assert stops == pytest.approx([0.05, 0.1, 0.15])

    assert [modes.shape[-2] for modes in sampled] == [101, 51, 151, 101, 151]
    for modes in sampled:
        assert np.array_equal(modes, held.q.modes[:modes.shape[-2]])

    monkeypatch.setattr(gfsb.solver, "_sample", lambda q, _: q)
    plain = solve_paracontrolled(_head(data, 150), None, u0, tol=1e-12,
                                 max_iter=16)
    for name in ("u_prime", "u_sharp", "u_q"):
        assert np.array_equal(getattr(held, name).modes,
                              getattr(plain, name).modes)
    assert held.diagnostics["slabs"] == plain.diagnostics["slabs"]
    assert _ct_l2(held.reconstruct(data).modes
                  - direct.modes[:len(held.u_q)]) < 1e-9


def test_subcritical_sweep_forcing_is_the_two_products_bit_for_bit(
        monkeypatch):
    """Each remainder sweep samples its iterate once, and the drift once
    per attempt, for both of its products.  At the reconstruction shape
    (51 nodes, N = 128) its forcing must equal
    bilinear_forcing(v, v) + 2 bilinear_forcing(v, drift) byte for byte.
    Only the generator is weighted, so no tree pair enters and the pair
    term is an array of exact zeros."""
    grid = Grid(n_modes=128, gamma=1.75)
    cfg = NoiseConfig(gamma=1.75, epsilon=0.0625, seed=21, dt=4e-4,
                      t_end=0.02)
    data = build_enhanced_data(sample_Y(cfg, grid), PARAMS)
    u0 = _u0(grid, (0.08 - 0.02j, 0.03 + 0.01j, -0.015j))
    sampled, forcings = [], []
    sample, scan = gfsb.solver.modes_to_physical, gfsb.solver.duhamel_scan

    def sample_spy(modes, n_points):
        sampled.append(modes.copy())
        return sample(modes, n_points)

    def scan_spy(g, decay, weight, init=None):
        forcings.append(g.copy())
        return scan(g, decay, weight, init=init)

    monkeypatch.setattr(gfsb.solver, "modes_to_physical", sample_spy)
    monkeypatch.setattr(gfsb.solver, "duhamel_scan", scan_spy)
    state = solve_subcritical(data, {"n": 1.0, "lr": 0.0, "rLlr": 0.0}, u0,
                              tol=1e-12)
    assert len(state.diagnostics["slabs"]) == 1
    drift, iterates = sampled[0], sampled[1:]
    assert drift.shape == (51, 128)
    assert np.array_equal(drift, data.trees["n"].modes)
    assert len(iterates) == len(forcings) >= 3
    for cur, got in zip(iterates, forcings):
        want = (bilinear_forcing(cur, cur, grid)
                + 2.0 * bilinear_forcing(cur, drift, grid)
                + np.zeros_like(got))
        assert got.tobytes() == want.tobytes()


def test_contract_stops_below_tol_or_raises():
    """The shared Picard loop keeps the iterate whose distance first
    falls below tol, and gives up on growth past 1e6 times the first
    distance, on a non-finite distance, or after max_iter steps."""
    contract, diverged = gfsb.solver._contract, gfsb.solver._SlabDiverged

    def halve(x):
        return x / 2, x / 2

    assert contract(halve, 1.0, 0.1, 10) == (0.0625, [0.5, 0.25, 0.125,
                                                      0.0625])
    for step, want in ((lambda x: (10.0 * x, 10.0 * x), 8),
                       (lambda x: (x, math.nan), 1),
                       (halve, 20)):
        with pytest.raises(diverged) as fail:
            contract(step, 1.0, 1e-9, 20)
        assert len(fail.value.distances) == want


def _march(top, dt=1e-3, longest=None, distances=(1e-3, 1e-4)):
    """Run the slab loop over ``top`` steps with a fake solve that
    closes any slab of at most ``longest`` steps with ``distances``;
    returns the (start, steps) of every attempt and the slab records."""
    tried = []

    def attempt(i0, steps):
        tried.append((i0, steps))
        if longest is not None and steps > longest:
            raise gfsb.solver._SlabDiverged([1.0, 10.0])
        return None, list(distances)

    slabs = gfsb.solver._march_slabs(np.arange(top + 1) * dt, attempt,
                                     lambda i0, steps, cur: 0.0, "norm", 1.0)
    return tried, slabs


def test_a_slab_after_a_slow_one_still_tries_the_cap():
    """A slab whose largest contraction factor is 2 leaves the next slab's
    length alone: it tries the 100-step cap (0.1 time units), not a
    length fitted to that factor."""
    tried, slabs = _march(250, distances=(1e-3, 2e-3, 1e-12))
    assert max(slabs[0]["factors"]) == pytest.approx(2.0)
    assert tried == [(0, 100), (100, 100), (200, 50)]


def test_a_halved_slab_is_followed_by_one_at_the_cap():
    """A slab that fails halves; the slab after it tries the cap again."""
    tried, slabs = _march(150, longest=60)
    assert tried == [(0, 100), (0, 50), (50, 100), (50, 50), (100, 50)]
    assert [slab["stop"] for slab in slabs] == pytest.approx(
        [0.05, 0.1, 0.15])


def test_the_last_slab_is_clipped_to_the_steps_left():
    """No slab runs past the last node (the first test clips a slab at
    250 steps), and the cap is 0.1 time units but never under the
    8-step floor."""
    assert _march(30)[0] == [(0, 30)]
    assert _march(20, dt=0.05)[0] == [(0, 8), (8, 8), (16, 4)]


# ----------------------------------------------------------- growth tools


def gammaln_mittag_leffler(a, z, rtol=1e-14):
    """The series with scipy's log-gamma, the route math.lgamma replaced."""
    if z == 0.0:
        return 1.0
    total, prev, j = 0.0, math.inf, 0
    while True:
        term = math.exp(j * math.log(z) - float(gammaln(a * j + 1.0)))
        total += term
        if term < prev and term <= rtol * total:
            return total
        prev, j = term, j + 1


@pytest.mark.parametrize("a", [0.5, 0.875, 1.0, 1.5, 2.0])
def test_mittag_leffler_matches_the_gammaln_route(a):
    # the two log-gammas differ by an ulp on some arguments, and exp turns
    # an ulp of its exponent into a relative error of that exponent's
    # size, which grows like log E; measured at most 0.45e-15 * log E
    for z in np.linspace(0.0, 20.0, 81):
        want = gammaln_mittag_leffler(a, float(z))
        got = mittag_leffler(a, float(z))
        assert abs(got - want) <= 1e-15 * max(1.0, math.log(want)) * want


def test_mittag_leffler_classical_points():
    assert abs(mittag_leffler(1.0, 1.0) - math.e) < 1e-12
    assert mittag_leffler(2.0, 1.0) == pytest.approx(math.cosh(1.0),
                                                     rel=1e-12)
    for a in (0.5, 1.0, 1.7):
        assert mittag_leffler(a, 0.0) == 1.0
    with pytest.raises(NonpositiveOrder):
        mittag_leffler(0.0, 1.0)
    with pytest.raises(NonpositiveOrder):
        mittag_leffler(-1.0, 1.0)


def test_gronwall_envelope_closed_form_at_order_one():
    assert gronwall_envelope(2.0, 1.5, 1.0, 0.3) == pytest.approx(
        2.0 * math.exp(0.45), rel=1e-12)
    values = [gronwall_envelope(1.0, 2.0, 0.8, t)
              for t in (0.0, 0.1, 0.5, 1.0)]
    assert values[0] == 1.0
    assert all(b > a for a, b in zip(values, values[1:]))


# -------------------------------------------------------------- probes


def test_probe_identical_inputs_report_zero(slab_regime):
    grid, cfg, u0, data, _ = slab_regime
    short = _head(data, 200)
    probe = continuous_dependence_probe(short, short, u0, u0)
    assert probe["difference"] == 0.0
    assert probe["ratio"] == 0.0


def test_probe_initial_data_perturbation(slab_regime):
    grid, cfg, u0, data, _ = slab_regime
    u0b = FourierField(u0.modes * 1.01, grid)
    short = _head(data, 200)
    probe = continuous_dependence_probe(short, short, u0, u0b)
    assert probe["difference"] > 0.0
    # The sup sits at t = 0 where the gap equals the data gap exactly.
    assert probe["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_probe_input_family_perturbation(slab_regime):
    grid, cfg, u0, data, _ = slab_regime
    other = build_enhanced_data(
        sample_Y(dataclasses.replace(cfg, seed=5), grid), PARAMS)
    # the solves and the data difference both span the first 0.2
    probe = continuous_dependence_probe(_head(data, 200), _head(other, 200),
                                        u0, u0)
    assert probe["data_difference"] > 0.0
    assert probe["ratio"] == pytest.approx(0.1644, rel=1e-2)


def test_dependence_ladder_shape_and_envelope(slab_regime):
    grid, cfg, u0, data, _ = slab_regime
    report = dependence_ladder(_head(data, 200), u0,
                               sizes=(1e-1, 1e-2, 1e-3))
    assert report["sizes"] == [1e-1, 1e-2, 1e-3]
    assert len(report["final_differences"]) == 3
    assert report["slope"] == pytest.approx(1.0, abs=1e-6)
    assert abs(report["slope_final"] - 1.0) < 0.2
    env = report["envelope"]
    assert env["order"] == 1.0
    assert max(env["margins"]) <= 1.0 + 1e-9
    assert env["margins"][0] == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------- mollifier ladders


def test_identical_widths_collapse_to_zero():
    grid = Grid(n_modes=16, gamma=1.75)
    u0 = _u0(grid, (0.05 - 0.01j,))
    cfg = NoiseConfig(gamma=1.75, epsilon=0.25, seed=0, dt=2e-3, t_end=0.1)
    report = epsilon_convergence_study([cfg, cfg], [0, 1], u0)
    assert report["solution"]["medians"] == [0.0]
    for key in ("n", "lr", "rLlr"):
        assert report["trees"][key]["medians"] == [0.0]


def test_ladder_validation():
    grid = Grid(n_modes=16, gamma=1.75)
    u0 = _u0(grid, (0.05,))
    cfg = NoiseConfig(gamma=1.75, epsilon=0.25, seed=0, dt=2e-3, t_end=0.1)
    with pytest.raises(ValidationError):
        epsilon_convergence_study([cfg], [0], u0)
    other = NoiseConfig(gamma=1.8, epsilon=0.125, seed=0, dt=2e-3, t_end=0.1)
    with pytest.raises(ConfigMismatch):
        epsilon_convergence_study([cfg, other], [0], u0)


# ------------------------------------------------------ input validation


def test_enhanced_data_requires_generator_and_closure():
    grid = Grid(n_modes=8, gamma=1.75)
    times = 0.01 * np.arange(5)
    zeros = np.zeros((5, 8), dtype=np.complex128)

    tree = Trajectory(times, zeros, grid)

    with pytest.raises(ValidationError):
        EnhancedData.build({"lr": tree}, PARAMS)
    with pytest.raises(ValidationError, match="lr"):
        EnhancedData.build({"n": tree}, PARAMS)
    other = Trajectory(times + 0.5, zeros, grid)
    with pytest.raises(TimeGridMismatch):
        EnhancedData.build({"n": tree, "lr": other, "rLlr": tree}, PARAMS)


def test_solver_exponent_preconditions(slab_regime):
    grid, cfg, u0, data, _ = slab_regime
    not_subcritical = dataclasses.replace(
        data, params=RegularityParams(alpha=-0.3, b=0.5))
    with pytest.raises(PreconditionViolated):
        solve_subcritical(not_subcritical, None, u0)
    no_gain = dataclasses.replace(
        data, params=RegularityParams(alpha=-0.6, b=0.5))
    with pytest.raises(PreconditionViolated):
        solve_paracontrolled(no_gain, None, u0)


def test_blowup_ceiling_trips(slab_regime):
    grid, cfg, u0, data, _ = slab_regime
    with pytest.raises(BlowupDetected, match="^remainder norm .* by t = "):
        solve_subcritical(_head(data, 100), None, u0, ceiling=1e-4)
    with pytest.raises(BlowupDetected, match="^blow-up functional .* by t = "):
        solve_paracontrolled(_head(data, 100), None, u0, ceiling=1e-4)


def test_mollified_ceiling_trips(slab_regime):
    grid, cfg, u0, _, _ = slab_regime
    with pytest.raises(BlowupDetected,
                       match="^oversampled sup .* exceeds ceiling .* at t = "):
        solve_mollified(sample_Y(dataclasses.replace(cfg, t_end=0.01), grid),
                        u0, ceiling=1e-3)


def test_mollified_ceiling_between_sup_and_l1_bound(monkeypatch):
    """|cos x - sin 2x| peaks at 1.7602 while its l1 bound is 2, and with
    no noise the flow stays below 1.9.  A ceiling of 1.9 must not trip,
    although the bound exceeds it, so every step is read; under the
    default ceiling the bound alone clears every step."""
    grid = Grid(n_modes=16, gamma=1.75)
    cfg = NoiseConfig(gamma=1.75, epsilon=0.0, seed=0, dt=1e-3, t_end=0.02,
                      noise_scale=0.0)
    u0 = _u0(grid, (0.5, 0.5j))
    y = sample_Y(cfg, grid)
    reads = []
    full = gfsb.solver.modes_to_physical

    def spy(modes, n_points):
        reads.append(n_points)
        return full(modes, n_points)

    monkeypatch.setattr(gfsb.solver, "modes_to_physical", spy)
    traj = solve_mollified(y, u0, ceiling=1.9)
    assert len(reads) == len(traj.times)
    sups = np.max(np.abs(full(traj.modes, 8 * 16)), axis=-1)
    assert 1.76 < sups[0] < 1.7602 and np.all(sups < 1.9)
    reads.clear()
    solve_mollified(y, u0)
    assert reads == []


def test_no_contraction_at_the_slab_floor(slab_regime):
    grid, cfg, u0, data, _ = slab_regime
    with pytest.raises(NoContraction):
        solve_subcritical(_head(data, 100), None, u0 * 1000.0)


def test_enhanced_difference_basics(slab_regime):
    grid, cfg, u0, data, _ = slab_regime
    assert enhanced_difference(data, data) == 0.0
    other = build_enhanced_data(
        sample_Y(dataclasses.replace(cfg, seed=5), grid), PARAMS)
    assert enhanced_difference(data, other) > 0.0
    small = Grid(n_modes=8, gamma=1.75)
    zero = zero_enhanced_data(small, data.times, PARAMS)
    with pytest.raises(GridMismatch):
        enhanced_difference(data, zero)


def test_zero_enhanced_data_has_zero_norm():
    grid = Grid(n_modes=8, gamma=1.75)
    data = zero_enhanced_data(grid, 0.01 * np.arange(4), PARAMS)
    assert set(data.trees) == {"n", "lr", "rLlr"}
    for tree in data.trees.values():
        assert tree.modes.shape == (4, 8)
        assert np.all(tree.modes == 0.0)
