"""Analytic kernel oracles: closed forms against quadrature, Wick
enumeration against Monte Carlo, and the integral-bound family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from gfsb.errors import DomainError, ZeroModeK
from gfsb.kernels import (
    BoundCheck,
    _cross_pair_partial,
    _cross_pair_tail,
    exp_cross_integral,
    exp_difference_bound,
    five_exp_bound,
    five_exp_increment_bound,
    five_exp_quadrature,
    mode_packaging_bound,
    ou_covariance,
    ou_pair_covariance,
    ou_variance,
    pair_kernel,
    power_law_exponent,
    quadratic_tree_covariance,
    segment_exp_bound,
    smoothed_cross_bound,
    third_pairing_report,
    third_pairing_sum,
    third_pairing_value,
    uniform_cross_pair_sup,
    wick_report,
)
from gfsb.noise import NoiseConfig, sample_Y
from gfsb.spectral import Grid

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning",
                                        "ignore:.*roundoff.*")

CFG = NoiseConfig(gamma=1.6, epsilon=0.0, seed=11, dt=0.01, t_end=1.0)


def _dblquad_kernel(a, b, c, delta):
    g = lambda v, u: math.exp(-a * u - b * v - c * abs(delta - u + v))
    val, _ = integrate.dblquad(g, 0, np.inf, 0, np.inf,
                               epsabs=1e-11, epsrel=1e-11)
    return val


# ----------------------------------------------------------- OU covariance


def test_ou_variance_matches_formula():
    # noise_scale^2 phi^2 |k|^{2 beta - gamma} / 2 with phi = 1 unmollified
    assert ou_variance(1, CFG) == pytest.approx(0.5)
    assert ou_variance(-3, CFG) == pytest.approx(3.0 ** (-0.6) / 2)
    assert ou_variance(0, CFG) == 0.0


def test_ou_covariance_decay():
    v = ou_variance(2, CFG)
    assert ou_covariance(2, 0.7, 0.7, CFG) == pytest.approx(v)
    assert ou_covariance(2, 1.0, 0.0, CFG) == pytest.approx(
        v * math.exp(-2 ** 1.6))
    assert ou_covariance(2, 0.0, 1.0, CFG) == pytest.approx(
        ou_covariance(2, 1.0, 0.0, CFG))


# ----------------------------------------------------------------- Wick


def test_wick_counts_match_double_factorials():
    unit = lambda f, g: 1.0
    assert wick_report([0] * 4, unit).total == pytest.approx(3.0)
    assert wick_report([0] * 6, unit).total == pytest.approx(15.0)
    assert wick_report([0] * 8, unit).total == pytest.approx(105.0)


def test_wick_odd_moment_flag():
    rep = wick_report([0] * 5, lambda f, g: 1.0)
    assert rep.odd and rep.total == 0.0 and rep.pairings == []


def test_wick_two_mode_fourth_moment():
    cov = ou_pair_covariance(CFG)
    factors = [(1, 0.0), (-1, 0.0), (2, 0.0), (-2, 0.0)]
    rep = wick_report(factors, cov)
    assert rep.total == pytest.approx(ou_variance(1, CFG) * ou_variance(2, CFG))
    assert len(rep.surviving) == 1


def test_wick_same_mode_fourth_moment():
    cov = ou_pair_covariance(CFG)
    factors = [(1, 0.0), (-1, 0.0), (1, 0.0), (-1, 0.0)]
    # two surviving matchings of equal value
    assert wick_report(factors, cov).total == pytest.approx(
        2 * ou_variance(1, CFG) ** 2)


def test_wick_time_separation():
    cov = ou_pair_covariance(CFG)
    val = wick_report([(3, 0.5), (-3, 0.0)], cov).total
    assert val == pytest.approx(ou_covariance(3, 0.5, 0.0, CFG))


def test_wick_against_monte_carlo_moments():
    # fourth and sixth stationary moments from 10^4 exact samples
    cfg = NoiseConfig(gamma=1.6, epsilon=0.0, seed=77, dt=0.05, t_end=0.05)
    grid = Grid(n_modes=4, gamma=1.6)
    R = 10_000
    samples = np.empty((R, 4), dtype=complex)
    for r in range(R):
        traj = sample_Y(NoiseConfig(gamma=1.6, epsilon=0.0, seed=1000 + r,
                                    dt=0.05, t_end=0.05), grid)
        samples[r] = traj.modes[0]
    cov = ou_pair_covariance(cfg)

    prod4 = np.real(samples[:, 0] * np.conj(samples[:, 0])
                    * samples[:, 1] * np.conj(samples[:, 1]))
    want4 = wick_report([(1, 0.0), (-1, 0.0), (2, 0.0), (-2, 0.0)], cov).total
    se4 = prod4.std(ddof=1) / math.sqrt(R)
    assert abs(prod4.mean() - want4) < 3 * se4

    prod6 = prod4 * np.real(samples[:, 2] * np.conj(samples[:, 2]))
    want6 = wick_report([(1, 0.0), (-1, 0.0), (2, 0.0), (-2, 0.0),
                         (3, 0.0), (-3, 0.0)], cov).total
    se6 = prod6.std(ddof=1) / math.sqrt(R)
    assert abs(prod6.mean() - want6) < 3 * se6


# ------------------------------------------------- cross-exponential I1


def test_exp_cross_integral_frozen_values():
    assert exp_cross_integral(2.0, 1.0, 0.0) == pytest.approx(1 / 6)
    want = (2 * math.exp(-0.3) - math.exp(-0.6)) / 6
    assert exp_cross_integral(2.0, 1.0, 0.3) == pytest.approx(want, rel=1e-12)


def test_exp_cross_integral_against_quadrature():
    for (a, b, d) in [(2.0, 1.0, 0.3), (1.3, 2.7, 0.8), (5.0, 5.0, 0.4)]:
        g = lambda v, u: math.exp(-a * u - a * v - b * abs(d - u + v))
        quad, _ = integrate.dblquad(g, 0, np.inf, 0, np.inf,
                                    epsabs=1e-11, epsrel=1e-11)
        assert exp_cross_integral(a, b, d) == pytest.approx(quad, abs=1e-7)


def test_exp_cross_integral_removable_pole():
    base = exp_cross_integral(2.0, 2.0, 0.7)
    for eps in (1e-6, -1e-6):
        assert exp_cross_integral(2.0, 2.0 + eps, 0.7) == pytest.approx(
            base, rel=1e-4)


def test_exp_cross_integral_rejects_bad_rates():
    with pytest.raises(DomainError):
        exp_cross_integral(-1.0, 2.0, 0.1)
    with pytest.raises(DomainError):
        exp_cross_integral(1.0, 0.0, 0.1)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0.1, 50), b=st.floats(0.1, 50),
       d1=st.floats(0, 3), d2=st.floats(0, 3))
def test_exp_cross_integral_monotone_below_peak(a, b, d1, d2):
    lo, hi = sorted((d1, d2))
    v_lo = exp_cross_integral(a, b, lo)
    v_hi = exp_cross_integral(a, b, hi)
    assert v_hi <= v_lo * (1 + 1e-12)
    assert v_lo <= 1.0 / (a * (a + b)) * (1 + 1e-12)


# --------------------------------------------------------------- pair kernel


def test_pair_kernel_zero_mode_raises():
    with pytest.raises(ZeroModeK):
        pair_kernel(0, 1, 0, -1, 0.0, 0.0, 1.6, CFG)


def test_pair_kernel_conjugate_mode_selection():
    assert pair_kernel(3, 1, 3, -1, 0.0, 0.0, 1.6, CFG) == 0.0
    assert pair_kernel(3, 1, -2, -1, 0.0, 0.0, 1.6, CFG) == 0.0
    assert pair_kernel(3, 1, -3, -1, 0.0, 0.0, 1.6, CFG) != 0.0
    assert pair_kernel(3, 1, -3, 1 - 3, 0.0, 0.0, 1.6, CFG) != 0.0
    assert pair_kernel(3, 1, -3, 2, 0.0, 0.0, 1.6, CFG) == 0.0


def test_pair_kernel_degenerate_channels_vanish():
    assert pair_kernel(3, 0, -3, 0, 0.0, 0.0, 1.6, CFG) == 0.0
    assert pair_kernel(3, 3, -3, -3, 0.0, 0.0, 1.6, CFG) == 0.0


def test_pair_kernel_coincident_partner_doubles():
    one = pair_kernel(2, 1, -2, -1, 0.1, 0.4, 1.6, CFG)
    base = (0.25 * 4 * ou_variance(1, CFG) ** 2
            * exp_cross_integral(2 ** 1.6, 2.0 ** 0, 0.3))
    # j = 1, k - j = 1: rates |k|^g and |j|^g + |k-j|^g = 2, doubled
    want = 2 * 0.25 * 4 * ou_variance(1, CFG) ** 2 * exp_cross_integral(
        2 ** 1.6, 2.0, 0.3)
    del base
    assert one == pytest.approx(want, rel=1e-12)


def test_quadratic_tree_covariance_matches_channel_sum():
    cfg = CFG
    n, k = 6, 2
    total = 0.0
    for j in range(k - n, n + 1):
        if j in (0, k) or abs(j) > n or abs(k - j) > n:
            continue
        # second factor contributes through its two Wick partner
        # channels; when they coincide (k = 2j) the kernel already
        # carries the multiplicity
        for jp in {-j, j - k}:
            total += pair_kernel(k, j, -k, jp, 0.4, 0.1, cfg.gamma, cfg)
    assert quadratic_tree_covariance(k, 0.4, 0.1, cfg, n) == pytest.approx(
        total, rel=1e-12)


def test_quadratic_tree_covariance_zero_mode_raises():
    with pytest.raises(ZeroModeK):
        quadratic_tree_covariance(0, 0.0, 0.0, CFG, 8)


# ------------------------------------------------------------ bound family


def test_five_exp_bound_holds_on_scan():
    rng = np.random.default_rng(7)
    for _ in range(8):
        a, b, c, d, e = np.exp(rng.uniform(-1.5, 2.0, size=5))
        ch = five_exp_bound(a, b, c, d, e, rng.uniform(0, 2))
        assert ch.holds and ch.witness > 0


def _split_five_exp(a, b, c, d, e, delta):
    """Oracle for the five-rate integral: dblquad over the quarter plane
    u = t - s, v = t' - s', split where an absolute value changes sign
    so every piece is the exponential of a linear function.  For
    delta >= 0 the kinks are u = delta and v = u - delta; for delta < 0
    they are v = -delta and u = v + delta."""
    def f(v, u):
        return math.exp(-a * abs(delta - u + v) - b * u - c * v
                        - d * abs(u - delta) - e * abs(delta + v))

    opts = {"epsabs": 0.0, "epsrel": 1e-13}
    if delta >= 0:
        pieces = (
            integrate.dblquad(f, 0.0, delta, 0.0, np.inf, **opts),
            integrate.dblquad(f, delta, np.inf, 0.0,
                              lambda u: u - delta, **opts),
            integrate.dblquad(f, delta, np.inf, lambda u: u - delta,
                              np.inf, **opts))
    else:
        def g(u, v):
            return f(v, u)

        pieces = (
            integrate.dblquad(g, 0.0, -delta, 0.0, np.inf, **opts),
            integrate.dblquad(g, -delta, np.inf, 0.0,
                              lambda v: v + delta, **opts),
            integrate.dblquad(g, -delta, np.inf, lambda v: v + delta,
                              np.inf, **opts))
    return sum(val for val, _ in pieces)


def _five_exp_draws(n):
    rng = np.random.default_rng(3)
    return [(tuple(np.exp(rng.uniform(-1.5, 2.0, size=5))),
             rng.uniform(-2.0, 2.0)) for _ in range(n)]


@pytest.mark.parametrize("rates,delta", [
    ((1.0, 1.5, 2.0, 0.5, 0.7), -0.3),
    ((1.0, 1.5, 2.0, 0.5, 0.7), 0.0),
    ((1.0, 1.5, 2.0, 0.5, 0.7), 1e-12),
    # A = a+d+e equals B = b+e: the removable pole of the ramp term
    ((1.0, 1.5, 2.0, 0.5, 0.3), 0.9),
    # (A - B) delta = 850: e^{(A-B) delta} is past the float range
    ((100.0, 1.0, 2.0, 1.0, 0.5), 8.5),
] + _five_exp_draws(8))
def test_five_exp_quadrature_matches_split_oracle(rates, delta):
    val = five_exp_quadrature(*rates, delta)
    assert math.isfinite(val) and val > 0
    assert val == pytest.approx(_split_five_exp(*rates, delta),
                                rel=1e-12, abs=0.0)


def test_five_exp_quadrature_symmetry():
    val = five_exp_quadrature(1.0, 2.0, 3.0, 0.5, 0.7, 0.4)
    swapped = five_exp_quadrature(1.0, 3.0, 2.0, 0.7, 0.5, -0.4)
    assert val == pytest.approx(swapped, rel=1e-14)


def test_segment_exp_bound_exact_witness():
    rng = np.random.default_rng(3)
    for _ in range(10):
        u, v = np.exp(rng.uniform(-2, 3, size=2))
        s = rng.uniform(0, 1)
        t = s + rng.uniform(0, 3)
        ch = segment_exp_bound(u, v, s, t)
        quad, _ = integrate.quad(
            lambda x: math.exp(-u * (x - s) - v * (t - x)), s, t)
        assert ch.witness == pytest.approx(quad, rel=1e-9)
        assert ch.holds


def test_segment_exp_bound_rejects_reversed_interval():
    with pytest.raises(DomainError):
        segment_exp_bound(1.0, 1.0, 2.0, 1.0)


def test_exp_difference_bound_holds_and_is_slack():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        a, b, t = np.exp(rng.uniform(-2, 3, size=3))
        ch = exp_difference_bound(a, b, t)
        assert ch.holds
        worst = max(worst, ch.ratio)
    assert worst <= 0.75  # measured sup is 0.50


def test_smoothed_cross_bound_caps():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a, p = np.exp(rng.uniform(-2, 3, size=2))
        d = 10 ** rng.uniform(-3, 1)
        level, inc = smoothed_cross_bound(1.0, a, p, d)
        assert level.holds and level.cap == 1.0
        assert inc.holds and inc.cap == 2.0


def test_smoothed_cross_bound_level_sharp_at_zero():
    level, _ = smoothed_cross_bound(2.0, 3.0, 1.5, 0.0)
    assert level.ratio == pytest.approx(1.0)


def test_five_exp_increment_bound_holds():
    rng = np.random.default_rng(11)
    for _ in range(6):
        a, b, c, d, e = np.exp(rng.uniform(-1.0, 1.5, size=5))
        ch = five_exp_increment_bound(a, b, c, d, e, 10 ** rng.uniform(-2, 0.5))
        assert ch.holds and ch.cap == 4.0


def test_mode_packaging_bound_scan():
    worst = 0.0
    for g in (1.6, 2.0):
        for m in (1, 2, 4, 8):
            for k in range(-40, 41):
                if k in (0, m):
                    continue
                for delta in (0.0, 0.05, 0.3, 2.0):
                    ch = mode_packaging_bound(k, m, g, delta)
                    assert ch.holds
                    worst = max(worst, ch.ratio)
    assert worst == pytest.approx(2.0, abs=1e-9)  # sharp at k=-m=-1


def test_mode_packaging_bound_survives_underflow():
    ch = mode_packaging_bound(63, 16, 2.0, 3.0)
    assert math.isfinite(ch.ratio) and ch.holds


def test_mode_packaging_bound_domain():
    for bad in [(0, 1), (1, 0), (2, 2)]:
        with pytest.raises(DomainError):
            mode_packaging_bound(bad[0], bad[1], 2.0, 0.1)
    with pytest.raises(DomainError):
        mode_packaging_bound(3, 1, 2.0, -0.5)


def test_bound_check_ratio_and_holds():
    ch = BoundCheck(witness=2.0, bound=1.0, cap=2.0)
    assert ch.ratio == 2.0 and ch.holds
    assert not BoundCheck(witness=2.1, bound=1.0, cap=2.0).holds


# --------------------------------------------------------- third pairing


def test_third_pairing_value_against_quadrature():
    for (k, kp, m, g, d) in [(1, 1, 2, 2.0, 0.0), (3, 2, 2, 2.0, 0.37),
                             (2, 5, 4, 1.8, 0.1)]:
        a = abs(k - m) ** g + abs(k) ** g
        b = abs(kp + m) ** g + abs(kp) ** g
        c = abs(m) ** g
        pref = (abs(k) * abs(kp) * abs(m)) ** (1 - g)
        want = pref * _dblquad_kernel(a, b, c, d)
        assert third_pairing_value(k, kp, m, g, d) == pytest.approx(
            want, abs=1e-9, rel=1e-6)


def test_third_pairing_value_exclusions():
    assert third_pairing_value(0, 1, 2, 2.0) == 0.0
    assert third_pairing_value(2, 1, 2, 2.0) == 0.0
    assert third_pairing_value(1, 0, 2, 2.0) == 0.0
    assert third_pairing_value(1, -2, 2, 2.0) == 0.0
    with pytest.raises(DomainError):
        third_pairing_value(1, 1, 0, 2.0)


def test_third_pairing_value_near_resonant_continuity():
    # a approaches c: gamma tuned so |k-m|^g + |k|^g crosses |m|^g
    g = 2.0
    base = third_pairing_value(3, 1, 2, g, 0.5)
    assert math.isfinite(base) and base > 0
    # direct check of the removable pole in the inner closed form
    from gfsb.kernels import _i3
    center = _i3(4.0, 7.0, 4.0, 0.6)
    for eps in (1e-6, -1e-6):
        assert _i3(4.0 + eps, 7.0, 4.0, 0.6) == pytest.approx(
            center, rel=1e-4)


def test_third_pairing_sum_frozen_values():
    frozen = {
        2.0: {2: 1.703031121300488, 4: 0.4943395457861255,
              8: 0.10277722574688328, 16: 0.018615827070058915},
        1.6: {2: 15.761559608660688, 4: 10.148408990440437,
              8: 5.642923194376372, 16: 2.8780249124077506},
    }
    for g, vals in frozen.items():
        for m, want in vals.items():
            assert third_pairing_sum(m, g, 256) == pytest.approx(
                want, rel=1e-9)


def test_third_pairing_report_windows():
    for g in (2.0, 1.6):
        rep = third_pairing_report(g, 256)
        assert abs(rep["slope"] - rep["target"]) < 0.5
        assert rep["normalized_spread"] < 10.0


def test_third_pairing_sum_domain():
    with pytest.raises(DomainError):
        third_pairing_sum(2, 1.5, 256)
    with pytest.raises(DomainError):
        third_pairing_sum(0, 2.0, 256)


# ------------------------------------------------------------- summability


def _quad_tail(a, p, q, K):
    """Two-sided adaptive quadrature of the continuum tail under
    x = (K + 1/2)/t: the oracle for the hypergeometric series."""
    edge = K + 0.5

    def one_side(sign):
        def f(t):
            x = edge / t
            return abs(x - sign * a) ** (-p) * x ** (-q) * edge / t ** 2

        val, _ = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-10,
                                limit=200)
        return val

    return one_side(1) + one_side(-1)


@pytest.mark.parametrize("K", [64, 128, 4096])
def test_cross_pair_tail_matches_the_quad_oracle(K):
    offsets = np.arange(1, K // 2 + 1)
    series = _cross_pair_tail(offsets, 0.6, 0.5, K)
    quad = np.array([_quad_tail(a, 0.6, 0.5, K) for a in offsets])
    assert np.max(np.abs(series - quad) / quad) <= 1e-10


def test_cross_pair_tail_at_zero_offset():
    p, q, K = 0.6, 0.5, 4096
    s = p + q - 1.0
    assert _cross_pair_tail(0, p, q, K) == pytest.approx(
        2.0 * (K + 0.5) ** (-s) / s, rel=1e-15)


def test_cross_pair_tail_domain():
    with pytest.raises(DomainError):
        _cross_pair_tail(8, 0.3, 0.5, 4096)
    with pytest.raises(DomainError):
        _cross_pair_tail(4097, 0.6, 0.5, 4096)
    with pytest.raises(DomainError):
        _cross_pair_tail(-4097, 0.6, 0.5, 4096)


def test_summability_cross_pair_frozen():
    assert _cross_pair_partial(8, 0.6, 0.5, 4096) == pytest.approx(
        10.930928, rel=1e-6)
    sup = uniform_cross_pair_sup((0.6, 0.5), 4096, [8])
    assert sup["values"][8] == pytest.approx(19.63632781, rel=1e-8)
    assert sup["max_min_ratio"] == 1.0


def test_summability_completion_stable_across_cutoffs():
    c1 = uniform_cross_pair_sup((0.6, 0.5), 4096, [8])["values"][8]
    c2 = uniform_cross_pair_sup((0.6, 0.5), 16384, [8])["values"][8]
    assert c1 == pytest.approx(c2, abs=1e-7)


def test_summability_uniform_over_offsets():
    sup = uniform_cross_pair_sup((0.6, 0.5), 4096,
                                 [2 ** i for i in range(12)])
    assert sup["max_min_ratio"] == pytest.approx(1.64107, abs=1e-3)
    assert sup["max_min_ratio"] < 2.0


def test_summability_power_law_verdicts():
    assert power_law_exponent(1.6, 0.05) == pytest.approx(-1.23333, abs=1e-5)
    assert power_law_exponent(1.6, 0.05) < -1.0
    assert power_law_exponent(1.2, 0.05) == pytest.approx(0.1, abs=1e-12)
    assert power_law_exponent(1.2, 0.05) > -1.0


def test_summability_domain():
    with pytest.raises(DomainError):
        uniform_cross_pair_sup((0.6, 0.5), 32, [8])
