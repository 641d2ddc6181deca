"""Closed-form covariance kernels, Wick enumeration, integral bounds,
and the mode sums the construction relies on.

Everything here is an analytic oracle: no sampling, no time stepping.
The building block is the stationary per-mode covariance

    E[Y_a(t) Y_b(s)] = 1_{a+b=0} sigma_|a|^2 e^{-|a|^gamma |t-s|},

from which quadratic-tree covariances follow by Wick pairing and the
cross-exponential integral

    I1(a, b, D) = int int e^{-a(t-r) - a(s-r') - b|r-r'|} dr dr'
                = (a e^{-bD} - b e^{-aD}) / (a (a^2 - b^2)),  D = |t-s|,

evaluated in a cancellation-free form (the apparent pole at a = b is
removable).  Bound operations return a BoundCheck carrying the measured
witness, the claimed envelope, and their ratio; envelopes stated only up
to a constant document the constant cap they are checked against.

The mode sums come last: the third-pairing sums whose decay in m is
-(4 gamma - 6) for gamma > 3/2, the cross-pair sums completed by their
continuum tail (summed as a hypergeometric series), and the exponent
of the power-law series, which converges exactly when that exponent
sits below -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ZeroModeK
from .noise import NoiseConfig

COUPLING = 0.5  # the nonlinearity strength c of c d/dx(u^2)


# ---------------------------------------------------------------- OU kernel


def ou_variance(k: int, config: NoiseConfig) -> float:
    """Stationary variance of mode |k| (0 for the absent mean mode)."""
    a = abs(int(k))
    if a == 0:
        return 0.0
    phi = config.mollifier().factors(np.array([float(a)]))[0]
    return (config.noise_scale ** 2 * phi ** 2
            * a ** (2 * config.beta - config.gamma) / 2.0)


def ou_covariance(k: int, t: float, s: float, config: NoiseConfig) -> float:
    """E[Y_k(t) Y_{-k}(s)] = sigma_k^2 e^{-|k|^gamma |t-s|}."""
    a = abs(int(k))
    if a == 0:
        return 0.0
    return ou_variance(k, config) * math.exp(-a ** config.gamma * abs(t - s))


def ou_pair_covariance(config: NoiseConfig):
    """Pair-covariance callable over (mode, time) factors."""

    def cov(f1, f2):
        (m1, t1), (m2, t2) = f1, f2
        if m1 + m2 != 0:
            return 0.0
        return ou_covariance(m1, t1, t2, config)

    return cov


# ---------------------------------------------------------------- Wick


@dataclass
class PairingReport:
    """All perfect matchings with their covariance products."""

    pairings: list          # [(((i, j), ...), value), ...]
    total: float
    odd: bool = False
    surviving: list = field(default_factory=list)  # labels P1.. of nonzero


def _matchings(indices):
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for i, other in enumerate(rest):
        pair = (first, other)
        for sub in _matchings(rest[:i] + rest[i + 1:]):
            yield (pair,) + sub


def wick_report(factors, pair_covariance) -> PairingReport:
    """Exact Gaussian moment as a sum over perfect matchings.

    factors: sequence of hashable descriptors (e.g. (mode, time));
    pair_covariance(f, g) gives E[fg].  Odd counts return total 0 with
    the odd flag set (odd Gaussian moments vanish identically).
    """
    n = len(factors)
    if n % 2 == 1:
        return PairingReport(pairings=[], total=0.0, odd=True)
    out = []
    total = 0.0
    for match in _matchings(tuple(range(n))):
        value = 1.0
        for i, j in match:
            value *= pair_covariance(factors[i], factors[j])
            if value == 0.0:
                break
        out.append((match, value))
        total += value
    surviving = [f"P{rank + 1}" for rank, (_, v) in
                 enumerate(p for p in out if p[1] != 0.0)]
    return PairingReport(pairings=out, total=total, surviving=surviving)


# ---------------------------------------------------- cross-exponential I1


def _phi1(x: float) -> float:
    """(e^x - 1)/x, series near 0."""
    if abs(x) < 1e-8:
        return 1.0 + x / 2.0 + x * x / 6.0
    return math.expm1(x) / x


def exp_cross_integral(a: float, b: float, delta: float) -> float:
    """I1(a, b, |delta|) in a form stable at a = b:

    e^{-aD} (a D phi1((a-b) D) + 1) / (a (a + b)).
    """
    if a <= 0 or b <= 0:
        raise DomainError(f"rates must be positive, got a={a}, b={b}")
    d = abs(delta)
    return math.exp(-a * d) * (a * d * _phi1((a - b) * d) + 1.0) / (a * (a + b))


# ---------------------------------------------------------------- pair kernel


def pair_kernel(k: int, j: int, kp: int, jp: int, t: float, s: float,
                gamma: float, config: NoiseConfig) -> float:
    """Covariance of two quadratic-tree frequency contributions.

    The (j, k-j) channel of mode k at time t against the (jp, kp-jp)
    channel of mode kp at time s.  Nonzero only when kp = -k and jp is
    one of the two Wick partners {-j, j-k}; both partners give the same
    cross-exponential value, so coincident partners (k = 2j) count twice.
    """
    k, j, kp, jp = int(k), int(j), int(kp), int(jp)
    if k == 0 or kp == 0:
        raise ZeroModeK("quadratic trees have no mean mode")
    if kp != -k:
        return 0.0
    matches = (jp == -j) + (jp == j - k)
    if matches == 0 or j == 0 or j == k:
        return 0.0
    a = abs(k) ** gamma
    b = abs(j) ** gamma + abs(k - j) ** gamma
    weight = (COUPLING ** 2 * k * k
              * ou_variance(j, config) * ou_variance(k - j, config))
    return matches * weight * exp_cross_integral(a, b, abs(t - s))


def quadratic_tree_covariance(k: int, t: float, s: float,
                              config: NoiseConfig, n_modes: int) -> float:
    """E[Yq_k(t) Yq_{-k}(s)] for the quadratic tree on a grid keeping
    |j|, |k-j| <= n_modes: 2 c^2 k^2 sum_j s_j^2 s_{k-j}^2 I1."""
    if k == 0:
        raise ZeroModeK("quadratic trees have no mean mode")
    total = 0.0
    a = abs(k) ** config.gamma
    for j in range(k - n_modes, n_modes + 1):
        if j == 0 or j == k or abs(j) > n_modes or abs(k - j) > n_modes:
            continue
        b = abs(j) ** config.gamma + abs(k - j) ** config.gamma
        total += (ou_variance(j, config) * ou_variance(k - j, config)
                  * exp_cross_integral(a, b, abs(t - s)))
    return 2.0 * COUPLING ** 2 * k * k * total


# ---------------------------------------------------------------- bounds


@dataclass(frozen=True)
class BoundCheck:
    """witness <= cap * bound is the checkable content of a '<=' claim
    stated up to a constant (cap = 1 when the claim is exact)."""

    witness: float
    bound: float
    cap: float = 1.0

    @property
    def ratio(self) -> float:
        return self.witness / self.bound if self.bound > 0 else math.inf

    @property
    def holds(self) -> bool:
        return self.witness <= self.cap * self.bound * (1 + 1e-9)


def _require_positive(**rates):
    for name, val in rates.items():
        if val <= 0:
            raise DomainError(f"rate {name} must be positive, got {val}")


def five_exp_quadrature(a, b, c, d, e, delta) -> float:
    """H(delta) = int_{-inf}^t int_{-inf}^{t'} exp(-a|s-s'| - b(t-s)
    - c(t'-s') - d|t'-s| - e|t-s'|) ds ds' with delta = t - t'.

    The exponent is piecewise linear, so H is exact in closed form.
    For delta >= 0, with p = b+d, q = c+e, A = a+d+e and B = b+e,

        H = delta e^{-min(A,B) delta} phi1(-|A-B| delta) / (a+c+e)
            + e^{-B delta} (p+q+2a) / ((p+a)(q+a)(p+q)),

    where the first term is (e^{-B delta} - e^{-A delta})/(A-B) written
    so that it neither overflows nor loses the removable pole at A = B.
    Negative delta swaps the roles of (b, d) and (c, e).  The oracle is
    the kink-split dblquad in tests/test_kernels.py.
    """
    if delta < 0:
        return five_exp_quadrature(a, c, b, e, d, -delta)
    p, q = b + d, c + e
    A, B = a + d + e, b + e
    ramp = delta * math.exp(-min(A, B) * delta) * _phi1(-abs(A - B) * delta)
    return (ramp / (a + c + e)
            + math.exp(-B * delta) * (p + q + 2.0 * a)
            / ((p + a) * (q + a) * (p + q)))


def five_exp_bound(a, b, c, d, e, delta) -> BoundCheck:
    """Five-rate smoothing integral against its product-of-rates
    envelope 10 e^{-(d^e) |delta|} / ((b+d)(c+e) + a((b+d)^(c+e)))."""
    _require_positive(a=a, b=b, c=c, d=d, e=e)
    witness = five_exp_quadrature(a, b, c, d, e, delta)
    bd, ce = b + d, c + e
    bound = 10.0 * math.exp(-min(d, e) * abs(delta)) / (
        bd * ce + a * min(bd, ce))
    return BoundCheck(witness=witness, bound=bound, cap=1.0)


def segment_exp_bound(u, v, s, t) -> BoundCheck:
    """int_s^t e^{-u(x-s) - v(t-x)} dx <= 4/(u+v); witness is the exact
    value (t-s) e^{-v(t-s)} phi1((v-u)(t-s))."""
    _require_positive(u=u, v=v)
    if t < s:
        raise DomainError("segment needs s <= t")
    d = t - s
    witness = d * math.exp(-v * d) * _phi1((v - u) * d)
    return BoundCheck(witness=witness, bound=4.0 / (u + v), cap=1.0)


def exp_difference_bound(a, b, t) -> BoundCheck:
    """|b e^{-at} - a e^{-bt} - (b-a)| <= min(2, 2abt^2) |b-a|."""
    _require_positive(a=a, b=b, t=t)
    witness = abs(b * math.exp(-a * t) - a * math.exp(-b * t) - (b - a))
    bound = min(2.0, 2.0 * a * b * t * t) * abs(b - a)
    if bound == 0.0:  # a = b: witness vanishes identically too
        return BoundCheck(witness=witness, bound=1e-300, cap=1.0)
    return BoundCheck(witness=witness, bound=bound, cap=1.0)


def smoothed_cross_bound(f_const, a, psi_gamma, delta):
    """Doubly low-passed stationary kernel |K| <= F e^{-a |t-t'|},
    smoothed at rate p = psi_gamma on both slots.

    Returns (level check, increment check): the level H(delta) equals
    F * I1(p, a, delta) exactly and obeys the min-form envelope with
    cap 1; the increment 2(H(0) - H(delta)) obeys the envelope
    F (1 ^ p delta)/(p (p+a)) only up to a factor 2 (large-separation
    limit is 2 H(0) against an envelope of H(0)), so cap = 2.
    """
    _require_positive(f_const=f_const, a=a, psi_gamma=psi_gamma)
    p = psi_gamma
    d = abs(delta)
    level = f_const * exp_cross_integral(p, a, d)
    lvl_bound = f_const * min(
        1.0 / (p * (p + a)),
        math.exp(-min(p, a) * d) / (p * max(abs(p - a), 1e-300)))
    inc = 2.0 * abs(f_const * exp_cross_integral(p, a, 0.0) - level)
    inc_bound = f_const * min(1.0, p * d) / (p * (p + a))
    if d == 0.0:
        inc_bound = max(inc_bound, 1e-300)
    return (BoundCheck(witness=level, bound=lvl_bound, cap=1.0),
            BoundCheck(witness=inc, bound=inc_bound, cap=2.0))


FIVE_EXP_INCREMENT_CAP = 4.0


def five_exp_increment_bound(a, b, c, d, e, delta) -> BoundCheck:
    """Increment of the five-rate integral H over separation delta,
    checked against F |1 - e^{-(b+d) delta}| + e^{-(b+d) delta}
    (1 - e^{-(a+e-b) delta}) / ((a+c+d)(a+e-b)); stated only up to a
    constant, checked with cap 4."""
    _require_positive(a=a, b=b, c=c, d=d, e=e)
    dlt = abs(delta)
    h0 = five_exp_quadrature(a, b, c, d, e, 0.0)
    witness = abs(2.0 * h0
                  - five_exp_quadrature(a, b, c, d, e, dlt)
                  - five_exp_quadrature(a, b, c, d, e, -dlt))
    x = a + e - b
    ramp = dlt * _phi1(-x * dlt)  # (1 - e^{-x d})/x, stable at x = 0
    bound = (h0 * abs(math.expm1(-(b + d) * dlt))
             + math.exp(-(b + d) * dlt) * abs(ramp) / (a + c + d))
    if dlt == 0.0:
        bound = max(bound, 1e-300)
    return BoundCheck(witness=witness, bound=bound,
                      cap=FIVE_EXP_INCREMENT_CAP)


MODE_PACKAGING_CAP = 2.5


def mode_packaging_bound(k: int, m: int, gamma: float,
                         delta: float) -> BoundCheck:
    """Signed two-exponential package

        (k+m) e^{-(|k-m|^g + |k|^g) D} + (k-m) e^{-(|k+m|^g + |k|^g) D}

    against C e^{-c (|k+m| + |m|)^g D} (|k| + |k+m|)^{2-g/2} with
    c = 6^{-g}; the ratio is bounded uniformly in (k, m, D).  Checked
    with cap 2.5.
    """
    if m == 0 or k == m or k == 0:
        raise DomainError("needs k, m nonzero and k != m")
    if delta < 0:
        raise DomainError("needs delta >= 0")
    g = gamma
    a_minus = abs(k - m) ** g + abs(k) ** g
    a_plus = abs(k + m) ** g + abs(k) ** g
    c = 6.0 ** (-g)
    rate = c * (abs(k + m) + abs(m)) ** g
    # both package rates dominate the envelope rate (6^{-g} leaves
    # room: a^g + b^g >= 2^{1-2g} (a+b+|m|... ) margin checked in
    # tests), so dividing out the envelope exponential is overflow-safe
    # and keeps the ratio finite where both sides underflow
    scaled_witness = abs((k + m) * math.exp(-(a_minus - rate) * delta)
                         + (k - m) * math.exp(-(a_plus - rate) * delta))
    scaled_bound = (abs(k) + abs(k + m)) ** (2.0 - g / 2.0)
    return BoundCheck(witness=scaled_witness, bound=scaled_bound,
                      cap=MODE_PACKAGING_CAP)


# ----------------------------------------------------- third-pairing sums


def _i3(a: float, b: float, c: float, delta: float) -> float:
    """int int e^{-a u - b v - c |delta - u + v|} du dv over (0, inf)^2.

    Closed form e^{-cD}/((a-c)(b+c)) - 2c e^{-aD}/((a+b)(a+c)(a-c));
    the a = c pole is removable and handled by a moment expansion of
    the near-resonant region.
    """
    if delta < 0:
        return _i3(b, a, c, -delta)
    x = a - c
    region2 = math.exp(-a * delta) / ((a + c) * (a + b))
    if abs(x) < 1e-6 * (a + c):
        q = b + c
        m1 = (delta * q + 1.0) / q ** 2
        m2 = (delta ** 2 * q ** 2 + 2 * delta * q + 2.0) / q ** 3
        m3 = ((delta * q) ** 3 + 3 * (delta * q) ** 2 + 6 * delta * q
              + 6.0) / q ** 4
        region1 = math.exp(-c * delta) * (m1 - x * m2 / 2.0
                                          + x * x * m3 / 6.0)
        return region1 + region2
    region1 = (math.exp(-c * delta) / (x * (b + c))
               - math.exp(-a * delta) / (x * (a + b)))
    return region1 + region2


def third_pairing_value(k: int, kp: int, m: int, gamma: float,
                        delta: float = 0.0) -> float:
    """Cross-channel pairing value |k k' m|^{1-g} I3 with smoothing
    rates |k-m|^g + |k|^g and |k'+m|^g + |k'|^g against the shared
    middle rate |m|^g.  Zero at the excluded resonances k in {0, m},
    k' in {0, -m}."""
    if m == 0:
        raise DomainError("m must be nonzero")
    if k in (0, m) or kp in (0, -m):
        return 0.0
    g = gamma
    a = abs(k - m) ** g + abs(k) ** g
    b = abs(kp + m) ** g + abs(kp) ** g
    c = abs(m) ** g
    pref = (abs(k) * abs(kp) * abs(m)) ** (1.0 - g)
    return pref * _i3(a, b, c, delta)


def third_pairing_sum(m: int, gamma: float, K: int) -> float:
    """Resonance-weighted equal-time pairing sum over |k|, |k'| <= K.

    Each side carries the absolute resonance weight of its channel
    (|k+m| opposite the |k-m|-rate branch and vice versa); the two
    branch orientations are summed.  Signed weights cancel exactly by
    the k -> -k / branch-swap antisymmetry, so the absolute version is
    the meaningful size measure.
    """
    if gamma <= 1.5:
        raise DomainError(f"needs gamma > 3/2, got {gamma}")
    if m == 0:
        raise DomainError("m must be nonzero")
    g = gamma
    c = abs(m) ** g
    ks = np.array([k for k in range(-K, K + 1) if k not in (0, m)])
    kps = np.array([k for k in range(-K, K + 1) if k not in (0, -m)])
    # branch 1: k against the (k-m)-rate, k' against the (k'+m)-rate
    a1 = np.abs(ks - m) ** g + np.abs(ks) ** g
    w1 = np.abs(ks + m) * np.abs(ks.astype(float)) ** (1.0 - g)
    b1 = np.abs(kps + m) ** g + np.abs(kps) ** g
    u1 = np.abs(kps - m) * np.abs(kps.astype(float)) ** (1.0 - g)
    # branch 2: mirrored rates
    ks2 = np.array([k for k in range(-K, K + 1) if k not in (0, -m)])
    kps2 = np.array([k for k in range(-K, K + 1) if k not in (0, m)])
    a2 = np.abs(ks2 + m) ** g + np.abs(ks2) ** g
    w2 = np.abs(ks2 - m) * np.abs(ks2.astype(float)) ** (1.0 - g)
    b2 = np.abs(kps2 - m) ** g + np.abs(kps2) ** g
    u2 = np.abs(kps2 + m) * np.abs(kps2.astype(float)) ** (1.0 - g)

    pref = abs(m) ** (1.0 - g)

    def branch(avec, wvec, bvec, uvec):
        # I3(a, b, c, 0) = (1/(a+b)) (1/(a+c) + 1/(b+c)) summed with
        # separable weights; evaluated as an outer sum
        A = avec[:, None]
        B = bvec[None, :]
        i0 = (1.0 / (A + B)) * (1.0 / (A + c) + 1.0 / (B + c))
        return float(wvec @ i0 @ uvec)

    total = branch(a1, w1, b1, u1) + branch(a2, w2, b2, u2)
    return pref * total


def third_pairing_report(gamma: float, K: int,
                         ms=(2, 4, 8, 16)) -> dict:
    """Log-log decay fit of the pairing sum against the target exponent
    -(4 gamma - 6), plus the normalized spread across m."""
    target = -(4.0 * gamma - 6.0)
    values = {m: third_pairing_sum(m, gamma, K) for m in ms}
    logs = np.log(np.array([values[m] for m in ms]))
    slope = float(np.polyfit(np.log(np.array(ms, dtype=float)), logs, 1)[0])
    normalized = {m: values[m] * abs(m) ** (-target) for m in ms}
    ratio = max(normalized.values()) / min(normalized.values())
    return {"values": values, "slope": slope, "target": target,
            "normalized_spread": ratio}


# ---------------------------------------------------------------- summability


def _cross_pair_partial(a: int, p: float, q: float, K: int) -> float:
    k = np.arange(-K, K + 1)
    k = k[(k != 0) & (k != a)].astype(float)
    return float(np.sum(np.abs(k - a) ** (-p) * np.abs(k) ** (-q)))


def _cross_pair_tail(a, p: float, q: float, K: int) -> np.ndarray:
    """Continuum completion int_{|x| > E} |x-a|^{-p} |x|^{-q} dx, E = K + 1/2,
    for each offset in the array a.

    Under x = E/t each side is Euler's integral for the Gauss
    hypergeometric function (DLMF 15.6.1),

        int_0^1 t^{s-1} (1 -+ z t)^{-p} dt = 2F1(p, s; s+1; +-z) / s,

    with s = p + q - 1 and z = a/E.  Summed, the two sides cancel each
    other's odd terms:

        T = 2 E^{-s} sum_{n even} (p)_n z^n / (n! (s + n)),

    a series in z^2 formed by its term ratio.  It stops once every
    offset's last term is below 1e-17 of its sum; an offset so close to
    the edge that 10000 terms do not get there raises DomainError.  The
    integral converges exactly when s > 0 and |a| < E; anything else
    raises DomainError.
    """
    edge = K + 0.5
    s = p + q - 1.0
    z = np.asarray(a, dtype=float) / edge
    if s <= 0:
        raise DomainError(f"tail diverges: p + q = {p + q:g} must exceed 1")
    if np.any(np.abs(z) >= 1.0):
        raise DomainError(f"offsets must satisfy |a| < K + 1/2 = {edge:g}")
    z2 = z * z
    coef = np.ones_like(z)
    total = np.full_like(z, 1.0 / s)
    for n in range(0, 20000, 2):
        coef = coef * ((p + n) * (p + n + 1) / ((n + 1) * (n + 2))) * z2
        term = coef / (s + n + 2)
        total += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            return 2.0 * edge ** (-s) * total
    raise DomainError(
        f"tail series needs more than 10000 terms at z = {np.max(np.abs(z)):.6g}")


def power_law_exponent(gamma: float, a_prime: float = 0.05) -> float:
    """Exponent of the power-law series sum_k |k|^{4 - (10/3) gamma + 2 a'},
    which converges exactly when it sits below -1."""
    return 4.0 - (10.0 / 3.0) * gamma + 2.0 * a_prime


def uniform_cross_pair_sup(exponents, K: int, a_values) -> dict:
    """Completed cross-pair sums sum_{k != 0, a} |k-a|^{-p} |k|^{-q} over
    a ladder of offsets a; their max/min ratio is the uniformity measure.

    The raw partial sums converge slowly (the |k| ~ a shoulder decays
    only as a power), so each sum is completed by its continuum tail
    beyond K, which makes it stable across cutoffs and across a.
    """
    if K < 64:
        raise DomainError(f"cutoff must be >= 64, got {K}")
    p, q = exponents
    offsets = [int(a) for a in a_values]
    tails = _cross_pair_tail(offsets, p, q, K)
    vals = {a: _cross_pair_partial(a, p, q, K) + float(t)
            for a, t in zip(offsets, tails)}
    ratio = max(vals.values()) / min(vals.values())
    return {"values": vals, "max_min_ratio": ratio}
