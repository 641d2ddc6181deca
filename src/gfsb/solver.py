"""Mild-formulation solvers sharing one exponential-trapezoid step.

Three routes march the same dynamics and are built to coincide in their
common regime:

* ``solve_mollified`` steps the full equation for u directly, writing
  u = w + Y so the rough forcing enters through the exactly-sampled
  forced flow and only the quadratic transport is stepped numerically.
  The caller samples Y once and passes the same trajectory here and to
  ``build_enhanced_data``, whose trees the two Picard routes consume.
* ``solve_subcritical`` iterates the remainder v = u - (coefficient-
  weighted trees); its forcing collects the pairwise tree products whose
  regularities sum positively, plus the cross term against the trees.
  A sweep samples v once for its square and its cross term.
* ``solve_paracontrolled`` iterates the coupled pair (u', u#): u' rides
  the time-smoothed paraproduct against the antiderivative Q of the
  differentiated forced flow, and u# collects every leftover of the
  decomposition: the derivative of the low-high pairing of u' against
  the flow y, and the resonant and high-low pairings of u' with y (the
  closures of the rough products).  At a fixed N the dealiased Bony
  split is exact, lower(f, g) + resonant(f, g) + lower(g, f) = f g, so
  those three pairings sum to the plain product u' y, and a sweep's
  whole forcing is the square of the quadratic tree X plus one product,
  c d/dx(u' (u' + 2 X + 2 y)).  A sweep's two steps, of u' and of u#,
  are both measured at exponent s, so one norm read of their rows
  gives the larger.

The tree square, Q sampled on every block grid it does not leave
empty, the free flow's exponentials over the slab, and the subcritical
drift (the coefficient-weighted tree sum) sampled on its product grid
are formed once per slab attempt.

The shared discretization applies the stiff linear part exactly through
the per-mode exponential and the nonlinearity through trapezoid-weighted
Duhamel scans.  The direct solver's per-step fixed point and the Picard
solvers' global sweeps then converge to the *same* discrete trajectory,
so the degeneration checks compare fixed points, not discretizations.

Contraction is monitored in the intersection norm max(holder, sobolev)
at the exponent s = (alpha + b)/2, time is split into slabs that halve on
failed contraction down to a floor of eight steps, and both Picard
solvers re-estimate the slab length from the first observed contraction
factor; one helper, ``_march_slabs``, runs that loop for both.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .besov import (_OVERSAMPLE, TimeMollifierBank, _max_sobolev, _sample,
                    holder_norms, intersection_sup, modified_paraproduct,
                    sobolev_norms)
from .construct import bilinear_forcing, build_tree_family, duhamel_scan
from .errors import (BlowupDetected, ConfigMismatch, DomainError,
                     GridMismatch, NoContraction, NonpositiveOrder,
                     PreconditionViolated, TimeGridMismatch, ValidationError)
from .kernels import COUPLING
from .noise import sample_Y
from .spectral import (FourierField, Grid, _product_grid, _product_of_samples,
                       derivative_symbol, flow_constants, flow_table,
                       free_flow, modes_to_physical, product_modes)
from .trajectory import Trajectory
from .trees import (GENERATOR_KEY, CoefficientMap, RegularityParams,
                    TreeSymbol, parse_symbol, product, regular_set,
                    regularity)

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 50
DEFAULT_CEILING = 1e6

_MIN_SLAB_STEPS = 8
_MAX_SLAB_TIME = 0.1
_NORM_NODES = 64          # node budget for composite-norm estimates
_STEP_TOL = 1e-12         # relative gap that ends a direct implicit step


# ------------------------------------------------------------ norm helpers


def _w_values(modes: np.ndarray, grid: Grid, s: float) -> np.ndarray:
    """Per-node intersection norm max(holder, sobolev) at exponent s."""
    return np.maximum(sobolev_norms(modes, grid, s),
                      holder_norms(modes, grid.n_modes, s))


def _norm_nodes(modes: np.ndarray) -> np.ndarray:
    """Every step-th node, keeping at most _NORM_NODES of them."""
    return modes[::max(1, -(-len(modes) // _NORM_NODES))]


# ------------------------------------------------------------ direct solver


def _check_ceiling(modes_slice: np.ndarray, grid: Grid, ceiling: float,
                   t: float) -> None:
    """Raise when the sup of the field on the 8x-oversampled grid exceeds
    ``ceiling``.  The sup is at most 2 sum_k |c_k|, so when that bound,
    with a 1e-12 margin for roundoff, is under the ceiling the field is
    not read: the check could not raise."""
    if 2.0 * float(np.sum(np.abs(modes_slice))) * (1.0 + 1e-12) <= ceiling:
        return
    sup = float(np.max(np.abs(
        modes_to_physical(modes_slice, _OVERSAMPLE * grid.n_modes))))
    if sup > ceiling:
        raise BlowupDetected(
            f"oversampled sup {sup:.3g} exceeds ceiling {ceiling:.3g} "
            f"at t = {t:.6g}")


def mild_residual(traj: Trajectory, forcing: np.ndarray) -> dict:
    """Defect of the integral form, re-read with Simpson weights.

    ``forcing`` holds the nonlinear drive at every node of ``traj``.
    The integral against the per-mode exponential is re-evaluated with
    composite-Simpson weights -- two orders finer than the marching
    trapezoid -- so at the checkpoints, the last even node and the
    even node nearest half of it, the defect reads the marching error
    and shrinks at the marching order, not its own.
    """
    grid = traj.grid
    dt = traj.dt
    rates, _, _ = flow_constants(grid, dt)
    top = len(traj) - 1
    last = top - (top % 2)
    half = last // 2 - (last // 2) % 2
    checkpoints = sorted({c for c in (half, last) if c >= 2})
    if not checkpoints:
        raise ValidationError("residual needs at least two steps")
    rel = traj.times - traj.times[0]
    starts = free_flow(traj.modes[0], grid, rel[checkpoints])
    out = {}
    for c, start in zip(checkpoints, starts):
        wts = np.ones(c + 1)
        wts[1:-1:2] = 4.0
        wts[2:-1:2] = 2.0
        wts *= dt / 3.0
        kern = np.exp(-np.outer(rel[c] - rel[:c + 1], rates))
        integral = np.sum(wts[:, None] * kern * forcing[:c + 1], axis=0)
        defect = traj.modes[c] - start - integral
        out[c] = float(math.sqrt(2.0 * float(np.sum(np.abs(defect) ** 2))))
    return {"value": max(out.values()), "checkpoints": out}


def solve_mollified(y: Trajectory, u0: FourierField, *,
                    ceiling: float = DEFAULT_CEILING,
                    max_step_iter: int = 50) -> Trajectory:
    """March the full equation; initial state is u0 plus the forced flow.

    ``y`` is the sampled forced flow Y on the step grid; it is
    subtracted from the unknown, so the marched remainder w = u - Y sees
    only the transported square.  Each step solves the trapezoid relation
    implicitly (fixed point in the new node), which keeps the step a
    strict evaluation of the same discrete map the Picard solvers
    converge to; a step whose gap is still above 1e-12 of the iterate's
    scale after ``max_step_iter`` iterations raises NoContraction.  The
    returned metadata carries the re-integrated mild defect of w; Y
    satisfies its own integral identity exactly by construction.  The
    defect's forcing is the transport the march formed at each accepted
    node, the one the next step reads: a batched transport of the whole
    solution gives the same rows bit for bit, so none is formed again.
    """
    grid = u0.grid
    if grid != y.grid:
        raise GridMismatch("initial data and forced flow live on "
                           "different grids")
    times = y.times
    _, decay, weight = flow_constants(grid, y.dt)
    y = y.modes
    half = 0.5 * weight
    deriv = COUPLING * derivative_symbol(grid)
    n_mod = grid.n_modes

    def transport(u_modes):
        return deriv * product_modes(u_modes, u_modes, n_mod)

    w = np.empty((len(times), n_mod), dtype=np.complex128)
    g = np.empty_like(w)                # the transport at every node
    w[0] = u0.modes
    _check_ceiling(w[0] + y[0], grid, ceiling, times[0])
    g[0] = transport(w[0] + y[0])
    worst = 0
    for n in range(len(times) - 1):
        yn = y[n + 1]
        base = decay * w[n] + half * g[n]
        z = base + half * g[n]          # frozen-forcing predictor
        scale = max(1.0, float(np.max(np.abs(z))))
        gap = math.inf
        for it in range(max_step_iter):
            z_new = base + half * transport(z + yn)
            gap = float(np.max(np.abs(z_new - z)))
            z = z_new
            if gap <= _STEP_TOL * scale:
                break
            if not math.isfinite(gap) or gap > 1e6 * scale:
                raise BlowupDetected(
                    f"implicit step diverged at t = {times[n + 1]:.6g}")
        else:
            raise NoContraction(
                f"implicit step at t = {times[n + 1]:.6g} not converged "
                f"after {max_step_iter} iterations (last gap {gap:.3g}, "
                f"tolerance {_STEP_TOL * scale:.3g})")
        worst = max(worst, it + 1)
        w[n + 1] = z
        g[n + 1] = transport(z + yn)
        _check_ceiling(z + yn, grid, ceiling, times[n + 1])

    residual = mild_residual(Trajectory(times, w, grid), g)
    return Trajectory(times, w + y, grid, meta={
        "kind": "mollified", "mild_residual": residual,
        "max_step_iterations": worst})


# ------------------------------------------------------------ enhanced data


@dataclass(frozen=True)
class EnhancedData:
    """Tree-indexed input trajectories.

    ``trees`` maps canonical symbol keys to trajectories; every stored
    pair whose regularities sum negatively must have its product stored
    too, so the remainder forcing never needs an unprescribed object.
    """

    trees: dict
    params: RegularityParams

    @classmethod
    def build(cls, trees: dict, params: RegularityParams) -> "EnhancedData":
        keyed: dict[str, Trajectory] = {}
        for key, tree in trees.items():
            name = key.canonical_key if isinstance(key, TreeSymbol) else str(key)
            keyed[name] = tree
        if GENERATOR_KEY not in keyed:
            raise ValidationError(
                "enhanced data must contain the generator trajectory")
        syms = {k: parse_symbol(k) for k in keyed}
        ref = next(iter(keyed.values()))
        for name, tree in keyed.items():
            if tree.grid != ref.grid:
                raise GridMismatch(
                    f"tree {name!r} lives on a different grid")
            if len(tree.times) != len(ref.times) or np.max(
                    np.abs(tree.times - ref.times)) > 1e-9 * max(
                        ref.times[-1], 1e-30):
                raise TimeGridMismatch(
                    f"tree {name!r} uses a different time grid")
        rs = {k: regularity(sym, params) for k, sym in syms.items()}
        for ka, sa in syms.items():
            for kb, sb in syms.items():
                if rs[ka] + rs[kb] < 0:
                    need = product(sa, sb).canonical_key
                    if need not in keyed:
                        raise ValidationError(
                            f"product closure violated: ({ka!r}, {kb!r}) "
                            f"needs {need!r}")
        return cls(dict(keyed), params)

    @property
    def grid(self) -> Grid:
        return next(iter(self.trees.values())).grid

    @property
    def times(self) -> np.ndarray:
        return next(iter(self.trees.values())).times


def zero_enhanced_data(grid: Grid, times: np.ndarray,
                       params: RegularityParams) -> EnhancedData:
    """All-zero input family: the solvers degenerate to the plain flow."""
    zeros = Trajectory(times, np.zeros((len(times), grid.n_modes)), grid)
    return EnhancedData.build(
        {key: zeros for key in (GENERATOR_KEY, "lr", "rLlr")}, params)


def build_enhanced_data(y: Trajectory,
                        params: RegularityParams) -> EnhancedData:
    """Wrap the zero-start tree hierarchy of the sampled forced flow ``y``
    as solver input."""
    return EnhancedData.build(build_tree_family(y, recentered=True), params)


def enhanced_difference(a: EnhancedData, b: EnhancedData) -> float:
    """Composite-norm distance between two input families."""
    if set(a.trees) != set(b.trees):
        raise ValidationError("input families index different symbol sets")
    grid = a.grid
    if grid != b.grid:
        raise GridMismatch("input families live on different grids")
    out = 0.0
    for key, tree in a.trees.items():
        r = regularity(parse_symbol(key), a.params)
        diff = tree.modes - b.trees[key].modes
        out = max(out, intersection_sup(_norm_nodes(diff), grid, r))
    return out


# ------------------------------------------------------------ Picard slabs


class _SlabDiverged(Exception):
    """Internal: contraction failed on the active slab."""

    def __init__(self, distances):
        super().__init__("slab diverged")
        self.distances = distances


def _initial_slab_steps(dt: float, total_steps: int) -> int:
    steps = int(round(min(_MAX_SLAB_TIME, total_steps * dt) / dt))
    return max(1, min(total_steps, max(_MIN_SLAB_STEPS, steps)))


def _next_slab_steps(info: dict, delta: float, gamma: float, dt: float,
                     current: int) -> int:
    """Refit the slab length from the first accepted contraction factor.

    A contraction factor q on a slab of length L is modelled as
    q = 2 C M L^(delta/gamma); solving the smallness relation
    L = (2 C M)^(-gamma/delta) with C read off the observed q gives the
    next length, clipped to [eight steps, the slab-time cap].  The
    product 2 C M is read off whole, so the refit needs no separate M.
    """
    factors = info.get("factors", [])
    if not factors:
        return current
    q = max(factors)
    expo = delta / gamma
    length = info["stop"] - info["start"]
    if q <= 0 or length <= 0 or expo <= 0:
        return current
    cm2 = q / length ** expo          # = 2 C M on the accepted slab
    target = cm2 ** (-1.0 / expo)
    steps = int(round(min(_MAX_SLAB_TIME, target) / dt))
    return max(_MIN_SLAB_STEPS, steps)


def _contract(step, cur, tol: float, max_iter: int):
    """Iterate ``step`` from ``cur`` until a distance falls below tol.

    ``step(cur)`` returns the next iterate and its distance from cur.
    Returns the last iterate and the distances; raises _SlabDiverged
    when a distance is not finite or exceeds 1e6 times the first, or
    when max_iter steps do not reach tol.
    """
    dists = []
    for _ in range(max_iter):
        cur, d = step(cur)
        dists.append(d)
        if d < tol:
            return cur, dists
        if not math.isfinite(d) or d > 1e6 * (dists[0] + 1e-300):
            raise _SlabDiverged(dists)
    raise _SlabDiverged(dists)


def _slab_info(times: np.ndarray, i0: int, steps: int, dists) -> dict:
    """Diagnostics of an accepted slab: span, distances and the
    contraction factors between successive distances."""
    return {"start": float(times[i0]), "stop": float(times[i0 + steps]),
            "iterations": len(dists), "distances": dists,
            "factors": [dists[i + 1] / dists[i]
                        for i in range(len(dists) - 1) if dists[i] > 0]}


def _shrink_or_raise(steps: int, distances) -> int:
    if steps <= _MIN_SLAB_STEPS:
        raise NoContraction(
            "Picard iteration failed to contract at the slab floor of "
            f"{_MIN_SLAB_STEPS} steps; last distances {distances[-3:]}")
    return max(_MIN_SLAB_STEPS, steps // 2)


def _march_slabs(times: np.ndarray, attempt, accept, what: str,
                 ceiling: float, delta: float, gamma: float) -> list:
    """The slab loop of both Picard solvers; returns the slab records.

    ``attempt(i0, steps)`` contracts the slab of ``steps`` steps from
    node i0 and returns its iterate and distances, or raises
    _SlabDiverged, which halves the slab down to the floor.
    ``accept(i0, steps, iterate)`` stores an accepted iterate and returns
    the magnitude (``what``) that the ceiling reads; the slab's
    contraction factors re-fit the next slab length.
    """
    dt = float(times[1] - times[0])
    top = len(times) - 1
    slabs = []
    i0 = 0
    slab_steps = _initial_slab_steps(dt, top)
    while i0 < top:
        steps = min(slab_steps, top - i0)
        while True:
            try:
                cur, dists = attempt(i0, steps)
                break
            except _SlabDiverged as fail:
                steps = _shrink_or_raise(steps, fail.distances)
        magnitude = accept(i0, steps, cur)
        info = _slab_info(times, i0, steps, dists)
        slabs.append(info)
        if magnitude > ceiling:
            raise BlowupDetected(
                f"{what} {magnitude:.3g} exceeds ceiling {ceiling:.3g} "
                f"by t = {times[i0 + steps]:.6g}")
        i0 += steps
        slab_steps = _next_slab_steps(info, delta, gamma, dt, slab_steps)
    return slabs


# --------------------------------------------------------- remainder solver


@dataclass(frozen=True)
class SubcriticalState:
    """Converged remainder with its coefficients and iteration history."""

    v: Trajectory
    coefficients: CoefficientMap
    diagnostics: dict

    def reconstruct(self, data: EnhancedData) -> Trajectory:
        """Assembled solution: coefficient-weighted trees plus remainder."""
        return _assemble(self.v, data, self.coefficients)


def _assemble(base: Trajectory, data: EnhancedData,
              coefficients: CoefficientMap) -> Trajectory:
    modes = base.modes.copy()
    for key, tree in data.trees.items():
        weight = coefficients[key]
        if weight:
            modes = modes + weight * tree.modes[:len(base)]
    return Trajectory(base.times, modes, base.grid,
                      meta={"kind": "reconstruction"})


def _as_map(coefficients) -> CoefficientMap:
    if coefficients is None:
        return CoefficientMap.standard()
    if isinstance(coefficients, CoefficientMap):
        return coefficients
    return CoefficientMap(dict(coefficients))


def solve_subcritical(data: EnhancedData, coefficients, u0: FourierField, *,
                      tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER,
                      ceiling: float = DEFAULT_CEILING) -> SubcriticalState:
    """Picard-iterate the remainder equation against prescribed trees.

    The forcing combines the remainder's square, the cross term against
    the coefficient-weighted tree sum, and the pairwise products of
    trees whose regularities sum positively (both orientations, diagonal
    once).  Iteration runs slab by slab over the trees' whole time grid:
    each slab contracts in the intersection norm at exponent
    s = (alpha + b)/2, failed slabs halve down to a floor
    of eight steps, and the accepted contraction factor re-fits the next
    slab length.
    """
    params = data.params
    if not params.subcritical:
        raise PreconditionViolated(
            "remainder route needs 2*alpha + b > 0, got "
            f"{2 * params.alpha + params.b:.3g}")
    grid = u0.grid
    if grid != data.grid:
        raise GridMismatch("initial data and trees live on different grids")
    c = _as_map(coefficients)
    s = 0.5 * (params.alpha + params.b)
    delta = 2 * params.alpha + params.b
    times = data.times
    _, decay, weight = flow_constants(grid, float(times[1] - times[0]))
    n_mod = grid.n_modes

    drift = np.zeros((len(times), n_mod), dtype=np.complex128)
    for key, tree in data.trees.items():
        w = c[key]
        if w:
            drift = drift + w * tree.modes

    entries = regular_set([parse_symbol(k) for k in data.trees], params,
                          include_fully_regular=True)
    cached: dict[tuple, np.ndarray] = {}
    pair_sum = np.zeros_like(drift)
    for entry in entries:
        k1 = entry.pair[0].canonical_key
        k2 = entry.pair[1].canonical_key
        w12 = c[k1] * c[k2]
        if not w12:
            continue
        pk = tuple(sorted((k1, k2)))
        if pk not in cached:
            cached[pk] = product_modes(data.trees[pk[0]].modes,
                                       data.trees[pk[1]].modes, n_mod)
        pair_sum = pair_sum + w12 * cached[pk]
    dx = COUPLING * derivative_symbol(grid)
    pair_forcing = dx * pair_sum

    v = np.zeros((len(times), n_mod), dtype=np.complex128)
    v[0] = u0.modes
    # the square's grid, shared by both products of a sweep
    m, top = _product_grid(n_mod, n_mod, n_mod)

    def attempt(i0, steps):
        sl = slice(i0, i0 + steps + 1)
        drift_phys = modes_to_physical(drift[sl], m)
        pair_sl = pair_forcing[sl]

        def sweep(cur):
            # bilinear_forcing(cur, cur) + 2 bilinear_forcing(cur, drift),
            # with cur sampled once and the drift once per attempt
            cur_phys = modes_to_physical(cur, m)
            g = (dx * _product_of_samples(cur_phys, cur_phys, m, top, n_mod)
                 + 2.0 * (dx * _product_of_samples(cur_phys, drift_phys, m,
                                                   top, n_mod))
                 + pair_sl)
            new = duhamel_scan(g, decay, weight, init=v[i0])
            return new, intersection_sup(new - cur, grid, s)

        start = free_flow(v[i0], grid, times[sl] - times[i0])
        return _contract(sweep, start, tol, max_iter)

    def accept(i0, steps, cur):
        sl = slice(i0, i0 + steps + 1)
        v[sl] = cur
        return intersection_sup(v[sl], grid, s)

    slabs = _march_slabs(times, attempt, accept, "remainder norm", ceiling,
                         delta, grid.gamma)
    diagnostics = {"s": s, "tol": tol, "slabs": slabs}
    return SubcriticalState(
        Trajectory(times, v, grid, meta={"kind": "subcritical"}),
        c, diagnostics)


# ----------------------------------------------------- paracontrolled solver


@dataclass(frozen=True)
class ParacontrolledState:
    """Converged (u', u#) pair with the paraproduct bookkeeping.

    ``u_q`` is the paraproduct part plus the sharp part; adding the
    coefficient-weighted trees to it reconstructs the full solution.
    """

    u_prime: Trajectory
    u_sharp: Trajectory
    q: Trajectory
    u_q: Trajectory
    coefficients: CoefficientMap
    diagnostics: dict

    def reconstruct(self, data: EnhancedData) -> Trajectory:
        """Assembled solution: coefficient-weighted trees plus u_q."""
        return _assemble(self.u_q, data, self.coefficients)


def solve_paracontrolled(data: EnhancedData, coefficients, u0: FourierField,
                         *, tol: float = DEFAULT_TOL,
                         max_iter: int = DEFAULT_MAX_ITER,
                         ceiling: float = DEFAULT_CEILING
                         ) -> ParacontrolledState:
    """Coupled Picard iteration on the paraproduct-riding decomposition.

    Every sweep first refreshes u' from the structural identity
    u' = c(cubic) X + (u' time-smoothed-paraproduct Q) + u#, evaluated
    causally over the whole accepted horizon, then scans the sharp-part
    forcing.  In the paper's terms that forcing is the classical square
    and cross terms, the derivative of the low-high pairing of u'
    against the flow y, and the closures of the rough products, the
    resonant and high-low pairings of u' with y.  At a fixed N the
    dealiased Bony split lower(u', y) + resonant(u', y) + lower(y, u')
    is exactly u' y, and the square and cross terms are
    c d/dx((X_lr + u')^2), so the sweep forms the forcing as
    c d/dx(X_lr^2) + c d/dx(u' (u' + 2 X_lr + 2 y)): one product per
    sweep, which no longer forms the pairings one by one (c01 checks
    the split, and a unit test checks this forcing against the pairing
    form).  The minus-generator term on the time-smoothed paraproduct
    is closed exactly: its scan is the paraproduct trajectory itself,
    by the discrete inverse of the Duhamel scan (the two cancel node by
    node because the paraproduct starts at 0).

    What depends only on the trees is formed once per slab attempt: the
    square of X_lr, 2 (X_lr + y), and Q sampled on the grid of each
    paraproduct block it does not leave empty, so a sweep transforms
    only the factors that change; so is the slab's table of free-flow
    exponentials.  A sweep skips the blocks where Q is exactly zero
    (with a mollified flow, those past the cutoff).  The skip keeps
    every float because the paraproduct never reads a non-finite u': a
    non-finite step ends the attempt, which restores u'.  The last
    attempt ends at the last node, so the final paraproduct reuses its
    samples of Q.
    Blow-up is monitored on the combined functional
    (u' at exponent s) + 2 (u# at exponent 2s), s = (alpha + b)/2.
    """
    params = data.params
    if not params.gains_regularity:
        raise PreconditionViolated(
            "paracontrolled route needs alpha + b > 0, got "
            f"{params.alpha + params.b:.3g}")
    for need in (GENERATOR_KEY, "lr", "rLlr"):
        if need not in data.trees:
            raise ValidationError(
                f"paracontrolled route needs the {need!r} tree")
    grid = u0.grid
    if grid != data.grid:
        raise GridMismatch("initial data and trees live on different grids")
    c = _as_map(coefficients)
    s = 0.5 * (params.alpha + params.b)
    delta = 2 * params.alpha + params.b
    times = data.times
    dt = float(times[1] - times[0])
    _, decay, weight = flow_constants(grid, dt)
    n_mod = grid.n_modes
    bank = TimeMollifierBank(dt, grid.gamma)

    y_raw = data.trees[GENERATOR_KEY].modes
    y_s = c[GENERATOR_KEY] * y_raw
    xlr_s = c["lr"] * data.trees["lr"].modes
    xr_s = c["rLlr"] * data.trees["rLlr"].modes
    q_modes = duhamel_scan(derivative_symbol(grid) * y_raw, decay, weight)

    shape = (len(times), grid.n_modes)
    u_sharp = np.zeros(shape, dtype=np.complex128)
    u_sharp[0] = u0.modes
    u_prime = np.zeros(shape, dtype=np.complex128)
    u_prime[0] = xr_s[0] + u0.modes       # the paraproduct starts at zero

    def smoothed_para(horizon, q):
        return modified_paraproduct(
            Trajectory(times[:horizon], u_prime[:horizon], grid), q,
            bank).modes

    # Q's samples of the latest attempt; the last attempt ends at the
    # last node, so the final paraproduct reads them too
    q_blk = None

    def attempt(i0, steps):
        nonlocal q_blk
        hi = i0 + steps + 1
        flow = flow_table(grid, times[i0:hi] - times[i0])
        # the trees' share of the sweep, on this attempt's horizon
        xlr, xr = xlr_s[:hi], xr_s[:hi]
        drive = 2.0 * (xlr + y_s[:hi])
        q_blk = _sample(Trajectory(times[:hi], q_modes[:hi], grid), n_mod)
        tree_square = bilinear_forcing(xlr, xlr, grid)

        def sweep(sharp_cur):
            sharp_full = np.concatenate([u_sharp[:i0], sharp_cur], axis=0)
            para = smoothed_para(hi, q_blk)
            prime_new = xr + para + sharp_full
            prime_step = prime_new - u_prime[:hi]
            u_prime[:hi] = prime_new
            # lower(u', y) + resonant(u', y) + lower(y, u') = u' y
            rhs = tree_square + bilinear_forcing(prime_new, prime_new + drive,
                                                 grid)
            scanned = duhamel_scan(rhs[i0:hi], decay, weight,
                                   init=u_sharp[i0])
            sharp_new = scanned - (para[i0:hi] - flow * para[i0])
            # both steps at exponent s: one norm read of their rows
            step = np.concatenate([prime_step, sharp_new - sharp_cur])
            return sharp_new, intersection_sup(step, grid, s)

        prime_before = u_prime[:hi].copy()
        try:
            return _contract(sweep, flow * u_sharp[i0], tol, max_iter)
        except _SlabDiverged:
            u_prime[:hi] = prime_before
            raise

    def accept(i0, steps, sharp):
        sl = slice(i0, i0 + steps + 1)
        u_sharp[sl] = sharp
        return (intersection_sup(u_prime[sl], grid, s)
                + 2.0 * intersection_sup(u_sharp[sl], grid, 2.0 * s))

    slabs = _march_slabs(times, attempt, accept, "blow-up functional",
                         ceiling, delta, grid.gamma)

    para_final = smoothed_para(len(times), q_blk)
    uq_final = para_final + u_sharp
    residual = intersection_sup(u_prime - (xr_s + para_final + u_sharp), grid,
                                s)
    diagnostics = {"s": s, "tol": tol, "slabs": slabs,
                   "ansatz_residual": residual}
    return ParacontrolledState(
        u_prime=Trajectory(times, u_prime, grid, meta={"kind": "riding"}),
        u_sharp=Trajectory(times, u_sharp, grid, meta={"kind": "sharp"}),
        q=Trajectory(times, q_modes, grid, meta={"kind": "antiderivative"}),
        u_q=Trajectory(times, uq_final, grid, meta={"kind": "beyond-trees"}),
        coefficients=c, diagnostics=diagnostics)


# ----------------------------------------------------- growth diagnostics


def mittag_leffler(a: float, z: float) -> float:
    """Series evaluation of the generalized exponential on z >= 0.

    Terms are formed in log space so large arguments cannot overflow
    intermediates; summation stops once terms are past their peak and
    the last term falls below 1e-14 of the running sum, and a series
    still short of that after 2000 terms raises DomainError.
    """
    if a <= 0:
        raise NonpositiveOrder(f"series order must be positive, got {a}")
    if z < 0:
        raise DomainError("series evaluation restricted to z >= 0")
    if z == 0.0:
        return 1.0
    lz = math.log(z)
    total = 0.0
    prev = math.inf
    for j in range(2000):
        term = math.exp(j * lz - math.lgamma(a * j + 1.0))
        total += term
        if term < prev and term <= 1e-14 * total:
            return total
        prev = term
    raise DomainError(
        f"series needs more than 2000 terms at order {a}, z={z:.3g}")


def gronwall_envelope(f_bound: float, rate: float, a: float,
                      t: float) -> float:
    """Iterated-kernel growth bound: f_bound * E_a(Gamma(a) rate t^a)."""
    if t < 0 or rate < 0:
        raise DomainError("envelope needs rate >= 0 and t >= 0")
    if a <= 0:
        raise NonpositiveOrder(f"envelope order must be positive, got {a}")
    return f_bound * mittag_leffler(a, math.gamma(a) * rate * t ** a)


# ------------------------------------------------------ dependence probes


def continuous_dependence_probe(data1: EnhancedData, data2: EnhancedData,
                                u01: FourierField, u02: FourierField) -> dict:
    """Solve both remainder problems, with the standard coefficients,
    and read the stability ratio.

    The ratio divides the sup-over-nodes intersection-norm solution
    difference at s = (alpha + b)/2 by (initial-data difference) +
    (input-family difference) times horizon^(delta/gamma), with
    delta = 2 alpha + b; identical inputs report ratio 0.
    """
    st1 = solve_subcritical(data1, None, u01)
    st2 = solve_subcritical(data2, None, u02)
    params = data1.params
    s = 0.5 * (params.alpha + params.b)
    delta = 2 * params.alpha + params.b
    grid = u01.grid
    profile = _w_values(st1.v.modes - st2.v.modes, grid, s)
    difference = float(np.max(profile))
    du0 = intersection_sup((u01.modes - u02.modes)[None, :], grid, s)
    dx = enhanced_difference(data1, data2)
    horizon = float(st1.v.times[-1] - st1.v.times[0])
    denominator = du0 + dx * horizon ** (delta / grid.gamma)
    ratio = difference / denominator if denominator > 0 else 0.0
    return {"difference": difference, "initial_difference": du0,
            "data_difference": dx, "denominator": denominator,
            "ratio": ratio, "profile": profile, "times": st1.v.times,
            "s": s, "delta": delta}


def dependence_ladder(data: EnhancedData, u0: FourierField, *,
                      sizes=(1e-1, 1e-2, 1e-3, 1e-4),
                      tol: float = DEFAULT_TOL) -> dict:
    """Initial-data perturbation ladder with a fitted growth envelope.

    Solves the base problem once, with the standard coefficients, then
    once per perturbation size along the first mode.  Reports per-size
    difference/size ratios at s = (alpha + b)/2 and the log-log slope
    (1.0 for a locally Lipschitz flow), plus an order-1 (exponential)
    envelope: the rate is fitted on the largest rung only and the
    remaining rungs are measured against it, so their margins are a
    genuine check of linear scaling rather than a tautology.
    """
    params = data.params
    s = 0.5 * (params.alpha + params.b)
    grid = u0.grid
    direction = np.zeros(grid.n_modes, dtype=np.complex128)
    direction[0] = 1.0
    dir_norm = intersection_sup(direction[None, :], grid, s)
    base = solve_subcritical(data, None, u0, tol=tol)
    rel_times = base.v.times - base.v.times[0]
    rows = []
    for h in sizes:
        bumped = FourierField(u0.modes + h * direction, grid)
        st = solve_subcritical(data, None, bumped, tol=tol)
        profile = _w_values(st.v.modes - base.v.modes, grid, s)
        rows.append({"size": float(h),
                     "difference": float(np.max(profile)),
                     "final_difference": float(profile[-1]),
                     "input_difference": float(h * dir_norm),
                     "ratio": float(np.max(profile) / (h * dir_norm)),
                     "profile": profile})
    sizes_arr = np.array([r["size"] for r in rows])
    diffs = np.array([r["difference"] for r in rows])
    slope = float(np.polyfit(np.log(sizes_arr), np.log(diffs), 1)[0])
    # The sup over time is often attained at t = 0 where the difference
    # equals the perturbation itself; the end-of-horizon slope is the
    # reading that actually exercises the flow map.
    finals = np.array([r["final_difference"] for r in rows])
    slope_final = float(np.polyfit(np.log(sizes_arr), np.log(finals), 1)[0])

    a = 1.0
    lead = rows[0]
    rate_grid = np.logspace(-2, 3, 26)
    best_rate, best_spread = rate_grid[0], math.inf
    for rate in rate_grid:
        env = np.array([gronwall_envelope(1.0, rate, a, t)
                        for t in rel_times])
        ratios = lead["profile"] / (lead["input_difference"] * env)
        spread = float(np.max(ratios) / max(np.median(ratios), 1e-300))
        if spread < best_spread:
            best_rate, best_spread = float(rate), spread
    env = np.array([gronwall_envelope(1.0, best_rate, a, t)
                    for t in rel_times])
    level = float(np.max(lead["profile"] / (lead["input_difference"] * env)))
    margins = [float(np.max(r["profile"]
                            / (level * r["input_difference"] * env)))
               for r in rows]
    return {"sizes": [r["size"] for r in rows],
            "differences": [r["difference"] for r in rows],
            "final_differences": [r["final_difference"] for r in rows],
            "ratios": [r["ratio"] for r in rows],
            "slope": slope,
            "slope_final": slope_final,
            "envelope": {"level": level, "rate": best_rate,
                         "order": a, "margins": margins},
            "s": s}


# ------------------------------------------------------ mollifier ladders


def epsilon_convergence_study(configs, seeds, u0: FourierField, *,
                              exponent: float = -0.3) -> dict:
    """Coupled-noise Cauchy differences down a mollification ladder.

    All configs must agree except in their mollification width; per
    seed, every rung reuses the same underlying draw, so successive
    solutions and trees differ only through the width.  Each (seed,
    rung) samples the forced flow once, for its solve and its trees.  Reports, per
    rung, the median over seeds of the sup-in-time sobolev difference
    at ``exponent`` for the solution and for each tree, the fraction of
    seeds decreasing at every rung, and the root-mean-square (ensemble)
    read for the trees alongside the pathwise medians.
    """
    if len(configs) < 2:
        raise ValidationError("ladder needs at least two rungs")
    if len(seeds) < 1:
        raise ValidationError("ladder needs at least one seed")
    head = configs[0]
    for cfg in configs[1:]:
        if dataclasses.replace(head, epsilon=cfg.epsilon) != cfg:
            raise ConfigMismatch("ladder configs may differ only in epsilon")
    grid = u0.grid

    tree_keys = (GENERATOR_KEY, "lr", "rLlr")
    sol_diffs = np.zeros((len(seeds), len(configs) - 1))
    tree_diffs = {k: np.zeros_like(sol_diffs) for k in tree_keys}
    for i, seed in enumerate(seeds):
        sols, families = [], []
        for cfg in configs:
            y = sample_Y(dataclasses.replace(cfg, seed=int(seed)), grid)
            sols.append(solve_mollified(y, u0).modes)
            fam = build_tree_family(y, recentered=True)
            families.append({k: tr.modes for k, tr in fam.items()})
        for m in range(len(configs) - 1):
            sol_diffs[i, m] = _max_sobolev(sols[m] - sols[m + 1], grid,
                                          exponent)
            for k in tree_keys:
                tree_diffs[k][i, m] = _max_sobolev(
                    families[m][k] - families[m + 1][k], grid, exponent)

    def summary(table):
        med = np.median(table, axis=0)
        ratios = [float(med[m + 1] / med[m]) if med[m] > 0 else 0.0
                  for m in range(len(med) - 1)]
        mono = float(np.mean(np.all(np.diff(table, axis=1) < 0, axis=1)))
        return {"medians": [float(x) for x in med],
                "rung_ratios": ratios,
                "monotone_fraction": mono,
                "rms": [float(x) for x in
                        np.sqrt(np.mean(table ** 2, axis=0))],
                "per_seed": table.tolist()}

    return {"epsilons": [float(cfg.epsilon) for cfg in configs],
            "exponent": exponent,
            "seeds": [int(x) for x in seeds],
            "solution": summary(sol_diffs),
            "trees": {k: summary(tree_diffs[k]) for k in tree_keys}}
