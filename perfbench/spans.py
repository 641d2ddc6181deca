"""Per-layer spans for gfsb, patched in from outside the package.

``Tracer`` replaces each traced function, in every ``gfsb`` module
namespace that binds it, with a wrapper that records a span (name,
layer, parent span, start, end) plus a few work counts read from the
arguments or the result.  ``restore`` puts every original back.  Spans
stay in memory; ``layer_metrics`` folds one repetition's spans into the
per-layer metrics.  Tracing is for serial runs only: the span stack is
shared, so GFSB_THREADS must be unset while it is installed.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass
from types import FunctionType

LAYERS = ("spectral", "trajectory", "trees", "noise", "kernels", "besov",
          "construct", "solver", "harness")

# Private functions that get spans: the kernels ROADMAP item 1 names that
# the workloads reach, c02's quadrature route, and the harness's one
# write boundary (for harness.write_s).
PRIVATE = {
    "besov": ("_bilinear", "_block_sup_norms"),
    "noise": ("_ou_path",),
    "harness": ("_cross_quadrature", "_atomic_write"),
}

# Span names that differ from <layer>.<qualname>.
RENAMED = {"besov.TimeMollifierBank.smooth": "besov.smooth"}

PICARD_SOLVERS = ("solver.solve_subcritical", "solver.solve_paracontrolled")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _sweeps(args, kwargs, result):
    return {"sweeps": sum(s["iterations"]
                          for s in result.diagnostics["slabs"])}


# Work counts per span, read from (args, kwargs, result).
WORK = {
    "spectral.product_modes": lambda a, k, r: {
        "mode_rows": math.prod(a[0].shape[:-1]) * _arg(a, k, 2, "n_modes")},
    "besov._bilinear": lambda a, k, r: {"which": _arg(a, k, 3, "which")},
    "noise._ou_path": lambda a, k, r: {"normals": a[2].size},
    "construct.duhamel_scan": lambda a, k, r: {
        "node_modes": a[0].size, "init": _arg(a, k, 3, "init") is not None},
    "solver.solve_subcritical": _sweeps,
    "solver.solve_paracontrolled": _sweeps,
    "solver.solve_mollified": lambda a, k, r: {"steps": len(r.times) - 1},
}


@dataclass(frozen=True)
class Span:
    name: str
    layer: str
    parent: int          # index of the enclosing span, -1 at the root
    start: float
    end: float
    work: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _targets(modules):
    """(layer, span name, owner, attribute, original) for every traced
    function; owner is a module or, for methods, a class."""
    out = []
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__:
                if not attr.startswith("_") or attr in PRIVATE.get(layer, ()):
                    out.append((layer, f"{layer}.{attr}", mod, attr, obj))
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    if isinstance(fn, FunctionType) and not meth.startswith("_"):
                        name = f"{layer}.{attr}.{meth}"
                        out.append((layer, RENAMED.get(name, name), obj,
                                    meth, fn))
    return out


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []      # (owner, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import gfsb.harness  # noqa: F401  (imports every traced layer)

        modules = {layer: sys.modules[f"gfsb.{layer}"] for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "gfsb" or n.startswith("gfsb.")]
        for layer, name, owner, attr, fn in _targets(modules):
            wrapper = self._wrap(fn, name, layer)
            if isinstance(owner, type):
                self._patch(owner, attr, fn, wrapper)
                continue
            for ns in namespaces:
                if vars(ns).get(attr) is fn:
                    self._patch(ns, attr, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = Span(name, layer, parent, start, clock(), None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[index] = Span(name, layer, parent, start, end,
                                work(args, kwargs, result) if work else None)
            return result

        return traced


# Metrics that count work: they must repeat exactly between runs.
COUNTS = (
    "spectral.product_modes.calls", "spectral.product_modes.mode_rows",
    "spectral.modes_to_physical.calls", "besov._bilinear.calls",
    "solver.picard.sweeps", "solver.picard.useful_frac",
    "solver.solve_mollified.transports_per_step", "noise._ou_path.calls",
    "noise.normals", "construct.duhamel_scan.calls",
    "construct.duhamel_scan.node_modes", "kernels.calls",
)

# Inclusive seconds of one span name, reported as "<name>.s".
TIMED = (
    "spectral.product_modes", "spectral.modes_to_physical",
    "besov._block_sup_norms",
    "besov.modified_paraproduct", "besov.smooth",
    "solver.solve_paracontrolled", "solver.solve_subcritical",
    "solver.build_enhanced_data", "solver.solve_mollified",
    "noise.sample_Y", "noise._ou_path",
    "construct.duhamel_scan", "construct.build_tree_family",
    "construct.recenter", "kernels.five_exp_quadrature",
    "harness._cross_quadrature",
)


def _outermost(spans, i) -> bool:
    """False for a call nested in a call of the same function (such as
    five_exp_quadrature recursing on negative delta), so that inclusive
    seconds count each interval once."""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == spans[i].name:
            return False
        p = spans[p].parent
    return True


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced repetition."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    seconds, calls = {}, {}
    for i, s in enumerate(spans):
        out[f"{s.layer}.self_s"] += s.duration - child[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        if _outermost(spans, i):
            seconds[s.name] = seconds.get(s.name, 0.0) + s.duration
    for name in TIMED:
        out[f"{name}.s"] = seconds.get(name, 0.0)

    def total(name, key):
        return sum(s.work[key] for s in spans if s.name == name and s.work)

    def ratio(num, den):
        return num / den if den else 0.0

    rows = total("spectral.product_modes", "mode_rows")
    out["spectral.product_modes.calls"] = calls.get("spectral.product_modes", 0)
    out["spectral.product_modes.mode_rows"] = rows
    out["spectral.product_modes.mode_rows_per_s"] = ratio(
        rows, seconds.get("spectral.product_modes", 0.0))
    out["spectral.modes_to_physical.calls"] = calls.get(
        "spectral.modes_to_physical", 0)

    bilinear = [s for s in spans if s.name == "besov._bilinear"]
    out["besov._bilinear.calls"] = len(bilinear)
    for which in ("lower", "resonant"):
        out[f"besov._bilinear.{which}.s"] = sum(
            s.duration for s in bilinear
            if s.work and s.work["which"] == which)

    # A Picard sweep ends in one Duhamel scan with an initial value,
    # called straight from the solver; accepted sweeps are the ones the
    # returned diagnostics list (diverged slabs are retried and dropped).
    sweeps = sum(total(name, "sweeps") for name in PICARD_SOLVERS)
    attempted = sum(
        1 for s in spans
        if s.name == "construct.duhamel_scan" and s.work and s.work["init"]
        and s.parent >= 0 and spans[s.parent].name in PICARD_SOLVERS)
    out["solver.picard.sweeps"] = sweeps
    out["solver.picard.useful_frac"] = ratio(sweeps, attempted)

    transports = sum(
        1 for s in spans
        if s.name == "spectral.product_modes" and s.parent >= 0
        and spans[s.parent].name == "solver.solve_mollified")
    out["solver.solve_mollified.transports_per_step"] = ratio(
        transports, total("solver.solve_mollified", "steps"))

    out["noise._ou_path.calls"] = calls.get("noise._ou_path", 0)
    out["noise.normals"] = total("noise._ou_path", "normals")
    out["construct.duhamel_scan.calls"] = calls.get(
        "construct.duhamel_scan", 0)
    out["construct.duhamel_scan.node_modes"] = total(
        "construct.duhamel_scan", "node_modes")
    out["kernels.calls"] = sum(1 for s in spans if s.layer == "kernels")
    out["harness.write_s"] = seconds.get("harness._atomic_write", 0.0)
    return out
