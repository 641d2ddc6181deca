"""Acceptance gate: every shipped study runs green within its budget.

Each test loads one spec from experiments/, executes it end to end,
and checks five things: the study's assertions all passed, the
assertion set covers what the criterion promises, every assertion value
matches experiments/baseline_values.json within max(1e-12, 1e-9*|ref|),
or within its own tighter tolerance in TOLERANCES, every artifact but
manifest.json has the sha256 recorded in
experiments/artifact_digests.json, and the wall time stays under the
stated ceiling.  The digests hold for the platform they were taken on
(Python, numpy, numpy's SIMD targets); elsewhere they are not compared,
and the criterion line and a DigestsNotCompared warning say so.  One
pass/fail line per criterion.
"""
import json
import math
import sys
import time
import warnings
from pathlib import Path

import pytest

from gfsb.harness import load_spec, run

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"
BASELINE = json.loads((EXPERIMENTS / "baseline_values.json").read_text())

sys.path.insert(0, str(EXPERIMENTS))
import capture_digests  # noqa: E402

DIGESTS = json.loads(capture_digests.DIGESTS.read_text())


class DigestsNotCompared(Warning):
    """The artifact digests were taken on another platform."""

# Absolute tolerances for values far under the 1e-12 floor.  Each is ten
# times the largest move of the value when the study is rerun with every
# product grid lengthened by 1, 2, 4 or 8 points, or doubled: all of
# those grids are alias-free, so the moves are pure roundoff.  Largest
# moves: 3.0e-19 for degenerate-* (m + 8), 5.0e-18 for reconstruction-*
# (m + 1), and exactly 0 for lp-partition (6.3e-16) and mittag-leffler-e
# (4.4e-16), which pass through no product, so those two must repeat bit
# for bit.  They can only tighten the default rule.
TOLERANCES = {
    ("c01-decomposition-identities", "lp-partition"): 0.0,
    ("c12-dependence-envelope", "mittag-leffler-e"): 0.0,
    ("c09-solver-degeneration", "degenerate-subcritical"): 3e-18,
    ("c09-solver-degeneration", "degenerate-paracontrolled"): 3e-18,
    ("c10-solver-reconstruction", "reconstruction-subcritical"): 5e-17,
    ("c10-solver-reconstruction", "reconstruction-paracontrolled"): 5e-17,
}


def _baseline_drift(stem, assertions):
    """Names missing from either side, and values off their baseline by
    more than max(1e-12, 1e-9*|ref|) or their tolerance in TOLERANCES,
    whichever is smaller."""
    ref = BASELINE[stem]
    got = {a["name"]: a["value"] for a in assertions}
    drift = [f"{name}: missing" for name in sorted(set(ref) - set(got))]
    drift += [f"{name}: not in the baseline"
              for name in sorted(set(got) - set(ref))]
    for name in sorted(set(ref) & set(got)):
        want, value = ref[name], got[name]
        tol = min(TOLERANCES.get((stem, name), math.inf),
                  max(1e-12, 1e-9 * abs(want)))
        if value != want and not abs(value - want) <= tol:
            drift.append(f"{name}: {value!r} against {want!r}")
    return drift


def _digest_drift(stem, out_dir):
    """(note for the criterion line, artifacts whose sha256 is not the
    recorded one, or that only one side has)."""
    taken, here = DIGESTS["taken_under"], capture_digests.platform_key()
    if here != taken:
        keys = sorted(k for k in set(taken) | set(here)
                      if taken.get(k) != here.get(k))
        note = ("digests not compared: taken under "
                + ", ".join(f"{k} {taken.get(k)}" for k in keys)
                + ", running under "
                + ", ".join(f"{k} {here.get(k)}" for k in keys))
        warnings.warn(f"{stem}: {note}", DigestsNotCompared)
        return note, []
    want = DIGESTS["studies"].get(stem, {})
    got = capture_digests.digests(out_dir)
    moved = sorted(name for name in set(want) | set(got)
                   if want.get(name) != got.get(name))
    if moved:
        return f"{len(moved)} of {len(got)} artifacts off their digests", moved
    return f"{len(got)} artifacts byte-identical", moved


@pytest.fixture(scope="session")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _run_criterion(out_root, stem, budget_s, required):
    spec = load_spec(EXPERIMENTS / f"{stem}.spec",
                     output_dir=out_root / stem)
    start = time.perf_counter()
    manifest = run(spec)
    elapsed = time.perf_counter() - start
    failed = [a["name"] for a in manifest.assertions if not a["passed"]]
    note, moved = _digest_drift(stem, spec.output_dir)
    verdict = ("PASS" if (not failed and not moved and elapsed < budget_s)
               else "FAIL")
    print(f"criterion {stem}: {verdict} "
          f"({elapsed:.1f}s of {budget_s:.0f}s budget; {note})")
    assert required <= set(manifest.statuses), (
        f"study is missing expected checks: "
        f"{required - set(manifest.statuses)}")
    assert not failed, f"failed assertions: {failed}"
    drift = _baseline_drift(stem, manifest.assertions)
    assert not drift, f"values off the baseline: {drift}"
    assert not moved, f"artifacts off their digests: {moved}"
    assert elapsed < budget_s, f"{elapsed:.1f}s exceeded {budget_s:.0f}s"
    return manifest


def test_c01_decomposition_identities(out_root):
    _run_criterion(out_root, "c01-decomposition-identities", 10,
                   {"bony-identity", "lp-partition"})


def test_c02_kernel_identities_and_bounds(out_root):
    _run_criterion(out_root, "c02-kernel-identities", 5,
                   {"cross-integral-closed-form", "bound-families"})


def test_c03_noise_covariance_grid(out_root):
    _run_criterion(out_root, "c03-noise-covariance", 120,
                   {"ou-fraction-g1.6", "ou-fraction-g2"})


def test_c04_gaussian_moments_and_pairings(out_root):
    _run_criterion(out_root, "c04-gaussian-moments", 120,
                   {"wick-4th-moment", "wick-6th-moment",
                    "wick-pairing-structure"})


def test_c05_tree_second_moments(out_root):
    _run_criterion(out_root, "c05-tree-moments", 300,
                   {f"tree-moment-g{g}-k{k}"
                    for g in ("1.6", "2") for k in (1, 2, 3)})


def test_c06_regularity_ladder(out_root):
    _run_criterion(out_root, "c06-regularity-ladder", 600,
                   {"exponent-n", "exponent-lr", "exponent-rLlr",
                    "exponent-ordering"})


def test_c07_mode_summability(out_root):
    _run_criterion(out_root, "c07-mode-summability", 60,
                   {"uniform-cross-pair", "power-law-convergent-g1.6",
                    "power-law-divergent-g1.2"})


def test_c08_symbol_algebra_floor(out_root):
    _run_criterion(out_root, "c08-symbol-algebra", 1,
                   {"floor-a-0.24-b0.5", "floor-a-0.2-b0.5",
                    "floor-a-0.1-b0.6", "regular-set-listing"})


def test_c09_solver_degeneration(out_root):
    _run_criterion(out_root, "c09-solver-degeneration", 120,
                   {"degenerate-subcritical", "degenerate-paracontrolled",
                    "residual-order"})


def test_c10_solver_reconstruction(out_root):
    _run_criterion(out_root, "c10-solver-reconstruction", 600,
                   {"reconstruction-subcritical",
                    "reconstruction-paracontrolled"})


def test_c11_mollifier_convergence(out_root):
    _run_criterion(out_root, "c11-mollifier-convergence", 1800,
                   {"solution-monotone", "n-monotone", "lr-monotone",
                    "rLlr-monotone", "lr-faster-than-generator",
                    "rLlr-faster-than-generator"})


def test_c12_dependence_envelope(out_root):
    _run_criterion(out_root, "c12-dependence-envelope", 300,
                   {"ladder-slope", "ladder-slope-final",
                    "envelope-dominates", "mittag-leffler-e"})
