"""Reference assertion values of every workload, and the rule that
compares a run against them.

A value passes when it lies within a roundoff-sized tolerance of the
reference: REL_TOL of its size, or ABS_FLOOR for values near zero (such
as the reconstruction gaps of about 3e-14, which are roundoff
themselves).  Run this file to capture the references afresh:

    python3 perfbench/reference.py
"""
from __future__ import annotations

import json
import shutil
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
REL_TOL = 1e-9
ABS_FLOOR = 1e-12


def load() -> dict:
    return json.loads(REFERENCE.read_text())


def within(value: float, ref: float) -> bool:
    return abs(value - ref) <= max(ABS_FLOOR, REL_TOL * abs(ref))


def values_of(manifest) -> dict:
    return {a["name"]: a["value"] for a in manifest.assertions}


def capture(root: Path) -> dict:
    """Assertion values of each workload's spec draws."""
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from gfsb.harness import run

    out = {}
    out_dir = root / ".bench_build" / "reference"
    try:
        for name, work in workloads.WORKLOADS.items():
            spec = workloads.load(root, work, out_dir / name)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                out[name] = values_of(run(spec))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return out


if __name__ == "__main__":
    values = capture(HERE.parent)
    REFERENCE.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
