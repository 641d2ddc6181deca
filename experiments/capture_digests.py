"""Re-capture experiments/artifact_digests.json.

The file holds the sha256 of every artifact each study writes, its
manifest.json excepted, together with what the bytes depend on: the
Python and numpy versions and the SIMD targets numpy dispatches to on
this CPU.  tests/test_acceptance.py hashes what each study wrote and
compares; on another platform it compares nothing and says so.

    PYTHONPATH=src python experiments/capture_digests.py

Every spec in experiments/ runs, serially (about four minutes, as long
as the acceptance gate).  Nothing is written when a study's assertions
fail.
"""
from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

EXPERIMENTS = Path(__file__).resolve().parent
DIGESTS = EXPERIMENTS / "artifact_digests.json"


def platform_key() -> dict:
    """What the artifacts' bytes are taken to depend on."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
        simd = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    except ImportError:
        simd = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "simd": simd}


def digests(out_dir: Path) -> dict:
    """sha256 of every file under out_dir but manifest.json, keyed by
    its path relative to out_dir."""
    return {path.relative_to(out_dir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


def main() -> int:
    from gfsb.harness import load_spec, run

    studies = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec_path in sorted(EXPERIMENTS.glob("*.spec")):
            out = Path(tmp) / spec_path.stem
            manifest = run(load_spec(spec_path, output_dir=out))
            failed = [a["name"] for a in manifest.assertions
                      if not a["passed"]]
            if failed or manifest.error:
                print(f"{spec_path.stem}: failed {failed} {manifest.error}; "
                      "nothing written", file=sys.stderr)
                return 1
            studies[spec_path.stem] = digests(out)
            print(f"{spec_path.stem}: {len(studies[spec_path.stem])} "
                  "artifacts")
    DIGESTS.write_text(json.dumps(
        {"taken_under": platform_key(), "studies": studies}, indent=2)
        + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
