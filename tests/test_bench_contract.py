"""The benchmark's contract with the package.

perfbench/ loads its workloads from the shipped specs and traces gfsb
functions by name.  A change that renames or deletes one of them, or
makes a workload spec invalid, breaks the benchmark without failing any
other unit test, so both are checked here.  perfbench is only imported.
"""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "work", [*workloads.WORKLOADS.values(), workloads.THREAD_CHECK],
    ids=[*workloads.WORKLOADS, "thread-check"])
def test_workload_specs_load(work, tmp_path):
    spec = workloads.load(ROOT, work, tmp_path)
    assert spec.output_dir == tmp_path


def test_traced_names_resolve():
    import gfsb.harness  # noqa: F401  (imports every traced layer)

    modules = {layer: sys.modules[f"gfsb.{layer}"] for layer in spans.LAYERS}
    targets = {name for _, name, _, _, _ in spans._targets(modules)}
    private = {f"{layer}.{attr}" for layer, attrs in spans.PRIVATE.items()
               for attr in attrs}
    wanted = set(spans.TIMED) | private | set(spans.WORK)
    assert wanted <= targets, sorted(wanted - targets)
