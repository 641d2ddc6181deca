"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gfsb import harness  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _bindings():
    """Every (namespace, name) -> object binding the tracer may patch."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gfsb" or mod_name.startswith("gfsb."):
            for attr, obj in vars(mod).items():
                out[(mod_name, attr)] = obj
                if isinstance(obj, type):
                    for meth, fn in vars(obj).items():
                        out[(mod_name, attr, meth)] = fn
    return out


@pytest.fixture(scope="module")
def reconstruction(tmp_path_factory):
    """One untraced and two traced runs of the reconstruction workload."""
    out = tmp_path_factory.mktemp("perfbench")
    spec = workloads.load(ROOT, workloads.WORKLOADS["reconstruction"], out)
    plain = reference.values_of(harness.run(spec))
    tracer = spans.Tracer()
    runs = []
    for _ in range(2):
        tracer.reset()
        with tracer:
            values = reference.values_of(harness.run(spec))
        runs.append((values, list(tracer.spans)))
    return plain, runs


def test_tracing_restores_every_patched_name():
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        during = _bindings()
        patched = {k for k in before if during[k] is not before[k]}
        assert ("gfsb.spectral", "product_modes") in patched
        assert ("gfsb.solver", "product_modes") in patched
        assert ("gfsb.harness", "run") in patched
        assert ("gfsb.besov", "TimeMollifierBank", "smooth") in patched
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_and_untraced_values_are_identical(reconstruction):
    plain, runs = reconstruction
    assert plain == reference.load()["reconstruction"]
    for values, _ in runs:
        assert values == plain


def test_work_counts_repeat_exactly(reconstruction):
    _, runs = reconstruction
    first, second = (spans.layer_metrics(s) for _, s in runs)
    counts = {k: first[k] for k in spans.COUNTS}
    assert counts == {k: second[k] for k in spans.COUNTS}
    assert counts["spectral.product_modes.calls"] > 0
    assert counts["solver.picard.sweeps"] > 0


def test_layer_self_times_sum_to_study_time(reconstruction):
    _, runs = reconstruction
    for _, recorded in runs:
        metrics = spans.layer_metrics(recorded)
        root = recorded[0]
        assert root.name == "harness.run" and root.parent == -1
        total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert total == pytest.approx(root.duration, rel=1e-9)


def test_recursive_calls_count_their_interval_once():
    tracer = spans.Tracer()
    from gfsb import kernels

    with tracer:
        kernels.five_exp_quadrature(1.0, 1.5, 2.0, 0.5, 0.7, -0.3)
    assert [s.name for s in tracer.spans] == [
        "kernels.five_exp_quadrature"] * 2
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["kernels.calls"] == 2
    assert metrics["kernels.five_exp_quadrature.s"] == tracer.spans[0].duration


def test_reference_tolerance_is_roundoff_sized():
    assert reference.within(1.0 + 1e-12, 1.0)
    assert not reference.within(1.0 + 1e-6, 1.0)
    assert reference.within(7e-15, 3e-14)          # absolute floor
    assert not reference.within(1e-9, 3e-14)


def test_fresh_draws_keep_shapes_and_move_seeds(tmp_path):
    spec = workloads.load(ROOT, workloads.THREAD_CHECK, tmp_path)
    fresh = workloads.load(ROOT, workloads.THREAD_CHECK, tmp_path, seed=3)
    assert spec.parameters == fresh.parameters
    assert fresh.seeds == tuple(s + 3 * workloads.SEED_STRIDE
                                for s in spec.seeds)
    one = workloads.load(ROOT, workloads.WORKLOADS["reconstruction"],
                         tmp_path, seed=1)
    assert int(one.parameters["seed"]) == 21 + workloads.SEED_STRIDE


def test_thread_check_compares_serial_and_threaded_bytes(tmp_path):
    import run

    assert run.threads_match(harness, tmp_path)
    assert "GFSB_THREADS" not in run.os.environ
    serial, threaded = (
        (tmp_path / f"threads-{t}" / "block_norms.csv").read_bytes()
        for t in (None, "2"))
    assert serial == threaded and serial


def test_benchmark_json_lists_every_reported_metric(reconstruction):
    import json

    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    _, runs = reconstruction
    reported = set(spans.layer_metrics(runs[0][1])) | {
        "harness.artifact_bytes", "trace.study_s", "trace.overhead_s"}
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(listed) == reported
    assert all(run.unit_of(name) == unit for name, unit in listed.items())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
