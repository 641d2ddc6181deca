"""Study harness: spec files, manifests, determinism, CLI plumbing."""
import dataclasses
import json
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from gfsb.cli import main
from gfsb.errors import IncompleteManifest, TaskFailure, ValidationError
from gfsb.kernels import exp_cross_integral
from gfsb.harness import (
    ExperimentSpec,
    RunManifest,
    _cross_quadrature,
    _parse_seed_list,
    code_version,
    emit_plot_data,
    load_spec,
    run,
    thread_count,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ROOT / "experiments"


AUDIT_SPEC = """\
[experiment]
name = audit-check
kind = tree-algebra-audit
seeds = 0
output = {out}

[parameters]
max_leaves = 6
"""


def _write_spec(tmp_path, text):
    path = tmp_path / "study.spec"
    path.write_text(text)
    return path


# ------------------------------------------------------------- spec files


def test_seed_list_accepts_ranges_and_commas():
    assert _parse_seed_list("0:3, 7, 9") == (0, 1, 2, 7, 9)
    assert _parse_seed_list("5") == (5,)
    with pytest.raises(ValidationError):
        _parse_seed_list("3:1")
    with pytest.raises(ValidationError):
        _parse_seed_list("x")


def test_load_spec_round_trip(tmp_path):
    path = _write_spec(tmp_path, AUDIT_SPEC.format(out=tmp_path))
    spec = load_spec(path)
    assert spec.name == "audit-check"
    assert spec.kind == "tree-algebra-audit"
    assert spec.seeds == (0,)
    assert spec.output_dir == tmp_path / "audit-check"
    assert spec.resolved_parameters()["max_leaves"] == 6
    # hash depends only on declared content, not on the output location
    moved = load_spec(path, output_dir=tmp_path / "elsewhere")
    assert moved.spec_hash() == spec.spec_hash()


def test_spec_hash_reads_resolved_parameters(tmp_path):
    def spec(**params):
        return ExperimentSpec(name="a", kind="appendix-integrals",
                              parameters=params, seeds=(0,),
                              output_dir=tmp_path)

    implicit = spec(family="identities")
    written = spec(family="identities", triples="50", tolerance="1e-08",
                   exponents="0.6, 0.5")
    assert written.spec_hash() == implicit.spec_hash()
    assert spec(family="identities", triples="49").spec_hash() \
        != implicit.spec_hash()


def test_manifest_records_source_digest(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src" / "gfsb"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert code_version() == digest.hexdigest()
    assert code_version() is code_version()     # computed once
    manifest = run(load_spec(_write_spec(tmp_path,
                                         AUDIT_SPEC.format(out=tmp_path))))
    assert manifest.code_version == digest.hexdigest()


def test_spec_validation_rejects_bad_input(tmp_path):
    with pytest.raises(ValidationError):
        load_spec(tmp_path / "missing.spec")
    with pytest.raises(ValidationError):
        load_spec(_write_spec(tmp_path, "[parameters]\nx = 1\n"))
    with pytest.raises(ValidationError):
        ExperimentSpec(name="a", kind="nope", parameters={}, seeds=(0,),
                       output_dir=tmp_path)
    with pytest.raises(ValidationError):
        ExperimentSpec(name="bad/name", kind="identity-suite",
                       parameters={}, seeds=(0,), output_dir=tmp_path)
    spec = ExperimentSpec(name="a", kind="identity-suite",
                          parameters={"mystery": "1"}, seeds=(0,),
                          output_dir=tmp_path)
    with pytest.raises(ValidationError):
        spec.resolved_parameters()
    spec = ExperimentSpec(name="a", kind="covariance", parameters={},
                          seeds=(0,), output_dir=tmp_path)
    with pytest.raises(ValidationError):   # check= is required
        spec.resolved_parameters()


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("GFSB_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("GFSB_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("GFSB_THREADS", "zero")
    with pytest.raises(ValidationError):
        thread_count()


# ---------------------------------------------------------------- running


def test_cross_quadrature_witness_across_the_kink_corner():
    """The second triple of seed 20013 puts the kink corner u = delta
    where an unsplit outer integral misses the closed form by 3.7e-6."""
    a, b, delta = 0.6250547022243647, 0.34933065455156775, 1.0037050979491693
    assert abs(_cross_quadrature(a, b, delta)
               - exp_cross_integral(a, b, delta)) < 1e-10


def test_run_writes_artifacts_and_summary(tmp_path):
    spec = load_spec(_write_spec(tmp_path, AUDIT_SPEC.format(out=tmp_path)))
    manifest = run(spec)
    assert manifest.complete
    assert set(manifest.statuses.values()) == {"passed"}
    summary = json.loads((spec.output_dir / "summary.json").read_text())
    assert summary["all_passed"] is True
    assert {a["name"] for a in summary["assertions"]} == set(
        manifest.statuses)
    stored = json.loads((spec.output_dir / "manifest.json").read_text())
    assert stored["spec_hash"] == spec.spec_hash()


def _artifact_hashes(manifest):
    out = {}
    for name, path in manifest.artifacts.items():
        if name != "manifest.json":     # carries wall-clock times
            out[name] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return out


def test_reruns_are_bit_exact_across_parallelism(tmp_path, monkeypatch):
    def once(tag, threads):
        monkeypatch.setenv("GFSB_THREADS", threads)
        spec = ExperimentSpec(name="ids", kind="identity-suite",
                              parameters={"n_modes": "64",
                                          "smoothed_probes": "1"},
                              seeds=tuple(range(4)),
                              output_dir=tmp_path / tag)
        return _artifact_hashes(run(spec))

    assert once("serial", "1") == once("parallel", "3")


def test_failing_assertion_is_reported_not_raised(tmp_path):
    spec = ExperimentSpec(name="strict", kind="identity-suite",
                          parameters={"n_modes": "64", "tolerance": "0",
                                      "smoothed_probes": "1"},
                          seeds=(0,), output_dir=tmp_path / "strict")
    manifest = run(spec)
    assert manifest.complete
    assert "failed" in manifest.statuses.values()


def test_runner_error_becomes_task_failure(tmp_path):
    # Width 2^-5 cannot be resolved on 16 modes.
    spec = ExperimentSpec(name="eps", kind="eps-convergence",
                          parameters={"n_modes": "16", "t_end": "0.05",
                                      "levels": "2,5"},
                          seeds=(0,), output_dir=tmp_path / "eps")
    with pytest.raises(TaskFailure) as exc:
        run(spec)
    partial = exc.value.manifest
    assert partial is not None
    assert partial.statuses == {"run": "error"}
    assert not partial.complete
    stored = json.loads((tmp_path / "eps" / "manifest.json").read_text())
    assert stored["statuses"] == {"run": "error"}
    assert stored["versions"]["numpy"]


def test_manifest_records_versions_and_validity_warnings(tmp_path):
    # c10's shape at N = 128, dt = 4e-4: dt * N^gamma = 1.95 > 1, so the
    # grid check warns; the module's ignore filter must not hide it
    spec = load_spec(EXPERIMENTS / "c10-solver-reconstruction.spec",
                     tmp_path / "c10")
    spec = dataclasses.replace(spec, parameters={
        **spec.parameters, "n_modes": "128", "dt": "4e-4", "t_end": "0.02"})
    run(spec)
    stored = json.loads((tmp_path / "c10" / "manifest.json").read_text())
    assert set(stored["versions"]) >= {"python", "numpy"}
    assert [w["category"] for w in stored["warnings"]] == ["UserWarning"]
    assert "dt * N^gamma = 1.95 > 1" in stored["warnings"][0]["message"]
    assert stored["warnings"][0]["source"].startswith("noise.py:")

    run(load_spec(EXPERIMENTS / "c01-decomposition-identities.spec",
                  tmp_path / "c01"))
    stored = json.loads((tmp_path / "c01" / "manifest.json").read_text())
    assert stored["warnings"] == []


def test_more_u0_values_than_modes_is_a_validation_error(tmp_path):
    spec = ExperimentSpec(name="eps", kind="eps-convergence",
                          parameters={"n_modes": "2", "t_end": "0.05",
                                      "levels": "1,2",
                                      "u0_modes": "0.1, 0.2j, 0.3"},
                          seeds=(0,), output_dir=tmp_path / "eps")
    with pytest.raises(ValidationError, match="3 values for 2 modes"):
        run(spec)


def test_summability_cutoff_below_64_is_refused(tmp_path):
    spec = ExperimentSpec(name="sum", kind="appendix-integrals",
                          parameters={"family": "summability", "K": "32",
                                      "a_max": "4"},
                          seeds=(0,), output_dir=tmp_path / "sum")
    with pytest.raises(TaskFailure, match="cutoff must be >= 64"):
        run(spec)


# -------------------------------------------------------------- plot data


def test_plot_data_per_symbol(tmp_path):
    spec = ExperimentSpec(name="lad", kind="regularity-ladder",
                          parameters={"n_modes": "128", "dt": "5e-4",
                                      "t_end": "0.05", "j_hi": "6"},
                          seeds=(0,), output_dir=tmp_path / "lad")
    manifest = run(spec)
    written = emit_plot_data(manifest)
    names = sorted(p.name for p in written)
    assert names == ["ladder_lr.csv", "ladder_n.csv", "ladder_rLlr.csv"]
    lines = (tmp_path / "lad" / "ladder_n.csv").read_text().splitlines()
    assert lines[0] == "j,log2_mean"
    assert len(lines) == 5  # header + blocks 3..6


def test_plot_data_requires_complete_manifest():
    with pytest.raises(IncompleteManifest):
        emit_plot_data(RunManifest(spec_hash="x", code_version="y"))


# ------------------------------------------------------------------- CLI

# Every study process and CLI call pays for this import, and none of it
# needs scipy.  A fresh process is needed because other tests import
# scipy in-process.
IMPORT_PROBE = """\
import sys
import gfsb.cli
from gfsb.harness import load_spec
load_spec(sys.argv[1], sys.argv[2])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

# c09 and c12 reach both Picard solvers, the time smoothing and the
# Mittag-Leffler series; they too run on numpy alone.
STUDY_PROBE = """\
import sys
from pathlib import Path
from gfsb.harness import load_spec, run
for stem in ("c09-solver-degeneration", "c12-dependence-envelope"):
    spec = load_spec(Path(sys.argv[1]) / (stem + ".spec"),
                     Path(sys.argv[2]) / stem)
    assert all(a["passed"] for a in run(spec).assertions), stem
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _probe(code, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_heavy_scipy_unloaded(tmp_path):
    spec = EXPERIMENTS / "c10-solver-reconstruction.spec"
    assert _probe(IMPORT_PROBE, spec, tmp_path) == "[]"


def test_solver_studies_load_no_scipy(tmp_path):
    assert _probe(STUDY_PROBE, EXPERIMENTS, tmp_path) == "[]"


def test_cli_verify_identities(tmp_path):
    result = CliRunner().invoke(
        main, ["verify-identities", "--n-modes", "32", "--fields", "2",
               "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "[PASS] bony-identity" in result.output


def test_cli_run_spec_exit_codes(tmp_path):
    ok = _write_spec(tmp_path, AUDIT_SPEC.format(out=tmp_path))
    result = CliRunner().invoke(main, ["run", str(ok)])
    assert result.exit_code == 0, result.output

    bad = tmp_path / "bad.spec"
    bad.write_text("[experiment]\nname = strict\nkind = identity-suite\n"
                   "seeds = 0\noutput = {}\n\n[parameters]\n"
                   "n_modes = 64\ntolerance = 0\n"
                   "smoothed_probes = 1\n".format(tmp_path))
    result = CliRunner().invoke(main, ["run", str(bad)])
    assert result.exit_code == 1
    assert "[FAIL]" in result.output


def test_cli_run_refuses_t_end_off_the_step_grid(tmp_path):
    """t_end = 0.0201 is 50.25 steps of 4e-4: the noise config refuses
    it, so the study errors and the run exits with code 2."""
    text = (EXPERIMENTS / "c10-solver-reconstruction.spec").read_text()
    text = (text.replace("n_modes = 256", "n_modes = 128")
            .replace("dt = 1e-4", "dt = 4e-4")
            .replace("t_end = 0.1", "t_end = 0.0201"))
    spec = _write_spec(tmp_path, text)
    result = CliRunner().invoke(main, ["run", str(spec),
                                       "--out", str(tmp_path / "runs")])
    assert result.exit_code == 2, result.output
    assert "is not a multiple of dt" in result.output


def test_each_route_draws_the_forced_flow_once(tmp_path, monkeypatch):
    """c10 feeds one draw of Y to its direct solve and to its trees, and
    c11 one draw per (seed, rung) to that rung's solve and trees."""
    import gfsb.noise

    calls = []
    ou_path = gfsb.noise._ou_path

    def spy(*args):
        calls.append(args[0])
        return ou_path(*args)

    monkeypatch.setattr(gfsb.noise, "_ou_path", spy)
    spec = load_spec(EXPERIMENTS / "c10-solver-reconstruction.spec",
                     tmp_path / "c10")
    run(dataclasses.replace(spec, parameters={
        **spec.parameters, "n_modes": "128", "dt": "4e-4", "t_end": "0.02"}))
    assert len(calls) == 1

    calls.clear()
    run(ExperimentSpec(name="eps", kind="eps-convergence",
                       parameters={"n_modes": "16", "t_end": "0.05",
                                   "levels": "2,3"},
                       seeds=(0,), output_dir=tmp_path / "eps"))
    assert [cfg.epsilon for cfg in calls] == [0.25, 0.125]


def test_cli_tree_algebra_json(tmp_path):
    result = CliRunner().invoke(
        main, ["tree-algebra", "--max-leaves", "3",
               "--out", str(tmp_path / "doc.json")])
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "doc.json").read_text())
    keys = {entry["key"] for entry in doc["generated"]}
    assert {"n", "lr", "rLlr"} <= keys
    assert doc["floor"]["holds"] is True


def test_cli_solve_direct_and_structured(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("gamma = 2.0\nn_modes = 16\ndt = 1e-3\nt_end = 0.05\n"
                   "seed = 3\nu0_modes = 0.05-0.01j, 0.02j\n")
    result = CliRunner().invoke(
        main, ["solve", "--mode", "direct", "--config", str(cfg),
               "--out", str(tmp_path / "runs")])
    assert result.exit_code == 0, result.output
    diag = json.loads(
        (tmp_path / "runs" / "direct" / "diagnostics.json").read_text())
    assert "mild_residual" in diag

    cfg2 = tmp_path / "solve2.cfg"
    cfg2.write_text("gamma = 1.75\nn_modes = 32\ndt = 1e-3\nt_end = 0.05\n"
                    "seed = 3\nepsilon = 0.125\ntol = 1e-9\n"
                    "coeff_rLlr = 2.0\n")
    result = CliRunner().invoke(
        main, ["solve", "--mode", "subcritical", "--config", str(cfg2),
               "--out", str(tmp_path / "runs")])
    assert result.exit_code == 0, result.output
    diag = json.loads(
        (tmp_path / "runs" / "subcritical" / "diagnostics.json").read_text())
    assert diag["slabs"][0]["iterations"] > 0
    assert all(f < 1.0 for f in diag["slabs"][0]["contraction_factors"])

    result = CliRunner().invoke(
        main, ["solve", "--mode", "direct", "--config", str(cfg),
               "--out", str(tmp_path / "runs")])
    assert result.exit_code == 0

    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma = 2.0\nwhat = 1\n")
    result = CliRunner().invoke(
        main, ["solve", "--mode", "direct", "--config", str(bad)])
    assert result.exit_code != 0


@pytest.mark.parametrize("line, says", [
    ("n_modes = 4\nu0_modes = 0.1, 0.2, 0.3, 0.4, 0.5\n", "u0_modes"),
    ("u0_modes = 1+zz\n", "u0_modes"),
    ("b = 0\n", "b must be positive"),
])
def test_cli_solve_bad_config_is_a_usage_error(tmp_path, line, says):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("gamma = 2.0\nt_end = 0.01\n" + line)
    result = CliRunner().invoke(
        main, ["solve", "--mode", "subcritical", "--config", str(cfg),
               "--out", str(tmp_path / "runs")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert says in result.output


def test_cli_sample_tree(tmp_path):
    result = CliRunner().invoke(
        main, ["sample-tree", "--symbol", "lr", "--n-modes", "16",
               "--t-end", "0.05", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "lr" / "manifest.json").read_text())
    assert manifest["format"] == "gfsb-trajectory"
    assert manifest["meta"]["symbol"] == "lr"


def test_cli_check_covariance_quick(tmp_path):
    result = CliRunner().invoke(
        main, ["check-covariance", "--check", "wick", "--samples", "500",
               "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "wick-pairing-structure" in result.output
