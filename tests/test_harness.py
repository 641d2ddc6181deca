"""Study harness: spec files, manifests, determinism, CLI plumbing."""
import ast
import dataclasses
import json
import hashlib
import inspect
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import integrate

from gfsb.cli import main
from gfsb.errors import IncompleteManifest, TaskFailure, ValidationError
from gfsb.kernels import exp_cross_integral
from gfsb.harness import (
    ExperimentSpec,
    RunManifest,
    _STUDIES,
    _cross_quadrature,
    _double_exponential_rule,
    _floats,
    _ints,
    _keep_freed_memory,
    _pairs,
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


def _write_spec(tmp_path, text):
    path = tmp_path / "study.spec"
    path.write_text(text)
    return path


def _shipped(stem, output_dir, seeds=None, **parameters):
    """The shipped spec ``stem`` with some of its parameters (and its
    seed list) overridden through dataclasses.replace, the call
    perfbench/workloads.load makes; every other key keeps the spec's
    value."""
    spec = load_spec(EXPERIMENTS / f"{stem}.spec", output_dir=output_dir)
    return dataclasses.replace(
        spec, parameters={**spec.parameters, **parameters},
        seeds=spec.seeds if seeds is None else tuple(seeds))


def _audit(out):
    """c08 at max_leaves = 6, named audit-check, writing to out/audit-check."""
    return dataclasses.replace(
        _shipped("c08-symbol-algebra", out / "audit-check", max_leaves="6"),
        name="audit-check")


def _spec_text(spec):
    """``spec`` as a spec file whose ``output`` is its output_dir's parent."""
    seeds = ", ".join(map(str, spec.seeds))
    return "".join([
        f"[experiment]\nname = {spec.name}\nkind = {spec.kind}\n",
        f"seeds = {seeds}\n" if seeds else "",
        f"output = {spec.output_dir.parent}\n\n[parameters]\n",
        *(f"{key} = {value}\n" for key, value in spec.parameters.items())])


# ------------------------------------------------------------- spec files


def test_seed_list_accepts_ranges_and_commas():
    assert _parse_seed_list("0:3, 7, 9") == (0, 1, 2, 7, 9)
    assert _parse_seed_list("5") == (5,)
    with pytest.raises(ValidationError):
        _parse_seed_list("3:1")
    with pytest.raises(ValidationError):
        _parse_seed_list("x")


def test_load_spec_round_trip(tmp_path):
    path = _write_spec(tmp_path, _spec_text(_audit(tmp_path)))
    spec = load_spec(path)
    assert spec == _audit(tmp_path)
    assert spec.name == "audit-check"
    assert spec.kind == "tree-algebra-audit"
    assert spec.seeds == ()
    assert spec.output_dir == tmp_path / "audit-check"
    assert spec.resolved_parameters()["max_leaves"] == 6
    # hash depends only on declared content, not on the output location
    moved = load_spec(path, output_dir=tmp_path / "elsewhere")
    assert moved.spec_hash() == spec.spec_hash()


def test_spec_hash_reads_resolved_parameters(tmp_path):
    """Two spellings of one value hash the same; another value does not."""
    def spec(tolerance):
        return _shipped("c02-kernel-identities", tmp_path, tolerance=tolerance)

    assert spec("1e-08").spec_hash() == spec("1.0e-8").spec_hash()
    assert spec("1e-07").spec_hash() != spec("1e-08").spec_hash()


def test_manifest_records_source_digest(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src" / "gfsb"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert code_version() == digest.hexdigest()
    assert code_version() is code_version()     # computed once
    manifest = run(_audit(tmp_path))
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


@pytest.mark.parametrize("kind", sorted(_STUDIES))
def test_every_schema_key_is_read_by_its_runner(kind):
    """A schema lists exactly the constant keys its runner subscripts on
    ``params`` (nested functions and f-strings included), so a key that
    does nothing is refused, not resolved, hashed and ignored; and a
    runner takes the seed list only when it uses it."""
    runner, schema = _STUDIES[kind]
    tree = ast.parse(inspect.getsource(runner))
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == "params"
            and isinstance(node.slice, ast.Constant)}
    assert read == set(schema)
    args = [arg.arg for arg in tree.body[0].args.args]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert args in (["params"], ["params", "seeds"])
    assert ("seeds" in names) == (len(args) == 2)


@pytest.mark.parametrize("stem, old, new", [
    ("c09-solver-degeneration", "[parameters]",
     "[parameters]\nepsilon = 0.5"),
    ("c10-solver-reconstruction", "[parameters]",
     "[parameters]\nmatch_tol = 5"),
    ("c04-gaussian-moments", "[parameters]", "[parameters]\nreplicas = 7"),
    ("c02-kernel-identities", "[parameters]", "[parameters]\nK = 7"),
    ("c07-mode-summability", "[parameters]", "[parameters]\ntriples = 5"),
    ("c10-solver-reconstruction", "[experiment]",
     "[experiment]\nseeds = 0:8"),
    ("c06-regularity-ladder", "seeds = 0:64\n", ""),
    ("c04-gaussian-moments", "gamma = 1.6", "gamma = 1.6, 2.0"),
], ids=["c09-epsilon", "c10-match_tol", "c04-replicas", "c02-K",
        "c07-triples", "c10-seeds", "c06-no-seeds", "c04-two-gammas"])
def test_load_spec_refuses_what_the_study_would_not_read(
        tmp_path, stem, old, new):
    """Keys, seed lists and values the study would not read, written
    into a shipped spec that loads as it stands."""
    text = (EXPERIMENTS / f"{stem}.spec").read_text()
    assert text.count(old) == 1
    load_spec(_write_spec(tmp_path, text))
    with pytest.raises(ValidationError):
        load_spec(_write_spec(tmp_path, text.replace(old, new)))


def _parameter_lines():
    """(stem, line) for every parameter line of every shipped spec."""
    for path in sorted(EXPERIMENTS.glob("*.spec")):
        _, section = path.read_text().split("[parameters]\n")
        for line in filter(str.strip, section.splitlines()):
            key = line.split("=")[0].strip()
            yield pytest.param(path.stem, line, id=f"{path.stem[:3]}-{key}")


@pytest.mark.parametrize("stem, line", _parameter_lines())
def test_load_spec_refuses_a_missing_parameter(tmp_path, stem, line):
    """A spec writes every number its study reads: without any one of
    its parameter lines it is refused, and the error names the key."""
    text = (EXPERIMENTS / f"{stem}.spec").read_text()
    assert text.count(f"\n{line}\n") == 1
    key = line.split("=")[0].strip()
    with pytest.raises(ValidationError, match=f"needs parameter '{key}'$"):
        load_spec(_write_spec(tmp_path, text.replace(f"\n{line}\n", "\n")))


def _list_keys():
    """(stem, key) for every list parameter of every shipped spec but
    ``u0_modes``, whose empty value is zero initial data."""
    for path in sorted(EXPERIMENTS.glob("*.spec")):
        kind = load_spec(path).kind
        for key, cast in _STUDIES[kind][1].items():
            if cast in (_floats, _ints, _pairs):
                yield pytest.param(path.stem, key,
                                   id=f"{path.stem[:3]}-{key}")


@pytest.mark.parametrize("stem, key", _list_keys())
def test_load_spec_refuses_an_empty_list(tmp_path, stem, key):
    """An empty list would run a study that checks nothing (c03 with
    ``gammas =`` once passed with no assertions); the error names the
    key."""
    text = (EXPERIMENTS / f"{stem}.spec").read_text()
    emptied, count = re.subn(rf"^{key} = .*$", f"{key} =", text,
                             flags=re.MULTILINE)
    assert count == 1
    with pytest.raises(ValidationError,
                       match=f"parameter '{key}': cannot read '': "
                             "the list is empty"):
        load_spec(_write_spec(tmp_path, emptied))


def test_load_spec_takes_empty_initial_modes(tmp_path):
    text = (EXPERIMENTS / "c10-solver-reconstruction.spec").read_text()
    emptied = re.sub(r"^u0_modes = .*$", "u0_modes =", text,
                     flags=re.MULTILINE)
    assert load_spec(_write_spec(tmp_path, emptied)).resolved_parameters()[
        "u0_modes"] == ()


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("GFSB_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("GFSB_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("GFSB_THREADS", "zero")
    with pytest.raises(ValidationError):
        thread_count()


# ---------------------------------------------------------------- running


KINK_CORNER = (0.6250547022243647, 0.34933065455156775, 1.0037050979491693)


def _dblquad_cross(a, b, delta):
    """Oracle for the c02 witness: adaptive dblquad of the same integrand
    over the same three kink-split pieces."""
    def above(v, u):
        return math.exp(-a * u - a * v - b * (delta - u + v))

    near, _ = integrate.dblquad(above, 0.0, delta, 0.0, np.inf,
                                epsabs=1e-12, epsrel=1e-12)
    far, _ = integrate.dblquad(above, delta, np.inf,
                               lambda u: u - delta, np.inf,
                               epsabs=1e-12, epsrel=1e-12)
    lower, _ = integrate.dblquad(
        lambda v, u: math.exp(-a * u - a * v - b * (u - delta - v)),
        delta, np.inf, 0.0, lambda u: u - delta,
        epsabs=1e-12, epsrel=1e-12)
    return near + far + lower


def _tensor_cross(a, b, delta):
    """Oracle for the c02 witness: the same double-exponential nodes as a
    full 129x129 grid on each of the three kink-split pieces, with u in
    [0, delta] for ``near``, v = (u - delta) + s for ``far`` and
    v = (u - delta) r for ``lower``."""
    unit, unit_w, half, half_w = _double_exponential_rule()

    def piece(u, v, weight):
        return float(np.sum(
            weight * np.exp(-a * u - a * v - b * np.abs(delta - u + v))))

    near = piece(delta * unit[:, None], half[None, :],
                 delta * np.outer(unit_w, half_w))
    u = delta + half[:, None]
    rise = u - delta
    far = piece(u, rise + half[None, :], np.outer(half_w, half_w))
    lower = piece(u, rise * unit[None, :], rise * np.outer(half_w, unit_w))
    return near + far + lower


def _c02_triples(seed, count):
    """The first ``count`` (a, b, delta) triples c02 draws from ``seed``."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a, b = np.exp(rng.uniform(-1.5, 2.0, size=2))
        out.append((a, b, rng.uniform(0.0, 2.0)))
    return out


def _c02_seed():
    spec = load_spec(EXPERIMENTS / "c02-kernel-identities.spec")
    return spec.resolved_parameters()["seed"]


def test_cross_quadrature_witness_across_the_kink_corner():
    """The second triple of seed 20013 puts the kink corner u = delta
    where an unsplit outer integral misses the closed form by 3.7e-6."""
    assert _c02_triples(_c02_seed() + 20000, 2)[1] == KINK_CORNER
    assert abs(_cross_quadrature(*KINK_CORNER)
               - exp_cross_integral(*KINK_CORNER)) < 1e-12


def test_cross_quadrature_matches_the_dblquad_oracle():
    for triple in _c02_triples(_c02_seed(), 10) + [KINK_CORNER]:
        assert abs(_cross_quadrature(*triple)
                   - _dblquad_cross(*triple)) < 1e-12, triple


def test_cross_quadrature_matches_the_tensor_grid_oracle():
    """The 1-D products equal the full grids of the same rule: the
    spec's triples, the kink corner, a = b and delta = 0."""
    triples = _c02_triples(_c02_seed(), 50) + [
        KINK_CORNER, (1.3, 1.3, 0.7), (0.8, 2.5, 0.0)]
    for triple in triples:
        grid = _tensor_cross(*triple)
        assert abs(_cross_quadrature(*triple) - grid) <= 1e-13 * grid, triple


def test_cross_quadrature_on_fresh_draws():
    """Twenty fresh c02 seeds of 50 triples each (the spec's seed shifted
    by 1000 n, as the benchmark's fresh draws are)."""
    base = _c02_seed()
    worst = max(
        abs(_cross_quadrature(*t) - exp_cross_integral(*t))
        for n in range(1, 21) for t in _c02_triples(base + 1000 * n, 50))
    assert worst <= 1e-12


def test_run_writes_artifacts_and_summary(tmp_path):
    spec = _audit(tmp_path)
    manifest = run(spec)
    assert manifest.complete
    assert set(manifest.statuses.values()) == {"passed"}
    summary = json.loads((spec.output_dir / "summary.json").read_text())
    assert summary["all_passed"] is True
    assert {a["name"] for a in summary["assertions"]} == set(
        manifest.statuses)
    stored = json.loads((spec.output_dir / "manifest.json").read_text())
    assert stored["spec_hash"] == spec.spec_hash()
    assert stored["peak_rss_mb"] > 0
    assert isinstance(stored["minor_faults"], int)
    assert stored["minor_faults"] >= 0
    assert stored["error"] == {}


def _artifact_hashes(manifest):
    out = {}
    for name, path in manifest.artifacts.items():
        if name != "manifest.json":     # carries wall-clock times
            out[name] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return out


def test_reruns_are_bit_exact_across_parallelism(tmp_path, monkeypatch):
    """regularity-ladder is the one kind that spreads its seeds over the
    GFSB_THREADS pool, so it is the one a reordering there would move."""
    def once(tag, threads):
        monkeypatch.setenv("GFSB_THREADS", threads)
        spec = _shipped("c06-regularity-ladder", tmp_path / tag,
                        seeds=range(3), n_modes="128", dt="5e-4",
                        t_end="0.05", j_hi="6")
        return _artifact_hashes(run(spec))

    assert once("serial", "1") == once("parallel", "2")


def test_failing_assertion_is_reported_not_raised(tmp_path):
    spec = _shipped("c01-decomposition-identities", tmp_path / "strict",
                    seeds=(0,), n_modes="64", tolerance="0",
                    smoothed_probes="1")
    manifest = run(spec)
    assert manifest.complete
    assert "failed" in manifest.statuses.values()


def test_runner_error_becomes_task_failure(tmp_path):
    # Width 2^-5 cannot be resolved on 16 modes.
    spec = _shipped("c11-mollifier-convergence", tmp_path / "eps",
                    seeds=(0,), n_modes="16", t_end="0.05", levels="2,5")
    with pytest.raises(TaskFailure) as exc:
        run(spec)
    partial = exc.value.manifest
    assert partial is not None
    assert partial.statuses == {"run": "error"}
    assert not partial.complete
    stored = json.loads((tmp_path / "eps" / "manifest.json").read_text())
    assert stored["statuses"] == {"run": "error"}
    assert stored["versions"]["numpy"]


def test_failure_manifest_names_the_exception(tmp_path, monkeypatch):
    def boom(params):
        raise RuntimeError("slab 3 diverged")

    _, schema = _STUDIES["tree-algebra-audit"]
    monkeypatch.setitem(_STUDIES, "tree-algebra-audit", (boom, schema))
    spec = _audit(tmp_path)
    with pytest.raises(TaskFailure):
        run(spec)
    stored = json.loads((spec.output_dir / "manifest.json").read_text())
    assert stored["statuses"] == {"run": "error"}
    assert stored["error"] == {"type": "RuntimeError",
                               "message": "slab 3 diverged"}
    assert stored["peak_rss_mb"] > 0


def test_a_study_with_no_assertions_fails(tmp_path, monkeypatch):
    _, schema = _STUDIES["tree-algebra-audit"]
    monkeypatch.setitem(_STUDIES, "tree-algebra-audit",
                        (lambda params: {"assertions": []}, schema))
    spec = _audit(tmp_path)
    with pytest.raises(TaskFailure, match="made no assertions"):
        run(spec)
    stored = json.loads((spec.output_dir / "manifest.json").read_text())
    assert stored["statuses"] == {"run": "error"}
    assert not (spec.output_dir / "summary.json").exists()
    result = CliRunner().invoke(main, ["run", str(_write_spec(
        tmp_path, _spec_text(spec)))])
    assert result.exit_code == 2, result.output


class _Libc:
    """A C library whose mallopt records its calls."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def test_heap_policy_sets_both_thresholds(monkeypatch):
    """M_MMAP_THRESHOLD (-3) at 32 MiB and M_TRIM_THRESHOLD (-1) at
    twice that: setting only one leaves glibc's dynamic rule off with
    the other at its default."""
    import ctypes
    libc = _Libc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    _keep_freed_memory.__wrapped__()
    assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_heap_policy_without_mallopt_does_nothing(monkeypatch):
    import ctypes
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert _keep_freed_memory.__wrapped__() is None


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
    spec = _shipped("c11-mollifier-convergence", tmp_path / "eps",
                    seeds=(0,), n_modes="2", t_end="0.05", levels="1,2",
                    u0_modes="0.1, 0.2j, 0.3")
    with pytest.raises(ValidationError, match="3 values for 2 modes"):
        run(spec)


def test_summability_cutoff_below_64_is_refused(tmp_path):
    spec = _shipped("c07-mode-summability", tmp_path / "sum",
                    K="32", a_max="4")
    with pytest.raises(TaskFailure, match="cutoff must be >= 64"):
        run(spec)


# -------------------------------------------------------------- plot data


def test_plot_data_per_symbol(tmp_path):
    spec = _shipped("c06-regularity-ladder", tmp_path / "lad", seeds=(0,),
                    n_modes="128", dt="5e-4", t_end="0.05", j_hi="6")
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
# Mittag-Leffler series, c02 the kernel closed forms and their
# quadrature witness, and c07 the cross-pair sums and their
# hypergeometric tail; they too run on numpy alone.
STUDY_PROBE = """\
import sys
from pathlib import Path
from gfsb.harness import load_spec, run
for stem in ("c02-kernel-identities", "c07-mode-summability",
             "c09-solver-degeneration", "c12-dependence-envelope"):
    spec = load_spec(Path(sys.argv[1]) / (stem + ".spec"),
                     Path(sys.argv[2]) / stem)
    assert all(a["passed"] for a in run(spec).assertions), stem
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


# c10 at the reconstruction workload's shape, run twice in one process:
# the heap keeps what the first run freed, so the second faults in
# almost no fresh pages (about 6600 when glibc trimmed after each free).
FAULT_PROBE = """\
import dataclasses, json, sys
from pathlib import Path
from gfsb.harness import load_spec, run
spec = load_spec(sys.argv[1], sys.argv[2])
spec = dataclasses.replace(spec, parameters={
    **spec.parameters, "n_modes": "128", "dt": "4e-4", "t_end": "0.02"})
for _ in range(2):
    assert all(a["passed"] for a in run(spec).assertions)
print(json.loads((Path(sys.argv[2]) / "manifest.json").read_text())[
    "minor_faults"])
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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is glibc's mallopt")
def test_a_rerun_faults_in_few_pages(tmp_path):
    spec = EXPERIMENTS / "c10-solver-reconstruction.spec"
    assert int(_probe(FAULT_PROBE, spec, tmp_path)) < 500


def test_no_module_imports_scipy():
    # every import statement, at any depth (a lazy import sits inside a
    # function); scipy is a test-only oracle
    found = []
    for path in sorted((ROOT / "src" / "gfsb").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_readme_shows_every_command():
    """README's command-line block runs each gfsb subcommand, and no
    other, so a command added or deleted without its doc fails here."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    shown = set(re.findall(r"^gfsb ([\w-]+)", block, flags=re.M))
    assert shown == set(main.commands)


def test_cli_run_spec_exit_codes(tmp_path):
    ok = _write_spec(tmp_path, _spec_text(_audit(tmp_path)))
    result = CliRunner().invoke(main, ["run", str(ok)])
    assert result.exit_code == 0, result.output

    bad = _write_spec(tmp_path, _spec_text(_shipped(
        "c01-decomposition-identities", tmp_path / "c01", seeds=(0,),
        n_modes="64", tolerance="0", smoothed_probes="1")))
    result = CliRunner().invoke(main, ["run", str(bad)])
    assert result.exit_code == 1
    assert "[FAIL]" in result.output


def test_cli_run_writes_each_spec_under_its_name(tmp_path):
    """``--out DIR`` puts a study under DIR/<spec name>, as the spec's
    ``output`` key does, so two studies run into one DIR keep apart."""
    out = tmp_path / "runs"
    for name in ("audit-one", "audit-two"):
        spec = _write_spec(tmp_path, _spec_text(dataclasses.replace(
            _audit(tmp_path / "unused"), name=name)))
        result = CliRunner().invoke(main, ["run", str(spec), "--out",
                                           str(out)])
        assert result.exit_code == 0, result.output
    for name in ("audit-one", "audit-two"):
        summary = json.loads((out / name / "summary.json").read_text())
        assert summary["name"] == name
    assert not (tmp_path / "unused").exists()


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
    run(_shipped("c11-mollifier-convergence", tmp_path / "eps", seeds=(0,),
                 n_modes="16", t_end="0.05", levels="2,3"))
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


# Every key of a gfsb solve config, as README's solve.cfg writes them
SOLVE_CFG = {
    "gamma": "1.75", "beta": "0.5", "epsilon": "0.0", "n_modes": "64",
    "dt": "1e-3", "t_end": "0.1", "seed": "0", "tol": "1e-9",
    "alpha": "-0.2", "b": "0.5", "noise_scale": "1.0", "u0_modes": "",
    "coeff_n": "1.0", "coeff_lr": "1.0", "coeff_rLlr": "2.0",
}


def _solve_cfg(path, **keys):
    """A solve config with ``keys`` in place of SOLVE_CFG's values; a
    key given as None is left out."""
    merged = {**SOLVE_CFG, **keys}
    path.write_text("".join(f"{key} = {value}\n"
                            for key, value in merged.items()
                            if value is not None))
    return path


def test_cli_solve_direct_and_structured(tmp_path):
    cfg = _solve_cfg(tmp_path / "solve.cfg", gamma="2.0", n_modes="16",
                     t_end="0.05", seed="3", u0_modes="0.05-0.01j, 0.02j")
    result = CliRunner().invoke(
        main, ["solve", "--mode", "direct", "--config", str(cfg),
               "--out", str(tmp_path / "runs")])
    assert result.exit_code == 0, result.output
    diag = json.loads(
        (tmp_path / "runs" / "direct" / "diagnostics.json").read_text())
    assert "mild_residual" in diag

    cfg2 = _solve_cfg(tmp_path / "solve2.cfg", n_modes="32", t_end="0.05",
                      seed="3", epsilon="0.125")
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

    bad = _solve_cfg(tmp_path / "bad.cfg", gamma="2.0", what="1")
    result = CliRunner().invoke(
        main, ["solve", "--mode", "direct", "--config", str(bad)])
    assert result.exit_code != 0


def test_cli_solve_config_missing_a_key_is_a_usage_error(tmp_path):
    cfg = _solve_cfg(tmp_path / "solve.cfg", noise_scale=None)
    result = CliRunner().invoke(
        main, ["solve", "--mode", "direct", "--config", str(cfg),
               "--out", str(tmp_path / "runs")])
    assert result.exit_code == 2, result.output
    assert "needs parameter 'noise_scale'" in result.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("line, says", [
    ("n_modes = 4\nu0_modes = 0.1, 0.2, 0.3, 0.4, 0.5\n", "u0_modes"),
    ("u0_modes = 1+zz\n", "u0_modes"),
    ("b = 0\n", "b must be positive"),
])
def test_cli_solve_bad_config_is_a_usage_error(tmp_path, line, says):
    cfg = _solve_cfg(tmp_path / "solve.cfg", gamma="2.0", t_end="0.01",
                     **dict(entry.split(" = ") for entry in line.splitlines()))
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
