"""Experiment orchestration: key=value study specs in, artifacts out.

A study lives in a small text file with one metadata section and one
parameter section.  Each kind has its own schema, mapping exactly the
parameters its study reads to their types; the spec writes every one of
them, so the file holds all of a study's numbers.  The three kinds that
loop over seeds take a seed list, and every other kind draws from its
``seed`` parameter or from nothing.  Running a spec writes CSV/JSON
artifacts atomically (write-temp-then-rename) and returns a manifest.
Identical specs reproduce the numeric artifacts byte for byte; only
regularity-ladder spreads its seeds over the GFSB_THREADS workers, and
its artifacts do not depend on how many there are.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import csv
import json
import math
import os
import platform
import resource
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .besov import (
    DyadicPartition,
    TimeMollifierBank,
    _partition_weights,
    _read_sups,
    bony_decomposition,
    lp_block,
    modified_paraproduct,
    paraproduct_lower,
    sobolev_norms,
)
from .construct import build_tree_family, duhamel_scan, bilinear_forcing
from .errors import IncompleteManifest, TaskFailure, ValidationError
from .kernels import (
    exp_cross_integral,
    exp_difference_bound,
    five_exp_bound,
    five_exp_increment_bound,
    mode_packaging_bound,
    ou_covariance,
    ou_pair_covariance,
    power_law_exponent,
    quadratic_tree_covariance,
    segment_exp_bound,
    smoothed_cross_bound,
    uniform_cross_pair_sup,
    wick_report,
)
from .noise import NoiseConfig, sample_Y, sample_Y_ensemble
from .solver import (
    build_enhanced_data,
    dependence_ladder,
    epsilon_convergence_study,
    mittag_leffler,
    solve_mollified,
    solve_paracontrolled,
    solve_subcritical,
    zero_enhanced_data,
)
from .spectral import FourierField, Grid, flow_constants, pointwise_product
from .trajectory import Trajectory
from .trees import RegularityParams, parse_symbol, regular_set, verify_regularity_floor


def thread_count() -> int:
    """Worker cap: GFSB_THREADS if set, else single-threaded."""
    raw = os.environ.get("GFSB_THREADS", "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValidationError(f"GFSB_THREADS must be an integer, got {raw!r}") from exc
    return max(1, n)


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@lru_cache(maxsize=None)
def _keep_freed_memory() -> None:
    """Keep freed arrays with the process, once per process.

    glibc trims the heap top after each free and mmaps every block above
    its threshold afresh, so every later array faults its pages back in.
    The mmap threshold is set to 32 MiB, the ceiling glibc's own dynamic
    rule can reach, and the trim threshold to twice that, as the rule
    sets it.  Both are set: setting either switches the dynamic rule
    off, and trim alone leaves every block above 128 KiB mmapped.  Does
    nothing when the C library has no ``mallopt``."""
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _seed_map(fn, seeds):
    """Apply fn to every seed, gathering results in seed order (so the
    reduction below is identical however many workers ran)."""
    seeds = list(seeds)
    n = thread_count()
    if n <= 1 or len(seeds) <= 1:
        return [fn(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=min(n, len(seeds))) as pool:
        return list(pool.map(fn, seeds))


# ------------------------------------------------------------ spec files


def _parse_seed_list(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo_s, hi_s = part.split(":", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError as exc:
                raise ValidationError(f"bad seed range {part!r}") from exc
            if hi <= lo:
                raise ValidationError(f"empty seed range {part!r}")
            out.extend(range(lo, hi))
        else:
            try:
                out.append(int(part))
            except ValueError as exc:
                raise ValidationError(f"bad seed {part!r}") from exc
    return tuple(out)


def _nonempty(values: tuple) -> tuple:
    """A study's list is what it checks: an empty one is refused."""
    if not values:
        raise ValueError("the list is empty")
    return values


def _floats(text: str):
    return _nonempty(tuple(float(x) for x in text.split(",") if x.strip()))


def _ints(text: str):
    return _nonempty(tuple(int(x) for x in text.split(",") if x.strip()))


def _complexes(text: str):
    """May be empty: an empty ``u0_modes`` is zero initial data."""
    return tuple(complex(x.strip().replace(" ", "")) for x in text.split(",")
                 if x.strip())


def _pairs(text: str):
    """"-0.2:0.5, -0.1:0.6" -> ((-0.2, 0.5), (-0.1, 0.6))."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        a, b = part.split(":", 1)
        out.append((float(a), float(b)))
    return _nonempty(tuple(out))


def _resolve_parameters(schema: dict, parameters: dict, owner: str) -> dict:
    """Cast the string values against ``schema`` (name -> cast); a name
    outside it, a name it lists that ``parameters`` lacks, or an
    unreadable value raises ValidationError."""
    out = {}
    for key, raw in parameters.items():
        if key not in schema:
            raise ValidationError(f"unknown parameter {key!r} for {owner}")
        try:
            out[key] = schema[key](raw)
        except (ValueError, TypeError) as exc:
            raise ValidationError(
                f"parameter {key!r}: cannot read {raw!r}: {exc}") from exc
    missing = [key for key in schema if key not in out]
    if missing:
        raise ValidationError(f"{owner} needs parameter "
                              f"{', '.join(map(repr, missing))}")
    return out


@dataclass(frozen=True)
class ExperimentSpec:
    """One study: its kind, every parameter the kind reads (as the raw
    strings of the spec file), and its seed list."""

    name: str
    kind: str
    parameters: dict
    seeds: tuple
    output_dir: Path

    def __post_init__(self):
        if self.kind not in _STUDIES:
            raise ValidationError(f"unknown study kind {self.kind!r}; "
                                  f"expected one of {tuple(_STUDIES)}")
        if not self.name or not all(c.isalnum() or c in "._-" for c in self.name):
            raise ValidationError(
                f"study name {self.name!r} must be a nonempty filesystem-safe token")
        # a runner that reads the seed list takes it: runner(params, seeds)
        seeded = _STUDIES[self.kind][0].__code__.co_argcount == 2
        if seeded != bool(self.seeds):
            raise ValidationError(f"kind {self.kind!r} " + (
                "needs a nonempty seed list" if seeded
                else "reads no seed list; drop 'seeds'"))

    def resolved_parameters(self) -> dict:
        """Parameters cast against the kind's schema."""
        return _resolve_parameters(_STUDIES[self.kind][1], self.parameters,
                                   f"kind {self.kind!r}")

    def spec_hash(self) -> str:
        """Hash of what the study runs, read from the resolved
        parameters: two spellings of one value (1e-08, 1.0e-8) hash the
        same."""
        params = self.resolved_parameters()
        payload = json.dumps(
            {"name": self.name, "kind": self.kind,
             "parameters": {k: repr(v) for k, v in sorted(params.items())},
             "seeds": list(self.seeds)},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def load_spec(path, output_dir=None) -> ExperimentSpec:
    """Read a study spec file (INI-style: [experiment] + [parameters])."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str        # parameter names are case-sensitive
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ValidationError(f"cannot read spec {path}: {exc}") from exc
    if "experiment" not in parser:
        raise ValidationError(f"spec {path} lacks an [experiment] section")
    meta = parser["experiment"]
    for key in meta:
        if key not in ("name", "kind", "seeds", "output"):
            raise ValidationError(f"unknown [experiment] key {key!r}")
    name = meta.get("name", "")
    kind = meta.get("kind", "")
    seeds = _parse_seed_list(meta.get("seeds", ""))
    if output_dir is None:
        output_dir = Path(meta.get("output", "runs")) / name
    params = dict(parser["parameters"]) if "parameters" in parser else {}
    spec = ExperimentSpec(name=name, kind=kind, parameters=params,
                          seeds=seeds, output_dir=Path(output_dir))
    spec.resolved_parameters()  # validate before execution
    return spec


# ------------------------------------------------------------- manifests


_CODE_VERSION = None


def code_version() -> str:
    """sha256 over the package's module sources, read once per process."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        digest = hashlib.sha256()
        for path in sorted(Path(__file__).parent.glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


def _minor_faults() -> int:
    """The process's minor page faults so far: the manifest records
    those since its run began, when it is written."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclass
class RunManifest:
    """What a run produced: statuses, artifact paths, timings."""

    spec_hash: str
    code_version: str
    statuses: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    wall_times: dict = field(default_factory=dict)
    assertions: list = field(default_factory=list)
    versions: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    error: dict = field(default_factory=dict)
    # the process's minor faults when the run began
    faults_before: int = field(init=False, default_factory=_minor_faults)

    @property
    def complete(self) -> bool:
        if not self.statuses:
            return False
        if any(v not in ("passed", "failed") for v in self.statuses.values()):
            return False
        return all(Path(p).exists() for p in self.artifacts.values())

    def to_json(self) -> dict:
        return {"spec_hash": self.spec_hash,
                "code_version": self.code_version,
                "statuses": dict(sorted(self.statuses.items())),
                "artifacts": {k: str(v) for k, v in sorted(self.artifacts.items())},
                "wall_times": self.wall_times,
                "assertions": self.assertions,
                "versions": self.versions,
                "warnings": self.warnings,
                "error": self.error,
                "peak_rss_mb": _peak_rss_mb(),
                "minor_faults": _minor_faults() - self.faults_before}


def _peak_rss_mb() -> float:
    """The process's peak resident set so far (ru_maxrss is KiB on
    Linux), read when the manifest is written."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _versions() -> dict:
    """Python and numpy versions: bit-identity claims hold per pocketfft
    build."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def _warning_records(caught) -> list:
    return [{"category": w.category.__name__, "message": str(w.message),
             "source": f"{Path(w.filename).name}:{w.lineno}"}
            for w in caught if issubclass(w.category, UserWarning)]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _atomic_write(path, buf.getvalue())


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2,
                                   default=_json_default) + "\n")


def run(spec: ExperimentSpec) -> RunManifest:
    """Execute one study: artifacts + summary under spec.output_dir."""
    _keep_freed_memory()
    params = spec.resolved_parameters()
    runner, _ = _STUDIES[spec.kind]
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(spec_hash=spec.spec_hash(),
                           code_version=code_version())
    start = time.perf_counter()
    try:
        # validity warnings go in the manifest whatever the caller's
        # filters say; each distinct one is recorded once per run
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default", UserWarning)
            result = (runner(params, spec.seeds) if spec.seeds
                      else runner(params))
        if not result["assertions"]:
            raise RuntimeError("the study made no assertions")
    except ValidationError:
        raise
    except Exception as exc:
        manifest.statuses["run"] = "error"
        manifest.error = {"type": type(exc).__name__, "message": str(exc)}
        manifest.versions = _versions()
        manifest.warnings = _warning_records(caught)
        _write_json(out_dir / "manifest.json", manifest.to_json())
        raise TaskFailure(f"study {spec.name!r} failed: {exc}",
                          manifest=manifest) from exc
    finally:
        # shown again under the caller's filters, as if never caught
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno, source=w.source)
    manifest.wall_times["run"] = round(time.perf_counter() - start, 3)
    manifest.versions = _versions()
    manifest.warnings = _warning_records(caught)

    for name, (header, rows) in result.get("tables", {}).items():
        path = out_dir / name
        _write_csv(path, header, rows)
        manifest.artifacts[name] = str(path)
    for name, obj in result.get("reports", {}).items():
        path = out_dir / name
        _write_json(path, obj)
        manifest.artifacts[name] = str(path)

    for entry in result["assertions"]:
        manifest.statuses[entry["name"]] = "passed" if entry["passed"] else "failed"
    manifest.assertions = result["assertions"]
    summary = {"name": spec.name, "kind": spec.kind,
               "assertions": result["assertions"],
               "all_passed": all(a["passed"] for a in result["assertions"])}
    _write_json(out_dir / "summary.json", summary)
    manifest.artifacts["summary.json"] = str(out_dir / "summary.json")
    _write_json(out_dir / "manifest.json", manifest.to_json())
    return manifest


# Two-column extraction rules for plot-ready files: source table ->
# (output prefix, optional group column, x column, y column).
_PLOT_RULES = {
    "block_norms.csv": [("ladder", "symbol", "j", "log2_mean")],
    "cauchy_table.csv": [("cauchy", "series", "rung", "median")],
    "ladder.csv": [("dependence", None, "size", "difference")],
    "partial_sums.csv": [("uniformity", None, "a", "completed")],
}


def emit_plot_data(manifest: RunManifest):
    """Write plot-ready two-column CSVs (header x,y; one file per group)
    next to the tables they come from."""
    if not manifest.complete:
        raise IncompleteManifest("manifest has missing statuses or artifacts")
    written = []
    for name, path in manifest.artifacts.items():
        for prefix, group_col, x_col, y_col in _PLOT_RULES.get(name, []):
            path = Path(path)
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            groups = {}
            for row in rows:
                key = row[group_col] if group_col else ""
                groups.setdefault(key, []).append((row[x_col], row[y_col]))
            for key, pairs in groups.items():
                out_name = f"{prefix}_{key}.csv" if key else f"{prefix}.csv"
                out_path = path.parent / out_name
                buf = io.StringIO()
                writer = csv.writer(buf, lineterminator="\n")
                writer.writerow([x_col, y_col])
                writer.writerows(pairs)
                _atomic_write(out_path, buf.getvalue())
                written.append(out_path)
    return written


def _assertion(name, passed, value, bound, detail="") -> dict:
    return {"name": name, "passed": bool(passed), "value": float(value),
            "bound": bound, "detail": detail}


# ------------------------------------------------- study: identity suite


def _run_identity_suite(params, seeds):
    n = params["n_modes"]
    tol = params["tolerance"]
    grid = Grid(n_modes=n, gamma=2.0)
    part = DyadicPartition(n)
    rows = []
    worst_bony = 0.0
    worst_part = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        f = FourierField(rng.normal(size=n) + 1j * rng.normal(size=n), grid)
        g = FourierField(rng.normal(size=n) + 1j * rng.normal(size=n), grid)
        lower, res, upper = bony_decomposition(f, g)
        prod = pointwise_product(f, g)
        bony_err = float(np.max(np.abs(
            lower.modes + res.modes + upper.modes - prod.modes)))
        total = np.zeros(n, dtype=np.complex128)
        for j in range(-1, part.j_max + 1):
            total += lp_block(f, j).modes
        part_err = float(np.max(np.abs(total - f.modes)))
        rows.append((seed, bony_err, part_err))
        worst_bony = max(worst_bony, bony_err)
        worst_part = max(worst_part, part_err)

    # Time-smoothed lower paraproduct with a constant left factor must
    # collapse to the plain one at every node.
    worst_smooth = 0.0
    n_small = params["smoothed_n_modes"]
    nodes = params["smoothed_nodes"]
    small = Grid(n_modes=n_small, gamma=1.75)
    bank = TimeMollifierBank(dt=0.01, gamma=1.75)
    times = 0.01 * np.arange(nodes)
    for probe in range(params["smoothed_probes"]):
        rng = np.random.default_rng(10_000 + probe)
        left = rng.normal(size=n_small) + 1j * rng.normal(size=n_small)
        right = (rng.normal(size=(nodes, n_small))
                 + 1j * rng.normal(size=(nodes, n_small)))
        f_traj = Trajectory(times, np.broadcast_to(left, (nodes, n_small)),
                            small)
        g_traj = Trajectory(times, right, small)
        smoothed = modified_paraproduct(f_traj, g_traj, bank)
        for node in range(nodes):
            plain = paraproduct_lower(
                FourierField(left, small),
                FourierField(right[node], small))
            worst_smooth = max(worst_smooth, float(np.max(np.abs(
                smoothed.modes[node] - plain.modes))))
    return {
        "assertions": [
            _assertion("bony-identity", worst_bony < tol, worst_bony, tol,
                       "max |f.g - (lower + resonant + upper)| over fields"),
            _assertion("lp-partition", worst_part < tol, worst_part, tol,
                       "max |sum of blocks - f| over fields"),
            _assertion("smoothed-reduces-to-plain", worst_smooth < tol,
                       worst_smooth, tol,
                       "time-constant left factor: smoothed == plain"),
        ],
        "tables": {"identity_errors.csv":
                   (("seed", "bony_error", "partition_error"), rows)},
    }


# ---------------------- studies: noise covariance, wick and tree moments


def _run_ou_covariance(params):
    nodes = params["nodes"]
    dt = params["dt"]
    R = params["samples"]
    se_factor = params["se_factor"]
    rows = []
    assertions = []
    for gamma in params["gammas"]:
        grid = Grid(n_modes=params["n_modes"], gamma=gamma)
        cfg = NoiseConfig(gamma=gamma, epsilon=0.0, seed=params["seed"],
                          dt=dt, t_end=dt * (nodes - 1))
        ens = sample_Y_ensemble(cfg, grid, range(R))
        passed = 0
        total = 0
        for k in params["wavenumbers"]:
            z = ens[:, :, k - 1]
            for a in range(nodes):
                for b in range(nodes):
                    prod = z[:, a] * np.conj(z[:, b])
                    mean = complex(np.mean(prod))
                    theory = ou_covariance(k, a * dt, b * dt, cfg)
                    se = float(np.sqrt(np.mean(np.abs(prod - mean) ** 2) / R))
                    dev = abs(mean - theory)
                    ok = dev < se_factor * se
                    passed += ok
                    total += 1
                    rows.append((gamma, k, a * dt, b * dt, theory,
                                 mean.real, mean.imag, se, dev / se, ok))
        frac = passed / total
        assertions.append(_assertion(
            f"ou-fraction-g{gamma:g}", frac >= params["min_fraction"],
            frac, params["min_fraction"],
            f"fraction of (k, t, s) cells within {se_factor:g} SE"))
    return {
        "assertions": assertions,
        "tables": {"covariance_cells.csv":
                   (("gamma", "k", "t", "s", "analytic", "empirical_re",
                     "empirical_im", "se", "z", "within"), rows)},
    }


# The three admissible couplings of the six-point moment
# E[Y_k(t) Y_l(s) Y_m(s) Y_k'(t') Y_l'(s') Y_m'(s')]: straight legs,
# swapped outer legs, and internally paired triples.
_SIX_POINT_CASES = (
    ("P1", (1, 2, 3), (-1, -2, -3), ((0, 3), (1, 4), (2, 5))),
    ("P2", (1, 2, 3), (-2, -1, -3), ((0, 4), (1, 3), (2, 5))),
    ("P3", (1, -1, 3), (2, -2, -3), ((0, 1), (3, 4), (2, 5))),
)


def _run_wick_moments(params):
    gamma = params["gamma"]
    grid = Grid(n_modes=params["n_modes"], gamma=gamma)
    dt = params["dt"]
    cfg = NoiseConfig(gamma=gamma, epsilon=0.0, seed=params["seed"],
                      dt=dt, t_end=dt)
    R = params["samples"]
    se_factor = params["se_factor"]
    ens = sample_Y_ensemble(cfg, grid, range(R))[:, 0, :]
    cov = ou_pair_covariance(cfg)

    prod4 = np.real(ens[:, 0] * np.conj(ens[:, 0])
                    * ens[:, 1] * np.conj(ens[:, 1]))
    want4 = wick_report([(1, 0.0), (-1, 0.0), (2, 0.0), (-2, 0.0)], cov).total
    se4 = float(prod4.std(ddof=1) / math.sqrt(R))
    z4 = abs(float(prod4.mean()) - want4) / se4

    prod6 = prod4 * np.real(ens[:, 2] * np.conj(ens[:, 2]))
    want6 = wick_report([(1, 0.0), (-1, 0.0), (2, 0.0), (-2, 0.0),
                         (3, 0.0), (-3, 0.0)], cov).total
    se6 = float(prod6.std(ddof=1) / math.sqrt(R))
    z6 = abs(float(prod6.mean()) - want6) / se6

    # Exact pairing structure: each admissible partner triple leaves
    # exactly one surviving matching -- its own scheme -- and the value
    # factorizes into the three leg covariances.
    t, s, tp, sp = 0.3, 0.1, 0.25, 0.0
    structure_ok = True
    scheme_rows = []
    for label, head, partner, scheme in _SIX_POINT_CASES:
        factors = [(head[0], t), (head[1], s), (head[2], s),
                   (partner[0], tp), (partner[1], sp), (partner[2], sp)]
        rep = wick_report(factors, cov)
        survivors = [(m, v) for m, v in rep.pairings if v != 0.0]
        ok = len(survivors) == 1 and set(survivors[0][0]) == set(scheme)
        if ok:
            # Rebuild the product over the matching in its stored order,
            # so equality with the report is exact, not up to rounding.
            closed = 1.0
            for i, j in survivors[0][0]:
                closed *= cov(factors[i], factors[j])
            ok = rep.total == closed
        structure_ok &= ok
        scheme_rows.append((label, str(head), str(partner), rep.total, ok))
    null = wick_report([(1, t), (2, s), (3, s), (-1, tp), (-2, sp), (3, sp)],
                       cov)
    structure_ok &= (null.total == 0.0 and not null.surviving)

    return {
        "assertions": [
            _assertion("wick-4th-moment", z4 < se_factor, z4, se_factor,
                       "z-score of the 4th mixed moment"),
            _assertion("wick-6th-moment", z6 < se_factor, z6, se_factor,
                       "z-score of the 6th mixed moment"),
            _assertion("wick-pairing-structure", structure_ok,
                       float(structure_ok), 1,
                       "each admissible six-point coupling survives alone"),
        ],
        "tables": {"moments.csv":
                   (("moment", "analytic", "empirical", "se", "z"),
                    [("fourth", want4, float(prod4.mean()), se4, z4),
                     ("sixth", want6, float(prod6.mean()), se6, z6)]),
                   "pairings.csv":
                   (("scheme", "modes", "partner", "value", "exact"),
                    scheme_rows)},
    }


def _run_tree_moments(params):
    dt = params["dt"]
    burn = params["burn"]
    R = params["replicas"]
    n = params["n_modes"]
    se_factor = params["se_factor"]
    assertions = []
    rows = []
    for gamma in params["gammas"]:
        grid = Grid(n_modes=n, gamma=gamma)
        cfg = NoiseConfig(gamma=gamma, epsilon=0.0, seed=params["seed"],
                          dt=dt, t_end=burn)
        rates, decay, weight = flow_constants(grid, dt)
        ends = np.empty((R, n), dtype=np.complex128)
        done = 0
        while done < R:
            span = min(500, R - done)
            y = sample_Y_ensemble(cfg, grid, range(done, done + span))
            g = bilinear_forcing(y, y, grid)
            f = duhamel_scan(g, decay, weight, init=g[:, 0, :] / rates)
            ends[done:done + span] = f[:, -1, :]
            done += span
        for k in params["wavenumbers"]:
            samples = np.abs(ends[:, k - 1]) ** 2
            want = quadratic_tree_covariance(k, 0.0, 0.0, cfg, n)
            se = float(samples.std(ddof=1) / math.sqrt(R))
            z = abs(float(samples.mean()) - want) / se
            rows.append((gamma, k, want, float(samples.mean()), se, z))
            assertions.append(_assertion(
                f"tree-moment-g{gamma:g}-k{k}", z < se_factor, z, se_factor,
                "z-score of the stationary second moment"))
    return {
        "assertions": assertions,
        "tables": {"tree_moments.csv":
                   (("gamma", "k", "analytic", "empirical", "se", "z"), rows)},
    }


# -------------------------------------------- study: regularity ladder


def _band_window_sups(modes, n_modes, js):
    """Sup over (time, space) of each dyadic block; every block is read
    on a uniform grid at 8x its own bandwidth (the grids nest, so the
    relative oversampling is the same for every block), through the
    solver norm's reader ``besov._read_sups``."""
    _, w = _partition_weights(n_modes)
    out = []
    for j in js:
        row = w[j + 1]
        hi = int(np.nonzero(row)[0][-1]) + 1
        n_phys = 1 << max(4, int(np.ceil(np.log2(8 * hi))))
        sups = _read_sups(lambda sl: modes[sl, :hi] * row[:hi],
                          np.empty(modes.shape[0]), n_phys)
        out.append(float(np.max(sups)))
    return np.array(out)


def _run_regularity_ladder(params, seeds):
    gamma = params["gamma"]
    n = params["n_modes"]
    grid = Grid(n_modes=n, gamma=gamma)
    js = np.arange(params["j_lo"], params["j_hi"] + 1)
    if len(js) < 4:
        raise ValidationError("need at least 4 blocks for an exponent fit")

    def one(seed):
        cfg = NoiseConfig(gamma=gamma, epsilon=0.0, seed=seed,
                          dt=params["dt"], t_end=params["t_end"])
        fam = build_tree_family(sample_Y(cfg, grid))
        return {key: _band_window_sups(tree.modes, n, js)
                for key, tree in fam.items()}

    per_seed = _seed_map(one, seeds)
    exponents = {}
    rows = []
    for key in ("n", "lr", "rLlr"):
        mean = np.mean([r[key] for r in per_seed], axis=0)
        slope = float(np.polyfit(js, np.log2(mean), 1)[0])
        exponents[key] = -slope
        for j, m in zip(js, mean):
            rows.append((key, int(j), float(m), float(np.log2(m))))
    floors = {"n": params["floor_n"], "lr": params["floor_lr"],
              "rLlr": params["floor_rLlr"]}
    assertions = [
        _assertion(f"exponent-{key}", exponents[key] >= floors[key],
                   exponents[key], floors[key],
                   "fitted block-norm exponent (mean sup over the window)")
        for key in ("n", "lr", "rLlr")]
    ordered = exponents["n"] < exponents["lr"] < exponents["rLlr"]
    assertions.append(_assertion(
        "exponent-ordering", ordered, exponents["rLlr"] - exponents["n"],
        "strict", "each integration gains regularity"))
    return {
        "assertions": assertions,
        "tables": {"block_norms.csv":
                   (("symbol", "j", "mean_sup", "log2_mean"), rows)},
        "reports": {"exponents.json": exponents},
    }


# ------------------------------------------- study: epsilon convergence


def _u0_field(values, grid) -> FourierField:
    """Initial field whose lowest modes take ``values``, in order."""
    if len(values) > grid.n_modes:
        raise ValidationError(
            f"u0_modes holds {len(values)} values for {grid.n_modes} modes")
    modes = np.zeros(grid.n_modes, dtype=np.complex128)
    modes[:len(values)] = values
    return FourierField(modes, grid)


def _run_eps_convergence(params, seeds):
    gamma = params["gamma"]
    grid = Grid(n_modes=params["n_modes"], gamma=gamma)
    configs = [NoiseConfig(gamma=gamma, epsilon=2.0 ** -m, seed=0,
                           dt=params["dt"], t_end=params["t_end"])
               for m in params["levels"]]
    u0 = _u0_field(params["u0_modes"], grid)
    report = epsilon_convergence_study(configs, list(seeds), u0,
                                       exponent=params["exponent"])

    def monotone(medians):
        return all(b < a for a, b in zip(medians, medians[1:]))

    def worst_ratio(medians):
        # A two-rung ladder has a single gap and nothing to compare.
        pairs = [b / a for a, b in zip(medians, medians[1:])]
        return max(pairs) if pairs else 0.0

    # Rung m is the Cauchy gap between widths 2^-levels[m], 2^-levels[m+1];
    # medians carry one entry per gap.
    levels = params["levels"]
    rows = []
    series = {"solution": report["solution"], **report["trees"]}
    for name, summary in series.items():
        for m, med in enumerate(summary["medians"]):
            ratio = summary["rung_ratios"][m - 1] if m > 0 else ""
            rows.append((name, m, f"{levels[m]}to{levels[m + 1]}",
                         med, ratio))
    y_ratios = report["trees"]["n"]["rung_ratios"]
    assertions = [
        _assertion("solution-monotone",
                   monotone(report["solution"]["medians"]),
                   worst_ratio(report["solution"]["medians"]), 1.0,
                   "median Cauchy differences decrease at every rung")]
    for key in ("n", "lr", "rLlr"):
        med = report["trees"][key]["medians"]
        assertions.append(_assertion(
            f"{key}-monotone", monotone(med), worst_ratio(med), 1.0,
            "median rung ratios stay below one"))
    for key in ("lr", "rLlr"):
        ratios = report["trees"][key]["rung_ratios"]
        rel = [r / y for r, y in zip(ratios, y_ratios)]
        assertions.append(_assertion(
            f"{key}-faster-than-generator", all(x < 1.0 for x in rel),
            max(rel) if rel else 0.0, 1.0,
            "tree rung ratios sit below the generator's"))
    return {
        "assertions": assertions,
        "tables": {"cauchy_table.csv":
                   (("series", "rung", "level", "median", "ratio"), rows)},
        "reports": {"eps_study.json": {
            "epsilons": report["epsilons"], "seeds": list(seeds),
            "solution": report["solution"],
            "trees": {k: v for k, v in report["trees"].items()}}},
    }


# ----------------------- studies: solver degeneration, reconstruction


def _ct_norm(modes, grid, s):
    return float(np.max(sobolev_norms(modes, grid, s)))


def _run_solver_degeneration(params):
    gamma = params["gamma"]
    grid = Grid(n_modes=params["n_modes"], gamma=gamma)
    reg = RegularityParams(alpha=params["alpha"], b=params["b"])
    u0 = _u0_field(params["u0_modes"], grid)
    cfg = NoiseConfig(gamma=gamma, epsilon=0.0, seed=0,
                      dt=params["dt"], t_end=params["t_end"],
                      noise_scale=0.0)
    direct = solve_mollified(sample_Y(cfg, grid), u0)
    data = zero_enhanced_data(grid, direct.times, reg)
    sub = solve_subcritical(data, None, u0, tol=params["solve_tol"])
    para = solve_paracontrolled(data, None, u0, tol=params["solve_tol"])
    gap_sub = _ct_norm(sub.reconstruct(data).modes - direct.modes, grid, 0.0)
    gap_para = _ct_norm(para.reconstruct(data).modes - direct.modes, grid, 0.0)

    residuals = []
    for h in params["residual_dts"]:
        c = NoiseConfig(gamma=gamma, epsilon=0.0, seed=0,
                        dt=h, t_end=params["residual_t_end"],
                        noise_scale=0.0)
        traj = solve_mollified(sample_Y(c, grid), u0)
        residuals.append((h, traj.meta["mild_residual"]["value"]))
    orders = [math.log2(r0 / r1)
              for (h0, r0), (h1, r1) in zip(residuals, residuals[1:])]
    lo = params["order_center"] - params["order_window"]
    hi = params["order_center"] + params["order_window"]
    orders_ok = all(lo <= o <= hi for o in orders)
    return {
        "assertions": [
            _assertion("degenerate-subcritical", gap_sub < params["match_tol"],
                       gap_sub, params["match_tol"],
                       "sup-in-time L2 gap against the direct solve"),
            _assertion("degenerate-paracontrolled",
                       gap_para < params["match_tol"], gap_para,
                       params["match_tol"],
                       "sup-in-time L2 gap against the direct solve"),
            _assertion("residual-order", orders_ok,
                       min(orders) if orders else 0.0, f"[{lo:g}, {hi:g}]",
                       "mild-residual convergence order under dt halving"),
        ],
        "tables": {"residuals.csv":
                   (("dt", "mild_residual"), residuals)},
        "reports": {"degeneration.json": {
            "gap_subcritical": gap_sub, "gap_paracontrolled": gap_para,
            "orders": orders}},
    }


def _run_solver_reconstruction(params):
    gamma = params["gamma"]
    grid = Grid(n_modes=params["n_modes"], gamma=gamma)
    reg = RegularityParams(alpha=params["alpha"], b=params["b"])
    u0 = _u0_field(params["u0_modes"], grid)
    cfg = NoiseConfig(gamma=gamma, epsilon=params["epsilon"],
                      seed=params["seed"], dt=params["dt"],
                      t_end=params["t_end"])
    y = sample_Y(cfg, grid)
    direct = solve_mollified(y, u0)
    data = build_enhanced_data(y, reg)
    sub = solve_subcritical(data, None, u0, tol=params["solve_tol"])
    para = solve_paracontrolled(data, None, u0, tol=params["solve_tol"])
    s = params["exponent"]
    scale = _ct_norm(direct.modes, grid, s)
    rel_sub = _ct_norm(sub.reconstruct(data).modes - direct.modes,
                       grid, s) / scale
    rel_para = _ct_norm(para.reconstruct(data).modes - direct.modes,
                        grid, s) / scale
    return {
        "assertions": [
            _assertion("reconstruction-subcritical",
                       rel_sub < params["rel_bound"], rel_sub,
                       params["rel_bound"],
                       "relative sup-in-time Sobolev gap to the direct solve"),
            _assertion("reconstruction-paracontrolled",
                       rel_para < params["rel_bound"], rel_para,
                       params["rel_bound"],
                       "relative sup-in-time Sobolev gap to the direct solve"),
        ],
        "reports": {"reconstruction.json": {
            "relative_subcritical": rel_sub,
            "relative_paracontrolled": rel_para,
            "norm_scale": scale,
            "subcritical_slabs": sub.diagnostics["slabs"],
            "paracontrolled_slabs": para.diagnostics["slabs"]}},
    }


# --------------------------------------------- study: dependence probe


def _run_dependence_probe(params):
    gamma = params["gamma"]
    grid = Grid(n_modes=params["n_modes"], gamma=gamma)
    reg = RegularityParams(alpha=params["alpha"], b=params["b"])
    cfg = NoiseConfig(gamma=gamma, epsilon=params["epsilon"],
                      seed=params["seed"], dt=params["dt"],
                      t_end=params["t_end"])
    data = build_enhanced_data(sample_Y(cfg, grid), reg)
    u0 = _u0_field(params["u0_modes"], grid)
    report = dependence_ladder(data, u0, sizes=params["sizes"],
                               tol=params["tol"])
    slope_dev = abs(report["slope"] - params["slope_center"])
    final_dev = abs(report["slope_final"] - params["slope_center"])
    worst_margin = max(report["envelope"]["margins"])
    ml_err = abs(mittag_leffler(1.0, 1.0) - math.e)
    rows = list(zip(report["sizes"], report["differences"],
                    report["final_differences"], report["ratios"],
                    report["envelope"]["margins"]))
    return {
        "assertions": [
            _assertion("ladder-slope", slope_dev <= params["slope_window"],
                       report["slope"],
                       f"{params['slope_center']:g} +- {params['slope_window']:g}",
                       "log-log slope of solution vs input difference"),
            _assertion("ladder-slope-final",
                       final_dev <= params["slope_window"],
                       report["slope_final"],
                       f"{params['slope_center']:g} +- {params['slope_window']:g}",
                       "log-log slope of the end-time solution difference "
                       "vs input difference"),
            _assertion("envelope-dominates",
                       worst_margin <= 1.0 + params["envelope_slack"],
                       worst_margin, 1.0,
                       "every measured difference sits under the fitted envelope"),
            _assertion("mittag-leffler-e", ml_err < params["ml_tolerance"],
                       ml_err, params["ml_tolerance"],
                       "series evaluation at order 1, argument 1"),
        ],
        "tables": {"ladder.csv":
                   (("size", "difference", "final_difference", "ratio",
                     "envelope_margin"), rows)},
        "reports": {"envelope.json": {
            "level": report["envelope"]["level"],
            "rate": report["envelope"]["rate"],
            "order": report["envelope"]["order"],
            "slope": report["slope"],
            "slope_final": report["slope_final"]}},
    }


# ------------------------------------------ study: tree algebra audit


def _run_tree_algebra_audit(params):
    assertions = []
    floor_report = {}
    for alpha, b in params["pairs"]:
        rep = verify_regularity_floor(params["max_leaves"],
                                      RegularityParams(alpha=alpha, b=b))
        tag = f"a{alpha:g}-b{b:g}"
        assertions.append(_assertion(
            f"floor-{tag}", rep.holds and rep.argmin_key == "lr",
            rep.min_product_r, rep.floor,
            "product regularity floor, minimum at the squared generator"))
        floor_report[tag] = {
            "floor": rep.floor, "min_product_r": rep.min_product_r,
            "argmin": rep.argmin_key, "symbols": rep.n_symbols}
    listing = sorted(
        regular_set([parse_symbol(k) for k in ("n", "lr", "rLlr")],
                    RegularityParams(alpha=params["listing_alpha"],
                                     b=params["listing_b"])),
        key=lambda e: (e.pair[0].canonical_key, e.pair[1].canonical_key))
    pairs = [(e.pair[0].canonical_key, e.pair[1].canonical_key)
             for e in listing]
    expected = sorted([("n", "rLlr"), ("rLlr", "n"), ("lr", "lr"),
                       ("lr", "rLlr"), ("rLlr", "lr")])
    assertions.append(_assertion(
        "regular-set-listing", pairs == expected, len(pairs), len(expected),
        "resonant-product whitelist for the canonical triple"))
    rows = [(left, right, e.sum_r) for (left, right), e in zip(pairs, listing)]
    return {
        "assertions": assertions,
        "tables": {"regular_set.csv": (("left", "right", "sum_r"), rows)},
        "reports": {"floor.json": floor_report},
    }


# ------------------------ studies: kernel identities, mode summability


@lru_cache(maxsize=1)
def _double_exponential_rule():
    """Nodes and weights on [0, 1] (tanh-sinh) and on [0, inf)
    (exp-sinh): x = (1 + tanh y)/2 and x = e^y with y = (pi/2) sinh t,
    stepping t by 1/16 over |t| <= 4, 129 nodes each.  c02's witness
    takes products of these 1-D sums; a span of |t| <= 3.2 already
    misses its closed forms by ~5e-9."""
    t = np.arange(-64, 65) / 16.0
    y = 0.5 * np.pi * np.sinh(t)
    dy = 0.5 * np.pi * np.cosh(t) / 16.0
    unit = 1.0 / (1.0 + np.exp(-2.0 * y))
    half_line = np.exp(y)
    return unit, dy / (2.0 * np.cosh(y) ** 2), half_line, dy * half_line


def _cross_quadrature(a, b, delta):
    """Double-exponential 2-D quadrature of e^{-au-av-b|delta-u+v|} over
    the quarter-plane, split along the kink line v = u - delta and at
    u = delta, where that line meets the axis v = 0.  On each piece the
    sign of delta - u + v is fixed, so the exponent is linear in the
    piece's two coordinates and its tensor-product sum is the product of
    two 1-D sums over the rule's nodes:

    - ``near``, u = delta x on [0, delta] and v >= 0: exponent
      -b delta + (b - a) u - (a + b) v;
    - ``far``, u = delta + h and v = h + s with h, s >= 0: exponent
      -a delta - 2a h - (a + b) s;
    - ``lower``, u = delta + v + s with v, s >= 0: the same exponent as
      ``far``.  The reflection (u, v) -> (v + delta, u - delta) maps
      ``lower`` onto ``far`` and keeps the integrand, so ``lower`` is
      ``far`` again and the sum takes ``far`` twice.

    Each constant factor sits in the exponent of one sum, so every
    exponent is <= 0 and nothing overflows.  The oracles are the 129x129
    grid route and the three-dblquad route in tests/test_harness.py."""
    unit, unit_w, half, half_w = _double_exponential_rule()
    tail = np.sum(half_w * np.exp(-(a + b) * half))
    near = delta * np.sum(unit_w * np.exp(delta * ((b - a) * unit - b)))
    far = np.sum(half_w * np.exp(-a * (delta + 2.0 * half)))
    return float((near + 2.0 * far) * tail)


def _run_kernel_identities(params):
    rng = np.random.default_rng(params["seed"])
    tol = params["tolerance"]
    rows = []
    worst = 0.0
    for _ in range(params["triples"]):
        a, b = np.exp(rng.uniform(-1.5, 2.0, size=2))
        delta = rng.uniform(0.0, 2.0)
        closed = exp_cross_integral(a, b, delta)
        quad = _cross_quadrature(a, b, delta)
        err = abs(closed - quad)
        worst = max(worst, err)
        rows.append((a, b, delta, closed, quad, err))

    draws = params["bound_draws"]
    families = {}

    def scan(name, fn):
        worst_ratio = 0.0
        violations = 0
        for _ in range(draws):
            checks = fn()
            for ch in checks:
                worst_ratio = max(worst_ratio, ch.ratio / ch.cap)
                violations += not ch.holds
        families[name] = {"draws": draws, "worst_ratio": worst_ratio,
                          "violations": violations}
        return violations

    total_violations = 0
    total_violations += scan("five-exp", lambda: (
        five_exp_bound(*np.exp(rng.uniform(-1.5, 2.0, size=5)),
                       rng.uniform(0, 2)),))
    total_violations += scan("segment-exp", lambda: (
        (lambda s: segment_exp_bound(*np.exp(rng.uniform(-2, 3, size=2)),
                                     s, s + rng.uniform(0, 3)))(
            rng.uniform(0, 1)),))
    total_violations += scan("exp-difference", lambda: (
        exp_difference_bound(*np.exp(rng.uniform(-2, 3, size=3))),))
    total_violations += scan("smoothed-cross", lambda: smoothed_cross_bound(
        1.0, *np.exp(rng.uniform(-2, 3, size=2)), 10 ** rng.uniform(-3, 1)))
    total_violations += scan("five-exp-increment", lambda: (
        five_exp_increment_bound(*np.exp(rng.uniform(-1.0, 1.5, size=5)),
                                 10 ** rng.uniform(-2, 0.5)),))

    def packaging_draw():
        gamma = rng.uniform(1.55, 2.0)
        m = int(rng.choice([1, 2, 4, 8]))
        k = 0
        while k in (0, m):
            k = int(rng.integers(-40, 41))
        return (mode_packaging_bound(k, m, gamma, rng.uniform(0, 2.0)),)

    total_violations += scan("mode-packaging", packaging_draw)

    return {
        "assertions": [
            _assertion("cross-integral-closed-form", worst < tol, worst, tol,
                       "max |closed form - double-exponential quadrature| "
                       "over triples"),
            _assertion("bound-families", total_violations == 0,
                       total_violations, 0,
                       "no bound family violated by its witnesses"),
        ],
        "tables": {"closed_form.csv":
                   (("a", "b", "delta", "closed", "quadrature", "abs_err"),
                    rows)},
        "reports": {"bounds.json": families},
    }


def _run_mode_summability(params):
    K = params["K"]
    sup = uniform_cross_pair_sup(params["exponents"], K,
                                 range(1, params["a_max"] + 1))
    ratio = sup["max_min_ratio"]
    conv = power_law_exponent(params["gamma_convergent"], params["a_prime"])
    div = power_law_exponent(params["gamma_divergent"], params["a_prime"])
    rows = [(a, v) for a, v in sorted(sup["values"].items())]
    return {
        "assertions": [
            _assertion("uniform-cross-pair", ratio < params["ratio_bound"],
                       ratio, params["ratio_bound"],
                       "max/min completed partial sums over the offset ladder"),
            _assertion(f"power-law-convergent-g{params['gamma_convergent']:g}",
                       conv < -1.0, conv, -1.0,
                       "series exponent sits below -1"),
            _assertion(f"power-law-divergent-g{params['gamma_divergent']:g}",
                       div >= -1.0, div, -1.0,
                       "series exponent sits above -1"),
        ],
        "tables": {"partial_sums.csv": (("a", "completed"), rows)},
        "reports": {"summability.json": {
            "max_min_ratio": ratio,
            "convergent_exponent": conv,
            "divergent_exponent": div}},
    }


# Every study kind: (runner, schema), in the order of the shipped specs
# c01..c12.  A schema maps each parameter its runner reads to its cast;
# a spec must write every one of them and nothing else, which is checked
# before anything runs.
_STUDIES = {
    "identity-suite": (_run_identity_suite, {
        "n_modes": int,
        "tolerance": float,
        "smoothed_probes": int,
        "smoothed_n_modes": int,
        "smoothed_nodes": int,
    }),
    "kernel-identities": (_run_kernel_identities, {
        "triples": int,
        "tolerance": float,
        "seed": int,
        "bound_draws": int,
    }),
    "ou-covariance": (_run_ou_covariance, {
        "gammas": _floats,
        "wavenumbers": _ints,
        "samples": int,
        "n_modes": int,
        "dt": float,
        "nodes": int,
        "se_factor": float,
        "min_fraction": float,
        "seed": int,
    }),
    "wick-moments": (_run_wick_moments, {
        "gamma": float,
        "samples": int,
        "n_modes": int,
        "dt": float,
        "se_factor": float,
        "seed": int,
    }),
    "tree-moments": (_run_tree_moments, {
        "gammas": _floats,
        "wavenumbers": _ints,
        "replicas": int,
        "n_modes": int,
        "dt": float,
        "burn": float,
        "se_factor": float,
        "seed": int,
    }),
    "regularity-ladder": (_run_regularity_ladder, {
        "gamma": float,
        "n_modes": int,
        "dt": float,
        "t_end": float,
        "j_lo": int,
        "j_hi": int,
        "floor_n": float,
        "floor_lr": float,
        "floor_rLlr": float,
    }),
    "mode-summability": (_run_mode_summability, {
        "K": int,
        "a_max": int,
        "exponents": _floats,
        "ratio_bound": float,
        "gamma_convergent": float,
        "gamma_divergent": float,
        "a_prime": float,
    }),
    "tree-algebra-audit": (_run_tree_algebra_audit, {
        "max_leaves": int,
        "pairs": _pairs,
        "listing_alpha": float,
        "listing_b": float,
    }),
    "solver-degeneration": (_run_solver_degeneration, {
        "gamma": float,
        "n_modes": int,
        "dt": float,
        "t_end": float,
        "alpha": float,
        "b": float,
        "u0_modes": _complexes,
        "solve_tol": float,
        "match_tol": float,
        "residual_dts": _floats,
        "residual_t_end": float,
        "order_center": float,
        "order_window": float,
    }),
    "solver-reconstruction": (_run_solver_reconstruction, {
        "gamma": float,
        "n_modes": int,
        "dt": float,
        "t_end": float,
        "epsilon": float,
        "seed": int,
        "alpha": float,
        "b": float,
        "u0_modes": _complexes,
        "solve_tol": float,
        "exponent": float,
        "rel_bound": float,
    }),
    "eps-convergence": (_run_eps_convergence, {
        "gamma": float,
        "n_modes": int,
        "dt": float,
        "t_end": float,
        "levels": _ints,
        "exponent": float,
        "u0_modes": _complexes,
    }),
    "dependence-probe": (_run_dependence_probe, {
        "gamma": float,
        "n_modes": int,
        "epsilon": float,
        "seed": int,
        "dt": float,
        "t_end": float,
        "alpha": float,
        "b": float,
        "u0_modes": _complexes,
        "sizes": _floats,
        "tol": float,
        "slope_center": float,
        "slope_window": float,
        "envelope_slack": float,
        "ml_tolerance": float,
    }),
}
