"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reconstruction --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout; it reads src/ and experiments/ of
the checkout that holds this file.  One run, in this fresh process:

1. (--trace 0) set-up probes: fresh processes that import gfsb.cli and
   validate the workload spec; setup_s is their median wall time;
2. an untimed warm-up repetition on the draws of --seed (fresh draws
   when the seed is not 0 and the workload allows them), checked by the
   study's own assertions;
3. timed repetitions on the spec draws until --seconds have passed, each
   checked by its own assertions and against reference.json.  With
   --trace 1 they alternate untraced and traced, and the per-layer
   metrics come from the traced ones;
4. an untimed thread check: a small c06 ladder over two seeds, run
   serially and with GFSB_THREADS=2, must write the same bytes.

The last stdout line is one JSON object: correct, attempted and failed
(correctness checks) and the metrics; the line before it is the machine
fingerprint.  The exit code is 1 when a check failed and 2 when the run
could not start.  ``--workload all`` runs every workload in its own
process and prints a table.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
MIN_REPS = 3            # untraced repetitions; --trace 1 needs 2 traced
THREAD_ENV = ("GFSB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS")
END_TO_END = {"study_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
RATIOS = ("solver.picard.useful_frac",
          "solver.solve_mollified.transports_per_step")

PROBE = """\
import sys
from pathlib import Path
root, name, out = sys.argv[1:4]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import gfsb.cli
import workloads
workloads.load(Path(root), workloads.WORKLOADS[name], Path(out))
"""


class Checks:
    """Correctness checks attempted in a run, and the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def study(self, manifest, refs, label) -> None:
        """The study's own assertions, and with refs each value against
        its reference."""
        values = reference.values_of(manifest)
        for a in manifest.assertions:
            self.record(a["passed"], f"{label}: {a['name']} failed")
        if refs is not None:
            for name in sorted(set(refs) | set(values)):
                self.record(name in refs and name in values
                            and reference.within(values[name], refs[name]),
                            f"{label}: {name} left its reference value")


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu = platform.machine() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gfsb").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "commit": git_commit(ROOT), "src_sha256": src.hexdigest()}


def setup_times(name: str, out_dir: Path) -> list:
    env = {k: v for k, v in os.environ.items() if k != "GFSB_THREADS"}
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE, str(ROOT), name,
                        str(out_dir)], check=True, env=env, cwd=ROOT,
                       timeout=120)
        times.append(time.perf_counter() - start)
    return times


def artifact_bytes(manifest) -> dict:
    return {Path(p).name: Path(p).read_bytes()
            for p in manifest.artifacts.values()}


def threads_match(harness, out_root: Path) -> bool:
    """True when the thread-check ladder writes the same CSV, report and
    summary bytes with GFSB_THREADS=2 as serially."""
    out = []
    for threads in (None, "2"):
        if threads:
            os.environ["GFSB_THREADS"] = threads
        try:
            spec = workloads.load(ROOT, workloads.THREAD_CHECK,
                                  out_root / f"threads-{threads}")
            out.append(artifact_bytes(harness.run(spec)))
        finally:
            os.environ.pop("GFSB_THREADS", None)
    return out[0] == out[1]


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric in RATIOS:
        return "ratio"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("bytes"):
        return "B"
    return "count"


def measure(name: str, seed: int, seconds: float, trace: bool,
            checks: Checks, out_root: Path) -> dict:
    """All repetitions of one run; returns its metrics."""
    import gfsb.harness as harness
    from spans import COUNTS, Tracer, layer_metrics

    work = workloads.WORKLOADS[name]
    refs = reference.load()[name]
    setup = [] if trace else setup_times(name, out_root / "probe")

    draws = seed if work.fresh else 0
    warm = workloads.load(ROOT, work, out_root / "warm", draws)
    checks.study(harness.run(warm), None if draws else refs, "warm-up")

    timed = workloads.load(ROOT, work, out_root / "timed")
    untraced, cpu, traced, layers = [], [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        enough = (len(traced) >= 2 and len(traced) == len(untraced)
                  if trace else len(untraced) >= MIN_REPS)
        if enough and time.perf_counter() - start >= seconds:
            break
        label = f"repetition {len(untraced) + len(traced)}"
        if trace and len(traced) < len(untraced):
            tracer.reset()
            with tracer:
                manifest = harness.run(timed)
            traced.append(tracer.spans[0].duration)
            layers.append(layer_metrics(tracer.spans))
        else:
            c0, t0 = time.process_time(), time.perf_counter()
            manifest = harness.run(timed)
            untraced.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
        checks.study(manifest, refs, label)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for label, times in (("setup", setup), ("untraced", untraced),
                         ("traced", traced)):
        if times:
            print(f"{name} {label} s: " + " ".join(f"{t:.3f}" for t in times),
                  file=sys.stderr)

    checks.record(threads_match(harness, out_root),
                  "GFSB_THREADS=2 artifacts differ from the serial ones")

    if not trace:
        return {"study_s": statistics.median(untraced),
                "cpu_s": statistics.median(cpu),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb}
    checks.record(all(m[k] == layers[0][k] for m in layers for k in COUNTS),
                  "work counts differ between traced repetitions")
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["harness.artifact_bytes"] = sum(
        map(len, artifact_bytes(manifest).values()))
    metrics["trace.study_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    return metrics


def run_one(args) -> int:
    from gfsb.errors import GFSBError

    # Workloads run serially; the thread check sets GFSB_THREADS itself.
    os.environ.pop("GFSB_THREADS", None)
    warnings.simplefilter("ignore", UserWarning)
    out_root = (ROOT / ".bench_build" / "perfbench"
                / f"{args.workload}-{os.getpid()}")
    checks = Checks()
    metrics = {}
    try:
        metrics = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), checks, out_root)
    except GFSBError as exc:
        # A study that raises fails every check it would have made.
        refs = reference.load()[args.workload]
        for name in refs:
            checks.record(False, f"study raised {exc!r}: {name}")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print(json.dumps({
        "correct": not checks.failures, "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))
    return 1 if checks.failures else 0


def run_all(args) -> int:
    """Every workload in its own process; a table of their metrics."""
    status = 0
    print(f"{'workload':<16}{'metric':<44}{'value':>14}  unit")
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name:<16}did not run:\n{proc.stderr}")
            continue
        result = json.loads(lines[-1])
        frac = result["failed"] / result["attempted"]
        print(f"{name:<16}{'failed_frac':<44}{frac:>14.6g}  "
              f"{result['failed']}/{result['attempted']} checks")
        for metric, m in result["metrics"].items():
            print(f"{name:<16}{metric:<44}{m['value']:>14.6g}  {m['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed <= workloads.MAX_SEED:
        parser.error(f"--seed must lie in [0, {workloads.MAX_SEED}]")
    if not (ROOT / "src" / "gfsb" / "harness.py").is_file():
        print(f"no gfsb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
