"""Command-line front end: the symbol algebra, tree samples, solves, and
study runs.  ``gfsb run SPEC`` is the one way to run a study; to run one
at another size, run an edited copy of its spec.

Exit codes: 0 all checks passed, 1 at least one assertion failed,
2 bad input or a study that errored mid-flight.  GFSB_THREADS caps the
workers of regularity-ladder, the one study that spreads seeds over them.
"""
from __future__ import annotations

import configparser
import json
import sys
from pathlib import Path

import click

from . import __version__
from .errors import GFSBError, TaskFailure, ValidationError
from .harness import (
    _complexes,
    _keep_freed_memory,
    _resolve_parameters,
    _u0_field,
    emit_plot_data,
    load_spec,
    run,
)
from .noise import NoiseConfig, sample_Y, save_trajectory
from .solver import (
    build_enhanced_data,
    solve_mollified,
    solve_paracontrolled,
    solve_subcritical,
)
from .spectral import Grid
from .trees import (
    CoefficientMap,
    RegularityParams,
    generate_regular_subset,
    regular_set,
    regularity,
    verify_regularity_floor,
)


def _echo_assertions(manifest) -> bool:
    ok = True
    for a in manifest.assertions:
        mark = "PASS" if a["passed"] else "FAIL"
        click.echo(f"  [{mark}] {a['name']}: value={a['value']:.6g} "
                   f"bound={a['bound']}")
        ok &= a["passed"]
    return ok


@click.group()
@click.version_option(version=__version__, prog_name="gfsb")
def main():
    """Numerical laboratory for a fractional singular Burgers flow."""


# ------------------------------------------------------------ tree-algebra


@main.command("tree-algebra")
@click.option("--max-leaves", default=4, show_default=True,
              help="Leaf-count ceiling for symbol enumeration.")
@click.option("--alpha", default=-0.2, show_default=True,
              help="Base regularity of the generator.")
@click.option("--b", default=0.5, show_default=True,
              help="Regularity gained by one integration.")
@click.option("--out", type=click.Path(), default=None,
              help="Also write the JSON document here.")
def tree_algebra(max_leaves, alpha, b, out):
    """Print the regular symbol subset, r-values, and pair whitelist."""
    try:
        params = RegularityParams(alpha=alpha, b=b)
        subset = generate_regular_subset(max_leaves)
        floor = verify_regularity_floor(max_leaves, params)
    except GFSBError as exc:
        raise click.UsageError(str(exc))
    doc = {
        "alpha": alpha, "b": b, "max_leaves": max_leaves,
        "generated": [{"key": s.canonical_key, "leaves": s.leaves,
                       "r": regularity(s, params)} for s in subset],
        "regular_pairs": [
            {"left": e.pair[0].canonical_key,
             "right": e.pair[1].canonical_key, "sum_r": e.sum_r}
            for e in regular_set(subset, params)],
        "floor": {"value": floor.floor, "min_product_r": floor.min_product_r,
                  "argmin": floor.argmin_key, "holds": floor.holds},
    }
    text = json.dumps(doc, indent=2)
    click.echo(text)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text + "\n")


# ------------------------------------------------------------- sample-tree


@main.command("sample-tree")
@click.option("--symbol", type=click.Choice(["n", "lr", "rLlr"]),
              default="n", show_default=True)
@click.option("--gamma", default=1.75, show_default=True)
@click.option("--epsilon", default=0.0, show_default=True)
@click.option("--n-modes", default=64, show_default=True)
@click.option("--dt", default=1e-3, show_default=True)
@click.option("--t-end", default=0.5, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--stride", default=0, show_default=True,
              help="Snapshot thinning; 0 picks one that keeps <= 200 nodes.")
@click.option("--out", type=click.Path(), default="runs/sample",
              show_default=True)
def sample_tree(symbol, gamma, epsilon, n_modes, dt, t_end, seed, stride, out):
    """Sample the forced flow and persist one tree trajectory."""
    from .construct import build_tree_family
    try:
        grid = Grid(n_modes=n_modes, gamma=gamma)
        config = NoiseConfig(gamma=gamma, epsilon=epsilon, seed=seed,
                             dt=dt, t_end=t_end)
        base = sample_Y(config, grid)
        tree = build_tree_family(base)[symbol]
    except (GFSBError, ValueError) as exc:
        raise click.UsageError(str(exc))
    if stride <= 0:
        stride = max(1, len(tree) // 200)
    directory = Path(out) / symbol
    save_trajectory(tree, directory, stride=stride,
                    meta={"symbol": symbol, "gamma": gamma,
                          "epsilon": epsilon, "seed": seed, "dt": dt,
                          "t_end": t_end})
    click.echo(f"wrote {directory}/manifest.json "
               f"({1 + (len(tree) - 1) // stride} snapshots)")


# ------------------------------------------------------------------ solve


# name -> cast, resolved like a study spec's parameters
_SOLVE_SCHEMA = {
    "gamma": float, "beta": float, "epsilon": float, "n_modes": int,
    "dt": float, "t_end": float, "seed": int, "tol": float, "alpha": float,
    "b": float, "noise_scale": float, "u0_modes": _complexes,
    **{f"coeff_{key}": float for key in CoefficientMap.standard().entries},
}


def _read_solve_config(path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    text = Path(path).read_text()
    if not text.lstrip().startswith("["):
        text = "[solve]\n" + text
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise click.UsageError(f"cannot parse {path}: {exc}")
    merged = {}
    for section in parser.sections():
        merged.update(parser[section])
    try:
        return _resolve_parameters(_SOLVE_SCHEMA, merged, "the solve config")
    except ValidationError as exc:
        raise click.UsageError(str(exc))


@main.command("solve")
@click.option("--mode",
              type=click.Choice(["direct", "subcritical", "paracontrolled"]),
              default="direct", show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True),
              required=True, help="Flat key=value solve configuration.")
@click.option("--stride", default=0, show_default=True)
@click.option("--out", type=click.Path(), default="runs/solve",
              show_default=True)
def solve(mode, config_path, stride, out):
    """Integrate the flow and persist trajectory plus diagnostics."""
    _keep_freed_memory()
    raw = _read_solve_config(config_path)
    try:
        cfg = NoiseConfig(gamma=raw["gamma"], epsilon=raw["epsilon"],
                          seed=raw["seed"], dt=raw["dt"], t_end=raw["t_end"],
                          beta=raw["beta"], noise_scale=raw["noise_scale"])
        grid = Grid(n_modes=raw["n_modes"], gamma=cfg.gamma)
        u0 = _u0_field(raw["u0_modes"], grid)
        params = RegularityParams(alpha=raw["alpha"], b=raw["b"])
    except (GFSBError, ValueError) as exc:
        raise click.UsageError(str(exc))
    tol = raw["tol"]
    out_dir = Path(out) / mode
    try:
        y = sample_Y(cfg, grid)
        if mode == "direct":
            traj = solve_mollified(y, u0)
            diagnostics = {"mode": mode,
                           "mild_residual": traj.meta["mild_residual"],
                           "max_step_iterations":
                               traj.meta["max_step_iterations"]}
        else:
            coeffs = CoefficientMap.from_dict(
                {key[len("coeff_"):]: value for key, value in raw.items()
                 if key.startswith("coeff_")})
            data = build_enhanced_data(y, params)
            if mode == "subcritical":
                state = solve_subcritical(data, coeffs, u0, tol=tol)
            else:
                state = solve_paracontrolled(data, coeffs, u0, tol=tol)
            traj = state.reconstruct(data)
            diagnostics = {
                "mode": mode, "tol": tol,
                "s": state.diagnostics["s"],
                "slabs": [{"start": s["start"], "stop": s["stop"],
                           "iterations": s["iterations"],
                           "contraction_factors": s["factors"],
                           "iteration_norms": s["distances"]}
                          for s in state.diagnostics["slabs"]]}
    except GFSBError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if stride <= 0:
        stride = max(1, len(traj) // 200)
    save_trajectory(traj, out_dir, stride=stride,
                    meta={"mode": mode, "config": {k: str(v)
                                                   for k, v in raw.items()}})
    diag_path = out_dir / "diagnostics.json"
    diag_path.write_text(json.dumps(diagnostics, indent=2, sort_keys=True,
                                    default=float) + "\n")
    click.echo(f"wrote {out_dir}/manifest.json and diagnostics.json")


# -------------------------------------------------------------------- run


@main.command("run")
@click.argument("spec_file", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None,
              help="Write under OUT/<spec name> instead of the spec's "
                   "output directory.")
@click.option("--plot-data", is_flag=True,
              help="Also emit plot-ready two-column CSVs.")
def run_spec(spec_file, out, plot_data):
    """Execute a study spec file; nonzero exit if any assertion fails."""
    try:
        spec = load_spec(spec_file)
        if out is not None:
            spec = load_spec(spec_file, output_dir=Path(out) / spec.name)
    except ValidationError as exc:
        raise click.UsageError(str(exc))
    click.echo(f"{spec.name} [{spec.kind}] seeds={len(spec.seeds)}")
    try:
        manifest = run(spec)
    except ValidationError as exc:
        raise click.UsageError(str(exc))
    except TaskFailure as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    ok = _echo_assertions(manifest)
    if plot_data:
        for path in emit_plot_data(manifest):
            click.echo(f"  plot data: {path}")
    click.echo(f"wall time {manifest.wall_times.get('run', 0.0):.1f}s; "
               f"artifacts under {spec.output_dir}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
