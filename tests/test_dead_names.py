"""Guard against public names that nothing in the package calls.

Every public top-level function or class in ``src/gfsb/*.py`` must be
referenced somewhere else under ``src/``, by name or as an attribute.
A public method is reached only as an attribute, so a local variable
that shares its name does not count.  Click commands are reached from
the command line.  ``ALLOWED`` lists the exceptions, each with its
reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gfsb"

ALLOWED = {
    "kernels.third_pairing_value":
        "encodes the gamma > 3/2 third-pairing decay -(4 gamma - 6); "
        "waits for a study",
    "kernels.third_pairing_report":
        "fits the gamma > 3/2 third-pairing decay -(4 gamma - 6); "
        "waits for a study",
    "solver.continuous_dependence_probe":
        "encodes continuous dependence on the input data; waits for a study",
    "kernels.pair_kernel":
        "oracle for quadratic_tree_covariance and the tree moments",
    "spectral.physical_to_modes": "oracle for modes_to_physical",
    "noise.load_trajectory": "reads back the format of save_trajectory",
    "besov.TimeMollifierBank.mean_lag":
        "oracle for modified_paraproduct through the mean-lag identity",
    "spectral.FourierField.to_physical":
        "oracle for the block sups behind holder_norms",
    "spectral.FourierField.l2": "oracle for sobolev_norms at s = 0",
    "spectral.FourierField.pure_mode":
        "builds the single-cosine inputs whose norms have closed forms",
}


def _is_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in node.decorator_list)


def _definitions(trees):
    """(qualified name, short name, node, is method) of every public
    definition."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or _is_command(node):
                continue
            yield f"{module}.{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")):
                        yield (f"{module}.{node.name}.{sub.name}", sub.name,
                               sub, True)


def _unreferenced(trees):
    uses = [(n.id if isinstance(n, ast.Name) else n.attr, n)
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))]
    out = set()
    for qualified, name, node, method in _definitions(trees):
        own = {id(n) for n in ast.walk(node)}
        if not any(used == name and id(n) not in own
                   and (isinstance(n, ast.Attribute) or not method)
                   for used, n in uses):
            out.add(qualified)
    return out


def test_every_public_name_is_reached_or_allowed():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    dead = _unreferenced(trees)
    assert sorted(dead - set(ALLOWED)) == []
    # an allowance whose name is gone, or is now called, must go too
    assert sorted(set(ALLOWED) - dead) == []
    assert all(reason.strip() for reason in ALLOWED.values())
