"""Guard against public names and options that nothing in the package
uses.

Every public top-level function or class in ``src/gfsb/*.py`` must be
referenced somewhere else under ``src/``, by name or as an attribute.
A public method is reached only as an attribute, so a local variable
that shares its name does not count, and neither does an attribute of
an imported module (``np.random`` is not ``FourierField.random``).
Click commands are reached from the command line.  ``ALLOWED`` lists
the exceptions, each with its reason.

Every defaulted parameter of a ``def`` under ``src/gfsb/``, and every
dataclass field with a plain default, must be set by some call under
``src/``: by keyword, by position, or by unpacking.  A call inside the
function's own body (a recursion forwarding the option) does not count.
An option no call sets is a constant in disguise.  ``OPTIONS_ALLOWED``
lists the exceptions, each with its reason.
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
    "besov.TimeMollifierBank.mean_lag":
        "oracle for modified_paraproduct through the mean-lag identity",
    "spectral.FourierField.to_physical":
        "oracle for the block sups behind holder_norms",
    "spectral.FourierField.l2": "oracle for sobolev_norms at s = 0",
    "spectral.FourierField.pure_mode":
        "builds the single-cosine inputs whose norms have closed forms",
    "spectral.FourierField.random":
        "the tests' random field factory",
}

OPTIONS_ALLOWED = {
    "solver.solve_mollified(ceiling)":
        "tests drive BlowupDetected through it",
    "solver.solve_subcritical(ceiling)":
        "tests drive BlowupDetected through it",
    "solver.solve_paracontrolled(ceiling)":
        "tests drive BlowupDetected through it",
    "solver.solve_mollified(max_step_iter)":
        "tests drive NoContraction through it",
    "solver.solve_subcritical(max_iter)":
        "tests drive NoContraction through it",
    "solver.solve_paracontrolled(max_iter)":
        "tests shrink slabs through it",
    "kernels.third_pairing_report(ms)":
        "the m ladder of the decay fit; waits for a study",
    "kernels.third_pairing_value(delta)":
        "the time separation of the pairing; waits for a study",
    "spectral.FourierField.pure_mode(coeff)":
        "amplitude and phase of the tests' closed-form inputs",
    "spectral.FourierField.to_physical(n_points)":
        "the tests' oracles read fields on grids of their own",
}


def _parse():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


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


def _of_module(node, modules) -> bool:
    """True for an attribute chain rooted at an imported module."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in modules


def _uses(tree):
    modules = {(alias.asname or alias.name).split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id, n
        elif isinstance(n, ast.Attribute) and not _of_module(n.value,
                                                             modules):
            yield n.attr, n


def _unreferenced(trees):
    uses = [use for tree in trees.values() for use in _uses(tree)]
    out = set()
    for qualified, name, node, method in _definitions(trees):
        own = {id(n) for n in ast.walk(node)}
        if not any(used == name and id(n) not in own
                   and (isinstance(n, ast.Attribute) or not method)
                   for used, n in uses):
            out.add(qualified)
    return out


def test_every_public_name_is_reached_or_allowed():
    dead = _unreferenced(_parse())
    assert sorted(dead - set(ALLOWED)) == []
    # an allowance whose name is gone, or is now called, must go too
    assert sorted(set(ALLOWED) - dead) == []
    assert all(reason.strip() for reason in ALLOWED.values())


def test_an_attribute_of_a_module_is_not_a_use():
    tree = ast.parse("import numpy as np\n"
                     "class F:\n    def random(self): pass\n"
                     "np.random.Philox(np.random.Generator)\n")
    assert _unreferenced({"m": tree}) == {"m.F", "m.F.random"}


# ------------------------------------------------------------------ options


def _is_dataclass(node) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id",
                       None) == "dataclass" for d in node.decorator_list)


def _params(qualified, callee, fn, skip):
    """(option, callee, name, position, body) of the defaulted parameters
    of ``fn``; ``skip`` drops a bound self or cls from the positions and
    ``body`` is ``fn``, whose own calls do not set its options."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield f"{qualified}({arg.arg})", callee, arg.arg, i - skip, fn
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{qualified}({arg.arg})", callee, arg.arg, None, fn


def _fields(qualified, cls):
    """(option, class, name, position, None) of the plain-default fields
    of a dataclass; field(...) defaults are not plain."""
    position = 0
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)):
            continue
        value = node.value
        if (isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "field"):
            if any(k.arg == "init" for k in value.keywords):
                continue
        elif value is not None:
            yield (f"{qualified}.{node.target.id}", cls.name, node.target.id,
                   position, None)
        position += 1


def _options(trees):
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for fn in ast.walk(node):
                    if isinstance(fn, ast.FunctionDef):
                        name = (f"{module}.{node.name}" if fn is node
                                else f"{module}.{node.name}.{fn.name}")
                        yield from _params(name, fn.name, fn, 0)
            elif isinstance(node, ast.ClassDef):
                qualified = f"{module}.{node.name}"
                if _is_dataclass(node):
                    yield from _fields(qualified, node)
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in fn.decorator_list)
                        callee = (node.name if fn.name == "__init__"
                                  else fn.name)
                        yield from _params(f"{qualified}.{fn.name}", callee,
                                           fn, 0 if static else 1)


def _calls(trees):
    """(callee name, call) of every call; ``cls(...)`` inside a class
    calls that class."""
    for tree in trees.values():
        for cls in [None] + [n for n in ast.walk(tree)
                             if isinstance(n, ast.ClassDef)]:
            for node in ast.walk(cls or tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else getattr(func, "attr", None))
                if cls is None and name != "cls":
                    yield name, node
                elif cls is not None and name == "cls":
                    yield cls.name, node


def _sets(call, name, position) -> bool:
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == position:
            return True
    return False


def _unset_options(trees):
    calls = list(_calls(trees))
    unset = set()
    for option, callee, name, position, body in _options(trees):
        own = {id(n) for n in ast.walk(body)} if body else set()
        if not any(used == callee and id(call) not in own
                   and _sets(call, name, position) for used, call in calls):
            unset.add(option)
    return unset


def test_every_option_is_set_or_allowed():
    unset = _unset_options(_parse())
    assert sorted(unset - set(OPTIONS_ALLOWED)) == []
    # an allowance whose option is gone, or is now set, must go too
    assert sorted(set(OPTIONS_ALLOWED) - unset) == []
    assert all(reason.strip() for reason in OPTIONS_ALLOWED.values())


def test_an_option_is_set_by_keyword_position_or_unpacking():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d=3): pass\n"
        "def g(x=0): pass\n"
        "@dataclass\nclass P:\n    u: int\n    v: int = 0\n    w: int = 1\n"
        "    @classmethod\n    def make(cls): return cls(1, 2)\n"
        "f(1, 2, c=3)\n"
        "g(*args)\n"
        "P(u=1)\n")
    assert _unset_options({"m": tree}) == {"m.f(d)", "m.P.w"}


def test_a_recursive_call_does_not_set_its_own_option():
    recursive = ("def f(n, memo=True):\n"
                 "    return f(n - 1, memo=memo) if n else 0\n"
                 "f(3)\n")
    assert _unset_options({"m": ast.parse(recursive)}) == {"m.f(memo)"}
    caller = recursive + "def g(n):\n    return f(n, False)\n"
    assert _unset_options({"m": ast.parse(caller)}) == set()
