"""How the package reaches scipy.optimize: `kernels` loads the four compiled
modules it drives from their files, so no command-line run imports the
`scipy.optimize` package, and a later import of that package still works
and hands back the same objects."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "drulearn"

SUBCOMMANDS = (
    "train-dru",
    "train-baseline",
    "bound",
    "min-radius",
    "wasserstein",
    "radius-sweep",
    "robustness-sweep",
    "active",
    "oracle-check",
)

# every subcommand on a small synthetic instance
RUN_EVERY_SUBCOMMAND = textwrap.dedent(
    """
    import json
    import sys

    from drulearn import kernels
    from drulearn.cli import main

    small = {"synthetic_n": 24, "n_labeled": 6}
    extra = {
        "active": {
            "strategy": "dr_weak", "n_initial": 2, "stop_at": 4,
            "candidate_subsample": 4,
        },
        "bound": {"n_labeled_grid": 6},
        "oracle-check": {"trials": 2},
    }
    codes = {}
    for command in SUBCOMMANDS:
        keys = {**small, "output": command + ".csv", **extra.get(command, {})}
        with open(command + ".cfg", "w") as handle:
            handle.writelines(f"{key} = {value}\\n" for key, value in keys.items())
        codes[command] = main([command, "--config", command + ".cfg"])
    imported_before = "scipy.optimize" in sys.modules

    import numpy as np
    import scipy.optimize

    optimize = scipy.optimize
    same = {
        "_highspy._core": optimize._highspy._core._Highs is kernels.highs._Highs,
        "_lbfgsb": optimize._lbfgsb.setulb is kernels.setulb,
        "_lsap": optimize._lsap.linear_sum_assignment
        is kernels.linear_sum_assignment
        is optimize.linear_sum_assignment,
        "_slsqplib": optimize._slsqplib.slsqp is kernels._slsqp_kernel,
    }
    fit = optimize.minimize(
        lambda x: x @ x,
        np.array([2.0, 1.0]),
        jac=lambda x: 2.0 * x,
        method="SLSQP",
        constraints={"type": "ineq", "fun": lambda x: x[0] - 1.0},
    )
    lp = optimize.linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    print(json.dumps({
        "codes": codes,
        "imported_before": imported_before,
        "same": same,
        "slsqp": [fit.status, round(float(fit.x[0]), 6), round(float(fit.x[1]), 6)],
        "linprog": [lp.status, float(lp.fun)],
    }))
    """
)


def docstring_ids(tree):
    """The ids of the docstring nodes of `tree`."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                ids.add(id(first.value))
    return ids


def optimize_imports(tree):
    """(enclosing function or None, imported name) of every import of
    scipy.optimize, or of one of its names, in `tree`."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                found.extend(
                    (function, alias.name)
                    for alias in child.names
                    if alias.name.startswith("scipy.optimize")
                )
            elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith(
                "scipy.optimize"
            ):
                found.extend(
                    (function, f"{child.module}.{alias.name}") for alias in child.names
                )
            visit(child, function)

    visit(tree, None)
    return found


def test_only_kernels_names_scipy_optimize_at_module_level():
    imports, naming = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for found in optimize_imports(tree):
            imports.setdefault(path.name, []).append(found)
        docstrings = docstring_ids(tree)
        if any(
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "scipy.optimize" in node.value
            and id(node) not in docstrings
            for node in ast.walk(tree)
        ):
            naming.add(path.name)
    assert naming == {"kernels.py"}
    assert imports == {"simplex.py": [("solve_lp", "scipy.optimize.linprog")]}


def test_no_subcommand_imports_scipy_optimize_and_a_later_import_works(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    script = f"SUBCOMMANDS = {SUBCOMMANDS!r}\n{RUN_EVERY_SUBCOMMAND}"
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == {command: 0 for command in SUBCOMMANDS}
    assert report["imported_before"] is False
    # the package imported afterwards exposes the compiled modules as its
    # attributes, and they hold the objects the package drives
    assert report["same"] == {
        "_highspy._core": True, "_lbfgsb": True, "_lsap": True, "_slsqplib": True,
    }
    assert report["slsqp"] == [0, 1.0, 0.0]
    assert report["linprog"] == [0, 1.0]
