"""How the package reaches scipy's compiled modules: `kernels` loads the
four it uses (`scipy.special._ufuncs` and three of scipy.optimize's) from
their files, so no command-line run imports the `scipy.special`,
`scipy.sparse` or `scipy.optimize` package, and a later import of those
packages still works and hands back the same objects."""

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
    imported_before = sorted(name for name in PACKAGES if name in sys.modules)
    import scipy

    attributes_before = sorted(
        name for name in ("optimize", "sparse", "special") if name in vars(scipy)
    )

    import numpy as np
    import scipy.optimize
    import scipy.sparse
    import scipy.special

    optimize = scipy.optimize
    cuts = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 0.0], [0.25, 0.0, 0.75]])
    product = scipy.sparse.csr_array(cuts) @ np.array([1.0, 2.0, 4.0])
    same = {
        "expit": scipy.special.expit is kernels.expit,
        "betaincinv": scipy.special.betaincinv is kernels.betaincinv,
        "_highspy._core": optimize._highspy._core._Highs is kernels.highs._Highs,
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
        "attributes_before": attributes_before,
        "same": same,
        "slsqp": [fit.status, round(float(fit.x[0]), 6), round(float(fit.x[1]), 6)],
        "linprog": [lp.status, float(lp.fun)],
        "product": product.tolist(),
        "expit": float(scipy.special.expit(0.0)),
        "gamma": float(scipy.special.gamma(5.0)),
    }))
    """
)


# loading `kernels` after the packages reuses their modules, loads no file
# again, and leaves `sys.modules` as it found it
LOAD_AFTER_THE_PACKAGES = textwrap.dedent(
    """
    import importlib.util
    import json
    import sys

    import scipy.optimize
    import scipy.sparse
    import scipy.special

    entries = {k: id(v) for k, v in sys.modules.items() if k.startswith("scipy")}
    loaded = []
    locate = importlib.util.spec_from_file_location

    def recording(name, *args, **kwargs):
        loaded.append(name)
        return locate(name, *args, **kwargs)

    importlib.util.spec_from_file_location = recording
    from drulearn import kernels

    modules = sys.modules
    print(json.dumps({
        "reused": {
            "_ufuncs": kernels._ufuncs is modules["scipy.special._ufuncs"],
            "_highspy._core": kernels.highs
            is modules["scipy.optimize._highspy._core"],
            "_lsap": kernels.linear_sum_assignment
            is scipy.optimize._lsap.linear_sum_assignment,
            "_slsqplib": kernels._slsqp_kernel is scipy.optimize._slsqplib.slsqp,
            "again": kernels.scipy_extension("special", "_ufuncs")
            is kernels._ufuncs,
        },
        "entries_kept": entries
        == {k: id(v) for k, v in modules.items() if k.startswith("scipy")},
        "loaded": loaded,
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


def scipy_imports(tree):
    """(enclosing function or None, imported name) of every import of scipy,
    of one of its packages or of one of their names, in `tree`."""
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
                    if alias.name.split(".")[0] == "scipy"
                )
            elif isinstance(child, ast.ImportFrom) and (
                (child.module or "").split(".")[0] == "scipy"
            ):
                found.extend(
                    (function, f"{child.module}.{alias.name}") for alias in child.names
                )
            visit(child, function)

    visit(tree, None)
    return found


def extension_calls(tree):
    """The constant arguments of every `scipy_extension` call in `tree`."""
    return [
        tuple(argument.value for argument in node.args)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "scipy_extension"
    ]


def test_only_kernels_names_scipy_optimize_at_module_level():
    imports, extensions, naming = {}, {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for found in scipy_imports(tree):
            imports.setdefault(path.name, []).append(found)
        for found in extension_calls(tree):
            extensions.setdefault(path.name, []).append(found)
        docstrings = docstring_ids(tree)
        if any(
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "scipy" in node.value
            and id(node) not in docstrings
            for node in ast.walk(tree)
        ):
            naming.add(path.name)
    # kernels imports scipy itself only to find its directory, and names
    # scipy's packages only through its loader
    assert naming == {"kernels.py"}
    assert imports == {
        "kernels.py": [(None, "scipy")],
        "simplex.py": [("solve_lp", "scipy.optimize.linprog")],
    }
    assert extensions == {
        "kernels.py": [
            ("special", "_ufuncs"),
            ("optimize", "_highspy._core"),
            ("optimize", "_lsap"),
            ("optimize", "_slsqplib"),
        ]
    }


def run_script(script, cwd):
    """The last stdout line, read as JSON, of `script` run by a fresh
    interpreter in `cwd` with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_no_subcommand_imports_scipy_optimize_and_a_later_import_works(tmp_path):
    packages = (
        "scipy._lib._array_api", "scipy.optimize", "scipy.sparse", "scipy.special",
    )
    report = run_script(
        f"SUBCOMMANDS = {SUBCOMMANDS!r}\nPACKAGES = {packages!r}\n"
        f"{RUN_EVERY_SUBCOMMAND}",
        tmp_path,
    )
    assert report["codes"] == {command: 0 for command in SUBCOMMANDS}
    assert report["imported_before"] == []
    # no stand-in package is left as an attribute of scipy
    assert report["attributes_before"] == []
    # the packages imported afterwards expose the compiled modules as their
    # attributes, and they hold the objects the package drives
    assert report["same"] == {
        "expit": True, "betaincinv": True, "_highspy._core": True, "_lsap": True,
        "_slsqplib": True,
    }
    assert report["slsqp"] == [0, 1.0, 0.0]
    assert report["linprog"] == [0, 1.0]
    assert report["product"] == [3.0, 0.0, 3.25]
    assert report["expit"] == 0.5 and report["gamma"] == 24.0


def test_loading_kernels_after_the_packages_reuses_their_modules(tmp_path):
    report = run_script(LOAD_AFTER_THE_PACKAGES, tmp_path)
    assert report["reused"] == {
        "_ufuncs": True, "_highspy._core": True, "_lsap": True, "_slsqplib": True,
        "again": True,
    }
    assert report["entries_kept"] is True
    assert report["loaded"] == []


def test_no_subcommand_imports_numpy_ma(tmp_path):
    # `np.median` imports `numpy.ma` for its NaN check; `model.median`
    # takes its place, so no subcommand loads it
    report = run_script(
        f"SUBCOMMANDS = {SUBCOMMANDS!r}\nPACKAGES = ('numpy.ma',)\n"
        f"{RUN_EVERY_SUBCOMMAND}",
        tmp_path,
    )
    assert report["codes"] == {command: 0 for command in SUBCOMMANDS}
    assert report["imported_before"] == []


def test_importing_config_loads_no_other_package_module_and_no_numpy(tmp_path):
    # the settings names live in `config`, so a caller can read and check a
    # config file without loading numpy, scipy or the solver layer
    report = run_script(
        "import json, sys\n"
        "import drulearn.config\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "    if name.split('.')[0] in ('drulearn', 'numpy', 'scipy'))))\n",
        tmp_path,
    )
    assert report == ["drulearn", "drulearn.config"]
