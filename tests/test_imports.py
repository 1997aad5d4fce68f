"""The private scipy modules the package drives, and the one module of
`src/drulearn` that imports each: a scipy release that moves one of them
breaks that module alone."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "drulearn"

# private scipy module -> the one module that imports it
PRIVATE_SCIPY = {
    "scipy.optimize._highspy": {"simplex.py"},
    "scipy.optimize._lbfgsb": {"bounds.py"},
}


def imported_names(path):
    """Every module, and every name imported from a module, that `path`
    imports, dotted in full."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def private_prefix(name):
    """`name` up to its first private part, or None if it has none."""
    parts = name.split(".")
    for index, part in enumerate(parts):
        if part.startswith("_"):
            return ".".join(parts[: index + 1])
    return None


def test_each_private_scipy_module_is_imported_by_one_module():
    importers = {}
    for path in sorted(SOURCE.glob("*.py")):
        for name in imported_names(path):
            prefix = private_prefix(name)
            if name.split(".")[0] == "scipy" and prefix is not None:
                importers.setdefault(prefix, set()).add(path.name)
    assert importers == PRIVATE_SCIPY
