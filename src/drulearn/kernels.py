"""scipy's compiled modules, loaded without their packages, and the one
optimizer loop the package runs around scipy.optimize's SLSQP kernel.

The package reaches scipy through four compiled modules:
- `scipy.special._ufuncs`, for the `expit` and `betaincinv` ufuncs, the
  very objects `scipy.special` exports;
- three of scipy.optimize's: the HiGHS build (`_highspy._core`), the
  assignment solver (`_lsap`) and SLSQP's kernel (`_slsqplib`; Kraft, "A
  software package for sequential quadratic programming", DFVLR-FB 88-28,
  1988).

`scipy_extension` loads each from its file, so no run executes the
`__init__.py` of `scipy.special` or `scipy.optimize`.  Each of those
imports `scipy._lib._util`, whose `scipy._lib._array_api` imports
`array_api_compat.numpy` and with it `numpy.f2py`, `numpy.testing`,
`numpy.ma` and `numpy.fft`; `scipy.optimize` adds `linprog`, `shgo`,
`scipy.linalg` and `scipy.fft`.  On one core, `scipy.special` costs about
0.15 s of CPU and 24 MB at every start, and `scipy.optimize` about 0.15 s
and 22 MB more.  `_ufuncs` imports a sibling module relative to
`scipy.special`, so while it loads, a bare stand-in package
with `scipy/special` as its path takes the package's place in
`sys.modules`; without it Python would run `scipy/special/__init__.py`,
which imports the half-loaded `_ufuncs` and fails.  The one other scipy
import in the package is `linprog`, inside `simplex.solve_lp`, which no
command-line path calls.

`slsqp` runs the loop scipy 1.17's `minimize` runs around
`_slsqplib.slsqp`, without its per-call setup and its `ScalarFunction`
wrappers, so its iterates are `minimize`'s bit for bit.  It drives every
smooth solve: the cut-set master, the baseline fit and the certificate
search.

This module holds every tie the package has to scipy's internals: a scipy
release that moves one of these files, makes a package's stand-in
insufficient, or changes a kernel's arguments or the loop `minimize` runs
around it, breaks this module alone.  These tests then fail:
`tests/test_imports.py`, which loads every module, runs every subcommand
without the packages and compares the loaded objects with the packages';
and `tests/test_bounds.py::TestSlsqpDriver`, which compares the driver with
`minimize` bit for bit.  scipy 1.17.1 is the tested release.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import types
from dataclasses import dataclass

import numpy as np
import scipy

# scipy's text for each SLSQP exit mode that ends a run
SLSQP_EXIT_MODES = {
    0: "Optimization terminated successfully",
    2: "More equality constraints than independent variables",
    3: "More than 3*n iterations in LSQ subproblem",
    4: "Inequality constraints incompatible",
    5: "Singular matrix E in LSQ subproblem",
    6: "Singular matrix C in LSQ subproblem",
    7: "Rank-deficient equality constraint subproblem HFTI",
    8: "Positive directional derivative for linesearch",
    9: "Iteration limit reached",
}


def scipy_extension(package, name):
    """The compiled module `scipy.<package>.<name>` ("special", "_ufuncs";
    "optimize", "_highspy._core"), loaded from its file without running any
    `__init__.py` of `scipy.<package>`; the module itself if it is already
    imported.

    A module that imports a sibling relative to its package (`_ufuncs`
    imports `expit` and more from `._special_ufuncs`) needs its package in
    `sys.modules`; without one, Python would run the package's
    `__init__.py`, which imports the half-loaded module and fails.  When
    the package is not imported, a bare stand-in whose `__path__` is the
    package's directory takes its place while the file loads.

    Loading a single-phase extension also registers it, and any module it
    imports, in `sys.modules`; a later `import scipy.<package>` would find
    those entries there and so never set them as attributes of their
    package.  Every `scipy.<package>` entry, the stand-in included, is put
    back as it was found, and that import then hands back the same
    objects."""
    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    root = f"scipy.{package}"

    def entries():
        return [k for k in sys.modules if k == root or k.startswith(root + ".")]

    found = {key: sys.modules[key] for key in entries()}
    directory = os.path.join(os.path.dirname(scipy.__file__), package)
    if root not in found:
        stand_in = types.ModuleType(root)
        stand_in.__path__ = [directory]
        sys.modules[root] = stand_in
    path = os.path.join(directory, *name.split("."))
    spec = importlib.util.spec_from_file_location(
        full, path + importlib.machinery.EXTENSION_SUFFIXES[0]
    )
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        for key in entries():
            if key in found:
                sys.modules[key] = found[key]
            else:
                del sys.modules[key]
    return module


_ufuncs = scipy_extension("special", "_ufuncs")
expit = _ufuncs.expit
betaincinv = _ufuncs.betaincinv
highs = scipy_extension("optimize", "_highspy._core")
linear_sum_assignment = scipy_extension("optimize", "_lsap").linear_sum_assignment
_slsqp_kernel = scipy_extension("optimize", "_slsqplib").slsqp


@dataclass(frozen=True, eq=False)
class SlsqpResult:
    """Final x, exit mode and iteration count of one SLSQP run, as
    `minimize` reports them in `.x`, `.status` and `.nit`."""

    x: np.ndarray
    status: int
    nit: int

    @property
    def success(self) -> bool:
        return self.status == 0

    @property
    def message(self) -> str:
        return SLSQP_EXIT_MODES[self.status]


def slsqp(fun, x0, lower, upper, ftol, maxiter, constraints=None, jacobian=None):
    """SLSQP on `fun`, which returns (value, gradient), over
    `lower <= x <= upper` (an infinite bound leaves that side free) and,
    when given, `constraints(x) >= 0`, a vector whose Jacobian is
    `jacobian(x)`, from `x0` clipped into the bounds.  Bit for bit
    `minimize(method="SLSQP", jac=True)` with the same options and either
    no constraints or one block of inequality constraints.

    Runs scipy 1.17's loop around the kernel, with its state, workspace
    sizes and NaN for an infinite bound: the kernel asks for f and the
    constraints (mode 1) or for their gradients (mode -1) at its x, and
    any other mode ends the run.  `fun` is evaluated once per point, on a
    copy of that x, and its gradient is handed over when the kernel asks
    for one at the same point, as `minimize(jac=True)` memoizes it.  The
    constraint callables get the kernel's x itself, which the kernel
    overwrites, so they must not keep it.  The final x can lie outside a
    bound by an ulp or two (scipy gh-11403)."""
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    n = x.size
    at = x.copy()
    f, g = value, gradient = fun(at)
    if constraints is None:
        # one zero row stands for the empty block
        m, C, d = 0, np.zeros((1, n), order="F"), np.zeros(1)
    else:
        d = np.array(constraints(x), dtype=float)
        m = d.size
        C = np.zeros((m, n), order="F")
        C[:] = jacobian(x)
    xl = np.where(np.isfinite(lower), lower, np.nan)
    xu = np.where(np.isfinite(upper), upper, np.nan)
    state = {
        "acc": ftol, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
        "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * ftol,
        "exact": 0, "inconsistent": 0, "reset": 0, "iter": 0,
        "itermax": int(maxiter), "line": 0, "m": m, "meq": 0, "mode": 0, "n": n,
    }
    # the kernel's workspace, sized as scipy sizes it with no equality rows,
    # topped up where there are no inequality rows either
    mult = np.zeros(m + 2 * n + 2)
    indices = np.zeros(m + 2 * n + 2, np.int32)
    size = n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28
    buffer = np.zeros(size + (2 * n * (n + 1) if m == 0 else 0))
    while True:
        _slsqp_kernel(state, f, g, C, d, x, mult, xl, xu, buffer, indices)
        mode = state["mode"]
        if abs(mode) != 1:
            return SlsqpResult(x, mode, state["iter"])
        if not np.array_equal(x, at):
            at = x.copy()
            value, gradient = fun(at)
        if mode == 1:
            f = value
            if constraints is not None:
                d[:] = constraints(x)
        else:
            g = gradient
            if constraints is not None:
                C[:] = jacobian(x)
