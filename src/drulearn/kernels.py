"""scipy's compiled modules, loaded without their packages, and the two
optimizer loops the package runs around scipy.optimize's kernels.

The package reaches scipy through six compiled modules:
- `scipy.special._ufuncs`, for the `expit` and `betaincinv` ufuncs, the
  very objects `scipy.special` exports;
- `scipy.sparse._sparsetools`, for `csr_matvec` and `csr_matvecs`, the
  routines `csr_array @` calls (`SparseRows`);
- four of scipy.optimize's: the HiGHS build (`_highspy._core`), L-BFGS-B's
  `setulb` (`_lbfgsb`), the assignment solver (`_lsap`) and SLSQP's kernel
  (`_slsqplib`; Kraft, "A software package for sequential quadratic
  programming", DFVLR-FB 88-28, 1988).

`scipy_extension` loads each from its file, so no run executes the
`__init__.py` of `scipy.special`, `scipy.sparse` or `scipy.optimize`.
Each of those imports `scipy._lib._util`, whose `scipy._lib._array_api`
imports `array_api_compat.numpy` and with it `numpy.f2py`,
`numpy.testing`, `numpy.ma` and `numpy.fft`; `scipy.optimize` adds
`linprog`, `shgo`, `scipy.linalg` and `scipy.fft`.  On one core,
`scipy.special` and `scipy.sparse` cost about 0.19 s of CPU and 22 MB at
every start, and `scipy.optimize` about 0.15-0.2 s and 18 MB more.  `_ufuncs` imports a sibling module
relative to `scipy.special`, so while it loads, a bare stand-in package
with `scipy/special` as its path takes the package's place in
`sys.modules`; without it Python would run `scipy/special/__init__.py`,
which imports the half-loaded `_ufuncs` and fails.  The one other scipy
import in the package is `linprog`, inside `simplex.solve_lp`, which no
command-line path calls.

`lbfgsb` and `slsqp` run the loops scipy 1.17's `minimize` runs around
`setulb` and `_slsqplib.slsqp`, without its per-call setup and its
`ScalarFunction` wrappers, so their iterates are `minimize`'s bit for bit.

This module holds every tie the package has to scipy's internals: a scipy
release that moves one of these files, makes a package's stand-in
insufficient, or changes a kernel's arguments, the loop `minimize` runs
around it or the layout and routines behind `csr_array @`, breaks this
module alone.  These tests then fail: `tests/test_imports.py`, which loads
every module, runs every subcommand without the three packages and
compares the loaded objects with the packages'; and
`tests/test_bounds.py::TestLbfgsbDriver`, `TestSlsqpDriver` and
`TestCutProduct`, which compare the drivers with `minimize` and the cut
products with `csr_array`, bit for bit.  scipy 1.17.1 is the tested
release.
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

# the rest of scipy's L-BFGS-B defaults: stored correction pairs, line-search
# steps per iteration, and the evaluation count past which it stops
LBFGSB_MEMORY = 10
LBFGSB_LINE_SEARCH_STEPS = 20
LBFGSB_MAX_EVALUATIONS = 15000

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
_sparsetools = scipy_extension("sparse", "_sparsetools")
highs = scipy_extension("optimize", "_highspy._core")
linear_sum_assignment = scipy_extension("optimize", "_lsap").linear_sum_assignment
setulb = scipy_extension("optimize", "_lbfgsb").setulb
_slsqp_kernel = scipy_extension("optimize", "_slsqplib").slsqp


class SparseRows:
    """The nonzeros of a dense float matrix, row by row, laid out as
    `scipy.sparse.csr_array(dense)` lays them out: row-major order and
    int32 indices.  `rows @ x` calls the `_sparsetools` routine that
    `csr_array @ x` calls, `csr_matvec` for a vector and `csr_matvecs` for
    a matrix, so each row's sum runs over the same terms in the same order
    and gives the same bits."""

    def __init__(self, dense):
        dense = np.asarray(dense, dtype=float)
        nonzero = dense != 0
        self.shape = dense.shape
        self.indptr = np.zeros(dense.shape[0] + 1, np.int32)
        np.cumsum(nonzero.sum(axis=1), out=self.indptr[1:])
        self.indices = np.nonzero(nonzero)[1].astype(np.int32)
        self.data = dense[nonzero]

    def __matmul__(self, other):
        m, n = self.shape
        parts = self.indptr, self.indices, self.data
        if other.ndim == 1:
            result = np.zeros(m)
            _sparsetools.csr_matvec(m, n, *parts, other, result)
            return result
        result = np.zeros((m, other.shape[1]))
        _sparsetools.csr_matvecs(
            m, n, other.shape[1], *parts, other.ravel(), result.ravel()
        )
        return result


def lbfgsb(fun, x0, lower, args, maxiter, ftol, gtol):
    """L-BFGS-B on `fun(x, *args)`, which returns (value, gradient), over
    x >= `lower` (-inf leaves a variable free), from `x0` clipped into the
    bounds.  Returns the final x and the evaluation count, bit for bit
    `minimize`'s `.x` and `.nfev` under the same options.

    Runs scipy 1.17's loop around `setulb`: `fun` is evaluated at the start
    and whenever `setulb` asks for it (task 3) at an x other than the last
    one evaluated; after each iteration (task 1) the run stops at `maxiter`
    iterations or past `LBFGSB_MAX_EVALUATIONS` evaluations."""
    n = x0.size
    bounded = np.isfinite(lower)
    # L-BFGS-B's bound type per variable: 0 free, 1 bounded below only
    nbd = bounded.astype(np.int32)
    low, high = np.where(bounded, lower, 0.0), np.zeros(n)
    x = np.clip(x0, lower, np.inf)
    evaluated = x.copy()
    f, g = fun(evaluated, *args)
    evaluations, iterations = 1, 0
    factr = ftol / np.finfo(float).eps
    # setulb's workspace and saved state, sized as scipy sizes them
    m = LBFGSB_MEMORY
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    while True:
        setulb(
            m, x, low, high, nbd, f, g, factr, gtol, wa, iwa,
            task, lsave, isave, dsave, LBFGSB_LINE_SEARCH_STEPS, ln_task,
        )
        if task[0] == 3:
            if not np.array_equal(x, evaluated):
                evaluated = x.copy()
                f, g = fun(evaluated, *args)
                evaluations += 1
        elif task[0] == 1:
            iterations += 1
            if iterations >= maxiter:
                task[:] = 5, 504
            elif evaluations > LBFGSB_MAX_EVALUATIONS:
                task[:] = 5, 502
        else:
            return x, evaluations


@dataclass(frozen=True)
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


def slsqp(fun, grad, x0, lower, upper, constraints, jacobian, ftol, maxiter):
    """SLSQP on `fun`, with gradient `grad`, over `lower <= x <= upper`
    (an infinite bound leaves that side free) and `constraints(x) >= 0`,
    a vector whose Jacobian is `jacobian(x)`, from `x0` clipped into the
    bounds.  Bit for bit `minimize(method="SLSQP")` with the same options
    and one block of inequality constraints.

    Runs scipy 1.17's loop around the kernel, with its state, workspace
    sizes and NaN for an infinite bound: the kernel asks for f and the
    constraints (mode 1) or for their gradients (mode -1) at its x, and
    any other mode ends the run.  The callables get that x itself, which
    the kernel overwrites, so they must not keep it."""
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    n = x.size
    f, g = fun(x), grad(x)
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
    # the kernel's workspace, sized as scipy sizes it with no equality rows
    mult = np.zeros(m + 2 * n + 2)
    indices = np.zeros(m + 2 * n + 2, np.int32)
    buffer = np.zeros(n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28)
    while True:
        _slsqp_kernel(state, f, g, C, d, x, mult, xl, xu, buffer, indices)
        if state["mode"] == 1:
            f = fun(x)
            d[:] = constraints(x)
        elif state["mode"] == -1:
            g = grad(x)
            C[:] = jacobian(x)
        else:
            return SlsqpResult(x, state["mode"], state["iter"])
