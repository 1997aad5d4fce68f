"""Linear programs for the exact oracles, solved by the HiGHS simplex.

Every LP in the package has the form

    minimize c @ x   subject to   A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0

and is first solved by the serial dual simplex of HiGHS (Huangfu & Hall,
"Parallelizing the dual revised simplex method", Math. Prog. Comp. 2018),
through one of two doors:

- `HighsModel` keeps one LP alive over fixed rows, takes new columns and new
  costs, and re-optimizes from its last basis with the primal simplex.
  New costs and new columns leave that basis primal feasible, so the
  primal simplex goes on from it, as column generation has re-optimized
  its master since Gilmore & Gomory (Oper. Res. 1961); the dual simplex
  would first have to restore dual feasibility.  `linprog` is stateless and
  always starts cold, so an LP re-solved many times under small changes
  goes through this door: the restricted worst-case LP of
  `oracle.PayoffLp`, which takes its seed and every priced column as new
  columns and each new payoff as new costs, of which only those that
  changed reach HiGHS.  So does a transport problem
  (`solve_transportation`) that is not an assignment, whose cell columns
  it takes without the sparse assembly `linprog` would need.  It drives the
  same HiGHS build `linprog` does, scipy.optimize's compiled
  `_highspy._core`, which `kernels` loads from its file.
- `solve_lp` makes one call of `scipy.optimize.linprog(method="highs-ds")`;
  constraint matrices may be dense arrays or `scipy.sparse` matrices.  No
  module of the package calls it: only the test reference mass LP behind
  `feasible_distributions` (`tests/reference.py`) does.  It stays while
  the benchmark's tracer wraps it by name, which
  `tests/test_bench_contract.py` checks.  It imports `linprog` in its own
  body, so no command-line run imports the `scipy.optimize` package.

Both use the same tolerances, and a cold solve runs the same serial dual
simplex through either door (`HighsModel` also turns presolve off).  The
serial dual and primal simplex are both deterministic, so repeated solves
of the same LP, or of the same sequence of changes to one model, return
the same vertex bit for bit.

Every transport problem in the package is between two uniform samples, so
`solve_transportation` takes only the cost matrix.  When the larger size is
a multiple of the smaller it is an assignment problem, and
`solve_transportation` gives it to scipy.optimize's `linear_sum_assignment`
(from `kernels`) instead of an LP.  The support-to-atoms couplings of
`oracle` are of this kind whenever the atom count divides the support size
or the reverse.
Median time of one call, HiGHS against the assignment, on two-cluster
points (one core): 5.8 against 1.0 ms at 200 x 20, 5.8 against 2.1 ms at
20 x 200, 2.2 against 0.2 ms at 100 x 20, 1.5 against 0.08 ms at 60 x 20,
0.52 against 0.08 s at 1000 x 100 and 1.4 against 0.8 s at 2000 x 100.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import highs, linear_sum_assignment

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# HiGHS status codes that carry a verdict; any other code is a solver failure
_STATUSES = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}

# primal and dual feasibility tolerances; HiGHS's default of 1e-7 leaves the
# worst case over a singleton decision set 8e-10 off its exact loss
FEASIBILITY_TOL = 1e-10


@dataclass(eq=False)
class LpResult:
    """Status, solution and value of one LP.

    At an optimum `eq_marginals` and `ub_marginals` hold HiGHS's duals: the
    derivative of the optimal value in each right-hand side, so the
    `ub_marginals` are nonpositive.
    """

    status: str
    x: np.ndarray | None
    value: float | None
    eq_marginals: np.ndarray | None = None
    ub_marginals: np.ndarray | None = None


class PivotLimitError(RuntimeError):
    """Raised when HiGHS stops without an optimum: `HighsModel.solve` on any
    other outcome, `solve_lp` on one with no verdict (iteration limit,
    numerical trouble)."""


@dataclass(eq=False)
class ModelResult:
    """Optimal solution, row duals and simplex iterations of one model solve.

    `row_duals` are in the sign convention of `LpResult`'s marginals.
    """

    x: np.ndarray
    row_duals: np.ndarray
    iterations: int


_SERIAL_DUAL_SIMPLEX = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_PRIMAL_SIMPLEX = highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal


class HighsModel:
    """A persistent HiGHS LP over fixed rows: min c @ x, lower <= A x <= upper, x >= 0.

    Columns arrive by `add_columns` and keep their order; `set_costs`
    replaces every cost, but passes HiGHS only the costs whose bit pattern
    differs from the one it last gave it, so a change at two rows of a
    payoff costs two rows' columns, not every column, and HiGHS solves the
    same model; `solve` re-optimizes from the basis the last solve left, so
    a solve after a small change takes a fraction of a cold start's
    pivots.  Presolve is off, which keeps that basis valid across changes;
    the tolerances are those of `solve_lp`.  The first
    solve is `solve_lp`'s serial dual simplex; every later one runs the
    primal simplex, which keeps the last basis's primal feasibility:
    replaying the cut-set runs of the `bound_strong` benchmark workload, it
    took 925 pivots where the dual simplex took 2144.  Every model the
    package builds is feasible by construction (see `oracle.PayoffLp` and
    `solve_transportation`), so a solve returns an optimum or raises.
    """

    def __init__(self, row_lower, row_upper):
        lower = np.asarray(row_lower, dtype=float)
        upper = np.asarray(row_upper, dtype=float)
        self._highs = highs._Highs()
        self._resolving = False
        # the cost of every column as HiGHS holds it, in column order
        self._costs = np.zeros(0)
        for option, value in (
            ("output_flag", False),
            ("presolve", "off"),
            ("simplex_strategy", _SERIAL_DUAL_SIMPLEX),
            ("primal_feasibility_tolerance", FEASIBILITY_TOL),
            ("dual_feasibility_tolerance", FEASIBILITY_TOL),
        ):
            self._set_option(option, value)
        self._highs.addRows(
            lower.size,
            np.where(np.isinf(lower), -highs.kHighsInf, lower),
            np.where(np.isinf(upper), highs.kHighsInf, upper),
            0,
            np.zeros(lower.size, dtype=np.int32),
            np.zeros(0, dtype=np.int32),
            np.zeros(0),
        )

    def _set_option(self, option, value):
        if self._highs.setOptionValue(option, value) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejected option {option}={value!r}")

    def add_columns(self, costs, starts, rows, values):
        """Append columns in compressed-column form: column j holds
        `values[starts[j]:starts[j + 1]]` at `rows[starts[j]:starts[j + 1]]`
        (`starts` has one entry per new column, the end is implied)."""
        costs = np.asarray(costs, dtype=float)
        self._costs = np.concatenate([self._costs, costs])
        self._highs.addCols(
            costs.size,
            costs,
            np.zeros(costs.size),
            np.full(costs.size, highs.kHighsInf),
            len(values),
            np.asarray(starts, dtype=np.int32),
            np.asarray(rows, dtype=np.int32),
            np.asarray(values, dtype=float),
        )

    def set_costs(self, costs):
        """Replace the cost of every column, in column order.

        Only the entries whose bits changed go to HiGHS, so +0.0 and -0.0
        count as different costs."""
        costs = np.array(costs, dtype=float)
        if costs.shape != self._costs.shape:
            raise ValueError(
                f"expected {self._costs.size} costs, got shape {costs.shape}"
            )
        changed = np.flatnonzero(costs.view(np.int64) != self._costs.view(np.int64))
        self._highs.changeColsCost(
            changed.size, changed.astype(np.int32), costs[changed]
        )
        self._costs = costs

    def solve(self) -> ModelResult:
        """Re-optimize; the optimal x is clipped at zero, as in `solve_lp`.

        The first solve is the cold serial dual simplex; every later one
        runs the primal simplex from the basis the last solve left.  Raises
        `PivotLimitError` when HiGHS stops without an optimum."""
        self._highs.run()
        if not self._resolving:
            self._set_option("simplex_strategy", _PRIMAL_SIMPLEX)
            self._resolving = True
        model_status = self._highs.getModelStatus()
        if model_status != highs.HighsModelStatus.kOptimal:
            raise PivotLimitError(
                "HiGHS stopped without an optimum: "
                + self._highs.modelStatusToString(model_status)
            )
        solution = self._highs.getSolution()
        return ModelResult(
            np.maximum(np.asarray(solution.col_value), 0.0),
            np.asarray(solution.row_dual),
            int(self._highs.getInfo().simplex_iteration_count),
        )


def solve_lp(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None):
    """Solve min c@x s.t. A_eq x = b_eq, A_ub x <= b_ub, x >= 0.

    Returns an LpResult with status 'optimal' (x, value and the marginals
    set), 'infeasible', or 'unbounded'.  The optimal x is clipped at zero, so
    it is exactly nonnegative, and the value is c @ x at the clipped point.
    """
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=float).ravel()
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs-ds",
        options={
            "primal_feasibility_tolerance": FEASIBILITY_TOL,
            "dual_feasibility_tolerance": FEASIBILITY_TOL,
        },
    )
    status = _STATUSES.get(result.status)
    if status is None:
        raise PivotLimitError(f"HiGHS stopped without a verdict: {result.message}")
    if status != OPTIMAL:
        return LpResult(status, None, None)
    x = np.maximum(result.x, 0.0)
    return LpResult(
        OPTIMAL, x, float(c @ x), result.eqlin.marginals, result.ineqlin.marginals
    )


def solve_transportation(cost):
    """Exact minimum-cost transport plan between two uniform samples.

    The (m, n) cost matrix is all the input: the transport is from the
    uniform distribution on its m rows to the uniform distribution on its
    n columns, as between the package's empirical samples.  The shape alone
    picks one of two exact solvers.  When the larger size is a multiple of
    the smaller, repeating each point of the smaller side max/min times
    gives a square problem between uniform marginals, whose polytope has
    the permutations as vertices (Birkhoff-von Neumann; Peyre & Cuturi,
    "Computational Optimal Transport", 2019, section 3.1), so scipy's
    `linear_sum_assignment` (Crouse, IEEE TAES 2016) solves it.  Its plan
    gives each assigned cell the larger side's unit mass, 1/m or 1/n, so
    that side's marginals are met exactly.  Every other shape is one cold
    solve on a `HighsModel`, whose plan is the optimal vertex the dual
    simplex reaches.  Both solvers are deterministic, so repeated calls
    return the same plan bit for bit.

    Parameters
    ----------
    cost : (m, n) array
        Finite per-unit transport costs.

    Returns
    -------
    value : float
        Optimal total transport cost.
    plan : (m, n) ndarray
        Optimal plan; its rows each sum to 1/m and its columns to 1/n, up
        to rounding.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or 0 in cost.shape:
        raise ValueError("cost must be a nonempty 2-d array")
    # distances between unstandardized cells near the float limit overflow
    if not np.isfinite(cost).all():
        raise ValueError("costs must be finite")
    m, n = cost.shape
    if max(m, n) % min(m, n) == 0:
        plan = _assignment_plan(cost)
    else:
        plan = _simplex_plan(cost)
    return float((cost * plan).sum()), plan


def _assignment_plan(cost):
    """Optimal plan when the larger size is a multiple of the smaller: the
    larger side goes on the assignment's rows and each point of the smaller
    side is repeated as `copies` columns."""
    m, n = cost.shape
    plan = np.zeros((m, n))
    if m >= n:
        copies = m // n
        rows, slots = linear_sum_assignment(np.repeat(cost, copies, axis=1))
        plan[rows, slots // copies] = 1.0 / m
    else:
        copies = n // m
        columns, slots = linear_sum_assignment(np.repeat(cost.T, copies, axis=1))
        plan[slots // copies, columns] = 1.0 / n
    return plan


def _simplex_plan(cost):
    """Optimal vertex of the transport LP from one cold `HighsModel` solve."""
    m, n = cost.shape
    # plan cell (r, c) is column r * n + c, with a unit entry in supply row r
    # and, unless c is the last column, in the demand row of c.  The last
    # column's row is implied by the others and is left out, so marginals
    # whose totals differ by rounding (7 * (1/7) is 1 - 2.2e-16) still give
    # a feasible LP: its column absorbs the difference.
    demand_row = np.append(m + np.arange(n - 1), -1)
    entries = np.stack(
        [np.repeat(np.arange(m), n), np.tile(demand_row, m)], axis=1
    ).ravel()
    entries = entries[entries >= 0]
    counts = np.tile(1 + (demand_row >= 0), m)
    marginals = np.concatenate([np.full(m, 1.0 / m), np.full(n - 1, 1.0 / n)])
    model = HighsModel(marginals, marginals)
    model.add_columns(
        cost.ravel(), np.cumsum(counts) - counts, entries, np.ones(entries.size)
    )
    return model.solve().x.reshape(m, n)
