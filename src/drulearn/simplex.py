"""Linear programs for the exact oracles, solved by the HiGHS dual simplex.

Every LP in the package has the form

    minimize c @ x   subject to   A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0

and goes through one call of `scipy.optimize.linprog(method="highs-ds")`
(Huangfu & Hall, "Parallelizing the dual revised simplex method", Math. Prog.
Comp. 2018).  Constraint matrices may be dense arrays or `scipy.sparse`
matrices.  The serial dual simplex is deterministic, so repeated solves of
the same LP return the same vertex bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# HiGHS status codes that carry a verdict; any other code is a solver failure
_STATUSES = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}

# primal and dual feasibility tolerances; HiGHS's default of 1e-7 leaves the
# worst case over a singleton decision set 8e-10 off its exact loss
FEASIBILITY_TOL = 1e-10


@dataclass
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

    @property
    def ok(self):
        return self.status == OPTIMAL


class PivotLimitError(RuntimeError):
    """Raised when HiGHS stops without a verdict (iteration limit, numerical trouble)."""


def solve_lp(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None):
    """Solve min c@x s.t. A_eq x = b_eq, A_ub x <= b_ub, x >= 0.

    Returns an LpResult with status 'optimal' (x, value and the marginals
    set), 'infeasible', or 'unbounded'.  The optimal x is clipped at zero, so
    it is exactly nonnegative, and the value is c @ x at the clipped point.
    """
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


def solve_transportation(cost, supply, demand):
    """Exact minimum-cost transport plan between two finite distributions.

    Parameters
    ----------
    cost : (m, n) array
        Per-unit transport costs.
    supply, demand : (m,) and (n,) arrays
        Nonnegative marginals with equal totals.

    Returns
    -------
    value : float
        Optimal total transport cost.
    plan : (m, n) ndarray
        Optimal plan; row sums equal ``supply`` and column sums ``demand``.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-d array")
    m, n = cost.shape
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    if supply.shape != (m,) or demand.shape != (n,):
        raise ValueError("marginal shapes do not match the cost matrix")
    if np.any(supply < 0.0) or np.any(demand < 0.0):
        raise ValueError("marginals must be nonnegative")
    total = supply.sum()
    if abs(total - demand.sum()) > 1e-9 * max(1.0, abs(total)):
        raise ValueError("total supply and total demand must balance")

    # plan cell (r, c) is variable r * n + c: row sums, then column sums.  The
    # sum of the last largest column is implied by the others and is left
    # out, so totals that balance only to the tolerance above still give a
    # feasible LP: that column absorbs the imbalance.
    columns = np.arange(n) != n - 1 - np.argmax(demand[::-1])
    marginals = sparse.vstack(
        [
            sparse.kron(sparse.eye(m), np.ones((1, n))),
            sparse.kron(np.ones((1, m)), sparse.eye(n, format="csr")[columns]),
        ]
    )
    result = solve_lp(
        cost.ravel(), a_eq=marginals, b_eq=np.concatenate([supply, demand[columns]])
    )
    if not result.ok:
        raise PivotLimitError(f"balanced transport LP reported {result.status}")
    plan = result.x.reshape(m, n)
    return float((cost * plan).sum()), plan
