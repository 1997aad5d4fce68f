"""Exact small-scale ground truth for the worst-case risk machinery.

Solves the worst-case expected-loss (or any expected-payoff) linear program
over a finite support, either over the decision set (given a label prior) or
over the plain transport ball (`prior=None`), computes exact transport
distances between finitely supported distributions, and finds the smallest
transport radius with a nonempty decision set: one transport distance plus a
closed-form label-flip term.  Every LP is assembled from sparse constraint
blocks and solved by the HiGHS dual simplex (see `simplex`), so everything
here is deterministic and exact up to its 1e-10 feasibility tolerances,
which is what makes it usable as the reference side of two-route checks
(`dual.duality_gap_check` sets the stochastic dual solver against it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .model import (
    N_CLASSES,
    DiscreteDistribution,
    LabeledDataset,
    LabelPrior,
    TransportCost,
    both_class_losses,
    feature_distances,
    make_rng,
    pair_costs,
)
from .simplex import INFEASIBLE, OPTIMAL, solve_lp, solve_transportation

# slack added to the transport-budget right-hand side so feasibility does not
# flap at the boundary radius
BUDGET_SLACK = 1e-9


@dataclass(frozen=True)
class CouplingPlan:
    """Joint mass matrix between two atom lists, with its marginals."""

    matrix: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray

    @staticmethod
    def from_matrix(matrix) -> "CouplingPlan":
        matrix = np.maximum(np.asarray(matrix, dtype=float), 0.0)
        return CouplingPlan(
            matrix=matrix,
            row_marginals=matrix.sum(axis=1),
            col_marginals=matrix.sum(axis=0),
        )


@dataclass(frozen=True)
class WorstCaseLpResult:
    """Outcome of a worst-case LP solve; value and plan exist iff optimal."""

    value: float | None
    plan: CouplingPlan | None
    status: str


def discrete_wasserstein(
    mu: DiscreteDistribution, nu: DiscreteDistribution, cost: TransportCost
):
    """Exact transport distance between two finitely supported distributions.

    Returns the optimal value and an optimal coupling whose marginals
    reproduce the two weight vectors.
    """
    pair = pair_costs(mu.features, nu, cost)[np.arange(mu.n), :, mu.labels]
    value, plan = solve_transportation(pair, mu.weights, nu.weights)
    return value, CouplingPlan.from_matrix(plan)


def _atom_marginal_rows(m, n_l):
    """Equality rows fixing the labeled-atom marginal of the (j,k,i) mass."""
    return sparse.kron(np.ones((1, m * N_CLASSES)), sparse.eye(n_l))


def _support_marginal_rows(m, n_l):
    """Equality rows fixing the feature marginal over the support points."""
    return sparse.kron(sparse.eye(m), np.ones((1, N_CLASSES * n_l)))


def _label_mass_rows(m, n_l):
    """Total-mass-per-label rows, one per class."""
    per_label = sparse.kron(sparse.eye(N_CLASSES), np.ones((1, n_l)))
    return sparse.kron(np.ones((1, m)), per_label)


def _solve_mass_lp(objective, move, prior: LabelPrior | None, eps: float):
    """Maximize `objective` over the joint mass variables pi[j, k, i].

    Always pins the labeled-atom marginal to uniform and caps the total
    transport cost at `eps`.  With a prior it also pins the support marginal
    to uniform and bounds per-label mass by the prior box (the decision
    set); with `prior=None` the mass ranges over the plain transport ball.
    Returns the simplex result of the negated (minimization) problem, so
    the objective value is left to the caller.
    """
    m, _, n_l = move.shape
    a_eq = [_atom_marginal_rows(m, n_l)]
    b_eq = [np.full(n_l, 1.0 / n_l)]
    a_ub = [sparse.csr_array(move.reshape(1, -1))]
    b_ub = [np.array([eps + BUDGET_SLACK])]
    if prior is not None:
        a_eq.append(_support_marginal_rows(m, n_l))
        b_eq.append(np.full(m, 1.0 / m))
        label_rows = _label_mass_rows(m, n_l)
        a_ub.append(label_rows)
        b_ub.append(prior.upper)
        a_ub.append(-label_rows)
        b_ub.append(-prior.lower)
    return solve_lp(
        -objective.ravel(),
        a_eq=sparse.vstack(a_eq),
        b_eq=np.concatenate(b_eq),
        a_ub=sparse.vstack(a_ub),
        b_ub=np.concatenate(b_ub),
    )


def _plan_from_solution(x, m, n_l):
    """Reshape a mass vector into a (support x label, labeled atom) coupling."""
    return CouplingPlan.from_matrix(x.reshape(m * N_CLASSES, n_l))


def solve_payoff_lp(
    payoff,
    support,
    data: LabeledDataset,
    prior: LabelPrior | None,
    eps: float,
    cost: TransportCost,
) -> WorstCaseLpResult:
    """Exact maximum expected payoff over the decision set or the ball.

    `payoff` is a (support point, candidate label) table.  The adversary
    places mass on those pairs, subject to: total transport cost to the
    labeled atoms at most `eps` and labeled-atom marginal uniform.  With a
    `prior`, the support marginal is also uniform and the per-label mass
    stays inside the prior box: the full decision set.  With `prior=None`
    only the budget and the atom marginal remain: the transport ball within
    the given support.
    """
    support = np.atleast_2d(np.asarray(support, dtype=float))
    move = pair_costs(support, data, cost).transpose(0, 2, 1)
    objective = np.broadcast_to(
        np.asarray(payoff, dtype=float)[:, :, None], move.shape
    )
    result = _solve_mass_lp(objective, move, prior, eps)
    if result.status != OPTIMAL:
        return WorstCaseLpResult(value=None, plan=None, status=result.status)
    value = float(objective.ravel() @ result.x)
    return WorstCaseLpResult(
        value=value, plan=_plan_from_solution(result.x, support.shape[0], data.n),
        status=OPTIMAL,
    )


def solve_worst_case_lp(
    theta,
    support,
    data: LabeledDataset,
    prior: LabelPrior | None,
    eps: float,
    cost: TransportCost,
) -> WorstCaseLpResult:
    """Exact worst-case expected logistic loss over the decision set or the ball.

    The payoff of each (support point, label) pair is its logistic loss (see
    `solve_payoff_lp`).  With `prior=None` the value lower-bounds the
    unconstrained-domain ball worst case.
    """
    support = np.atleast_2d(np.asarray(support, dtype=float))
    return solve_payoff_lp(
        both_class_losses(theta, support), support, data, prior, eps, cost
    )


def min_feasible_radius(
    data: LabeledDataset,
    support,
    prior: LabelPrior,
    cost: TransportCost,
) -> float:
    """Smallest transport budget for which the decision set is nonempty:

        W(uniform support, uniform labeled atoms; feature distance)
        + label_flip_cost * max(L - p, p - U, 0),

    with p the atoms' share of positive labels and [L, U] the positive mass
    the prior box allows, L = max(lower_1, 1 - upper_0) and
    U = min(upper_1, 1 - lower_0).  Summed over labels, a feasible mass plan
    couples the two uniform marginals, so its feature part costs at least W;
    the atom marginal fixes the positive mass at p before any flip, and each
    unit moved across labels costs the flip cost.  Relabeling part of an
    optimal coupling attains both terms at once.
    """
    distances = feature_distances(support, data.features)
    m, n_l = distances.shape
    distance, _ = solve_transportation(
        distances, np.full(m, 1.0 / m), np.full(n_l, 1.0 / n_l)
    )
    share = float(data.labels.mean())
    low = max(prior.lower[1], 1.0 - prior.upper[0])
    high = min(prior.upper[1], 1.0 - prior.lower[0])
    flipped = max(low - share, share - high, 0.0)
    return max(distance + cost.label_flip_cost * float(flipped), 0.0)


def min_feasible_radius_bisect(
    data: LabeledDataset,
    support,
    prior: LabelPrior,
    cost: TransportCost,
    tol: float = 1e-7,
) -> float:
    """Cross-check path: bisect the radius on worst-case-LP feasibility.

    Doubles an upper bracket until the LP reports feasible, then bisects the
    feasibility boundary to width `tol` and returns the feasible end.
    """
    zero_theta = np.zeros(data.dim)

    def feasible(eps):
        return (
            solve_worst_case_lp(zero_theta, support, data, prior, eps, cost).status
            == OPTIMAL
        )

    lo, hi = 0.0, 1.0
    while not feasible(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e9:
            raise ValueError("no feasible radius found below 1e9")
    if feasible(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def feasible_distributions(
    data: LabeledDataset,
    support,
    prior: LabelPrior,
    eps: float,
    cost: TransportCost,
    count: int = 10,
    seed: int = 0,
):
    """Enumerate vertices of the decision set by optimizing random objectives.

    Each draw maximizes a random linear functional of the joint mass over
    the same constraint set as `solve_worst_case_lp`; the support marginal
    of the solution is a feasible distribution (a vertex of the decision
    set).  Returns `count` such distributions; raises if the set is empty.
    """
    support = np.atleast_2d(np.asarray(support, dtype=float))
    move = pair_costs(support, data, cost).transpose(0, 2, 1)
    m, n_l = support.shape[0], data.n
    rng = make_rng(seed)
    out = []
    for _ in range(count):
        direction = rng.normal(size=(m, N_CLASSES))
        objective = np.broadcast_to(direction[:, :, None], move.shape)
        result = _solve_mass_lp(objective, move, prior, eps)
        if result.status == INFEASIBLE:
            raise ValueError("decision set is empty at this radius")
        mass = result.x.reshape(m, N_CLASSES, n_l).sum(axis=2)
        weights = np.maximum(mass.ravel(), 0.0)
        out.append(
            DiscreteDistribution(
                features=np.repeat(support, N_CLASSES, axis=0),
                labels=np.tile(np.arange(N_CLASSES), m),
                weights=weights / weights.sum(),
            )
        )
    return out
