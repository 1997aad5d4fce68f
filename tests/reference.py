"""Test-only reference implementations that the package's fast paths are
checked against: the ground transport cost of one pair of labeled points,
the worst-case LP assembled in full for `linprog` (over the decision set, or
over the plain transport ball with `prior=None`), the minimal radius by
bisection on that full LP's feasibility, vertices of the decision set from the
full mass LP by `linprog` (weighted samples, with their transport distance
to the labeled atoms), the certificate kernel before
`model.CellLayout`, which the layout kernel matches bit for bit, and the
worst-case LP's pricing and cost updates as they were before they skipped
what cannot change: every row sorted, every cost sent to HiGHS, and the
certificate search's six-stage smoothing schedule before it stopped after
its three coarse stages."""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from drulearn import oracle
from drulearn.model import (
    N_CLASSES,
    CellLayout,
    TransportCost,
    both_class_losses,
    make_rng,
    pair_costs,
)
from drulearn.oracle import BUDGET_SLACK
from drulearn.simplex import INFEASIBLE, HighsModel, solve_lp, solve_transportation

# `bounds.SMOOTHING_SCHEDULE` before its three fine stages were dropped: they
# lower the search half's certificate further, but not the held-out half's
SIX_STAGE_SCHEDULE = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4)


def stacked(price, potentials, upper, lower):
    """The multiplier vector of these parts, in `model.multiplier_parts`'
    order."""
    return np.concatenate([[price], potentials, upper, lower])


def sample_layout(theta, data, features, cost=TransportCost()):
    """The `model.CellLayout` on which a dual point at the weights `theta`
    is priced: the (n, d) feature matrix's losses and its transport costs
    to the labeled atoms of `data`."""
    return CellLayout(
        both_class_losses(theta, features), pair_costs(features, data, cost)
    )


def transport_cost(x1, y1, x2, y2, cost):
    """Ground cost between labeled points (x1, y1) and (x2, y2) under the
    `model.TransportCost` `cost`.

    Labels are {0, 1}; a flip contributes exactly cost.label_flip_cost.
    """
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    if x1.shape != x2.shape:
        raise ValueError("dimension mismatch between labeled points")
    flip = cost.label_flip_cost * (np.asarray(y1) != np.asarray(y2))
    return np.sqrt(((x1 - x2) ** 2).sum(axis=-1)) + flip


def full_lp_reference(theta, support, data, prior, eps, cost):
    """Independent route at scale: the worst-case LP over every (support
    point, label, atom) column, assembled sparse for linprog at the
    oracle's own feasibility tolerance; `prior=None` gives the plain
    transport ball within the support.  Returns linprog's status and the
    value when it is optimal."""
    m, n_l = support.shape[0], data.n
    dist = np.linalg.norm(support[:, None, :] - data.features[None, :, :], axis=-1)
    flip = cost.label_flip_cost * (np.arange(2)[:, None] != data.labels[None, :])
    move = (dist[:, None, :] + flip[None, :, :]).ravel()
    j, k, i = np.unravel_index(np.arange(move.size), (m, 2, n_l))
    cols = np.arange(move.size)
    ones = np.ones(move.size)
    a_eq = [sparse.csr_array((ones, (i, cols)), (n_l, move.size))]
    b_eq = [np.full(n_l, 1.0 / n_l)]
    a_ub = [sparse.csr_array(move[None, :])]
    b_ub = [[eps + BUDGET_SLACK]]
    if prior is not None:
        a_eq.append(sparse.csr_array((ones, (j, cols)), (m, move.size)))
        b_eq.append(np.full(m, 1.0 / m))
        by_label = sparse.csr_array((ones, (k, cols)), (2, move.size))
        a_ub += [by_label, -by_label]
        b_ub += [prior.upper, -prior.lower]
    gain = both_class_losses(theta, support)[j, k]
    res = linprog(
        -gain,
        A_eq=sparse.vstack(a_eq),
        b_eq=np.concatenate(b_eq),
        A_ub=sparse.vstack(a_ub),
        b_ub=np.concatenate(b_ub),
        bounds=(0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    return res.status, (-res.fun if res.status == 0 else None)


def min_feasible_radius_bisect(data, support, prior, cost, tol=1e-7):
    """Cross-check path for `oracle.min_feasible_radius`: bisect the radius
    on the feasibility of `full_lp_reference`, the worst-case LP over every
    column, which shares neither the closed form nor its transport plan.

    Doubles an upper bracket until the LP reports feasible, then bisects the
    feasibility boundary to width `tol` and returns the feasible end.
    """
    zero_theta = np.zeros(data.dim)

    def feasible(eps):
        status, _ = full_lp_reference(zero_theta, support, data, prior, eps, cost)
        if status not in (0, 2):
            raise RuntimeError(f"linprog stopped with status {status}")
        return status == 0

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


def _solve_mass_lp(gain, pair, prior, eps):
    """Maximize `gain` over the joint mass pi[j, i, k] on every column.

    `gain` and `pair` are (support point, labeled atom, label) tensors.
    The mass ranges over the decision set: the labeled-atom and support
    marginals are pinned to uniform, the total transport cost is capped at
    `eps` and per-label mass is bounded by the prior box.  One `linprog`
    call (`simplex.solve_lp`), cold, over the full LP, on the rows and
    columns of `oracle._row_bounds` and `oracle._column_entries`;
    `feasible_distributions` enumerates vertices with it, independently of
    the persistent model `oracle.PayoffLp` keeps.  Returns the simplex
    result of the negated (minimization) problem, so the objective value is
    left to the caller.
    """
    m, n_l, _ = pair.shape
    _, upper, n_eq = oracle._row_bounds(m, n_l, prior, eps)
    columns = np.arange(pair.size)
    rows, values = oracle._column_entries(columns, pair)
    owner = np.repeat(columns, rows.shape[1])
    matrix = sparse.csr_array(
        (values.ravel(), (rows.ravel(), owner)), (upper.size, columns.size)
    )
    return solve_lp(
        -gain.ravel(),
        a_eq=matrix[:n_eq],
        b_eq=upper[:n_eq],
        a_ub=matrix[n_eq:],
        b_ub=upper[n_eq:],
    )


@dataclass(frozen=True, eq=False)
class WeightedSample:
    """A distribution on finitely many labeled points, `weights[i]` on point
    i: a decision-set vertex, as `feasible_distributions` returns them."""

    features: np.ndarray
    labels: np.ndarray
    weights: np.ndarray


def weighted_wasserstein(sample, data, cost):
    """Transport distance from a `WeightedSample` to the uniform labeled
    sample `data`, and an optimal coupling: one `solve_transportation` call
    on the sample's weights and data's 1/n."""
    pair = pair_costs(sample.features, data, cost)
    pair = pair[np.arange(sample.labels.size), :, sample.labels]
    return solve_transportation(pair, sample.weights, np.full(data.n, 1.0 / data.n))


def feasible_distributions(data, support, prior, eps, cost, count=10, seed=0):
    """Enumerate vertices of the decision set by optimizing random objectives.

    Each draw maximizes a random linear functional of the joint mass over
    the same constraint set as `oracle.solve_worst_case_lp`; the support
    marginal of the solution is a feasible distribution (a vertex of the
    decision set).  Returns `count` such distributions; raises if the set is empty.
    """
    support = np.atleast_2d(np.asarray(support, dtype=float))
    pair = pair_costs(support, data, cost)
    m = support.shape[0]
    rng = make_rng(seed)
    out = []
    for _ in range(count):
        direction = rng.normal(size=(m, N_CLASSES))
        objective = np.broadcast_to(direction[:, None, :], pair.shape)
        result = _solve_mass_lp(objective, pair, prior, eps)
        if result.status == INFEASIBLE:
            raise ValueError("decision set is empty at this radius")
        mass = result.x.reshape(pair.shape).sum(axis=1)
        weights = np.maximum(mass.ravel(), 0.0)
        out.append(
            WeightedSample(
                features=np.repeat(support, N_CLASSES, axis=0),
                labels=np.tile(np.arange(N_CLASSES), m),
                weights=weights / weights.sum(),
            )
        )
    return out


def flat_smoothed_bound(params, table, pair, data, prior, eps, z_score, tau):
    """`bounds._smoothed_bound` as it was before `model.CellLayout`: the
    flat (n, 2 * n_labeled) cells rebuilt from the loss table and the
    transport costs on every call (`np.tile` and `np.repeat`), means taken
    by `mean`, and `np.exp` called on every scaled cell, however far below
    the underflow threshold."""
    n_l = data.n
    alpha, potentials = params[0], params[1 : 1 + n_l]
    upper, lower = params[1 + n_l : 3 + n_l], params[3 + n_l :]
    n = table.shape[0]
    flat = np.tile(table, n_l) - alpha * pair.reshape(n, -1)
    flat -= np.repeat(potentials, N_CLASSES)
    flat -= np.tile(upper - lower, n_l)
    top = flat.max(axis=1)
    flat -= top[:, None]
    flat /= tau
    np.exp(flat, out=flat)
    total = flat.sum(axis=1)
    values = top + tau * np.log(total)
    mean = values.mean()
    linear = (
        alpha * eps
        + potentials.mean()
        + upper @ prior.upper
        - lower @ prior.lower
    )
    value = linear + mean
    weight = np.full(n, 1.0 / n)
    if z_score > 0.0:
        centered = values - mean
        spread = math.sqrt(centered @ centered / (n - 1))
        value += z_score * spread / math.sqrt(n)
        if spread > 0.0:
            weight += z_score / math.sqrt(n) * centered / ((n - 1) * spread)
    share = weight / total
    mass = (share @ flat).reshape(n_l, N_CLASSES)
    label_mass = mass.sum(axis=0)
    moved = share @ np.einsum("ij,ij->i", flat, pair.reshape(n, -1))
    grad = np.concatenate(
        [
            [eps - moved],
            1.0 / n_l - mass.sum(axis=1),
            prior.upper - label_mass,
            label_mass - prior.lower,
        ]
    )
    return float(value), grad


def on_layout(kernel):
    """`kernel`, which takes (params, table, pair, data, prior, eps,
    z_score, tau), called the way `bounds._smoothed_bound` is: with a
    `model.CellLayout` in place of the table, the costs and the data.  The
    table is the layout's first two loss columns, the costs its flat costs
    reshaped, and the data stands in for the labeled atoms' count."""

    def on(params, layout, prior, eps, z_score, tau):
        n, n_l = layout.costs.shape[0], layout.n_labeled
        table = layout.losses[:, :N_CLASSES]
        pair = layout.costs.reshape(n, n_l, N_CLASSES)
        data = SimpleNamespace(n=n_l)
        return kernel(params, table, pair, data, prior, eps, z_score, tau)

    return on


def bits(array):
    """The bytes of a float array, so that +0.0 and -0.0 differ."""
    return np.asarray(array, dtype=float).tobytes()


def full_row_entering(reduced):
    """`oracle._entering_columns` before its row filter: every row of the
    reduced-cost matrix is stable-argsorted, whether or not it holds an
    entry above `oracle.PRICING_TOL`."""
    best = np.argsort(-reduced, axis=1, kind="stable")[:, : oracle.COLUMNS_PER_POINT]
    entering = np.take_along_axis(reduced, best, axis=1) > oracle.PRICING_TOL
    points = np.nonzero(entering)[0]
    return np.sort(points * reduced.shape[1] + best[entering])


class AllCostsModel(HighsModel):
    """`simplex.HighsModel` whose `set_costs` sends HiGHS every column's
    cost, changed or not, as it did before it sent only the changed ones."""

    def set_costs(self, costs):
        count = self._highs.getNumCol()
        self._highs.changeColsCost(
            count, np.arange(count, dtype=np.int32), np.asarray(costs, dtype=float)
        )


def payoff_solve_bits(model, result):
    """The bytes of one `oracle.PayoffLp.solve`: the columns its model holds
    afterwards, value, masses and multipliers."""
    return (
        model.n_columns,
        bits(result.value),
        bits(result.support_mass),
        bits(result.multipliers),
    )


def model_solve_bits(result):
    """The bytes of one `simplex.ModelResult`: x, row duals and simplex
    iterations."""
    return bits(result.x), bits(result.row_duals), result.iterations
