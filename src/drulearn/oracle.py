"""Exact small-scale ground truth for the worst-case risk machinery.

Solves the worst-case expected-loss (or any expected-payoff) linear program
over the decision set on a finite support, computes exact transport
distances between finitely supported distributions, and finds the smallest
transport radius with a nonempty decision set: one transport distance plus a
closed-form label-flip term.  Every LP is assembled from sparse columns and
solved by the HiGHS simplex (see `simplex`).  The worst-case LP goes
through column generation on a persistent `simplex.HighsModel` (`PayoffLp`),
which returns the full LP's value, optimal duals and (support point, label)
masses while holding only some of its columns, and re-optimizes from its
last basis by the primal simplex when the payoff changes.  Its columns are
the (support point, atom, label) cells of `model.pair_costs`, and their
reduced costs are the dual's cells, `model.CellLayout.cells`, less the
support points' duals.  Transport problems go to
`simplex.solve_transportation`: one `linear_sum_assignment` call when both
marginals are uniform and the larger size is a multiple of the smaller, one
cold `HighsModel` solve otherwise.  The transport from the
uniform support to the uniform labeled atoms (`UniformCoupling`) depends on
the two point sets alone, so `uniform_coupling` solves it once per pair and
keeps the last `COUPLINGS_KEPT`; the minimal radius reads its distance and
`PayoffLp`'s restricted LP starts from its cells.
The test reference `feasible_distributions` (`tests/reference.py`) solves
the same rows and columns (`_row_bounds`, `_column_entries`) by one
stateless `linprog` call per draw.  Everything here is deterministic and
exact up to its 1e-10 feasibility tolerances, which is what makes it
usable as the reference side of two-route checks (`dual.duality_gap_check`
sets the full dual objective at the worst-case LP's own multipliers
against its value).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import (
    N_CLASSES,
    CellLayout,
    DiscreteDistribution,
    LabeledDataset,
    LabelPrior,
    TransportCost,
    both_class_losses,
    feature_distances,
    pair_costs,
)
from .simplex import OPTIMAL, HighsModel, solve_transportation

# slack added to the transport-budget right-hand side so feasibility does not
# flap at the boundary radius
BUDGET_SLACK = 1e-9

# column generation for the worst-case LP (see `PayoffLp`): columns added
# per support point and round, and the reduced cost above which a column
# enters
COLUMNS_PER_POINT = 5
PRICING_TOL = 1e-9

# support-to-atoms couplings `uniform_coupling` keeps: an instance needs two,
# its whole unlabeled sample and `bounds.certify`'s search half
COUPLINGS_KEPT = 4


@dataclass(frozen=True)
class UniformCoupling:
    """Optimal transport from the uniform support to the uniform labeled atoms.

    `distance` is its cost under the feature distance, the W of
    `min_feasible_radius`; `supports` and `atoms` index the (support point,
    atom) cells its optimal plan puts mass on, which seed `PayoffLp`'s
    restricted LP, with both labels.  It does not depend on the prior,
    so one value serves every prior box over the same support and atoms.
    """

    distance: float
    supports: np.ndarray
    atoms: np.ndarray


def _points_key(points):
    """A hashable, exact copy of a float point matrix: its shape and bytes."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return points.shape, points.tobytes()


@functools.lru_cache(maxsize=COUPLINGS_KEPT)
def _solve_coupling(support_key, atoms_key) -> UniformCoupling:
    """The `UniformCoupling` of two `_points_key` matrices: one transport solve."""
    support, atoms = (
        np.frombuffer(raw).reshape(shape) for shape, raw in (support_key, atoms_key)
    )
    distances = feature_distances(support, atoms)
    m, n_l = distances.shape
    distance, plan = solve_transportation(
        distances, np.full(m, 1.0 / m), np.full(n_l, 1.0 / n_l)
    )
    cells = np.nonzero(plan > 0.0)
    for index in cells:
        index.flags.writeable = False
    return UniformCoupling(distance, *cells)


def uniform_coupling(data: LabeledDataset, support) -> UniformCoupling:
    """The transport from the uniform `support` to `data`'s uniform atoms.

    It depends on the two feature matrices alone, labels aside, so one
    `simplex.solve_transportation` call serves every caller with equal
    matrices: the last `COUPLINGS_KEPT` pairs are kept, keyed by their
    shapes and bytes, and the value returned is shared (its index arrays
    are read-only).
    """
    return _solve_coupling(_points_key(support), _points_key(data.features))


@dataclass(frozen=True)
class LpMultipliers:
    """Optimal duals of a worst-case LP.

    The transport price, one potential per labeled atom and the prices of
    the upper and lower label-probability bounds, in the sign conventions of
    `dual.DualState`.
    """

    transport_mult: float
    atom_potentials: np.ndarray
    label_upper_mult: np.ndarray
    label_lower_mult: np.ndarray


@dataclass(frozen=True)
class WorstCaseLpResult:
    """Outcome of a worst-case LP solve; value, masses and multipliers exist
    iff optimal.  `support_mass[j, k]` is the maximizing distribution's mass
    on support point j with label k; each row sums to 1/m."""

    value: float | None
    support_mass: np.ndarray | None
    status: str
    multipliers: LpMultipliers | None = None


def discrete_wasserstein(
    mu: DiscreteDistribution, nu: DiscreteDistribution, cost: TransportCost
):
    """Exact transport distance between two finitely supported distributions.

    Returns the optimal value and an optimal coupling, an (mu.n, nu.n)
    array whose row and column sums reproduce the two weight vectors.
    """
    pair = pair_costs(mu.features, nu, cost)[np.arange(mu.n), :, mu.labels]
    return solve_transportation(pair, mu.weights, nu.weights)


def _row_bounds(m, n_l, prior: LabelPrior, eps: float):
    """Lower and upper bounds of the mass LP's rows, and its equality count.

    Equality rows are the n_l labeled atoms, then the m support points;
    inequality rows are the budget, then the two upper and the two lower
    label bounds.  Every LP over the joint mass uses this row order and
    `_column_entries`'s columns.
    """
    eq = np.concatenate([np.full(n_l, 1.0 / n_l), np.full(m, 1.0 / m)])
    ub = np.concatenate([[eps + BUDGET_SLACK], prior.upper, -prior.lower])
    lower = np.concatenate([eq, np.full(ub.size, -np.inf)])
    return lower, np.concatenate([eq, ub]), eq.size


def _column_entries(columns, pair):
    """Rows and values of the mass LP's columns, one row of each per column.

    `columns` are flat indices into the (support point, labeled atom, label)
    tensor `pair` of `model.pair_costs`.  A column puts unit mass on its
    atom's row and its support point's, spends its transport cost from the
    budget, and counts toward its label's upper bound and, negated, toward
    its lower bound.  Rows are numbered as in `_row_bounds`.
    """
    m, n_l, _ = pair.shape
    support, atom, label = np.unravel_index(columns, pair.shape)
    ones = np.ones(columns.size)
    budget = np.full(columns.size, n_l + m)
    upper = budget + 1 + label
    rows = [atom, n_l + support, budget, upper, upper + N_CLASSES]
    values = [ones, ones, pair.ravel()[columns], ones, -ones]
    return np.stack(rows, axis=1), np.stack(values, axis=1)


def _multipliers(row_duals, m: int, n_l: int):
    """Decision-set duals from HiGHS's row duals of the negated LP.

    Returns the multipliers and the per-support-point duals.
    """
    duals = -row_duals
    eq, ub = duals[: n_l + m], duals[n_l + m :]
    multipliers = LpMultipliers(
        transport_mult=max(float(ub[0]), 0.0),
        atom_potentials=eq[:n_l],
        label_upper_mult=np.maximum(ub[1 : 1 + N_CLASSES], 0.0),
        label_lower_mult=np.maximum(ub[1 + N_CLASSES :], 0.0),
    )
    return multipliers, eq[n_l:]


class PayoffLp:
    """Exact maximum expected payoff over the decision set, kept alive
    across payoffs.

    `payoff` is a (support point, candidate label) table.  The adversary
    places mass on (support point, labeled atom, label) columns, indexed as
    `model.pair_costs` lays them out, subject to: total transport cost to
    the labeled atoms at most `eps`, labeled-atom and support marginals
    uniform, and per-label mass inside the `prior` box.

    Solved by column generation (Gilmore & Gomory, Oper. Res. 1961) on one
    `simplex.HighsModel`.  The restricted LP starts from the cells of
    `uniform_coupling`'s minimal-cost plan, with both labels, which hold a
    point of the decision set at every radius from `min_feasible_radius`
    up.  It is then feasible exactly when the full LP is, so its first
    verdict is final.  Each solve lays the payoff out on one
    `model.CellLayout`; a column's reduced cost under the restricted LP's
    duals is its dual cell (`CellLayout.cells`) minus its support point's
    dual.  Per support point and round, up to `COLUMNS_PER_POINT` columns
    whose reduced cost exceeds `PRICING_TOL` enter.  It stops when none does, so the duals are
    feasible for the full LP and the value is the full LP's to within
    `PRICING_TOL`.

    The rows depend only on the support, the atoms, the prior and the
    radius, so every `solve` reuses the model: it sets the new payoff's
    costs and re-optimizes from the last basis, over every column any
    earlier solve brought in.  New costs and new columns keep that basis
    primal feasible, so every solve after the model's first runs the
    primal simplex (see `simplex.HighsModel`).  Values then agree with a
    fresh model's to about 1e-12, not bit for bit; a sequence of solves on
    a fresh model is deterministic.
    """

    def __init__(
        self,
        support,
        data: LabeledDataset,
        prior: LabelPrior,
        eps: float,
        cost: TransportCost,
    ):
        support = np.atleast_2d(np.asarray(support, dtype=float))
        self._pair = pair_costs(support, data, cost)
        m, n_l, _ = self._pair.shape
        lower, upper, _ = _row_bounds(m, n_l, prior, eps)
        self._model = HighsModel(lower, upper)
        self._active = np.zeros(self._pair.shape, dtype=bool)
        self._columns = np.zeros(0, dtype=np.intp)
        coupling = uniform_coupling(data, support)
        seed = np.zeros(self._pair.shape, dtype=bool)
        seed[coupling.supports, coupling.atoms] = True
        self._add(np.flatnonzero(seed), np.zeros(self._pair.size))

    @property
    def n_columns(self) -> int:
        """Columns the model holds: the seed, plus every column priced in."""
        return self._columns.size

    def _add(self, columns, gain):
        """Bring the flat `columns` into the model at the costs of `gain`."""
        rows, values = _column_entries(columns, self._pair)
        self._model.add_columns(
            -gain[columns],
            np.arange(columns.size) * rows.shape[1],
            rows.ravel(),
            values.ravel(),
        )
        self._active.ravel()[columns] = True
        self._columns = np.concatenate([self._columns, columns])

    def solve(self, payoff) -> WorstCaseLpResult:
        """Maximize the expected `payoff` (see the class docstring).

        Its `support_mass` is one `np.bincount` of the active columns'
        clipped masses over their (support point, label) pairs."""
        pair = self._pair
        m, n_l, _ = pair.shape
        layout = CellLayout(np.asarray(payoff, dtype=float), pair)
        gain = layout.losses.ravel()
        self._model.set_costs(-gain[self._columns])
        while True:
            result = self._model.solve()
            if result.status != OPTIMAL:
                return WorstCaseLpResult(None, None, result.status)
            multipliers, support_duals = _multipliers(result.row_duals, m, n_l)
            reduced = layout.cells(
                multipliers.transport_mult,
                multipliers.atom_potentials,
                multipliers.label_upper_mult - multipliers.label_lower_mult,
            ) - support_duals[:, None]
            reduced[self._active.reshape(m, -1)] = -np.inf
            best = np.argsort(-reduced, axis=1, kind="stable")[:, :COLUMNS_PER_POINT]
            entering = np.take_along_axis(reduced, best, axis=1) > PRICING_TOL
            if not entering.any():
                break
            points = np.nonzero(entering)[0]
            self._add(np.sort(points * reduced.shape[1] + best[entering]), gain)
        support, _, label = np.unravel_index(self._columns, pair.shape)
        cells = support * N_CLASSES + label
        mass = np.bincount(cells, np.maximum(result.x, 0.0), m * N_CLASSES)
        return WorstCaseLpResult(
            value=float(gain[self._columns] @ result.x),
            support_mass=mass.reshape(m, N_CLASSES),
            status=OPTIMAL,
            multipliers=multipliers,
        )


def solve_worst_case_lp(
    theta,
    support,
    data: LabeledDataset,
    prior: LabelPrior,
    eps: float,
    cost: TransportCost,
) -> WorstCaseLpResult:
    """Exact worst-case expected logistic loss over the decision set.

    One `PayoffLp` solve on a fresh model, the payoff of each (support
    point, label) pair being its logistic loss.
    """
    support = np.atleast_2d(np.asarray(support, dtype=float))
    model = PayoffLp(support, data, prior, eps, cost)
    return model.solve(both_class_losses(theta, support))


def positive_share_range(prior: LabelPrior):
    """[L, U], the positive-class mass the prior box allows:
    L = max(lower_1, 1 - upper_0) and U = min(upper_1, 1 - lower_0)."""
    low = max(float(prior.lower[1]), 1.0 - float(prior.upper[0]))
    high = min(float(prior.upper[1]), 1.0 - float(prior.lower[0]))
    return low, high


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
    optimal coupling attains both terms at once.  W is the distance of
    `uniform_coupling`.
    """
    distance = uniform_coupling(data, support).distance
    share = float(data.labels.mean())
    low, high = positive_share_range(prior)
    flipped = max(low - share, share - high, 0.0)
    return max(distance + cost.label_flip_cost * float(flipped), 0.0)
