"""Exact small-scale ground truth for the worst-case risk machinery.

Solves the worst-case expected-loss (or any expected-payoff) linear program
over the decision set on a finite support, computes exact transport
distances between finitely supported distributions, and finds the smallest
transport radius with a nonempty decision set: one transport distance plus a
closed-form label-flip term, which decides feasibility exactly: below it
`require_feasible_radius` raises, and `PayoffLp` calls it before building
an LP, so every LP here is feasible.  Every LP is assembled from sparse
columns and solved by the HiGHS simplex (see `simplex`).  The worst-case LP goes
through column generation on a persistent `simplex.HighsModel` (`PayoffLp`),
which returns the full LP's value, optimal duals and (support point, label)
masses while holding only some of its columns, and re-optimizes from its
last basis by the primal simplex when the payoff changes.  The duals come
back as one multiplier vector (`model.multiplier_parts`), which
`dual.DualState` holds as it is.  The LP's columns are the (support point,
atom, label) cells of `model.pair_costs`, and their
reduced costs are the dual's cells, `model.CellLayout.cells`, less the
support points' duals.  A re-solve pays for what changed: pricing sorts
only the support points that have a column to enter, and HiGHS is sent
only the costs that changed.  Transport problems go to
`simplex.solve_transportation`, which takes only their cost matrix: every
one is between two uniform samples, so the shape alone decides between one
`linear_sum_assignment` call, when the larger size is a multiple of the
smaller, and one cold `HighsModel` solve.  The transport from the
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
    LabeledDataset,
    LabelPrior,
    TransportCost,
    both_class_losses,
    feature_distances,
    pair_costs,
)
from .simplex import HighsModel, solve_transportation

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


@dataclass(frozen=True, eq=False)
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
    distance, plan = solve_transportation(feature_distances(support, atoms))
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


@dataclass(frozen=True, eq=False)
class WorstCaseLpResult:
    """Optimum of a worst-case LP: `support_mass[j, k]` is the maximizing
    distribution's mass on support point j with label k; each row sums to
    1/m.  `multipliers` are its optimal duals, a multiplier vector
    (`model.multiplier_parts`) in the sign conventions of `dual.DualState`."""

    value: float
    support_mass: np.ndarray
    multipliers: np.ndarray


def discrete_wasserstein(mu: LabeledDataset, nu: LabeledDataset, cost: TransportCost):
    """Exact transport distance between two uniform empirical samples.

    Each sample puts mass 1/n on each of its n labeled points.  Returns the
    optimal value and an optimal coupling, an (mu.n, nu.n) array whose rows
    each sum to 1/mu.n and whose columns each sum to 1/nu.n.
    """
    pair = pair_costs(mu.features, nu, cost)[np.arange(mu.n), :, mu.labels]
    return solve_transportation(pair)


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

    Returns the multiplier vector, the budget's and label bounds' duals
    clipped at zero, and the per-support-point duals.
    """
    duals = -row_duals
    ub = np.maximum(duals[n_l + m :], 0.0)
    return np.concatenate([ub[:1], duals[:n_l], ub[1:]]), duals[n_l : n_l + m]


def _entering_columns(reduced):
    """The flat indices, in increasing order, of the columns a pricing round
    brings in: per row of the (support point, column) matrix `reduced`, up
    to `COLUMNS_PER_POINT` of its largest entries above `PRICING_TOL`, ties
    going to the lower column.

    Only a row holding an entry above the tolerance has a column to enter,
    so only those rows are stable-sorted: the same columns enter, in the
    same order, as when every row is.
    """
    rows = np.flatnonzero((reduced > PRICING_TOL).any(axis=1))
    if not rows.size:
        return rows
    width = reduced.shape[1]
    reduced = reduced[rows]
    best = np.argsort(-reduced, axis=1, kind="stable")[:, :COLUMNS_PER_POINT]
    entering = np.take_along_axis(reduced, best, axis=1) > PRICING_TOL
    return np.sort(rows[np.nonzero(entering)[0]] * width + best[entering])


class PayoffLp:
    """Exact maximum expected payoff over the decision set, kept alive
    across payoffs.

    `payoff` is a (support point, candidate label) table.  The adversary
    places mass on (support point, labeled atom, label) columns, indexed as
    `model.pair_costs` lays them out, subject to: total transport cost to
    the labeled atoms at most `eps`, labeled-atom and support marginals
    uniform, and per-label mass inside the `prior` box.

    Construction first calls `require_feasible_radius`.  The LP is solved
    by column generation (Gilmore & Gomory, Oper. Res. 1961) on one
    `simplex.HighsModel`.  The restricted LP starts from the cells of
    `uniform_coupling`'s minimal-cost plan, with both labels, which hold a
    point of the decision set at every radius that passes that check, so
    the restricted LP is feasible too.  Each solve lays the payoff out on one
    `model.CellLayout`; a column's reduced cost under the restricted LP's
    duals is its dual cell (`CellLayout.cells`) minus its support point's
    dual.  Per support point and round, up to `COLUMNS_PER_POINT` columns
    whose reduced cost exceeds `PRICING_TOL` enter (`_entering_columns`,
    which sorts only the rows holding one).  It stops when none does, so
    the duals are feasible for the full LP and the value is the full LP's
    to within `PRICING_TOL`.

    The rows depend only on the support, the atoms, the prior and the
    radius, so every `solve` reuses the model: it sets the new payoff's
    costs, of which `simplex.HighsModel.set_costs` sends only those that
    changed (a `score_dr` payoff changes two rows' columns), and
    re-optimizes from the last basis, over every column any earlier solve
    brought in.  New costs and new columns keep that basis
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
        require_feasible_radius(data, support, prior, cost, eps)
        self._pair = pair_costs(support, data, cost)
        m, n_l, _ = self._pair.shape
        lower, upper, _ = _row_bounds(m, n_l, prior, eps)
        self._model = HighsModel(lower, upper)
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
            multipliers, support_duals = _multipliers(result.row_duals, m, n_l)
            reduced = layout.cells(multipliers) - support_duals[:, None]
            reduced.ravel()[self._columns] = -np.inf
            columns = _entering_columns(reduced)
            if not columns.size:
                break
            self._add(columns, gain)
        support, _, label = np.unravel_index(self._columns, pair.shape)
        cells = support * N_CLASSES + label
        mass = np.bincount(cells, np.maximum(result.x, 0.0), m * N_CLASSES)
        return WorstCaseLpResult(
            value=float(gain[self._columns] @ result.x),
            support_mass=mass.reshape(m, N_CLASSES),
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


class InfeasibleRadiusError(RuntimeError):
    """The decision set is empty: the dual is unbounded below."""


def require_feasible_radius(data, support, prior, cost, eps):
    """Raise `InfeasibleRadiusError` when `eps` plus `BUDGET_SLACK` is below
    `min_feasible_radius`: the decision set is then empty and the dual
    unbounded below.  The package decides feasibility here alone."""
    eps_min = min_feasible_radius(data, support, prior, cost)
    if eps + BUDGET_SLACK < eps_min:
        raise InfeasibleRadiusError(
            f"transport radius too small for the prior: {float(eps)} is below "
            f"the minimal feasible radius {eps_min}"
        )
