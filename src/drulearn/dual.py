"""Dual formulation of the constrained worst-case risk, the exact trainer,
and the stochastic dual solver.

The worst case over distributions that (a) stay within a transport budget of
the labeled empirical distribution and (b) satisfy marginal/label-probability
constraints admits a finite-dimensional dual: minimize, over a transport
multiplier, one potential per labeled atom, and per-class label multipliers,

    transport_mult * radius
    + mean(atom_potentials)
    + label_upper_mult @ prior.upper - label_lower_mult @ prior.lower
    + mean over unlabeled x of  max over cells of cell(x).

Each "cell" pairs one labeled atom with one candidate label; its value at x
is the logistic loss at the candidate label minus the charges the
multipliers levy for moving mass there.  All dual points live in
`DualState`.  Every evaluation is batched: a `model.CellLayout` gives the
cells of a block of points and `max_cell_values` their per-point maxima,
from which `dual_objective` prices a dual point; `layout_max_values` gives
the maxima on a layout built once for many dual points.

Training is exact: `cutset_solve` minimizes the worst-case loss over the
weights by a cutting-set method over the exact worst-case LP and returns that
LP's multipliers as its dual point; its cuts are the LP's (support point,
label) masses.  `duality_gap_check` prices the dual objective at such a
multiplier point against the LP value.  `sgd_solve`, which descends the dual
in weights and multipliers jointly from unlabeled minibatches with Adam (or
plain SGD), is on no command-line path; it stays while the benchmark's
tracer wraps it by name, which `tests/test_bench_contract.py` checks.  Both
solvers first check the radius against `oracle.min_feasible_radius`: the
dual is bounded below exactly when the decision set is nonempty.  That
radius and the worst-case LPs' first columns come from the same
`oracle.uniform_coupling`, which solves the support-to-atoms transport once
per pair of point sets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .kernels import SparseRows, expit, slsqp
from .model import (
    N_CLASSES,
    CellLayout,
    LabeledDataset,
    LabelPrior,
    TransportCost,
    UnlabeledDataset,
    both_class_losses,
    loss_grad_theta,
    make_rng,
    pair_costs,
)
from .oracle import (
    BUDGET_SLACK,
    OPTIMAL,
    LpMultipliers,
    PayoffLp,
    min_feasible_radius,
    solve_worst_case_lp,
)

CONVERGED = "converged"
MAX_STEPS = "max_steps"

TRACE_FIELDS = ("step", "lr", "objective_estimate", "alpha_value", "theta_norm", "feasible")

# cutting-set training (see `cutset_solve`): the certified gap at which it
# stops, the most worst-case LPs it solves, the box |theta_i| <= THETA_BOX
# the master searches, and the master's SLSQP tolerance and iteration cap.
# A tolerance of 1e-12 made SLSQP stop with status 8 (no descent direction,
# already at the optimum) on about 2 % of random masters; 1e-10 did not.
CUT_GAP_TOL = 1e-6
CUT_LIMIT = 100
THETA_BOX = 50.0
MASTER_TOL = 1e-10
MASTER_MAX_ITER = 1000


class InfeasibleRadiusError(RuntimeError):
    """The decision set is empty: the dual is unbounded below."""


@dataclass(frozen=True)
class DualState:
    """One point of the dual feasible set.

    `transport_mult` prices the transport budget, `atom_potentials` hold one
    potential per labeled atom, and the label multipliers price the upper and
    lower label-probability bounds.  The sign-constrained components must be
    nonnegative.
    """

    theta: np.ndarray
    transport_mult: float
    atom_potentials: np.ndarray
    label_upper_mult: np.ndarray
    label_lower_mult: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        potentials = np.asarray(self.atom_potentials, dtype=float)
        upper = np.asarray(self.label_upper_mult, dtype=float)
        lower = np.asarray(self.label_lower_mult, dtype=float)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "atom_potentials", potentials)
        object.__setattr__(self, "label_upper_mult", upper)
        object.__setattr__(self, "label_lower_mult", lower)
        if theta.ndim != 1 or potentials.ndim != 1:
            raise ValueError("theta and atom_potentials must be vectors")
        if upper.shape != (N_CLASSES,) or lower.shape != (N_CLASSES,):
            raise ValueError("label multipliers must have one entry per class")
        if self.transport_mult < 0.0:
            raise ValueError("transport_mult must be nonnegative")
        if np.any(upper < 0.0) or np.any(lower < 0.0):
            raise ValueError("label multipliers must be nonnegative")

    @staticmethod
    def from_multipliers(theta, multipliers: LpMultipliers) -> "DualState":
        """`theta` with a worst-case LP's optimal multipliers."""
        return DualState(
            theta=theta,
            transport_mult=multipliers.transport_mult,
            atom_potentials=multipliers.atom_potentials,
            label_upper_mult=multipliers.label_upper_mult,
            label_lower_mult=multipliers.label_lower_mult,
        )


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the stochastic dual solver.

    `radius_eps` is the transport budget; the learning rate starts at
    `step_size` and is divided by `lr_decay_factor` every `lr_decay_every`
    steps.  The run stops once consecutive non-overlapping windows of
    `convergence_window` objective estimates agree to `convergence_tol`,
    or at `max_steps`.  With `tail_average` on, the returned state is the
    better of the final iterate and the mean of the last window of iterates
    — both are feasible dual points, so either value is a valid objective.
    `trace_path`, when set, receives the iteration log as CSV.
    """

    radius_eps: float
    step_size: float = 0.1
    batch_size: int = 100
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    lr_decay_factor: float = 8.0
    lr_decay_every: int = 10000
    max_steps: int = 200000
    seed: int = 0
    convergence_tol: float = 1e-4
    convergence_window: int = 1000
    use_adam: bool = True
    tail_average: bool = True
    trace_path: str | None = None
    trace_every: int = 100

    def __post_init__(self):
        if self.radius_eps < 0.0:
            raise ValueError("radius_eps must be nonnegative")
        if self.step_size <= 0.0:
            raise ValueError("step_size must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (0.0 < self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise ValueError("adam betas must lie strictly between 0 and 1")
        if self.lr_decay_every < 1 or self.convergence_window < 1:
            raise ValueError("decay and convergence intervals must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.convergence_tol <= 0.0:
            raise ValueError("convergence_tol must be positive")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one stochastic dual solve.

    `status` is "converged" or "max_steps".  `trace` rows are (step, lr,
    objective_estimate, alpha_value, theta_norm, feasible), one every
    `trace_every` steps; `feasible` is always true, since a radius below
    the minimal feasible radius raises before the first step.
    """

    status: str
    state: DualState
    objective: float
    trace: list = field(default_factory=list)


def _max_cells(cells):
    """Rowwise maximum of the flat cells (`CellLayout.cells`) and its first
    (atom-major) maximizer's atom and label."""
    arg = np.argmax(cells, axis=1)
    values = cells[np.arange(cells.shape[0]), arg]
    return values, arg // N_CLASSES, arg % N_CLASSES


def linear_part(alpha, potentials, upper_mult, lower_mult, prior, eps):
    return (
        alpha * eps
        + potentials.sum() / potentials.size
        + upper_mult @ prior.upper
        - lower_mult @ prior.lower
    )


def max_cell_values(state: DualState, data: LabeledDataset, features, cost: TransportCost):
    """Per-point inner maxima over all cells, for a block of feature rows."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    layout = CellLayout(
        both_class_losses(state.theta, features), pair_costs(features, data, cost)
    )
    return layout_max_values(state, layout)


def layout_max_values(state: DualState, layout: CellLayout):
    """Per-point inner maxima over the cells of `layout` at `state`'s
    multipliers; `layout` must hold the losses at `state.theta`."""
    cells = layout.cells(
        state.transport_mult,
        state.atom_potentials,
        state.label_upper_mult - state.label_lower_mult,
    )
    values, _, _ = _max_cells(cells)
    return values


def dual_objective(
    state: DualState,
    data: LabeledDataset,
    unlabeled: UnlabeledDataset,
    prior: LabelPrior,
    eps: float,
    cost: TransportCost,
):
    """Full-sample dual objective: linear multiplier terms plus mean max cell."""
    values = max_cell_values(state, data, unlabeled.features, cost)
    return objective_of_values(state, values, prior, eps)


def objective_of_values(state: DualState, values, prior: LabelPrior, eps: float):
    """The dual objective at `state` from its per-point maxima `values`."""
    return float(
        linear_part(
            state.transport_mult,
            state.atom_potentials,
            state.label_upper_mult,
            state.label_lower_mult,
            prior,
            eps,
        )
        + values.mean()
    )


def _unpack(params, dim, n_labeled):
    theta = params[:dim]
    alpha = params[dim]
    potentials = params[dim + 1 : dim + 1 + n_labeled]
    upper = params[dim + 1 + n_labeled : dim + 1 + n_labeled + N_CLASSES]
    lower = params[dim + 1 + n_labeled + N_CLASSES :]
    return theta, alpha, potentials, upper, lower


def _state_from_params(params, dim, n_labeled):
    theta, alpha, potentials, upper, lower = _unpack(params, dim, n_labeled)
    return DualState(
        theta=theta.copy(),
        transport_mult=float(alpha),
        atom_potentials=potentials.copy(),
        label_upper_mult=upper.copy(),
        label_lower_mult=lower.copy(),
    )


def learning_rate(config: SolverConfig, step: int) -> float:
    """`step_size` divided by `lr_decay_factor` once per `lr_decay_every` steps."""
    return config.step_size / config.lr_decay_factor ** (step // config.lr_decay_every)


def descent_update(grad, moments, step: int, lr: float, config: SolverConfig):
    """The update to subtract from the parameters at `step`, and the new
    (first, second) Adam `moments`; without `use_adam` the update is
    `lr * grad` and the moments pass through.
    """
    if not config.use_adam:
        return lr * grad, moments
    first, second = moments
    first = config.adam_beta1 * first + (1.0 - config.adam_beta1) * grad
    second = config.adam_beta2 * second + (1.0 - config.adam_beta2) * grad**2
    corrected1 = first / (1.0 - config.adam_beta1 ** (step + 1))
    corrected2 = second / (1.0 - config.adam_beta2 ** (step + 1))
    update = lr * corrected1 / (np.sqrt(corrected2) + config.adam_epsilon)
    return update, (first, second)


def _require_feasible_radius(data, unlabeled, prior, cost, eps):
    """Raise `InfeasibleRadiusError` when the radius plus the oracle's
    `BUDGET_SLACK` is below the minimal feasible radius: the decision set is
    then empty and the dual unbounded below."""
    eps_min = min_feasible_radius(data, unlabeled.features, prior, cost)
    if eps + BUDGET_SLACK < eps_min:
        raise InfeasibleRadiusError(
            f"transport radius too small for the prior: {float(eps)} is below "
            f"the minimal feasible radius {eps_min}"
        )


def sgd_solve(
    data: LabeledDataset,
    unlabeled: UnlabeledDataset,
    prior: LabelPrior,
    cost: TransportCost,
    config: SolverConfig,
    theta0=None,
    update_theta: bool = True,
):
    """Minimize the dual objective by projected stochastic subgradient steps.

    Each step draws `batch_size` unlabeled points uniformly with replacement,
    forms the batch-mean subgradient (deterministic linear terms plus the
    active-cell terms), applies an Adam or plain-SGD update, and clamps the
    sign-constrained multipliers at zero.  `update_theta` toggles descent in
    the weights; with it off the solve prices a fixed classifier.

    Raises `InfeasibleRadiusError` before the first step when the radius
    plus the oracle's `BUDGET_SLACK` is below the minimal feasible radius:
    the decision set is then empty and the dual unbounded below.
    """
    n_l, dim = data.n, data.dim
    n_u = unlabeled.n
    eps = config.radius_eps
    _require_feasible_radius(data, unlabeled, prior, cost, eps)

    pair = pair_costs(unlabeled.features, data, cost)
    n_params = dim + 1 + n_l + 2 * N_CLASSES
    params = np.zeros(n_params)
    if theta0 is not None:
        params[:dim] = np.asarray(theta0, dtype=float)

    moments = (np.zeros(n_params), np.zeros(n_params))
    alpha_at = dim
    upper_sl = slice(dim + 1 + n_l, dim + 1 + n_l + N_CLASSES)
    lower_sl = slice(dim + 1 + n_l + N_CLASSES, n_params)

    rng = make_rng(config.seed)
    trace = []
    estimates = []
    prev_window_mean = None
    status = MAX_STEPS
    tail_sum = np.zeros(n_params)
    tail_count = 0

    for step in range(config.max_steps):
        lr = learning_rate(config, step)
        idx = rng.integers(0, n_u, size=config.batch_size)
        batch = unlabeled.features[idx]
        theta, alpha, potentials, upper, lower = _unpack(params, dim, n_l)
        table = both_class_losses(theta, batch)
        cells = CellLayout(table, pair[idx]).cells(alpha, potentials, upper - lower)
        values, atom_star, label_star = _max_cells(cells)
        estimate = float(
            linear_part(alpha, potentials, upper, lower, prior, eps) + values.mean()
        )
        estimates.append(estimate)

        if step % config.trace_every == 0:
            trace.append(
                (step, lr, estimate, float(alpha), float(np.linalg.norm(theta)), True)
            )

        grad = np.zeros(n_params)
        if update_theta:
            grad[:dim] = loss_grad_theta(theta, batch, label_star).mean(axis=0)
        moved = pair[idx][np.arange(config.batch_size), atom_star, label_star]
        grad[alpha_at] = eps - moved.mean()
        atom_freq = np.bincount(atom_star, minlength=n_l) / config.batch_size
        grad[dim + 1 : dim + 1 + n_l] = 1.0 / n_l - atom_freq
        label_freq = np.bincount(label_star, minlength=N_CLASSES) / config.batch_size
        grad[upper_sl] = prior.upper - label_freq
        grad[lower_sl] = label_freq - prior.lower

        update, moments = descent_update(grad, moments, step, lr, config)
        params = params - update
        params[alpha_at] = max(params[alpha_at], 0.0)
        params[upper_sl] = np.maximum(params[upper_sl], 0.0)
        params[lower_sl] = np.maximum(params[lower_sl], 0.0)

        tail_sum += params
        tail_count += 1
        if tail_count > config.convergence_window:
            # restart the tail accumulator at window boundaries so the final
            # average spans at most the most recent window of iterates
            tail_sum = params.copy()
            tail_count = 1

        if (step + 1) % config.convergence_window == 0:
            window_mean = float(np.mean(estimates))
            estimates.clear()
            if (
                prev_window_mean is not None
                and abs(window_mean - prev_window_mean) < config.convergence_tol
            ):
                status = CONVERGED
                break
            prev_window_mean = window_mean

    best = _state_from_params(params, dim, n_l)
    best_value = dual_objective(best, data, unlabeled, prior, eps, cost)
    if config.tail_average and tail_count > 0:
        averaged = _state_from_params(tail_sum / tail_count, dim, n_l)
        averaged_value = dual_objective(averaged, data, unlabeled, prior, eps, cost)
        if averaged_value < best_value:
            best, best_value = averaged, averaged_value
    result = SolveResult(status, best, best_value, trace)

    if config.trace_path is not None:
        with open(config.trace_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(TRACE_FIELDS)
            writer.writerows(trace)
    return result


@dataclass(frozen=True)
class CutSetResult:
    """Outcome of one cutting-set training run.

    `theta` is the best classifier found and `upper` its exact worst-case
    loss; `lower` is the last master value, a lower bound on the worst case
    of every classifier in the `THETA_BOX`, so `gap` bounds how far `upper`
    is from optimal.  `lower` is capped at `upper`, itself an upper bound on
    that minimum: where the master is tight, the two are the same number
    computed along two routes, and rounding can cross them by a few ulps.
    `state` is `theta` with the worst-case LP's multipliers there, a dual
    point whose objective is `upper` up to `oracle.BUDGET_SLACK` times its
    transport price.  `status` is
    "converged" when the gap closed to `CUT_GAP_TOL` and "max_steps" when
    `CUT_LIMIT` worst-case LPs were solved first; `lps` counts them.
    """

    status: str
    state: DualState
    upper: float
    lower: float
    lps: int

    @property
    def theta(self) -> np.ndarray:
        return self.state.theta

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def _solve_master(cuts, features, theta_start):
    """Minimize t over (theta, t) with t >= E_P l(theta) for every cut P,
    a weight vector laid out as `both_class_losses(theta, features).ravel()`.

    One SLSQP solve with analytic Jacobians, theta confined to the
    `THETA_BOX`; returns the minimizing theta and the master value.
    """
    dim = theta_start.size
    rows = SparseRows(np.stack(cuts))
    repeated = np.repeat(features, N_CLASSES, axis=0)

    def slack(z):
        return z[dim] - rows @ both_class_losses(z[:dim], features).ravel()

    def slack_jacobian(z):
        residual = (expit(features @ z[:dim])[:, None] - np.arange(N_CLASSES)).ravel()
        jac = np.ones((len(cuts), dim + 1))
        jac[:, :dim] = -(rows @ (residual[:, None] * repeated))
        return jac

    start = np.append(theta_start, 0.0)
    start[dim] = float(np.max(-slack(start)))
    unit = np.zeros(dim + 1)
    unit[dim] = 1.0
    box = np.append(np.full(dim, THETA_BOX), np.inf)
    solution = slsqp(
        lambda z: z[dim],
        lambda z: unit,
        start,
        -box,
        box,
        constraints=slack,
        jacobian=slack_jacobian,
        ftol=MASTER_TOL,
        maxiter=MASTER_MAX_ITER,
    )
    if not solution.success:
        raise RuntimeError(
            f"cutting-set master failed: SLSQP status {solution.status} "
            f"({solution.message}) after {solution.nit} iterations"
        )
    return solution.x[:dim], float(solution.x[dim])


def _worst_case(model: PayoffLp, theta, features, eps):
    """Exact worst case at theta on the run's model: its value and its cut.

    The cut is the maximizing distribution's flattened (support point,
    label) masses, normalized to total 1: the LP's clipped masses can sum
    to 1 + 1e-13, which would lift the master's lower bound by that much
    times the loss.
    """
    result = model.solve(both_class_losses(theta, features))
    if result.status != OPTIMAL:
        raise InfeasibleRadiusError(
            f"worst-case LP reported {result.status} at radius {float(eps)}"
        )
    weights = result.support_mass.ravel()
    return result.value, weights / weights[weights > 0.0].sum()


def cutset_solve(
    data: LabeledDataset,
    unlabeled: UnlabeledDataset,
    prior: LabelPrior,
    cost: TransportCost,
    eps: float,
) -> CutSetResult:
    """Minimize the exact worst-case loss F(theta) by a cutting-set method.

    F(theta) is the value of the worst-case LP over the unlabeled support,
    convex in theta.  Each round solves the master problem over the
    worst-case distributions found so far (`_solve_master`), whose value is
    a lower bound on min F, then the worst-case LP at the master's theta,
    whose value is an upper bound and whose maximizing distribution is the
    next cut (Mutapcic & Boyd, "Cutting-set methods for robust convex
    optimization with pessimizing oracles", Optim. Methods Softw. 2009).
    The run's LPs share one `oracle.PayoffLp`: only the costs change
    between rounds, so each LP re-optimizes from the last one's basis and
    columns.  The best theta is then priced once more by a one-shot
    `solve_worst_case_lp`, so the reported `upper` and `state` are those of
    a fresh solve at theta, whatever the run's history.  Starts from
    theta = 0; see `CutSetResult`.  Raises `InfeasibleRadiusError` when the
    decision set is empty.
    """
    _require_feasible_radius(data, unlabeled, prior, cost, eps)
    model = PayoffLp(unlabeled.features, data, prior, eps, cost)
    best = np.zeros(data.dim)
    features = unlabeled.features
    upper, cut = _worst_case(model, best, features, eps)
    cuts = [cut]
    lower = -np.inf
    status = MAX_STEPS
    while len(cuts) < CUT_LIMIT:
        theta, lower = _solve_master(cuts, features, best)
        if upper - lower <= CUT_GAP_TOL:
            status = CONVERGED
            break
        value, cut = _worst_case(model, theta, features, eps)
        cuts.append(cut)
        if value < upper:
            upper, best = value, theta
    # free the model's simplex workspace (a few MB) before the fresh solve
    # allocates its own
    del model
    exact = solve_worst_case_lp(best, unlabeled.features, data, prior, eps, cost)
    if exact.status != OPTIMAL:
        raise InfeasibleRadiusError(
            f"worst-case LP reported {exact.status} at radius {float(eps)}"
        )
    state = DualState.from_multipliers(best, exact.multipliers)
    return CutSetResult(
        status, state, exact.value, min(lower, exact.value), len(cuts)
    )


@dataclass(frozen=True)
class DualityGapReport:
    """Primal-versus-dual comparison at one fixed classifier.

    `state` is the dual point priced: the classifier with the worst-case
    LP's multipliers.
    """

    primal: float
    dual: float
    gap: float
    relint_violated: bool
    state: DualState


def duality_gap_check(
    theta,
    data: LabeledDataset,
    unlabeled: UnlabeledDataset,
    prior: LabelPrior,
    eps: float,
    cost: TransportCost,
) -> DualityGapReport:
    """Check strong duality at a fixed classifier.

    Solves the exact worst-case LP (with the unlabeled features as the
    support) and evaluates the full dual objective at radius `eps` at the
    LP's own multipliers, a max over every (support point, atom, label)
    cell.  Any such point bounds the worst case at `eps` from above, so
    `dual` is a valid upper bound whatever the LP reached.  The LP prices
    the budget `eps + oracle.BUDGET_SLACK`, so at an exact optimum the gap,
    dual minus primal, is minus the transport price times `BUDGET_SLACK`.
    The gap is only guaranteed to vanish for radii strictly above the
    minimal feasible radius; at or below it the report carries
    `relint_violated=True`.
    """
    theta = np.asarray(theta, dtype=float)
    primal = solve_worst_case_lp(theta, unlabeled.features, data, prior, eps, cost)
    if primal.status != OPTIMAL:
        raise ValueError("instance infeasible at this radius; nothing to compare")
    eps0 = min_feasible_radius(data, unlabeled.features, prior, cost)
    state = DualState.from_multipliers(theta, primal.multipliers)
    dual = dual_objective(state, data, unlabeled, prior, eps, cost)
    return DualityGapReport(
        primal=primal.value,
        dual=dual,
        gap=dual - primal.value,
        relint_violated=eps <= eps0 + 1e-9,
        state=state,
    )
