"""Dual formulation of the constrained worst-case risk, the exact trainer,
and the stochastic dual solver.

The worst case over distributions that (a) stay within a transport budget of
the labeled empirical distribution and (b) satisfy marginal/label-probability
constraints admits a finite-dimensional dual: minimize, over a transport
multiplier, one potential per labeled atom, and per-class label multipliers,

    transport_price * radius
    + mean(potentials)
    + upper @ prior.upper - lower @ prior.lower
    + mean over unlabeled rows x of  max over cells of cell(x).

Each "cell" pairs one labeled atom with one candidate label; its value at x
is the logistic loss at the candidate label minus the charges the
multipliers levy for moving mass there.  A dual point is the weights and one
multiplier vector (`model.multiplier_parts` names its parts), which the
worst-case LP returns and the certificate search moves; `DualState` holds
the pair and checks the vector's signs.  It is priced by its multiplier
vector on a `model.CellLayout` of the unlabeled sample, whose losses fix
the weights: `dual_objective` takes the layout's per-point maxima, so a
caller that prices many points on one sample builds its layout once.

Training is exact: `cutset_solve` minimizes the worst-case loss over the
weights by a cutting-set method over the exact worst-case LP and returns that
LP's multipliers as its dual point; its cuts are the LP's (support point,
label) masses.  `duality_gap_check` prices the dual objective at such a
multiplier point against the LP value.  `sgd_solve`, which descends the dual
in weights and multipliers jointly from unlabeled minibatches with Adam (or
plain SGD), is on no command-line path; it stays while the benchmark's
tracer wraps it by name, which `tests/test_bench_contract.py` checks.  The
dual is bounded below exactly when the decision set is nonempty, which
`oracle.require_feasible_radius` decides before `sgd_solve`'s first step
and before any worst-case LP (`oracle.PayoffLp`) is built.  That radius and
the LPs' first columns come from one transport, `oracle.uniform_coupling`.
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
    both_class_losses,
    loss_grad_theta,
    make_rng,
    multiplier_parts,
    pair_costs,
)
from .oracle import (
    PayoffLp,
    min_feasible_radius,
    require_feasible_radius,
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


@dataclass(frozen=True, eq=False)
class DualState:
    """One point of the dual feasible set: the weights `theta` and one
    multiplier vector (`model.multiplier_parts`).

    Its transport price prices the transport budget, its potentials are one
    per labeled atom, and its label multipliers price the upper and lower
    label-probability bounds.  The price and the label multipliers must be
    nonnegative.  Float arrays are kept as given, not copied.
    """

    theta: np.ndarray
    multipliers: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        multipliers = np.asarray(self.multipliers, dtype=float)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "multipliers", multipliers)
        if theta.ndim != 1 or multipliers.ndim != 1:
            raise ValueError("theta and multipliers must be vectors")
        if multipliers.size < 2 + 2 * N_CLASSES:
            raise ValueError(
                "multipliers must hold a price, a potential and the label multipliers"
            )
        price, _, upper, lower = multiplier_parts(multipliers)
        if price < 0.0:
            raise ValueError("the transport price must be nonnegative")
        if np.any(upper < 0.0) or np.any(lower < 0.0):
            raise ValueError("label multipliers must be nonnegative")


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


@dataclass(frozen=True, eq=False)
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


def linear_part(multipliers, prior, eps):
    """The dual objective's terms that are linear in the multipliers."""
    alpha, potentials, upper, lower = multiplier_parts(multipliers)
    return (
        alpha * eps
        + potentials.sum() / potentials.size
        + upper @ prior.upper
        - lower @ prior.lower
    )


def dual_objective(multipliers, layout: CellLayout, prior: LabelPrior, eps: float):
    """The dual objective at a multiplier vector, priced on `layout`, which
    holds the sample's losses at the weights: linear multiplier terms plus
    the mean over points of the largest cell."""
    values = layout.cells(multipliers).max(axis=1)
    return float(linear_part(multipliers, prior, eps) + values.mean())


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


def sgd_solve(
    data: LabeledDataset,
    unlabeled,
    prior: LabelPrior,
    cost: TransportCost,
    config: SolverConfig,
    theta0=None,
    update_theta: bool = True,
):
    """Minimize the dual objective by projected stochastic subgradient steps.

    Each step draws `batch_size` unlabeled rows uniformly with replacement,
    forms the batch-mean subgradient (deterministic linear terms plus the
    active-cell terms), applies an Adam or plain-SGD update, and clamps the
    sign-constrained multipliers at zero.  `update_theta` toggles descent in
    the weights; with it off the solve prices a fixed classifier.

    Raises `oracle.InfeasibleRadiusError` first if the decision set is empty.
    """
    n_l, dim = data.n, data.dim
    n_u = len(unlabeled)
    eps = config.radius_eps
    require_feasible_radius(data, unlabeled, prior, cost, eps)

    pair = pair_costs(unlabeled, data, cost)
    n_params = dim + 1 + n_l + 2 * N_CLASSES
    params = np.zeros(n_params)
    if theta0 is not None:
        params[:dim] = np.asarray(theta0, dtype=float)

    moments = (np.zeros(n_params), np.zeros(n_params))

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
        batch = unlabeled[idx]
        theta, multipliers = params[:dim], params[dim:]
        table = both_class_losses(theta, batch)
        cells = CellLayout(table, pair[idx]).cells(multipliers)
        # the first (atom-major) maximizer gives the active atom and label
        best_cell = np.argmax(cells, axis=1)
        values = cells[np.arange(config.batch_size), best_cell]
        atom_star, label_star = np.divmod(best_cell, N_CLASSES)
        estimate = float(linear_part(multipliers, prior, eps) + values.mean())
        estimates.append(estimate)

        if step % config.trace_every == 0:
            alpha, norm = float(params[dim]), float(np.linalg.norm(theta))
            trace.append((step, lr, estimate, alpha, norm, True))

        grad = np.zeros(n_params)
        if update_theta:
            grad[:dim] = loss_grad_theta(theta, batch, label_star).mean(axis=0)
        price, potentials, upper, lower = multiplier_parts(grad[dim:])
        moved = pair[idx][np.arange(config.batch_size), atom_star, label_star]
        price[...] = eps - moved.mean()
        atom_freq = np.bincount(atom_star, minlength=n_l) / config.batch_size
        potentials[:] = 1.0 / n_l - atom_freq
        label_freq = np.bincount(label_star, minlength=N_CLASSES) / config.batch_size
        upper[:] = prior.upper - label_freq
        lower[:] = label_freq - prior.lower

        update, moments = descent_update(grad, moments, step, lr, config)
        params = params - update
        price, _, upper, lower = multiplier_parts(params[dim:])
        for part in (price, upper, lower):
            np.maximum(part, 0.0, out=part)

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

    # the final iterate or the tail average, whichever prices lower
    points = [params]
    if config.tail_average and tail_count > 0:
        points.append(tail_sum / tail_count)
    values = [
        dual_objective(
            point[dim:],
            CellLayout(both_class_losses(point[:dim], unlabeled), pair),
            prior,
            eps,
        )
        for point in points
    ]
    best = int(np.argmin(values))
    state = DualState(points[best][:dim], points[best][dim:])
    result = SolveResult(status, state, values[best], trace)

    if config.trace_path is not None:
        with open(config.trace_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(TRACE_FIELDS)
            writer.writerows(trace)
    return result


@dataclass(frozen=True, eq=False)
class CutSetResult:
    """Outcome of one cutting-set training run.

    `theta` is the best classifier found and `upper` its exact worst-case
    loss; `lower` is the last master value, a lower bound on the worst case
    of every classifier in the `THETA_BOX`, so `upper - lower` bounds how
    far `upper` is from optimal.  `lower` is capped at `upper`, itself an
    upper bound on that minimum: where the master is tight, the two are the
    same number computed along two routes, and rounding can cross them by a
    few ulps.
    `state` is `theta` with the worst-case LP's multipliers there, a dual
    point whose objective is `upper` up to `oracle.BUDGET_SLACK` times its
    transport price.  Both are the run's own solve at `theta`, so they also
    depend on the (deterministic) solves before it.  `status` is
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


def _worst_case(model: PayoffLp, theta, features):
    """Exact worst case at theta on the run's model: the optimum and its cut.

    The cut is the maximizing distribution's flattened (support point,
    label) masses, normalized to total 1: the LP's clipped masses can sum
    to 1 + 1e-13, which would lift the master's lower bound by that much
    times the loss.
    """
    result = model.solve(both_class_losses(theta, features))
    weights = result.support_mass.ravel()
    return result, weights / weights[weights > 0.0].sum()


def cutset_solve(
    data: LabeledDataset,
    unlabeled,
    prior: LabelPrior,
    cost: TransportCost,
    eps: float,
) -> CutSetResult:
    """Minimize the exact worst-case loss F(theta) by a cutting-set method.

    F(theta) is the value of the worst-case LP whose support is the rows of
    the (m, d) unlabeled feature matrix, convex in theta.  Each round solves
    the master problem over the worst-case distributions found so far
    (`_solve_master`), whose value is a lower bound on min F, then the
    worst-case LP at the master's theta,
    whose value is an upper bound and whose maximizing distribution is the
    next cut (Mutapcic & Boyd, "Cutting-set methods for robust convex
    optimization with pessimizing oracles", Optim. Methods Softw. 2009).
    The run's LPs share one `oracle.PayoffLp`, the instance's only LP model:
    only the costs change between rounds, so each LP re-optimizes from the
    last one's basis and columns.  `upper` and `state` are those of the
    solve that found the best theta, already an optimum of the full LP
    there, so it is not priced again.  Starts from theta = 0; see
    `CutSetResult`.  Raises `oracle.InfeasibleRadiusError` when the
    decision set is empty.
    """
    model = PayoffLp(unlabeled, data, prior, eps, cost)
    best = np.zeros(data.dim)
    exact, cut = _worst_case(model, best, unlabeled)
    cuts = [cut]
    lower = -np.inf
    status = MAX_STEPS
    while len(cuts) < CUT_LIMIT:
        theta, lower = _solve_master(cuts, unlabeled, best)
        if exact.value - lower <= CUT_GAP_TOL:
            status = CONVERGED
            break
        result, cut = _worst_case(model, theta, unlabeled)
        cuts.append(cut)
        if result.value < exact.value:
            exact, best = result, theta
    state = DualState(best, exact.multipliers)
    return CutSetResult(status, state, exact.value, min(lower, exact.value), len(cuts))


@dataclass(frozen=True, eq=False)
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
    unlabeled,
    prior: LabelPrior,
    eps: float,
    cost: TransportCost,
) -> DualityGapReport:
    """Check strong duality at a fixed classifier.

    Solves the exact worst-case LP (with the unlabeled feature rows as the
    support) and evaluates the full dual objective at radius `eps` at the
    LP's own multipliers, a max over every (support point, atom, label)
    cell.  Any such point bounds the worst case at `eps` from above, so
    `dual` is a valid upper bound whatever the LP reached.  The LP prices
    the budget `eps + oracle.BUDGET_SLACK`, so at an exact optimum the gap,
    dual minus primal, is minus the transport price times `BUDGET_SLACK`.
    The gap is only guaranteed to vanish for radii strictly above the
    minimal feasible radius; at or below it the report carries
    `relint_violated=True`; below it, `oracle.InfeasibleRadiusError` is raised.
    """
    theta = np.asarray(theta, dtype=float)
    primal = solve_worst_case_lp(theta, unlabeled, data, prior, eps, cost)
    eps0 = min_feasible_radius(data, unlabeled, prior, cost)
    state = DualState(theta, primal.multipliers)
    layout = CellLayout(
        both_class_losses(theta, unlabeled), pair_costs(unlabeled, data, cost)
    )
    dual = dual_objective(state.multipliers, layout, prior, eps)
    return DualityGapReport(
        primal=primal.value,
        dual=dual,
        gap=dual - primal.value,
        relint_violated=eps <= eps0 + 1e-9,
        state=state,
    )
