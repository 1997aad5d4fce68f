"""Plain Wasserstein distributionally-robust logistic regression.

The decision set here is a transport ball around the labeled sample with no
unlabeled-marginal constraint, so the worst case has a closed form: a
one-dimensional convex minimization over the transport-price multiplier.
Training against it is a small convex program in (theta, price), solved
exactly by one SLSQP call. This module evaluates that worst case, trains
against it, and sweeps how the worst case degrades as the ball grows beyond
the training radius.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .kernels import expit, slsqp
from .model import LabeledDataset, TransportCost, both_class_losses

ALPHA_TOL = 1e-9
# SLSQP's absolute objective tolerance; the objective lies in [0, log 2].
FIT_TOL = 1e-9
FIT_MAX_ITER = 1000


def feature_norm(theta) -> float:
    """Norm of the non-intercept block of theta.

    The final coordinate multiplies the constant-1 intercept feature, which
    the transport cost cannot move, so it does not count toward the model's
    sensitivity to feature perturbations.
    """
    theta = np.asarray(theta, dtype=float)
    return float(np.linalg.norm(theta[:-1]))


@dataclasses.dataclass(frozen=True)
class BaselineResult:
    """Trained robust model: parameters, transport price, worst-case value."""

    theta: np.ndarray
    alpha: float
    worst_case_value: float

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        if self.alpha < feature_norm(self.theta) - ALPHA_TOL:
            raise ValueError(
                "alpha must be at least the non-intercept norm of theta"
            )


def _branch_losses(theta, data: LabeledDataset):
    """Per-point losses of keeping the observed label vs flipping it."""
    losses = both_class_losses(theta, data.features)
    rows = np.arange(data.n)
    keep = losses[rows, data.labels]
    flip = losses[rows, 1 - data.labels]
    return keep, flip


def _price_objective(alpha, eps, keep, flip, kappa):
    return alpha * eps + float(np.maximum(keep, flip - alpha * kappa).mean())


def _right_subderivative(alpha, eps, keep, flip, kappa):
    # each flipped branch contributes -kappa while it strictly dominates;
    # at a tie the branch is about to leave, so the right derivative drops it
    active = flip - alpha * kappa > keep
    return eps - kappa * float(active.mean())


def worst_case_price(theta, data: LabeledDataset, eps: float, cost: TransportCost):
    """Minimize the worst-case objective over the transport price.

    Bisects on the nondecreasing right subderivative over prices at least the
    non-intercept norm of theta; returns the minimizing price and its value.
    """
    kappa = cost.label_flip_cost
    keep, flip = _branch_losses(theta, data)
    lo = feature_norm(theta)
    if _right_subderivative(lo, eps, keep, flip, kappa) >= 0:
        return lo, _price_objective(lo, eps, keep, flip, kappa)
    gap = max(float((flip - keep).max()), 0.0)
    hi = lo + 10.0 * gap / kappa + 1.0
    while _right_subderivative(hi, eps, keep, flip, kappa) < 0:
        hi = lo + 2.0 * (hi - lo)
    while hi - lo > ALPHA_TOL:
        mid = 0.5 * (lo + hi)
        if _right_subderivative(mid, eps, keep, flip, kappa) < 0:
            lo = mid
        else:
            hi = mid
    at_lo = _price_objective(lo, eps, keep, flip, kappa)
    at_hi = _price_objective(hi, eps, keep, flip, kappa)
    if at_lo <= at_hi:
        return lo, at_lo
    return hi, at_hi


def baseline_worst_case(
    theta, data: LabeledDataset, eps: float, cost: TransportCost
) -> float:
    """Exact worst-case average loss over the labeled-sample transport ball.

    Minimizes ``alpha * eps + mean_i max(keep_i, flip_i - alpha * kappa)``
    over transport prices ``alpha`` at least the non-intercept norm of theta.
    Exact for data whose final feature coordinate is the constant intercept.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return worst_case_price(theta, data, eps, cost)[1]


def baseline_train(
    data: LabeledDataset, eps: float, cost: TransportCost
) -> BaselineResult:
    """Train the robust model by one exact convex solve.

    Solves the epigraph form of the ball problem over ``(theta, alpha, t)``:
    minimize ``alpha * eps + mean(t)`` subject to ``t_i >= keep_i(theta)``,
    ``t_i >= flip_i(theta) - alpha * kappa``, ``alpha >= 0`` and
    ``alpha**2 >= |theta_features|**2``, with SLSQP and analytic Jacobians
    (Shafieezadeh-Abadeh, Mohajerin Esfahani & Kuhn, NeurIPS 2015). The
    returned price and value are re-derived exactly for the solver's theta by
    the one-dimensional minimization, so the reported worst case is exact
    whatever the solver did, and it is never above the no-confidence model
    theta = 0, which prices at log 2 for every radius. Raises RuntimeError
    if SLSQP reports failure.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    kappa = cost.label_flip_cost
    n, dim = data.n, data.dim
    # d keep_i / d theta = expit(m_i) * s_i * x_i and d flip_i / d theta =
    # -expit(-m_i) * s_i * x_i in the signed margin m_i = s_i * <theta, x_i>,
    # s_i = 1 - 2 y_i; unlike expit(.) - y, this keeps the small residuals
    # exact where |m_i| is large, which separable data drives SLSQP to.
    signed = (1.0 - 2.0 * data.labels)[:, None] * data.features
    template = np.zeros((2 * n + 1, dim + 1 + n))
    template[:n, dim + 1 :] = np.eye(n)
    template[n : 2 * n, dim + 1 :] = np.eye(n)
    template[n : 2 * n, dim] = kappa

    def constraints(z):
        theta, alpha, t = z[:dim], z[dim], z[dim + 1 :]
        keep, flip = _branch_losses(theta, data)
        return np.concatenate(
            [
                t - keep,
                t - flip + alpha * kappa,
                [alpha * alpha - theta[:-1] @ theta[:-1]],
            ]
        )

    def jacobian(z):
        theta, alpha = z[:dim], z[dim]
        m = signed @ theta
        jac = template.copy()
        jac[:n, :dim] = -expit(m)[:, None] * signed
        jac[n : 2 * n, :dim] = expit(-m)[:, None] * signed
        jac[2 * n, : dim - 1] = -2.0 * theta[:-1]
        jac[2 * n, dim] = 2.0 * alpha
        return jac

    gradient = np.concatenate([np.zeros(dim), [eps], np.full(n, 1.0 / n)])
    start = np.concatenate([np.zeros(dim + 1), np.full(n, np.log(2.0))])
    lower = np.full(dim + 1 + n, -np.inf)
    lower[dim] = 0.0
    solution = slsqp(
        lambda z: gradient @ z,
        lambda z: gradient,
        start,
        lower,
        np.full(dim + 1 + n, np.inf),
        constraints=constraints,
        jacobian=jacobian,
        ftol=FIT_TOL,
        maxiter=FIT_MAX_ITER,
    )
    if not solution.success:
        raise RuntimeError(
            f"baseline fit failed: SLSQP status {solution.status} "
            f"({solution.message}) after {solution.nit} iterations"
        )
    theta = solution.x[:dim]
    alpha, value = worst_case_price(theta, data, eps, cost)
    # When the optimum is the no-confidence model theta = 0, the cone
    # constraint is degenerate there and SLSQP can stop a hair away from it;
    # keep whichever of the two models prices lower.
    zero_alpha, zero_value = worst_case_price(np.zeros(dim), data, eps, cost)
    if zero_value < value:
        theta, alpha, value = np.zeros(dim), zero_alpha, zero_value
    return BaselineResult(theta=theta, alpha=alpha, worst_case_value=value)


def robustness_sweep(
    theta_by_eps: dict,
    data: LabeledDataset,
    eps_grid,
    delta_grid,
    cost: TransportCost,
) -> np.ndarray:
    """Worst-case likelihood of each trained model as the ball outgrows it.

    Entry (i, j) evaluates the model trained at ``eps_grid[i]`` against the
    ball of radius ``eps_grid[i] + delta_grid[j]`` and reports the implied
    per-sample likelihood ``exp(-worst_case)``.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    delta_grid = np.asarray(delta_grid, dtype=float)
    if eps_grid.size == 0 or delta_grid.size == 0:
        raise ValueError("both grids must be nonempty")
    matrix = np.empty((eps_grid.size, delta_grid.size))
    for i, eps in enumerate(eps_grid):
        if eps not in theta_by_eps:
            raise ValueError(f"no trained parameters supplied for eps={eps!r}")
        theta = theta_by_eps[eps]
        for j, delta in enumerate(delta_grid):
            matrix[i, j] = np.exp(
                -baseline_worst_case(theta, data, eps + delta, cost)
            )
    return matrix
