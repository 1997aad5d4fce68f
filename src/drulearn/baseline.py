"""Plain Wasserstein distributionally-robust logistic regression.

The decision set here is a transport ball around the labeled sample with no
unlabeled-marginal constraint, so the worst case has a closed form: a
one-dimensional convex minimization over the transport-price multiplier.
This module evaluates that worst case, trains against it, and sweeps how the
worst case degrades as the ball grows beyond the training radius.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .dual import SolverConfig, descent_update, learning_rate
from .model import (
    LabeledDataset,
    TransportCost,
    both_class_losses,
    loss_grad_theta,
)

ALPHA_TOL = 1e-9
DIVERGENCE_NORM = 1e6

SWEEP_REPORT_FIELDS = (
    "eps",
    "delta",
    "worst_case_likelihood",
    "log10_worst_case_likelihood",
)


class DivergenceError(RuntimeError):
    """Raised when training blows up; carries the objective trace so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = list(trace)


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


def _project_price_cone(theta, alpha):
    """Project (non-intercept theta, alpha) onto ``alpha >= |theta_features|``.

    Euclidean projection onto the second-order cone; the intercept coordinate
    passes through untouched.
    """
    features = theta[:-1]
    norm = float(np.linalg.norm(features))
    if alpha >= norm:
        return theta, alpha
    if norm <= -alpha:
        out = theta.copy()
        out[:-1] = 0.0
        return out, 0.0
    t = 0.5 * (norm + alpha)
    out = theta.copy()
    out[:-1] = features * (t / norm)
    return out, t


def baseline_train(
    data: LabeledDataset,
    eps: float,
    cost: TransportCost,
    config: SolverConfig | None = None,
) -> BaselineResult:
    """Train the robust model by full-batch subgradient descent on (theta, alpha).

    Uses the same learning-rate schedule and Adam update as the
    marginal-constrained solver (`dual.learning_rate`, `dual.descent_update`);
    after every step the pair is projected back onto the cone where the
    closed-form objective is valid. The returned price and value are
    re-derived exactly for the final theta by the one-dimensional minimization.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if config is None:
        config = SolverConfig(radius_eps=eps)
    kappa = cost.label_flip_cost
    dim = data.dim
    theta = np.zeros(dim)
    alpha = 0.0
    moments = (np.zeros(dim + 1), np.zeros(dim + 1))
    trace = []
    window = config.convergence_window
    previous_mean = None
    for step in range(config.max_steps):
        keep, flip = _branch_losses(theta, data)
        value = _price_objective(alpha, eps, keep, flip, kappa)
        trace.append(value)
        if np.linalg.norm(theta) > DIVERGENCE_NORM:
            raise DivergenceError(
                "baseline training diverged: parameter norm exceeded "
                f"{DIVERGENCE_NORM:g}",
                trace,
            )
        flipped = flip - alpha * kappa > keep
        labels_used = np.where(flipped, 1 - data.labels, data.labels)
        grad = np.empty(dim + 1)
        grad[:dim] = loss_grad_theta(theta, data.features, labels_used).mean(axis=0)
        grad[dim] = eps - kappa * float(flipped.mean())
        lr = learning_rate(config, step)
        update, moments = descent_update(grad, moments, step, lr, config)
        theta = theta - update[:dim]
        alpha = alpha - update[dim]
        theta, alpha = _project_price_cone(theta, max(alpha, 0.0))
        if (step + 1) % window == 0:
            current_mean = float(np.mean(trace[-window:]))
            if (
                previous_mean is not None
                and abs(current_mean - previous_mean) < config.convergence_tol
            ):
                break
            previous_mean = current_mean
    final_alpha, value = worst_case_price(theta, data, eps, cost)
    return BaselineResult(theta=theta, alpha=final_alpha, worst_case_value=value)


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


def sweep_report_rows(eps_grid, delta_grid, matrix):
    """Flatten a sweep matrix into rows keyed by ``SWEEP_REPORT_FIELDS``."""
    rows = []
    for i, eps in enumerate(np.asarray(eps_grid, dtype=float)):
        for j, delta in enumerate(np.asarray(delta_grid, dtype=float)):
            likelihood = float(matrix[i, j])
            rows.append(
                {
                    "eps": float(eps),
                    "delta": float(delta),
                    "worst_case_likelihood": likelihood,
                    "log10_worst_case_likelihood": float(np.log10(likelihood)),
                }
            )
    return rows
