"""Model-change active learning with a distributionally-robust scoring option.

Strategies score each unlabeled candidate by how much acquiring its label
would change the fitted model; the robust variants price the score against
the worst label distribution the decision set allows instead of trusting the
current model's posterior.  A robust step prices every candidate through
`score_dr` on one shared worst-case LP, whose radius and first columns come
from one pool-to-labeled-atoms transport (`oracle.uniform_coupling`).

`score_dr` is g_lo + (g_hi - g_lo) * s_j with s_j in [0, 1] (see there), and
on every config measured the pick was the subsample's argmax of
g_lo = min(p, 1 - p) * |x|: `min_mc` with ``mc_include_norm``, whose curves
``dr_weak`` and ``dr_strong`` write once the subsample covers the pool.

A run starts from `data.sample_split`: its labeled draw is the starting
labeled set and its remainder the pool, so every strategy run from one seed
starts from the same labeled rows, the rows `bound` draws at that seed and
size.  `run_active_loop` keeps the labeled set, the pool and the fit as
locals and returns the likelihood curve; `select_next` takes the labeled
set, the pool and the fit it scores.  Both read a checked
`config.ExperimentConfig`.
The robust strategies build their prior with `bounds.configured_prior`, strong
or weak as the strategy says (``prior_mode`` is not read), and take its
minimal feasible radius plus ``delta_margin`` (``eps`` is not read).
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import configured_prior, prior_feasible_radius
from .config import (
    DR_STRONG,
    EMC,
    MAX_MC,
    MIN_MC,
    PRIOR_STRONG,
    PRIOR_WEAK,
    RANDOM,
    ExperimentConfig,
)
from .model import (
    LabeledDataset,
    TransportCost,
    logistic_loss,
    logistic_predict,
    loss_grad_theta,
    make_rng,
)
from .oracle import PayoffLp

GRADIENT_TOL = 1e-6
NEWTON_MAX_ITER = 100


def erm_train_l2(data: LabeledDataset, ridge_gamma: float) -> np.ndarray:
    """Ridge-regularized logistic fit by damped Newton to tight stationarity.

    Minimizes mean logistic loss plus ``ridge_gamma * |theta|^2`` (the whole
    vector, intercept included) until the gradient norm is at most 1e-6.
    """
    if ridge_gamma < 0:
        raise ValueError("ridge_gamma must be nonnegative")
    features = data.features
    n, dim = features.shape
    theta = np.zeros(dim)

    def objective(candidate):
        return float(
            np.mean(logistic_loss(candidate, features, data.labels))
            + ridge_gamma * candidate @ candidate
        )

    value = objective(theta)
    for iteration in range(NEWTON_MAX_ITER + 1):
        gradient = loss_grad_theta(theta, features, data.labels).mean(
            axis=0
        ) + 2.0 * ridge_gamma * theta
        if np.linalg.norm(gradient) <= GRADIENT_TOL:
            return theta
        if iteration == NEWTON_MAX_ITER:
            break
        p = logistic_predict(theta, features)
        weights = p * (1.0 - p)
        hessian = (features.T * weights) @ features / n + 2.0 * ridge_gamma * np.eye(
            dim
        )
        try:
            direction = np.linalg.solve(hessian, -gradient)
        except np.linalg.LinAlgError as error:
            raise RuntimeError(
                "ridge logistic fit hit a singular step; the objective is "
                "likely unbounded without regularization"
            ) from error
        slope = float(gradient @ direction)
        step = 1.0
        for _ in range(60):
            candidate = theta + step * direction
            candidate_value = objective(candidate)
            if candidate_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
        theta = theta + step * direction
        value = objective(theta)
    raise RuntimeError(
        "ridge logistic fit did not reach the gradient tolerance "
        f"(|grad| = {np.linalg.norm(gradient):.3e})"
    )


def impact_gradient_norm(theta, x, y) -> float:
    """Norm of the parameter-gradient a label observation would induce."""
    return float(np.linalg.norm(loss_grad_theta(theta, np.asarray(x, float), y)))


def posterior_scores(theta, features, kind: str, include_norm: bool = False):
    """Posterior-based model-change scores for a block of feature rows.

    ``EMC`` is the posterior-weighted mean impact ``2 |x| p (1 - p)``;
    ``MIN_MC`` and ``MAX_MC`` are the smaller and the larger of the two class
    posteriors, scaled by the feature norm when ``include_norm`` is set
    (matching the gradient-norm impact instead of the bare posterior form).
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    margins = features @ np.asarray(theta, dtype=float)
    posteriors = 1.0 / (1.0 + np.exp(np.stack([-margins, margins], axis=1)))
    norms = np.linalg.norm(features, axis=1)
    if kind == EMC:
        return 2.0 * norms * posteriors[:, 0] * posteriors[:, 1]
    scores = posteriors.min(axis=1) if kind == MIN_MC else posteriors.max(axis=1)
    return scores * norms if include_norm else scores


def score_dr(model: PayoffLp, pool_features, target: int, theta) -> float:
    """Worst-case expected impact of labeling pool row `target`.

    ``model`` is the decision set's worst-case LP over ``pool_features``.
    The unlabeled marginal pins 1/n_u of the mass on the candidate, so the
    score is the minimum, over every distribution the decision set allows,
    of the label-averaged impact there.  It is the exact value of one small
    LP: ``model`` maximizes a payoff table that is zero except at row
    `target`, where it holds minus n_u times each label's impact.  An empty
    decision set raises when ``model`` is built, so every score is an
    optimum.

    With its mass fixed, the score is g_lo + (g_hi - g_lo) * s_j: g_lo, g_hi the
    smaller and the larger impact, s_j in [0, 1] n_u times the least mass
    left on the high-impact label, and g_lo = min(p, 1 - p) * |x| at the
    posterior p: the ``min_mc`` score with ``mc_include_norm``.  s_j was at
    most 1.4e-12 on 7,624 scores of three configs and at most 0.33 with
    overlapping clusters; every measured pick was the argmax of g_lo.
    """
    n_u = len(pool_features)
    payoff = np.zeros((n_u, 2))
    for label in (0, 1):
        payoff[target, label] = -n_u * impact_gradient_norm(
            theta, pool_features[target], label
        )
    return -model.solve(payoff).value


def select_next(
    labeled: LabeledDataset,
    pool: LabeledDataset | None,
    theta,
    config: ExperimentConfig,
    rng,
    cost: TransportCost,
    class_share: float,
) -> int:
    """Pick the pool index to label next under ``config.strategy``.

    ``theta`` is the current fit on ``labeled``, and ``pool`` the unlabeled
    rows with their held-back labels, ``None`` once empty.  Score-based
    strategies break exact ties toward the lowest pool index; the robust
    ones score a random candidate subsample instead of the whole pool.
    ``class_share``, the share of positives among everything the run can
    see, is the strong prior's share when ``prior_positive_share`` is empty.
    """
    if pool is None:
        raise ValueError("pool is empty")
    kind = config.strategy
    if kind == RANDOM:
        return int(rng.integers(0, pool.n))
    if kind in (EMC, MIN_MC, MAX_MC):
        scores = posterior_scores(theta, pool.features, kind, config.mc_include_norm)
        return int(np.argmax(scores))
    # robust variants: subsample candidates, price each against the worst
    # label distribution, and take the best worst-case impact
    size = min(config.candidate_subsample, pool.n)
    candidates = np.sort(rng.choice(pool.n, size=size, replace=False))
    mode = PRIOR_STRONG if kind == DR_STRONG else PRIOR_WEAK
    prior = configured_prior(config, labeled, mode, class_share)
    eps = prior_feasible_radius(labeled, pool.features, prior, cost)
    eps += config.delta_margin
    # one model prices every candidate's `score_dr` payoff: only the costs
    # change between candidates, so each solve starts from the last basis
    model = PayoffLp(pool.features, labeled, prior, eps, cost)
    scores = [score_dr(model, pool.features, j, theta) for j in candidates]
    return int(candidates[int(np.argmax(scores))])


def evaluation_likelihood(theta, data: LabeledDataset) -> float:
    """Geometric-mean per-sample likelihood of the data under the model."""
    return math.exp(-float(np.mean(logistic_loss(theta, data.features, data.labels))))


def run_active_loop(
    labeled: LabeledDataset,
    pool: LabeledDataset | None,
    config: ExperimentConfig,
    eval_data: LabeledDataset,
    seed: int,
    cost: TransportCost,
) -> list:
    """Acquire labels one at a time until the labeled set reaches stop_at.

    ``labeled`` and ``pool`` are one `data.sample_split`: the starting
    labeled set and the rest of the table with its held-back labels.
    ``stop_at`` is ``config.stop_at``, or ``n_labeled`` when that is 0, and
    the picks draw from a generator seeded with `seed`.  Each round fits the
    ridge model, records the evaluation likelihood, selects a pool point,
    and moves it (with its held-back label) into the labeled set; one final
    fit is recorded at stop_at.  Returns the likelihood curve, one
    ``(labeled size, likelihood)`` pair per round.
    """
    stop_at = config.stop_at or config.n_labeled
    if stop_at <= labeled.n:
        raise ValueError("stop_at must exceed the initial labeled size")
    if pool is None or stop_at > labeled.n + pool.n:
        raise ValueError("pool too small to reach stop_at")
    rng = make_rng(seed)
    class_share = float(np.mean(np.concatenate([labeled.labels, pool.labels])))
    curve = []
    while True:
        theta = erm_train_l2(labeled, config.ridge_gamma)
        curve.append((labeled.n, evaluation_likelihood(theta, eval_data)))
        if labeled.n >= stop_at:
            return curve
        chosen = select_next(labeled, pool, theta, config, rng, cost, class_share)
        keep = np.arange(pool.n) != chosen
        labeled = LabeledDataset(
            np.vstack([labeled.features, pool.features[chosen]]),
            np.append(labeled.labels, pool.labels[chosen]),
        )
        pool = (
            LabeledDataset(pool.features[keep], pool.labels[keep])
            if keep.any()
            else None
        )


def aulc(curve) -> float:
    """Area under the likelihood curve, scaled so a constant L reads 100*L."""
    points = list(curve)
    if len(points) < 2:
        raise ValueError("need at least two curve points")
    counts = np.asarray([n for n, _ in points], dtype=float)
    values = np.asarray([value for _, value in points], dtype=float)
    if np.any(np.diff(counts) <= 0):
        raise ValueError("curve points must be strictly increasing in n")
    area = float(np.trapezoid(values, counts))
    return 100.0 * area / float(counts[-1] - counts[0])
