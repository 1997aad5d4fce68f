"""Finite-sample performance guarantees and radius-selection policies.

Turns a trained dual state into a certified lower bound on out-of-sample
likelihood, builds label-probability priors from labeled counts, and picks the
ambiguity radius according to a configurable policy.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import stats

from .dual import (
    DualState,
    SolverConfig,
    dual_objective,
    max_cell_values,
    train_dru,
)
from .model import (
    DiscreteDistribution,
    LabeledDataset,
    LabelPrior,
    TransportCost,
    UnlabeledDataset,
    confidence,
)
from .oracle import discrete_wasserstein, min_feasible_radius

DEFAULT_Z_SCORE = 1.96
VACUOUS_THRESHOLD = 0.5

MIN_RADIUS_PLUS_DELTA = "min-radius-plus-delta"
AS_ROBUST_AS_POSSIBLE = "as-robust-as-possible"
FRACTION_OF_TRUE_DISTANCE = "fraction-of-true-distance"
RADIUS_POLICIES = (
    MIN_RADIUS_PLUS_DELTA,
    AS_ROBUST_AS_POSSIBLE,
    FRACTION_OF_TRUE_DISTANCE,
)

PRIOR_STRONG = "strong"
PRIOR_WEAK = "weak"

BOUND_REPORT_FIELDS = (
    "eps",
    "neg_log_bound",
    "correction",
    "likelihood_bound",
    "median_confidence",
    "vacuous_flag",
)


@dataclasses.dataclass(frozen=True)
class PerformanceBound:
    """Certified lower bound on average out-of-sample log-likelihood.

    ``neg_log_bound`` upper-bounds the expected negative log-likelihood under
    every distribution in the decision set; ``likelihood_bound`` is the induced
    lower bound ``exp(-(neg_log_bound + correction))`` clamped to ``(0, 1]``.
    """

    neg_log_bound: float
    correction: float
    likelihood_bound: float
    n_unlabeled: int

    def __post_init__(self):
        if self.correction < 0:
            raise ValueError("correction must be nonnegative")
        if not 0.0 < self.likelihood_bound <= 1.0:
            raise ValueError("likelihood_bound must lie in (0, 1]")
        if self.n_unlabeled < 1:
            raise ValueError("n_unlabeled must be positive")

    @property
    def vacuous(self) -> bool:
        """Whether the bound says nothing beyond a coin flip per point."""
        return self.likelihood_bound <= VACUOUS_THRESHOLD


@dataclasses.dataclass(frozen=True)
class RadiusSelection:
    """Radius-selection policy settings, plus the chosen radius once selected.

    ``eps`` is ``None`` until :func:`select_radius` fills it in; the returned
    copy also carries ``fallback_warning`` when the confidence-screening policy
    had to fall back to its smallest candidate radius.
    """

    policy: str
    eps: float | None = None
    delta_margin: float = 1e-3
    confidence_threshold: float = 0.7
    fraction: float = 1.0
    grid_points: int = 20
    grid_span: float = 10.0
    fallback_warning: bool = False

    def __post_init__(self):
        if self.policy not in RADIUS_POLICIES:
            raise ValueError(f"unknown radius policy {self.policy!r}")
        if self.eps is not None and self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.delta_margin <= 0:
            raise ValueError("delta_margin must be positive")
        if not 0.0 < self.confidence_threshold < 1.0:
            raise ValueError("confidence_threshold must lie in (0, 1)")
        if self.fraction < 0:
            raise ValueError("fraction must be nonnegative")
        if self.grid_points < 1:
            raise ValueError("grid_points must be positive")
        if self.grid_span <= 0:
            raise ValueError("grid_span must be positive")


def berry_esseen_correction(values, z_score: float = DEFAULT_Z_SCORE) -> float:
    """Finite-sample correction ``z * sample_std(values) / sqrt(len(values))``.

    A ``z_score`` of zero disables the correction entirely; otherwise at least
    two values are required so the sample standard deviation is defined.
    """
    if z_score < 0:
        raise ValueError("z_score must be nonnegative")
    if z_score == 0:
        return 0.0
    values = np.asarray(values, dtype=float).ravel()
    if values.size < 2:
        raise ValueError("need at least two values for a sample std deviation")
    return float(z_score * values.std(ddof=1) / math.sqrt(values.size))


def performance_bound(
    state: DualState,
    data: LabeledDataset,
    unlabeled: UnlabeledDataset,
    prior: LabelPrior,
    eps: float,
    cost: TransportCost,
    z_score: float = DEFAULT_Z_SCORE,
) -> PerformanceBound:
    """Certify a likelihood lower bound from any feasible dual state.

    The negative-log bound is the dual objective itself, valid for every
    distribution in the decision set; the correction accounts for the
    unlabeled sample being finite.
    """
    values = max_cell_values(state, data, unlabeled.features, cost)
    neg_log = dual_objective(state, data, unlabeled, prior, eps, cost)
    correction = berry_esseen_correction(values, z_score)
    likelihood = float(
        np.clip(math.exp(-(neg_log + correction)), np.finfo(float).tiny, 1.0)
    )
    return PerformanceBound(
        neg_log_bound=neg_log,
        correction=correction,
        likelihood_bound=likelihood,
        n_unlabeled=int(values.size),
    )


def clopper_pearson(successes: int, trials: int, level: float = 0.95):
    """Exact two-sided binomial confidence interval for a success probability."""
    k = int(successes)
    n = int(trials)
    if n <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= k <= n:
        raise ValueError("successes must lie in [0, trials]")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    tail = (1.0 - level) / 2.0
    lower = 0.0 if k == 0 else float(stats.beta.ppf(tail, k, n - k + 1))
    upper = 1.0 if k == n else float(stats.beta.ppf(1.0 - tail, k + 1, n - k))
    return lower, upper


def make_prior(
    data: LabeledDataset,
    mode: str = PRIOR_WEAK,
    probabilities=None,
    level: float = 0.95,
) -> LabelPrior:
    """Build the label-probability box from labeled data.

    ``strong`` pins both bounds to externally known class probabilities;
    ``weak`` derives per-class confidence intervals from the labeled counts.
    """
    if mode == PRIOR_STRONG:
        if probabilities is None:
            raise ValueError("strong mode requires class probabilities")
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (2,):
            raise ValueError("probabilities must have one entry per class")
        if abs(probabilities.sum() - 1.0) > 1e-9:
            raise ValueError("class probabilities must sum to one")
        return LabelPrior.point(probabilities)
    if mode == PRIOR_WEAK:
        counts = np.bincount(data.labels, minlength=2)
        n = int(counts.sum())
        lower0, upper0 = clopper_pearson(int(counts[0]), n, level)
        lower1, upper1 = clopper_pearson(int(counts[1]), n, level)
        return LabelPrior(
            lower=np.array([lower0, lower1]),
            upper=np.array([upper0, upper1]),
        )
    raise ValueError(f"unknown prior mode {mode!r}")


def _point_prior_for_share(positive_share: float) -> LabelPrior:
    return LabelPrior.point(np.array([1.0 - positive_share, positive_share]))


def prior_feasible_radius(
    data: LabeledDataset,
    unlabeled: UnlabeledDataset,
    prior: LabelPrior,
    cost: TransportCost,
) -> float:
    """Smallest radius keeping the decision set nonempty.

    For an interval prior the box is instantiated at both endpoints of the
    positive-class probability and the larger of the two minimal radii is
    used, so the chosen radius stays feasible whichever endpoint is true.
    """
    if np.array_equal(prior.lower, prior.upper):
        return min_feasible_radius(data, unlabeled.features, prior, cost)
    endpoints = (float(prior.lower[1]), float(prior.upper[1]))
    return max(
        min_feasible_radius(
            data, unlabeled.features, _point_prior_for_share(share), cost
        )
        for share in endpoints
    )


def select_radius(
    selection: RadiusSelection,
    data: LabeledDataset,
    unlabeled: UnlabeledDataset,
    prior: LabelPrior,
    cost: TransportCost,
    solver_config: SolverConfig | None = None,
    full_data: LabeledDataset | None = None,
) -> RadiusSelection:
    """Choose the ambiguity radius according to the selection policy.

    Returns a completed copy of ``selection`` with ``eps`` filled in and
    ``fallback_warning`` set when the confidence-screening policy found no
    candidate radius meeting its threshold.
    """
    warned = False
    if selection.policy == MIN_RADIUS_PLUS_DELTA:
        eps = prior_feasible_radius(data, unlabeled, prior, cost) + selection.delta_margin
    elif selection.policy == AS_ROBUST_AS_POSSIBLE:
        if solver_config is None:
            raise ValueError(
                "confidence-screening policy requires a solver configuration"
            )
        base = prior_feasible_radius(data, unlabeled, prior, cost)
        grid = np.geomspace(
            base + selection.delta_margin,
            base + selection.grid_span,
            selection.grid_points,
        )
        eps = None
        for candidate in reversed(grid):
            config = dataclasses.replace(solver_config, radius_eps=float(candidate))
            theta = train_dru(data, unlabeled, prior, cost, config)
            median_conf = float(np.median(confidence(theta, unlabeled.features)))
            if median_conf >= selection.confidence_threshold:
                eps = float(candidate)
                break
        if eps is None:
            eps = float(grid[0])
            warned = True
    elif selection.policy == FRACTION_OF_TRUE_DISTANCE:
        if full_data is None:
            raise ValueError(
                "distance-fraction policy requires the reference dataset"
            )
        mu = DiscreteDistribution.from_dataset(data)
        nu = DiscreteDistribution.from_dataset(full_data)
        distance, _ = discrete_wasserstein(mu, nu, cost)
        eps = selection.fraction * distance
    else:  # pragma: no cover - rejected by the dataclass validator
        raise ValueError(f"unknown radius policy {selection.policy!r}")
    return dataclasses.replace(
        selection, eps=float(eps), fallback_warning=warned
    )


def bound_report_row(eps: float, bound: PerformanceBound, median_confidence: float):
    """One row of a bound report, keyed by ``BOUND_REPORT_FIELDS``."""
    return {
        "eps": float(eps),
        "neg_log_bound": bound.neg_log_bound,
        "correction": bound.correction,
        "likelihood_bound": bound.likelihood_bound,
        "median_confidence": float(median_confidence),
        "vacuous_flag": int(bound.vacuous),
    }
