"""Finite-sample performance guarantees and radius-selection policies.

Turns a dual point into a certified lower bound on out-of-sample likelihood
(`performance_bound`), certifies a trained classifier with multipliers
searched on one half of the unlabeled sample and evaluated on the other
(`certify`), builds label-probability priors from labeled counts, and picks
the ambiguity radius according to a configurable policy.

The multiplier search (`search_multipliers`) builds one `model.CellLayout`
of its sample and reads every evaluation from it, smoothed or exact.  Its
smoothed kernel sends the scaled cells at or below `EXP_ZERO` to -inf
before the exponential; `np.exp` is exactly +0.0 there either way, so the
floor changes no bit, only the cost of numpy's slow path below about -708.

The search runs L-BFGS-B through `kernels.lbfgsb`, the loop that scipy
1.17's `minimize(method="L-BFGS-B")` runs around L-BFGS-B's compiled
reverse-communication routine `setulb`, so its iterates and evaluation
counts are `minimize`'s bit for bit.  It leaves out `minimize`'s per-call
setup and its `ScalarFunction` and `MemoizeJac` wrappers, which copy and
compare x several times per evaluation: on the `bound_strong` benchmark
config (642 evaluations, one core) the search's time outside the kernel
fell from about 72 to about 21 us per evaluation.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .dual import (
    DualState,
    cutset_solve,
    layout_max_values,
    linear_part,
    dual_objective,
    objective_of_values,
)
from .kernels import betaincinv, lbfgsb
from .model import (
    N_CLASSES,
    CellLayout,
    DiscreteDistribution,
    LabeledDataset,
    LabelPrior,
    TransportCost,
    UnlabeledDataset,
    both_class_losses,
    confidence,
    pair_costs,
)
from .oracle import discrete_wasserstein, min_feasible_radius, positive_share_range

DEFAULT_Z_SCORE = 1.96
VACUOUS_THRESHOLD = 0.5

# certificate search (see `certify`): the logsumexp temperatures, coarse to
# fine, and the L-BFGS-B settings for each
SMOOTHING_SCHEDULE = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4)
SEARCH_OPTIONS = {"maxiter": 2000, "ftol": 1e-12, "gtol": 1e-8}
# np.exp returns exactly +0.0 at and below this argument (its last positive
# value, the smallest subnormal, is at about -745.133)
EXP_ZERO = -745.2

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

    @staticmethod
    def from_terms(neg_log_bound, correction, n_unlabeled) -> "PerformanceBound":
        """The bound whose likelihood is exp(-(neg_log_bound + correction))."""
        likelihood = float(
            np.clip(
                math.exp(-(neg_log_bound + correction)), np.finfo(float).tiny, 1.0
            )
        )
        return PerformanceBound(
            neg_log_bound=neg_log_bound,
            correction=correction,
            likelihood_bound=likelihood,
            n_unlabeled=n_unlabeled,
        )

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


def normal_correction(values, z_score: float = DEFAULT_Z_SCORE) -> float:
    """Sampling correction ``z * sample_std(values) / sqrt(len(values))``.

    A normal approximation to the upper confidence limit of the mean, not a
    Berry-Esseen finite-sample bound.

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
    layout = CellLayout(
        both_class_losses(state.theta, unlabeled.features),
        pair_costs(unlabeled.features, data, cost),
    )
    return PerformanceBound.from_terms(
        *_certificate_terms(state, layout, prior, eps, z_score)
    )


def _certificate_terms(state, layout, prior, eps, z_score):
    """`performance_bound`'s negative-log bound, correction and sample size
    at `state`, priced on `layout`, which holds the losses at
    `state.theta`."""
    values = layout_max_values(state, layout)
    neg_log = objective_of_values(state, values, prior, eps)
    correction = normal_correction(values, z_score)
    return neg_log, correction, int(values.size)


def _smoothed_bound(params, layout, prior, eps, z_score, tau):
    """Dual objective plus correction with every per-point maximum replaced
    by its tau-logsumexp, and its gradient in (alpha, potentials, upper,
    lower) stacked in that order.

    Gets the cells from `layout`, built once per search, as a new flat
    (n, 2 * n_labeled) matrix, which the softmax weights overwrite in
    place; the gradient's atom and label masses are one matrix-vector
    product with the per-point shares.  A scaled cell at or below
    `EXP_ZERO` is set to -inf before the `exp`: its weight is +0.0
    either way, but numpy's vector `exp` takes a slow path below about
    -708, and -inf costs less there than a finite argument."""
    n, n_l = layout.costs.shape[0], layout.n_labeled
    alpha, potentials = params[0], params[1 : 1 + n_l]
    upper, lower = params[1 + n_l : 3 + n_l], params[3 + n_l :]
    flat = layout.cells(alpha, potentials, upper - lower)
    top = flat.max(axis=1)
    flat -= top[:, None]
    flat /= tau
    np.putmask(flat, flat <= EXP_ZERO, -np.inf)
    np.exp(flat, out=flat)
    total = flat.sum(axis=1)
    values = top + tau * np.log(total)
    mean = values.sum() / n
    value = linear_part(alpha, potentials, upper, lower, prior, eps) + mean
    weight = 1.0 / n
    if z_score > 0.0:
        centered = values - mean
        spread = math.sqrt(centered @ centered / (n - 1))
        value += z_score * spread / math.sqrt(n)
        if spread > 0.0:
            weight = weight + z_score / math.sqrt(n) * centered / ((n - 1) * spread)
    # d value / d cell: each point's softmax weights times d value / d max
    share = weight / total
    mass = (share @ flat).reshape(n_l, N_CLASSES)
    label_mass = mass.sum(axis=0)
    grad = np.empty(params.size)
    grad[0] = eps - share @ np.einsum("ij,ij->i", flat, layout.costs)
    np.subtract(1.0 / n_l, mass.sum(axis=1), out=grad[1 : 1 + n_l])
    np.subtract(prior.upper, label_mass, out=grad[1 + n_l : 3 + n_l])
    np.subtract(label_mass, prior.lower, out=grad[3 + n_l :])
    return float(value), grad


def search_multipliers(
    state: DualState,
    data: LabeledDataset,
    unlabeled: UnlabeledDataset,
    prior: LabelPrior,
    eps: float,
    cost: TransportCost,
    z_score: float = DEFAULT_Z_SCORE,
) -> DualState:
    """The dual point at `state.theta` with the smallest certificate on
    `unlabeled` among those the search visits.

    Every dual point gives a valid certificate, dual objective plus
    correction, so this minimizes that sum over the multipliers: L-BFGS-B
    on its tau-logsumexp smoothing, for each tau of `SMOOTHING_SCHEDULE` in
    turn, starting at `state`.  `state` and the point returned at each tau
    are priced exactly as `performance_bound` prices them, and the best is
    returned.  Every evaluation, smoothed or exact, reads one
    `CellLayout` of `unlabeled`, built here.  The multipliers are fitted
    to `unlabeled`, so its correction there is optimistic; `certify`
    evaluates them on other points.
    """
    n_l = data.n
    theta = state.theta
    layout = CellLayout(
        both_class_losses(theta, unlabeled.features),
        pair_costs(unlabeled.features, data, cost),
    )
    params = np.concatenate(
        [
            [state.transport_mult],
            state.atom_potentials,
            state.label_upper_mult,
            state.label_lower_mult,
        ]
    )
    lower = np.concatenate([[0.0], np.full(n_l, -np.inf), np.zeros(2 * N_CLASSES)])
    points = [state]
    for tau in SMOOTHING_SCHEDULE:
        params, _ = lbfgsb(
            _smoothed_bound,
            params,
            lower,
            (layout, prior, eps, z_score, tau),
            **SEARCH_OPTIONS,
        )
        points.append(
            DualState(
                theta=theta,
                transport_mult=float(params[0]),
                atom_potentials=params[1 : 1 + n_l],
                label_upper_mult=params[1 + n_l : 3 + n_l],
                label_lower_mult=params[3 + n_l :],
            )
        )
    certificates = [
        _certificate_terms(point, layout, prior, eps, z_score) for point in points
    ]
    return points[int(np.argmin([neg_log + corr for neg_log, corr, _ in certificates]))]


def held_out_halves(unlabeled: UnlabeledDataset):
    """Split the unlabeled sample into alternate points: the even positions
    (the search half) and the odd positions (the held-out half)."""
    return (
        UnlabeledDataset(unlabeled.features[0::2]),
        UnlabeledDataset(unlabeled.features[1::2]),
    )


def certify(
    state: DualState,
    data: LabeledDataset,
    unlabeled: UnlabeledDataset,
    prior: LabelPrior,
    eps: float,
    cost: TransportCost,
    z_score: float = DEFAULT_Z_SCORE,
) -> PerformanceBound:
    """Certificate at `state.theta` whose multipliers are chosen on one half
    of the unlabeled sample and evaluated on the other.

    `search_multipliers` picks the multipliers on the search half of
    `held_out_halves`, starting at `state`, and `performance_bound`
    evaluates them on the held-out half, which played no part in the
    choice.  `neg_log_bound` is the dual objective at `state` over the
    whole sample: the exact worst case when `state` carries the worst-case
    LP's multipliers, as `cutset_solve` returns it.  The likelihood bound
    is exp(-max(neg_log_bound, held-out certificate)), so it never claims
    more than the sample's own worst case, and `correction` is the excess.
    Needs two points in each half, one without a correction.
    """
    if unlabeled.n < (4 if z_score > 0.0 else 2):
        raise ValueError(
            "certify needs two unlabeled points per half (one at z_score 0)"
        )
    search, held_out = held_out_halves(unlabeled)
    # the search half's own minimal radius can exceed eps; its decision set
    # is then empty and its dual has no minimum, so the search runs at that
    # minimal radius instead
    search_eps = max(eps, min_feasible_radius(data, search.features, prior, cost))
    point = search_multipliers(state, data, search, prior, search_eps, cost, z_score)
    check = performance_bound(point, data, held_out, prior, eps, cost, z_score)
    neg_log = dual_objective(state, data, unlabeled, prior, eps, cost)
    excess = max(check.neg_log_bound + check.correction - neg_log, 0.0)
    return PerformanceBound.from_terms(neg_log, excess, unlabeled.n)


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
    # beta quantiles through the inverse regularized incomplete beta function
    lower = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, tail))
    upper = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - tail))
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

    The prior is instantiated as a point at an endpoint of the interval of
    positive-class probabilities the box allows (`oracle.positive_share_range`),
    so the radius stays feasible whichever endpoint is true.  At a point
    prior with positive share s, `min_feasible_radius` is
    W + label_flip_cost * |s - p| with W independent of s and p the labeled
    atoms' positive share, so the endpoint farther from p needs the larger
    radius and is the only one solved.
    """
    share = float(data.labels.mean())
    farther = max(
        positive_share_range(prior), key=lambda endpoint: abs(endpoint - share)
    )
    return min_feasible_radius(
        data, unlabeled.features, _point_prior_for_share(farther), cost
    )


def select_radius(
    selection: RadiusSelection,
    data: LabeledDataset,
    unlabeled: UnlabeledDataset,
    prior: LabelPrior,
    cost: TransportCost,
    full: DiscreteDistribution | None = None,
) -> RadiusSelection:
    """Choose the ambiguity radius according to the selection policy.

    Returns a completed copy of ``selection`` with ``eps`` filled in and
    ``fallback_warning`` set when the confidence-screening policy found no
    candidate radius meeting its threshold.  ``full`` is the reference
    distribution the distance-fraction policy measures the labeled sample
    against.
    """
    warned = False
    if selection.policy == MIN_RADIUS_PLUS_DELTA:
        eps = (
            prior_feasible_radius(data, unlabeled, prior, cost)
            + selection.delta_margin
        )
    elif selection.policy == AS_ROBUST_AS_POSSIBLE:
        base = prior_feasible_radius(data, unlabeled, prior, cost)
        grid = np.geomspace(
            base + selection.delta_margin,
            base + selection.grid_span,
            selection.grid_points,
        )
        eps = None
        for candidate in reversed(grid):
            theta = cutset_solve(data, unlabeled, prior, cost, float(candidate)).theta
            median_conf = float(np.median(confidence(theta, unlabeled.features)))
            if median_conf >= selection.confidence_threshold:
                eps = float(candidate)
                break
        if eps is None:
            eps = float(grid[0])
            warned = True
    elif selection.policy == FRACTION_OF_TRUE_DISTANCE:
        if full is None:
            raise ValueError(
                "distance-fraction policy requires the reference distribution"
            )
        mu = DiscreteDistribution.from_dataset(data)
        distance, _ = discrete_wasserstein(mu, full, cost)
        eps = selection.fraction * distance
    else:  # pragma: no cover - rejected by the dataclass validator
        raise ValueError(f"unknown radius policy {selection.policy!r}")
    return dataclasses.replace(
        selection, eps=float(eps), fallback_warning=warned
    )
