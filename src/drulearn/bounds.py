"""Finite-sample performance guarantees and radius-selection policies.

Turns a dual point, its multiplier vector priced on a `model.CellLayout` of
the unlabeled sample at the classifier's weights, into a certified lower
bound on out-of-sample likelihood (`performance_bound`), certifies a trained
classifier with multipliers searched on one half of the unlabeled sample and
evaluated on the other (`certify`), builds the label prior a config sets
(`configured_prior`: the Clopper-Pearson box of `weak_prior` or a strong
`LabelPrior.point`), and picks the ambiguity radius by the config's policy
(`select_radius`).  Both read a checked `config.ExperimentConfig`; neither
checks a key again.

The multiplier search (`search_multipliers`) moves the multiplier vector
itself (`model.multiplier_parts`): SLSQP's iterate, the smoothed kernel's
gradient and each stage's result share its layout.  It reads every
evaluation, smoothed or exact, from the one layout of its sample that
`certify` builds.  It starts at the origin, never at a solver's
multipliers, so a certificate depends on the classifier and the data alone.
Its smoothed kernel sends the scaled cells at or below
`EXP_ZERO` to -inf before the exponential; `np.exp` is exactly +0.0 there
either way, so the floor changes no bit, only the cost of numpy's slow path
below about -708.

The search runs SLSQP through `kernels.slsqp`, the one optimizer loop the
package runs, which the cut-set master and the baseline fit run too; its
iterates are scipy 1.17's `minimize(method="SLSQP", jac=True)`'s bit for
bit.

The search stops after three temperatures, 1e-1 to 1e-2.  Three finer
stages would go on lowering the search half's certificate, the objective
they minimize, but the figure reported is the held-out half's, and there
they fit the search half's noise: over 112 `bound` rows the three-stage
certificate was tighter on 72 and looser on 23, and higher in likelihood on
average, while the fine stages took almost half the evaluations
(`BENCH_three_stages.json`).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import (
    AS_ROBUST_AS_POSSIBLE,
    MIN_RADIUS_PLUS_DELTA,
    PRIOR_STRONG,
    ExperimentConfig,
)
from .dual import DualState, cutset_solve, dual_objective, linear_part
from .kernels import betaincinv, slsqp
from .model import (
    N_CLASSES,
    CellLayout,
    LabeledDataset,
    LabelPrior,
    TransportCost,
    both_class_losses,
    confidence,
    median,
    multiplier_parts,
    pair_costs,
)
from .oracle import discrete_wasserstein, min_feasible_radius, positive_share_range

DEFAULT_Z_SCORE = 1.96
VACUOUS_THRESHOLD = 0.5

# certificate search (see `certify`): the logsumexp temperatures, coarse to
# fine, and the SLSQP settings for each.  Finer stages would fit the search
# half's noise, not tighten the reported certificate (see the module docstring)
SMOOTHING_SCHEDULE = (1e-1, 3e-2, 1e-2)
SEARCH_OPTIONS = {"maxiter": 2000, "ftol": 1e-12}
# np.exp returns exactly +0.0 at and below this argument (its last positive
# value, the smallest subnormal, is at about -745.133)
EXP_ZERO = -745.2


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

    def __post_init__(self):
        if self.correction < 0:
            raise ValueError("correction must be nonnegative")
        if not 0.0 < self.likelihood_bound <= 1.0:
            raise ValueError("likelihood_bound must lie in (0, 1]")

    @staticmethod
    def from_terms(neg_log_bound, correction) -> "PerformanceBound":
        """The bound whose likelihood is exp(-(neg_log_bound + correction)),
        1 where that sum is negative (an empty decision set)."""
        exponent = max(neg_log_bound + correction, 0.0)
        likelihood = float(max(math.exp(-exponent), np.finfo(float).tiny))
        return PerformanceBound(
            neg_log_bound=neg_log_bound,
            correction=correction,
            likelihood_bound=likelihood,
        )

    @property
    def vacuous(self) -> bool:
        """Whether the bound says nothing beyond a coin flip per point."""
        return self.likelihood_bound <= VACUOUS_THRESHOLD


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
    multipliers,
    layout: CellLayout,
    prior: LabelPrior,
    eps: float,
    z_score: float = DEFAULT_Z_SCORE,
) -> PerformanceBound:
    """Certify a likelihood lower bound from any feasible multiplier vector,
    priced on `layout`, the `model.CellLayout` of the unlabeled sample at
    the classifier's weights.

    The negative-log bound is the dual objective itself, valid for every
    distribution in the decision set; the correction accounts for the
    unlabeled sample being finite.
    """
    values = layout.cells(multipliers).max(axis=1)
    neg_log = float(linear_part(multipliers, prior, eps) + values.mean())
    return PerformanceBound.from_terms(neg_log, normal_correction(values, z_score))


def _smoothed_bound(multipliers, layout, prior, eps, z_score, tau):
    """Dual objective plus correction at a multiplier vector
    (`model.multiplier_parts`) with every per-point maximum replaced by its
    tau-logsumexp, and its gradient, a vector laid out as the multipliers.

    Gets the cells from `layout`, built once per search, as a new flat
    (n, 2 * n_labeled) matrix, which the softmax weights overwrite in
    place; the gradient's atom and label masses are one matrix-vector
    product with the per-point shares.  A scaled cell at or below
    `EXP_ZERO` is set to -inf before the `exp`: its weight is +0.0
    either way, but numpy's vector `exp` takes a slow path below about
    -708, and -inf costs less there than a finite argument."""
    n, n_l = layout.costs.shape[0], layout.n_labeled
    flat = layout.cells(multipliers)
    top = flat.max(axis=1)
    flat -= top[:, None]
    flat /= tau
    np.putmask(flat, flat <= EXP_ZERO, -np.inf)
    np.exp(flat, out=flat)
    total = flat.sum(axis=1)
    values = top + tau * np.log(total)
    mean = values.sum() / n
    value = linear_part(multipliers, prior, eps) + mean
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
    grad = np.empty(multipliers.size)
    price, potentials, upper, lower = multiplier_parts(grad)
    price[...] = eps - share @ np.einsum("ij,ij->i", flat, layout.costs)
    np.subtract(1.0 / n_l, mass.sum(axis=1), out=potentials)
    np.subtract(prior.upper, label_mass, out=upper)
    np.subtract(label_mass, prior.lower, out=lower)
    return float(value), grad


def search_multipliers(
    layout: CellLayout,
    prior: LabelPrior,
    eps: float,
    z_score: float = DEFAULT_Z_SCORE,
):
    """The multiplier vector with the smallest certificate on `layout`
    among those the search visits.

    Every dual point gives a valid certificate, dual objective plus
    correction, so this minimizes that sum over the multipliers: SLSQP on
    its tau-logsumexp smoothing, for each tau of `SMOOTHING_SCHEDULE` in
    turn.  The first stage starts at the origin (zero transport price,
    potentials and label multipliers), a dual point that depends on no
    solver, so the result depends on its arguments alone; each later stage
    starts where the one before stopped.  SLSQP's bounds keep the price and
    label multipliers nonnegative up to an ulp or two (scipy gh-11403), so
    each stage's result is clipped into them.  The origin and the point
    returned at each tau are priced by `performance_bound` on `layout`, the
    one layout every evaluation, smoothed or exact, reads, and the best is
    returned.  The multipliers are fitted to the layout's sample, so its
    correction there is optimistic; `certify` evaluates them on other
    points.

    Where the smoothing cannot resolve a tie the search may stop up to
    1e-2 * log(2 * n_labeled) above the best certificate.
    """
    origin = np.zeros(1 + layout.n_labeled + 2 * N_CLASSES)
    # the price and the label multipliers are nonnegative, the potentials free
    lower = origin.copy()
    _, potentials, _, _ = multiplier_parts(lower)
    potentials[:] = -np.inf
    upper = np.full(origin.size, np.inf)
    point, points = origin, [origin]
    for tau in SMOOTHING_SCHEDULE:
        args = (layout, prior, eps, z_score, tau)
        run = slsqp(
            lambda z: _smoothed_bound(z, *args), point, lower, upper, **SEARCH_OPTIONS
        )
        # the clip returns a new array that no later run writes to
        point = np.clip(run.x, lower, upper)
        points.append(point)
    priced = [performance_bound(point, layout, prior, eps, z_score) for point in points]
    return points[int(np.argmin([p.neg_log_bound + p.correction for p in priced]))]


def held_out_halves(unlabeled):
    """Split an array of per-point rows (the unlabeled feature matrix, or
    its losses or transport costs) into alternate rows: the even positions
    (the search half) and the odd positions (the held-out half)."""
    return unlabeled[0::2], unlabeled[1::2]


def certify_sample_size(z_score: float) -> int:
    """The fewest unlabeled points `certify` takes: two per half, where
    each half estimates a spread, and one per half at z_score 0."""
    return 4 if z_score > 0.0 else 2


def certify(
    state: DualState,
    data: LabeledDataset,
    unlabeled,
    prior: LabelPrior,
    eps: float,
    cost: TransportCost,
    z_score: float = DEFAULT_Z_SCORE,
) -> PerformanceBound:
    """Certificate at `state.theta` whose multipliers are chosen on one half
    of the unlabeled sample and evaluated on the other.

    The sample's losses at `state.theta` and its transport costs are built
    once; the search and held-out layouts are their `held_out_halves` rows,
    bit for bit the arrays built on each half.  `search_multipliers` picks
    the multipliers on the search half, from the origin, and
    `performance_bound` evaluates them on the held-out half, which played
    no part in the choice.  `DualState` checks that the chosen point's price
    and label multipliers are nonnegative, as the search's clip keeps them.
    `neg_log_bound` is the dual objective at `state` over the whole sample,
    the one place `state`'s multipliers are read: a valid upper bound at
    any feasible point, and the exact worst case at the worst-case LP's
    optimum, as `cutset_solve` returns it.  The likelihood bound is
    exp(-max(neg_log_bound, held-out certificate)), so it never claims more
    than the sample's own worst case, and `correction` is the excess.
    Needs `certify_sample_size(z_score)` points.

    At the zero model theta = 0 both labels lose exactly log 2 at every
    point, so every distribution in the decision set has expected loss
    log 2; that exact worst case is returned with no correction and no
    search.
    """
    if len(unlabeled) < certify_sample_size(z_score):
        raise ValueError(
            "certify needs two unlabeled points per half (one at z_score 0)"
        )
    if not np.any(state.theta):
        return PerformanceBound.from_terms(math.log(2.0), 0.0)
    losses = both_class_losses(state.theta, unlabeled)
    costs = pair_costs(unlabeled, data, cost)
    # the whole sample is priced first, so its layout is freed before the search
    neg_log = dual_objective(state.multipliers, CellLayout(losses, costs), prior, eps)
    search, held_out = map(CellLayout, held_out_halves(losses), held_out_halves(costs))
    # the search half's own minimal radius can exceed eps; its decision set
    # is then empty and its dual has no minimum, so the search runs at that
    # minimal radius instead
    search_features, _ = held_out_halves(unlabeled)
    search_eps = max(eps, min_feasible_radius(data, search_features, prior, cost))
    point = search_multipliers(search, prior, search_eps, z_score)
    DualState(state.theta, point)  # checks the price and label multipliers
    check = performance_bound(point, held_out, prior, eps, z_score)
    excess = max(check.neg_log_bound + check.correction - neg_log, 0.0)
    return PerformanceBound.from_terms(neg_log, excess)


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


def weak_prior(data: LabeledDataset, level: float = 0.95) -> LabelPrior:
    """The weak label prior: the per-class Clopper-Pearson box at `level`
    around the labeled class counts."""
    counts = np.bincount(data.labels, minlength=2)
    n = int(counts.sum())
    lower0, upper0 = clopper_pearson(int(counts[0]), n, level)
    lower1, upper1 = clopper_pearson(int(counts[1]), n, level)
    return LabelPrior(
        lower=np.array([lower0, lower1]), upper=np.array([upper0, upper1])
    )


def configured_prior(
    config: ExperimentConfig, data: LabeledDataset, mode: str, class_share: float
) -> LabelPrior:
    """The label prior `config` sets on `data`, strong or weak by `mode`.

    A strong prior pins the positive share to ``prior_positive_share`` or,
    when that key is empty, to `class_share`, the share of positives in the
    whole dataset; a weak one is the Clopper-Pearson box at ``prior_level``.
    `mode` is ``prior_mode``, except in ``active``, whose strategy picks it.
    """
    if mode == PRIOR_STRONG:
        share = config.prior_positive_share
        share = class_share if share is None else share
        return LabelPrior.point((1.0 - share, share))
    return weak_prior(data, config.prior_level)


def prior_feasible_radius(
    data: LabeledDataset,
    unlabeled,
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
        data, unlabeled, LabelPrior.point((1.0 - farther, farther)), cost
    )


def select_radius(
    config: ExperimentConfig,
    data: LabeledDataset,
    unlabeled,
    prior: LabelPrior,
    cost: TransportCost,
    full: LabeledDataset,
) -> tuple[float, bool]:
    """Choose the ambiguity radius by `config`'s ``eps_policy`` and the
    policy's keys.

    Returns ``(eps, fell_back)``; ``fell_back`` is true when the
    confidence-screening policy found no candidate radius meeting its
    threshold and took its smallest one.  ``full`` is the whole table, the
    uniform reference sample whose transport distance from ``data``
    (`oracle.discrete_wasserstein`) the distance-fraction policy scales.
    """
    fell_back = False
    if config.eps_policy == MIN_RADIUS_PLUS_DELTA:
        eps = prior_feasible_radius(data, unlabeled, prior, cost) + config.delta_margin
    elif config.eps_policy == AS_ROBUST_AS_POSSIBLE:
        base = prior_feasible_radius(data, unlabeled, prior, cost)
        grid = np.geomspace(
            base + config.delta_margin,
            base + config.grid_span,
            config.grid_points,
        )
        eps = None
        for candidate in reversed(grid):
            theta = cutset_solve(data, unlabeled, prior, cost, float(candidate)).theta
            median_conf = median(confidence(theta, unlabeled))
            if median_conf >= config.confidence_threshold:
                eps = float(candidate)
                break
        if eps is None:
            eps = float(grid[0])
            fell_back = True
    else:  # FRACTION_OF_TRUE_DISTANCE
        distance, _ = discrete_wasserstein(data, full, cost)
        eps = config.fraction * distance
    return float(eps), fell_back
