"""Tests for the guarantees module: bounds, intervals, priors, radius policies."""

import math

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse, stats
from scipy.special import expit
from scipy.optimize import Bounds, minimize

from drulearn import baseline, bounds, cli, dual
from drulearn.baseline import FIT_MAX_ITER, FIT_TOL
from drulearn.bounds import (
    DEFAULT_Z_SCORE,
    EXP_ZERO,
    SEARCH_OPTIONS,
    SMOOTHING_SCHEDULE,
    PerformanceBound,
    normal_correction,
    certify,
    clopper_pearson,
    held_out_halves,
    performance_bound,
    prior_feasible_radius,
    search_multipliers,
    select_radius,
    weak_prior,
)
from drulearn.config import (
    AS_ROBUST_AS_POSSIBLE,
    FRACTION_OF_TRUE_DISTANCE,
    MIN_RADIUS_PLUS_DELTA,
    ExperimentConfig,
)
from drulearn.data import append_intercept, synthetic_two_gaussians
from drulearn.dual import (
    MASTER_MAX_ITER,
    MASTER_TOL,
    THETA_BOX,
    DualState,
    LabelPrior,
    cutset_solve,
    dual_objective,
    linear_part,
)
from drulearn import kernels
from drulearn.kernels import SlsqpResult, slsqp
from drulearn.model import (
    N_CLASSES,
    CellLayout,
    LabeledDataset,
    TransportCost,
    both_class_losses,
    logistic_loss,
    make_rng,
    multiplier_parts,
    pair_costs,
)
from drulearn.oracle import (
    discrete_wasserstein,
    min_feasible_radius,
    solve_worst_case_lp,
)

from reference import (
    SIX_STAGE_SCHEDULE,
    bits,
    feasible_distributions,
    flat_smoothed_bound,
    min_radius_duals,
    on_layout,
    sample_layout,
    stacked,
)

COST = TransportCost()
LOG2 = 0.6931471805599453


def random_prior(rng):
    lower = rng.uniform(0.0, 0.35, size=2)
    upper = np.minimum(1.0, lower + rng.uniform(0.55, 0.95, size=2))
    return LabelPrior(lower=lower, upper=upper)


def random_state(rng, dim, n_labeled, scale=1.0):
    return DualState(
        theta=rng.normal(scale=scale, size=dim),
        multipliers=stacked(
            float(rng.uniform(0.0, scale)),
            rng.normal(scale=scale, size=n_labeled),
            rng.uniform(0.0, scale, size=2),
            rng.uniform(0.0, scale, size=2),
        ),
    )


def random_instance(rng, n_labeled=3, n_unlabeled=4, dim=2):
    data = LabeledDataset(
        rng.normal(size=(n_labeled, dim)),
        rng.integers(0, 2, size=n_labeled),
    )
    unlabeled = rng.normal(size=(n_unlabeled, dim))
    return data, unlabeled, random_prior(rng)


class TestNormalCorrection:
    def test_matches_frozen_value_on_alternating_zeros_and_ones(self):
        # sample std of {0,1,0,1} with ddof=1 is sqrt(1/3); times 1.96/sqrt(4)
        value = normal_correction([0.0, 1.0, 0.0, 1.0], z_score=1.96)
        assert value == pytest.approx(0.5658032638058332, abs=1e-15)

    def test_zero_z_score_disables_the_correction_entirely(self):
        assert normal_correction([3.5], z_score=0.0) == 0.0
        assert normal_correction([], z_score=0.0) == 0.0

    def test_constant_values_give_zero(self):
        assert normal_correction(np.full(50, 2.25)) == 0.0

    def test_scales_linearly_in_z(self):
        rng = make_rng(0)
        values = rng.normal(size=30)
        base = normal_correction(values, z_score=1.0)
        assert normal_correction(values, z_score=2.0) == pytest.approx(
            2.0 * base, rel=1e-12
        )

    def test_shrinks_like_inverse_sqrt_sample_size(self):
        rng = make_rng(1)
        values = rng.normal(size=100)
        tiled = np.tile(values, 4)
        ratio = normal_correction(tiled) / normal_correction(values)
        assert ratio == pytest.approx(0.5, abs=1e-2)

    def test_rejects_single_value_and_negative_z(self):
        with pytest.raises(ValueError):
            normal_correction([1.0], z_score=1.96)
        with pytest.raises(ValueError):
            normal_correction([1.0, 2.0], z_score=-0.5)


class TestPerformanceBound:
    def test_zero_model_zero_state_certifies_exactly_one_half(self):
        rng = make_rng(2)
        data, unlabeled, prior = random_instance(rng)
        state = DualState(
            np.zeros(data.dim), stacked(0.0, np.zeros(data.n), np.zeros(2), np.zeros(2))
        )
        bound = performance_bound(
            state.multipliers, sample_layout(state.theta, data, unlabeled), prior, 0.5,
            z_score=0.0,
        )
        assert bound.neg_log_bound == LOG2
        assert bound.likelihood_bound == 0.5
        assert bound.vacuous

    def test_constant_cell_values_leave_the_correction_at_zero(self):
        # with theta = 0 and no multipliers every point attains the same
        # maximum, so even a positive z score adds nothing
        rng = make_rng(3)
        data, unlabeled, prior = random_instance(rng)
        state = DualState(
            np.zeros(data.dim), stacked(0.0, np.zeros(data.n), np.zeros(2), np.zeros(2))
        )
        bound = performance_bound(
            state.multipliers, sample_layout(state.theta, data, unlabeled), prior, 0.5,
            z_score=1.96,
        )
        assert bound.correction == 0.0
        assert bound.likelihood_bound == 0.5

    def test_reports_the_dual_objective_and_the_exp_identity(self):
        rng = make_rng(4)
        data, unlabeled, prior = random_instance(rng, n_labeled=4, n_unlabeled=6)
        state = random_state(rng, data.dim, data.n)
        eps = 0.7
        layout = sample_layout(state.theta, data, unlabeled)
        bound = performance_bound(state.multipliers, layout, prior, eps)
        assert bound.neg_log_bound == dual_objective(
            state.multipliers, layout, prior, eps
        )
        assert bound.likelihood_bound == min(
            1.0, math.exp(-(bound.neg_log_bound + bound.correction))
        )

    def test_correction_uses_the_per_point_maxima(self):
        rng = make_rng(5)
        data, unlabeled, prior = random_instance(rng, n_labeled=3, n_unlabeled=8)
        state = random_state(rng, data.dim, data.n)
        layout = sample_layout(state.theta, data, unlabeled)
        bound = performance_bound(state.multipliers, layout, prior, 0.4)
        values = layout.cells(state.multipliers).max(axis=1)
        assert bound.correction == normal_correction(values, 1.96)

    def test_likelihood_is_clamped_at_one_for_negative_objectives(self):
        # an empty decision set lets a feasible dual state push the objective
        # below zero: demand all mass on class 0 while the only atom has
        # label 1 and the radius is zero, then charge class-1 cells heavily
        x = np.array([1.0, 1.0])
        data = LabeledDataset(x[None], np.array([1]))
        unlabeled = np.vstack([x, x])
        prior = LabelPrior.point([1.0, 0.0])
        state = DualState(
            theta=np.zeros(2),
            multipliers=stacked(10.0, np.zeros(1), np.array([0.0, 10.0]), np.zeros(2)),
        )
        layout = sample_layout(state.theta, data, unlabeled)
        assert dual_objective(state.multipliers, layout, prior, 0.0) < 0
        bound = performance_bound(state.multipliers, layout, prior, 0.0)
        assert bound.likelihood_bound == 1.0
        assert not bound.vacuous
        # far below zero the exponential would overflow; the likelihood
        # stays clamped at one
        far = stacked(1000.0, np.zeros(1), np.array([0.0, 1000.0]), np.zeros(2))
        assert dual_objective(far, layout, prior, 0.0) < -709
        assert performance_bound(far, layout, prior, 0.0).likelihood_bound == 1.0

    def test_validator_rejects_out_of_range_fields(self):
        with pytest.raises(ValueError):
            PerformanceBound(1.0, -0.1, 0.5)
        with pytest.raises(ValueError):
            PerformanceBound(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PerformanceBound(1.0, 0.0, 1.5)


class TestBoundValidity:
    def test_bound_holds_for_every_oracle_feasible_distribution(self):
        # the certified likelihood (without finite-sample correction) must be
        # at or below the model's likelihood under any distribution that the
        # oracle places inside the decision set
        rng = make_rng(6)
        for trial in range(10):
            data, unlabeled, prior = random_instance(rng)
            eps = min_feasible_radius(
                data, unlabeled, prior, COST
            ) + rng.uniform(0.2, 1.0)
            state = random_state(rng, data.dim, data.n, scale=0.8)
            bound = performance_bound(
                state.multipliers, sample_layout(state.theta, data, unlabeled), prior,
                eps, z_score=0.0,
            )
            candidates = feasible_distributions(
                data, unlabeled, prior, eps, COST, count=5, seed=trial
            )
            assert candidates
            for mu in candidates:
                risk = float(
                    np.dot(mu.weights, logistic_loss(state.theta, mu.features, mu.labels))
                )
                assert risk <= bound.neg_log_bound + 1e-6
                assert math.exp(-risk) >= bound.likelihood_bound - 1e-6

    def test_bound_holds_at_a_trained_state_as_well(self):
        rng = make_rng(7)
        data, unlabeled, prior = random_instance(rng, n_labeled=3, n_unlabeled=5)
        eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.4
        result = cutset_solve(data, unlabeled, prior, COST, eps)
        bound = performance_bound(
            result.state.multipliers, sample_layout(result.theta, data, unlabeled),
            prior, eps, z_score=0.0,
        )
        for mu in feasible_distributions(
            data, unlabeled, prior, eps, COST, count=6, seed=3
        ):
            risk = float(
                np.dot(
                    mu.weights,
                    logistic_loss(result.state.theta, mu.features, mu.labels),
                )
            )
            assert math.exp(-risk) >= bound.likelihood_bound - 1e-6

    def test_likelihood_bound_shrinks_as_the_radius_grows(self):
        # optimizing the multipliers for a fixed model prices the worst case
        # over a ball, and larger balls can only contain worse distributions
        rng = make_rng(8)
        data, unlabeled, prior = random_instance(rng, n_labeled=3, n_unlabeled=5)
        theta = rng.normal(size=data.dim)
        base = min_feasible_radius(data, unlabeled, prior, COST)
        likelihoods = []
        for bump in (0.05, 0.3, 0.8):
            exact = solve_worst_case_lp(
                theta, unlabeled, data, prior, base + bump, COST
            )
            state = DualState(theta, exact.multipliers)
            bound = performance_bound(
                state.multipliers, sample_layout(theta, data, unlabeled), prior,
                base + bump, z_score=0.0,
            )
            likelihoods.append(bound.likelihood_bound)
        assert likelihoods[1] <= likelihoods[0] + 2e-3
        assert likelihoods[2] <= likelihoods[1] + 2e-3


def binomial_cdf(k, n, p):
    return sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k + 1))


def interval_by_bisection(k, n, level):
    """Independent route to the exact binomial interval via tail-sum bisection."""
    tail = (1.0 - level) / 2.0

    def bisect(fn, target, lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if fn(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    if k == 0:
        lower = 0.0
    else:
        # largest p with P(X >= k) <= tail
        lower = bisect(lambda p: 1.0 - binomial_cdf(k - 1, n, p), tail, 1.0, 0.0)
    if k == n:
        upper = 1.0
    else:
        # smallest p with P(X <= k) <= tail
        upper = bisect(lambda p: binomial_cdf(k, n, p), tail, 0.0, 1.0)
    return lower, upper


def two_cluster_features(n, seed):
    table = append_intercept(synthetic_two_gaussians(n, seed))
    return table.features, table.labels


def trained_instance(seed, n_unlabeled=120, n_labeled=12):
    """Strong-prior two-cluster instance and its cutting-set solution."""
    features, labels = two_cluster_features(n_unlabeled, seed)
    rng = make_rng(seed)
    picked = np.sort(rng.choice(n_unlabeled, n_labeled, replace=False))
    data = LabeledDataset(features[picked], labels[picked])
    unlabeled = features
    prior = LabelPrior.point([0.5, 0.5])
    eps = min_feasible_radius(data, features, prior, COST) + 0.1
    return data, unlabeled, prior, eps, cutset_solve(data, unlabeled, prior, COST, eps)


def bound_strong_instance(trial=0):
    """A trial (0 by default) of `bound` on the strong prior with the
    distance-fraction radius and 20 labels, built by the CLI's own helpers,
    and its cutting-set solution.  Its radius is the minimal feasible one."""
    config = ExperimentConfig(
        prior_mode="strong", eps_policy=FRACTION_OF_TRUE_DISTANCE, n_labeled=20
    )
    table = cli._load_table(config)
    instance = cli._build_instance(config, table, config.seed + trial)
    eps = cli._resolve_eps(config, instance)
    data, unlabeled, prior = instance.labeled, instance.unlabeled, instance.prior
    return data, unlabeled, prior, eps, cutset_solve(data, unlabeled, prior, COST, eps)


def search_radius(data, search, prior, eps):
    """The radius `certify` searches its search half at."""
    return max(eps, min_feasible_radius(data, search, prior, COST))


def corrected(bound):
    return bound.neg_log_bound + bound.correction


def zero_start(theta, n_labeled):
    return DualState(
        theta,
        stacked(0.0, np.zeros(n_labeled), np.zeros(N_CLASSES), np.zeros(N_CLASSES)),
    )


def random_start(rng, theta, n_labeled):
    return DualState(
        theta,
        stacked(
            float(rng.uniform(0.0, 3.0)),
            rng.normal(size=n_labeled),
            rng.uniform(0.0, 1.0, size=N_CLASSES),
            rng.uniform(0.0, 1.0, size=N_CLASSES),
        ),
    )


def reference_smoothed_bound(params, table, pair, data, prior, eps, z_score, tau):
    """`bounds._smoothed_bound` as it was on the (n, n_labeled, 2) cell
    tensor: the cells broadcast, the masses reduced over two axes at once."""
    n_l = data.n
    alpha, potentials = params[0], params[1 : 1 + n_l]
    upper, lower = params[1 + n_l : 3 + n_l], params[3 + n_l :]
    cells = (
        table[:, None, :]
        - alpha * pair
        - potentials[None, :, None]
        - (upper - lower)[None, None, :]
    )
    flat = cells.reshape(cells.shape[0], -1)
    top = flat.max(axis=1)
    scaled = np.exp((flat - top[:, None]) / tau)
    total = scaled.sum(axis=1)
    values = top + tau * np.log(total)
    n = values.size
    weight = np.full(n, 1.0 / n)
    value = linear_part(params, prior, eps) + values.mean()
    if z_score > 0.0:
        spread = values.std(ddof=1)
        value += z_score * spread / math.sqrt(n)
        if spread > 0.0:
            centered = values - values.mean()
            weight += z_score / math.sqrt(n) * centered / ((n - 1) * spread)
    mass = (weight[:, None] * scaled / total[:, None]).reshape(cells.shape)
    label_mass = mass.sum(axis=(0, 1))
    grad = np.concatenate(
        [
            [eps - float((mass * pair).sum())],
            1.0 / n_l - mass.sum(axis=(0, 2)),
            prior.upper - label_mass,
            label_mass - prior.lower,
        ]
    )
    return float(value), grad


def smoothed_instances():
    """240 random instances of the smoothed bound: (index, repeated,
    params, table, pair, data, prior, eps).  Every fifth repeats one point
    2, 8, 16 or 32 times."""
    rng = make_rng(31)
    for index in range(240):
        repeated = index % 5 == 0
        n = int(rng.choice([2, 8, 16, 32]) if repeated else rng.integers(2, 40))
        n_l = int(rng.integers(1, 15))
        data, unlabeled, prior = random_instance(rng, n_l, n, 3)
        features = unlabeled
        if repeated:
            features = np.repeat(features[:1], n, axis=0)
        table = both_class_losses(rng.normal(size=3) * 2.0, features)
        pair = pair_costs(features, data, COST)
        params = np.concatenate(
            [
                [0.0 if index % 7 == 0 else abs(rng.normal())],
                rng.normal(size=n_l),
                np.abs(rng.normal(size=2 * N_CLASSES)),
            ]
        )
        eps = float(rng.uniform(0.0, 2.0))
        yield index, repeated, params, table, pair, data, prior, eps


def floor_instances():
    """Random instances whose scaled cells straddle the `exp` floor: each
    point's cells sit at fixed multiples of tau below its top cell, through
    the subnormal band and past `EXP_ZERO`, then are shifted by the loss
    gap between labels and, on odd instances, by a transport charge.
    Yields (params, table, pair, data, prior, eps, tau)."""
    offsets = np.array(
        [0.0, -1.0, -700.0, -708.3, -708.5, -720.0, -745.1, -745.13,
         -745.2, -745.3, -746.0, -800.0, -1e4, -1e6]
    )
    rng = make_rng(32)
    for index in range(60):
        tau = SIX_STAGE_SCHEDULE[index % len(SIX_STAGE_SCHEDULE)]
        data, unlabeled, prior = random_instance(
            rng, offsets.size, int(rng.integers(2, 12)), 3
        )
        table = both_class_losses(rng.normal(size=3) * 0.1, unlabeled)
        pair = pair_costs(unlabeled, data, COST)
        alpha = float(rng.uniform(0.0, 3.0) * tau) if index % 2 else 0.0
        net = rng.uniform(0.0, 0.5, size=N_CLASSES)
        params = np.concatenate([[alpha], -tau * offsets, net, net[::-1]])
        eps = float(rng.uniform(0.0, 2.0))
        yield params, table, pair, data, prior, eps, tau


class TestSmoothedBound:
    def test_matches_the_broadcast_reference(self):
        # value and gradient agree with the broadcast reference at every
        # temperature, with and without the correction; at the finest
        # temperatures most cells underflow to zero weight.  On the
        # instances that repeat one point, whose mean is exact, the spread,
        # and with it the correction, is zero
        for index, repeated, params, table, pair, data, prior, eps in (
            smoothed_instances()
        ):
            layout = CellLayout(table, pair)
            for tau in SIX_STAGE_SCHEDULE:
                for z_score in (0.0, DEFAULT_Z_SCORE):
                    args = (prior, eps, z_score, tau)
                    value, grad = bounds._smoothed_bound(params, layout, *args)
                    ref_value, ref_grad = reference_smoothed_bound(
                        params, table, pair, data, *args
                    )
                    where = f"instance {index}, z {z_score}, tau {tau}"
                    assert value == pytest.approx(
                        ref_value, rel=1e-12, abs=1e-12
                    ), where
                    assert grad == pytest.approx(
                        ref_grad, rel=1e-12, abs=1e-12
                    ), where
                if repeated:
                    assert value == bounds._smoothed_bound(
                        params, layout, prior, eps, 0.0, tau
                    )[0], where

    def test_bitwise_the_flat_reference_kernel(self):
        # the layout kernel performs the flat kernel's operations in its
        # order, so value and gradient are the same doubles
        for index, _, params, table, pair, data, prior, eps in smoothed_instances():
            layout = CellLayout(table, pair)
            for tau in SIX_STAGE_SCHEDULE:
                for z_score in (0.0, DEFAULT_Z_SCORE):
                    args = (prior, eps, z_score, tau)
                    value, grad = bounds._smoothed_bound(params, layout, *args)
                    ref_value, ref_grad = flat_smoothed_bound(
                        params, table, pair, data, *args
                    )
                    where = f"instance {index}, z {z_score}, tau {tau}"
                    assert bits(value) == bits(ref_value), where
                    assert bits(grad) == bits(ref_grad), where

    def test_bitwise_the_flat_reference_kernel_across_the_exp_floor(self):
        # a scaled cell at or below EXP_ZERO is -inf before the exp and
        # weighs +0.0 either way; the cells in the subnormal band above it
        # keep their subnormal weights
        bands = np.zeros(3, dtype=int)
        for index, (params, table, pair, data, prior, eps, tau) in enumerate(
            floor_instances()
        ):
            layout = CellLayout(table, pair)
            cells = layout.cells(params)
            scaled = (cells - cells.max(axis=1)[:, None]) / tau
            bands += [
                np.sum(scaled <= EXP_ZERO),
                np.sum((scaled > EXP_ZERO) & (scaled < -708.4)),
                np.sum(scaled >= -708.4),
            ]
            for z_score in (0.0, DEFAULT_Z_SCORE):
                args = (prior, eps, z_score, tau)
                value, grad = bounds._smoothed_bound(params, layout, *args)
                ref_value, ref_grad = flat_smoothed_bound(
                    params, table, pair, data, *args
                )
                where = f"instance {index}, z {z_score}, tau {tau}"
                assert bits(value) == bits(ref_value), where
                assert bits(grad) == bits(ref_grad), where
        # every band is reached on many cells
        assert np.all(bands > 1000), bands


class TestExpFloor:
    def test_exp_is_positive_zero_at_and_below_the_floor(self):
        # the kernel's -inf substitution is exact only if the installed
        # numpy's exp returns +0.0 (sign bit clear) wherever it applies;
        # a failure here means the floor is wrong on this platform
        grid = np.concatenate(
            [
                [EXP_ZERO, np.nextafter(EXP_ZERO, 0.0)],
                [np.nextafter(EXP_ZERO, -np.inf), -np.inf],
                np.linspace(EXP_ZERO, -1e3, 100_001),
                np.geomspace(-1e3, -1e6, 100_001),
            ]
        )
        weights = np.exp(grid)
        assert np.all(weights == 0.0)
        assert not np.any(np.signbit(weights))
        assert np.exp(np.nextafter(EXP_ZERO, 0.0)) == 0.0
        # just above the threshold the smallest subnormal survives, so the
        # floor sits below np.exp's own last positive value
        assert np.exp(np.array([-745.13]))[0] > 0.0
        assert np.exp(-745.13) > 0.0


class TestCertify:
    def test_half_layouts_are_bitwise_those_built_on_each_half(self, monkeypatch):
        # certify builds one loss table and one cost tensor for the whole
        # sample and takes its search and held-out layouts from their rows;
        # each is, bit for bit, the layout built on that half's features
        built = []

        class Recording(CellLayout):
            def __init__(self, loss_table, pair_costs):
                super().__init__(loss_table, pair_costs)
                built.append(self)

        monkeypatch.setattr(bounds, "CellLayout", Recording)
        rng = make_rng(50)
        for index in range(60):
            n_l, dim = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            data, unlabeled, prior = random_instance(
                rng, n_l, int(rng.integers(4, 41)), dim
            )
            state = random_state(rng, dim, n_l, scale=2.0)
            eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.1
            built.clear()
            certify(state, data, unlabeled, prior, eps, COST)
            search, held_out = held_out_halves(unlabeled)
            expected = [
                sample_layout(state.theta, data, features)
                for features in (unlabeled, search, held_out)
            ]
            assert len(built) == len(expected), index
            for layout, reference in zip(built, expected):
                for name in ("losses", "costs", "atom", "label"):
                    mine, theirs = getattr(layout, name), getattr(reference, name)
                    assert mine.shape == theirs.shape, (index, name)
                    assert bits(mine) == bits(theirs), (index, name)

    def test_search_is_reproducible(self):
        # the search reads nothing but its layout, prior and radius: two
        # searches on layouts built apart return the same bits and the same
        # certificate, on instances whose trained classifier is not zero;
        # the last instance sits on its minimal feasible radius
        instances = [trained_instance(seed) for seed in (1, 2, 3)]
        instances.append(bound_strong_instance())
        for index, (data, unlabeled, prior, eps, result) in enumerate(instances):
            assert np.linalg.norm(result.theta) > 1e-2
            search, _ = held_out_halves(unlabeled)
            search_eps = search_radius(data, search, prior, eps)
            points = [
                search_multipliers(
                    sample_layout(result.theta, data, search), prior, search_eps
                )
                for _ in range(2)
            ]
            assert bits(points[0]) == bits(points[1]), index
            bounds_twice = [
                certify(result.state, data, unlabeled, prior, eps, COST)
                for _ in range(2)
            ]
            assert bounds_twice[0] == bounds_twice[1], index

    def test_certificate_does_not_depend_on_the_dual_point(self):
        # at the minimal feasible radius the worst-case LP's optimal duals
        # form an unbounded face: from the LP's point, raising the transport
        # price by t and moving the potentials and label multipliers along
        # the min-radius LP's duals leaves the dual objective where it is;
        # the certificate from that second optimal point is the same, on
        # both trials of the `bound_strong` benchmark config
        t = 100.0
        for trial in (0, 1):
            data, unlabeled, prior, eps, result = bound_strong_instance(trial)
            eps_min, _, v, beta, gamma = min_radius_duals(
                data, unlabeled, prior, COST
            )
            assert eps == pytest.approx(eps_min, abs=1e-9), trial
            shift = stacked(t, -t * v, t * beta, t * gamma)
            other = DualState(result.theta, result.state.multipliers + shift)
            layout = sample_layout(result.theta, data, unlabeled)
            assert dual_objective(
                other.multipliers, layout, prior, eps
            ) == pytest.approx(
                dual_objective(result.state.multipliers, layout, prior, eps), abs=1e-9
            ), trial
            at_lp = certify(result.state, data, unlabeled, prior, eps, COST)
            at_other = certify(other, data, unlabeled, prior, eps, COST)
            assert abs(at_lp.likelihood_bound - at_other.likelihood_bound) <= 1e-12, (
                trial
            )

    def test_origin_certifies_the_zero_model_at_log_2(self):
        # at theta = 0 every cell ties: the origin prices every point at
        # log 2 with zero spread, the best certificate there, and the search
        # keeps it as a candidate, so the smoothing's floor of the last
        # temperature times log(2 * n_labeled) never shows; `certify`
        # returns that exact worst case without a search
        data, unlabeled, prior, eps, result = trained_instance(4)
        np.testing.assert_array_equal(result.theta, np.zeros(data.dim))
        layout = sample_layout(result.theta, data, unlabeled)
        origin = zero_start(result.theta, data.n).multipliers
        assert corrected(performance_bound(origin, layout, prior, eps)) == LOG2
        point = search_multipliers(layout, prior, eps)
        value = corrected(performance_bound(point, layout, prior, eps))
        assert value == pytest.approx(LOG2, abs=1e-12)
        bound = certify(result.state, data, unlabeled, prior, eps, COST)
        assert bound == PerformanceBound(LOG2, 0.0, 0.5)

    def test_search_never_raises_the_certificate_on_its_own_sample(self):
        for seed in (1, 2, 3):
            data, unlabeled, prior, eps, result = trained_instance(seed)
            layout = sample_layout(result.theta, data, unlabeled)
            multipliers = result.state.multipliers
            searched = search_multipliers(layout, prior, eps)
            assert corrected(
                performance_bound(searched, layout, prior, eps)
            ) <= corrected(performance_bound(multipliers, layout, prior, eps))
            # without a correction the search ends no higher than its start,
            # the origin, which it prices exactly, and, by weak duality, no
            # lower than the exact worst case
            origin = zero_start(result.theta, data.n).multipliers
            exact = search_multipliers(layout, prior, eps, z_score=0.0)
            value = dual_objective(exact, layout, prior, eps)
            assert value <= dual_objective(origin, layout, prior, eps)
            assert value >= result.upper - 1e-6

    def test_certificate_evaluates_the_searched_point_on_the_held_out_half(self):
        for seed in (1, 3):
            data, unlabeled, prior, eps, result = trained_instance(seed)
            search, held_out = held_out_halves(unlabeled)
            np.testing.assert_array_equal(search, unlabeled[0::2])
            np.testing.assert_array_equal(held_out, unlabeled[1::2])
            multipliers = result.state.multipliers
            point = search_multipliers(
                sample_layout(result.theta, data, search), prior, eps
            )
            check = performance_bound(
                point, sample_layout(result.theta, data, held_out), prior, eps
            )
            bound = certify(result.state, data, unlabeled, prior, eps, COST)
            assert bound.neg_log_bound == dual_objective(
                multipliers, sample_layout(result.theta, data, unlabeled), prior, eps
            )
            assert bound.neg_log_bound == pytest.approx(result.upper, abs=1e-6)
            assert corrected(bound) == pytest.approx(
                max(corrected(check), bound.neg_log_bound), abs=1e-15
            )
            assert bound.likelihood_bound == math.exp(-corrected(bound))

    def test_certificate_is_the_reference_kernel_certificate(self, monkeypatch):
        # the search's stopping point may move within its tolerances when
        # the kernel sums its gradient in another order, but every candidate
        # is priced exactly, so the certificate agrees with the one the
        # broadcast reference kernel finds; at the zero model both searches
        # return the origin, their shared start, so only instances that
        # train a nonzero classifier count
        seed, checked = 20, 0
        while checked < 20:
            seed += 1
            rng = make_rng(seed)
            n_l = int(rng.integers(3, 10))
            features, labels = two_cluster_features(int(rng.integers(20, 60)), seed)
            picked = np.sort(rng.choice(features.shape[0], n_l, replace=False))
            data = LabeledDataset(features[picked], labels[picked])
            unlabeled = features
            prior = (
                LabelPrior.point([0.5, 0.5]) if seed % 2 else random_prior(rng)
            )
            eps = min_feasible_radius(data, features, prior, COST) + float(
                rng.uniform(0.02, 0.2)
            )
            result = cutset_solve(data, unlabeled, prior, COST, eps)
            if not np.any(result.theta):
                continue
            checked += 1
            bound = certify(result.state, data, unlabeled, prior, eps, COST)
            with monkeypatch.context() as patch:
                patch.setattr(
                    bounds, "_smoothed_bound", on_layout(reference_smoothed_bound)
                )
                reference = certify(result.state, data, unlabeled, prior, eps, COST)
            assert bound.neg_log_bound == reference.neg_log_bound
            assert corrected(bound) == pytest.approx(
                corrected(reference), abs=1e-6
            ), f"seed {seed}"

    def test_search_is_bitwise_the_flat_reference_kernel_search(self, monkeypatch):
        # the layout kernel hands SLSQP the flat kernel's doubles, so the
        # search takes the same path under both and returns the same point
        for seed in (1, 2, 3, 4):
            data, unlabeled, prior, eps, result = trained_instance(seed)
            search, _ = held_out_halves(unlabeled)
            layout = sample_layout(result.theta, data, search)
            point = search_multipliers(layout, prior, eps)
            with monkeypatch.context() as patch:
                patch.setattr(bounds, "_smoothed_bound", on_layout(flat_smoothed_bound))
                reference = search_multipliers(layout, prior, eps)
            assert bits(point) == bits(reference), f"seed {seed}"

    def test_three_stages_certify_no_looser_on_average_than_six(self, monkeypatch):
        # the fine stages fit the search half's noise: on the held-out half,
        # which the reported certificate reads, the three-stage schedule is
        # at least as tight on average over these instances as the six-stage
        # one (6.7e-4 lower: 15 instances tighter, 5 looser, 4 equal)
        instances = [trained_instance(seed) for seed in range(1, 25)]

        def mean_certificate():
            return np.mean(
                [
                    corrected(
                        certify(result.state, data, unlabeled, prior, eps, COST)
                    )
                    for data, unlabeled, prior, eps, result in instances
                ]
            )

        three = mean_certificate()
        monkeypatch.setattr(bounds, "SMOOTHING_SCHEDULE", SIX_STAGE_SCHEDULE)
        six = mean_certificate()
        assert SMOOTHING_SCHEDULE == SIX_STAGE_SCHEDULE[:3]
        assert three <= six

    def test_each_half_needs_two_points_for_a_correction(self):
        data, unlabeled, prior, eps, result = trained_instance(3)
        for n, z_score in ((3, DEFAULT_Z_SCORE), (1, 0.0)):
            small = unlabeled[:n]
            with pytest.raises(ValueError):
                certify(result.state, data, small, prior, eps, COST, z_score)
        for n, z_score in ((4, DEFAULT_Z_SCORE), (2, 0.0)):
            small = unlabeled[:n]
            wider = min_feasible_radius(data, small, prior, COST) + 0.1
            certify(result.state, data, small, prior, wider, COST, z_score)

    def test_corrected_certificate_covers_the_population_dual(self):
        # The correction is a normal approximation at multipliers chosen on
        # the other half of the sample.  Redraw the unlabeled sample 40 times
        # at one trained classifier, estimate the population dual objective
        # at the multipliers the search picks from 1e5 fresh points, and
        # count how often it exceeds the certificate.  The gate, fixed before
        # the count was seen, rejects a count whose upper tail at the nominal
        # one-sided 2.5 % rate is below 0.05: at most 3 of 40 may exceed.
        data, _, prior, eps, result = trained_instance(3)
        population, _ = two_cluster_features(100_000, 10_000)
        draws = 40
        exceedances = 0
        for draw in range(draws):
            features, _ = two_cluster_features(120, 100 + draw)
            unlabeled = features
            search, _ = held_out_halves(unlabeled)
            point = search_multipliers(
                sample_layout(result.theta, data, search),
                prior,
                eps,
            )
            population_dual = np.mean(
                [
                    dual_objective(
                        point, sample_layout(result.theta, data, chunk), prior, eps
                    )
                    for chunk in np.split(population, 10)
                ]
            )
            bound = certify(result.state, data, unlabeled, prior, eps, COST)
            exceedances += population_dual > corrected(bound)
        limit = next(
            k for k in range(draws + 1) if stats.binom.sf(k - 1, draws, 0.025) < 0.05
        )
        assert limit == 4
        assert exceedances < limit


def search_lower(n_labeled):
    """The search's lower bounds: alpha and the label multipliers are
    nonnegative, the atom potentials free."""
    return np.concatenate([[0.0], np.full(n_labeled, -np.inf), np.zeros(2 * N_CLASSES)])


def search_stage(params, lower, args, maxiter=SEARCH_OPTIONS["maxiter"]):
    """One search stage through the driver: its result and the number of
    times it evaluated the smoothed bound."""
    evaluations = []

    def smoothed(z):
        evaluations.append(None)
        return bounds._smoothed_bound(z, *args)

    upper = np.full(lower.size, np.inf)
    options = {**SEARCH_OPTIONS, "maxiter": maxiter}
    return slsqp(smoothed, params, lower, upper, **options), len(evaluations)


def minimize_search(params, lower, args, maxiter=SEARCH_OPTIONS["maxiter"]):
    """One search stage through `scipy.optimize.minimize`'s SLSQP."""
    return minimize(
        bounds._smoothed_bound,
        params,
        args=args,
        jac=True,
        method="SLSQP",
        bounds=Bounds(lower, np.inf),
        options={**SEARCH_OPTIONS, "maxiter": maxiter},
    )


def master_calls(seed, monkeypatch):
    """The (cuts, features, theta_start) of every `_solve_master` call in
    the cut-set run of `trained_instance(seed)`."""
    calls = []
    solve = dual._solve_master

    def recording(cuts, features, theta_start):
        calls.append((list(cuts), features, theta_start.copy()))
        return solve(cuts, features, theta_start)

    with monkeypatch.context() as patch:
        patch.setattr(dual, "_solve_master", recording)
        trained_instance(seed)
    return calls


def driver_runs(module, run, monkeypatch):
    """Call `run()` with `module`'s SLSQP driver spied on: the arguments and
    the result of each of its calls."""
    runs = []

    def spy(*args, **kwargs):
        runs.append((args, kwargs, slsqp(*args, **kwargs)))
        return runs[-1][2]

    with monkeypatch.context() as patch:
        patch.setattr(module, "slsqp", spy)
        run()
    return runs


def minimize_slsqp(args, kwargs, bounds, maxiter):
    """The driver's problem through `scipy.optimize.minimize`'s SLSQP, with
    the bounds and options the master and the baseline fit gave it."""
    fun, x0 = args[:2]
    return minimize(
        fun,
        x0,
        jac=True,
        method="SLSQP",
        bounds=bounds,
        constraints={
            "type": "ineq", "fun": kwargs["constraints"], "jac": kwargs["jacobian"],
        },
        options={"ftol": kwargs["ftol"], "maxiter": maxiter},
    )


def master_bounds(dim):
    return [(-THETA_BOX, THETA_BOX)] * dim + [(None, None)]


def baseline_bounds(data):
    return [(None, None)] * data.dim + [(0.0, None)] + [(None, None)] * data.n


# the fixture the robustness sweep tests fit; at radius 0.5 its optimum is
# the no-confidence model theta = 0
SWEEP_DATA = LabeledDataset(
    np.column_stack([make_rng(31).normal(size=(6, 2)), np.ones(6)]),
    np.array([1, 0, 1, 0, 1, 0]),
)
SWEEP_RADII = (0.0, 0.05, 0.2, 0.5)


def assert_same_run(result, reference, where):
    assert bits(result.x) == bits(reference.x), where
    assert result.status == reference.status, where
    assert result.nit == reference.nit, where
    assert result.message == reference.message, where


def kernel_arguments(module, name, run, monkeypatch):
    """What `module.<name>`, SLSQP's compiled kernel, is handed at its
    first call in `run()`: the state it starts from, and the shape, dtype
    and memory order of every array after f."""
    calls = []
    kernel = getattr(module, name)

    def recording(state, *arrays):
        if not calls:
            calls.append(
                (
                    dict(state),
                    [(a.shape, a.dtype, a.flags.f_contiguous) for a in arrays[1:]],
                )
            )
        return kernel(state, *arrays)

    with monkeypatch.context() as patch:
        patch.setattr(module, name, recording)
        run()
    return calls[0]


def perturbed_stages(monkeypatch):
    """Patch the search's driver so that every stage's result has one of
    each class's label multipliers one ulp below its bound, 0.

    At a point prior only each class's upper minus lower label multiplier
    enters the objective, so moving both down by the smaller of the two
    leaves the stage's certificate where it was, up to rounding."""
    below = np.nextafter(0.0, -1.0)

    def leaving(fun, x0, lower, upper, **options):
        result = slsqp(fun, x0, lower, upper, **options)
        x = result.x.copy()
        _, _, up, low = multiplier_parts(x)
        shift = np.minimum(up, low)
        for part in (up, low):
            part -= shift
            np.putmask(part, part == 0.0, below)
        return SlsqpResult(x, result.status, result.nit)

    monkeypatch.setattr(bounds, "slsqp", leaving)


class TestSlsqpDriver:
    # the cut-set master, the baseline fit and the certificate search drive
    # SLSQP's compiled kernel in the loop `minimize` runs around it; a scipy
    # release that changes that kernel or that loop fails these comparisons

    def test_every_master_solve_is_bitwise_minimize(self, monkeypatch):
        for seed in (1, 2, 3, 4):
            calls = master_calls(seed, monkeypatch)
            assert len(calls) >= 2, seed
            for index, (cuts, features, theta_start) in enumerate(calls):
                [(args, kwargs, result)] = driver_runs(
                    dual,
                    lambda: dual._solve_master(cuts, features, theta_start),
                    monkeypatch,
                )
                assert kwargs["ftol"] == MASTER_TOL
                assert kwargs["maxiter"] == MASTER_MAX_ITER
                reference = minimize_slsqp(
                    args, kwargs, master_bounds(theta_start.size), MASTER_MAX_ITER
                )
                assert reference.success, f"seed {seed}, master {index}"
                assert_same_run(result, reference, f"seed {seed}, master {index}")

    def test_every_baseline_fit_is_bitwise_minimize(self, monkeypatch):
        assert not baseline.baseline_train(SWEEP_DATA, 0.5, COST).theta.any()
        for eps in SWEEP_RADII:
            [(args, kwargs, result)] = driver_runs(
                baseline,
                lambda: baseline.baseline_train(SWEEP_DATA, eps, COST),
                monkeypatch,
            )
            assert kwargs["ftol"] == FIT_TOL and kwargs["maxiter"] == FIT_MAX_ITER
            reference = minimize_slsqp(
                args, kwargs, baseline_bounds(SWEEP_DATA), FIT_MAX_ITER
            )
            assert reference.success, f"eps {eps}"
            assert_same_run(result, reference, f"eps {eps}")

    def test_start_outside_the_box_is_clipped_as_minimize_clips_it(
        self, monkeypatch
    ):
        cuts, features, theta_start = master_calls(2, monkeypatch)[1]
        theta_start = theta_start.copy()
        theta_start[0] = 3.0 * THETA_BOX
        theta_start[-1] = -2.0 * THETA_BOX
        [(args, kwargs, result)] = driver_runs(
            dual, lambda: dual._solve_master(cuts, features, theta_start), monkeypatch
        )
        reference = minimize_slsqp(
            args, kwargs, master_bounds(theta_start.size), MASTER_MAX_ITER
        )
        assert np.all(np.abs(result.x[: theta_start.size]) <= THETA_BOX)
        assert_same_run(result, reference, "clipped start")

    def test_iteration_limit_stops_where_minimize_stops(self, monkeypatch):
        [(args, kwargs, _)] = driver_runs(
            baseline,
            lambda: baseline.baseline_train(SWEEP_DATA, 0.05, COST),
            monkeypatch,
        )
        for maxiter in (1, 2, 5):
            result = slsqp(*args, **{**kwargs, "maxiter": maxiter})
            reference = minimize_slsqp(
                args, kwargs, baseline_bounds(SWEEP_DATA), maxiter
            )
            # the limit, not convergence, ended the run
            assert result.status == 9 and result.nit == maxiter, maxiter
            assert_same_run(result, reference, f"maxiter {maxiter}")

    def test_training_never_calls_minimize(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("training called scipy's minimize")

        monkeypatch.setattr(scipy.optimize, "minimize", refuse)
        monkeypatch.setattr(scipy.optimize._slsqp_py, "_minimize_slsqp", refuse)
        monkeypatch.setattr(scipy.optimize._minimize, "_minimize_slsqp", refuse)
        data, unlabeled, prior, eps, result = trained_instance(1)
        assert result.status == "converged"
        for eps in SWEEP_RADII:
            baseline.baseline_train(SWEEP_DATA, eps, COST)

    def test_every_search_stage_is_bitwise_minimize(self):
        for seed in (1, 2, 3, 4):
            data, unlabeled, prior, eps, result = trained_instance(seed)
            search, _ = held_out_halves(unlabeled)
            layout = sample_layout(result.theta, data, search)
            lower = search_lower(data.n)
            for start in (
                result.state,
                random_start(make_rng(seed), result.theta, data.n),
            ):
                params = start.multipliers
                for tau in SMOOTHING_SCHEDULE:
                    args = (layout, prior, eps, DEFAULT_Z_SCORE, tau)
                    run, evaluations = search_stage(params, lower, args)
                    reference = minimize_search(params, lower, args)
                    where = f"seed {seed}, tau {tau}"
                    assert reference.success, where
                    assert_same_run(run, reference, where)
                    # one evaluation per point, as `minimize(jac=True)` makes
                    assert evaluations == reference.nfev, where
                    params = run.x

    def test_search_start_outside_the_bounds_is_clipped_as_minimize_clips_it(self):
        for seed in (1, 3):
            data, unlabeled, prior, eps, result = trained_instance(seed)
            search, _ = held_out_halves(unlabeled)
            lower = search_lower(data.n)
            params = random_start(make_rng(seed), result.theta, data.n).multipliers
            params[0] = -1.0
            params[-2 * N_CLASSES :] *= -1.0
            assert np.any(params < lower)
            args = (sample_layout(result.theta, data, search), prior, eps, 0.0, 1e-2)
            run, evaluations = search_stage(params, lower, args)
            reference = minimize_search(params, lower, args)
            assert np.all(run.x >= lower)
            assert_same_run(run, reference, f"seed {seed}")
            assert evaluations == reference.nfev, f"seed {seed}"

    def test_search_iteration_limit_stops_where_minimize_stops(self):
        data, unlabeled, prior, eps, result = trained_instance(2)
        search, _ = held_out_halves(unlabeled)
        lower = search_lower(data.n)
        params = random_start(make_rng(2), result.theta, data.n).multipliers
        args = (
            sample_layout(result.theta, data, search),
            prior, eps, DEFAULT_Z_SCORE, SMOOTHING_SCHEDULE[-1],
        )
        for maxiter in (1, 2, 5, 12):
            run, evaluations = search_stage(params, lower, args, maxiter)
            reference = minimize_search(params, lower, args, maxiter=maxiter)
            # the limit, not convergence, ended the run
            assert run.status == 9 and run.nit == maxiter, maxiter
            assert_same_run(run, reference, f"maxiter {maxiter}")
            assert evaluations == reference.nfev, maxiter

    def test_kernel_workspace_is_sized_as_minimize_sizes_it(self, monkeypatch):
        # with bounds alone (the search) scipy hands the kernel a one-row
        # constraint block and tops its buffer up by 2n(n + 1); with a block
        # of inequality rows (the master) it does not
        data, unlabeled, prior, eps, result = trained_instance(1)
        lower = search_lower(data.n)
        args = (sample_layout(result.theta, data, unlabeled), prior, eps, 0.0, 1e-1)
        params = result.state.multipliers
        cuts, features, theta_start = master_calls(2, monkeypatch)[1]
        [(master_args, master_kwargs, _)] = driver_runs(
            dual, lambda: dual._solve_master(cuts, features, theta_start), monkeypatch
        )
        runs = {
            "search": (
                lambda: search_stage(params, lower, args),
                lambda: minimize_search(params, lower, args),
            ),
            "master": (
                lambda: slsqp(*master_args, **master_kwargs),
                lambda: minimize_slsqp(
                    master_args,
                    master_kwargs,
                    master_bounds(theta_start.size),
                    MASTER_MAX_ITER,
                ),
            ),
        }
        for name, (mine, theirs) in runs.items():
            ours = kernel_arguments(kernels, "_slsqp_kernel", mine, monkeypatch)
            reference = kernel_arguments(
                scipy.optimize._slsqp_py, "slsqp", theirs, monkeypatch
            )
            assert ours == reference, name
        n = lower.size
        state, arrays = kernel_arguments(
            kernels, "_slsqp_kernel", runs["search"][0], monkeypatch
        )
        assert state["m"] == 0
        # g, C, d, x, mult, xl, xu, buffer, indices
        assert [shape for shape, _, _ in arrays] == [
            (n,), (1, n), (1,), (n,), (2 * n + 2,), (n,), (n,),
            (n * (n + 1) // 2 + 8 * n * n + 35 * n + 28 + 2 * n * (n + 1),),
            (2 * n + 2,),
        ]

    def test_stage_result_below_a_bound_is_clipped_and_certifies(self, monkeypatch):
        # SLSQP can leave a bound by an ulp or two (scipy gh-11403); a
        # negative price or label multiplier would make `certify`'s
        # `DualState` check raise, so the search clips each stage's result
        data, unlabeled, prior, eps, result = trained_instance(1)
        search, _ = held_out_halves(unlabeled)
        layout = sample_layout(result.theta, data, search)
        lower = search_lower(data.n)
        perturbed_stages(monkeypatch)
        point = search_multipliers(layout, prior, eps)
        # a stage's result, not the origin, won, and one of each class's
        # label multipliers is the bound itself, +0.0
        assert np.any(point)
        _, _, up, low = multiplier_parts(point)
        assert bits(np.minimum(up, low)) == bits(np.zeros(N_CLASSES))
        assert np.all(point >= lower)
        bound = certify(result.state, data, unlabeled, prior, eps, COST)
        assert 0.0 < bound.likelihood_bound <= 1.0

    def test_search_writes_neither_its_start_nor_its_result(self):
        # the search returns its start, the origin, or a stage's clipped
        # SLSQP result, and `certify` keeps it in a `DualState` as given, so
        # no later stage or search may write to one; at the zero model
        # (seed 4) the search returns the origin itself
        for seed in (1, 2, 4):
            data, unlabeled, prior, eps, result = trained_instance(seed)
            search, _ = held_out_halves(unlabeled)
            layout = sample_layout(result.theta, data, search)
            point = search_multipliers(layout, prior, eps)
            found = bits(point)
            search_multipliers(layout, prior, eps)
            certify(result.state, data, unlabeled, prior, eps, COST)
            assert bits(point) == found, f"seed {seed}"
            assert np.any(point) == (seed != 4), f"seed {seed}"

    def test_search_never_calls_minimize(self, monkeypatch):
        data, unlabeled, prior, eps, result = trained_instance(1)

        def refuse(*args, **kwargs):
            raise AssertionError("the certificate search called scipy's minimize")

        monkeypatch.setattr(scipy.optimize, "minimize", refuse)
        monkeypatch.setattr(scipy.optimize._slsqp_py, "_minimize_slsqp", refuse)
        monkeypatch.setattr(scipy.optimize._minimize, "_minimize_slsqp", refuse)
        point = search_multipliers(
            sample_layout(result.theta, data, unlabeled), prior, eps
        )
        assert point.shape == result.state.multipliers.shape
        certify(result.state, data, unlabeled, prior, eps, COST)



def csr_slack(z, rows, features):
    """The master's constraint vector with its cut product taken by
    `scipy.sparse.csr_array`."""
    dim = features.shape[1]
    return z[dim] - rows @ both_class_losses(z[:dim], features).ravel()


def csr_slack_jacobian(z, rows, features):
    """The constraint vector's Jacobian with its cut product taken by
    `scipy.sparse.csr_array`."""
    dim = features.shape[1]
    repeated = np.repeat(features, N_CLASSES, axis=0)
    residual = (expit(features @ z[:dim])[:, None] - np.arange(N_CLASSES)).ravel()
    jac = np.ones((rows.shape[0], dim + 1))
    jac[:, :dim] = -(rows @ (residual[:, None] * repeated))
    return jac


class TestCutProduct:
    # the master sums each cut's products left to right in numpy; these
    # sums add the terms `csr_array @` adds, in its order, so the two agree
    # bit for bit, the all-zero cut included

    def test_every_master_constraint_is_bitwise_csr_array(self, monkeypatch):
        for seed in (1, 2, 3, 4):
            for index, (cuts, features, start) in enumerate(
                master_calls(seed, monkeypatch)
            ):
                # the recorded cuts, and the same with an all-zero cut
                for stacked in (cuts, cuts[:1] + [np.zeros_like(cuts[0])] + cuts[1:]):
                    rows = sparse.csr_array(np.stack(stacked))
                    [(args, kwargs, _)] = driver_runs(
                        dual,
                        lambda: dual._solve_master(stacked, features, start),
                        monkeypatch,
                    )
                    checked = []

                    def slack(z):
                        value = kwargs["constraints"](z)
                        assert bits(value) == bits(csr_slack(z, rows, features))
                        checked.append("slack")
                        return value

                    def jacobian(z):
                        value = kwargs["jacobian"](z)
                        expected = csr_slack_jacobian(z, rows, features)
                        assert bits(value) == bits(expected)
                        checked.append("jacobian")
                        return value

                    where = f"seed {seed}, master {index}"
                    result = slsqp(
                        *args, **{**kwargs, "constraints": slack, "jacobian": jacobian}
                    )
                    assert result.success, where
                    assert {"slack", "jacobian"} <= set(checked), where


class TestClopperPearson:
    def test_matches_frozen_values(self):
        lower, upper = clopper_pearson(0, 20)
        assert lower == 0.0
        assert upper == pytest.approx(0.1684334709830182, abs=1e-12)
        lower, upper = clopper_pearson(10, 20)
        assert lower == pytest.approx(0.27195784956120406, abs=1e-12)
        assert upper == pytest.approx(0.7280421504387959, abs=1e-12)

    def test_all_successes_is_the_mirror_of_no_successes(self):
        lower, upper = clopper_pearson(20, 20)
        assert upper == 1.0
        assert lower == pytest.approx(1.0 - 0.1684334709830182, abs=1e-12)

    def test_agrees_with_tail_sum_bisection_oracle(self):
        for n, k, level in [
            (5, 0, 0.95),
            (5, 2, 0.95),
            (12, 7, 0.9),
            (20, 10, 0.95),
            (20, 19, 0.99),
            (17, 17, 0.95),
        ]:
            got = clopper_pearson(k, n, level)
            want = interval_by_bisection(k, n, level)
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == pytest.approx(want[1], abs=1e-9)

    def test_is_bit_identical_to_the_beta_quantiles(self):
        # the incomplete-beta inverse gives exactly the beta distribution's
        # quantiles, so priors and every output built on them are unchanged
        for level in (0.9, 0.95, 0.99):
            tail = (1.0 - level) / 2.0
            for n in (1, 2, 3, 5, 10, 17, 20, 40, 99, 200, 399):
                for k in range(n + 1):
                    lower, upper = clopper_pearson(k, n, level)
                    if k > 0:
                        assert lower == float(stats.beta.ppf(tail, k, n - k + 1))
                    if k < n:
                        assert upper == float(
                            stats.beta.ppf(1.0 - tail, k + 1, n - k)
                        )

    def test_contains_the_empirical_frequency(self):
        n = 13
        for k in range(n + 1):
            lower, upper = clopper_pearson(k, n)
            assert lower <= k / n <= upper

    def test_exhaustive_coverage_at_small_sample_sizes(self):
        # for every success probability on a grid, the chance that the random
        # interval contains it must meet the confidence level
        for n in (5, 12, 20):
            for level in (0.9, 0.95):
                intervals = [clopper_pearson(k, n, level) for k in range(n + 1)]
                for p in np.linspace(0.01, 0.99, 33):
                    coverage = sum(
                        math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
                        for k, (lo, hi) in enumerate(intervals)
                        if lo <= p <= hi
                    )
                    assert coverage >= level - 1e-12

    def test_widens_with_the_confidence_level(self):
        narrow = clopper_pearson(6, 15, 0.9)
        wide = clopper_pearson(6, 15, 0.99)
        assert wide[0] < narrow[0]
        assert wide[1] > narrow[1]

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            clopper_pearson(1, 0)
        with pytest.raises(ValueError):
            clopper_pearson(5, 4)
        with pytest.raises(ValueError):
            clopper_pearson(-1, 4)
        with pytest.raises(ValueError):
            clopper_pearson(2, 4, level=1.0)


class TestMakePrior:
    # the strong prior is `LabelPrior.point`, the weak one `weak_prior`
    def test_strong_mode_pins_both_bounds_exactly(self):
        prior = LabelPrior.point((0.3, 0.7))
        assert np.array_equal(prior.lower, [0.3, 0.7])
        assert np.array_equal(prior.upper, [0.3, 0.7])

    def test_strong_mode_validates_the_probabilities(self):
        with pytest.raises(ValueError):
            LabelPrior.point((0.3, 0.6))
        with pytest.raises(ValueError):
            LabelPrior.point(None)
        with pytest.raises(ValueError):
            LabelPrior.point((0.2, 0.3, 0.5))

    def test_weak_mode_reproduces_the_per_class_intervals(self):
        labels = np.array([1] * 10 + [0] * 10)
        data = LabeledDataset(np.zeros((20, 2)), labels)
        prior = weak_prior(data, level=0.95)
        lower1, upper1 = clopper_pearson(10, 20)
        assert prior.lower[1] == lower1
        assert prior.upper[1] == upper1
        # balanced counts make the two class intervals mirror images
        assert prior.lower[0] == pytest.approx(1.0 - upper1, abs=1e-12)
        assert prior.upper[0] == pytest.approx(1.0 - lower1, abs=1e-12)

    def test_weak_mode_box_contains_the_empirical_frequencies(self):
        rng = make_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            labels = rng.integers(0, 2, size=n)
            data = LabeledDataset(rng.normal(size=(n, 2)), labels)
            prior = weak_prior(data)
            freq = np.bincount(labels, minlength=2) / n
            assert np.all(prior.lower <= freq + 1e-12)
            assert np.all(prior.upper >= freq - 1e-12)


class TestPriorFeasibleRadius:
    def test_one_solve_equals_the_larger_of_the_two_endpoint_radii(self):
        # weak (Clopper-Pearson), strong and random-box priors: the one
        # transport solve at the endpoint farther from the labeled share is
        # bitwise the maximum over both endpoints of the positive shares the
        # box allows, where the class-0 bounds also bind
        rng = make_rng(43)
        for _ in range(40):
            data, unlabeled, box = random_instance(
                rng, n_labeled=int(rng.integers(1, 7))
            )
            share = float(rng.uniform())
            for prior in (
                box,
                weak_prior(data),
                LabelPrior.point((1.0 - share, share)),
            ):
                endpoints = max(
                    min_feasible_radius(
                        data,
                        unlabeled,
                        LabelPrior.point([1.0 - endpoint, endpoint]),
                        COST,
                    )
                    for endpoint in (
                        max(float(prior.lower[1]), 1.0 - float(prior.upper[0])),
                        min(float(prior.upper[1]), 1.0 - float(prior.lower[0])),
                    )
                )
                radius = prior_feasible_radius(data, unlabeled, prior, COST)
                assert radius == endpoints

    def test_sizes_for_the_share_the_class_0_bounds_allow(self):
        # the class-0 bounds cap the positive share at 1 - 0.3 = 0.7, below
        # upper[1] = 0.9: the radius must be sized for 0.7, not 0.9
        rng = make_rng(44)
        data = LabeledDataset(rng.normal(size=(2, 2)), np.array([0, 0]))
        unlabeled = rng.normal(size=(8, 2))
        prior = LabelPrior(lower=[0.3, 0.1], upper=[0.9, 0.9])

        def at_share(share):
            point = LabelPrior.point([1.0 - share, share])
            return min_feasible_radius(data, unlabeled, point, COST)

        radius = prior_feasible_radius(data, unlabeled, prior, COST)
        assert radius == at_share(0.7)
        assert radius < at_share(0.9)


class TestSelectRadius:
    def test_min_radius_plus_delta_with_a_point_prior(self):
        rng = make_rng(10)
        data, unlabeled, _ = random_instance(rng)
        prior = LabelPrior.point([0.5, 0.5])
        base = min_feasible_radius(data, unlabeled, prior, COST)
        eps, fell_back = select_radius(
            ExperimentConfig(eps_policy=MIN_RADIUS_PLUS_DELTA),
            data,
            unlabeled,
            prior,
            COST,
            data,
        )
        assert eps == pytest.approx(base + 1e-3, abs=1e-12)
        assert not fell_back

    def test_min_radius_plus_delta_takes_the_worse_interval_endpoint(self):
        # all labels are 1, so demanding 80% of the mass on class 0 forces
        # expensive flips while demanding 10% barely moves anything
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        data = LabeledDataset(x, np.array([1, 1]))
        unlabeled = x
        prior = LabelPrior(lower=np.array([0.1, 0.2]), upper=np.array([0.8, 0.9]))
        low_end = min_feasible_radius(
            data, unlabeled, LabelPrior.point([0.8, 0.2]), COST
        )
        high_end = min_feasible_radius(
            data, unlabeled, LabelPrior.point([0.1, 0.9]), COST
        )
        assert low_end > high_end
        eps, _ = select_radius(
            ExperimentConfig(eps_policy=MIN_RADIUS_PLUS_DELTA),
            data,
            unlabeled,
            prior,
            COST,
            data,
        )
        assert eps == pytest.approx(max(low_end, high_end) + 1e-3, abs=1e-12)

    def test_distance_fraction_of_the_dataset_to_itself_is_zero(self):
        rng = make_rng(11)
        data, unlabeled, prior = random_instance(rng)
        eps, _ = select_radius(
            ExperimentConfig(eps_policy=FRACTION_OF_TRUE_DISTANCE),
            data,
            unlabeled,
            prior,
            COST,
            full=data,
        )
        assert eps == 0.0

    def test_distance_fraction_scales_the_transport_distance(self):
        rng = make_rng(12)
        data = LabeledDataset(rng.normal(size=(3, 2)), np.array([0, 1, 1]))
        full = LabeledDataset(rng.normal(size=(9, 2)), rng.integers(0, 2, size=9))
        unlabeled = full.features
        distance, _ = discrete_wasserstein(data, full, COST)
        prior = LabelPrior(np.zeros(2), np.ones(2))
        for fraction in (1.0, 0.5):
            eps, _ = select_radius(
                ExperimentConfig(
                    eps_policy=FRACTION_OF_TRUE_DISTANCE, fraction=fraction
                ),
                data,
                unlabeled,
                prior,
                COST,
                full=full,
            )
            assert eps == pytest.approx(fraction * distance, rel=1e-12)

    def _screening_instance(self, seed, spread, noise):
        rng = make_rng(seed)
        centers = np.array([[spread, spread], [-spread, -spread]])
        features = np.concatenate(
            [rng.normal(scale=noise, size=(6, 2)) + c for c in centers]
        )
        labels = np.array([1] * 6 + [0] * 6)
        data = LabeledDataset(features, labels)
        unlabeled = features
        prior = LabelPrior.point([0.5, 0.5])
        return data, unlabeled, prior

    def test_confidence_screening_keeps_the_largest_passing_radius(self):
        # at the widest radius of this instance the trained model falls below
        # the threshold, so the scan must settle on the middle grid point, the
        # largest one that still clears it
        data, unlabeled, prior = self._screening_instance(14, 3.0, 0.2)
        config = ExperimentConfig(
            eps_policy=AS_ROBUST_AS_POSSIBLE,
            confidence_threshold=0.7,
            grid_points=3,
            grid_span=0.5,
        )
        eps, fell_back = select_radius(config, data, unlabeled, prior, COST, data)
        base = min_feasible_radius(data, unlabeled, prior, COST)
        grid = np.geomspace(base + 1e-3, base + 0.5, 3)
        assert eps == pytest.approx(grid[1], rel=1e-12)
        assert not fell_back

    def test_confidence_screening_falls_back_to_the_smallest_radius(self):
        # heavily overlapping classes keep the median confidence well under
        # 0.99 at every radius, so the policy must fall back and warn
        data, unlabeled, prior = self._screening_instance(21, 1.0, 1.2)
        config = ExperimentConfig(
            eps_policy=AS_ROBUST_AS_POSSIBLE,
            confidence_threshold=0.99,
            grid_points=3,
            grid_span=0.5,
        )
        eps, fell_back = select_radius(config, data, unlabeled, prior, COST, data)
        base = min_feasible_radius(data, unlabeled, prior, COST)
        grid = np.geomspace(base + 1e-3, base + 0.5, 3)
        assert eps == pytest.approx(grid[0], rel=1e-12)
        assert fell_back

    def test_selected_radius_is_always_nonnegative(self):
        rng = make_rng(15)
        data, unlabeled, prior = random_instance(rng)
        eps, _ = select_radius(
            ExperimentConfig(eps_policy=MIN_RADIUS_PLUS_DELTA),
            data,
            unlabeled,
            prior,
            COST,
            data,
        )
        assert eps >= 0.0
