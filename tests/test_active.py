"""Tests for active-learning strategies, the acquisition loop, and AULC."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from drulearn.active import (
    ActiveState,
    DR_STRONG,
    DR_WEAK,
    EMC,
    MAX_MC,
    MIN_MC,
    RANDOM,
    StrategyConfig,
    aulc,
    erm_train_l2,
    evaluation_likelihood,
    impact_gradient_norm,
    initial_state,
    run_active_loop,
    posterior_scores,
    score_dr,
    select_next,
)
from drulearn.bounds import make_prior, prior_feasible_radius
from drulearn.dual import InfeasibleRadiusError, LabelPrior
from drulearn.model import (
    LabeledDataset,
    TransportCost,
    UnlabeledDataset,
    logistic_loss,
    logistic_predict,
    loss_grad_theta,
    make_rng,
)
from drulearn.oracle import PayoffLp, min_feasible_radius
from reference import feasible_distributions

COST = TransportCost()


def two_cluster_data(rng, n, spread=1.5, noise=0.4):
    half = n // 2
    features = np.concatenate(
        [
            rng.normal(scale=noise, size=(half, 2)) + spread,
            rng.normal(scale=noise, size=(n - half, 2)) - spread,
        ]
    )
    labels = np.array([1] * half + [0] * (n - half))
    return LabeledDataset(features, labels)


class TestErmTrainL2:
    def test_symmetric_data_gives_a_stationary_aligned_separator(self):
        features = np.array([[1.0, 0.5], [-1.0, -0.5], [2.0, 1.0], [-2.0, -1.0]])
        data = LabeledDataset(features, np.array([1, 0, 1, 0]))
        theta = erm_train_l2(data, 0.01)
        gradient = loss_grad_theta(theta, features, data.labels).mean(
            axis=0
        ) + 2 * 0.01 * theta
        assert np.linalg.norm(gradient) <= 1e-6
        assert features[0] @ theta > 0

    def test_single_sample_stays_finite_under_ridge(self):
        data = LabeledDataset(np.array([[2.0, 1.0]]), np.array([1]))
        theta = erm_train_l2(data, 0.001)
        assert np.all(np.isfinite(theta))
        assert logistic_predict(theta, data.features[0]) < 1.0

    def test_matches_an_independent_convex_solver(self):
        rng = make_rng(0)
        data = two_cluster_data(rng, 20)
        gamma = 0.001
        theta = erm_train_l2(data, gamma)

        def objective(candidate):
            return float(
                np.mean(logistic_loss(candidate, data.features, data.labels))
                + gamma * candidate @ candidate
            )

        reference = minimize(objective, np.zeros(2), method="BFGS")
        assert objective(theta) <= reference.fun + 1e-6

    def test_unregularized_degenerate_fit_raises(self):
        # a single point with no ridge has a rank-one curvature matrix, so the
        # damped Newton step cannot proceed
        data = LabeledDataset(np.array([[1.0, 2.0]]), np.array([1]))
        with pytest.raises(RuntimeError):
            erm_train_l2(data, 0.0)

    def test_rejects_negative_ridge(self):
        data = LabeledDataset(np.array([[1.0, 2.0]]), np.array([1]))
        with pytest.raises(ValueError):
            erm_train_l2(data, -0.1)


class TestImpactGradientNorm:
    def test_zero_model_halves_the_feature_norm(self):
        assert impact_gradient_norm(np.zeros(2), [1.2, 1.6], 1) == 1.0

    def test_vanishes_when_the_label_agrees_with_a_saturated_prediction(self):
        theta = np.array([20.0, 0.0])
        assert impact_gradient_norm(theta, [2.0, 0.0], 1) <= 1e-8

    def test_equals_the_gradient_norm_and_its_closed_form(self):
        rng = make_rng(1)
        for _ in range(50):
            theta = rng.normal(size=3)
            x = rng.normal(size=3)
            y = int(rng.integers(0, 2))
            value = impact_gradient_norm(theta, x, y)
            assert value == np.linalg.norm(loss_grad_theta(theta, x, y))
            closed = np.linalg.norm(x) * abs(logistic_predict(theta, x) - y)
            assert value == pytest.approx(closed, rel=1e-12)


class TestChangeScores:
    def test_zero_model_values(self):
        x = np.array([3.0, 0.0])
        assert posterior_scores(np.zeros(2), x, EMC)[0] == 1.5
        assert posterior_scores(np.zeros(2), x, MIN_MC)[0] == 0.5
        assert posterior_scores(np.zeros(2), x, MAX_MC)[0] == 0.5

    def test_emc_is_the_posterior_weighted_mean_impact(self):
        rng = make_rng(2)
        for _ in range(100):
            theta = rng.normal(size=2)
            x = rng.normal(size=2) * rng.uniform(0.1, 3.0)
            p = logistic_predict(theta, x)
            expected = p * impact_gradient_norm(theta, x, 1) + (
                1.0 - p
            ) * impact_gradient_norm(theta, x, 0)
            assert posterior_scores(theta, x, EMC)[0] == pytest.approx(
                expected, rel=1e-12
            )

    def test_min_and_max_bracket_a_half_and_sum_to_one(self):
        rng = make_rng(3)
        for _ in range(30):
            theta = rng.normal(size=2)
            x = rng.normal(size=2)
            low = posterior_scores(theta, x, MIN_MC)[0]
            high = posterior_scores(theta, x, MAX_MC)[0]
            assert low <= 0.5 <= high
            assert low + high == pytest.approx(1.0, abs=1e-12)

    def test_norm_switch_scales_both_posterior_scores(self):
        theta = np.array([0.4, -0.7])
        x = np.array([1.5, 2.0])
        norm = np.linalg.norm(x)
        for kind in (MIN_MC, MAX_MC):
            scaled = posterior_scores(theta, x, kind, include_norm=True)[0]
            bare = posterior_scores(theta, x, kind)[0]
            assert scaled == pytest.approx(norm * bare, rel=1e-15)


class TestScoreDr:
    def test_singleton_decision_set_returns_the_forced_label_impact(self):
        # one atom, matching support, and a point prior pin the distribution,
        # so the worst-case impact is the impact of the forced label
        x0 = np.array([0.8, -0.4])
        data = LabeledDataset(x0[None], np.array([1]))
        unlabeled = UnlabeledDataset(x0[None])
        prior = LabelPrior.point([0.0, 1.0])
        theta = np.array([0.5, 0.3])
        model = PayoffLp(unlabeled.features, data, prior, 0.5, COST)
        score = score_dr(model, unlabeled.features, 0, theta)
        assert score == pytest.approx(impact_gradient_norm(theta, x0, 1), abs=1e-3)

    def test_free_labels_price_at_the_pessimistic_impact(self):
        # with an uninformative prior and a huge radius only the feature
        # marginal binds, so the adversary puts the impact-minimizing label
        # on the candidate
        rng = make_rng(3)
        data = LabeledDataset(rng.normal(size=(3, 2)), np.array([1, 0, 1]))
        pool = rng.normal(size=(4, 2))
        theta = np.array([0.5, 0.3])
        x_star = pool[2]
        model = PayoffLp(pool, data, LabelPrior.uninformative(), 6.0, COST)
        score = score_dr(model, pool, 2, theta)
        floor = min(
            impact_gradient_norm(theta, x_star, 0),
            impact_gradient_norm(theta, x_star, 1),
        )
        assert score <= floor + 1e-3
        assert score == pytest.approx(floor, abs=1e-2)

    def test_zero_impact_candidate_scores_zero(self):
        rng = make_rng(3)
        data = LabeledDataset(rng.normal(size=(3, 2)), np.array([1, 0, 1]))
        pool = np.vstack([rng.normal(size=(2, 2)), np.zeros(2)])
        theta = np.array([0.5, 0.3])
        model = PayoffLp(pool, data, LabelPrior.uninformative(), 6.0, COST)
        score = score_dr(model, pool, 2, theta)
        assert score == pytest.approx(0.0, abs=1e-2)

    def test_score_is_the_exact_worst_case_over_the_decision_set(self):
        # the decision set puts 1/n_u of its mass on the candidate, so the
        # expected impact there under any feasible distribution is the
        # label-averaged impact conditional on the candidate; the score is
        # the minimum of that over the set, hence never above any vertex
        rng = make_rng(21)
        data = LabeledDataset(rng.normal(size=(6, 2)), np.arange(6) % 2)
        pool = rng.normal(size=(20, 2))
        theta = np.array([0.8, -0.6])
        prior = LabelPrior(lower=[0.4, 0.4], upper=[0.6, 0.6])
        eps = min_feasible_radius(data, pool, prior, COST) + 0.02
        vertices = feasible_distributions(data, pool, prior, eps, COST, count=12)
        model = PayoffLp(pool, data, prior, eps, COST)
        free_model = PayoffLp(pool, data, LabelPrior.uninformative(), 50.0, COST)
        for target, x_star in enumerate(pool):
            score = score_dr(model, pool, target, theta)
            for dist in vertices:
                at_star = (dist.features == x_star).all(axis=1)
                impacts = [
                    impact_gradient_norm(theta, x_star, y)
                    for y in dist.labels[at_star]
                ]
                weights = dist.weights[at_star]
                expected = float(weights @ impacts / weights.sum())
                assert score <= expected + 1e-8
            # a huge radius under the uninformative prior frees the label at
            # the candidate, so the adversary takes the smaller impact
            free = score_dr(free_model, pool, target, theta)
            floor = min(
                impact_gradient_norm(theta, x_star, 0),
                impact_gradient_norm(theta, x_star, 1),
            )
            assert free == pytest.approx(floor, abs=1e-8)

    def test_empty_decision_set_raises(self):
        # the prior demands all mass on class 0 while the only atom carries
        # label 1 and the radius cannot pay for the flip
        x0 = np.array([1.0, 1.0])
        data = LabeledDataset(x0[None], np.array([1]))
        prior = LabelPrior.point([1.0, 0.0])
        model = PayoffLp(x0[None], data, prior, 0.01, COST)
        with pytest.raises(InfeasibleRadiusError):
            score_dr(model, x0[None], 0, np.zeros(2))


class TestSelectNext:
    def _state(self, pool_features, pool_labels=None, theta=None):
        labeled = LabeledDataset(
            np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([1, 0])
        )
        pool_features = np.asarray(pool_features, dtype=float)
        if pool_labels is None:
            pool_labels = np.zeros(len(pool_features), dtype=int)
        return ActiveState(
            labeled=labeled,
            pool_features=pool_features,
            pool_labels=pool_labels,
            theta=theta,
        )

    def test_singleton_pool_is_chosen_by_every_strategy(self):
        pool = np.array([[0.5, 0.5]])
        for kind in (RANDOM, EMC, MIN_MC, MAX_MC, DR_WEAK, DR_STRONG):
            state = self._state(pool, pool_labels=np.array([1]), theta=np.zeros(2))
            strategy = StrategyConfig(kind=kind, candidate_subsample=3, seed=0)
            chosen = select_next(
                state, strategy, make_rng(0), cost=COST, class_share=0.5,
            )
            assert chosen == 0

    def test_zero_model_emc_takes_the_largest_feature_norm(self):
        pool = np.array([[1.0, 0.0], [3.0, 0.5], [0.2, 0.1]])
        state = self._state(pool, theta=np.zeros(2))
        chosen = select_next(state, StrategyConfig(kind=EMC), make_rng(0))
        assert chosen == 1

    def test_exact_ties_break_toward_the_lower_index(self):
        pool = np.array([[2.0, 1.0], [2.0, 1.0]])
        state = self._state(pool, theta=np.array([0.3, -0.2]))
        for kind in (EMC, MIN_MC, MAX_MC):
            chosen = select_next(state, StrategyConfig(kind=kind), make_rng(0))
            assert chosen == 0

    def test_score_value_is_invariant_under_pool_permutation(self):
        rng = make_rng(4)
        pool = rng.normal(size=(6, 2))
        theta = rng.normal(size=2)
        state = self._state(pool, theta=theta)
        chosen = select_next(state, StrategyConfig(kind=EMC), make_rng(0))
        perm = rng.permutation(6)
        permuted = self._state(pool[perm], theta=theta)
        chosen_perm = select_next(permuted, StrategyConfig(kind=EMC), make_rng(0))
        assert posterior_scores(theta, pool[chosen], EMC)[0] == pytest.approx(
            posterior_scores(theta, pool[perm][chosen_perm], EMC)[0], rel=1e-12
        )

    def test_pool_scoring_picks_the_best_per_point_score(self):
        # the per-point loop is the reference for the vectorized pool scores
        rng = make_rng(8)
        for _ in range(30):
            pool = rng.normal(size=(12, 2)) * rng.uniform(0.1, 3.0)
            theta = rng.normal(size=2)
            state = self._state(pool, theta=theta)
            for kind in (EMC, MIN_MC, MAX_MC):
                for norm in (False, True):
                    strategy = StrategyConfig(kind=kind, mc_include_norm=norm)
                    chosen = select_next(state, strategy, make_rng(0))
                    scores = [posterior_scores(theta, x, kind, norm)[0] for x in pool]
                    assert chosen == int(np.argmax(scores))

    def test_robust_pick_matches_one_shot_scores(self):
        # select_next prices every candidate on one shared model; scoring
        # each with its own one-shot score_dr must pick the same point
        rng = make_rng(9)
        for seed in range(4):
            initial = initial_state(two_cluster_data(rng, 30, noise=1.2), 6, seed)
            theta = erm_train_l2(initial.labeled, 1e-3)
            state = dataclasses.replace(initial, theta=theta)
            pool = UnlabeledDataset(state.pool_features)
            for kind in (DR_WEAK, DR_STRONG):
                strategy = StrategyConfig(
                    kind=kind, candidate_subsample=state.pool_size
                )
                chosen = select_next(
                    state, strategy, make_rng(0), cost=COST, class_share=0.5
                )
                if kind == DR_WEAK:
                    prior = make_prior(state.labeled, mode="weak")
                else:
                    prior = make_prior(
                        state.labeled, mode="strong", probabilities=(0.5, 0.5)
                    )
                eps = prior_feasible_radius(state.labeled, pool, prior, COST)
                eps += strategy.delta_margin
                scores = [
                    score_dr(
                        PayoffLp(pool.features, state.labeled, prior, eps, COST),
                        pool.features, j, theta,
                    )
                    for j in range(pool.n)
                ]
                assert chosen == int(np.argmax(scores))

    def test_robust_pick_solves_the_pool_coupling_once(self, transport_solves):
        # the step's radius and its model share one pool-to-atoms transport
        rng = make_rng(10)
        initial = initial_state(two_cluster_data(rng, 40, noise=1.2), 12, 0)
        state = dataclasses.replace(
            initial, theta=erm_train_l2(initial.labeled, 1e-3)
        )
        strategy = StrategyConfig(kind=DR_WEAK, candidate_subsample=8)
        select_next(state, strategy, make_rng(0), cost=COST)
        assert transport_solves == [(state.pool_size, state.labeled.n)]

    def test_random_strategy_is_seed_deterministic(self):
        pool = np.arange(20, dtype=float).reshape(10, 2)
        state = self._state(pool)
        first = select_next(state, StrategyConfig(kind=RANDOM), make_rng(7))
        second = select_next(state, StrategyConfig(kind=RANDOM), make_rng(7))
        assert first == second

    def test_empty_pool_and_missing_model_are_rejected(self):
        state = self._state(np.empty((0, 2)))
        with pytest.raises(ValueError):
            select_next(state, StrategyConfig(kind=RANDOM), make_rng(0))
        unscored = self._state(np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError):
            select_next(unscored, StrategyConfig(kind=EMC), make_rng(0))


class TestActiveStateAndInit:
    def test_initial_split_partitions_the_data_deterministically(self):
        rng = make_rng(5)
        data = two_cluster_data(rng, 30)
        first = initial_state(data, 8, seed=3)
        second = initial_state(data, 8, seed=3)
        assert np.array_equal(first.labeled.features, second.labeled.features)
        assert np.array_equal(first.pool_features, second.pool_features)
        assert first.labeled.n == 8
        assert first.pool_size == 22
        combined = np.vstack([first.labeled.features, first.pool_features])
        assert sorted(map(tuple, combined)) == sorted(map(tuple, data.features))

    def test_history_must_be_strictly_increasing(self):
        labeled = LabeledDataset(np.zeros((1, 2)), np.array([1]))
        with pytest.raises(ValueError):
            ActiveState(
                labeled=labeled,
                pool_features=np.ones((1, 2)),
                pool_labels=np.array([0]),
                history=((5, 0.5), (5, 0.6)),
            )

    def test_initial_size_bounds_are_enforced(self):
        data = LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 0]))
        with pytest.raises(ValueError):
            initial_state(data, 0, seed=0)
        with pytest.raises(ValueError):
            initial_state(data, 4, seed=0)


class TestRunActiveLoop:
    def _setup(self, n=24, n_initial=6, seed=9):
        rng = make_rng(5)
        data = two_cluster_data(rng, n)
        return data, initial_state(data, n_initial, seed=seed)

    def test_random_curve_is_bitwise_reproducible(self):
        data, init = self._setup()
        strategy = StrategyConfig(kind=RANDOM, seed=21)
        first = run_active_loop(init, strategy, data, 12)
        second = run_active_loop(init, strategy, data, 12)
        assert first.history == second.history

    def test_curve_has_one_entry_per_labeled_count(self):
        data, init = self._setup()
        done = run_active_loop(init, StrategyConfig(kind=EMC, seed=1), data, 13)
        counts = [n for n, _ in done.history]
        assert counts == list(range(6, 14))
        assert done.labeled.n == 13
        assert done.pool_size == init.pool_size - 7

    def test_learning_improves_every_strategy_on_overlapping_clusters(self):
        # a weak 4-point start on noisy clusters leaves room for every
        # strategy, including the easy-point-seeking optimistic one, to gain
        rng = make_rng(6)
        data = two_cluster_data(rng, 28, spread=1.2, noise=0.8)
        init = initial_state(data, 4, seed=9)
        for kind in (RANDOM, EMC, MIN_MC, MAX_MC, DR_WEAK):
            strategy = StrategyConfig(kind=kind, candidate_subsample=4, seed=9)
            done = run_active_loop(init, strategy, data, 16, cost=COST)
            assert done.history[-1][1] >= done.history[0][1] - 1e-9

    def test_stopping_bounds_are_validated(self):
        data, init = self._setup()
        with pytest.raises(ValueError):
            run_active_loop(init, StrategyConfig(kind=RANDOM), data, 6)
        with pytest.raises(ValueError):
            run_active_loop(init, StrategyConfig(kind=RANDOM), data, 25)

    def test_evaluation_likelihood_is_the_geometric_mean(self):
        data = LabeledDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1, 0]))
        theta = np.array([0.7, -0.3])
        expected = math.exp(
            -float(np.mean(logistic_loss(theta, data.features, data.labels)))
        )
        assert evaluation_likelihood(theta, data) == expected


class TestAulc:
    def test_constant_curve_scales_to_its_level(self):
        curve = [(n, 0.954) for n in range(20, 101)]
        assert aulc(curve) == pytest.approx(95.4, abs=1e-12)
        assert aulc([(20, 0.5), (100, 0.5)]) == pytest.approx(50.0, abs=1e-12)

    def test_linear_ramp_halves_the_plateau(self):
        curve = [(n, (n - 20) / 80) for n in range(20, 101)]
        assert aulc(curve) == pytest.approx(50.0, abs=1e-12)

    def test_pointwise_domination_orders_the_areas(self):
        rng = make_rng(6)
        base = rng.uniform(0.2, 0.8, size=30)
        counts = np.arange(10, 40)
        lower = list(zip(counts, base))
        upper = list(zip(counts, base + rng.uniform(0.0, 0.2, size=30)))
        assert aulc(upper) >= aulc(lower)

    def test_unnormalized_grids_are_rejected(self):
        with pytest.raises(ValueError):
            aulc([(10, 0.5)])
        with pytest.raises(ValueError):
            aulc([(10, 0.5), (10, 0.6)])
        with pytest.raises(ValueError):
            aulc([(10, 0.5), (9, 0.6)])
