"""Tests for the plain transport-ball robust baseline."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from drulearn.baseline import (
    BaselineResult,
    baseline_train,
    feature_norm,
    worst_case_price,
)
from drulearn.model import (
    LabeledDataset,
    TransportCost,
    both_class_losses,
    confidence,
    logistic_loss,
    make_rng,
)
from reference import full_lp_reference

COST = TransportCost()
LOG2 = 0.6931471805599453


def with_bias(features):
    features = np.atleast_2d(features)
    return np.column_stack([features, np.ones(len(features))])


def random_biased_instance(rng, n=5, dim=2):
    data = LabeledDataset(
        with_bias(rng.normal(size=(n, dim))), rng.integers(0, 2, size=n)
    )
    theta = rng.normal(size=dim + 1)
    return data, theta


def empirical_loss(theta, data):
    return float(np.mean(logistic_loss(theta, data.features, data.labels)))


def restarted_nelder_mead(objective, start):
    """Least value Nelder-Mead reaches, restarted from its own stopping point
    while that still improves: one run can stall on a kink of the piecewise
    smooth worst case, with the objective still falling along a line."""
    options = {"xatol": 1e-10, "fatol": 1e-13, "maxiter": 20000, "maxfev": 20000}
    best = minimize(objective, start, method="Nelder-Mead", options=options)
    while True:
        again = minimize(objective, best.x, method="Nelder-Mead", options=options)
        if again.fun >= best.fun:
            return best.fun
        best = again


class TestFeatureNorm:
    def test_excludes_the_intercept_coordinate(self):
        assert feature_norm([3.0, 4.0, 100.0]) == 5.0
        assert feature_norm([7.5]) == 0.0


class TestBaselineWorstCase:
    def test_zero_radius_recovers_the_empirical_loss_exactly(self):
        rng = make_rng(0)
        for _ in range(20):
            data, theta = random_biased_instance(rng)
            value = worst_case_price(theta, data, 0.0, COST)[1]
            assert abs(value - empirical_loss(theta, data)) <= 1e-12

    def test_zero_model_prices_at_log_two_for_every_radius(self):
        data = LabeledDataset(with_bias([[0.5, -1.0], [2.0, 0.3]]), np.array([0, 1]))
        for eps in (0.0, 0.1, 1.0, 50.0):
            assert worst_case_price(np.zeros(3), data, eps, COST)[1] == LOG2

    def test_monotone_nondecreasing_in_the_radius(self):
        rng = make_rng(1)
        for _ in range(10):
            data, theta = random_biased_instance(rng)
            grid = [0.0, 0.05, 0.2, 0.5, 1.5, 4.0]
            values = [worst_case_price(theta, data, e, COST)[1] for e in grid]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_concave_in_the_radius_by_midpoint(self):
        rng = make_rng(2)
        for _ in range(10):
            data, theta = random_biased_instance(rng)
            a, b = sorted(rng.uniform(0.0, 3.0, size=2))
            mid = worst_case_price(theta, data, 0.5 * (a + b), COST)[1]
            ends = (
                worst_case_price(theta, data, a, COST)[1]
                + worst_case_price(theta, data, b, COST)[1]
            )
            assert mid >= 0.5 * ends - 1e-9

    def test_inactive_flip_regime_is_linear_in_the_radius(self):
        # margins stay below the feature norm times the flip price, so no
        # label flip is ever worth paying for and the worst case is exactly
        # the feature-norm slope times the radius plus the empirical loss
        rng = make_rng(3)
        features = with_bias(rng.uniform(-0.3, 0.3, size=(6, 2)))
        data = LabeledDataset(features, rng.integers(0, 2, size=6))
        theta = np.array([1.0, 0.5, 0.05])
        norm = feature_norm(theta)
        for eps in (0.0, 0.4, 1.1):
            expected = norm * eps + empirical_loss(theta, data)
            assert worst_case_price(theta, data, eps, COST)[1] == pytest.approx(
                expected, abs=1e-10
            )

    def test_rescaling_features_moves_only_the_slope(self):
        # doubling the features while halving the non-intercept block keeps
        # every margin, hence every per-sample loss; the worst case changes
        # only through the halved sensitivity norm
        rng = make_rng(4)
        features = with_bias(rng.uniform(-0.3, 0.3, size=(6, 2)))
        data = LabeledDataset(features, rng.integers(0, 2, size=6))
        theta = np.array([1.0, 0.5, 0.05])
        scaled_features = features.copy()
        scaled_features[:, :2] *= 2.0
        scaled_data = LabeledDataset(scaled_features, data.labels)
        scaled_theta = np.array([0.5, 0.25, 0.05])
        assert empirical_loss(scaled_theta, scaled_data) == pytest.approx(
            empirical_loss(theta, data), abs=1e-12
        )
        eps = 0.8
        original = worst_case_price(theta, data, eps, COST)[1]
        scaled = worst_case_price(scaled_theta, scaled_data, eps, COST)[1]
        assert original == pytest.approx(
            feature_norm(theta) * eps + empirical_loss(theta, data), abs=1e-10
        )
        assert scaled == pytest.approx(
            feature_norm(scaled_theta) * eps + empirical_loss(theta, data), abs=1e-10
        )
        assert original - scaled == pytest.approx(
            0.5 * feature_norm(theta) * eps, abs=1e-9
        )

    def test_agrees_with_the_transport_ball_lp_on_a_dense_grid(self):
        # the grid discretization lower-bounds the continuous worst case; when
        # the optimal price sits strictly above the feature norm the maximum
        # lives on the data points themselves and the two routes coincide
        data = LabeledDataset(
            np.array([[-1.0, 1.0], [0.2, 1.0], [1.0, 1.0]]), np.array([0, 1, 1])
        )
        theta = np.array([1.5, -0.2])
        grid = np.unique(
            np.concatenate([np.linspace(-4.0, 4.0, 401), data.features[:, 0]])
        )
        support = np.column_stack([grid, np.ones_like(grid)])
        for eps in (0.1, 0.3, 0.6):
            closed = worst_case_price(theta, data, eps, COST)[1]
            _, lp_value = full_lp_reference(theta, support, data, None, eps, COST)
            # the LP's sanctioned budget slack can push it a hair above
            assert closed >= lp_value - 1e-8
            assert closed == pytest.approx(lp_value, abs=2e-2)
            price, _ = worst_case_price(theta, data, eps, COST)
            if price > feature_norm(theta) + 0.1:
                assert closed == pytest.approx(lp_value, abs=1e-7)

    def test_rejects_a_negative_radius(self):
        data = LabeledDataset(with_bias([[0.0, 0.0]]), np.array([1]))
        with pytest.raises(ValueError):
            worst_case_price(np.zeros(3), data, -0.1, COST)


class TestWorstCasePrice:
    def test_price_dominates_the_feature_norm(self):
        rng = make_rng(5)
        for _ in range(20):
            data, theta = random_biased_instance(rng)
            eps = float(rng.uniform(0.0, 2.0))
            price, value = worst_case_price(theta, data, eps, COST)
            assert price >= feature_norm(theta) - 1e-9
            losses = both_class_losses(theta, data.features)
            rows = np.arange(data.n)
            keep, flip = losses[rows, data.labels], losses[rows, 1 - data.labels]

            def objective(alpha):
                hinge = np.maximum(keep, flip - alpha * COST.label_flip_cost)
                return alpha * eps + float(hinge.mean())

            assert value == pytest.approx(objective(price), rel=1e-12)
            # the objective may be flat right of the price: allow rounding
            for other in (feature_norm(theta), price + 1.0):
                assert value <= objective(other) + 1e-12

    def test_zero_model_prices_at_zero(self):
        data = LabeledDataset(with_bias([[1.0, 2.0]]), np.array([1]))
        price, value = worst_case_price(np.zeros(3), data, 0.7, COST)
        assert price == 0.0
        assert value == LOG2

    def test_is_the_smallest_minimizer_by_enumeration(self):
        # the objective is convex and piecewise linear in the price, so its
        # minimum over prices >= the feature norm is attained at the norm or
        # at a breakpoint (flip_i - keep_i) / kappa above it; the smallest
        # minimizer is where the right slope eps - kappa * #{b > price} / n
        # is nonnegative while the slope just left of it is negative
        rng = make_rng(6)
        reached = set()
        for _ in range(1200):
            n, dim = int(rng.integers(1, 13)), int(rng.integers(1, 4))
            features = rng.normal(size=(n, dim))
            labels = rng.integers(0, 2, size=n)
            if rng.uniform() < 0.3:
                # repeated rows tie their breakpoints
                copies = rng.integers(0, n, size=n)
                features, labels = features[copies], labels[copies]
            data = LabeledDataset(with_bias(features), labels)
            theta = rng.normal(size=dim + 1) * float(rng.uniform() > 0.15)
            kappa = float(rng.choice([0.0, 0.5, 2.0]))
            draw = int(rng.integers(0, 4))
            if draw == 0:
                eps = kappa * (int(rng.integers(0, n + 1)) / n)
            elif draw == 1:
                eps = kappa + float(rng.uniform(0.0, 1.0))
            else:
                eps = float(rng.uniform(0.0, max(kappa, 0.5)))
            cost = TransportCost(label_flip_cost=kappa)
            price, value = worst_case_price(theta, data, eps, cost)

            losses = both_class_losses(theta, data.features)
            keep = losses[np.arange(n), labels]
            flip = losses[np.arange(n), 1 - labels]

            def objective(alpha):
                return alpha * eps + float(
                    np.maximum(keep, flip - alpha * kappa).mean()
                )

            lo = feature_norm(theta)
            assert price >= lo
            # k: the most breakpoints that may lie above a minimizer
            k = -1
            while k < n and eps - kappa * ((k + 1) / n) >= 0:
                k += 1
            if kappa == 0.0:
                assert price == lo and value == objective(lo)
                reached.add("kappa = 0")
                continue
            breaks = (flip - keep) / kappa
            candidates = [lo] + [b for b in breaks if b >= lo]
            assert value <= min(objective(a) for a in candidates) + 4e-15
            assert price == lo or price in breaks
            assert np.count_nonzero(breaks > price) <= k
            assert price == lo or np.count_nonzero(breaks >= price) > k
            if price > lo:
                reached.add(f"breakpoint, kappa = {kappa}")
                if np.count_nonzero(breaks == price) > 1:
                    reached.add("tied breakpoint")
                if draw == 0:
                    reached.add("eps = kappa * c / n")
            if k >= n:
                reached.add(f"k >= n, kappa = {kappa}")
            if not theta.any():
                reached.add("theta = 0")
        assert reached == {
            "kappa = 0",
            "breakpoint, kappa = 0.5",
            "breakpoint, kappa = 2.0",
            "tied breakpoint",
            "eps = kappa * c / n",
            "k >= n, kappa = 0.5",
            "k >= n, kappa = 2.0",
            "theta = 0",
        }


class TestBaselineResult:
    def test_rejects_a_price_below_the_feature_norm(self):
        with pytest.raises(ValueError):
            BaselineResult(theta=np.array([3.0, 4.0, 1.0]), alpha=4.0,
                           worst_case_value=1.0)


class TestBaselineTrain:
    def _instance(self):
        rng = make_rng(30)
        features = with_bias(rng.normal(size=(8, 2)))
        labels = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        return LabeledDataset(features, labels)

    def test_zero_radius_matches_unregularized_fit(self):
        data = self._instance()
        result = baseline_train(data, 0.0, COST)

        def nll(theta):
            return empirical_loss(theta, data)

        reference = minimize(nll, np.zeros(data.dim), method="BFGS")
        assert result.worst_case_value <= reference.fun + 1e-3

    def test_reported_value_is_consistent_with_the_reported_pair(self):
        # the returned price must be the exact minimizer for the returned
        # parameters, so re-evaluating the objective at the pair reproduces
        # the reported worst case
        features = with_bias([[1.0, 1.0], [2.0, 1.5], [-1.0, -1.0], [-2.0, -1.5]])
        data = LabeledDataset(features, np.array([1, 1, 0, 0]))
        result = baseline_train(data, 0.05, COST)
        losses = np.stack(
            [
                logistic_loss(result.theta, data.features, data.labels),
                logistic_loss(result.theta, data.features, 1 - data.labels)
                - result.alpha * COST.label_flip_cost,
            ]
        )
        direct = result.alpha * 0.05 + float(np.max(losses, axis=0).mean())
        assert direct == pytest.approx(result.worst_case_value, abs=1e-6)
        assert result.alpha >= feature_norm(result.theta) - 1e-9

    def test_huge_radius_collapses_to_the_no_confidence_model(self):
        data = self._instance()
        result = baseline_train(data, 10.0, COST)
        assert np.linalg.norm(result.theta) <= 0.05
        assert confidence(result.theta, data.features).max() <= 0.55

    def test_rejects_a_negative_radius(self):
        with pytest.raises(ValueError):
            baseline_train(self._instance(), -1.0, COST)

    def test_never_prices_above_the_no_confidence_model(self):
        # theta = 0 prices at log 2 for every radius, so the exact fit can
        # never report more. On a few of these instances the optimum is
        # theta = 0 and SLSQP stops about 1e-7 away from it; the last
        # instance is the sweep fixture's.
        rng = make_rng(50)
        instances = []
        for _ in range(30):
            dim, n = int(rng.integers(1, 4)), int(rng.integers(2, 25))
            labels = rng.integers(0, 2, size=n)
            features = rng.normal(size=(n, dim)) * float(rng.uniform(0.2, 3.0))
            features[:, 0] += float(rng.uniform(0.0, 2.0)) * (2 * labels - 1)
            instances.append(LabeledDataset(with_bias(features), labels))
        instances.append(
            LabeledDataset(
                with_bias(make_rng(31).normal(size=(6, 2))),
                np.array([1, 0, 1, 0, 1, 0]),
            )
        )
        for data in instances:
            for eps in (0.0, 0.05, 0.2, 0.5, 2.0, 10.0):
                value = baseline_train(data, eps, COST).worst_case_value
                assert value <= LOG2 + 1e-12

    def test_matches_multistart_nelder_mead_on_the_exact_worst_case(self):
        rng = make_rng(33)
        for _ in range(20):
            n, dim = int(rng.integers(4, 21)), int(rng.integers(1, 4))
            labels = rng.integers(0, 2, size=n)
            features = rng.normal(size=(n, dim))
            features[:, 0] += 1.5 * (2 * labels - 1)
            data = LabeledDataset(with_bias(features), labels)
            # cubing favours the small radii where the fit stays confident
            eps = 2.0 * float(rng.uniform()) ** 3
            result = baseline_train(data, eps, COST)

            def objective(theta):
                return worst_case_price(theta, data, eps, COST)[1]

            starts = [np.zeros(dim + 1)] + list(rng.normal(size=(3, dim + 1)))
            best = min(restarted_nelder_mead(objective, start) for start in starts)
            assert result.worst_case_value == pytest.approx(best, abs=1e-7)

    def test_separable_data_at_zero_radius_returns_a_finite_fit(self):
        # the infimum is 0 and is not attained: the fit must still stop at a
        # finite theta with a near-zero loss instead of raising
        separable = [
            LabeledDataset(
                with_bias([[1.0, 1.0], [2.0, 1.5], [-1.0, -1.0], [-2.0, -1.5]]),
                np.array([1, 1, 0, 0]),
            ),
            LabeledDataset(
                with_bias([[-2.0], [-0.5], [0.5], [1.0], [3.0]]),
                np.array([0, 0, 1, 1, 1]),
            ),
        ]
        for data in separable:
            result = baseline_train(data, 0.0, COST)
            assert np.all(np.isfinite(result.theta))
            assert result.worst_case_value < 1e-6


class TestRobustnessSweep:
    # the robustness-sweep runner's pricing: exp(-worst case) of the model
    # trained at eps over the ball of radius eps + delta, for each delta
    def _trained(self):
        rng = make_rng(31)
        data = LabeledDataset(
            with_bias(rng.normal(size=(6, 2))), np.array([1, 0, 1, 0, 1, 0])
        )
        eps_grid = np.array([0.0, 0.2])
        theta_by_eps = {}
        for eps in eps_grid:
            result = baseline_train(data, float(eps), COST)
            theta_by_eps[float(eps)] = result.theta
        return data, eps_grid, theta_by_eps

    @staticmethod
    def _row(theta, data, eps, delta_grid):
        return [
            float(np.exp(-worst_case_price(theta, data, eps + delta, COST)[1]))
            for delta in delta_grid
        ]

    def test_zero_extra_radius_column_matches_the_training_value(self):
        data, eps_grid, theta_by_eps = self._trained()
        delta_grid = np.array([0.0, 0.3, 1.0])
        for eps in eps_grid:
            theta = theta_by_eps[float(eps)]
            row = self._row(theta, data, eps, delta_grid)
            expected = math.exp(-worst_case_price(theta, data, float(eps), COST)[1])
            assert row[0] == pytest.approx(expected, rel=1e-12)

    def test_rows_are_monotone_nonincreasing_in_the_extra_radius(self):
        data, eps_grid, theta_by_eps = self._trained()
        delta_grid = np.array([0.0, 0.1, 0.4, 1.0, 3.0])
        for eps in eps_grid:
            row = self._row(theta_by_eps[float(eps)], data, eps, delta_grid)
            assert all(b <= a + 1e-12 for a, b in zip(row, row[1:]))

    def test_zero_model_row_is_constant_one_half(self):
        data = LabeledDataset(with_bias([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        assert self._row(np.zeros(3), data, 0.5, [0.0, 0.2, 2.0]) == [0.5] * 3
