"""Tests for the core model: loss, gradients, transport cost, confidence.

Expected constants were computed independently with math-module arithmetic
before the implementation existed and are frozen here.
"""

import numpy as np
import pytest

from drulearn.model import (
    LabeledDataset,
    TransportCost,
    both_class_losses,
    confidence,
    feature_distances,
    logistic_loss,
    logistic_predict,
    loss_grad_theta,
    median,
)
from reference import transport_cost

SIGMA_1 = 0.7310585786300049  # 1/(1+e^-1)
LOG_1P_EXP_NEG1 = 0.31326168751822286  # log(1+e^-1)
LOG_1P_EXP_POS1 = 1.3132616875182228  # log(1+e^1)
LOG2 = 0.6931471805599453


class TestLogisticPredict:
    def test_zero_weights_give_half(self):
        theta = np.zeros(3)
        x = np.array([2.0, -7.0, 1.0])
        assert logistic_predict(theta, x) == 0.5

    def test_unit_margin(self):
        theta = np.array([1.0, 0.0])
        x = np.array([1.0, 1.0])
        assert logistic_predict(theta, x) == pytest.approx(SIGMA_1, abs=1e-12)

    def test_saturation_monotone(self):
        x = np.array([1.0, 1.0])
        probs = [logistic_predict(np.array([t, 0.0]), x) for t in [1, 10, 100, 1000]]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert probs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            logistic_predict(np.zeros(3), np.zeros(4))


class TestLogisticLoss:
    def test_zero_weights_log2(self):
        theta = np.zeros(2)
        for y in (0, 1):
            assert logistic_loss(theta, np.array([3.0, 1.0]), y) == pytest.approx(
                LOG2, abs=1e-15
            )

    def test_unit_margin_both_labels(self):
        theta = np.array([1.0, 0.0])
        x = np.array([1.0, 1.0])
        assert logistic_loss(theta, x, 1) == pytest.approx(LOG_1P_EXP_NEG1, abs=1e-12)
        assert logistic_loss(theta, x, 0) == pytest.approx(LOG_1P_EXP_POS1, abs=1e-12)

    def test_matches_negative_log_predicted_probability(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = rng.integers(1, 5)
            theta = rng.normal(size=d)
            x = rng.normal(size=d)
            y = int(rng.integers(0, 2))
            p = logistic_predict(theta, x)
            p_y = p if y == 1 else 1.0 - p
            assert logistic_loss(theta, x, y) == pytest.approx(
                -np.log(p_y), rel=1e-12, abs=1e-12
            )

    def test_stable_at_extreme_margins(self):
        theta = np.array([1000.0, 0.0])
        x = np.array([1.0, 1.0])
        assert logistic_loss(theta, x, 1) == pytest.approx(0.0, abs=1e-12)
        assert logistic_loss(theta, x, 0) == pytest.approx(1000.0, rel=1e-12)
        assert np.isfinite(logistic_loss(theta, x, 0))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        theta = rng.normal(size=3)
        X = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        vec = logistic_loss(theta, X, y)
        for j in range(6):
            # matrix and vector dot products may differ in the last ulp
            assert vec[j] == pytest.approx(logistic_loss(theta, X[j], y[j]), rel=1e-14)

    def test_both_class_losses_columns(self):
        rng = np.random.default_rng(4)
        theta = rng.normal(size=3)
        X = rng.normal(size=(5, 3))
        table = both_class_losses(theta, X)
        for j in range(5):
            assert table[j, 0] == pytest.approx(logistic_loss(theta, X[j], 0), rel=1e-14)
            assert table[j, 1] == pytest.approx(logistic_loss(theta, X[j], 1), rel=1e-14)


class TestLossGrad:
    def test_zero_weights(self):
        x = np.array([2.0, 0.0])
        np.testing.assert_allclose(loss_grad_theta(np.zeros(2), x, 1), [-1.0, 0.0])
        np.testing.assert_allclose(loss_grad_theta(np.zeros(2), x, 0), [1.0, 0.0])

    def test_unit_margin(self):
        theta = np.array([1.0, 0.0])
        x = np.array([1.0, 1.0])
        expected = (SIGMA_1 - 1.0) * x
        np.testing.assert_allclose(loss_grad_theta(theta, x, 1), expected, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(100):
            d = rng.integers(1, 5)
            theta = rng.normal(size=d)
            x = rng.normal(size=d)
            y = int(rng.integers(0, 2))
            grad = loss_grad_theta(theta, x, y)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (logistic_loss(theta + e, x, y) - logistic_loss(theta - e, x, y)) / (
                    2 * h
                )
                assert fd == pytest.approx(grad[j], rel=1e-5, abs=1e-7)


class TestTransportCost:
    def test_identical_points(self):
        spec = TransportCost(1.0)
        x = np.array([1.0, 2.0, 1.0])
        assert transport_cost(x, 1, x, 1, spec) == 0.0

    def test_three_four_five(self):
        spec = TransportCost(1.0)
        a = np.array([0.0, 0.0, 1.0])
        b = np.array([3.0, 4.0, 1.0])
        assert transport_cost(a, 1, b, 1, spec) == pytest.approx(5.0, abs=1e-12)

    def test_label_flip_costs_kappa(self):
        x = np.array([1.0, -2.0, 1.0])
        assert transport_cost(x, 1, x, 0, TransportCost(1.0)) == 1.0
        assert transport_cost(x, 0, x, 1, TransportCost(2.5)) == 2.5

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)
        spec = TransportCost(1.0)
        for _ in range(200):
            xs = rng.normal(size=(3, 3))
            ys = rng.integers(0, 2, size=3)
            c01 = transport_cost(xs[0], ys[0], xs[1], ys[1], spec)
            c10 = transport_cost(xs[1], ys[1], xs[0], ys[0], spec)
            c12 = transport_cost(xs[1], ys[1], xs[2], ys[2], spec)
            c02 = transport_cost(xs[0], ys[0], xs[2], ys[2], spec)
            assert c01 == c10
            assert c01 >= 0.0
            assert c02 <= c01 + c12 + 1e-12

    def test_negative_flip_cost_rejected(self):
        with pytest.raises(ValueError):
            TransportCost(-0.5)


class TestConfidence:
    def test_zero_weights(self):
        assert confidence(np.zeros(2), np.array([5.0, 1.0])) == 0.5

    def test_max_branch_and_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            theta = rng.normal(size=3)
            x = rng.normal(size=3)
            p = logistic_predict(theta, x)
            assert confidence(theta, x) == max(p, 1.0 - p)
            assert confidence(theta, x) == pytest.approx(
                confidence(-theta, x), abs=1e-15
            )
            assert 0.5 <= confidence(theta, x) <= 1.0


class TestMedian:
    """`model.median` is `np.median` bit for bit, without `numpy.ma`."""

    def test_equals_np_median_bit_for_bit(self):
        rng = np.random.default_rng(13)
        levels = np.array(
            [-0.0, 0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e308, -1e308, 1.7e308,
             np.inf, -np.inf]
        )
        samples = [
            [-0.0], [0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0, -0.0],
            [1e308, 1.7e308], [-1.7e308, -1e308], [np.inf, -np.inf],
            [2.0, 2.0, 3.0, 3.0], [np.nan], [1.0, np.nan, 2.0],
            [-np.nan, 1.0], [np.nan, -np.nan, 0.0, 4.0],
        ]
        for size in range(1, 14):
            for _ in range(60):
                samples.append(rng.choice(levels, size=size))
                samples.append(rng.normal(size=size))
                samples.append(rng.integers(0, 3, size=size).astype(float))
        samples.append(rng.choice(levels, size=1001))
        samples.append(rng.normal(size=1000))
        for sample in samples:
            sample = np.asarray(sample, dtype=float)
            with np.errstate(invalid="ignore", over="ignore"):
                expected = np.asarray(np.median(sample), dtype=float)
            got = median(sample)
            assert isinstance(got, float)
            assert np.asarray(got).tobytes() == expected.tobytes(), sample

    def test_an_empty_sample_is_rejected(self):
        with pytest.raises(ValueError):
            median([])


class TestDatasets:
    def test_labeled_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 2]))
        with pytest.raises(ValueError):
            LabeledDataset(np.array([[np.inf, 1.0]]), np.array([0]))
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1]))

    def test_feature_distances(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(
            feature_distances(a, b), [[5.0], [np.sqrt(4 + 16)]], atol=1e-12
        )
