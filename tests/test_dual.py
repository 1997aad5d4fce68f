"""Tests for the dual cells and objective, the stochastic solver and the
cutting-set trainer."""

import csv

import numpy as np
import pytest
from scipy.optimize import minimize

from drulearn import dual, oracle
from drulearn.dual import (
    CONVERGED,
    CUT_GAP_TOL,
    MAX_STEPS,
    THETA_BOX,
    TRACE_FIELDS,
    DualState,
    LabelPrior,
    SolverConfig,
    cutset_solve,
    dual_objective,
    max_cell_values,
    sgd_solve,
)
from drulearn.model import (
    CellLayout,
    LabeledDataset,
    TransportCost,
    both_class_losses,
    confidence,
    logistic_loss,
    loss_grad_theta,
    make_rng,
    multiplier_parts,
    pair_costs,
)
from drulearn.oracle import (
    BUDGET_SLACK,
    PRICING_TOL,
    InfeasibleRadiusError,
    min_feasible_radius,
    solve_worst_case_lp,
)
from reference import stacked, transport_cost

COST = TransportCost()
LOG2 = 0.6931471805599453


def random_state(rng, dim, n_labeled, scale=1.0):
    return DualState(
        theta=rng.normal(size=dim) * scale,
        multipliers=stacked(
            float(abs(rng.normal())) * scale,
            rng.normal(size=n_labeled) * scale,
            np.abs(rng.normal(size=2)) * scale,
            np.abs(rng.normal(size=2)) * scale,
        ),
    )


def random_instance(rng, n_labeled=3, n_unlabeled=4, dim=3):
    data = LabeledDataset(
        rng.normal(size=(n_labeled, dim)), rng.integers(0, 2, size=n_labeled)
    )
    unlabeled = rng.normal(size=(n_unlabeled, dim))
    lower = rng.uniform(0.0, 0.35, size=2)
    upper = np.minimum(1.0, lower + rng.uniform(0.55, 0.95, size=2))
    return data, unlabeled, LabelPrior(lower=lower, upper=upper)


class TestLabelPrior:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            LabelPrior(lower=np.array([0.6, 0.1]), upper=np.array([0.4, 0.9]))

    def test_rejects_boxes_without_a_probability_vector(self):
        with pytest.raises(ValueError):
            LabelPrior(lower=np.array([0.7, 0.6]), upper=np.array([0.9, 0.9]))
        with pytest.raises(ValueError):
            LabelPrior(lower=np.array([0.0, 0.0]), upper=np.array([0.3, 0.4]))

    def test_point_and_uninformative_constructors(self):
        point = LabelPrior.point([0.25, 0.75])
        np.testing.assert_array_equal(point.lower, point.upper)
        wide = LabelPrior(np.zeros(2), np.ones(2))
        assert wide.lower.sum() == 0.0 and wide.upper.sum() == 2.0


class TestDualState:
    def test_rejects_negative_multipliers(self):
        with pytest.raises(ValueError):
            DualState(np.zeros(2), stacked(-0.1, np.zeros(1), np.zeros(2), np.zeros(2)))
        with pytest.raises(ValueError):
            DualState(
                np.zeros(2),
                stacked(0.0, np.zeros(1), np.array([-1.0, 0.0]), np.zeros(2)),
            )

    def test_rejects_a_vector_too_short_for_its_parts(self):
        # a price, one potential and four label entries take six entries
        for size in range(6):
            with pytest.raises(ValueError, match="must hold a price"):
                DualState(np.zeros(2), np.zeros(size))

    def test_zeros_constructor(self):
        state = DualState(
            np.zeros(3), stacked(0.0, np.zeros(2), np.zeros(2), np.zeros(2))
        )
        price, potentials, _, _ = multiplier_parts(state.multipliers)
        assert state.theta.shape == (3,)
        assert potentials.shape == (2,)
        assert price == 0.0


def brute_force_max_cells(state, data, features):
    """Per point, the max over atoms i and labels k of
    loss(theta, x, k) - alpha * c((x, k), (x_i, y_i)) - psi_i - (u_k - l_k)."""
    alpha, potentials, upper, lower = multiplier_parts(state.multipliers)
    return [
        max(
            logistic_loss(state.theta, x, k)
            - alpha
            * float(transport_cost(x, k, data.features[i], data.labels[i], COST))
            - potentials[i]
            - (upper[k] - lower[k])
            for i in range(data.n)
            for k in range(2)
        )
        for x in features
    ]


def cells_at(state, data, x):
    """The (n_labeled, 2) cell values at one point, through `CellLayout.cells`."""
    x = np.asarray(x, dtype=float)[None, :]
    layout = CellLayout(both_class_losses(state.theta, x), pair_costs(x, data, COST))
    return layout.cells(state.multipliers).reshape(data.n, 2)


class TestCellValue:
    def test_zero_multipliers_reduce_to_the_loss(self):
        rng = make_rng(0)
        data = LabeledDataset(rng.normal(size=(2, 3)), np.array([0, 1]))
        theta = rng.normal(size=3)
        state = DualState(theta, stacked(0.0, np.zeros(2), np.zeros(2), np.zeros(2)))
        x = rng.normal(size=3)
        cells = cells_at(state, data, x)
        for i in range(2):
            for k in range(2):
                assert cells[i, k] == pytest.approx(
                    logistic_loss(theta, x, k), abs=1e-14
                )
        # the maximum is then the larger of the two labels' losses
        assert max_cell_values(state, data, x, COST)[0] == pytest.approx(
            max(logistic_loss(theta, x, 0), logistic_loss(theta, x, 1)), abs=1e-14
        )

    def test_unit_transport_mult_at_distance_five(self):
        # same candidate label as the atom, zero weights: log 2 - 5
        data = LabeledDataset(np.array([[0.0, 0.0]]), np.array([1]))
        state = DualState(
            np.zeros(2), stacked(1.0, np.zeros(1), np.zeros(2), np.zeros(2))
        )
        x = np.array([3.0, 4.0])
        value = cells_at(state, data, x)[0, 1]
        assert value == pytest.approx(LOG2 - 5.0, abs=1e-12)
        assert value == pytest.approx(-4.306853, abs=1e-6)
        # the flipped cell also pays the flip cost, so this cell is the max
        assert max_cell_values(state, data, x, COST)[0] == value

    def test_atom_potential_is_a_flat_charge(self):
        data = LabeledDataset(np.array([[0.0, 0.0]]), np.array([1]))
        state = DualState(
            np.zeros(2), stacked(0.0, np.array([10.0]), np.zeros(2), np.zeros(2))
        )
        cells = cells_at(state, data, np.array([0.0, 0.0]))
        np.testing.assert_allclose(cells, [[LOG2 - 10.0, LOG2 - 10.0]], atol=1e-12)
        assert max_cell_values(state, data, np.zeros(2), COST)[0] == pytest.approx(
            LOG2 - 10.0, abs=1e-12
        )


class TestCellLayout:
    def test_bitwise_equal_to_the_broadcast_cells(self):
        # the flat atom-major build performs the broadcast expression's
        # operations in its order, so every cell is the same double
        rng = make_rng(12)
        shapes = [(1, 1), (1, 5), (7, 1)] + [
            tuple(rng.integers(1, 30, size=2)) for _ in range(237)
        ]
        for index, (n, n_l) in enumerate(shapes):
            data, unlabeled, _ = random_instance(rng, n_l, n, 3)
            table = both_class_losses(rng.normal(size=3) * 3.0, unlabeled)
            pair = pair_costs(unlabeled, data, COST)
            alpha = 0.0 if index % 4 == 0 else float(abs(rng.normal()) * 2.0)
            potentials = rng.normal(size=n_l) * 5.0
            if index % 3 == 0:
                potentials = -np.abs(potentials)
            net = rng.normal(size=2)
            # net - 0.0 is net, bit for bit
            multipliers = stacked(alpha, potentials, net, np.zeros(2))
            cells = CellLayout(table, pair).cells(multipliers).reshape(n, n_l, 2)
            expected = (
                table[:, None, :]
                - alpha * pair
                - potentials[None, :, None]
                - net[None, None, :]
            )
            assert cells.shape == (n, n_l, 2)
            assert cells.flags.c_contiguous
            assert np.array_equal(cells, expected)


class TestMaxCell:
    def test_matches_exhaustive_enumeration(self):
        rng = make_rng(1)
        for _ in range(50):
            data, unlabeled, _ = random_instance(rng)
            state = random_state(rng, 3, data.n)
            values = max_cell_values(state, data, unlabeled, COST)
            # matrix/vector dot products may differ in the last ulp
            np.testing.assert_allclose(
                values,
                brute_force_max_cells(state, data, unlabeled),
                rtol=1e-13,
                atol=1e-15,
            )


class TestCellSubgradients:
    def test_matches_central_finite_differences(self):
        # At the maximizing cell (i*, k*) the inner maximum's gradient is the
        # loss gradient at label k* in theta and minus the transport cost
        # into (x_i*, k*) in alpha, the terms `sgd_solve` assembles; central
        # differences agree on 100 points whose argmax is stable.
        rng = make_rng(3)
        step = 1e-6
        checked = 0
        while checked < 100:
            data, _, _ = random_instance(rng)
            state = random_state(rng, 3, data.n, scale=0.5)
            x = rng.normal(size=3)
            cells = cells_at(state, data, x)
            ordered = np.sort(cells.ravel())
            if ordered[-1] - ordered[-2] < 1e-3:
                continue  # keep only argmax-stable neighborhoods
            atom, label = np.unravel_index(np.argmax(cells), cells.shape)
            grad_theta = loss_grad_theta(state.theta, x, label)
            grad_alpha = -pair_costs(x[None, :], data, COST)[0, atom, label]

            alpha, potentials, upper, lower = multiplier_parts(state.multipliers)

            def phi(theta, alpha):
                bumped = DualState(theta, stacked(alpha, potentials, upper, lower))
                return max_cell_values(bumped, data, x, COST)[0]

            for axis in range(3):
                bump = np.zeros(3)
                bump[axis] = step
                fd = (
                    phi(state.theta + bump, alpha) - phi(state.theta - bump, alpha)
                ) / (2 * step)
                assert fd == pytest.approx(grad_theta[axis], rel=1e-5, abs=1e-7)
            fd_alpha = (
                phi(state.theta, alpha + step) - phi(state.theta, alpha - step)
            ) / (2 * step)
            assert fd_alpha == pytest.approx(grad_alpha, rel=1e-5, abs=1e-7)
            checked += 1


class TestDualObjective:
    def test_zero_multipliers_give_mean_worst_label_loss(self):
        rng = make_rng(5)
        data, unlabeled, prior = random_instance(rng)
        theta = rng.normal(size=3)
        state = DualState(
            theta, stacked(0.0, np.zeros(data.n), np.zeros(2), np.zeros(2))
        )
        expected = both_class_losses(theta, unlabeled).max(axis=1).mean()
        value = dual_objective(state, data, unlabeled, prior, 0.7, COST)
        assert value == pytest.approx(expected, abs=1e-14)

    def test_singleton_equals_the_primal_point_loss(self):
        # with a nonpositive margin the true-label loss dominates, so the
        # all-zero dual state already attains the singleton primal value
        x0 = np.array([0.7, -0.3, 1.0])
        data = LabeledDataset(x0[None], np.array([1]))
        unlabeled = x0[None]
        prior = LabelPrior.point([0.0, 1.0])
        theta = np.array([-0.5, 1.0, -0.2])
        state = DualState(theta, stacked(0.0, np.zeros(1), np.zeros(2), np.zeros(2)))
        value = dual_objective(state, data, unlabeled, prior, 0.0, COST)
        assert value == pytest.approx(logistic_loss(theta, x0, 1), abs=1e-12)
        primal = solve_worst_case_lp(theta, x0[None], data, prior, 0.0, COST)
        assert value == pytest.approx(primal.value, abs=1e-9)
        # for a positive margin the zero state is only an upper bound
        flipped = np.array([0.5, -1.0, 0.2])
        state2 = DualState(
            flipped, stacked(0.0, np.zeros(1), np.zeros(2), np.zeros(2))
        )
        value2 = dual_objective(state2, data, unlabeled, prior, 0.0, COST)
        primal2 = solve_worst_case_lp(flipped, x0[None], data, prior, 0.0, COST)
        assert value2 >= primal2.value - 1e-12

    def test_invariant_under_constant_potential_shifts(self):
        rng = make_rng(6)
        data, unlabeled, prior = random_instance(rng)
        state = random_state(rng, 3, data.n)
        base = dual_objective(state, data, unlabeled, prior, 0.5, COST)
        for shift in (2.0, -7.5, 0.125):
            alpha, potentials, upper, lower = multiplier_parts(state.multipliers)
            shifted = DualState(
                state.theta, stacked(alpha, potentials + shift, upper, lower)
            )
            value = dual_objective(shifted, data, unlabeled, prior, 0.5, COST)
            assert value == pytest.approx(base, abs=1e-12)

    def test_midpoint_convexity_in_the_multipliers(self):
        rng = make_rng(7)
        for _ in range(200):
            data, unlabeled, prior = random_instance(rng, 2, 2, 2)
            theta = rng.normal(size=2)
            eps = float(rng.uniform(0.0, 2.0))
            states = []
            for _ in range(2):
                states.append(DualState(theta, random_state(rng, 2, 2).multipliers))
            s1, s2 = states
            mid = DualState(theta, 0.5 * (s1.multipliers + s2.multipliers))
            g1 = dual_objective(s1, data, unlabeled, prior, eps, COST)
            g2 = dual_objective(s2, data, unlabeled, prior, eps, COST)
            gm = dual_objective(mid, data, unlabeled, prior, eps, COST)
            assert gm <= 0.5 * (g1 + g2) + 1e-10

    def test_upper_bounds_every_feasible_distribution(self):
        # weak duality: any dual point dominates the expected loss of any
        # distribution in the decision set
        from reference import feasible_distributions

        rng = make_rng(8)
        data, unlabeled, prior = random_instance(rng, 2, 3, 2)
        theta = rng.normal(size=2)
        eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.3
        candidates = feasible_distributions(
            data, unlabeled, prior, eps, COST, count=5, seed=1
        )
        for _ in range(20):
            state = DualState(theta, random_state(rng, 2, 2).multipliers)
            bound = dual_objective(state, data, unlabeled, prior, eps, COST)
            for mu in candidates:
                risk = float(
                    mu.weights
                    @ np.array(
                        [
                            logistic_loss(theta, x, y)
                            for x, y in zip(mu.features, mu.labels)
                        ]
                    )
                )
                assert risk <= bound + 1e-8


class TestSgdSolve:
    def test_singleton_converges_to_the_point_loss(self):
        x0 = np.array([0.7, -0.3, 1.0])
        data = LabeledDataset(x0[None], np.array([1]))
        unlabeled = x0[None]
        prior = LabelPrior.point([0.0, 1.0])
        theta = np.array([0.5, -1.0, 0.2])
        config = SolverConfig(radius_eps=0.0, batch_size=8, max_steps=30000, seed=1)
        result = sgd_solve(data, unlabeled, prior, COST, config, theta0=theta,
                           update_theta=False)
        assert result.status in (CONVERGED, MAX_STEPS)
        assert result.objective == pytest.approx(
            logistic_loss(theta, x0, 1), abs=1e-3
        )

    def test_matches_the_lp_oracle_on_a_random_instance(self):
        rng = make_rng(9)
        data, unlabeled, prior = random_instance(rng, 2, 4, 3)
        theta = rng.normal(size=3)
        eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.2
        config = SolverConfig(
            radius_eps=eps, batch_size=16, max_steps=60000, seed=2,
            convergence_tol=1e-5,
        )
        result = sgd_solve(data, unlabeled, prior, COST, config, theta0=theta,
                           update_theta=False)
        primal = solve_worst_case_lp(theta, unlabeled, data, prior, eps, COST)
        assert abs(result.objective - primal.value) <= 1e-3 * (1 + abs(primal.value))

    def test_contrived_empty_decision_set_reports_infeasible(self):
        x0 = np.array([0.7, -0.3, 1.0])
        data = LabeledDataset(x0[None], np.array([1]))
        unlabeled = x0[None]
        prior = LabelPrior.point([1.0, 0.0])  # opposite of every label
        config = SolverConfig(
            radius_eps=0.3, batch_size=4, max_steps=60000, seed=3, step_size=0.5,
        )
        with pytest.raises(InfeasibleRadiusError, match="radius too small"):
            sgd_solve(data, unlabeled, prior, COST, config, update_theta=False)

    def test_raises_just_below_the_minimal_radius_and_solves_at_it(self):
        rng = make_rng(12)
        data, unlabeled, prior = random_instance(rng)
        eps_min = min_feasible_radius(data, unlabeled, prior, COST)
        below = SolverConfig(radius_eps=eps_min - 1e-6, batch_size=8, max_steps=1000)
        with pytest.raises(InfeasibleRadiusError, match="radius too small"):
            sgd_solve(data, unlabeled, prior, COST, below)
        at = SolverConfig(radius_eps=eps_min, batch_size=8, max_steps=1000)
        result = sgd_solve(data, unlabeled, prior, COST, at)
        assert result.status in (CONVERGED, MAX_STEPS)
        assert np.isfinite(result.objective)

    def test_identical_configs_give_bitwise_identical_traces(self):
        rng = make_rng(10)
        data, unlabeled, prior = random_instance(rng)
        eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.5
        config = SolverConfig(radius_eps=eps, batch_size=8, max_steps=2000, seed=4)
        first = sgd_solve(data, unlabeled, prior, COST, config)
        second = sgd_solve(data, unlabeled, prior, COST, config)
        assert first.trace == second.trace
        assert first.objective == second.objective
        np.testing.assert_array_equal(first.state.theta, second.state.theta)

    def test_trace_csv_roundtrip(self, tmp_path):
        rng = make_rng(11)
        data, unlabeled, prior = random_instance(rng)
        path = tmp_path / "trace.csv"
        eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.5
        config = SolverConfig(
            radius_eps=eps, batch_size=8, max_steps=1500, seed=5,
            trace_path=str(path), trace_every=100,
        )
        result = sgd_solve(data, unlabeled, prior, COST, config)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == TRACE_FIELDS
        assert len(rows) - 1 == len(result.trace)
        assert float(rows[1][2]) == result.trace[0][2]


class TestTrainDru:
    def test_likelihood_close_to_erm_when_prior_matches_labels(self):
        rng = make_rng(13)
        n = 60
        features = np.c_[rng.normal(size=(n, 2)), np.ones(n)]
        labels = (features[:, 0] + 0.35 * rng.normal(size=n) > 0).astype(int)
        data = LabeledDataset(features, labels)
        unlabeled = features
        share = labels.mean()
        prior = LabelPrior.point([1.0 - share, share])
        eps0 = min_feasible_radius(data, features, prior, COST)
        theta = cutset_solve(data, unlabeled, prior, COST, eps0 + 0.01).theta

        def erm_objective(t):
            return np.mean(
                [logistic_loss(t, x, y) for x, y in zip(features, labels)]
            )

        erm_theta = minimize(erm_objective, np.zeros(3), method="BFGS").x
        robust_likelihood = np.exp(-erm_objective(theta))
        erm_likelihood = np.exp(-erm_objective(erm_theta))
        assert robust_likelihood >= erm_likelihood - 0.05

    def test_symmetric_instance_is_undecided_at_the_midpoint(self):
        point = np.array([1.5, -0.7, 1.0])
        mirrored = np.array([-1.5, 0.7, 1.0])
        data = LabeledDataset(np.vstack([point, mirrored]), np.array([1, 0]))
        unlabeled = data.features
        prior = LabelPrior.point([0.5, 0.5])
        theta = cutset_solve(data, unlabeled, prior, COST, 0.2).theta
        midpoint = np.array([0.0, 0.0, 1.0])
        assert confidence(theta, midpoint) == pytest.approx(0.5, abs=1e-2)

    def test_warm_and_cold_starts_agree(self):
        rng = make_rng(14)
        data, unlabeled, prior = random_instance(rng, 3, 5, 3)
        eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.3
        config = SolverConfig(radius_eps=eps, batch_size=16, max_steps=40000, seed=9)
        cold = sgd_solve(data, unlabeled, prior, COST, config)
        warm = sgd_solve(
            data, unlabeled, prior, COST, config, theta0=cold.state.theta
        )
        assert warm.objective == pytest.approx(cold.objective, abs=1e-2)

    def test_propagates_infeasibility(self):
        x0 = np.array([0.7, -0.3, 1.0])
        data = LabeledDataset(x0[None], np.array([1]))
        unlabeled = x0[None]
        prior = LabelPrior.point([1.0, 0.0])
        with pytest.raises(InfeasibleRadiusError):
            cutset_solve(data, unlabeled, prior, COST, 0.3).theta


class TestCutsetSolve:
    def test_master_bound_never_exceeds_the_worst_case_on_a_grid(self, monkeypatch):
        # the master value is a lower bound on min F, so no theta on a grid
        # may price below it, and the certified gap closes; `upper` and the
        # state's multipliers are, bit for bit, those of the run's own solve
        # at the reported theta, and a fresh solve there agrees with them
        # to the pricing tolerance
        solves = []
        solve = oracle.PayoffLp.solve

        def recording(model, payoff):
            result = solve(model, payoff)
            solves.append((np.asarray(payoff, dtype=float).tobytes(), result))
            return result

        rng = make_rng(40)
        for _ in range(3):
            data, unlabeled, prior = random_instance(rng, 3, 6, 2)
            eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.2
            solves.clear()
            with monkeypatch.context() as patch:
                patch.setattr(oracle.PayoffLp, "solve", recording)
                result = cutset_solve(data, unlabeled, prior, COST, eps)
            assert result.status == CONVERGED
            assert result.upper - result.lower <= CUT_GAP_TOL
            grid = np.linspace(-4.0, 4.0, 9)
            for theta in zip(*(axis.ravel() for axis in np.meshgrid(grid, grid))):
                worst = solve_worst_case_lp(
                    np.array(theta), unlabeled, data, prior, eps, COST
                )
                assert result.lower <= worst.value
            payoff = both_class_losses(result.theta, unlabeled).tobytes()
            reported = (result.upper, result.state.multipliers.tobytes())
            at_theta = [
                (found.value, found.multipliers.tobytes())
                for key, found in solves
                if key == payoff
            ]
            assert reported in at_theta
            exact = solve_worst_case_lp(
                result.theta, unlabeled, data, prior, eps, COST
            )
            assert abs(result.upper - exact.value) <= PRICING_TOL

    def test_state_is_a_dual_point_at_the_reported_worst_case(self):
        rng = make_rng(41)
        data, unlabeled, prior = random_instance(rng, 4, 12, 3)
        eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.1
        result = cutset_solve(data, unlabeled, prior, COST, eps)
        objective = dual_objective(result.state, data, unlabeled, prior, eps, COST)
        slack = result.state.multipliers[0] * BUDGET_SLACK
        assert objective == pytest.approx(result.upper - slack, abs=1e-9)
        assert np.all(np.abs(result.theta) <= THETA_BOX)

    def test_reaches_a_worst_case_no_worse_than_sgd(self):
        rng = make_rng(42)
        for seed in range(3):
            data, unlabeled, prior = random_instance(rng, 3, 5, 3)
            eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.3
            config = SolverConfig(
                radius_eps=eps, batch_size=16, max_steps=20000, seed=seed
            )
            sgd_theta = sgd_solve(data, unlabeled, prior, COST, config).state.theta
            at_sgd = solve_worst_case_lp(
                sgd_theta, unlabeled, data, prior, eps, COST
            )
            result = cutset_solve(data, unlabeled, prior, COST, eps)
            assert result.upper <= at_sgd.value + 1e-9

    def test_solves_at_the_minimal_radius_and_raises_just_below_it(self):
        rng = make_rng(43)
        data, unlabeled, prior = random_instance(rng, 3, 5, 2)
        eps0 = min_feasible_radius(data, unlabeled, prior, COST)
        result = cutset_solve(data, unlabeled, prior, COST, eps0)
        assert result.upper - result.lower <= CUT_GAP_TOL
        with pytest.raises(InfeasibleRadiusError):
            cutset_solve(data, unlabeled, prior, COST, eps0 - 1e-6)

    def test_converges_on_random_instances_across_feature_scales(self):
        # the master's SLSQP tolerance must hold up on badly scaled cuts:
        # at 1e-12 it stopped with status 8 on the third instance here
        rng = make_rng(2024)
        for _ in range(12):
            dim = int(rng.integers(1, 6))
            n_labeled = int(rng.integers(1, 15))
            n_unlabeled = int(rng.integers(2, 60))
            scale = float(rng.choice([0.1, 1.0, 5.0]))
            features = np.c_[
                rng.normal(size=(n_labeled + n_unlabeled, dim)) * scale,
                np.ones(n_labeled + n_unlabeled),
            ]
            data = LabeledDataset(
                features[:n_labeled], rng.integers(0, 2, size=n_labeled)
            )
            unlabeled = features[n_labeled:]
            if rng.integers(0, 2) == 0:
                share = float(rng.uniform(0.05, 0.95))
                prior = LabelPrior.point([1.0 - share, share])
            else:
                lower = rng.uniform(0.0, 0.35, size=2)
                upper = np.minimum(1.0, lower + rng.uniform(0.55, 0.95, size=2))
                prior = LabelPrior(lower=lower, upper=upper)
            eps0 = min_feasible_radius(data, unlabeled, prior, COST)
            for delta in (0.0, 0.01, 0.3, 3.0):
                result = cutset_solve(data, unlabeled, prior, COST, eps0 + delta)
                assert result.status == CONVERGED
                assert result.upper - result.lower <= CUT_GAP_TOL

    def test_solves_the_support_coupling_once(self, transport_solves):
        # at the minimal radius the run's seeded LP takes the coupling's
        # cells, and the radius check needs its distance: both, and the
        # radius computed here, share one transport solve
        rng = make_rng(45)
        data, unlabeled, prior = random_instance(rng, 12, 40, 3)
        eps0 = min_feasible_radius(data, unlabeled, prior, COST)
        result = cutset_solve(data, unlabeled, prior, COST, eps0)
        assert result.status == CONVERGED
        assert transport_solves == [(40, 12)]

    def test_builds_one_lp_model_and_no_one_shot_solve(self, monkeypatch):
        # every worst-case LP of a run, the reported one included, is solved
        # on the run's one `PayoffLp`
        built, one_shot = [], []
        init = oracle.PayoffLp.__init__

        def counted_init(model, *args, **kwargs):
            built.append(args)
            init(model, *args, **kwargs)

        def counted_one_shot(*args, **kwargs):
            one_shot.append(args)
            return solve_worst_case_lp(*args, **kwargs)

        monkeypatch.setattr(oracle.PayoffLp, "__init__", counted_init)
        monkeypatch.setattr(oracle, "solve_worst_case_lp", counted_one_shot)
        monkeypatch.setattr(dual, "solve_worst_case_lp", counted_one_shot)
        rng = make_rng(47)
        data, unlabeled, prior = random_instance(rng, 5, 20, 3)
        eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.2
        result = cutset_solve(data, unlabeled, prior, COST, eps)
        assert result.lps > 1
        assert len(built) == 1
        assert one_shot == []

    def test_cuts_are_worst_case_masses_on_the_support_label_grid(self, monkeypatch):
        # every cut handed to the master is a distribution on the (support
        # point, label) grid with each point's total pinned at 1/m
        passed = []
        solve_master = dual._solve_master

        def recording_master(cuts, features, theta_start):
            passed.extend(cuts)
            return solve_master(cuts, features, theta_start)

        monkeypatch.setattr(dual, "_solve_master", recording_master)
        rng = make_rng(46)
        for n_labeled, m, dim in ((3, 6, 2), (5, 20, 3), (12, 40, 3)):
            data, unlabeled, prior = random_instance(rng, n_labeled, m, dim)
            eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.2
            passed.clear()
            cutset_solve(data, unlabeled, prior, COST, eps)
            assert passed
            for cut in passed:
                assert cut.shape == (2 * m,)
                assert cut.min() >= 0.0
                assert abs(cut.sum() - 1.0) <= 1e-12
                np.testing.assert_allclose(
                    cut.reshape(m, 2).sum(axis=1), np.full(m, 1 / m), rtol=0, atol=1e-12
                )

    def test_cut_limit_reports_max_steps(self, monkeypatch):
        monkeypatch.setattr(dual, "CUT_LIMIT", 1)
        rng = make_rng(44)
        data, unlabeled, prior = random_instance(rng, 3, 5, 2)
        eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.3
        result = cutset_solve(data, unlabeled, prior, COST, eps)
        assert result.status == MAX_STEPS
        assert result.lps == 1
