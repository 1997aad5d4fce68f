"""Tests for the LP backend (`solve_lp`, `HighsModel` and `solve_transportation`).

Randomized instances are cross-checked against a separately assembled call of
scipy.optimize.linprog with its default HiGHS method, and transport against
the general LP on its explicit equality system; hand-built corner cases pin
statuses.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from drulearn import oracle, simplex
from drulearn.active import score_dr
from drulearn.bounds import weak_prior
from drulearn.dual import cutset_solve
from drulearn.model import LabeledDataset, TransportCost
from drulearn.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    HighsModel,
    PivotLimitError,
    solve_lp,
    solve_transportation,
)
from reference import AllCostsModel, model_solve_bits


def scipy_reference(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None):
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
    if res.status == 0:
        return OPTIMAL, res.fun
    if res.status == 2:
        return INFEASIBLE, None
    if res.status == 3:
        return UNBOUNDED, None
    raise RuntimeError(f"unexpected scipy status {res.status}")


class TestHandExamples:
    def test_simple_bounded(self):
        res = solve_lp([-1.0], a_ub=[[1.0]], b_ub=[5.0])
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(-5.0, abs=1e-12)
        np.testing.assert_allclose(res.x, [5.0])

    def test_two_variable(self):
        res = solve_lp([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(-1.0, abs=1e-12)

    def test_equality(self):
        res = solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-12)

    def test_infeasible(self):
        res = solve_lp([1.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0])
        assert res.status == INFEASIBLE

    def test_unbounded(self):
        res = solve_lp([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
        assert res.status == UNBOUNDED

    def test_redundant_equalities(self):
        res = solve_lp(
            [1.0, 1.0],
            a_eq=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
            b_eq=[1.0, 1.0, 2.0],
        )
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_negative_rhs(self):
        # -x1 <= -2 means x1 >= 2
        res = solve_lp([1.0], a_ub=[[-1.0]], b_ub=[-2.0])
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_no_constraints(self):
        assert solve_lp([1.0, 0.0]).status == OPTIMAL
        assert solve_lp([-1.0, 0.0]).status == UNBOUNDED


class TestAgainstScipy:
    def test_random_feasible_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            m_eq = int(rng.integers(0, 3))
            m_ub = int(rng.integers(0, 4))
            x0 = rng.uniform(0, 2, size=n)
            a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
            b_eq = a_eq @ x0 if m_eq else None
            a_ub = rng.normal(size=(m_ub, n)) if m_ub else None
            b_ub = a_ub @ x0 + rng.uniform(0, 1, size=m_ub) if m_ub else None
            c = rng.normal(size=n)
            mine = solve_lp(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
            ref_status, ref_value = scipy_reference(c, a_eq, b_eq, a_ub, b_ub)
            assert mine.status == ref_status
            if ref_status == OPTIMAL:
                assert mine.value == pytest.approx(ref_value, rel=1e-7, abs=1e-7)
                # the reported x must be feasible and achieve the value
                if m_eq:
                    np.testing.assert_allclose(a_eq @ mine.x, b_eq, atol=1e-7)
                if m_ub:
                    assert np.all(a_ub @ mine.x <= b_ub + 1e-7)
                assert np.all(mine.x >= -1e-9)

    def test_random_possibly_infeasible(self):
        rng = np.random.default_rng(7)
        statuses = set()
        for _ in range(60):
            n = int(rng.integers(2, 6))
            m_eq = int(rng.integers(1, 4))
            a_eq = rng.normal(size=(m_eq, n))
            b_eq = rng.normal(size=m_eq)
            c = np.abs(rng.normal(size=n))  # bounded below on the nonneg orthant
            mine = solve_lp(c, a_eq=a_eq, b_eq=b_eq)
            ref_status, ref_value = scipy_reference(c, a_eq, b_eq)
            assert mine.status == ref_status
            statuses.add(mine.status)
            if ref_status == OPTIMAL:
                assert mine.value == pytest.approx(ref_value, rel=1e-7, abs=1e-7)
        assert {OPTIMAL, INFEASIBLE} <= statuses  # both branches exercised

    def test_random_transportation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n_src = int(rng.integers(2, 5))
            n_dst = int(rng.integers(2, 5))
            mu = rng.uniform(0.1, 1.0, size=n_src)
            mu /= mu.sum()
            nu = rng.uniform(0.1, 1.0, size=n_dst)
            nu /= nu.sum()
            cost = rng.uniform(0, 3, size=(n_src, n_dst))
            n = n_src * n_dst
            a_eq = np.zeros((n_src + n_dst, n))
            for i in range(n_src):
                a_eq[i, i * n_dst : (i + 1) * n_dst] = 1.0
            for j in range(n_dst):
                a_eq[n_src + j, j::n_dst] = 1.0
            b_eq = np.concatenate([mu, nu])
            mine = solve_lp(cost.ravel(), a_eq=a_eq, b_eq=b_eq)
            ref_status, ref_value = scipy_reference(cost.ravel(), a_eq, b_eq)
            assert mine.status == ref_status == OPTIMAL
            assert mine.value == pytest.approx(ref_value, rel=1e-8, abs=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=6)
        a_ub = rng.normal(size=(4, 6))
        b_ub = np.abs(rng.normal(size=4)) + 0.5
        first = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
        second = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
        assert first.value == second.value
        np.testing.assert_array_equal(first.x, second.x)


class TestHighsModel:
    def _transport_model(self, m, n):
        """An m x n transport LP as rows plus compressed columns, cell-major."""
        supply = np.full(m, 1.0 / m)
        demand = np.full(n, 1.0 / n)
        rows = np.stack(
            [np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m)], axis=1
        )
        return np.r_[supply, demand], rows

    def test_columns_and_costs_reoptimize_to_the_cold_optimum(self):
        # columns arrive in two batches and the costs change four times; each
        # solve must match a cold linprog solve of the same LP, and every
        # re-solve after a small cost change must start warm
        rng = np.random.default_rng(5)
        m, n = 6, 5
        rhs, rows = self._transport_model(m, n)
        a_eq = np.zeros((m + n, m * n))
        a_eq[rows.ravel(), np.repeat(np.arange(m * n), 2)] = 1.0
        model = HighsModel(rhs, rhs)
        first = np.arange(0, m * n, 2)
        rest = np.arange(1, m * n, 2)
        order = np.r_[first, rest]
        cost = rng.uniform(size=m * n)
        for batch in (first, rest):
            model.add_columns(
                cost[batch], 2 * np.arange(batch.size), rows[batch].ravel(),
                np.ones(2 * batch.size),
            )
        cold_iterations = None
        for step in range(4):
            model.set_costs(cost[order])
            result = model.solve()
            reference = solve_lp(cost, a_eq=a_eq[:-1], b_eq=rhs[:-1])
            assert cost[order] @ result.x == pytest.approx(reference.value, abs=1e-12)
            np.testing.assert_allclose(a_eq[:, order] @ result.x, rhs, atol=1e-12)
            if cold_iterations is None:
                cold_iterations = result.iterations
            else:
                assert result.iterations < cold_iterations
            cost = cost + rng.normal(scale=0.1, size=m * n)

    def test_contradictory_rows_report_infeasible(self):
        model = HighsModel([1.0, 2.0], [1.0, 2.0])
        model.add_columns([1.0], [0], [0, 1], [1.0, 1.0])
        with pytest.raises(PivotLimitError, match="without an optimum"):
            model.solve()

    def test_an_infeasible_model_stays_infeasible_after_new_costs_and_columns(self):
        # the demand rows total twice the supply rows, so no set of cell
        # columns is feasible; every re-solve after the cold one starts from
        # a basis that is not primal feasible, and every solve raises
        rng = np.random.default_rng(11)
        m, n = 5, 4
        rhs, rows = self._transport_model(m, n)
        rhs[m:] *= 2.0
        model = HighsModel(rhs, rhs)
        first, rest = np.arange(0, m * n, 2), np.arange(1, m * n, 2)
        model.add_columns(
            rng.uniform(size=first.size), 2 * np.arange(first.size),
            rows[first].ravel(), np.ones(2 * first.size),
        )
        with pytest.raises(PivotLimitError):
            model.solve()
        model.set_costs(rng.uniform(size=first.size))
        with pytest.raises(PivotLimitError):
            model.solve()
        model.add_columns(
            rng.uniform(size=rest.size), 2 * np.arange(rest.size),
            rows[rest].ravel(), np.ones(2 * rest.size),
        )
        with pytest.raises(PivotLimitError):
            model.solve()
        model.set_costs(rng.normal(size=m * n))
        with pytest.raises(PivotLimitError):
            model.solve()

    def test_identical_change_sequences_give_bitwise_identical_solves(self):
        # two fresh models taking the same columns, costs and solves reach
        # the same vertices, duals and pivot counts
        m, n = 9, 7
        rhs, rows = self._transport_model(m, n)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(12)
            model = HighsModel(rhs, rhs)
            solves, count = [], 0
            for batch in np.split(rng.permutation(m * n), [40, 52]):
                model.add_columns(
                    rng.uniform(size=batch.size), 2 * np.arange(batch.size),
                    rows[batch].ravel(), np.ones(2 * batch.size),
                )
                count += batch.size
                for _ in range(2):
                    solves.append(model.solve())
                    model.set_costs(rng.uniform(size=count))
            runs.append(solves)
        assert all(result.iterations > 0 for result in runs[0])
        for first, second in zip(*runs):
            assert first.iterations == second.iterations
            np.testing.assert_array_equal(first.x, second.x)
            np.testing.assert_array_equal(first.row_duals, second.row_duals)


class CostsSent:
    """Stands in for a model's HiGHS instance and records the column
    indices of every `changeColsCost` call before passing it on."""

    def __init__(self, highs):
        self._highs = highs
        self.sent = []

    def changeColsCost(self, count, indices, costs):
        self.sent.append(np.asarray(indices).tolist())
        return self._highs.changeColsCost(count, indices, costs)

    def __getattr__(self, name):
        return getattr(self._highs, name)


class TestSetCosts:
    """`HighsModel.set_costs` sends HiGHS only the costs whose bits changed;
    `reference.AllCostsModel` sends every cost.  Both must solve alike."""

    def _solves(self, monkeypatch, model_class, run):
        """`model_solve_bits` of every model solve `run()` makes, with
        `oracle`'s models built as `model_class`."""
        solves = []
        solve = HighsModel.solve

        def recorded(model):
            result = solve(model)
            solves.append(model_solve_bits(result))
            return result

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "HighsModel", model_class)
            patch.setattr(HighsModel, "solve", recorded)
            run()
        return solves

    def _instance(self, seed):
        rng = np.random.default_rng(seed)
        data = LabeledDataset(rng.normal(size=(10, 3)), np.arange(10) % 2)
        unlabeled = rng.normal(size=(36, 3))
        prior = weak_prior(data)
        eps = oracle.min_feasible_radius(
            data, unlabeled, prior, TransportCost()
        ) + 0.2
        return data, unlabeled, prior, eps

    def test_a_cut_set_run_solves_as_when_every_cost_is_sent(self, monkeypatch):
        data, unlabeled, prior, eps = self._instance(70)
        runs = [
            self._solves(
                monkeypatch,
                model_class,
                lambda: cutset_solve(data, unlabeled, prior, TransportCost(), eps),
            )
            for model_class in (HighsModel, AllCostsModel)
        ]
        assert len(runs[0]) > 3
        assert sum(solve[-1] for solve in runs[0]) > 0
        assert runs[0] == runs[1]

    def test_score_dr_candidates_solve_as_when_every_cost_is_sent(self, monkeypatch):
        data, unlabeled, prior, eps = self._instance(71)
        theta = np.array([0.8, -0.5, 0.3])

        def run():
            model = oracle.PayoffLp(
                unlabeled, data, prior, eps, TransportCost()
            )
            for target in (0, 5, 3, 17, 35, 5):
                score_dr(model, unlabeled, target, theta)

        runs = [
            self._solves(monkeypatch, model_class, run)
            for model_class in (HighsModel, AllCostsModel)
        ]
        assert len(runs[0]) >= 6
        assert runs[0] == runs[1]

    def test_only_changed_bits_are_sent_and_a_zero_changing_sign_is(self):
        # a 2 x 2 transport LP: costs that flip between +0.0 and -0.0 are
        # sent, costs whose bits repeat are not, and every solve matches a
        # model sent every cost
        rhs = np.full(4, 0.5)
        rows = np.array([[0, 2], [0, 3], [1, 2], [1, 3]])
        steps = [
            [1.0, 0.0, 0.0, 2.0],
            [1.0, -0.0, 0.0, 2.0],
            [1.0, -0.0, 0.0, 2.0],
            [0.5, 0.0, -0.0, 2.0],
        ]
        runs = []
        for model_class in (HighsModel, AllCostsModel):
            model = model_class(rhs, rhs)
            model.add_columns(np.zeros(4), 2 * np.arange(4), rows.ravel(), np.ones(8))
            model._highs = CostsSent(model._highs)
            solves = [model_solve_bits(model.solve())]
            for costs in steps:
                model.set_costs(costs)
                solves.append(model_solve_bits(model.solve()))
            runs.append(solves)
            if model_class is HighsModel:
                assert model._highs.sent == [[0, 3], [1], [], [0, 1, 2]]
        assert runs[0] == runs[1]

    def test_a_cost_vector_of_another_length_is_rejected(self):
        model = HighsModel([1.0], [1.0])
        model.add_columns([1.0, 2.0], [0, 1], [0, 0], [1.0, 1.0])
        with pytest.raises(ValueError):
            model.set_costs([1.0])


class TestTransportation:
    def test_singleton_pair(self):
        value, plan = solve_transportation([[3.5]], [1.0], [1.0])
        assert value == 3.5
        np.testing.assert_array_equal(plan, [[1.0]])

    def test_single_row_ships_everything(self):
        value, plan = solve_transportation([[2.0, 1.0, 4.0]], [1.0], [0.5, 0.25, 0.25])
        assert value == pytest.approx(2.0 * 0.5 + 1.0 * 0.25 + 4.0 * 0.25)
        np.testing.assert_allclose(plan, [[0.5, 0.25, 0.25]])

    def test_identity_costs_prefer_diagonal(self):
        # zero-cost diagonal: the optimal plan keeps all mass in place
        cost = 1.0 - np.eye(4)
        value, plan = solve_transportation(cost, np.full(4, 0.25), np.full(4, 0.25))
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(plan, np.eye(4) * 0.25, atol=1e-12)

    def test_matches_dense_solver_on_small_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m, n = rng.integers(2, 6, size=2)
            cost = rng.uniform(0.0, 3.0, size=(m, n))
            mu = rng.uniform(0.2, 1.0, size=m)
            mu /= mu.sum()
            nu = rng.uniform(0.2, 1.0, size=n)
            nu /= nu.sum()
            a_eq = np.zeros((m + n, m * n))
            for i in range(m):
                a_eq[i, i * n:(i + 1) * n] = 1.0
            for j in range(n):
                a_eq[m + j, j::n] = 1.0
            dense = solve_lp(cost.ravel(), a_eq=a_eq, b_eq=np.r_[mu, nu])
            value, plan = solve_transportation(cost, mu, nu)
            assert dense.status == OPTIMAL
            assert value == pytest.approx(dense.value, abs=1e-9)

    def test_matches_scipy_including_cost_ties(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            m, n = rng.integers(2, 10, size=2)
            # integer costs create many ties and degenerate pivots
            cost = rng.integers(0, 4, size=(m, n)).astype(float)
            mu = rng.integers(1, 5, size=m).astype(float)
            mu /= mu.sum()
            nu = rng.integers(1, 5, size=n).astype(float)
            nu /= nu.sum()
            ref_status, ref_value = scipy_reference(
                cost.ravel(), *transport_equalities(m, n, mu, nu)
            )
            value, plan = solve_transportation(cost, mu, nu)
            assert ref_status == OPTIMAL
            assert value == pytest.approx(ref_value, abs=1e-9)
            np.testing.assert_allclose(plan.sum(axis=1), mu, atol=1e-12)
            np.testing.assert_allclose(plan.sum(axis=0), nu, atol=1e-12)
            assert plan.min() >= 0.0

    def test_large_instance_is_fast_and_exact(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(15, 3))
        b = rng.normal(size=(200, 3))
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
        mu = np.full(15, 1.0 / 15)
        nu = np.full(200, 1.0 / 200)
        value, plan = solve_transportation(cost, mu, nu)
        ref_status, ref_value = scipy_reference(
            cost.ravel(), *transport_equalities(15, 200, mu, nu)
        )
        assert value == pytest.approx(ref_value, abs=1e-9)
        np.testing.assert_allclose(plan.sum(axis=1), mu, atol=1e-12)
        np.testing.assert_allclose(plan.sum(axis=0), nu, atol=1e-12)

    def test_matches_the_dense_reference_across_shapes_marginals_and_costs(self):
        # 240 instances: every combination of four shapes (1 x n, m x 1,
        # m < n, m > n), three marginal kinds (uniform, nonuniform, with
        # zero-mass entries) and three cost kinds (distances between distinct
        # points, integer costs full of ties, distances between duplicated
        # points); then 72 uniform instances whose larger size is a multiple
        # of the smaller (k*a x a and a x k*a), which take the assignment,
        # with the same three cost kinds.  All against the general LP on the
        # full equality system.
        rng = np.random.default_rng(15)
        instances = []
        for trial in range(240):
            shape, kind, costs = trial % 4, trial // 4 % 3, trial // 12 % 3
            low, high = sorted(rng.choice(np.arange(2, 12), size=2, replace=False))
            m, n = [(1, high), (high, 1), (low, high), (high, low)][shape]
            mu, nu = (transport_marginal(rng, size, kind) for size in (m, n))
            instances.append((transport_cost(rng, m, n, costs), mu, nu))
        for trial in range(72):
            tall, costs = trial % 2, trial // 2 % 3
            a, k = rng.integers(1, 7), rng.integers(1, 6)
            m, n = (k * a, a) if tall else (a, k * a)
            mu, nu = (transport_marginal(rng, size, 0) for size in (m, n))
            instances.append((transport_cost(rng, m, n, costs), mu, nu))
        for cost, mu, nu in instances:
            dense = solve_lp(cost.ravel(), *transport_equalities(*cost.shape, mu, nu))
            value, plan = solve_transportation(cost, mu, nu)
            assert dense.status == OPTIMAL
            assert abs(value - dense.value) <= 1e-12
            np.testing.assert_allclose(plan.sum(axis=1), mu, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(plan.sum(axis=0), nu, rtol=0.0, atol=1e-12)
            assert plan.min() >= 0.0

    def test_uniform_divisible_marginals_take_the_assignment(self, monkeypatch):
        # the assignment runs exactly when both marginals are uniform and the
        # larger size is a multiple of the smaller; it meets the larger
        # side's marginals exactly, matches the general LP's value and
        # returns the same plan on every call
        calls = []
        assign = simplex.linear_sum_assignment

        def counted(cost):
            calls.append(np.shape(cost))
            return assign(cost)

        monkeypatch.setattr(simplex, "linear_sum_assignment", counted)
        rng = np.random.default_rng(16)
        for m, n in [(1, 7), (9, 1), (6, 6), (200, 20), (20, 200)]:
            mu, nu = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
            cost = transport_cost(rng, m, n, 2)
            calls.clear()
            value, plan = solve_transportation(cost, mu, nu)
            assert calls == [(max(m, n), max(m, n))]
            dense = solve_lp(cost.ravel(), *transport_equalities(m, n, mu, nu))
            assert abs(value - dense.value) <= 1e-12
            if m >= n:
                np.testing.assert_array_equal(plan.sum(axis=1), mu)
            else:
                np.testing.assert_array_equal(plan.sum(axis=0), nu)
            again = solve_transportation(cost, mu, nu)
            assert again[0] == value
            np.testing.assert_array_equal(again[1], plan)
        calls.clear()
        for m, n, kind in [(200, 20, 1), (20, 200, 2), (30, 20, 0), (4, 6, 0)]:
            mu, nu = transport_marginal(rng, m, kind), np.full(n, 1.0 / n)
            solve_transportation(transport_cost(rng, m, n, 0), mu, nu)
        assert calls == []

    def test_rejects_unbalanced_marginals(self):
        with pytest.raises(ValueError):
            solve_transportation([[1.0, 2.0]], [1.0], [0.4, 0.4])

    def test_accepts_totals_that_balance_within_tolerance(self):
        # totals 5e-10 apart pass validation, so the solve must not fail,
        # whichever side is short and wherever the demand sits
        cost = [[1.0, 2.0], [3.0, 1.0]]
        value, plan = solve_transportation(cost, [0.5, 0.5], [0.5, 0.5 + 5e-10])
        assert value == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(plan.sum(axis=1), [0.5, 0.5], atol=1e-12)
        value, plan = solve_transportation(cost, [0.5, 0.5 - 5e-10], [1.0, 0.0])
        assert value == pytest.approx(2.0, abs=1e-8)
        np.testing.assert_allclose(plan.sum(axis=1), [0.5, 0.5 - 5e-10], atol=1e-12)

    def test_rejects_negative_marginals(self):
        with pytest.raises(ValueError):
            solve_transportation([[1.0], [1.0]], [1.5, -0.5], [1.0])

    @pytest.mark.parametrize(
        "cost, supply, demand",
        [
            ([[np.nan, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5]),
            ([[np.inf, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5]),
            ([[1.0, 2.0], [3.0, 1.0]], [np.inf, 0.5], [0.5, 0.5]),
            ([[1.0, 2.0], [3.0, 1.0]], [0.5, 0.5], [np.nan, 0.5]),
            (np.zeros((0, 2)), [], [0.0, 0.0]),
        ],
    )
    def test_rejects_nonfinite_or_empty_inputs(self, cost, supply, demand):
        with pytest.raises(ValueError):
            solve_transportation(cost, supply, demand)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(14)
        cost = rng.integers(0, 3, size=(6, 9)).astype(float)
        mu = np.full(6, 1.0 / 6)
        nu = np.full(9, 1.0 / 9)
        first = solve_transportation(cost, mu, nu)
        second = solve_transportation(cost, mu, nu)
        assert first[0] == second[0]
        np.testing.assert_array_equal(first[1], second[1])


def transport_equalities(m, n, mu, nu):
    """Dense equality system of the transportation polytope."""
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    return a_eq, np.r_[mu, nu]


def transport_marginal(rng, size, kind):
    """A probability vector: uniform (kind 0), nonuniform (1), or nonuniform
    with about a third of its entries at zero mass (2)."""
    if kind == 0:
        return np.full(size, 1.0 / size)
    weights = rng.uniform(0.2, 1.0, size=size)
    if kind == 2:
        weights[rng.random(size) < 0.35] = 0.0
        weights[rng.integers(0, size)] = 1.0
    return weights / weights.sum()


def transport_cost(rng, m, n, kind):
    """An (m, n) cost matrix: distances between distinct random points (kind
    0), integer costs full of ties (1), or distances between duplicated
    points (2)."""
    if kind == 1:
        return rng.integers(0, 4, size=(m, n)).astype(float)
    a, b = rng.normal(size=(m, 2)), rng.normal(size=(n, 2))
    if kind == 2:
        a = a[rng.integers(0, max(m // 2, 1), size=m)]
        b = b[rng.integers(0, max(n // 2, 1), size=n)]
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
