"""Tests for the exact LP oracle: transport distances, worst-case LPs,
minimal feasible radius, and strong-duality certification."""

import numpy as np
import pytest
from scipy.optimize import linprog

from drulearn import oracle, simplex
from drulearn.bounds import held_out_halves, weak_prior
from drulearn.dual import (
    DualState,
    LabelPrior,
    SolverConfig,
    cutset_solve,
    dual_objective,
    duality_gap_check,
    sgd_solve,
)
from drulearn.model import (
    LabeledDataset,
    TransportCost,
    both_class_losses,
    logistic_loss,
    make_rng,
    multiplier_parts,
)
from drulearn.oracle import (
    BUDGET_SLACK,
    InfeasibleRadiusError,
    PayoffLp,
    discrete_wasserstein,
    min_feasible_radius,
    solve_worst_case_lp,
    uniform_coupling,
)
from reference import (
    feasible_distributions,
    full_lp_reference,
    full_row_entering,
    min_feasible_radius_bisect,
    payoff_solve_bits,
    transport_cost,
    weighted_wasserstein,
)

COST = TransportCost()


def random_sample(rng, n_atoms, dim=2):
    """A uniform labeled sample of `n_atoms` random points."""
    features = rng.normal(size=(n_atoms, dim))
    labels = rng.integers(0, 2, size=n_atoms)
    return LabeledDataset(features, labels)


def uniform(n):
    return np.full(n, 1.0 / n)


def random_prior(rng):
    """A prior box that always admits a probability vector."""
    lower = rng.uniform(0.0, 0.35, size=2)
    upper = np.minimum(1.0, lower + rng.uniform(0.55, 0.95, size=2))
    return LabelPrior(lower=lower, upper=upper)


class TestDiscreteWasserstein:
    # samples of 1-4 atoms: equal sizes, and sizes one divides, take the
    # assignment path of `solve_transportation`; 2 against 3 or 3 against 4
    # take the transport LP
    def test_identical_distributions_have_zero_distance(self):
        rng = make_rng(0)
        for _ in range(5):
            mu = random_sample(rng, int(rng.integers(1, 5)))
            distance, plan = discrete_wasserstein(mu, mu, COST)
            assert distance == pytest.approx(0.0, abs=1e-12)
            np.testing.assert_allclose(plan.sum(axis=1), uniform(mu.n), atol=1e-9)

    def test_singletons_give_the_pair_cost(self):
        x1, y1 = np.array([0.0, 0.0]), 1
        x2, y2 = np.array([3.0, 4.0]), 0
        mu = LabeledDataset(x1[None], [y1])
        nu = LabeledDataset(x2[None], [y2])
        distance, plan = discrete_wasserstein(mu, nu, COST)
        assert distance == pytest.approx(transport_cost(x1, y1, x2, y2, COST))
        assert distance == pytest.approx(6.0)  # 3-4-5 move plus one flip
        np.testing.assert_array_equal(plan, [[1.0]])

    def test_two_atom_uniform_matches_one_parameter_family(self):
        # uniform 2x2 couplings form the segment [[t, .5-t], [.5-t, t]]:
        # scan 10^4 interpolation points and check both exact vertices
        rng = make_rng(1)
        for _ in range(10):
            mu = random_sample(rng, 2)
            nu = random_sample(rng, 2)
            pair = np.array(
                [
                    [
                        transport_cost(
                            mu.features[a], mu.labels[a], nu.features[b], nu.labels[b], COST
                        )
                        for b in range(2)
                    ]
                    for a in range(2)
                ]
            )
            t = np.linspace(0.0, 0.5, 10001)
            family = (
                t * (pair[0, 0] + pair[1, 1]) + (0.5 - t) * (pair[0, 1] + pair[1, 0])
            )
            best = min(family.min(), family[0], family[-1])
            distance, _ = discrete_wasserstein(mu, nu, COST)
            assert distance == pytest.approx(best, abs=1e-9)

    def test_three_atom_uniform_matches_permutation_vertices(self):
        # with uniform marginals the extreme couplings are permutation
        # matrices over 3, so the optimum is the best of the 6 assignments
        from itertools import permutations

        rng = make_rng(2)
        for _ in range(10):
            mu = random_sample(rng, 3)
            nu = random_sample(rng, 3)
            pair = np.array(
                [
                    [
                        transport_cost(
                            mu.features[a], mu.labels[a], nu.features[b], nu.labels[b], COST
                        )
                        for b in range(3)
                    ]
                    for a in range(3)
                ]
            )
            best = min(
                sum(pair[i, p[i]] for i in range(3)) / 3.0 for p in permutations(range(3))
            )
            distance, _ = discrete_wasserstein(mu, nu, COST)
            assert distance == pytest.approx(best, abs=1e-9)

    def test_triangle_inequality(self):
        rng = make_rng(3)
        for _ in range(100):
            sizes = rng.integers(1, 5, size=3)
            mu, rho, nu = (random_sample(rng, int(s)) for s in sizes)
            d_mu_nu, _ = discrete_wasserstein(mu, nu, COST)
            d_mu_rho, _ = discrete_wasserstein(mu, rho, COST)
            d_rho_nu, _ = discrete_wasserstein(rho, nu, COST)
            assert d_mu_nu <= d_mu_rho + d_rho_nu + 1e-9

    def test_plan_marginals_match_inputs(self):
        rng = make_rng(4)
        for _ in range(10):
            mu = random_sample(rng, int(rng.integers(1, 5)))
            nu = random_sample(rng, int(rng.integers(1, 5)))
            _, plan = discrete_wasserstein(mu, nu, COST)
            np.testing.assert_allclose(plan.sum(axis=1), uniform(mu.n), atol=1e-9)
            np.testing.assert_allclose(plan.sum(axis=0), uniform(nu.n), atol=1e-9)
            assert plan.min() >= 0.0


def scipy_worst_case(theta, support, data, prior, eps):
    """Independent route: the same worst-case LP assembled for linprog."""
    m, n_l = support.shape[0], data.n
    losses = both_class_losses(theta, support)
    dist = np.linalg.norm(support[:, None, :] - data.features[None, :, :], axis=-1)
    flip = COST.label_flip_cost * (np.arange(2)[:, None] != data.labels[None, :])
    move = dist[:, None, :] + flip[None, :, :]
    n_var = m * 2 * n_l
    a_eq, b_eq = [], []
    for i in range(n_l):
        row = np.zeros((m, 2, n_l))
        row[:, :, i] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(1.0 / n_l)
    for j in range(m):
        row = np.zeros((m, 2, n_l))
        row[j] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(1.0 / m)
    a_ub = [move.ravel()]
    b_ub = [eps + 1e-9]
    for k in range(2):
        row = np.zeros((m, 2, n_l))
        row[:, k, :] = 1.0
        a_ub.append(row.ravel())
        b_ub.append(prior.upper[k])
        a_ub.append(-row.ravel())
        b_ub.append(-prior.lower[k])
    objective = np.broadcast_to(losses[:, :, None], (m, 2, n_l)).ravel()
    res = linprog(
        -objective,
        A_eq=np.array(a_eq),
        b_eq=np.array(b_eq),
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        bounds=[(0, None)] * n_var,
        method="highs",
    )
    return res.status, (-res.fun if res.status == 0 else None)


class TestWorstCaseLp:
    def test_singleton_equals_point_loss(self):
        x0 = np.array([0.5, 1.0])
        data = LabeledDataset(x0[None], np.array([1]))
        theta = np.array([1.2, -0.4])
        result = solve_worst_case_lp(
            theta, x0[None], data, LabelPrior.point([0.0, 1.0]), 0.0, COST
        )
        assert result.value == pytest.approx(logistic_loss(theta, x0, 1), abs=1e-10)

    def test_wide_prior_big_radius_gives_per_point_worst_labels(self):
        # the support marginal stays pinned, so the adversary's best move is
        # the worse label at every support point
        rng = make_rng(5)
        support = rng.normal(size=(4, 2))
        data = LabeledDataset(rng.normal(size=(1, 2)), np.array([0]))
        theta = rng.normal(size=2)
        result = solve_worst_case_lp(
            theta, support, data, LabelPrior(np.zeros(2), np.ones(2)), 1e3, COST
        )
        expected = both_class_losses(theta, support).max(axis=1).mean()
        assert result.value == pytest.approx(expected, abs=1e-8)

    def test_forced_flip_below_flip_cost_is_infeasible(self):
        x0 = np.array([0.5, 1.0])
        data = LabeledDataset(x0[None], np.array([1]))
        with pytest.raises(InfeasibleRadiusError):
            solve_worst_case_lp(
                np.zeros(2), x0[None], data, LabelPrior.point([1.0, 0.0]), 0.5, COST
            )

    def test_matches_scipy_on_random_instances(self):
        rng = make_rng(6)
        solved = 0
        for _ in range(20):
            n_l = int(rng.integers(1, 4))
            m = int(rng.integers(2, 6))
            data = LabeledDataset(rng.normal(size=(n_l, 3)), rng.integers(0, 2, size=n_l))
            support = rng.normal(size=(m, 3))
            prior = random_prior(rng)
            theta = rng.normal(size=3)
            eps = float(rng.uniform(0.0, 3.0))
            ref_status, ref_value = scipy_worst_case(theta, support, data, prior, eps)
            if ref_status == 0:
                mine = solve_worst_case_lp(theta, support, data, prior, eps, COST)
                assert mine.value == pytest.approx(ref_value, abs=1e-8)
                solved += 1
            else:
                with pytest.raises(InfeasibleRadiusError):
                    solve_worst_case_lp(theta, support, data, prior, eps, COST)
        assert solved >= 5

    def test_value_monotone_in_radius_and_prior_width(self):
        rng = make_rng(7)
        data = LabeledDataset(rng.normal(size=(2, 2)), np.array([0, 1]))
        support = rng.normal(size=(4, 2))
        theta = rng.normal(size=2)
        prior = LabelPrior(lower=np.array([0.3, 0.3]), upper=np.array([0.7, 0.7]))
        eps0 = min_feasible_radius(data, support, prior, COST)
        values = [
            solve_worst_case_lp(theta, support, data, prior, eps0 + delta, COST).value
            for delta in (0.05, 0.3, 1.0, 3.0)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        wider = LabelPrior(lower=np.array([0.1, 0.1]), upper=np.array([0.9, 0.9]))
        widened = solve_worst_case_lp(theta, support, data, wider, eps0 + 0.3, COST)
        assert widened.value >= values[1] - 1e-9

    def test_returned_plan_reproduces_constraints(self):
        # the (support point, label) masses of instances whose pricing
        # rounds bring columns in: nonnegative, uniform over the support
        # and inside the prior box
        rng = make_rng(8)
        priced = 0
        for index in range(12):
            m, n_l = int(rng.integers(20, 60)), int(rng.integers(4, 12))
            data = LabeledDataset(
                rng.normal(size=(n_l, 2)), rng.integers(0, 2, size=n_l)
            )
            support = rng.normal(size=(m, 2))
            if index % 2:
                share = float(rng.uniform(0.2, 0.8))
                prior = LabelPrior.point([1.0 - share, share])
            else:
                prior = random_prior(rng)
            eps = min_feasible_radius(data, support, prior, COST) + 0.1
            model = PayoffLp(support, data, prior, eps, COST)
            seeded = model.n_columns
            result = model.solve(both_class_losses(rng.normal(size=2) * 2.0, support))
            priced += model.n_columns > seeded
            mass = result.support_mass
            assert mass.shape == (m, 2)
            assert mass.min() >= 0.0
            np.testing.assert_allclose(mass.sum(axis=1), np.full(m, 1 / m), atol=1e-9)
            labels = mass.sum(axis=0)
            assert np.all(labels >= prior.lower - 1e-9)
            assert np.all(labels <= prior.upper + 1e-9)
        assert priced >= 10


class TestColumnGeneration:
    def _check(self, theta, support, data, prior, eps):
        status, value = full_lp_reference(theta, support, data, prior, eps, COST)
        if status == 0:
            mine = solve_worst_case_lp(theta, support, data, prior, eps, COST)
            assert abs(mine.value - value) <= 1e-9
        else:
            assert status == 2
            with pytest.raises(InfeasibleRadiusError):
                solve_worst_case_lp(theta, support, data, prior, eps, COST)
        return status

    def test_matches_the_full_lp_from_the_minimal_radius_up(self):
        rng = make_rng(31)
        for _ in range(30):
            dim = int(rng.integers(1, 4))
            n_l = int(rng.integers(1, 12))
            m = int(rng.integers(5, 60))
            data = LabeledDataset(
                rng.normal(size=(n_l, dim)), rng.integers(0, 2, size=n_l)
            )
            support = rng.normal(size=(m, dim))
            if rng.integers(0, 2) == 0:
                share = float(rng.uniform(0.2, 0.8))
                prior = LabelPrior.point([1.0 - share, share])
            else:
                prior = random_prior(rng)
            theta = rng.normal(size=dim)
            eps_min = min_feasible_radius(data, support, prior, COST)
            for delta in (0.0, 0.05, 0.5):
                assert self._check(theta, support, data, prior, eps_min + delta) == 0
            if eps_min > 0.05:
                assert self._check(theta, support, data, prior, eps_min - 0.05) == 2

    def test_matches_the_full_lp_at_500_points_and_20_atoms(self):
        rng = make_rng(32)
        data = LabeledDataset(rng.normal(size=(20, 3)), rng.integers(0, 2, size=20))
        support = rng.normal(size=(500, 3))
        prior = LabelPrior.point([0.5, 0.5])
        eps_min = min_feasible_radius(data, support, prior, COST)
        status = self._check(
            np.array([0.5, 0.5, 0.0]), support, data, prior, eps_min + 0.05
        )
        assert status == 0

    def test_multipliers_price_the_dual_at_the_lp_value(self):
        # the returned multipliers are a dual point whose objective is the LP
        # value, short only by the transport price times the budget slack
        rng = make_rng(33)
        for _ in range(10):
            data = LabeledDataset(rng.normal(size=(6, 2)), rng.integers(0, 2, size=6))
            unlabeled = rng.normal(size=(30, 2))
            prior = random_prior(rng)
            theta = rng.normal(size=2)
            eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.2
            result = solve_worst_case_lp(
                theta, unlabeled, data, prior, eps, COST
            )
            state = DualState(theta, result.multipliers)
            dual = dual_objective(state, data, unlabeled, prior, eps, COST)
            slack = state.multipliers[0] * BUDGET_SLACK
            assert dual == pytest.approx(result.value - slack, abs=1e-9)


class TestPayoffLp:
    """One persistent model re-solved across payoffs, against one-shot solves."""

    def _instance(self, rng):
        # the coupling's cells hold few of the 40 x 12 x 2 columns, so
        # pricing rounds bring columns in
        data = LabeledDataset(rng.normal(size=(12, 3)), rng.integers(0, 2, size=12))
        unlabeled = rng.normal(size=(40, 3))
        prior = random_prior(rng)
        eps = min_feasible_radius(data, unlabeled, prior, COST) + 0.1
        return data, unlabeled, prior, eps

    def _payoffs(self, rng, unlabeled, count):
        return [
            both_class_losses(rng.normal(size=3) * 2.0, unlabeled)
            for _ in range(count)
        ]

    def test_successive_payoffs_match_one_shot_solves_and_their_duals(self):
        rng = make_rng(35)
        data, unlabeled, prior, eps = self._instance(rng)
        model = PayoffLp(unlabeled, data, prior, eps, COST)
        seeded = model.n_columns
        assert seeded == 2 * uniform_coupling(data, unlabeled).supports.size
        for payoff in self._payoffs(rng, unlabeled, 12):
            result = model.solve(payoff)
            fresh = PayoffLp(unlabeled, data, prior, eps, COST).solve(payoff)
            assert abs(result.value - fresh.value) <= 1e-12
            # the model's multipliers price the full dual at the LP value:
            # never below it (weak duality), and not above it either, which
            # only duals feasible for every column, priced or not, achieve
            dual = payoff_dual_objective(
                result.multipliers, payoff, data, unlabeled, prior, eps
            )
            slack = result.multipliers[0] * BUDGET_SLACK
            assert dual >= result.value - slack - 1e-12
            assert dual <= result.value - slack + 1e-9
        assert model.n_columns > seeded

    def test_radius_below_the_minimum_raises_on_construction(self):
        rng = make_rng(36)
        data, unlabeled, prior, eps = self._instance(rng)
        eps_min = min_feasible_radius(data, unlabeled, prior, COST)
        with pytest.raises(InfeasibleRadiusError, match="radius too small"):
            PayoffLp(unlabeled, data, prior, eps_min - 0.05, COST)

    def test_identical_payoff_sequences_give_bitwise_identical_results(self):
        rng = make_rng(37)
        data, unlabeled, prior, eps = self._instance(rng)
        payoffs = self._payoffs(rng, unlabeled, 10)
        runs = []
        for _ in range(2):
            model = PayoffLp(unlabeled, data, prior, eps, COST)
            runs.append([model.solve(payoff) for payoff in payoffs])
        for first, second in zip(*runs):
            assert first.value == second.value
            np.testing.assert_array_equal(first.support_mass, second.support_mass)
            np.testing.assert_array_equal(first.multipliers, second.multipliers)

    def test_hot_resolves_of_a_cut_set_run_take_fewer_pivots_than_fresh_models(
        self, monkeypatch, simplex_iterations
    ):
        # replay the payoffs of one cut-set run's model: re-optimizing one
        # model from its last basis must take fewer simplex iterations in
        # all than solving each payoff on a fresh model
        rng = make_rng(38)
        data, unlabeled, prior, eps = self._instance(rng)
        payoffs = []
        solve = PayoffLp.solve

        def recorded(model, payoff):
            payoffs.append(payoff)
            return solve(model, payoff)

        with monkeypatch.context() as patch:
            patch.setattr(PayoffLp, "solve", recorded)
            cutset_solve(data, unlabeled, prior, COST, eps)
        # the last payoff is the run's one-shot pricing of its best theta
        payoffs.pop()
        assert len(payoffs) >= 3
        simplex_iterations.clear()
        model = PayoffLp(unlabeled, data, prior, eps, COST)
        for payoff in payoffs:
            model.solve(payoff)
        hot = sum(simplex_iterations)
        simplex_iterations.clear()
        for payoff in payoffs:
            PayoffLp(unlabeled, data, prior, eps, COST).solve(payoff)
        assert len(simplex_iterations) > len(payoffs)
        assert hot < sum(simplex_iterations)

    def test_seed_is_the_coupling_cells_with_both_labels(self):
        # a minimal-cost plan's cells hold a point of the decision set at the
        # minimal radius, so the first solve there is already feasible
        rng = make_rng(39)
        for _ in range(5):
            data, unlabeled, prior, _ = self._instance(rng)
            coupling = uniform_coupling(data, unlabeled)
            eps = min_feasible_radius(data, unlabeled, prior, COST)
            model = PayoffLp(unlabeled, data, prior, eps, COST)
            assert model.n_columns == 2 * coupling.supports.size
            model.solve(self._payoffs(rng, unlabeled, 1)[0])

    def test_construction_just_below_the_minimum_builds_no_model(self, monkeypatch):
        # the radius is checked before the costs or the HiGHS model exist
        rng = make_rng(41)
        data, unlabeled, prior, _ = self._instance(rng)
        eps_min = min_feasible_radius(data, unlabeled, prior, COST)
        built = []
        monkeypatch.setattr(oracle, "pair_costs", lambda *args: built.append(args))
        monkeypatch.setattr(oracle, "HighsModel", lambda *args: built.append(args))
        with pytest.raises(InfeasibleRadiusError, match="radius too small"):
            PayoffLp(unlabeled, data, prior, eps_min - 1e-3, COST)
        assert built == []


class TestPricing:
    """`PayoffLp`'s pricing sorts only the rows that hold a reduced cost
    above `PRICING_TOL`; `reference.full_row_entering` sorts every row."""

    def test_enters_what_the_full_row_sort_enters_on_ties_and_active_rows(self):
        # few distinct levels make ties within and across rows; fully
        # active rows (every entry -inf) and entries at the tolerance itself
        # enter nothing
        rng = make_rng(60)
        levels = np.array(
            [-np.inf, -1.0, 0.0, oracle.PRICING_TOL, 2 * oracle.PRICING_TOL, 0.5, 1.0]
        )
        entered = 0
        for _ in range(300):
            m, width = rng.integers(1, 12), rng.integers(1, 16)
            reduced = rng.choice(levels, size=(m, width))
            reduced[rng.random(m) < 0.3] = -np.inf
            columns = oracle._entering_columns(reduced)
            expected = full_row_entering(reduced)
            assert columns.dtype == expected.dtype
            assert columns.tolist() == expected.tolist()
            entered += columns.size > 0
        assert 0 < entered < 300

    def test_solves_are_the_full_row_sorts_bit_for_bit_on_tied_instances(
        self, monkeypatch
    ):
        # repeated support points and atoms on an integer grid tie reduced
        # costs across rows and columns; both pricings must enter the same
        # columns in every round and give the same bits
        rng = make_rng(61)
        points = rng.integers(-2, 3, size=(10, 2)).astype(float)
        support = np.repeat(points, 3, axis=0)
        data = LabeledDataset(points[rng.integers(0, 10, size=8)], np.arange(8) % 2)
        prior = LabelPrior(lower=np.array([0.2, 0.2]), upper=np.array([0.8, 0.8]))
        eps = min_feasible_radius(data, support, prior, COST) + 0.5
        thetas = [np.zeros(2)] + [rng.integers(-2, 3, size=2) for _ in range(5)]
        payoffs = [both_class_losses(theta, support) for theta in thetas]
        payoffs.append(np.zeros_like(payoffs[0]))
        runs = []
        for entering in (oracle._entering_columns, full_row_entering):
            rounds = []

            def priced(reduced, entering=entering, rounds=rounds):
                columns = entering(reduced)
                rounds.append(columns.tolist())
                return columns

            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_entering_columns", priced)
                model = PayoffLp(support, data, prior, eps, COST)
                solves = [
                    payoff_solve_bits(model, model.solve(payoff)) for payoff in payoffs
                ]
            runs.append((rounds, solves))
        assert any(runs[0][0])
        assert runs[0] == runs[1]


def payoff_dual_objective(multipliers, payoff, data, unlabeled, prior, eps):
    """The full dual objective of the payoff LP at the given multipliers: the
    linear terms plus the mean over support points of the largest cell,
    payoff minus the charges for moving mass there."""
    pair = np.linalg.norm(
        unlabeled[:, None, :] - data.features[None, :, :], axis=-1
    )[:, :, None] + COST.label_flip_cost * (
        np.arange(2)[None, None, :] != data.labels[None, :, None]
    )
    alpha, potentials, upper, lower = multiplier_parts(multipliers)
    cells = (
        payoff[:, None, :]
        - alpha * pair
        - potentials[None, :, None]
        - (upper - lower)[None, None, :]
    )
    return float(
        alpha * eps
        + potentials.mean()
        + upper @ prior.upper
        - lower @ prior.lower
        + cells.reshape(len(unlabeled), -1).max(axis=1).mean()
    )


class TestUniformCoupling:
    """One transport solve per pair of point sets, kept by content."""

    def _pair(self, rng, n_u=9, n_l=4):
        data = LabeledDataset(rng.normal(size=(n_l, 2)), rng.integers(0, 2, size=n_l))
        return data, rng.normal(size=(n_u, 2))

    def test_equal_point_sets_share_one_solve_whatever_the_arrays(
        self, transport_solves
    ):
        # copies, a relabeled atom list and the strided search half all key
        # on content, so each pair is solved once
        rng = make_rng(60)
        data, unlabeled = self._pair(rng)
        first = uniform_coupling(data, unlabeled)
        relabeled = LabeledDataset(data.features.copy(), 1 - data.labels)
        again = uniform_coupling(relabeled, unlabeled.copy().tolist())
        assert again is first
        search, _ = held_out_halves(unlabeled)
        assert not search.flags.c_contiguous
        half = uniform_coupling(data, search)
        assert uniform_coupling(data, np.ascontiguousarray(search)) is half
        assert transport_solves == [(9, 4), (5, 4)]

    def test_a_changed_support_is_solved_again(self, transport_solves):
        rng = make_rng(61)
        data, unlabeled = self._pair(rng)
        first = uniform_coupling(data, unlabeled)
        moved = unlabeled.copy()
        moved[0, 0] += 0.5
        second = uniform_coupling(data, moved)
        assert second is not first
        assert transport_solves == [(9, 4), (9, 4)]
        # what was kept is the moved support's own coupling
        oracle._solve_coupling.cache_clear()
        fresh = uniform_coupling(data, moved)
        assert fresh.distance == second.distance != first.distance
        np.testing.assert_array_equal(fresh.supports, second.supports)
        np.testing.assert_array_equal(fresh.atoms, second.atoms)

    def test_more_pairs_than_are_kept_evict_the_oldest(self, transport_solves):
        rng = make_rng(62)
        pairs = [self._pair(rng) for _ in range(oracle.COUPLINGS_KEPT + 1)]
        couplings = [uniform_coupling(data, u) for data, u in pairs]
        assert len(transport_solves) == oracle.COUPLINGS_KEPT + 1
        # the newest pairs are still kept; the oldest one was dropped
        for (data, u), coupling in list(zip(pairs, couplings))[1:]:
            assert uniform_coupling(data, u) is coupling
        assert len(transport_solves) == oracle.COUPLINGS_KEPT + 1
        data, u = pairs[0]
        assert uniform_coupling(data, u) is not couplings[0]
        assert len(transport_solves) == oracle.COUPLINGS_KEPT + 2

    def test_the_kept_cells_are_read_only(self):
        data, unlabeled = self._pair(make_rng(63))
        coupling = uniform_coupling(data, unlabeled)
        with pytest.raises(ValueError):
            coupling.supports[0] = 0


class TestMinFeasibleRadius:
    def test_zero_when_empirical_satisfies_the_constraints(self):
        x0 = np.array([0.5, 1.0])
        data = LabeledDataset(x0[None], np.array([1]))
        eps0 = min_feasible_radius(data, x0[None], LabelPrior.point([0.0, 1.0]), COST)
        assert eps0 == pytest.approx(0.0, abs=1e-10)

    def test_forced_flip_costs_exactly_the_flip_weight(self):
        x0 = np.array([0.5, 1.0])
        data = LabeledDataset(x0[None], np.array([1]))
        eps0 = min_feasible_radius(data, x0[None], LabelPrior.point([1.0, 0.0]), COST)
        assert eps0 == pytest.approx(1.0, abs=1e-10)
        heavier = TransportCost(label_flip_cost=2.5)
        eps0h = min_feasible_radius(data, x0[None], LabelPrior.point([1.0, 0.0]), heavier)
        assert eps0h == pytest.approx(2.5, abs=1e-10)

    def test_agrees_with_feasibility_bisection(self):
        rng = make_rng(11)
        cases = []
        for _ in range(5):
            n_l = int(rng.integers(1, 4))
            m = int(rng.integers(2, 6))
            data = LabeledDataset(rng.normal(size=(n_l, 2)), rng.integers(0, 2, size=n_l))
            support = rng.normal(size=(m, 2))
            cases.append((data, support, random_prior(rng)))
        for _ in range(3):
            # strong priors: the label marginal is pinned to one vector
            n_l = int(rng.integers(1, 5))
            data = LabeledDataset(rng.normal(size=(n_l, 2)), rng.integers(0, 2, size=n_l))
            support = rng.normal(size=(int(rng.integers(2, 6)), 2))
            share = float(rng.uniform())
            cases.append((data, support, LabelPrior.point([1.0 - share, share])))
        for labels, lower, upper in (
            ([1, 1, 0], [0.8, 0.0], [1.0, 1.0]),
            ([0, 0, 0], [0.0, 0.0], [0.5, 1.0]),
            ([1, 1, 1], [0.0, 0.0], [1.0, 0.3]),
        ):
            # flip-dominated: the support sits next to the atoms, and one
            # bound of the box keeps the positive share far from the atoms'
            data = LabeledDataset(rng.normal(size=(3, 2)), np.array(labels))
            support = data.features + 1e-3 * rng.normal(size=(3, 2))
            cases.append((data, support, LabelPrior(lower=lower, upper=upper)))
        for data, support, prior in cases:
            exact = min_feasible_radius(data, support, prior, COST)
            bisected = min_feasible_radius_bisect(data, support, prior, COST)
            assert bisected == pytest.approx(exact, abs=1e-6)

    def test_agrees_with_feasibility_bisection_at_scale(self):
        # 100 support points x 2 labels x 20 atoms: 4000 mass variables per LP
        rng = make_rng(13)
        data = LabeledDataset(rng.normal(size=(20, 2)), rng.integers(0, 2, size=20))
        support = rng.normal(size=(100, 2))
        for prior in (weak_prior(data), LabelPrior.point([0.7, 0.3])):
            exact = min_feasible_radius(data, support, prior, COST)
            bisected = min_feasible_radius_bisect(data, support, prior, COST)
            assert bisected == pytest.approx(exact, abs=1e-6)

    def test_unsatisfiable_box_raises(self):
        # both labels forced above 0.9 simultaneously cannot hold: caught by
        # the prior validator before any LP runs
        with pytest.raises(ValueError):
            LabelPrior(lower=np.array([0.9, 0.9]), upper=np.array([0.95, 0.95]))


class TestDualityGap:
    def test_singleton_gap_vanishes(self):
        x0 = np.array([0.7, -0.3, 1.0])
        data = LabeledDataset(x0[None], np.array([1]))
        unlabeled = x0[None]
        report = duality_gap_check(
            np.array([0.5, -1.0, 0.2]),
            data,
            unlabeled,
            LabelPrior.point([0.0, 1.0]),
            0.0,
            COST,
        )
        assert abs(report.gap) <= 1e-6

    def test_random_instances_certify_strong_duality(self):
        rng = make_rng(12)
        for _ in range(3):
            n_l = int(rng.integers(1, 4))
            m = int(rng.integers(2, 6))
            data = LabeledDataset(rng.normal(size=(n_l, 3)), rng.integers(0, 2, size=n_l))
            unlabeled = rng.normal(size=(m, 3))
            prior = random_prior(rng)
            eps0 = min_feasible_radius(data, unlabeled, prior, COST)
            eps = eps0 + 0.1
            report = duality_gap_check(
                rng.normal(size=3), data, unlabeled, prior, eps, COST
            )
            assert not report.relint_violated
            assert report.gap >= -1e-6  # weak duality up to solver tolerance
            assert abs(report.gap) <= 1e-3 * (1.0 + abs(report.primal))

    def test_boundary_radius_is_flagged_not_asserted(self):
        x0 = np.array([0.5, 1.0])
        data = LabeledDataset(x0[None], np.array([1]))
        unlabeled = x0[None]
        report = duality_gap_check(
            np.zeros(2),
            data,
            unlabeled,
            LabelPrior.point([1.0, 0.0]),
            1.0,  # exactly the forced-flip radius
            COST,
        )
        assert report.relint_violated

    def test_infeasible_instance_raises_before_solving(self):
        x0 = np.array([0.5, 1.0])
        data = LabeledDataset(x0[None], np.array([1]))
        unlabeled = x0[None]
        with pytest.raises(InfeasibleRadiusError):
            duality_gap_check(
                np.zeros(2),
                data,
                unlabeled,
                LabelPrior.point([1.0, 0.0]),
                0.5,
                COST,
            )

    def test_dual_matches_the_primal_where_column_generation_prices(self):
        # more labeled atoms than the column generation seeds per support
        # point, so the LP's multipliers come out of pricing rounds; the
        # full dual at the LP's budget must still reach the LP value
        rng = make_rng(35)
        for _ in range(30):
            dim = int(rng.integers(1, 4))
            n_l = int(rng.integers(5, 21))
            m = int(rng.integers(10, 61))
            data = LabeledDataset(
                rng.normal(size=(n_l, dim)), rng.integers(0, 2, size=n_l)
            )
            unlabeled = rng.normal(size=(m, dim))
            if rng.integers(0, 2) == 0:
                share = float(rng.uniform(0.2, 0.8))
                prior = LabelPrior.point([1.0 - share, share])
            else:
                prior = random_prior(rng)
            theta = rng.normal(size=dim)
            eps_min = min_feasible_radius(data, unlabeled, prior, COST)
            for delta in (0.0, 0.05, 0.5):
                eps = eps_min + delta
                report = duality_gap_check(theta, data, unlabeled, prior, eps, COST)
                at_budget = dual_objective(
                    report.state, data, unlabeled, prior, eps + BUDGET_SLACK, COST
                )
                assert abs(at_budget - report.primal) <= 1e-9


# every route into a worst-case LP or a dual solve, called at one radius on
# (labeled, unlabeled, prior)
DECIDED_ROUTES = {
    "PayoffLp": lambda data, unlabeled, prior, eps: PayoffLp(
        unlabeled, data, prior, eps, COST
    ),
    "solve_worst_case_lp": lambda data, unlabeled, prior, eps: solve_worst_case_lp(
        np.ones(data.dim), unlabeled, data, prior, eps, COST
    ),
    "cutset_solve": lambda data, unlabeled, prior, eps: cutset_solve(
        data, unlabeled, prior, COST, eps
    ),
    "duality_gap_check": lambda data, unlabeled, prior, eps: duality_gap_check(
        np.ones(data.dim), data, unlabeled, prior, eps, COST
    ),
    "sgd_solve": lambda data, unlabeled, prior, eps: sgd_solve(
        data, unlabeled, prior, COST,
        SolverConfig(radius_eps=eps, batch_size=8, max_steps=100),
    ),
}


@pytest.mark.parametrize("route", sorted(DECIDED_ROUTES))
def test_the_closed_form_radius_decides_feasibility_before_any_lp(
    route, monkeypatch
):
    # just below the minimal radius every route raises the one error, and
    # no HiGHS model is solved; at the minimal radius every route returns
    call = DECIDED_ROUTES[route]
    rng = make_rng(70)
    data = LabeledDataset(rng.normal(size=(6, 2)), rng.integers(0, 2, size=6))
    unlabeled = rng.normal(size=(24, 2))
    prior = random_prior(rng)
    eps_min = min_feasible_radius(data, unlabeled, prior, COST)
    solves = []
    solve = simplex.HighsModel.solve

    def counted(model):
        solves.append(model)
        return solve(model)

    monkeypatch.setattr(simplex.HighsModel, "solve", counted)
    with pytest.raises(InfeasibleRadiusError, match="transport radius too small"):
        call(data, unlabeled, prior, eps_min - 1e-6)
    assert solves == []
    call(data, unlabeled, prior, eps_min)


class TestFeasibleDistributions:
    def test_sampled_vertices_satisfy_the_constraints(self):
        rng = make_rng(13)
        data = LabeledDataset(rng.normal(size=(3, 2)), np.array([1, 0, 1]))
        support = rng.normal(size=(4, 2))
        prior = LabelPrior(lower=np.array([0.2, 0.3]), upper=np.array([0.7, 0.8]))
        eps0 = min_feasible_radius(data, support, prior, COST)
        eps = eps0 + 0.4
        for dist in feasible_distributions(data, support, prior, eps, COST, count=6, seed=3):
            assert dist.weights.min() >= 0.0
            assert dist.weights.sum() == pytest.approx(1.0, abs=1e-9)
            # support marginal is pinned to uniform
            per_point = dist.weights.reshape(4, 2).sum(axis=1)
            np.testing.assert_allclose(per_point, np.full(4, 0.25), atol=1e-8)
            # label mass inside the prior box
            mass1 = dist.weights.reshape(4, 2)[:, 1].sum()
            assert prior.lower[1] - 1e-8 <= mass1 <= prior.upper[1] + 1e-8
            # within the transport budget of the labeled empirical
            distance, _ = weighted_wasserstein(dist, data, COST)
            assert distance <= eps + 1e-7

    def test_empty_decision_set_raises(self):
        x0 = np.array([0.5, 1.0])
        data = LabeledDataset(x0[None], np.array([1]))
        with pytest.raises(ValueError):
            feasible_distributions(
                data, x0[None], LabelPrior.point([1.0, 0.0]), 0.5, COST, count=2, seed=0
            )

    def test_deterministic_for_a_seed(self):
        rng = make_rng(14)
        data = LabeledDataset(rng.normal(size=(2, 2)), np.array([0, 1]))
        support = rng.normal(size=(3, 2))
        prior = LabelPrior(np.zeros(2), np.ones(2))
        eps = min_feasible_radius(data, support, prior, COST) + 0.5
        first = feasible_distributions(data, support, prior, eps, COST, count=3, seed=9)
        second = feasible_distributions(data, support, prior, eps, COST, count=3, seed=9)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.weights, b.weights)
