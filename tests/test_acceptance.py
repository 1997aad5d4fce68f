"""End-to-end acceptance checks for the whole package.

Each test certifies one externally visible guarantee of the pipeline:
exactness of the transport and worst-case oracles, correctness of the
gradients the exact trainer and the certificate search hand their
optimizers, the dual's agreement with the primal linear programs,
validity of the performance certificates, the qualitative advantage of
constraint-aware robust training over the plain transport-ball baseline,
fidelity of the active-learning scores, and byte-level determinism of the
command-line interface.  The heavier checks carry explicit wall-clock
budgets and report one pass/fail line each under ``pytest -v``.
"""

import itertools
import math
import time

import numpy as np
import pytest

from drulearn.active import EMC, aulc, impact_gradient_norm, posterior_scores, score_dr
from drulearn.baseline import (
    baseline_train,
    feature_norm,
    worst_case_price,
)
from drulearn import dual
from drulearn.bounds import (
    SMOOTHING_SCHEDULE,
    _smoothed_bound,
    performance_bound,
)
from drulearn.cli import main
from drulearn.data import append_intercept, standardize, synthetic_two_gaussians
from drulearn.dual import (
    DualState,
    LabelPrior,
    cutset_solve,
    duality_gap_check,
)
from drulearn.kernels import SlsqpResult
from drulearn.model import (
    CellLayout,
    LabeledDataset,
    TransportCost,
    both_class_losses,
    confidence,
    logistic_loss,
    make_rng,
    pair_costs,
)
from drulearn.oracle import (
    BUDGET_SLACK,
    PayoffLp,
    discrete_wasserstein,
    min_feasible_radius,
    solve_worst_case_lp,
)
from reference import (
    SIX_STAGE_SCHEDULE,
    feasible_distributions,
    full_lp_reference,
    min_feasible_radius_bisect,
    sample_layout,
    stacked,
)

COST = TransportCost()


def _random_small_instance(rng, with_theta=True):
    """Random labeled/unlabeled instance with a mixed prior, kept tiny so
    the linear-program oracles stay exact and fast."""
    dim = int(rng.integers(1, 4))
    n_labeled = int(rng.integers(1, 4))
    n_unlabeled = int(rng.integers(2, 6))
    labeled = LabeledDataset(
        np.round(rng.normal(size=(n_labeled, dim)), 3),
        rng.integers(0, 2, size=n_labeled),
    )
    support = np.round(rng.normal(size=(n_unlabeled, dim)), 3)
    if rng.integers(0, 2) == 0:
        share = float(rng.uniform(0.2, 0.8))
        prior = LabelPrior.point((1 - share, share))
    else:
        lower = rng.uniform(0.0, 0.3, size=2)
        upper = np.minimum(1.0, lower + rng.uniform(0.5, 0.9, size=2))
        prior = LabelPrior(lower=lower, upper=upper)
    if not with_theta:
        return labeled, support, prior
    theta = rng.normal(scale=0.7, size=dim)
    return labeled, support, prior, theta


def test_dual_solver_reaches_the_exact_worst_case_on_random_instances():
    # Primal/dual agreement on 25 random instances: the full dual objective
    # at the worst-case LP's multipliers, at a radius strictly above the
    # minimal feasible one, must land within 1e-3 (relative to the primal
    # scale) of the exact LP value, and short of it by exactly the transport
    # price times the LP's budget slack.
    start = time.monotonic()
    for index in range(25):
        rng = make_rng(100 + index)
        labeled, support, prior, theta = _random_small_instance(rng)
        eps = min_feasible_radius(labeled, support, prior, COST) + 0.1
        report = duality_gap_check(
            theta, labeled, support, prior, eps, COST
        )
        assert not report.relint_violated
        assert abs(report.gap) <= 1e-3 * (1.0 + abs(report.primal)), (
            f"instance {index}: primal {report.primal:.6f} "
            f"dual {report.dual:.6f}"
        )
        slack = report.state.multipliers[0] * BUDGET_SLACK
        assert abs(report.gap + slack) <= 1e-12, f"instance {index}"
    assert time.monotonic() - start < 300.0


def _central_differences(fun, point, step=1e-6):
    """Central finite differences of `fun` at `point`, one column per axis."""
    columns = []
    for axis in range(point.size):
        bump = np.zeros(point.size)
        bump[axis] = step
        columns.append((fun(point + bump) - fun(point - bump)) / (2 * step))
    return np.array(columns).T


def test_subgradients_match_finite_differences_and_support_the_maximum(monkeypatch):
    # Part one: the certificate search's smoothed bound hands SLSQP a
    # gradient in (alpha, potentials, upper, lower) that agrees with central
    # finite differences in every coordinate, with and without the sampling
    # correction, at the three coarsest temperatures of its schedule, on 100
    # random instances.
    rng = make_rng(7)
    for index in range(100):
        labeled, support, prior = _random_small_instance(rng, with_theta=False)
        n_l = labeled.n
        table = both_class_losses(rng.normal(size=labeled.dim), support)
        layout = CellLayout(table, pair_costs(support, labeled, COST))
        params = np.concatenate(
            [
                [abs(rng.normal())],
                rng.normal(size=n_l),
                np.abs(rng.normal(size=4)),
            ]
        )
        blocks = ["alpha"] + ["potential"] * n_l + ["upper"] * 2 + ["lower"] * 2
        eps = float(rng.uniform(0.0, 2.0))
        for z_score in (0.0, 1.96):
            for tau in SMOOTHING_SCHEDULE[:3]:
                args = (layout, prior, eps, z_score, tau)
                _, grad = _smoothed_bound(params, *args)
                fd = _central_differences(
                    lambda p: _smoothed_bound(p, *args)[0], params
                )
                for axis, block in enumerate(blocks):
                    assert fd[axis] == pytest.approx(
                        grad[axis], rel=1e-5, abs=1e-7
                    ), f"instance {index}, z {z_score}, tau {tau}, {block}[{axis}]"

    # Part two: the cut-set master's constraint Jacobian in (theta, t), as
    # `_solve_master` hands it to SLSQP, agrees with central finite
    # differences of its constraint on 100 random sets of cuts, each a
    # weight vector on the (support point, label) grid with some zeros.
    constraints = {}

    def recording_slsqp(fun, x0, lower, upper, **options):
        constraints.update(fun=options["constraints"], jac=options["jacobian"])
        return SlsqpResult(x=np.asarray(x0), status=0, nit=0)

    monkeypatch.setattr(dual, "slsqp", recording_slsqp)
    for index in range(100):
        dim = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        features = rng.normal(size=(m, dim))
        cuts = []
        for _ in range(int(rng.integers(1, 5))):
            weights = rng.uniform(0.1, 1.0, size=2 * m)
            weights[rng.uniform(size=2 * m) < 0.4] = 0.0
            weights[rng.integers(0, 2 * m)] = 1.0
            cuts.append(weights / weights.sum())
        dual._solve_master(cuts, features, rng.normal(size=dim))
        point = rng.normal(size=dim + 1)
        jacobian = constraints["jac"](point)
        fd = _central_differences(constraints["fun"], point)
        assert jacobian.shape == (len(cuts), dim + 1)
        assert fd == pytest.approx(jacobian, rel=1e-5, abs=1e-7), f"cut set {index}"

    # Part three: without the sampling correction the smoothed bound is the
    # linear terms plus a mean of logsumexps of cells affine in the
    # multipliers, so it is convex there and its gradient supports it from
    # below across 1000 random pairs of multiplier points.
    for index in range(1000):
        labeled, support, prior = _random_small_instance(rng, with_theta=False)
        n_l = labeled.n
        table = both_class_losses(rng.normal(size=labeled.dim), support)
        layout = CellLayout(table, pair_costs(support, labeled, COST))
        first, second = (
            np.concatenate(
                [
                    [abs(rng.normal())],
                    rng.normal(size=n_l),
                    np.abs(rng.normal(size=4)),
                ]
            )
            for _ in range(2)
        )
        eps = float(rng.uniform(0.0, 2.0))
        tau = SIX_STAGE_SCHEDULE[index % len(SIX_STAGE_SCHEDULE)]
        args = (layout, prior, eps, 0.0, tau)
        value, grad = _smoothed_bound(first, *args)
        lhs = _smoothed_bound(second, *args)[0]
        assert lhs >= value + grad @ (second - first) - 1e-10, f"pair {index}"


def test_minimal_radius_lp_agrees_with_bisection_and_prices_forced_flips():
    # The direct LP for the smallest feasible transport budget must agree
    # with bisection on feasibility, and an instance whose prior forces a
    # pure label flip must price at exactly the flip cost.
    rng = make_rng(21)
    accepted = 0
    while accepted < 10:
        labeled, support, prior = _random_small_instance(rng, with_theta=False)
        try:
            direct = min_feasible_radius(labeled, support, prior, COST)
        except ValueError:
            continue  # label box unsatisfiable regardless of budget
        bisected = min_feasible_radius_bisect(
            labeled, support, prior, COST, tol=1e-7
        )
        assert direct == pytest.approx(bisected, abs=1e-6)
        accepted += 1

    x0 = np.array([0.5, 1.0])
    pinned = LabeledDataset(x0[None], np.array([1]))
    assert min_feasible_radius(pinned, x0[None], LabelPrior.point([1.0, 0.0]), COST) == 1.0
    heavier = TransportCost(label_flip_cost=2.5)
    assert (
        min_feasible_radius(pinned, x0[None], LabelPrior.point([1.0, 0.0]), heavier)
        == 2.5
    )


def test_certificate_lower_bounds_every_feasible_distribution():
    # The likelihood certificate (no sampling correction) must sit at or
    # below the likelihood of every distribution the decision set allows,
    # including the loss-maximizing one; the all-zeros model certifies
    # exactly the coin-flip likelihood.
    rng = make_rng(40)
    done = 0
    while done < 10:
        labeled, support, prior = _random_small_instance(rng, with_theta=False)
        try:
            eps = min_feasible_radius(labeled, support, prior, COST) + 0.2
        except ValueError:
            continue
        unlabeled = support
        result = cutset_solve(labeled, unlabeled, prior, COST, eps)
        bound = performance_bound(
            result.state.multipliers,
            sample_layout(result.theta, labeled, unlabeled),
            prior,
            eps,
            z_score=0.0,
        )
        theta = result.state.theta
        for dist in feasible_distributions(
            labeled, support, prior, eps, COST, count=10, seed=done
        ):
            losses = np.array(
                [
                    logistic_loss(theta, x, y)
                    for x, y in zip(dist.features, dist.labels)
                ]
            )
            likelihood = float(np.exp(-(dist.weights @ losses)))
            assert likelihood - bound.likelihood_bound >= -1e-6
        worst = solve_worst_case_lp(theta, support, labeled, prior, eps, COST)
        assert np.exp(-worst.value) - bound.likelihood_bound >= -1e-6
        done += 1

    zeros = DualState(
        np.zeros(3), stacked(0.0, np.zeros(2), np.zeros(2), np.zeros(2))
    )
    flat_data = LabeledDataset(np.ones((2, 3)), np.array([0, 1]))
    flat_bound = performance_bound(
        zeros.multipliers,
        sample_layout(zeros.theta, flat_data, np.ones((2, 3))),
        LabelPrior(np.zeros(2), np.ones(2)),
        1.0,
        z_score=0.0,
    )
    assert flat_bound.likelihood_bound == 0.5


def test_marginal_constraints_keep_certificates_where_the_ball_collapses():
    # Headline behavioral contrast on a 500-point two-cluster dataset with
    # 20 labels and the transport budget set to the true distance between
    # the labeled sample and the full empirical distribution: plain
    # ball-robust training goes vacuous (hedged predictions, coin-flip
    # certificate) while marginal-constrained training with an exact class
    # balance keeps confident predictions and a nontrivial certificate, in
    # at least 8 of 10 labeled draws.
    start = time.monotonic()
    table = synthetic_two_gaussians(500, seed=0, separation=0.6, noise=0.6)
    table = append_intercept(standardize(table))
    unlabeled = table.features
    class_balance = LabelPrior.point([0.5, 0.5])
    positives = np.flatnonzero(table.labels == 1)
    negatives = np.flatnonzero(table.labels == 0)

    contrasts = 0
    for draw in range(10):
        rng = make_rng(draw)
        picked = np.concatenate(
            [
                positives[np.sort(rng.choice(positives.size, 10, replace=False))],
                negatives[np.sort(rng.choice(negatives.size, 10, replace=False))],
            ]
        )
        labeled = LabeledDataset(table.features[picked], table.labels[picked])
        eps, _ = discrete_wasserstein(labeled, table, COST)

        ball_only = baseline_train(labeled, eps, COST)
        ball_conf = float(np.median(confidence(ball_only.theta, table.features)))
        ball_likelihood = float(np.exp(-ball_only.worst_case_value))
        ball_vacuous = ball_conf <= 0.55 and ball_likelihood <= 0.5 + 1e-3

        constrained = cutset_solve(labeled, unlabeled, class_balance, COST, eps)
        constrained_conf = float(
            np.median(confidence(constrained.state.theta, table.features))
        )
        certificate = performance_bound(
            constrained.state.multipliers,
            sample_layout(constrained.theta, labeled, unlabeled),
            class_balance,
            eps,
            z_score=0.0,
        )
        constrained_strong = (
            constrained_conf >= 0.7 and certificate.likelihood_bound >= 0.55
        )
        contrasts += ball_vacuous and constrained_strong
    assert contrasts >= 8
    assert time.monotonic() - start < 1200.0


def test_ball_baseline_dominates_its_grid_oracle_and_matches_at_high_price():
    # The closed-form ball worst case must dominate the grid-restricted LP
    # on every instance, match it to 2e-2 once the grid contains the data
    # and the optimal price clears the empirical loss by a margin, and
    # reduce to the plain empirical loss at a zero budget.
    rng = make_rng(60)
    matched = 0
    for index in range(40):
        dim = int(rng.integers(1, 4))
        n_labeled = int(rng.integers(1, 5))
        features = np.column_stack(
            [rng.normal(size=(n_labeled, dim)), np.ones(n_labeled)]
        )
        labeled = LabeledDataset(features, rng.integers(0, 2, size=n_labeled))
        theta = rng.normal(size=dim + 1) * float(rng.uniform(0.5, 2.5))
        theta[-1] *= 2.0  # strong bias makes in-place label flips profitable
        eps = float(rng.uniform(0.05, 0.6))
        closed_form = worst_case_price(theta, labeled, eps, COST)[1]
        extras = np.column_stack([rng.normal(size=(3, dim)), np.ones(3)])
        grid = np.vstack([labeled.features, extras])
        _, on_grid = full_lp_reference(theta, grid, labeled, None, eps, COST)
        assert closed_form >= on_grid - 1e-8

        price, _ = worst_case_price(theta, labeled, eps, COST)
        if price > feature_norm(theta) + 0.1:
            # the optimal transport price is strictly interior, so the
            # continuous adversary only flips labels in place and the
            # data-containing grid reproduces the closed form
            assert closed_form == pytest.approx(on_grid, abs=2e-2)
            matched += 1
    assert matched >= 10  # the agreement regime was actually exercised

    for seed in range(10):
        rng = make_rng(1000 + seed)
        labeled = LabeledDataset(
            np.column_stack([rng.normal(size=(3, 2)), np.ones(3)]),
            rng.integers(0, 2, size=3),
        )
        theta = rng.normal(size=3)
        empirical = float(
            np.mean(
                [
                    logistic_loss(theta, x, y)
                    for x, y in zip(labeled.features, labeled.labels)
                ]
            )
        )
        assert abs(worst_case_price(theta, labeled, 0.0, COST)[1] - empirical) <= 1e-12


def test_robustness_sweep_rows_never_recover_as_the_ball_grows():
    # Evaluating any fixed model against a strictly larger ball can only
    # lower the guaranteed likelihood: every sweep row is nonincreasing.
    rng = make_rng(70)
    for _ in range(10):
        labeled = LabeledDataset(
            rng.normal(size=(4, 3)), rng.integers(0, 2, size=4)
        )
        eps_grid = np.sort(rng.uniform(0.05, 1.0, size=3))
        delta_grid = np.sort(rng.uniform(0.0, 1.0, size=4))
        delta_grid[0] = 0.0
        theta_by_eps = {
            float(eps): rng.normal(size=3) for eps in eps_grid
        }
        matrix = np.array(
            [
                [
                    np.exp(
                        -worst_case_price(
                            theta_by_eps[float(eps)], labeled, eps + delta, COST
                        )[1]
                    )
                    for delta in delta_grid
                ]
                for eps in eps_grid
            ]
        )
        assert np.all(np.diff(matrix, axis=1) <= 1e-12)


def test_active_scores_match_their_enumerated_definitions():
    # Expected-model-change must equal the posterior-weighted enumeration
    # of per-label gradient impacts; the area under a constant likelihood
    # curve must read 100 times the constant; and on instances whose
    # decision set pins a single distribution the robust score must match
    # the forced-label impact priced by the LP oracle.
    rng = make_rng(80)
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        theta = rng.normal(size=dim)
        x = rng.normal(size=dim)
        posterior = 1.0 / (1.0 + math.exp(-float(x @ theta)))
        enumerated = posterior * impact_gradient_norm(theta, x, 1) + (
            1.0 - posterior
        ) * impact_gradient_norm(theta, x, 0)
        assert posterior_scores(theta, x, EMC)[0] == pytest.approx(
            enumerated, abs=1e-12
        )

    constant_curve = [(n, 0.954) for n in range(2, 11)]
    assert aulc(constant_curve) == pytest.approx(95.4, rel=1e-12)

    rng = make_rng(81)
    for index in range(5):
        dim = 2
        x0 = np.round(rng.normal(size=dim), 3)
        anchor_label = int(rng.integers(0, 2))
        forced_label = int(rng.integers(0, 2))
        data = LabeledDataset(x0[None], np.array([anchor_label]))
        unlabeled = x0[None]
        prior = LabelPrior.point(
            [1.0, 0.0] if forced_label == 0 else [0.0, 1.0]
        )
        eps = 0.5 if forced_label == anchor_label else COST.label_flip_cost + 0.5
        theta = rng.normal(size=dim)
        model = PayoffLp(unlabeled, data, prior, eps, COST)
        score = score_dr(model, unlabeled, 0, theta)

        pinned = feasible_distributions(
            data, x0[None], prior, eps, COST, count=3, seed=index
        )
        for dist in pinned:
            expected = float(
                dist.weights
                @ np.array(
                    [
                        impact_gradient_norm(theta, x, y)
                        for x, y in zip(dist.features, dist.labels)
                    ]
                )
            )
            assert score == pytest.approx(expected, abs=1e-3)


def test_transport_solver_is_exact_and_metric():
    # The transport value must match brute-force coupling enumeration on
    # uniform 2x2 and 3x3 instances (where the optimum sits on a
    # permutation), and must satisfy the triangle inequality on uniform
    # samples of 1-4 atoms, whose unequal sizes also take the transport LP.
    rng = make_rng(90)
    for size in (2, 3):
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            first = LabeledDataset(
                rng.normal(size=(size, dim)), rng.integers(0, 2, size=size)
            )
            second = LabeledDataset(
                rng.normal(size=(size, dim)), rng.integers(0, 2, size=size)
            )
            value, _ = discrete_wasserstein(first, second, COST)
            best = math.inf
            for perm in itertools.permutations(range(size)):
                total = 0.0
                for i, j in enumerate(perm):
                    move = float(
                        np.linalg.norm(first.features[i] - second.features[j])
                    )
                    flip = COST.label_flip_cost * (
                        first.labels[i] != second.labels[j]
                    )
                    total += (move + flip) / size
                best = min(best, total)
            assert value == pytest.approx(best, abs=1e-9)

    rng = make_rng(91)
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        triple = []
        for _ in range(3):
            size = int(rng.integers(1, 5))
            triple.append(
                LabeledDataset(
                    rng.normal(size=(size, dim)), rng.integers(0, 2, size=size)
                )
            )
        first, second, third = triple
        direct, _ = discrete_wasserstein(first, third, COST)
        leg_one, _ = discrete_wasserstein(first, second, COST)
        leg_two, _ = discrete_wasserstein(second, third, COST)
        assert direct <= leg_one + leg_two + 1e-9


def test_every_cli_subcommand_is_byte_deterministic(tmp_path):
    # Re-running any subcommand with the same config and seed must lay down
    # byte-identical result files, sidecars included.
    base = {
        "eps": "0.5",
        "seed": "3",
        "trials": "2",
        "synthetic_n": "20",
        "n_labeled": "5",
        "n_initial": "3",
        "stop_at": "6",
        "eps_grid": "0.3,0.8",
        "delta_grid": "0.0,0.3",
        "n_labeled_grid": "4,5",
        "strategy": "random",
    }
    commands = (
        "train-dru",
        "train-baseline",
        "bound",
        "min-radius",
        "wasserstein",
        "radius-sweep",
        "robustness-sweep",
        "active",
        "oracle-check",
    )
    for command in commands:
        out = tmp_path / f"{command}.csv"
        config = tmp_path / f"{command}.cfg"
        config.write_text(
            "".join(f"{key} = {value}\n" for key, value in base.items())
            + f"output = {out}\n"
        )
        outputs = []
        for _ in range(2):
            assert main([command, "--config", str(config)]) == 0
            blobs = [out.read_bytes(), (tmp_path / f"{out.name}.meta").read_bytes()]
            aulc_file = tmp_path / f"{command}_aulc.csv"
            if aulc_file.exists():
                blobs.append(aulc_file.read_bytes())
            outputs.append(blobs)
        first, second = outputs
        assert first == second, f"{command} rerun changed its output bytes"
