"""Tests for the command-line surface: subcommands, outputs, exit codes."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from drulearn import active, baseline, cli, oracle
from drulearn.active import aulc, run_active_loop
from drulearn.baseline import baseline_train, worst_case_price
from drulearn.bounds import certify, prior_feasible_radius, weak_prior
from drulearn.cli import (
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    _build_instance,
    _load_table,
    _oracle_instance,
    main,
)
from drulearn.config import (
    STRATEGY_KINDS,
    ExperimentConfig,
    load_config,
    render_value,
)
from drulearn.data import sample_split
from drulearn.dual import cutset_solve, duality_gap_check
from drulearn.kernels import SlsqpResult
from drulearn.model import (
    LabeledDataset,
    LabelPrior,
    TransportCost,
    confidence,
    make_rng,
)
from drulearn.oracle import BUDGET_SLACK, min_feasible_radius
from reference import transport_cost

SMALL_DATA = {
    "synthetic_n": 24,
    "n_labeled": 6,
}

BOUND_HEADER = (
    "eps,neg_log_bound,correction,likelihood_bound,median_confidence,vacuous_flag"
)


def write_config(tmp_path, name="run.cfg", **keys):
    lines = [f"{key} = {render_value(value)}" for key, value in keys.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def read_header(path):
    with open(path, newline="") as handle:
        return handle.readline().rstrip("\n")


def cli_instance(config_path, split_seed, n_labeled=None):
    """The config file's instance for one split, as the CLI assembles it."""
    config = load_config(config_path)
    return config, _build_instance(
        config, _load_table(config), split_seed, n_labeled
    )


def library_certificate(config_path, split_seed, eps, n_labeled=None):
    """Train and certify one instance by the library calls, and return the
    trained result with the certificate columns as the CLI renders them."""
    config, instance = cli_instance(config_path, split_seed, n_labeled)
    result = cutset_solve(
        instance.labeled, instance.unlabeled, instance.prior, instance.cost, eps
    )
    bound = certify(
        result.state,
        instance.labeled,
        instance.unlabeled,
        instance.prior,
        eps,
        instance.cost,
        z_score=config.z_score,
    )
    median = np.median(confidence(result.theta, instance.unlabeled))
    return result, {
        "eps": repr(float(eps)),
        "neg_log_bound": repr(bound.neg_log_bound),
        "correction": repr(bound.correction),
        "likelihood_bound": repr(bound.likelihood_bound),
        "median_confidence": repr(float(median)),
        "vacuous_flag": str(int(bound.vacuous)),
    }


def read_meta(path):
    entries = {}
    for line in Path(str(path) + ".meta").read_text().splitlines():
        key, _, value = line.partition("=")
        entries[key] = value
    return entries


class TestBuildInstance:
    """`_build_instance` takes the labeled rows from `data.sample_split` and
    the unlabeled sample by ``unlabeled_mode``."""

    @staticmethod
    def table(n=10):
        rng = make_rng(0)
        return LabeledDataset(rng.normal(size=(n, 2)), rng.integers(0, 2, size=n))

    def test_full_mode_unlabeled_is_whole_table(self):
        table = self.table()
        instance = _build_instance(ExperimentConfig(n_labeled=4), table, 1)
        labeled, _ = sample_split(table, 4, 1)
        np.testing.assert_array_equal(instance.labeled.features, labeled.features)
        np.testing.assert_array_equal(instance.unlabeled, table.features)

    def test_remainder_mode_unlabeled_is_the_rest(self):
        table = self.table()
        config = ExperimentConfig(n_labeled=4, unlabeled_mode="remainder")
        instance = _build_instance(config, table, 1)
        _, rest = sample_split(table, 4, 1)
        np.testing.assert_array_equal(instance.unlabeled, rest.features)
        drawn_all = _build_instance(config, table, 1, n_labeled=10)
        assert drawn_all.unlabeled is None


class TestUsageErrors:
    def test_no_arguments(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert main(["fit"]) == EXIT_USAGE

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == EXIT_OK

    def test_missing_config_file(self, tmp_path):
        assert main(["min-radius", "--config", str(tmp_path / "absent.cfg")]) == EXIT_USAGE

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sede = 3\n")
        assert main(["min-radius", "--config", str(path)]) == EXIT_USAGE

    def test_bad_strategy_override(self, tmp_path):
        config = write_config(tmp_path, **SMALL_DATA)
        code = main(["active", "--config", config, "--strategy", "psychic"])
        assert code == EXIT_USAGE

    def test_non_finite_eps_override_exits_one_and_writes_nothing(
        self, tmp_path, capsys
    ):
        out = tmp_path / "nan.csv"
        config = write_config(tmp_path, output=str(out), **SMALL_DATA)
        assert main(["train-dru", "--config", config, "--eps", "nan"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: eps must be finite, got nan\n"
        assert list(tmp_path.iterdir()) == [Path(config)]

    def test_empty_output_override_exits_one_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        # an empty output would name a hidden `.meta` in the working directory
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, **SMALL_DATA)
        assert main(["min-radius", "--config", config, "--output", ""]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: output must name a file\n"
        assert list(tmp_path.iterdir()) == [Path(config)]

    def test_negative_seed_override_exits_one_and_writes_nothing(
        self, tmp_path, capsys
    ):
        # numpy would refuse a negative seed only when a trial draws its
        # sample, after the `.meta` is written and other trials have run
        out = tmp_path / "seed.csv"
        config = write_config(tmp_path, output=str(out), **SMALL_DATA)
        assert main(["bound", "--config", config, "--seed", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"
        assert list(tmp_path.iterdir()) == [Path(config)]

    def test_directory_output_override_exits_one_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        # `.` would name the sidecar `..meta` and fail only at the CSV write
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, **SMALL_DATA)
        assert main(["min-radius", "--config", config, "--output", "."]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: output must name a file, got the directory .\n"
        )
        assert list(tmp_path.iterdir()) == [Path(config)]

    def test_min_radius_with_a_negative_delta_margin_exits_one(
        self, tmp_path, capsys
    ):
        # min-radius adds delta_margin to its radius without running the
        # radius policy, so the key must be checked with the config
        out = tmp_path / "mr.csv"
        config = write_config(
            tmp_path, output=str(out), delta_margin=-5.0, **SMALL_DATA
        )
        assert main(["min-radius", "--config", config]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: delta_margin must be positive\n"
        assert list(tmp_path.iterdir()) == [Path(config)]

    @pytest.mark.parametrize("command", sorted(set(cli._SUBCOMMANDS) - {"oracle-check"}))
    def test_a_labeled_sample_larger_than_the_table_exits_one_and_writes_nothing(
        self, tmp_path, capsys, command
    ):
        config = write_config(
            tmp_path, output=str(tmp_path / "big.csv"), synthetic_n=24, n_labeled=30
        )
        assert main([command, "--config", config]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: n_labeled must not exceed the table size 24, got 30\n"
        )
        assert list(tmp_path.iterdir()) == [Path(config)]

    def test_a_missing_dataset_exits_one_and_writes_nothing(self, tmp_path, capsys):
        absent = tmp_path / "absent.csv"
        config = write_config(
            tmp_path, output=str(tmp_path / "out.csv"), dataset=str(absent)
        )
        assert main(["wasserstein", "--config", config]) == EXIT_USAGE
        assert str(absent) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [Path(config)]

    @pytest.mark.filterwarnings("error")
    def test_a_latin_1_csv_names_the_file_and_line_and_writes_nothing(
        self, tmp_path, capsys
    ):
        # the bad byte lies past the first read chunk of the text layer
        data = tmp_path / "latin.csv"
        rows = [f"{index % 7}.5,{index % 2}" for index in range(2000)]
        text = "\n".join(["a,label", *rows, "caf\xe9,1", *rows]) + "\n"
        data.write_bytes(text.encode("latin-1"))
        config = write_config(
            tmp_path, output=str(tmp_path / "out.csv"), dataset=str(data)
        )
        assert main(["wasserstein", "--config", config]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {data}: line 2002 is not UTF-8 text\n"
        )
        assert sorted(tmp_path.iterdir()) == sorted([data, Path(config)])

    @pytest.mark.filterwarnings("error")
    def test_a_latin_1_config_names_the_file_and_line_and_writes_nothing(
        self, tmp_path, capsys
    ):
        config = tmp_path / "run.cfg"
        config.write_bytes(
            f"output = {tmp_path / 'out.csv'}\nlabel_column = \xe9tiquette\n".encode(
                "latin-1"
            )
        )
        assert main(["wasserstein", "--config", str(config)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {config}: line 2 is not UTF-8 text\n"
        )
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.filterwarnings("error")
    def test_unstandardized_cells_near_the_float_limit_name_the_column(
        self, tmp_path, capsys
    ):
        data = tmp_path / "big.csv"
        data.write_text("a,b,label\n1e308,2.0,1\n-1e308,0.5,0\n0.3,1.5,1\n2.0,0.1,0\n")
        config = write_config(
            tmp_path,
            output=str(tmp_path / "out.csv"),
            dataset=str(data),
            n_labeled=2,
            standardize=False,
        )
        assert main(["wasserstein", "--config", config]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {data}: column 'a' spreads the features so far that their "
            "distances overflow; set standardize = true\n"
        )
        assert sorted(tmp_path.iterdir()) == sorted([data, Path(config)])

    @pytest.mark.filterwarnings("error")
    def test_an_unstandardized_synthetic_table_too_wide_names_the_key(
        self, tmp_path, capsys
    ):
        config = write_config(
            tmp_path,
            output=str(tmp_path / "out.csv"),
            synthetic_separation=1e200,
            standardize=False,
        )
        assert main(["wasserstein", "--config", config]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: synthetic_separation = 1e+200 with synthetic_noise = 0.5 "
            "spreads the features so far that their distances overflow; set "
            "standardize = true\n"
        )
        assert list(tmp_path.iterdir()) == [Path(config)]


class TestOneShotCommands:
    def test_min_radius_writes_row_and_metadata(self, tmp_path):
        out = tmp_path / "mr.csv"
        config = write_config(
            tmp_path, output=str(out), seed=3, delta_margin=0.01, **SMALL_DATA
        )
        assert main(["min-radius", "--config", config]) == EXIT_OK
        (row,) = read_rows(out)
        assert float(row["eps_selected"]) == float(row["eps_min"]) + 0.01
        meta = read_meta(out)
        assert meta["command"] == "min-radius"
        assert meta["seed"] == "3"

    def test_metadata_is_sorted_and_carries_no_timestamps(self, tmp_path):
        out = tmp_path / "mr.csv"
        config = write_config(tmp_path, output=str(out), **SMALL_DATA)
        main(["min-radius", "--config", config])
        lines = Path(str(out) + ".meta").read_text().splitlines()
        keys = [line.partition("=")[0] for line in lines]
        assert keys == sorted(keys)
        banned = {"time", "timestamp", "date", "created", "walltime", "hostname"}
        assert not banned & set(keys)

    def test_train_dru_reports_bound_and_weights(self, tmp_path):
        out = tmp_path / "dru.csv"
        config = write_config(
            tmp_path, output=str(out), eps=0.6, seed=1, **SMALL_DATA
        )
        assert main(["train-dru", "--config", config]) == EXIT_OK
        (row,) = read_rows(out)
        assert row["status"] in ("converged", "max_steps")
        # The reported objective is the certified negative-log bound.
        assert row["objective"] == row["neg_log_bound"]
        assert {"theta_0", "theta_1", "theta_2"} <= set(row)
        bound = float(row["likelihood_bound"])
        assert 0.0 < bound <= 1.0
        assert row["vacuous_flag"] == ("1" if bound <= 0.5 else "0")

    def test_train_baseline_reports_price_and_value(self, tmp_path):
        out = tmp_path / "base.csv"
        config = write_config(
            tmp_path, output=str(out), eps=0.3, seed=2, **SMALL_DATA
        )
        assert main(["train-baseline", "--config", config]) == EXIT_OK
        (row,) = read_rows(out)
        value = float(row["worst_case_value"])
        assert float(row["alpha"]) >= 0.0
        assert float(row["worst_case_likelihood"]) == pytest.approx(
            math.exp(-value), rel=1e-12
        )

    def test_train_baseline_with_an_empty_remainder_exits_one(
        self, tmp_path, capsys, monkeypatch
    ):
        # every row drawn leaves no unlabeled sample to score, as the policy
        # radius already reports, even with an explicit eps
        def no_fit(*args, **kwargs):
            raise AssertionError("the baseline was fitted")

        monkeypatch.setattr(cli, "baseline_train", no_fit)
        out = tmp_path / "base.csv"
        config = write_config(
            tmp_path,
            output=str(out),
            eps=0.3,
            synthetic_n=20,
            n_labeled=20,
            unlabeled_mode="remainder",
        )
        assert main(["train-baseline", "--config", config]) == EXIT_USAGE
        assert "the unlabeled remainder is empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [Path(config)]

    def test_weight_columns_follow_the_index_order(self, tmp_path):
        # 10 features plus the intercept: 11 weights, so a string sort of
        # the names would put theta_10 before theta_2
        rng = make_rng(0)
        features = np.round(rng.normal(size=(16, 10)), 3)
        labels = (features[:, 0] + 0.5 * rng.normal(size=16) > 0).astype(int)
        dataset = tmp_path / "wide.csv"
        lines = [",".join([f"x{j}" for j in range(10)] + ["label"])]
        lines += [
            ",".join([repr(float(value)) for value in row] + [str(label)])
            for row, label in zip(features, labels)
        ]
        dataset.write_text("\n".join(lines) + "\n")
        out = tmp_path / "wide_out.csv"
        config = write_config(
            tmp_path,
            output=str(out),
            dataset=str(dataset),
            n_labeled=12,
            prior_mode="strong",
        )
        thetas = ",".join(f"theta_{j}" for j in range(11))

        assert main(["train-dru", "--config", config]) == EXIT_OK
        assert read_header(out) == (
            f"seed,n_labeled,status,objective,{BOUND_HEADER},{thetas}"
        )
        (row,) = read_rows(out)
        result, certificate = library_certificate(config, 0, float(row["eps"]))
        assert {key: row[key] for key in certificate} == certificate
        assert row["objective"] == certificate["neg_log_bound"]
        assert row["status"] == result.status
        assert [row[f"theta_{j}"] for j in range(11)] == [
            repr(float(value)) for value in result.theta
        ]
        # distinct nonzero weights, so a misordered column cannot match
        assert np.all(result.theta != 0.0)

        assert main(["train-baseline", "--config", config]) == EXIT_OK
        assert read_header(out) == (
            "seed,n_labeled,eps,alpha,worst_case_value,worst_case_likelihood,"
            f"median_confidence,{thetas}"
        )
        (row,) = read_rows(out)
        _, instance = cli_instance(config, 0)
        fit = baseline_train(instance.labeled, float(row["eps"]), instance.cost)
        assert [row[f"theta_{j}"] for j in range(11)] == [
            repr(float(value)) for value in fit.theta
        ]

    def test_default_instance_collapses_to_the_zero_model_on_wide_balls(
        self, tmp_path
    ):
        # the default robustness-sweep instance: from radius 0.5 up, the
        # exact ball fit is the no-confidence model with worst case log 2
        for eps in (0.5, 1.0, 2.0):
            out = tmp_path / f"base_{eps}.csv"
            config = write_config(tmp_path, output=str(out), eps=eps)
            assert main(["train-baseline", "--config", config]) == EXIT_OK
            (row,) = read_rows(out)
            theta = [float(row[key]) for key in row if key.startswith("theta_")]
            assert len(theta) == 3
            assert np.linalg.norm(theta) <= 1e-6
            assert float(row["worst_case_value"]) == pytest.approx(
                math.log(2.0), abs=1e-9
            )

    def test_wasserstein_distance_is_nonnegative(self, tmp_path):
        out = tmp_path / "w.csv"
        config = write_config(tmp_path, output=str(out), seed=5, **SMALL_DATA)
        assert main(["wasserstein", "--config", config]) == EXIT_OK
        (row,) = read_rows(out)
        assert float(row["distance"]) >= 0.0
        assert row["n_labeled"] == "6"

    def test_wasserstein_of_the_whole_table_to_itself_is_zero(self, tmp_path):
        out = tmp_path / "w.csv"
        config = write_config(tmp_path, output=str(out), synthetic_n=24, n_labeled=24)
        assert main(["wasserstein", "--config", config]) == EXIT_OK
        assert read_rows(out)[0]["distance"] == "0.0"

    # 24 rows: 6 labeled divide them (the assignment path), 7 do not (the
    # transport LP)
    @pytest.mark.parametrize("n_labeled", [6, 7])
    def test_wasserstein_row_is_the_dense_transport_lp(self, tmp_path, n_labeled):
        out = tmp_path / "w.csv"
        config = write_config(
            tmp_path, output=str(out), synthetic_n=24, n_labeled=n_labeled
        )
        assert main(["wasserstein", "--config", config]) == EXIT_OK
        (row,) = read_rows(out)
        _, instance = cli_instance(config, split_seed=0)
        labeled, table = instance.labeled, instance.full
        m, n = labeled.n, table.n
        costs = np.array(
            [
                [
                    transport_cost(
                        labeled.features[i],
                        labeled.labels[i],
                        table.features[j],
                        table.labels[j],
                        instance.cost,
                    )
                    for j in range(n)
                ]
                for i in range(m)
            ]
        )
        rows = np.kron(np.eye(m), np.ones(n))
        columns = np.kron(np.ones(m), np.eye(n))
        dense = linprog(
            costs.ravel(),
            A_eq=np.vstack([rows, columns]),
            b_eq=np.concatenate([np.full(m, 1.0 / m), np.full(n, 1.0 / n)]),
            bounds=(0, None),
            method="highs",
        )
        assert dense.status == 0
        assert float(row["distance"]) == pytest.approx(dense.fun, rel=0, abs=1e-12)

    def test_n_labeled_override_shrinks_the_sample(self, tmp_path):
        out = tmp_path / "w.csv"
        config = write_config(tmp_path, output=str(out), seed=5, **SMALL_DATA)
        main(["wasserstein", "--config", config, "--n-labeled", "4"])
        (row,) = read_rows(out)
        assert row["n_labeled"] == "4"

    def test_seed_override_is_recorded(self, tmp_path):
        out = tmp_path / "w.csv"
        config = write_config(tmp_path, output=str(out), seed=5, **SMALL_DATA)
        main(["wasserstein", "--config", config, "--seed", "11"])
        assert read_meta(out)["seed"] == "11"
        assert read_rows(out)[0]["seed"] == "11"


class TestExitCodes:
    def test_infeasible_radius_exits_two(self, tmp_path):
        config = write_config(
            tmp_path,
            output=str(tmp_path / "inf.csv"),
            prior_mode="strong",
            prior_positive_share=0.0,
            eps=0.001,
            seed=4,
            synthetic_n=30,
            n_labeled=10,
        )
        assert main(["train-dru", "--config", config]) == EXIT_INFEASIBLE

    def test_radius_below_the_exact_minimum_exits_two_before_training(
        self, tmp_path, capsys
    ):
        # minimal feasible radius 0.7565...: every point must flip to class 0
        out = tmp_path / "repro.csv"
        config = write_config(
            tmp_path,
            output=str(out),
            prior_mode="strong",
            prior_positive_share=0.0,
            eps=0.001,
            seed=4,
            synthetic_n=30,
            n_labeled=10,
        )
        assert main(["train-dru", "--config", config]) == EXIT_INFEASIBLE
        message = capsys.readouterr().err
        assert "radius too small" in message
        assert "0.001 " in message and "0.7565" in message
        assert not out.exists()
        assert read_meta(out)["command"] == "train-dru"

    def test_failed_baseline_fit_exits_three_and_keeps_its_meta(
        self, tmp_path, monkeypatch, capsys
    ):
        def failed_solve(fun, x0, lower, upper, **options):
            return SlsqpResult(x=np.asarray(x0), status=9, nit=1000)

        monkeypatch.setattr(baseline, "slsqp", failed_solve)
        out = tmp_path / "fail.csv"
        config = write_config(tmp_path, output=str(out), eps=0.3, **SMALL_DATA)
        assert main(["train-baseline", "--config", config]) == EXIT_NUMERICAL
        message = capsys.readouterr().err
        assert "numerical failure" in message
        assert "SLSQP status 9" in message
        assert not out.exists()
        assert read_meta(out)["command"] == "train-baseline"

    # every subcommand on a config that passes its checks, failing at run
    # time where it draws its labeled sample or, in `oracle-check`, at the
    # oracle; the last entry is the number of failed trials, None for a
    # one-shot run, which fails once
    @pytest.mark.parametrize(
        "command, code, failed",
        [
            ("train-dru", EXIT_USAGE, None),
            ("train-baseline", EXIT_USAGE, None),
            ("min-radius", EXIT_USAGE, None),
            ("wasserstein", EXIT_USAGE, None),
            ("bound", EXIT_USAGE, 2),
            ("radius-sweep", EXIT_USAGE, 4),
            ("robustness-sweep", EXIT_USAGE, 2),
            ("active", EXIT_USAGE, 2),
            ("oracle-check", EXIT_NUMERICAL, 2),
        ],
    )
    def test_a_failed_run_leaves_its_meta(
        self, tmp_path, monkeypatch, command, code, failed
    ):
        def failing_split(*args):
            raise ValueError("split failed")

        def failing_oracle(*args):
            raise RuntimeError("oracle failed")

        monkeypatch.setattr(cli, "sample_split", failing_split)
        monkeypatch.setattr(cli, "min_feasible_radius", failing_oracle)
        out = tmp_path / "fail.csv"
        config = write_config(
            tmp_path,
            output=str(out),
            synthetic_n=24,
            n_labeled=6,
            trials=2,
            stop_at=8,
            eps_grid=(0.3, 0.8),
            delta_grid=(0.0, 0.3),
        )
        assert main([command, "--config", config]) == code
        meta = read_meta(out)
        assert meta["command"] == command
        errors = [key for key in meta if key.startswith("error_trial_")]
        if failed is None:
            assert not out.exists()
            assert errors == []
        else:
            assert len(out.read_text().splitlines()) == 1
            assert len(errors) == failed
            assert not (tmp_path / "fail_aulc.csv").exists()


    def test_a_non_finite_csv_cell_fails_once_at_load(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("a,b,label\n1.0,2.0,1\nnan,0.5,0\n0.3,1.5,1\n2.0,0.1,0\n")
        out = tmp_path / "bound.csv"
        config = write_config(
            tmp_path, output=str(out), dataset=str(data), n_labeled=2, trials=2
        )
        assert main(["bound", "--config", config]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {data}: column 'a', data row 2 (line 3): "
            "'nan' is not a finite number\n"
        )
        assert sorted(tmp_path.iterdir()) == sorted([data, Path(config)])

    @pytest.mark.filterwarnings("error")
    def test_cells_near_the_float_limit_standardize_without_overflow(
        self, tmp_path, capsys
    ):
        data = tmp_path / "big.csv"
        data.write_text("a,b,label\n1e308,2.0,1\n1e308,0.5,0\n0.3,1.5,1\n2.0,0.1,0\n")
        out = tmp_path / "wasserstein.csv"
        config = write_config(
            tmp_path, output=str(out), dataset=str(data), n_labeled=2
        )
        assert main(["wasserstein", "--config", config]) == 0
        assert capsys.readouterr().err == ""
        (row,) = read_rows(out)
        assert math.isfinite(float(row["distance"]))


class TestBoundExperiment:
    # at eps 0.5 trial 0 needs a larger radius at both grid sizes (minimal
    # radii 0.5128 and 0.5599), and trial 1 does not
    @staticmethod
    def run_grid(tmp_path, **keys):
        out = tmp_path / "bound.csv"
        config = write_config(
            tmp_path,
            output=str(out),
            eps=0.5,
            trials=2,
            n_labeled_grid=(4, 6),
            **keys,
            **SMALL_DATA,
        )
        assert main(["bound", "--config", config]) == EXIT_OK
        rows = read_rows(out)
        assert [(row["n_labeled"], row["trial"]) for row in rows] == [
            ("4", "1"),
            ("6", "1"),
        ]
        meta = read_meta(out)
        errors = [key for key in meta if key.startswith("error_trial_")]
        assert errors == ["error_trial_0_n_4", "error_trial_0_n_6"]
        assert all("radius too small" in meta[key] for key in errors)
        return rows

    def test_grid_rows_skip_the_infeasible_trials_and_record_them(self, tmp_path):
        self.run_grid(tmp_path)

    def test_rows_pin_the_header_and_match_the_library_certificate(
        self, tmp_path
    ):
        rows = self.run_grid(tmp_path)
        assert read_header(tmp_path / "bound.csv") == (
            f"n_labeled,trial,seed,{BOUND_HEADER}"
        )
        config = str(tmp_path / "run.cfg")
        for row in rows:
            _, certificate = library_certificate(
                config, int(row["seed"]), 0.5, n_labeled=int(row["n_labeled"])
            )
            assert {key: row[key] for key in certificate} == certificate

    def test_confidence_screen_fallback_warns_once_per_instance(
        self, tmp_path, capsys
    ):
        # no radius reaches a median confidence of 0.999, so each instance
        # falls back to its smallest candidate and says so on stderr; the
        # outputs do not carry the warning
        out = tmp_path / "arap.csv"
        keys = dict(
            output=str(out),
            eps_policy="as-robust-as-possible",
            grid_points=2,
            trials=2,
            **SMALL_DATA,
        )
        config = write_config(tmp_path, confidence_threshold=0.999, **keys)
        assert main(["bound", "--config", config]) == EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        rows = read_rows(out)
        assert len(rows) == len(lines) == 2
        for row, line in zip(rows, lines):
            assert line == (
                "warning: no radius met confidence_threshold 0.999; using the "
                f"smallest candidate {row['eps']}"
            )
        assert "warning" not in Path(str(out) + ".meta").read_text()
        # every median confidence is at least 0.5: the largest radius passes
        config = write_config(tmp_path, confidence_threshold=0.5, **keys)
        assert main(["bound", "--config", config]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_a_certificate_on_the_minimal_radius_warns_once_per_row(
        self, tmp_path, capsys
    ):
        # the strong-prior distance-fraction radius is the minimal feasible
        # one on both `bound_strong` rows, so each says so on stderr; the
        # default weak-prior `bound_weak` rows sit 0.24 and 0.35 above it
        out = tmp_path / "strong.csv"
        config = write_config(
            tmp_path,
            output=str(out),
            prior_mode="strong",
            eps_policy="fraction-of-true-distance",
            n_labeled_grid=(20,),
            trials=2,
        )
        assert main(["bound", "--config", config]) == EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        rows = read_rows(out)
        assert len(rows) == len(lines) == 2
        for row, line in zip(rows, lines):
            _, instance = cli_instance(config, int(row["seed"]), 20)
            eps_min = min_feasible_radius(
                instance.labeled, instance.unlabeled, instance.prior, instance.cost
            )
            assert float(row["eps"]) - eps_min <= BUDGET_SLACK
            assert line == (
                f"warning: radius {row['eps']} is on the minimal feasible radius "
                f"{eps_min}; the certificate is for the smallest decision set"
            )
        assert "warning" not in Path(str(out) + ".meta").read_text()
        weak = write_config(
            tmp_path,
            name="weak.cfg",
            output=str(tmp_path / "weak.csv"),
            synthetic_n=60,
            n_labeled_grid=(10, 20),
        )
        assert main(["bound", "--config", weak]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert len(read_rows(tmp_path / "weak.csv")) == 2

    @pytest.mark.parametrize(
        "command, keys, message",
        [
            (
                "bound",
                {"synthetic_n": 13, "n_labeled_grid": (10,), "trials": 3},
                "n_labeled_grid = 10 on a table of 13 rows with unlabeled_mode = "
                "remainder leaves 3 unlabeled rows; certify needs at least 4",
            ),
            (
                "bound",
                {"synthetic_n": 13, "n_labeled_grid": (4, 14), "trials": 3},
                "n_labeled_grid must not exceed the table size 13, got 14",
            ),
            (
                "radius-sweep",
                {
                    "synthetic_n": 13,
                    "n_labeled": 10,
                    "eps_grid": (2.0, 3.0),
                    "trials": 2,
                },
                "n_labeled = 10 on a table of 13 rows with unlabeled_mode = "
                "remainder leaves 3 unlabeled rows; certify needs at least 4",
            ),
            (
                "train-dru",
                {"synthetic_n": 13, "n_labeled": 12, "z_score": 0.0},
                "n_labeled = 12 on a table of 13 rows with unlabeled_mode = "
                "remainder leaves 1 unlabeled rows; certify needs at least 2",
            ),
            (
                "train-dru",
                {"synthetic_n": 3, "n_labeled": 2, "unlabeled_mode": "full"},
                "n_labeled = 2 on a table of 3 rows with unlabeled_mode = "
                "full leaves 3 unlabeled rows; certify needs at least 4",
            ),
        ],
        ids=[
            "bound-grid",
            "bound-grid-above-table",
            "radius-sweep",
            "train-dru-z0",
            "full",
        ],
    )
    def test_a_sample_too_small_to_certify_fails_once_before_any_trial(
        self, tmp_path, capsys, monkeypatch, command, keys, message
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "_build_instance", no_trial)
        out = tmp_path / "small.csv"
        keys = {"eps": 2.0, "unlabeled_mode": "remainder", **keys}
        config = write_config(tmp_path, output=str(out), **keys)
        assert main([command, "--config", config]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [Path(config)]

    def test_a_sample_of_the_rows_certify_needs_is_certified(self, tmp_path):
        # two remainder rows suffice at z_score 0, four otherwise
        for index, (n_labeled, z_score) in enumerate(((11, 0.0), (9, 1.96))):
            out = tmp_path / f"edge{index}.csv"
            config = write_config(
                tmp_path,
                output=str(out),
                eps=2.0,
                synthetic_n=13,
                n_labeled=n_labeled,
                z_score=z_score,
                unlabeled_mode="remainder",
            )
            assert main(["train-dru", "--config", config]) == EXIT_OK
            assert len(read_rows(out)) == 1

    def test_mismatched_kind_is_a_usage_error(self, tmp_path):
        # `kind` is no longer a config key: the subcommand alone decides what
        # a run reports, so a config that still sets it exits 1
        config = write_config(
            tmp_path, output=str(tmp_path / "b.csv"), kind="active", **SMALL_DATA
        )
        assert main(["bound", "--config", config]) == EXIT_USAGE


class TestSweeps:
    def test_radius_sweep_records_infeasible_points_and_continues(self, tmp_path):
        out = tmp_path / "rs.csv"
        config = write_config(
            tmp_path,
            output=str(out),
            prior_mode="strong",
            prior_positive_share=0.0,
            eps_grid=(0.001, 1.5),
            seed=4,
            synthetic_n=30,
            n_labeled=10,
        )
        assert main(["radius-sweep", "--config", config]) == EXIT_OK
        rows = read_rows(out)
        assert [float(row["eps"]) for row in rows] == [1.5]
        meta = read_meta(out)
        error_keys = [key for key in meta if key.startswith("error_trial_")]
        assert error_keys == ["error_trial_0_eps_0.001"]
        assert "radius too small" in meta[error_keys[0]]

    def test_radius_sweep_with_no_feasible_point_exits_two(self, tmp_path):
        out = tmp_path / "rs.csv"
        config = write_config(
            tmp_path,
            output=str(out),
            prior_mode="strong",
            prior_positive_share=0.0,
            eps_grid=(0.001,),
            seed=4,
            synthetic_n=30,
            n_labeled=10,
        )
        assert main(["radius-sweep", "--config", config]) == EXIT_INFEASIBLE
        assert read_rows(out) == []
        assert "error_trial_0_eps_0.001" in read_meta(out)

    def test_radius_sweep_rows_pin_the_header_and_match_the_library_certificate(
        self, tmp_path
    ):
        out = tmp_path / "rs.csv"
        config = write_config(
            tmp_path, output=str(out), eps_grid=(0.6, 1.5), seed=1, **SMALL_DATA
        )
        assert main(["radius-sweep", "--config", config]) == EXIT_OK
        assert read_header(out) == f"trial,seed,{BOUND_HEADER}"
        rows = read_rows(out)
        assert [row["eps"] for row in rows] == ["0.6", "1.5"]
        for row in rows:
            _, certificate = library_certificate(config, 1, float(row["eps"]))
            assert {key: row[key] for key in certificate} == certificate

    def test_radius_sweep_certifies_the_zero_model_at_exactly_log_2(self, tmp_path):
        # on its default instance, trial 0 trains the zero model at its two
        # wider radii and trial 1 at all three; each such row reads the
        # exact worst case there, log 2, with no correction, and is flagged
        # vacuous (trial 1's rows once read one ulp below log 2)
        out = tmp_path / "rs.csv"
        config = write_config(
            tmp_path, output=str(out), eps_grid=(0.6, 1.0, 2.0), trials=2
        )
        assert main(["radius-sweep", "--config", config]) == EXIT_OK
        rows = [row for row in read_rows(out) if row["median_confidence"] == "0.5"]
        assert [(row["trial"], row["eps"]) for row in rows] == [
            ("0", "1.0"), ("0", "2.0"), ("1", "0.6"), ("1", "1.0"), ("1", "2.0"),
        ]
        for row in rows:
            assert (
                row["neg_log_bound"], row["correction"], row["likelihood_bound"],
                row["vacuous_flag"],
            ) == (repr(math.log(2.0)), "0.0", "0.5", "1"), row["eps"]

    def test_radius_sweep_solves_each_trial_coupling_once(
        self, tmp_path, transport_solves
    ):
        # one full-support coupling and one search-half coupling per trial,
        # both shared by every radius
        out = tmp_path / "rs.csv"
        config = write_config(
            tmp_path, output=str(out), eps_grid=(0.6, 1.0, 1.5), seed=1, **SMALL_DATA
        )
        _, instance = cli_instance(config, 1)
        n_u, n_l = len(instance.unlabeled), instance.labeled.n
        transport_solves.clear()
        assert main(["radius-sweep", "--config", config]) == EXIT_OK
        assert len(read_rows(out)) == 3
        assert transport_solves == [(n_u, n_l), ((n_u + 1) // 2, n_l)]

    def test_radius_sweep_records_a_failed_build_for_every_radius(
        self, tmp_path, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise ValueError("no coupling")

        monkeypatch.setattr(cli, "_build_instance", fail)
        out = tmp_path / "rs.csv"
        config = write_config(
            tmp_path, output=str(out), eps_grid=(0.6, 1.5), seed=1, **SMALL_DATA
        )
        assert main(["radius-sweep", "--config", config]) == EXIT_USAGE
        meta = read_meta(out)
        assert [key for key in meta if key.startswith("error_trial_")] == [
            "error_trial_0_eps_0.6",
            "error_trial_0_eps_1.5",
        ]
        assert meta["error_trial_0_eps_1.5"] == "no coupling"

    def test_robustness_sweep_rows_pin_the_header_and_flatten_the_matrix(
        self, tmp_path
    ):
        out = tmp_path / "rob.csv"
        eps_grid, delta_grid = (0.2, 0.6), (0.0, 0.5)
        config = write_config(
            tmp_path,
            output=str(out),
            eps_grid=eps_grid,
            delta_grid=delta_grid,
            seed=1,
            **SMALL_DATA,
        )
        assert main(["robustness-sweep", "--config", config]) == EXIT_OK
        assert read_header(out) == (
            "trial,seed,eps,delta,worst_case_likelihood,"
            "log10_worst_case_likelihood"
        )
        _, instance = cli_instance(config, 1)
        data, cost = instance.labeled, instance.cost
        expected = []
        for eps in eps_grid:
            theta = baseline_train(data, eps, cost).theta
            for delta in delta_grid:
                _, worst = worst_case_price(theta, data, eps + delta, cost)
                expected.append(
                    [
                        repr(eps),
                        repr(delta),
                        repr(float(np.exp(-worst))),
                        repr(float(-worst / math.log(10))),
                    ]
                )
        rows = read_rows(out)
        assert [
            [
                row["eps"],
                row["delta"],
                row["worst_case_likelihood"],
                row["log10_worst_case_likelihood"],
            ]
            for row in rows
        ] == expected

    @pytest.mark.filterwarnings("error")
    def test_robustness_sweep_gives_a_finite_log10_where_the_likelihood_underflows(
        self, tmp_path, capsys
    ):
        # a worst case past about 745 nats underflows exp(-worst) to 0, whose
        # log10 was -inf with a RuntimeWarning; the column is -worst / ln 10
        out = tmp_path / "rob.csv"
        config = write_config(
            tmp_path,
            output=str(out),
            synthetic_n=40,
            synthetic_separation=3.0,
            eps_grid=(0.0, 0.01),
            delta_grid=(0.0, 100.0, 1000.0),
        )
        assert main(["robustness-sweep", "--config", config]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert "inf" not in out.read_text()
        rows = read_rows(out)
        assert len(rows) == 6
        likelihoods = [float(row["worst_case_likelihood"]) for row in rows]
        assert likelihoods.count(0.0) == 3
        for row in rows:
            log10 = float(row["log10_worst_case_likelihood"])
            assert math.isfinite(log10)
            assert math.exp(log10 * math.log(10)) == pytest.approx(
                float(row["worst_case_likelihood"]), rel=1e-9, abs=0.0
            )

    @pytest.mark.parametrize(
        "command, grid, message",
        [
            (
                "robustness-sweep",
                "eps_grid",
                "a robustness sweep requires nonempty eps_grid and delta_grid",
            ),
            (
                "robustness-sweep",
                "delta_grid",
                "a robustness sweep requires nonempty eps_grid and delta_grid",
            ),
            ("radius-sweep", "eps_grid", "a radius sweep requires a nonempty eps_grid"),
        ],
        ids=["robustness-sweep-eps", "robustness-sweep-delta", "radius-sweep-eps"],
    )
    def test_an_empty_grid_fails_before_any_trial(
        self, tmp_path, capsys, command, grid, message
    ):
        out = tmp_path / "sweep.csv"
        config = write_config(tmp_path, output=str(out), **{grid: ()}, **SMALL_DATA)
        assert main([command, "--config", config]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [Path(config)]

    def test_robustness_sweep_is_monotone_in_the_extra_radius(self, tmp_path):
        out = tmp_path / "rob.csv"
        config = write_config(
            tmp_path,
            output=str(out),
            eps_grid=(0.2, 0.6),
            delta_grid=(0.0, 0.2, 0.5),
            seed=1,
            trials=2,
            **SMALL_DATA,
        )
        assert main(["robustness-sweep", "--config", config]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 2 * 2 * 3
        for trial in ("0", "1"):
            for eps in ("0.2", "0.6"):
                likelihoods = [
                    float(row["worst_case_likelihood"])
                    for row in rows
                    if row["trial"] == trial and row["eps"] == eps
                ]
                assert len(likelihoods) == 3
                assert all(
                    later <= earlier + 1e-12
                    for earlier, later in zip(likelihoods, likelihoods[1:])
                )


class TestActiveExperiment:
    def test_default_stop_at_within_the_initial_set_fails_once_before_any_trial(
        self, tmp_path, capsys, monkeypatch
    ):
        # stop_at = 0 targets n_labeled, here the default n_initial of 2
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_active_loop", no_trial)
        out = tmp_path / "act.csv"
        config = write_config(
            tmp_path, output=str(out), synthetic_n=20, n_labeled=2, trials=3
        )
        assert main(["active", "--config", config]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: with stop_at = 0, n_labeled must exceed n_initial\n"
        )
        assert list(tmp_path.iterdir()) == [Path(config)]

    def test_initial_set_larger_than_the_table_fails_once_before_any_trial(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_active_loop", no_trial)
        out = tmp_path / "act.csv"
        config = write_config(
            tmp_path, output=str(out), synthetic_n=10, n_initial=12, trials=3
        )
        assert main(["active", "--config", config]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: n_initial must not exceed the table size 10, got 12\n"
        )
        assert list(tmp_path.iterdir()) == [Path(config)]

    def test_failed_trials_leave_a_header_only_csv_and_one_key_each(
        self, tmp_path, monkeypatch
    ):
        def failing_trial(*args, **kwargs):
            raise ValueError("trial failed")

        monkeypatch.setattr(cli, "run_active_loop", failing_trial)
        out = tmp_path / "act.csv"
        config = write_config(tmp_path, output=str(out), synthetic_n=20, trials=2)
        assert main(["active", "--config", config]) == EXIT_USAGE
        assert out.read_text() == "seed,strategy,trial,n_labeled,likelihood\n"
        assert not (tmp_path / "act_aulc.csv").exists()
        meta = read_meta(out)
        errors = {key: meta[key] for key in meta if key.startswith("error_trial_")}
        assert errors == {
            "error_trial_0": "trial failed",
            "error_trial_1": "trial failed",
        }

    @pytest.mark.parametrize(
        "keys, message",
        [
            (
                {"stop_at": 12},
                "error: stop_at must not exceed the table size 10, got 12\n",
            ),
            (
                {"n_labeled": 11},
                "error: n_labeled must not exceed the table size 10, got 11\n",
            ),
        ],
    )
    def test_stop_size_larger_than_the_table_fails_once_before_any_trial(
        self, tmp_path, capsys, monkeypatch, keys, message
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_active_loop", no_trial)
        out = tmp_path / "act.csv"
        config = write_config(
            tmp_path, output=str(out), synthetic_n=10, n_initial=2, trials=3, **keys
        )
        assert main(["active", "--config", config]) == EXIT_USAGE
        assert capsys.readouterr().err == message
        assert list(tmp_path.iterdir()) == [Path(config)]

    def test_stop_size_equal_to_the_table_size_labels_every_row(self, tmp_path):
        out = tmp_path / "act.csv"
        config = write_config(
            tmp_path, output=str(out), synthetic_n=10, n_initial=2, stop_at=10
        )
        assert main(["active", "--config", config]) == EXIT_OK
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [int(row["n_labeled"]) for row in rows] == list(range(2, 11))

    def test_robust_strategies_match_min_mc_with_the_norm_over_the_whole_pool(
        self, tmp_path
    ):
        # with the subsample covering the pool, each robust pick is the
        # argmax of min(p, 1 - p) * |x|, min_mc's pick with mc_include_norm,
        # so both files agree byte for byte apart from the strategy name
        files = {}
        for strategy in ("min_mc", "dr_weak", "dr_strong"):
            out = tmp_path / f"{strategy}.csv"
            config = write_config(
                tmp_path,
                name=f"{strategy}.cfg",
                output=str(out),
                synthetic_n=60,
                stop_at=14,
                candidate_subsample=60,
                mc_include_norm=True,
                trials=2,
                strategy=strategy,
            )
            assert main(["active", "--config", config]) == EXIT_OK
            files[strategy] = [
                path.read_text().replace(strategy, "<strategy>")
                for path in (out, tmp_path / f"{strategy}_aulc.csv")
            ]
        assert files["dr_weak"] == files["min_mc"]
        assert files["dr_strong"] == files["min_mc"]
        (aulc_row,) = read_rows(tmp_path / "min_mc_aulc.csv")
        assert aulc_row["median_aulc"] == "96.74531390389562"

    def test_curves_and_aulc_files(self, tmp_path):
        out = tmp_path / "act.csv"
        config = write_config(
            tmp_path,
            output=str(out),
            synthetic_n=20,
            n_initial=3,
            stop_at=8,
            trials=2,
            strategy="random",
            seed=2,
        )
        assert main(["active", "--config", config]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 2 * 6  # labeled-set sizes 3 through 8, twice
        assert all(row["strategy"] == "random" for row in rows)
        counts = [int(row["n_labeled"]) for row in rows if row["trial"] == "0"]
        assert counts == [3, 4, 5, 6, 7, 8]
        (aulc_row,) = read_rows(tmp_path / "act_aulc.csv")
        assert aulc_row["strategy"] == "random"
        assert 0.0 <= float(aulc_row["median_aulc"]) <= 100.0

    def test_curve_and_aulc_rows_pin_the_headers_and_match_the_library(
        self, tmp_path
    ):
        for strategy in STRATEGY_KINDS:
            directory = tmp_path / strategy
            directory.mkdir()
            out = directory / "act.csv"
            config = write_config(
                directory,
                output=str(out),
                synthetic_n=20,
                n_initial=3,
                stop_at=6,
                trials=3,
                strategy=strategy,
                seed=2,
            )
            assert main(["active", "--config", config]) == EXIT_OK
            assert read_header(out) == "seed,strategy,trial,n_labeled,likelihood"
            aulc_path = directory / "act_aulc.csv"
            assert read_header(aulc_path) == "strategy,median_aulc"
            settings = load_config(config)
            table = _load_table(settings)
            pool = LabeledDataset(table.features, table.labels)
            expected, areas = [], []
            for trial in range(3):
                curve = run_active_loop(
                    *sample_split(pool, 3, 2 + trial),
                    settings,
                    eval_data=pool,
                    seed=2 + trial,
                    cost=TransportCost(),
                )
                expected += [
                    [str(2 + trial), strategy, str(trial), str(n), repr(float(value))]
                    for n, value in curve
                ]
                areas.append(aulc(curve))
            assert [list(row.values()) for row in read_rows(out)] == expected
            (aulc_row,) = read_rows(aulc_path)
            assert aulc_row == {
                "strategy": strategy,
                "median_aulc": repr(float(np.median(areas))),
            }

    def test_active_starts_from_the_rows_bound_labels(self, tmp_path, monkeypatch):
        # one seeded draw serves both: at the same seed and size, an active
        # trial starts from exactly the rows a bound trial certifies with
        draws = []

        def recording(table, n_labeled, seed):
            labeled, rest = sample_split(table, n_labeled, seed)
            draws.append(labeled.features)
            return labeled, rest

        monkeypatch.setattr(cli, "sample_split", recording)
        config = write_config(
            tmp_path,
            output=str(tmp_path / "out.csv"),
            synthetic_n=20,
            n_labeled_grid=(4,),
            n_initial=4,
            stop_at=6,
            trials=2,
            seed=3,
        )
        assert main(["bound", "--config", config]) == EXIT_OK
        assert main(["active", "--config", config]) == EXIT_OK
        assert len(draws) == 4
        for trial in range(2):
            np.testing.assert_array_equal(draws[trial], draws[2 + trial])
        assert not np.array_equal(draws[0], draws[1])

    def test_strategy_override_changes_the_curves(self, tmp_path):
        out = tmp_path / "act.csv"
        config = write_config(
            tmp_path,
            output=str(out),
            synthetic_n=20,
            n_initial=3,
            stop_at=8,
            strategy="random",
            seed=2,
        )
        main(["active", "--config", config, "--strategy", "emc"])
        rows = read_rows(out)
        assert all(row["strategy"] == "emc" for row in rows)
        assert read_meta(out)["strategy"] == "emc"

    def test_robust_strategies_read_the_prior_keys(self, tmp_path, monkeypatch):
        # `.meta` records prior_level and prior_positive_share, so the run
        # must use them: every robust step prices its candidates under the
        # configured prior, at that prior's minimal radius plus delta_margin
        built = []

        def recording(support, labeled, prior, eps, cost):
            built.append((support, labeled, prior, eps, cost))
            return oracle.PayoffLp(support, labeled, prior, eps, cost)

        monkeypatch.setattr(active, "PayoffLp", recording)
        keys = dict(synthetic_n=30, n_initial=4, stop_at=8, candidate_subsample=8)
        curves = {}
        for name, extra in (
            ("weak", {"strategy": "dr_weak", "prior_level": 0.5}),
            ("strong", {"strategy": "dr_strong", "prior_positive_share": 0.9}),
            ("strong_empty", {"strategy": "dr_strong"}),
            ("strong_half", {"strategy": "dr_strong", "prior_positive_share": 0.5}),
        ):
            built.clear()
            out = tmp_path / f"{name}.csv"
            config = write_config(
                tmp_path, name=f"{name}.cfg", output=str(out), **keys, **extra
            )
            assert main(["active", "--config", config]) == EXIT_OK
            curves[name] = out.read_text()
            assert len(built) == 4
            for support, labeled, prior, eps, cost in built:
                if name == "weak":
                    expected = weak_prior(labeled, level=0.5)
                else:
                    # the synthetic set is balanced: an empty share is 0.5
                    share = extra.get("prior_positive_share", 0.5)
                    expected = LabelPrior.point((1 - share, share))
                assert np.array_equal(prior.lower, expected.lower)
                assert np.array_equal(prior.upper, expected.upper)
                radius = prior_feasible_radius(
                    labeled, support, prior, cost
                )
                assert eps == radius + 1e-3
        # on this instance the 0.9 share changes which points are acquired
        assert curves["strong_empty"] == curves["strong_half"]
        assert curves["strong"] != curves["strong_empty"]


class TestOracleCheck:
    def test_gaps_close_at_converged_settings(self, tmp_path):
        out = tmp_path / "oc.csv"
        config = write_config(tmp_path, output=str(out), trials=2, seed=0)
        assert main(["oracle-check", "--config", config]) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 2
        for row in rows:
            primal, gap = float(row["primal"]), float(row["gap"])
            assert abs(gap) <= 1e-3 * (1.0 + abs(primal))
            assert row["within_tol"] == "1"


    def test_default_instances_price_the_dual_at_the_lp_value(self):
        # the eight instances of `trials = 8` from seed 0: the dual at the
        # LP's own multipliers falls short of the LP value, which prices the
        # budget eps + BUDGET_SLACK, by exactly the transport price's share
        cost = TransportCost()
        for seed in range(8):
            labeled, support, prior, theta = _oracle_instance(seed)
            eps = min_feasible_radius(labeled, support, prior, cost) + 0.1
            report = duality_gap_check(
                theta, labeled, support, prior, eps, cost
            )
            slack = report.state.multipliers[0] * BUDGET_SLACK
            assert abs(report.gap + slack) <= 1e-12, f"seed {seed}"

    def test_default_instances_run_a_pricing_round(self, tmp_path, monkeypatch):
        # the eight default instances must exercise column generation, not
        # only the seed: at least one worst-case LP prices a column in
        grown = []
        solve = oracle.PayoffLp.solve

        def counted(model, payoff):
            seeded = model.n_columns
            result = solve(model, payoff)
            grown.append(model.n_columns > seeded)
            return result

        monkeypatch.setattr(oracle.PayoffLp, "solve", counted)
        out = tmp_path / "oc.csv"
        config = write_config(tmp_path, output=str(out), trials=8)
        assert main(["oracle-check", "--config", config]) == EXIT_OK
        assert len(read_rows(out)) == len(grown) == 8
        assert any(grown)


class TestDeterminism:
    @staticmethod
    def rerun_and_capture(args, paths):
        assert main(args) == EXIT_OK
        first = [Path(path).read_bytes() for path in paths]
        assert main(args) == EXIT_OK
        second = [Path(path).read_bytes() for path in paths]
        return first, second

    def test_every_subcommand_is_byte_deterministic(self, tmp_path):
        out = tmp_path / "out.csv"
        base = dict(
            output=str(out),
            eps=0.5,
            seed=3,
            trials=2,
            synthetic_n=20,
            n_labeled=5,
            n_initial=3,
            stop_at=6,
            eps_grid=(0.3, 0.8),
            delta_grid=(0.0, 0.3),
            n_labeled_grid=(4, 5),
            strategy="random",
        )
        config = write_config(tmp_path, **base)
        for command in (
            "train-dru",
            "train-baseline",
            "bound",
            "min-radius",
            "wasserstein",
            "radius-sweep",
            "robustness-sweep",
            "active",
            "oracle-check",
        ):
            paths = [out, str(out) + ".meta"]
            if command == "active":
                paths.append(tmp_path / "out_aulc.csv")
            first, second = self.rerun_and_capture(
                [command, "--config", config], paths
            )
            assert first == second, f"{command} output changed between reruns"
            assert len(first[0]) > 0


SRC = Path(cli.__file__).resolve().parents[1]


def run_python(args, environment=(), **options):
    """Run `python <args>` in a fresh interpreter that imports this tree's
    drulearn, with stdout and stderr buffered as they are by default and
    the variables of `environment` set; returns the `CompletedProcess` with
    text output."""
    env = dict(os.environ, COLUMNS="80", **dict(environment))
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], env=env, text=True, **options
    )


def run_module(args):
    return run_python(["-m", "drulearn.cli", *args], capture_output=True)


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        out = tmp_path / "mr.csv"
        config = write_config(tmp_path, output=str(out), **SMALL_DATA)
        result = subprocess.run(
            [sys.executable, "-m", "drulearn.cli", "min-radius", "--config", config],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert out.exists()

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("bound", {}),
            ("min-radius", {}),
            (
                "active",
                {
                    "strategy": "dr_weak",
                    "n_initial": 2,
                    "stop_at": 4,
                    "candidate_subsample": 4,
                },
            ),
        ],
    )
    def test_process_writes_the_bytes_of_in_process_main(
        self, tmp_path, command, keys
    ):
        out = tmp_path / "out.csv"
        config = write_config(tmp_path, output=str(out), **SMALL_DATA, **keys)
        paths = [out, Path(str(out) + ".meta")]
        if command == "active":
            paths.append(tmp_path / "out_aulc.csv")
        assert main([command, "--config", config]) == EXIT_OK
        in_process = [path.read_bytes() for path in paths]
        for path in paths:
            path.unlink()
        result = run_module([command, "--config", config])
        assert result.returncode == EXIT_OK, result.stderr
        assert (result.stdout, result.stderr) == ("", "")
        assert [path.read_bytes() for path in paths] == in_process

    def test_utf8_inputs_with_a_byte_order_mark_give_the_same_bytes_in_any_locale(
        self, tmp_path
    ):
        # files are read and written as UTF-8; under the C locale without
        # UTF-8 mode the locale's own encoding is ASCII
        rows = ["0.5,1.0,oui", "1.5,2.0,non", "-0.3,0.1,oui", "2.2,-1.0,non",
                "0.9,0.4,oui", "1.1,2.5,non", "-1.2,0.0,oui", "0.0,1.7,non"]
        table = "\n".join(["\ufeffa,b,\u00e9tiquette", *rows, ""])
        (tmp_path / "table.csv").write_bytes(table.encode("utf-8"))
        keys = ["dataset = ../table.csv", "label_column = \u00e9tiquette",
                "positive_label = oui", "n_labeled = 4", "output = result.csv"]
        config = "\n".join(["\ufeff" + keys[0], *keys[1:], ""])
        (tmp_path / "run.cfg").write_bytes(config.encode("utf-8"))
        outputs = []
        for name, environment in (
            ("c", {"LC_ALL": "C", "PYTHONUTF8": "0"}),
            ("utf8", {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "0"}),
        ):
            (tmp_path / name).mkdir()
            result = run_python(
                ["-m", "drulearn.cli", "wasserstein", "--config", "../run.cfg"],
                environment,
                capture_output=True,
                cwd=tmp_path / name,
            )
            assert result.returncode == EXIT_OK, result.stderr
            outputs.append(
                [
                    (tmp_path / name / file).read_bytes()
                    for file in ("result.csv", "result.csv.meta")
                ]
            )
        assert outputs[0] == outputs[1]
        assert "label_column=\u00e9tiquette\n".encode("utf-8") in outputs[0][1]

    def test_usage_error_exits_one_with_its_message(self):
        result = run_module(["fit"])
        assert result.returncode == EXIT_USAGE
        assert "invalid choice: 'fit'" in result.stderr

    def test_infeasible_radius_exits_two_with_its_message(self, tmp_path):
        out = tmp_path / "inf.csv"
        config = write_config(tmp_path, output=str(out), **SMALL_DATA)
        result = run_module(["train-dru", "--config", config, "--eps", "0"])
        assert result.returncode == EXIT_INFEASIBLE
        assert result.stderr.startswith(
            "infeasible instance: transport radius too small"
        )
        assert not out.exists()

    def test_redirected_help_holds_the_full_text(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        path = tmp_path / "help.txt"
        with open(path, "w") as handle:
            result = run_python(["-m", "drulearn.cli", "--help"], stdout=handle)
        assert result.returncode == EXIT_OK
        assert path.read_text() == cli.build_parser().format_help()

    def test_help_into_a_closed_pipe_fails_as_the_interpreter_reports_it(self):
        # the write fails at the final flush; the normal exit then reports
        # it (exit 120) without a traceback from the entry point
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = run_python(
                ["-m", "drulearn.cli", "--help"],
                stdout=write_end,
                stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 120
        assert "BrokenPipeError" in result.stderr
        assert "Traceback" not in result.stderr

    def test_an_escaping_exception_prints_its_traceback_and_exits_one(self):
        script = (
            "import sys, drulearn.cli as cli\n"
            "def broken(argv):\n"
            "    raise KeyError('escaped')\n"
            "cli.main = broken\n"
            "cli.run()\n"
        )
        result = run_python(["-c", script], capture_output=True)
        assert result.returncode == 1
        assert "Traceback" in result.stderr
        assert result.stderr.rstrip().endswith("KeyError: 'escaped'")

    @pytest.mark.parametrize("collecting", [True, False])
    def test_import_hands_back_the_collector_as_it_found_it(self, collecting):
        script = (
            "import gc\n"
            f"{'gc.enable()' if collecting else 'gc.disable()'}\n"
            "import drulearn.cli\n"
            "print(gc.isenabled(), gc.get_freeze_count())\n"
        )
        result = run_python(["-c", script], capture_output=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [str(collecting), "0"]

    def test_a_failed_import_still_hands_back_the_collector(self):
        script = (
            "import gc, sys\n"
            "sys.modules['drulearn.oracle'] = None\n"
            "try:\n"
            "    import drulearn.cli\n"
            "except ImportError:\n"
            "    print(gc.isenabled(), gc.get_freeze_count())\n"
        )
        result = run_python(["-c", script], capture_output=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True", "0"]


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second of import time per invocation
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, drulearn.cli; print('scipy.stats' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_exit_code_constants_are_distinct():
    codes = {EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE, EXIT_NUMERICAL}
    assert codes == {0, 1, 2, 3}


def test_numpy_float_rendering_matches_python_floats():
    from drulearn.cli import _render_cell

    assert _render_cell(np.float64(0.25)) == "0.25"
    assert _render_cell(np.int64(3)) == "3"
    assert _render_cell(0.1 + 0.2) == "0.30000000000000004"
    assert _render_cell(True) == "1"
    assert _render_cell("converged") == "converged"
