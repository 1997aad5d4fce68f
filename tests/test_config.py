"""Tests for the flat key=value experiment configuration format."""

import dataclasses
import re
from pathlib import Path

import pytest

from drulearn.config import (
    AS_ROBUST_AS_POSSIBLE,
    FRACTION_OF_TRUE_DISTANCE,
    MIN_RADIUS_PLUS_DELTA,
    PRIOR_STRONG,
    ConfigError,
    ExperimentConfig,
    config_items,
    load_config,
    parse_config_text,
    render_value,
)


class TestParsing:
    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == ExperimentConfig()

    def test_comments_and_blank_lines_are_skipped(self):
        config = parse_config_text("# a comment\n\n  \nseed = 7\n# another\n")
        assert config.seed == 7

    def test_typed_values(self):
        config = parse_config_text(
            "\n".join(
                [
                    "seed = 12",
                    "delta_margin = 0.25",
                    "standardize = no",
                    "mc_include_norm = 1",
                    "eps = 0.75",
                    "dataset = data/some file.csv",
                    "eps_grid = 0.1, 0.5 ,2.0",
                    "n_labeled_grid = 5,10,20",
                    "prior_positive_share = none",
                ]
            )
        )
        assert config.seed == 12
        assert config.delta_margin == 0.25
        assert config.standardize is False
        assert config.mc_include_norm is True
        assert config.eps == 0.75
        assert config.dataset == "data/some file.csv"
        assert config.eps_grid == (0.1, 0.5, 2.0)
        assert config.n_labeled_grid == (5, 10, 20)
        assert config.prior_positive_share is None

    def test_every_boolean_spelling(self):
        for raw in ("false", "0", "no", "off"):
            assert parse_config_text(f"standardize = {raw}\n").standardize is False
        for raw in ("true", "1", "yes", "on"):
            assert parse_config_text(f"mc_include_norm = {raw}\n").mc_include_norm is True

    def test_empty_optional_and_empty_tuple(self):
        config = parse_config_text("eps =\nn_labeled_grid =\n")
        assert config.eps is None
        assert config.n_labeled_grid == ()

    def test_value_may_contain_equals_sign(self):
        config = parse_config_text("output = dir=weird/results.csv\n")
        assert config.output == "dir=weird/results.csv"

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown key 'sede'"):
            parse_config_text("sede = 3\n")

    def test_duplicate_key_is_an_error(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_line_without_equals_is_an_error(self):
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_config_text("just some words\n")

    def test_bad_value_names_the_key(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("seed = soon\n")
        with pytest.raises(ConfigError, match="mc_include_norm"):
            parse_config_text("mc_include_norm = maybe\n")
        with pytest.raises(ConfigError, match="eps_grid"):
            parse_config_text("eps_grid = 0.1,often\n")

    def test_retired_solver_keys_are_unknown(self):
        # no command runs the stochastic dual solver, so no key tunes it,
        # and every certificate row comes from a trained model; the
        # subcommand alone names what a run reports, so `kind` is gone too
        for key in (
            "step_size",
            "batch_size",
            "max_steps",
            "convergence_tol",
            "convergence_window",
            "lr_decay_factor",
            "lr_decay_every",
            "use_adam",
            "tail_average",
            "solver_seed",
            "force_zero_state",
            "kind",
        ):
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config_text(f"{key} = 1\n")

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 5\ntrials = 3\n")
        config = load_config(str(path))
        assert (config.seed, config.trials) == (5, 3)

    def test_load_config_drops_a_byte_order_mark(self, tmp_path):
        # an editor that saves "UTF-8 with BOM" puts U+FEFF before the first key
        path = tmp_path / "run.cfg"
        path.write_bytes(
            "\ufeffsynthetic_n = 30\nlabel_column = \u00e9tiquette\n".encode("utf-8")
        )
        config = load_config(str(path))
        assert (config.synthetic_n, config.label_column) == (30, "\u00e9tiquette")


class TestValidation:
    def test_trials_must_be_positive(self):
        with pytest.raises(ConfigError, match="trials"):
            ExperimentConfig(trials=0)

    def test_mode_fields_are_validated(self):
        with pytest.raises(ConfigError, match="prior_mode"):
            ExperimentConfig(prior_mode="medium")
        with pytest.raises(ConfigError, match="unlabeled_mode"):
            ExperimentConfig(unlabeled_mode="half")
        with pytest.raises(ConfigError, match="eps_policy"):
            ExperimentConfig(eps_policy="biggest")
        with pytest.raises(ConfigError, match="strategy"):
            ExperimentConfig(strategy="psychic")

    def test_counts_and_radius_are_validated(self):
        with pytest.raises(ConfigError, match="n_labeled"):
            ExperimentConfig(n_labeled=0)
        with pytest.raises(ConfigError, match="n_labeled"):
            ExperimentConfig(n_initial=0)
        with pytest.raises(ConfigError, match="eps"):
            ExperimentConfig(eps=-0.5)
        with pytest.raises(ConfigError, match="synthetic_n"):
            ExperimentConfig(synthetic_n=1)
        with pytest.raises(ConfigError, match="label_flip_cost"):
            ExperimentConfig(label_flip_cost=0.0)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "Infinity"])
    def test_every_float_key_must_be_finite(self, raw):
        float_keys = [
            field.name
            for field in dataclasses.fields(ExperimentConfig)
            if field.type in ("float", "float | None")
        ]
        assert "eps" in float_keys and "label_flip_cost" in float_keys
        for key in float_keys:
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                parse_config_text(f"{key} = {raw}\n")

    @pytest.mark.parametrize("key", ["eps_grid", "delta_grid"])
    def test_every_grid_entry_must_be_finite(self, key):
        for raw in ("0.1,nan", "inf", "0.0,0.5,-inf"):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                parse_config_text(f"{key} = {raw}\n")

    def test_z_score_must_be_nonnegative(self):
        with pytest.raises(ConfigError, match="z_score must be nonnegative"):
            parse_config_text("z_score = -0.5\n")
        assert ExperimentConfig(z_score=0.0).z_score == 0.0

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("delta_margin", "-5", "delta_margin must be positive"),
            ("delta_margin", "0", "delta_margin must be positive"),
            ("confidence_threshold", "1.0", "confidence_threshold must lie"),
            ("confidence_threshold", "0", "confidence_threshold must lie"),
            ("fraction", "-0.1", "fraction must be nonnegative"),
            ("grid_points", "0", "grid_points must be positive"),
            ("grid_span", "0", "grid_span must be positive"),
        ],
    )
    def test_radius_policy_keys_are_validated_whatever_the_policy(
        self, key, raw, message
    ):
        # checked when the config is built, not when a subcommand first runs
        # the policy: some never do, and an explicit eps bypasses it
        for extra in ("", "eps = 0.5\n"):
            with pytest.raises(ConfigError, match=message):
                parse_config_text(f"{extra}{key} = {raw}\n")

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("eps_grid", "-1,0.5", "eps_grid entries must be nonnegative"),
            ("delta_grid", "0.1,-0.05", "delta_grid entries must be nonnegative"),
            ("n_labeled_grid", "0,5", "n_labeled_grid entries must be at least 1"),
            ("n_labeled_grid", "40,40", "n_labeled_grid entries must be distinct"),
            ("eps_grid", "0.001,0.001,0.5", "eps_grid entries must be distinct"),
            ("delta_grid", "0,0.1,0", "delta_grid entries must be distinct"),
            ("prior_level", "0", "prior_level must lie strictly between"),
            ("prior_level", "1.0", "prior_level must lie strictly between"),
            ("prior_positive_share", "-0.1", r"prior_positive_share must lie in \[0, 1\]"),
            ("prior_positive_share", "1.5", r"prior_positive_share must lie in \[0, 1\]"),
            ("candidate_subsample", "0", "candidate_subsample must be at least 1"),
            ("ridge_gamma", "-1e-3", "ridge_gamma must be nonnegative"),
            ("stop_at", "-3", "stop_at must be nonnegative"),
            ("stop_at", "1", "stop_at must exceed n_initial"),
            ("stop_at", "2", "stop_at must exceed n_initial"),
            ("output", "", "output must name a file"),
            ("seed", "-1", "seed must be nonnegative"),
        ],
    )
    def test_out_of_range_keys_stop_at_parse_time(self, key, raw, message):
        # each of these parsed before and failed once per trial, later
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"{key} = {raw}\n")

    def test_range_edges_parse(self):
        config = parse_config_text(
            "eps_grid = 0\ndelta_grid = 0\nn_labeled_grid = 1\n"
            "prior_positive_share = 1\ncandidate_subsample = 1\nridge_gamma = 0\n"
            "stop_at = 3\n"
        )
        assert config.eps_grid == (0.0,) and config.n_labeled_grid == (1,)
        assert config.prior_positive_share == 1.0 and config.ridge_gamma == 0.0
        assert config.stop_at == 3

    @pytest.mark.parametrize("span", ["20", "10"])
    def test_robust_screen_needs_grid_span_above_delta_margin(self, span):
        # the screen's grid would otherwise run downward, from base +
        # delta_margin to base + grid_span; other policies never build it
        text = f"delta_margin = 20\ngrid_span = {span}\n"
        with pytest.raises(ConfigError, match="grid_span must exceed delta_margin"):
            parse_config_text(f"eps_policy = {AS_ROBUST_AS_POSSIBLE}\n{text}")
        for policy in (MIN_RADIUS_PLUS_DELTA, FRACTION_OF_TRUE_DISTANCE):
            config = parse_config_text(f"eps_policy = {policy}\n{text}")
            assert config.grid_span == float(span)
        config = parse_config_text(
            f"eps_policy = {AS_ROBUST_AS_POSSIBLE}\ndelta_margin = 9.5\n"
            f"grid_span = {span}\n"
        )
        assert config.grid_span == float(span)

    def test_rejects_unknown_policy_and_bad_fields(self):
        # an unknown policy, and each policy key out of range under a policy
        # that reads it
        for keys, message in (
            ({"eps_policy": "largest"}, "unknown eps_policy 'largest'"),
            (
                {"eps_policy": MIN_RADIUS_PLUS_DELTA, "delta_margin": 0.0},
                "delta_margin must be positive",
            ),
            (
                {"eps_policy": AS_ROBUST_AS_POSSIBLE, "confidence_threshold": 1.0},
                r"confidence_threshold must lie in \(0, 1\)",
            ),
            (
                {"eps_policy": FRACTION_OF_TRUE_DISTANCE, "fraction": -1.0},
                "fraction must be nonnegative",
            ),
            (
                {"eps_policy": AS_ROBUST_AS_POSSIBLE, "grid_points": 0},
                "grid_points must be positive",
            ),
            (
                {"eps_policy": AS_ROBUST_AS_POSSIBLE, "grid_span": 0.0},
                "grid_span must be positive",
            ),
        ):
            with pytest.raises(ConfigError, match=message):
                ExperimentConfig(**keys)

    def test_overrides_are_checked_for_finiteness(self):
        # the CLI applies --eps and friends through dataclasses.replace
        with pytest.raises(ConfigError, match="eps must be finite, got nan"):
            dataclasses.replace(ExperimentConfig(), eps=float("nan"))
        with pytest.raises(ConfigError, match="label_flip_cost must be finite"):
            ExperimentConfig(label_flip_cost=float("nan"))


class TestRendering:
    def test_render_value_round_trips_through_the_parser(self):
        config = ExperimentConfig(
            seed=4,
            eps=0.30000000000000004,
            mc_include_norm=True,
            eps_grid=(0.1, 0.25),
            n_labeled_grid=(5, 9),
            prior_mode=PRIOR_STRONG,
            prior_positive_share=0.6,
        )
        text = "\n".join(
            f"{key}={value}" for key, value in config_items(config)
        )
        assert parse_config_text(text) == config

    def test_config_items_are_sorted_and_complete(self):
        items = config_items(ExperimentConfig())
        keys = [key for key, _ in items]
        assert keys == sorted(keys)
        assert len(keys) == len(dataclasses.fields(ExperimentConfig))

    def test_render_value_forms(self):
        assert render_value(None) == ""
        assert render_value(True) == "true"
        assert render_value(False) == "false"
        assert render_value((0.1, 2.0)) == "0.1,2.0"
        assert render_value(0.1 + 0.2) == "0.30000000000000004"
        assert render_value("results.csv") == "results.csv"


class TestReadme:
    def test_config_format_section_names_exactly_the_config_fields(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index("### Config format")
        section = readme[start : readme.index("\n## ", start)]
        fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
        documented = set(re.findall(r"`(\w+)`\s*\(", section))
        assert documented - fields == set()
        assert [name for name in sorted(fields) if f"`{name}`" not in section] == []
