"""Command-line surface: one subcommand per training routine or experiment.

Every subcommand reads a flat config file, applies the targeted overrides
and runs deterministically from the configured seed.  Its ``_run_*``
returns a CSV header, rows, failed trials and any extra CSV files, and
`main` alone writes what a run leaves: the ``<output>.meta`` sidecar (the
resolved configuration) before the run, the CSV after it, the extra files
after that (`active`'s ``_aulc.csv``, only when some trial succeeded), and
one ``error_trial_*`` line in ``.meta`` per failed trial.  If no row
succeeded, the first failure sets the exit code; a failed one-shot run
writes no CSV.  The CSV layout is decided here: the library returns
numbers, and each subcommand builds its rows next to its header.

Exit codes: 0 success, 1 usage or configuration error, 2 infeasible
instance, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import os
import sys

# numpy, the compiled scipy modules `kernels` loads and the package build
# about 27k objects at import, and the collector would scan them again and
# again while they load; pause it for the imports and hand back the caller's
# setting, even when an import fails.
_GC_WAS_ENABLED = gc.isenabled()
gc.disable()
try:
    import numpy as np

    from .active import aulc, run_active_loop
    from .baseline import baseline_train, worst_case_price
    from .bounds import (
        certify,
        certify_sample_size,
        configured_prior,
        prior_feasible_radius,
        select_radius,
    )
    from .config import (
        UNLABELED_FULL,
        ConfigError,
        ExperimentConfig,
        config_items,
        load_config,
    )
    from .data import (
        append_intercept,
        load_csv,
        sample_split,
        standardize,
        synthetic_two_gaussians,
    )
    from .dual import cutset_solve, duality_gap_check
    from .model import (
        LabeledDataset,
        LabelPrior,
        TransportCost,
        confidence,
        make_rng,
        median,
    )
    from .oracle import (
        BUDGET_SLACK,
        InfeasibleRadiusError,
        discrete_wasserstein,
        min_feasible_radius,
    )
finally:
    # Move the imported objects straight to the oldest generation: left young,
    # all of them would be scanned by the first collection after this.  A
    # caller's own frozen objects stay frozen.
    if gc.get_freeze_count() == 0:
        gc.freeze()
        gc.unfreeze()
    if _GC_WAS_ENABLED:
        gc.enable()

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3

GAP_TOLERANCE = 1e-3

# the certificate columns of every `train-dru`, `bound` and `radius-sweep` row
BOUND_FIELDS = (
    "eps",
    "neg_log_bound",
    "correction",
    "likelihood_bound",
    "median_confidence",
    "vacuous_flag",
)


# ---------------------------------------------------------------------------
# Instance assembly


@dataclasses.dataclass(frozen=True, eq=False)
class Instance:
    """Everything one run needs: the split, the whole table it was drawn
    from (``full``, the reference sample), the prior, and the geometry."""

    labeled: LabeledDataset
    unlabeled: np.ndarray | None
    full: LabeledDataset
    prior: LabelPrior
    cost: TransportCost


def _load_table(config: ExperimentConfig) -> LabeledDataset:
    if config.dataset:
        table = load_csv(config.dataset, config.label_column, config.positive_label)
    else:
        table = synthetic_two_gaussians(
            config.synthetic_n,
            seed=config.seed,
            separation=config.synthetic_separation,
            noise=config.synthetic_noise,
        )
    if config.standardize:
        table = standardize(table)
    return append_intercept(table)


def _build_instance(
    config: ExperimentConfig,
    table: LabeledDataset,
    split_seed: int,
    n_labeled: int | None = None,
) -> Instance:
    n_labeled = config.n_labeled if n_labeled is None else n_labeled
    labeled, rest = sample_split(table, n_labeled, split_seed)
    source = table if config.unlabeled_mode == UNLABELED_FULL else rest
    unlabeled = None if source is None else source.features
    share = float(table.labels.mean())
    prior = configured_prior(config, labeled, config.prior_mode, share)
    cost = TransportCost(label_flip_cost=config.label_flip_cost)
    return Instance(labeled, unlabeled, table, prior, cost)


def _require_certifiable(config: ExperimentConfig, table: LabeledDataset, grid=()):
    """Reject, before any trial, a labeled size in force (`n_labeled`, or
    each `grid` entry) above the table size or leaving `bounds.certify`
    fewer unlabeled rows than `bounds.certify_sample_size` asks."""
    key = "n_labeled_grid" if grid else "n_labeled"
    needed = certify_sample_size(config.z_score)
    full = config.unlabeled_mode == UNLABELED_FULL
    for n_labeled in grid or (config.n_labeled,):
        if n_labeled > table.n:
            raise ConfigError(
                f"{key} must not exceed the table size {table.n}, got {n_labeled}"
            )
        rows = table.n if full else table.n - n_labeled
        if rows < needed:
            raise ConfigError(
                f"{key} = {n_labeled} on a table of {table.n} rows with "
                f"unlabeled_mode = {config.unlabeled_mode} leaves {rows} "
                f"unlabeled rows; certify needs at least {needed}"
            )


def _require_unlabeled(instance: Instance):
    if instance.unlabeled is None:
        raise ValueError(
            "the unlabeled remainder is empty; use unlabeled_mode=full or a "
            "smaller n_labeled"
        )
    return instance.unlabeled


def _resolve_eps(config: ExperimentConfig, instance: Instance) -> float:
    """Explicit radius if given, otherwise run the configured policy; warn on
    stderr when the confidence screen fell back to its smallest radius."""
    if config.eps is not None:
        return config.eps
    eps, fell_back = select_radius(
        config,
        instance.labeled,
        _require_unlabeled(instance),
        instance.prior,
        instance.cost,
        full=instance.full,
    )
    if fell_back:
        print(
            f"warning: no radius met confidence_threshold "
            f"{config.confidence_threshold}; using the smallest candidate "
            f"{eps}",
            file=sys.stderr,
        )
    return eps


def _median_confidence(theta, features) -> float:
    return median(confidence(theta, features))


# ---------------------------------------------------------------------------
# Output writing


def _render_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: str, fieldnames, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(fieldnames))
        for row in rows:
            writer.writerow([_render_cell(row[name]) for name in fieldnames])


def _write_metadata(config: ExperimentConfig, command: str, errors=()):
    items = config_items(config)
    items.append(("command", command))
    for trial, error in errors:
        items.append((f"error_trial_{trial}", str(error).replace("\n", " ")))
    items.sort(key=lambda pair: pair[0])
    with open(config.output + ".meta", "w", newline="") as handle:
        for key, value in items:
            handle.write(f"{key}={value}\n")


def _aulc_output_path(output: str) -> str:
    root, extension = os.path.splitext(output)
    return f"{root}_aulc{extension or '.csv'}"


# ---------------------------------------------------------------------------
# One-shot subcommands: one row, or the failure raised


def _theta_columns(theta):
    return {f"theta_{j}": float(value) for j, value in enumerate(theta)}


def _run_train_dru(config: ExperimentConfig):
    table = _load_table(config)
    _require_certifiable(config, table)
    instance = _build_instance(config, table, config.seed)
    eps = _resolve_eps(config, instance)
    result, report = _certify_instance(config, instance, eps)
    row = {
        "seed": config.seed,
        "n_labeled": instance.labeled.n,
        "status": result.status,
        "objective": report["neg_log_bound"],
        **report,
        **_theta_columns(result.theta),
    }
    return row, [row], [], {}


def _run_train_baseline(config: ExperimentConfig):
    instance = _build_instance(config, _load_table(config), config.seed)
    unlabeled = _require_unlabeled(instance)
    eps = _resolve_eps(config, instance)
    result = baseline_train(instance.labeled, eps, instance.cost)
    row = {
        "seed": config.seed,
        "n_labeled": instance.labeled.n,
        "eps": float(eps),
        "alpha": float(result.alpha),
        "worst_case_value": float(result.worst_case_value),
        "worst_case_likelihood": float(np.exp(-result.worst_case_value)),
        "median_confidence": _median_confidence(result.theta, unlabeled),
        **_theta_columns(result.theta),
    }
    return row, [row], [], {}


def _run_min_radius(config: ExperimentConfig):
    instance = _build_instance(config, _load_table(config), config.seed)
    unlabeled = _require_unlabeled(instance)
    eps_min = prior_feasible_radius(
        instance.labeled, unlabeled, instance.prior, instance.cost
    )
    row = {
        "seed": config.seed,
        "n_labeled": instance.labeled.n,
        "eps_min": float(eps_min),
        "eps_selected": float(eps_min + config.delta_margin),
    }
    return row, [row], [], {}


def _run_wasserstein(config: ExperimentConfig):
    instance = _build_instance(config, _load_table(config), config.seed)
    distance, _ = discrete_wasserstein(instance.labeled, instance.full, instance.cost)
    row = {
        "seed": config.seed,
        "n_labeled": instance.labeled.n,
        "distance": float(distance),
    }
    return row, [row], [], {}


# ---------------------------------------------------------------------------
# Multi-trial experiments: the rows that succeeded, and each failed trial


def _certify_instance(config: ExperimentConfig, instance: Instance, eps: float):
    """Train at `eps` and certify the trained classifier by the multiplier
    search; returns the `CutSetResult` and the certificate's `BOUND_FIELDS`
    columns.  Warns on stderr when `eps` is within `oracle.BUDGET_SLACK` of
    the minimal feasible radius, where the decision set has no interior."""
    unlabeled = _require_unlabeled(instance)
    result = cutset_solve(
        instance.labeled, unlabeled, instance.prior, instance.cost, eps
    )
    bound = certify(
        result.state,
        instance.labeled,
        unlabeled,
        instance.prior,
        eps,
        instance.cost,
        z_score=config.z_score,
    )
    eps_min = min_feasible_radius(
        instance.labeled, unlabeled, instance.prior, instance.cost
    )
    if eps - eps_min <= BUDGET_SLACK:
        print(
            f"warning: radius {eps} is on the minimal feasible radius "
            f"{eps_min}; the certificate is for the smallest decision set",
            file=sys.stderr,
        )
    report = {
        "eps": float(eps),
        "neg_log_bound": bound.neg_log_bound,
        "correction": bound.correction,
        "likelihood_bound": bound.likelihood_bound,
        "median_confidence": _median_confidence(result.theta, unlabeled),
        "vacuous_flag": int(bound.vacuous),
    }
    return result, report


def _run_bound_experiment(config: ExperimentConfig):
    table = _load_table(config)
    _require_certifiable(config, table, config.n_labeled_grid)
    grid = config.n_labeled_grid or (config.n_labeled,)
    rows, errors = [], []
    for n_labeled in grid:
        for trial in range(config.trials):
            split_seed = config.seed + trial
            try:
                instance = _build_instance(
                    config, table, split_seed, n_labeled=int(n_labeled)
                )
                eps = _resolve_eps(config, instance)
                _, report = _certify_instance(config, instance, eps)
            except Exception as error:  # noqa: BLE001 - recorded, run continues
                errors.append((f"{trial}_n_{n_labeled}", error))
                continue
            rows.append(
                {
                    "n_labeled": int(n_labeled),
                    "trial": trial,
                    "seed": split_seed,
                    **report,
                }
            )
    return ["n_labeled", "trial", "seed", *BOUND_FIELDS], rows, errors, {}


def _run_radius_sweep(config: ExperimentConfig):
    table = _load_table(config)
    if not config.eps_grid:
        raise ConfigError("a radius sweep requires a nonempty eps_grid")
    _require_certifiable(config, table)
    rows, errors = [], []
    for trial in range(config.trials):
        split_seed = config.seed + trial
        for eps in config.eps_grid:
            try:
                instance = _build_instance(config, table, split_seed)
                _, report = _certify_instance(config, instance, float(eps))
            except Exception as error:  # noqa: BLE001 - recorded, run continues
                errors.append((f"{trial}_eps_{float(eps)!r}", error))
                continue
            rows.append({"trial": trial, "seed": split_seed, **report})
    return ["trial", "seed", *BOUND_FIELDS], rows, errors, {}


def _run_robustness_sweep(config: ExperimentConfig):
    table = _load_table(config)
    if not config.eps_grid or not config.delta_grid:
        raise ConfigError(
            "a robustness sweep requires nonempty eps_grid and delta_grid"
        )
    rows, errors = [], []
    for trial in range(config.trials):
        split_seed = config.seed + trial
        try:
            instance = _build_instance(config, table, split_seed)
            data, cost = instance.labeled, instance.cost
            trial_rows = []
            for eps in map(float, config.eps_grid):
                theta = baseline_train(data, eps, cost).theta
                for delta in map(float, config.delta_grid):
                    # exp(-worst case): the per-sample likelihood of the model
                    # trained at eps over the ball of radius eps + delta; its
                    # log10 is taken from the worst case, as the likelihood
                    # underflows to 0 past a worst case of about 745
                    _, worst = worst_case_price(theta, data, eps + delta, cost)
                    trial_rows.append(
                        {
                            "trial": trial,
                            "seed": split_seed,
                            "eps": eps,
                            "delta": delta,
                            "worst_case_likelihood": float(np.exp(-worst)),
                            "log10_worst_case_likelihood": -worst / np.log(10),
                        }
                    )
        except Exception as error:  # noqa: BLE001 - recorded, run continues
            errors.append((str(trial), error))
            continue
        rows.extend(trial_rows)
    fieldnames = [
        "trial",
        "seed",
        "eps",
        "delta",
        "worst_case_likelihood",
        "log10_worst_case_likelihood",
    ]
    return fieldnames, rows, errors, {}


def _run_active(config: ExperimentConfig):
    # not a parse-time check: other subcommands accept n_labeled <= n_initial
    if config.stop_at == 0 and config.n_labeled <= config.n_initial:
        raise ConfigError("with stop_at = 0, n_labeled must exceed n_initial")
    table = _load_table(config)
    # the stop size always exceeds n_initial, so an oversized n_initial is
    # the one named
    stop_key = "stop_at" if config.stop_at else "n_labeled"
    stop = (stop_key, config.stop_at or config.n_labeled)
    for key, size in (("n_initial", config.n_initial), stop):
        if size > table.n:
            raise ConfigError(
                f"{key} must not exceed the table size {table.n}, got {size}"
            )
    cost = TransportCost(label_flip_cost=config.label_flip_cost)
    rows, errors = [], []
    aulc_values = []
    for trial in range(config.trials):
        trial_seed = config.seed + trial
        try:
            curve = run_active_loop(
                *sample_split(table, config.n_initial, trial_seed),
                config,
                eval_data=table,
                seed=trial_seed,
                cost=cost,
            )
            aulc_values.append(aulc(curve))
        except Exception as error:  # noqa: BLE001 - recorded, run continues
            errors.append((str(trial), error))
            continue
        rows.extend(
            {
                "seed": trial_seed,
                "strategy": config.strategy,
                "trial": trial,
                "n_labeled": int(n),
                "likelihood": float(value),
            }
            for n, value in curve
        )
    extra = {}
    if aulc_values:
        row = {
            "strategy": config.strategy,
            "median_aulc": median(aulc_values),
        }
        extra[_aulc_output_path(config.output)] = (row, [row])
    return ["seed", "strategy", "trial", "n_labeled", "likelihood"], rows, errors, extra


def _oracle_instance(seed: int):
    """Small random labeled/unlabeled instance with a feasible radius."""
    rng = make_rng(seed)
    dim = int(rng.integers(1, 4))
    n_labeled = int(rng.integers(1, 4))
    n_unlabeled = int(rng.integers(2, 6))
    labeled = LabeledDataset(
        np.round(rng.normal(size=(n_labeled, dim)), 3),
        rng.integers(0, 2, size=n_labeled),
    )
    unlabeled_features = np.round(rng.normal(size=(n_unlabeled, dim)), 3)
    if rng.integers(0, 2) == 0:
        share = float(rng.uniform(0.2, 0.8))
        prior = LabelPrior.point((1 - share, share))
    else:
        lower = rng.uniform(0.0, 0.3, size=2)
        upper = np.minimum(1.0, lower + rng.uniform(0.5, 0.9, size=2))
        prior = LabelPrior(lower=lower, upper=upper)
    theta = rng.normal(scale=0.7, size=dim)
    return labeled, unlabeled_features, prior, theta


def _run_oracle_check(config: ExperimentConfig):
    cost = TransportCost(label_flip_cost=config.label_flip_cost)
    rows, errors = [], []
    for index in range(config.trials):
        seed = config.seed + index
        try:
            labeled, support, prior, theta = _oracle_instance(seed)
            eps = min_feasible_radius(labeled, support, prior, cost) + 0.1
            report = duality_gap_check(theta, labeled, support, prior, eps, cost)
        except Exception as error:  # noqa: BLE001 - recorded, run continues
            errors.append((str(index), error))
            continue
        tolerance = GAP_TOLERANCE * (1.0 + abs(report.primal))
        rows.append(
            {
                "instance": index,
                "seed": seed,
                "primal": float(report.primal),
                "dual": float(report.dual),
                "gap": float(report.gap),
                "within_tol": int(abs(report.gap) <= tolerance),
            }
        )
    return ["instance", "seed", "primal", "dual", "gap", "within_tol"], rows, errors, {}


# ---------------------------------------------------------------------------
# Argument parsing and dispatch

# each runner returns its CSV header, its rows, its failed trials as
# (label, error) pairs and any extra CSV files as {path: (header, rows)};
# `main` writes them
_SUBCOMMANDS = {
    "train-dru": _run_train_dru,
    "train-baseline": _run_train_baseline,
    "bound": _run_bound_experiment,
    "min-radius": _run_min_radius,
    "wasserstein": _run_wasserstein,
    "radius-sweep": _run_radius_sweep,
    "robustness-sweep": _run_robustness_sweep,
    "active": _run_active,
    "oracle-check": _run_oracle_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drulearn",
        description=(
            "Distributionally robust learning with unlabeled data: training, "
            "certification, and experiment sweeps."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        sub = subparsers.add_parser(name, help=f"run the {name} routine")
        sub.add_argument("--config", required=True, help="path to a key=value config file")
        sub.add_argument("--eps", type=float, default=None, help="override the transport radius")
        sub.add_argument("--seed", type=int, default=None, help="override the base seed")
        sub.add_argument("--n-labeled", type=int, default=None, help="override the labeled sample size")
        sub.add_argument("--strategy", default=None, help="override the acquisition strategy")
        sub.add_argument("--output", default=None, help="override the output CSV path")
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.eps is not None:
        updates["eps"] = args.eps
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.n_labeled is not None:
        updates["n_labeled"] = args.n_labeled
    if args.strategy is not None:
        updates["strategy"] = args.strategy
    if args.output is not None:
        updates["output"] = args.output
    return dataclasses.replace(config, **updates) if updates else config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        code = exit_request.code or 0
        return EXIT_OK if code == 0 else EXIT_USAGE
    try:
        config = _apply_overrides(load_config(args.config), args)
        if os.path.isdir(config.output):
            raise ConfigError(
                f"output must name a file, got the directory {config.output}"
            )
        _write_metadata(config, args.command)
        fieldnames, rows, errors, extra = _SUBCOMMANDS[args.command](config)
        _write_csv(config.output, fieldnames, rows)
        for path, (extra_fieldnames, extra_rows) in extra.items():
            _write_csv(path, extra_fieldnames, extra_rows)
        if errors:
            _write_metadata(config, args.command, errors)
            if not rows:
                raise errors[0][1]
        return EXIT_OK
    except InfeasibleRadiusError as error:
        print(f"infeasible instance: {error}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (np.linalg.LinAlgError, ArithmeticError, RuntimeError) as error:
        print(f"numerical failure: {error}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Process entry point (`python -m drulearn.cli`, the `drulearn` script):
    run `main` on the command line and end the process with its exit code.

    The imported modules live until the process ends, so `gc.freeze` takes
    them out of every later collection, and `os._exit` skips the
    interpreter's module-by-module teardown once the output streams are
    flushed; `main` closes every file it writes before it returns.  An
    exception that escapes `main` propagates as usual: traceback, exit 1.
    """
    gc.freeze()
    code = main(sys.argv[1:])
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        # a closed pipe: the normal exit reports the lost output, as always
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
