"""The benchmark's tracer wraps package functions by name, and its
workloads run CLI subcommands on generated configs: every name it lists must
still resolve and every config must still parse, or every benchmark run of
that workload crashes."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from drulearn import active, bounds, cli, oracle, simplex
from drulearn.config import parse_config_text
from reference import (
    AllCostsModel,
    flat_smoothed_bound,
    full_row_entering,
    model_solve_bits,
    on_layout,
    payoff_solve_bits,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    """Execute `bench/<name>.py` as the module `bench_<name>`, read-only.

    It is registered in `sys.modules` first, as an import would do, because
    its dataclasses resolve their annotations through it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def layer_functions():
    return load_bench_module("tracing").LAYER_FUNCTIONS


def test_every_traced_layer_function_resolves():
    for module, attribute, _ in layer_functions():
        function = getattr(importlib.import_module(f"drulearn.{module}"), attribute)
        assert callable(function), f"drulearn.{module}.{attribute}"


def test_min_feasible_radius_keeps_data_and_support_first():
    # the tracer's `_lp_vars` counter reads `args[0].n` and `len(args[1])`
    parameters = list(inspect.signature(oracle.min_feasible_radius).parameters)
    assert parameters[:2] == ["data", "support"]


def test_every_workload_config_parses_for_a_known_subcommand():
    # a key the config no longer accepts fails here, not in the benchmark
    for name, workload in load_bench_module("workloads").WORKLOADS.items():
        assert workload.subcommand in cli._SUBCOMMANDS, name
        parse_config_text(workload.config_text())


def test_active_dr_workload_scores_every_candidate_through_score_dr(
    tmp_path, monkeypatch
):
    # the workload is described as timing `active.score_dr`; a run that
    # priced its candidates some other way would leave that span empty
    workload = load_bench_module("workloads").WORKLOADS["active_dr"]
    config = parse_config_text(workload.config_text())
    calls = []
    score_dr = active.score_dr

    def counted(*args, **kwargs):
        calls.append(None)
        return score_dr(*args, **kwargs)

    monkeypatch.setattr(active, "score_dr", counted)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "active_dr.cfg").write_text(workload.config_text())
    assert cli.main([workload.subcommand, "--config", "active_dr.cfg"]) == 0
    expected = (
        config.trials
        * (config.stop_at - config.n_initial)
        * config.candidate_subsample
    )
    assert len(calls) == expected == 24


def test_bound_workloads_certify_bitwise_as_under_the_flat_reference_kernel(
    tmp_path, monkeypatch
):
    # the certificate search's layout kernel is timed by the bound workloads
    # as a saving at unchanged output: their CSVs are those the flat
    # reference kernel gives, after the same number of kernel evaluations
    workloads = load_bench_module("workloads").WORKLOADS
    kernel = bounds._smoothed_bound
    monkeypatch.chdir(tmp_path)
    for name in ("bound_strong", "bound_weak"):
        workload = workloads[name]
        (tmp_path / f"{name}.cfg").write_text(workload.config_text())
        runs = []
        for chosen in (kernel, on_layout(flat_smoothed_bound)):
            calls = []

            def counted(*args, chosen=chosen, calls=calls):
                calls.append(None)
                return chosen(*args)

            monkeypatch.setattr(bounds, "_smoothed_bound", counted)
            assert cli.main([workload.subcommand, "--config", f"{name}.cfg"]) == 0
            outputs = [(tmp_path / output).read_bytes() for output in workload.outputs]
            runs.append((len(calls), outputs))
        assert runs[0][0] > 0, name
        assert runs[0] == runs[1], name


def test_payoff_workloads_solve_as_under_every_row_sorted_and_every_cost_sent(
    tmp_path, monkeypatch
):
    # the worst-case LPs of the workloads that solve them sort only the
    # pricing rows that can enter and send HiGHS only the changed costs;
    # replayed with every row sorted (`full_row_entering`) and every cost
    # sent (`AllCostsModel`), each round must enter the same columns, each
    # solve give the same bits and pivots, and each run the same outputs
    workloads = load_bench_module("workloads").WORKLOADS
    monkeypatch.chdir(tmp_path)
    solve, model_solve = oracle.PayoffLp.solve, simplex.HighsModel.solve
    for name in ("bound_strong", "bound_weak", "active_dr"):
        workload = workloads[name]
        (tmp_path / f"{name}.cfg").write_text(workload.config_text())
        runs = []
        for entering, model_class in (
            (oracle._entering_columns, simplex.HighsModel),
            (full_row_entering, AllCostsModel),
        ):
            rounds, solves, model_solves = [], [], []
            # solve the kept transport couplings again, as the first run did
            oracle._solve_coupling.cache_clear()

            def priced(reduced, entering=entering, rounds=rounds):
                columns = entering(reduced)
                rounds.append(columns.tolist())
                return columns

            def recorded(model, payoff, solves=solves):
                result = solve(model, payoff)
                solves.append(payoff_solve_bits(model, result))
                return result

            def model_recorded(model, model_solves=model_solves):
                result = model_solve(model)
                model_solves.append(model_solve_bits(result))
                return result

            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_entering_columns", priced)
                patch.setattr(oracle, "HighsModel", model_class)
                patch.setattr(oracle.PayoffLp, "solve", recorded)
                patch.setattr(simplex.HighsModel, "solve", model_recorded)
                assert cli.main([workload.subcommand, "--config", f"{name}.cfg"]) == 0
            outputs = [(tmp_path / output).read_bytes() for output in workload.outputs]
            runs.append((rounds, solves, model_solves, outputs))
        assert any(runs[0][0]), name
        assert len(runs[0][1]) > 1, name
        assert runs[0] == runs[1], name
