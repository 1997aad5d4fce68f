"""The benchmark's tracer wraps package functions by name, and its
workloads run CLI subcommands on generated configs: every name it lists must
still resolve and every config must still parse, or every benchmark run of
that workload crashes."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from drulearn import active, bounds, cli, oracle
from drulearn.config import parse_config_text
from reference import flat_smoothed_bound, on_layout

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
