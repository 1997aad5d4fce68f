"""The benchmark's tracer wraps package functions by name: every name it
lists must still resolve, or every traced benchmark run crashes."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from drulearn import oracle

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def layer_functions():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYER_FUNCTIONS


def test_every_traced_layer_function_resolves():
    for module, attribute, _ in layer_functions():
        function = getattr(importlib.import_module(f"drulearn.{module}"), attribute)
        assert callable(function), f"drulearn.{module}.{attribute}"


def test_min_feasible_radius_keeps_data_and_support_first():
    # the tracer's `_lp_vars` counter reads `args[0].n` and `len(args[1])`
    parameters = list(inspect.signature(oracle.min_feasible_radius).parameters)
    assert parameters[:2] == ["data", "support"]
