"""In-memory spans around drulearn's public layer functions.

The package binds most layer functions into other modules at import time
(``from .oracle import min_feasible_radius`` in ``bounds`` and ``cli``), so a
wrapper installed only on the defining module would miss most calls.
``Tracer.install`` therefore replaces every attribute, in every loaded
``drulearn`` module, that is bound to the original function object, and
``Tracer.uninstall`` puts the originals back.

A span records (name, start, end, parent index) and optional counts taken
from the call's arguments and result.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# (defining module, function, span name); the public functions of ``data``
# share the single span name "data".
LAYER_FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("data", "load_csv", "data"),
    ("data", "synthetic_two_gaussians", "data"),
    ("data", "standardize", "data"),
    ("data", "append_intercept", "data"),
    ("data", "sample_split", "data"),
    ("model", "feature_distances", "model.feature_distances"),
    ("oracle", "min_feasible_radius", "oracle.min_feasible_radius"),
    ("oracle", "solve_worst_case_lp", "oracle.solve_worst_case_lp"),
    ("oracle", "discrete_wasserstein", "oracle.discrete_wasserstein"),
    ("simplex", "solve_lp", "simplex.solve_lp"),
    ("simplex", "solve_transportation", "simplex.solve_transportation"),
    ("dual", "sgd_solve", "dual.sgd_solve"),
    ("bounds", "prior_feasible_radius", "bounds.prior_feasible_radius"),
    ("bounds", "performance_bound", "bounds.performance_bound"),
    ("active", "select_next", "active.select_next"),
    ("active", "score_dr", "active.score_dr"),
    ("active", "erm_train_l2", "active.erm_train_l2"),
    ("baseline", "baseline_train", "baseline.baseline_train"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYER_FUNCTIONS))


def _lp_vars(args, kwargs, result):
    """Mass variables of one min-radius LP: support points x 2 labels x atoms."""
    data = args[0] if args else kwargs["data"]
    support = args[1] if len(args) > 1 else kwargs["support"]
    return {"lp_vars": len(support) * 2 * data.n}


def _sgd_counts(args, kwargs, result):
    """Steps from the solver's own log, which holds every ``trace_every``-th
    step plus the step that flagged infeasibility.

    A converged or ``max_steps`` run stops after a multiple of the
    convergence window, itself a multiple of ``trace_every`` at every
    configuration the CLI builds, so rounding the last logged step up to the
    next multiple of ``trace_every`` is exact there.
    """
    config = args[4] if len(args) > 4 else kwargs["config"]
    every = config.trace_every
    step, feasible = result.trace[-1][0], result.trace[-1][5]
    steps = step + 1 if not feasible else (step // every + 1) * every
    return {
        "steps": steps,
        "converged": int(result.status == "converged"),
        "infeasible": int(result.status == "infeasible"),
    }


COUNTERS = {
    "oracle.min_feasible_radius": _lp_vars,
    "dual.sgd_solve": _sgd_counts,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = math.nan
        self.parent = parent
        self.counts = {}

    def as_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            **self.counts,
        }


class Tracer:
    """Collects spans for one traced run; spans stay in memory until read."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []

    def _wrap(self, name, function):
        counter = COUNTERS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), parent)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every drulearn namespace that holds a layer function."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "drulearn" or name.startswith("drulearn.")
        ]
        for module_name, attribute, span_name in LAYER_FUNCTIONS:
            original = getattr(
                importlib.import_module(f"drulearn.{module_name}"), attribute
            )
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_totals(self):
        """Per span name: calls, inclusive seconds, self seconds, summed counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES
        }
        for span, children in zip(self.spans, child_time):
            entry = totals[span.name]
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - children
            for key, value in span.counts.items():
                entry[key] = entry.get(key, 0) + value
        return totals
