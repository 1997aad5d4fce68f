"""Every function in `src/drulearn/` runs under some subcommand.

A fixed set of small configs goes through `cli.main` in process, under
`sys.setprofile`, which records each Python function entered.  The set
covers every subcommand, both priors, all three radius policies, all six
acquisition strategies (with ``mc_include_norm``) and a CSV with a
categorical column, standardized and not.  A package function that none of
them enters is dead code or code the CLI cannot reach, so the test fails on
it unless `EXEMPT` names it with the reason; it fails too on an `EXEMPT`
entry that runs after all or names no function, so the list cannot go
stale.
"""

import inspect
import sys
from pathlib import Path

from drulearn import cli, oracle
from drulearn.config import STRATEGY_KINDS, render_value

PACKAGE = Path(cli.__file__).resolve().parent

_BENCHMARK_TRACER = (
    "the benchmark's tracer wraps dual.sgd_solve and simplex.solve_lp by "
    "name; ROADMAP items 2 and 3 drop the spans, then the code"
)
EXEMPT = {
    "dual.SolverConfig.__post_init__": _BENCHMARK_TRACER,
    "dual.learning_rate": _BENCHMARK_TRACER,
    "dual.descent_update": _BENCHMARK_TRACER,
    "dual.sgd_solve": _BENCHMARK_TRACER,
    "simplex.solve_lp": _BENCHMARK_TRACER,
    "kernels.scipy_extension": "runs once, when the package is imported",
    "kernels.scipy_extension.<locals>.entries": "runs once, at import",
    "cli.run": "the process entry point; tests call cli.main",
    "kernels.SlsqpResult.message": "read only when a solve fails",
    "oracle.PayoffLp.n_columns": (
        "read only by tests; ROADMAP item 10's run telemetry reports it"
    ),
}

CATEGORICAL_CSV = """a,color,y,b
0.5,red,yes,1.0
1.5,blue,no,2.0
-0.3,red,yes,0.1
2.2,green,no,-1.0
0.9,blue,yes,0.4
1.1,green,no,2.5
-1.2,red,yes,0.0
0.0,blue,no,1.7
3.1,green,yes,-0.6
0.4,red,no,0.9
"""

SMALL = {"synthetic_n": 24, "n_labeled": 6}
RUNS = (
    ("train-dru", SMALL),
    (
        "train-baseline",
        {
            **SMALL,
            "prior_mode": "strong",
            "eps_policy": "as-robust-as-possible",
            "grid_points": 2,
        },
    ),
    (
        "bound",
        {
            "dataset": "table.csv",
            "label_column": "y",
            "positive_label": "yes",
            "n_labeled_grid": (4,),
            "prior_mode": "strong",
            "eps_policy": "fraction-of-true-distance",
        },
    ),
    ("min-radius", SMALL),
    ("wasserstein", SMALL),
    (
        "wasserstein",
        {
            "dataset": "table.csv",
            "label_column": "y",
            "positive_label": "yes",
            "n_labeled": 4,
            "standardize": False,
        },
    ),
    ("radius-sweep", {**SMALL, "eps_grid": (1.0,)}),
    ("robustness-sweep", {**SMALL, "eps_grid": (0.5,), "delta_grid": (0.0, 0.1)}),
    ("oracle-check", {"trials": 2}),
    *(
        (
            "active",
            {
                "synthetic_n": 20,
                "strategy": strategy,
                "mc_include_norm": True,
                "n_initial": 3,
                "stop_at": 5,
                "candidate_subsample": 4,
            },
        )
        for strategy in STRATEGY_KINDS
    ),
)


def package_functions():
    """{(file, first line, qualified name): "module.qualname"} for every
    ``def`` in the package, read from the compiled source."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        pending = [compile(path.read_text(), str(path), "exec")]
        while pending:
            code = pending.pop()
            pending.extend(c for c in code.co_consts if inspect.iscode(c))
            named = not code.co_name.startswith("<")  # no lambda or genexpr
            if named and code.co_flags & inspect.CO_NEWLOCALS:
                key = (str(path), code.co_firstlineno, code.co_qualname)
                found[key] = f"{path.stem}.{code.co_qualname}"
    return found


def entered_functions(tmp_path):
    """The (file, first line, qualified name) of every Python function that
    `RUNS` enter."""
    (tmp_path / "table.csv").write_text(CATEGORICAL_CSV)
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    # a coupling kept from an earlier test would skip the transport solvers
    oracle._solve_coupling.cache_clear()
    for index, (command, keys) in enumerate(RUNS):
        config = tmp_path / f"run{index}.cfg"
        lines = [f"{key} = {render_value(value)}" for key, value in keys.items()]
        lines.append(f"output = {tmp_path / f'run{index}.csv'}")
        config.write_text("\n".join(lines) + "\n")
        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            code = cli.main([command, "--config", str(config)])
        finally:
            sys.setprofile(previous)
        assert code == cli.EXIT_OK, (command, keys)
    return {(str(Path(f).resolve()), line, name) for f, line, name in entered}


def test_every_package_function_runs_under_some_subcommand(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    functions = package_functions()
    entered = entered_functions(tmp_path)
    never = {name for key, name in functions.items() if key not in entered}
    assert sorted(never - EXEMPT.keys()) == []
    assert sorted(EXEMPT.keys() - never) == []
