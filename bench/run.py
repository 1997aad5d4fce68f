"""drulearn benchmark: run one workload through the real CLI and report metrics.

Usage (from the repository root):

    python3 bench/run.py --workload bound_weak --seed 1 --seconds 5 --trace 0

With ``--trace 0`` the workload's CLI invocation (``python -m drulearn.cli
<subcommand> --config <generated file>`` with ``PYTHONPATH=src``) is timed
and repeated while the run is shorter than ``--seconds``, after three
``--help`` invocations that time interpreter start plus the full import.
Times are CPU times measured against reference work on the same core
(``speed.py``); the raw wall times are printed beside them.
With ``--trace 1`` the workload runs once untraced and once through
``traced_child.py``, which calls ``drulearn.cli.main`` under
``tracing.Tracer``; the per-layer numbers come from its spans.

Every output is checked: exit code 0, the expected row count, no
``error_trial_*`` key in the ``.meta`` sidecar, and byte-identical outputs
across the repetitions of one run, between the traced and untraced runs, and
across runs of the same code in one checkout.  A failed check counts the
repetition's rows as failed.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
from tracing import SPAN_NAMES
from workloads import WORKLOADS, read_rows

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# One BLAS thread per process, and the harness and its one CLI child pinned to
# one core (see speed.py): never more threads compute than there are cores.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def remaining(self):
        return max(self.end - time.monotonic(), 1.0)


CLI = ["-m", "drulearn.cli"]


@dataclasses.dataclass(frozen=True)
class Repetition:
    """One probed child run; ``step_s`` is the reference step's CPU time."""

    wall_s: float
    cpu_s: float
    step_s: float
    rss_mb: float

    @property
    def ksteps(self):
        return self.cpu_s / self.step_s / 1000.0


def run_child(program, cwd, deadline, probe):
    """Run ``python <program>`` once while ``probe`` bursts between polls.

    Returns (wall s, CPU s, exit code, peak RSS MB).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, *program], cwd=cwd, env=env, stdout=out, stderr=err
        )
        killer = threading.Timer(deadline.remaining(), child.kill)
        killer.start()
        try:
            while True:
                pid, status, usage = os.wait4(child.pid, os.WNOHANG)
                if pid:
                    break
                time.sleep(speed.INTERVAL_S)
                probe.burst()
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, child.returncode, usage.ru_maxrss / 1024.0


def output_digest(workload, directory):
    digest = hashlib.sha256()
    for name in workload.outputs:
        digest.update((directory / name).read_bytes())
    return digest.hexdigest()


def code_key(workload):
    """Identify the program and the workload's input, to compare runs by."""
    digest = hashlib.sha256(workload.subcommand.encode())
    digest.update(workload.config_text().encode())
    for path in sorted((SRC / "drulearn").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_outputs(workload, directory, exit_code):
    """Return (quality figures or None, digest or None, failure message or None)."""
    if exit_code != 0:
        return None, None, f"exit code {exit_code}"
    try:
        rows = read_rows(directory / workload.outputs[0])
        meta = (directory / workload.outputs[1]).read_text()
        errors = [line for line in meta.splitlines() if line.startswith("error_trial_")]
        if errors:
            return None, None, f"{len(errors)} failed trials: {errors[0]}"
        if len(rows) != workload.rows:
            return None, None, f"{len(rows)} rows, expected {workload.rows}"
        quality = workload.quality(rows, directory)
        return quality, output_digest(workload, directory), None
    except (OSError, ValueError, KeyError) as error:
        return None, None, f"unreadable output: {error}"


class Ledger:
    """Rows attempted and failed, and one reference digest to match."""

    def __init__(self, workload, reference=None):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.quality = None

    def record(self, label, directory, exit_code):
        self.attempted += self.workload.rows
        quality, digest, problem = check_outputs(self.workload, directory, exit_code)
        if problem is None and self.reference not in (None, digest):
            problem = "outputs differ from an earlier repetition"
        if problem is not None:
            self.failed += self.workload.rows
            print(f"# {label}: FAILED: {problem}", file=sys.stderr)
            return
        self.reference = digest
        self.quality = self.quality or quality


def measure_setup(workdir, deadline):
    """Time ``--help`` (interpreter start plus the full import) a few times.

    Returns the medians of the raw wall time and of the CPU time rescaled to
    the core speed of ``speed.REFERENCE_STEP_S``.
    """
    walls, rescaled = [], []
    for index in range(SETUP_REPEATS):
        directory = workdir / f"help{index}"
        directory.mkdir()
        probe = speed.SpeedProbe()
        wall, cpu, code, _ = run_child([*CLI, "--help"], directory, deadline, probe)
        if code != 0:
            raise RuntimeError(f"drulearn.cli --help exited with {code}")
        walls.append(wall)
        rescaled.append(cpu * speed.REFERENCE_STEP_S / probe.step_s())
    return statistics.median(walls), statistics.median(rescaled)


def run_probed(program, directory, deadline, ledger, label):
    directory.mkdir()
    probe = speed.SpeedProbe()
    wall, cpu, code, rss = run_child(program, directory, deadline, probe)
    ledger.record(label, directory, code)
    return Repetition(wall, cpu, probe.step_s(), rss)


def untraced_runs(workload, workdir, config, seconds, ledger, deadline):
    """Repeat the CLI invocation while the run is shorter than ``seconds``."""
    repetitions = []
    started = time.perf_counter()
    while not repetitions or time.perf_counter() - started < seconds:
        repetitions.append(
            run_probed(
                [*CLI, workload.subcommand, "--config", str(config)],
                workdir / f"rep{len(repetitions)}",
                deadline,
                ledger,
                f"repetition {len(repetitions) + 1}",
            )
        )
    return repetitions


def traced_run(workload, workdir, config, ledger, deadline):
    """Run the workload once under the tracer; return (layer totals, Repetition)."""
    spans_file = workdir / "spans.json"
    repetition = run_probed(
        [str(BENCH / "traced_child.py"), str(spans_file), workload.subcommand,
         "--config", str(config)],
        workdir / "traced",
        deadline,
        ledger,
        "traced run",
    )
    if not spans_file.exists():  # the child failed; the ledger has counted it
        return {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}, repetition
    return json.loads(spans_file.read_text())["totals"], repetition


def layer_metrics(totals, untraced, traced):
    metrics = {}
    for name, entry in totals.items():
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.s"] = (entry["s"], "s")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    radius = totals["oracle.min_feasible_radius"]
    metrics["oracle.min_feasible_radius.lp_vars"] = (radius.get("lp_vars", 0), "count")
    sgd = totals["dual.sgd_solve"]
    steps = sgd.get("steps", 0)
    metrics["dual.sgd_solve.steps"] = (steps, "count")
    metrics["dual.sgd_solve.us_per_step"] = (
        1e6 * sgd["s"] / steps if steps else 0.0, "us"
    )
    metrics["dual.sgd_solve.converged_share"] = (
        sgd.get("converged", 0) / sgd["calls"] if sgd["calls"] else 0.0, "1"
    )
    metrics["dual.sgd_solve.infeasible"] = (sgd.get("infeasible", 0), "count")
    metrics["trace.untraced_ksteps"] = (untraced.ksteps, "ksteps")
    metrics["trace.traced_ksteps"] = (traced.ksteps, "ksteps")
    metrics["trace.overhead_share"] = (traced.ksteps / untraced.ksteps - 1.0, "1")
    return metrics


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "pinned_to_core": min(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": " ".join(f"{key}={value}" for key, value in THREAD_ENV.items()),
    }


def print_report(workload, seed, metrics, named, ledger):
    print(f"# workload {workload.name}, seed {seed} (instance pinned; see README.md)")
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"{name} {value if value is None else format(value, '.6g')} {unit}")
    print(f"failure_share {ledger.failed / ledger.attempted:.6g} 1")


def self_time_table(totals):
    base = totals["cli.main"]["s"]
    ranked = sorted(totals.items(), key=lambda item: -item[1]["self_s"])
    for name, entry in ranked:
        if entry["calls"] and base:
            share = entry["self_s"] / base
            print(f"# self {name}: {entry['self_s']:.3f} s of {base:.3f} s ({share:.1%})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "drulearn" / "cli.py").is_file():
        print(f"error: no drulearn sources under {SRC}", file=sys.stderr)
        return 2

    # Before numpy is imported here or in any child; the children inherit the
    # harness's core (speed.py).
    os.environ.update(THREAD_ENV)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = Deadline(RUN_BUDGET_S)
    workload = WORKLOADS[args.workload]
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = workdir / "workload.cfg"
    config.write_text(workload.config_text())
    reference_file = WORK / "digests" / f"{workload.name}-{code_key(workload)}"
    reference = reference_file.read_text() if reference_file.exists() else None
    ledger = Ledger(workload, reference)

    named = {}
    if args.trace:
        untraced = untraced_runs(workload, workdir, config, 0, ledger, deadline)[0]
        totals, traced = traced_run(workload, workdir, config, ledger, deadline)
        metrics = layer_metrics(totals, untraced, traced)
        for key, value in machine_facts().items():
            print(f"# machine {key}: {value}")
        self_time_table(totals)
    else:
        setup_wall_s, setup_s = measure_setup(workdir, deadline)
        repetitions = untraced_runs(
            workload, workdir, config, args.seconds, ledger, deadline
        )
        step_s = statistics.median(r.step_s for r in repetitions)
        named["ref_step_us"] = (1e6 * step_s, "us")
        named["wall_s"] = (statistics.median(r.wall_s for r in repetitions), "s")
        named["cpu_s"] = (statistics.median(r.cpu_s for r in repetitions), "s")
        named["setup_wall_s"] = (setup_wall_s, "s")
        metrics = {
            "cpu_ksteps": (statistics.median(r.ksteps for r in repetitions), "ksteps"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in repetitions), "MB"),
        }

    # Without one passing repetition there is no quality to report; the run
    # is then marked incorrect and the two figures are null.
    named.update(ledger.quality or {})
    loss = named.pop("loss_nats", (None, "nats"))
    share = named.pop("quality_share", (None, "1"))
    if not args.trace:
        metrics["loss_nats"], metrics["quality_share"] = loss, share
    print_report(workload, args.seed, metrics, named, ledger)

    if ledger.failed == 0:
        reference_file.parent.mkdir(parents=True, exist_ok=True)
        partial = reference_file.with_suffix(".tmp")
        partial.write_text(ledger.reference)
        os.replace(partial, reference_file)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
