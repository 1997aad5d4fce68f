"""Run every workload over several seeds and summarize each metric.

Usage (from the repository root):

    python3 bench/summarize.py --seeds 1-10 --output summary.json [--traced]

For each workload and end-to-end metric it reports the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  With ``--traced`` it adds one traced run per workload.
Runs execute one at a time; a failed run is recorded, not retried.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        return {"exit_code": completed.returncode, "stderr": completed.stderr[-2000:]}
    figures = {}
    for line in lines[:-1]:
        name, value, unit = (line.split() + ["", "", ""])[:3]
        if not line.startswith("#") and value not in ("", "None"):
            figures[name] = (float(value), unit)
    return {"report": lines[:-1], "figures": figures, **json.loads(lines[-1])}


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values):
    low, median, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": low,
        "q3": high,
        "spread": (high - low) / median if median else None,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--output", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [
        item["name"] for item in spec["workloads"]
    ]
    bounds = {item["name"]: item["bound"] for item in spec["end_to_end"]}
    summary = {}
    for name in names:
        runs = [run_once(name, seed, spec["run_seconds"], 0) for seed in parse_seeds(args.seeds)]
        good = [run for run in runs if "metrics" in run]
        entry = {
            "runs": len(runs),
            "correct_runs": sum(bool(run.get("correct")) for run in runs),
            "failed_share": sum(run.get("failed", 0) for run in good)
            / max(1, sum(run.get("attempted", 0) for run in good)),
            "end_to_end": {},
            "errors": [run for run in runs if "metrics" not in run],
        }
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in good]
            if len(values) >= 2:
                entry["end_to_end"][metric] = {"bound": bound, **summarize(values)}
                stats = entry["end_to_end"][metric]
                print(f"{name} {metric}: median {stats['median']:.6g} "
                      f"spread {stats['spread']:.3f} (bound {bound})", flush=True)
        # Figures printed by each run besides its JSON line (raw wall and CPU
        # time, the workload's named quality figures).
        entry["reported"] = {}
        for figure in good[0]["figures"] if good else ():
            if figure not in bounds and all(figure in run["figures"] for run in good):
                values = [run["figures"][figure][0] for run in good]
                entry["reported"][figure] = summarize(values) if len(values) >= 2 else values
        if args.traced:
            entry["traced"] = run_once(name, 1, spec["run_seconds"], 1)
        summary[name] = entry
    Path(args.output).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
