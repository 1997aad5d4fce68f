"""The benchmark's workloads: a CLI subcommand, its config, and its checks.

Each workload runs one subcommand on a config that is the default except for
the keys listed.  The instance is pinned: the data seed (``seed``) and the
solver seed (``solver_seed``) keep their defaults of 0.  The SGD step count,
and with it the wall time, depends strongly on both: ``bound_strong`` takes
13 s at ``solver_seed=0`` and 54-71 s at 1, 2 and 3 on a 2-core machine.  A
run-to-run spread that large would hide every change smaller than it, so the
benchmark's ``--seed`` does not reach the program; see README.md.

``quality`` reads a finished run's outputs and returns the workload's named
quality figures plus the two generic ones every workload reports:
``loss_nats`` (lower is better) and ``quality_share`` (higher is better).
"""

from __future__ import annotations

import csv
import dataclasses
import math
import statistics
from pathlib import Path

OUTPUT = "result.csv"


def read_rows(path: Path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _column(rows, name):
    return [float(row[name]) for row in rows]


def bound_quality(rows, directory):
    neg_log = _column(rows, "neg_log_bound")
    likelihood = _column(rows, "likelihood_bound")
    if not all(0.0 < value <= 1.0 for value in likelihood):
        raise ValueError("likelihood_bound outside (0, 1]")
    mean_neg_log = statistics.fmean(neg_log)
    median_likelihood = statistics.median(likelihood)
    return {
        "neg_log_bound_mean": (mean_neg_log, "nats"),
        "likelihood_bound_median": (median_likelihood, "1"),
        "loss_nats": (mean_neg_log, "nats"),
        "quality_share": (median_likelihood, "1"),
    }


def active_quality(rows, directory):
    aulc_rows = read_rows(directory / "result_aulc.csv")
    if len(aulc_rows) != 1:
        raise ValueError("expected one median_aulc row")
    aulc = float(aulc_rows[0]["median_aulc"])
    return {
        "aulc": (aulc, "%"),
        "loss_nats": (-math.log(aulc / 100.0), "nats"),
        "quality_share": (aulc / 100.0, "1"),
    }


def oracle_quality(rows, directory):
    primal, dual = _column(rows, "primal"), _column(rows, "dual")
    # The dual solve prices a feasible dual point, so weak duality puts its
    # value at or above the exact LP maximum (up to the LP's own tolerance).
    if any(d < p - 1e-7 for p, d in zip(primal, dual)):
        raise ValueError("dual value below the exact primal: weak duality broken")
    gap_max = max(abs(d - p) for p, d in zip(primal, dual))
    within = statistics.fmean(int(row["within_tol"]) for row in rows)
    return {
        "gap_max": (gap_max, "nats"),
        "within_tol_share": (within, "1"),
        "loss_nats": (gap_max, "nats"),
        "quality_share": (within, "1"),
    }


def sweep_quality(rows, directory):
    median = statistics.median(_column(rows, "worst_case_likelihood"))
    return {
        "ball_likelihood_median": (median, "1"),
        "loss_nats": (-math.log(median), "nats"),
        "quality_share": (median, "1"),
    }


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    settings: tuple
    rows: int
    quality: object
    outputs: tuple = (OUTPUT, OUTPUT + ".meta")

    def config_text(self) -> str:
        lines = [f"{key} = {value}" for key, value in self.settings]
        return "\n".join(lines + [f"output = {OUTPUT}", ""])


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Default weak prior and radius policy: two dense min-radius LPs per
        # row take about 75 % of the run, the rest is dual SGD.
        Workload(
            "bound_weak",
            "bound",
            (("synthetic_n", 60), ("n_labeled_grid", "10,20")),
            rows=2,
            quality=bound_quality,
        ),
        # Strong prior with the transport-distance radius: no min-radius LP,
        # dual training is about 98 %; an LP change should not show here.
        Workload(
            "bound_strong",
            "bound",
            (
                ("prior_mode", "strong"),
                ("eps_policy", "fraction-of-true-distance"),
                ("n_labeled_grid", "20"),
                ("trials", 2),
            ),
            rows=2,
            quality=bound_quality,
        ),
        # Robust acquisition: fixed-theta payoff solves (score_dr) dominate.
        Workload(
            "active_dr",
            "active",
            (
                ("strategy", "dr_weak"),
                ("synthetic_n", 60),
                ("stop_at", 5),
                ("candidate_subsample", 8),
            ),
            rows=4,
            quality=active_quality,
            outputs=(OUTPUT, OUTPUT + ".meta", "result_aulc.csv"),
        ),
        # The only workload that prices dual quality against the exact
        # worst-case LP; 2 of its 8 instances are out of tolerance.
        Workload(
            "oracle_check",
            "oracle-check",
            (("trials", 8),),
            rows=8,
            quality=oracle_quality,
        ),
        # Five full-batch baseline fits; no LP and no dual solve.
        Workload(
            "robustness_sweep",
            "robustness-sweep",
            (),
            rows=25,
            quality=sweep_quality,
        ),
    )
}
