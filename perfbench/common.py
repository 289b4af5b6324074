"""Helpers shared by the solve and server workloads."""

from __future__ import annotations

import json
import resource
import statistics
import time
from typing import Dict, List

from layers import percentile
from tracer import SPAN_FIELDS


def build_scenario(spec: Dict):
    """The workload's fixed dataset, built through the program's own API."""
    from repro.experiments.datasets import build_scenario as named
    from repro.experiments.scalability import synthetic_scenario

    if spec["generator"] == "synthetic_scenario":
        return synthetic_scenario(
            spec["num_nodes"], budget=spec["budget"], seed=spec["dataset_seed"]
        )
    return named(
        spec["dataset"], scale=spec["scale"], lam=spec["lam"],
        kappa=spec["kappa"], seed=spec["dataset_seed"],
    )


def cold_estimator(scenario, num_samples: int, seed: int):
    """Independent reference: serial, non-incremental, nothing memoised."""
    from repro.diffusion.factory import make_estimator

    return make_estimator(
        scenario, "mc-compiled", num_samples=num_samples, seed=seed,
        workers=1, incremental=False,
    )


def check_solution(scenario, deployment, expected_benefit: float,
                   redemption_rate: float, total_cost: float,
                   num_samples: int, seed: int) -> List[str]:
    """Problems with one solve's output; empty when it is correct.

    The deployment is re-evaluated on a fresh cold estimator with the same
    seed: the benefit must match bit for bit, the deployment must fit the
    budget and the reported rate must be benefit over cost.
    """
    problems = []
    estimator = cold_estimator(scenario, num_samples, seed)
    try:
        benefit = estimator.expected_benefit(
            deployment.seeds, deployment.allocation.as_dict()
        )
    finally:
        estimator.close()
    if benefit != expected_benefit:
        problems.append(f"benefit {expected_benefit!r} != cold re-evaluation {benefit!r}")
    if not deployment.fits_budget(scenario.budget_limit):
        problems.append(
            f"cost {deployment.total_cost()} exceeds budget {scenario.budget_limit}"
        )
    # A deployment rebuilt from a wire payload sums its coupon costs in
    # another order than the solver did, so the cost may differ in the last
    # bits; the reported rate must be exactly the reported benefit over cost.
    cost = deployment.seed_cost() + deployment.sc_cost()
    if abs(cost - total_cost) > 1e-9 * max(1.0, abs(cost)):
        problems.append(f"total_cost {total_cost!r} != {cost!r}")
    rate = expected_benefit / total_cost if total_cost > 0 else 0.0
    if rate != redemption_rate:
        problems.append(f"redemption_rate {redemption_rate!r} != benefit/cost {rate!r}")
    return problems


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident memory of this process, plus its largest waited-for child."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def latency_metrics(latencies: List[float], loop_seconds: float) -> Dict[str, float]:
    """``op_p50_ms``/``op_p99_ms``/``ops_per_s`` of one closed-loop run."""
    return {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": percentile(latencies, 0.99) * 1e3,
        "ops_per_s": len(latencies) / loop_seconds,
    }


def median_setup(setup_once, repeats: int) -> Dict[str, float]:
    """Set up ``repeats`` times in this process; the median of each timing."""
    rows = [setup_once() for _ in range(repeats)]
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


class Stopwatch:
    """Elapsed seconds since construction."""

    def __init__(self) -> None:
        self.began = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.began


def write_trace(path, spans: List[tuple], metrics: Dict[str, float]) -> None:
    """Spans of one traced operation set and the per-layer table, as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": SPAN_FIELDS, "spans": spans, "per_layer": metrics}, handle)
