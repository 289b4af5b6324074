"""Solve workloads: one operation is one ``S3CA.solve()`` on a fresh estimator.

The dataset (topology and economics) of a workload is fixed; the benchmark
seed draws the Monte-Carlo worlds.  Different worlds steer the greedy into
different amounts of work, so a run solves once per world seed of a sequence
derived from the benchmark seed, for as long as ``--seconds`` lasts, and
reports the median: one seed's luck does not decide a run.
"""

from __future__ import annotations

import statistics
import sys
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

import common
import layers
from tracer import Tracer


def world_seeds(seed: int, count: int) -> List[int]:
    """The run's Monte-Carlo seeds: the benchmark seed, then derived ones."""
    derived = np.random.SeedSequence(seed).generate_state(count - 1).tolist()
    return [seed] + [int(value) for value in derived]


#: In-process set-ups per run; ``setup_s`` is their median.
_SETUP_REPEATS = 9

#: Upper bound on solves per run (the clock ends a run long before).
_MAX_SOLVES = 1000


class SolveWorkload:
    def __init__(self, params: Dict, seed: int) -> None:
        self.params = params
        self.seed = seed
        solve = params["solve"]
        self.num_samples = solve["num_samples"]
        self.workers = solve["workers"]
        self.spend_full_budget = solve["spend_full_budget"]
        self.scenario = None
        self.pool = None
        self.problems: List[str] = []

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------

    def fresh_estimator(self, seed: int):
        """A newly built estimator; on a pool, registered and published."""
        from repro.diffusion.factory import make_estimator

        estimator = make_estimator(
            self.scenario, "mc-compiled", num_samples=self.num_samples,
            seed=seed, pool=self.pool,
        )
        if self.pool is not None:
            # One pass ships the sampler to every worker and publishes the
            # world blocks to shared memory; dropping the memo afterwards
            # leaves the solve exactly the work it is on a cold estimator.
            probe = next(iter(self.scenario.graph.nodes()))
            estimator.expected_benefit([probe], {})
            estimator.clear_cache()
        return estimator

    def setup_once(self) -> Dict[str, float]:
        """Scenario, compile, estimator (+ pool start and world publish)."""
        from repro.diffusion.kernels import reset_kernel_cache
        from repro.diffusion.parallel import SharedShardPool

        self.close_pool()
        reset_kernel_cache()
        watch = common.Stopwatch()
        self.scenario = common.build_scenario(self.params["scenario"])
        scenario_s = watch.elapsed()
        self.scenario.graph.compiled()
        compile_s = watch.elapsed() - scenario_s
        if self.workers > 1:
            self.pool = SharedShardPool(self.workers)
        self.fresh_estimator(self.seed).close()
        total = watch.elapsed()
        return {
            "setup_s": total,
            "setup.scenario_s": scenario_s,
            "setup.compile_s": compile_s,
            "setup.estimator_s": total - scenario_s - compile_s,
        }

    def setup(self) -> Dict[str, float]:
        return common.median_setup(self.setup_once, _SETUP_REPEATS)

    def close_pool(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def solve(self, seed: int, tracer: Optional[Tracer] = None,
              op_id: str = "") -> Tuple[float, object]:
        """Time one solve on a fresh estimator; returns ``(seconds, result)``."""
        from repro.core.s3ca import S3CA

        estimator = self.fresh_estimator(seed)
        try:
            algorithm = S3CA(
                self.scenario, estimator=estimator,
                spend_full_budget=self.spend_full_budget,
            )
            watch = common.Stopwatch()
            if tracer is None:
                result = algorithm.solve()
            else:
                with tracer.operation("op/solve", op_id):
                    result = algorithm.solve()
            return watch.elapsed(), result
        finally:
            estimator.close()

    def check(self, result, seed: int, first: bool) -> None:
        """Record problems with one solve's output."""
        self.problems.extend(common.check_solution(
            self.scenario, result.deployment, result.expected_benefit,
            result.redemption_rate, result.total_cost, self.num_samples, seed,
        ))
        if self.spend_full_budget:
            if result.num_paths <= 0:
                self.problems.append("full-budget solve found no guaranteed paths")
            # All three phases must do real work at the default seed.
            if first and self.seed == self.params["default_seed"] and result.num_maneuvers <= 0:
                self.problems.append("full-budget solve at the default seed made no maneuvers")

    def guarded(self, function, *args):
        """Run one operation; an exception counts it as failed."""
        try:
            return function(*args)
        except Exception:  # the loop must go on and report the failure
            traceback.print_exc(file=sys.stderr)
            return None

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------

    def run(self, seconds: float) -> Dict:
        setup = self.setup()
        latencies: List[float] = []
        failed = attempted = 0
        watch = common.Stopwatch()
        try:
            for seed in world_seeds(self.seed, _MAX_SOLVES):
                attempted += 1
                before = len(self.problems)
                outcome = self.guarded(self.solve, seed)
                if outcome is None:
                    failed += 1
                else:
                    latencies.append(outcome[0])
                    self.check(outcome[1], seed, attempted == 1)
                    failed += len(self.problems) > before
                if watch.elapsed() >= seconds:
                    break
            loop_seconds = watch.elapsed()
        finally:
            self.close_pool()
        metrics = {"setup_s": setup["setup_s"]}
        if latencies:
            metrics.update(common.latency_metrics(latencies, loop_seconds))
        metrics["peak_rss_mb"] = common.peak_rss_mb(self.workers > 1)
        return {"attempted": attempted, "failed": failed, "metrics": metrics}

    def run_traced(self, seconds: float, trace_path) -> Dict:
        """Alternate untraced and traced solves at the benchmark seed.

        Every traced solve must repeat the first one's counts exactly; the
        reported split (and the trace file) is that of the traced solve with
        the median wall time, so its layer times add up to its own wall.
        """
        setup = self.setup()
        targets = layers.targets()
        tracer = Tracer()
        untraced: List[float] = []
        traced: List[Tuple[float, Dict[str, float], List[tuple]]] = []
        failed = attempted = 0
        watch = common.Stopwatch()
        try:
            # At least two traced solves, so the count check has a pair; the
            # hard cap ends a run whose solves keep failing.
            while (watch.elapsed() < seconds or len(traced) < 2) and (
                watch.elapsed() < 4 * seconds
            ):
                attempted += 2
                plain = self.guarded(self.solve, self.seed)
                with tracer.installed(targets):
                    marked = self.guarded(
                        self.solve, self.seed, tracer, f"solve-{len(traced)}"
                    )
                if plain is None or marked is None:
                    failed += (plain is None) + (marked is None)
                    tracer.reset()
                    continue
                untraced.append(plain[0])
                before = len(self.problems)
                self.check(plain[1], self.seed, not traced)
                if _outcome(plain[1]) != _outcome(marked[1]):
                    self.problems.append("traced solve returned another deployment")
                gap = layers.attribution_gap(tracer)
                if abs(gap) > 1e-6:
                    self.problems.append(f"layer self times miss the wall time by {gap!r} s")
                split = layers.derive(tracer, num_worlds=self.num_samples, extra={})
                split["investment.explored_nodes"] = marked[1].explored_nodes
                for name in layers.DETERMINISTIC_COUNTS:
                    if traced and split[name] != traced[0][1][name]:
                        self.problems.append(
                            f"{name} did not repeat: {split[name]} != {traced[0][1][name]}"
                        )
                traced.append((marked[0], split, list(tracer.spans)))
                if len(self.problems) > before:
                    failed += 1
                tracer.reset()
        finally:
            self.close_pool()
        if not traced:
            return {"attempted": attempted, "failed": failed, "metrics": {}}
        traced.sort(key=lambda entry: entry[0])
        _, metrics, spans = traced[(len(traced) - 1) // 2]
        for key in ("setup.scenario_s", "setup.compile_s", "setup.estimator_s"):
            metrics[key] = setup[key]
        metrics["trace.overhead_s"] = (
            statistics.median(entry[0] for entry in traced) - statistics.median(untraced)
        )
        common.write_trace(trace_path, spans, metrics)
        return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _outcome(result) -> Tuple:
    deployment = result.deployment
    return (
        set(deployment.seeds), deployment.allocation.as_dict(), result.expected_benefit
    )
