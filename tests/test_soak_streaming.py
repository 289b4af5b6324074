"""Soak test: one pool, many estimators, long greedy runs, no leaks.

A long randomized S3CA-style workload — three different scenarios, each with
enough budget to drive many accept/reject cycles through the ID phase — runs
every estimator on **one** shared worker pool.  The assertions:

* **no pool / process / FD leak** — the pool's worker-process count stays
  constant across all estimators, the live executor count returns to zero as
  each estimator closes, and (on Linux) the open-file-descriptor count of the
  parent is the same after the whole soak as before it;
* **benefit-trace identity** — every intermediate deployment of every ID run
  (the benefit trace) is bit-identical to the eager serial reference path,
  i.e. the streaming pool + snapshot splicing changed nothing but speed.
"""

import gc
import multiprocessing
import os

import pytest

from repro.utils import shm as _shm

from repro.core.investment import InvestmentDeployment
from repro.diffusion.factory import make_estimator
from repro.diffusion.parallel import (
    SharedShardPool,
    live_executor_count,
    live_pool_count,
)
from repro.experiments.scalability import synthetic_scenario

NUM_SAMPLES = 20
SCENARIOS = [(50, 3), (60, 5), (70, 9)]  # (num_nodes, scenario seed)


def _fd_count():
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return None


def _run_id_phase(scenario, estimator):
    result = InvestmentDeployment(
        scenario, estimator, candidate_limit=5, max_pivot_candidates=12
    ).run()
    return [
        (
            tuple(sorted(snapshot.seeds, key=str)),
            tuple(sorted(snapshot.allocation.as_dict().items(), key=str)),
            snapshot.expected_benefit(estimator),
        )
        for snapshot in result.snapshots
    ]


def test_soak_shared_pool_many_estimators_no_leaks_and_trace_identity():
    scenarios = [
        synthetic_scenario(size, budget=2.0 * size, seed=seed)
        for size, seed in SCENARIOS
    ]
    pools_before = live_pool_count()
    children_before = len(multiprocessing.active_children())

    with SharedShardPool(2) as pool:
        worker_count = len(multiprocessing.active_children()) - children_before
        assert worker_count == 2
        # Warm the one-time global shared-memory machinery (the resource
        # tracker starts its pipe on the first segment of the process) so
        # the FD baseline below measures per-estimator cost only.
        if _shm.shared_memory_available():
            _shm.release_owned(_shm.create_segment(None, 1))
        fd_after_pool = _fd_count()
        traces = []
        for lap, scenario in enumerate(scenarios):
            estimator = make_estimator(
                scenario, num_samples=NUM_SAMPLES, seed=11,
                shard_size=6, pool=pool,
            )
            traces.append(_run_id_phase(scenario, estimator))
            estimator.close()
            # A closed estimator may pin its zero-copy graph mapping until
            # collected; the leak contract is that *collection* releases
            # everything, so drop the reference before counting.
            del estimator
            # Pool reuse, not pool churn: worker count and live-object
            # registries are flat after every lap.
            assert live_pool_count() == pools_before + 1
            assert live_executor_count() == 0
            assert (
                len(multiprocessing.active_children()) - children_before
                == worker_count
            )
        if fd_after_pool is not None:
            # No FD creep across three estimator lifecycles on one pool.
            gc.collect()
            assert _fd_count() == fd_after_pool

    assert live_pool_count() == pools_before
    assert len(multiprocessing.active_children()) == children_before

    # The whole soak was also *correct*: every trace equals the eager serial
    # reference (no pool, no delta engine, no splicing).
    for scenario, trace in zip(scenarios, traces):
        estimator = make_estimator(
            scenario, num_samples=NUM_SAMPLES, seed=11, incremental=False
        )
        assert trace == _run_id_phase(scenario, estimator)


def test_soak_interleaved_estimators_on_one_pool(two_hop_path):
    """Two live estimators interleaving evaluations on one pool stay exact."""
    serial = make_estimator(two_hop_path, num_samples=30, seed=2)
    with SharedShardPool(2) as pool:
        first = make_estimator(
            two_hop_path, num_samples=30, seed=2, shard_size=7, pool=pool
        )
        second = make_estimator(
            two_hop_path, num_samples=30, seed=2, shard_size=5, pool=pool
        )
        deployments = [
            (["a"], {}), (["a"], {"a": 1}), (["b"], {"b": 1}),
            (["a", "b"], {"a": 1, "b": 1}),
        ]
        for _ in range(3):
            for seeds, allocation in deployments:
                expected = serial.expected_benefit(seeds, allocation)
                assert first.expected_benefit(seeds, allocation) == expected
                assert second.expected_benefit(seeds, allocation) == expected
            first.clear_cache()
            second.clear_cache()
        first.close()
        second.close()
