"""Fault injection: a SIGKILLed pool worker surfaces as an error, not a hang.

``multiprocessing.Pool`` never re-runs a task whose worker died, so a plain
``imap_unordered`` wait on it blocks forever.  :class:`PendingCounts` waits
in short slices and checks the worker processes the pool started with;
these tests kill one worker of a two-worker pool, mid-batch or while it
waits for a task, and require an :class:`EstimationError` naming that worker
within seconds, a closed pool, and no ``/dev/shm`` segment left behind once
the estimator closes.
"""

import gc
import os
import signal
import threading
import time

import pytest

from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.diffusion.parallel import SharedShardPool
from repro.exceptions import EstimationError
from repro.graph.social_graph import SocialGraph
from repro.utils import shm

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL") or not os.path.isdir("/dev/shm"),
    reason="needs SIGKILL and an observable /dev/shm",
)


def _repro_segments():
    return sorted(
        name for name in os.listdir("/dev/shm") if name.startswith(shm.SEGMENT_PREFIX)
    )


NUM_NODES = 300
OUT_DEGREE = 30


def _dense_graph():
    """Every edge live in every world: each cascade walks the whole graph."""
    graph = SocialGraph()
    for node in range(NUM_NODES):
        graph.add_node(node, benefit=1.0, seed_cost=1.0, sc_cost=1.0)
    for node in range(NUM_NODES):
        for step in range(1, OUT_DEGREE + 1):
            graph.add_edge(node, (node + step) % NUM_NODES, 1.0)
    return graph


@pytest.mark.parametrize("while_busy", [True, False], ids=["mid-batch", "idle"])
def test_sigkilled_worker_raises_within_seconds_and_leaks_nothing(while_busy):
    """Kill one worker mid-batch, or while it waits for a task.

    An idle worker waits holding the task queue's lock, so its death would
    also stall every later task, and closing the pool must not wait for that
    lock either.
    """
    before = _repro_segments()
    graph = _dense_graph()
    pool = SharedShardPool(2)
    # The interpreted cascade over a fully live graph keeps every task busy
    # for seconds, so a mid-batch kill lands while both workers hold a task.
    estimator = MonteCarloEstimator(
        graph, num_samples=200, seed=3, pool=pool, use_kernel=False,
    )
    try:
        estimator.expected_benefit([0], {})  # registers and publishes
        victim = pool.processes()[0]
        coupons = {node: OUT_DEGREE for node in range(NUM_NODES)}
        deployments = [([node], coupons) for node in range(200)]
        outcome = {}

        def solve() -> None:
            try:
                estimator.expected_benefits(deployments)
            except EstimationError as error:
                outcome["error"] = error
                outcome["at"] = time.perf_counter()

        # A daemon thread, so a regression that hangs fails the join below
        # instead of blocking the test run.
        thread = threading.Thread(target=solve, daemon=True)
        if while_busy:
            thread.start()
            time.sleep(0.5)
        killed_at = time.perf_counter()
        os.kill(victim.pid, signal.SIGKILL)
        if not while_busy:
            victim.join(timeout=5.0)
            thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "the batch hung after its worker died"
        assert "error" in outcome, "the batch finished despite the dead worker"
        message = str(outcome["error"])
        assert str(victim.pid) in message and "died" in message
        assert outcome["at"] - killed_at < 5.0
        assert pool.closed
        # The broken pool refuses new work instead of hanging on it.
        estimator.clear_cache()
        with pytest.raises(EstimationError):
            estimator.expected_benefit([1], {})
    finally:
        estimator.close()
        pool.close()
    # The caught error's traceback holds the estimator's frames.
    del estimator, outcome
    gc.collect()
    assert _repro_segments() == before
