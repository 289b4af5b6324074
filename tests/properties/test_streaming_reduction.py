"""Property tests: the streaming reduction never depends on completion order.

The :class:`~repro.diffusion.parallel.ShardExecutor` turns a batch of
deployments into one task per worker world range and folds the tasks' count
rows in range order, buffering ranges that complete early.  To exercise
*arbitrary* completion orders deterministically — a real pool mostly
completes nearly in order — these tests inject an in-process fake pool that
evaluates every task through the exact same
:func:`~repro.diffusion.parallel.evaluate_task_in_state` routine the real
workers run, then yields the batch's results in a seeded random order.
Whatever the shuffle, the shard size, the batch chunking or the pipelining
pattern, every estimate must equal the serial engine's bit for bit.
"""

import math
import random
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

import numpy as np

from repro.diffusion import engine as engine_module
from repro.diffusion import parallel
from repro.diffusion.engine import CompiledCascadeEngine
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.diffusion.parallel import SharedShardPool, ShardExecutor
from repro.graph.social_graph import SocialGraph

NUM_WORLDS = 24


class _Completions:
    """The iterator a pool returns: ``next(timeout=...)`` like multiprocessing's."""

    def __init__(self, results) -> None:
        self._results = iter(results)

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._results)

    def next(self, timeout=None):
        return next(self._results)


class ShufflingFakePool:
    """Duck-typed SharedShardPool executing in-process, results shuffled.

    Implements the exact surface :class:`ShardExecutor` needs —
    ``workers`` / ``closed`` / ``register`` / ``release`` /
    ``imap_unordered`` / ``processes`` / ``close`` — so it can be injected
    anywhere a real pool can.  A task is
    ``(token, range_index, blocks, deployments, use_kernel)`` and yields
    ``(range_index, counts)`` with one count row per deployment; the tasks of
    one batch complete in a shuffled order.
    """

    def __init__(self, order_seed: int, workers: int = 2) -> None:
        self.workers = workers
        self.closed = False
        self._states = {}
        self._next_token = 0
        self._rng = random.Random(order_seed)

    def register(self, sampler) -> int:
        token = self._next_token
        self._next_token += 1
        self._states[token] = parallel._WorkerState(sampler, cache_blocks=4)
        return token

    def release(self, token) -> None:
        self._states.pop(token, None)

    def processes(self):
        return ()

    def imap_unordered(self, tasks):
        results = [
            parallel.evaluate_task_in_state(self._states[task[0]], task)
            for task in tasks
        ]
        self._rng.shuffle(results)
        return _Completions(results)

    def close(self) -> None:
        self.closed = True


@st.composite
def instance(draw):
    """Random attributed graph plus a random deployment."""
    num_nodes = draw(st.integers(min_value=2, max_value=10))
    nodes = list(range(num_nodes))
    graph = SocialGraph()
    for node in nodes:
        graph.add_node(
            node,
            benefit=draw(st.floats(min_value=0.0, max_value=5.0)),
            sc_cost=1.0,
            seed_cost=1.0,
        )
    possible = [(u, v) for u in nodes for v in nodes if u != v]
    chosen = draw(
        st.lists(
            st.sampled_from(possible), max_size=min(20, len(possible)), unique=True
        )
    )
    for source, target in chosen:
        graph.add_edge(source, target, draw(st.floats(min_value=0.0, max_value=1.0)))
    seeds = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True))
    allocation = {}
    for node in nodes:
        degree = graph.out_degree(node)
        if degree:
            allocation[node] = draw(st.integers(min_value=0, max_value=degree))
    return graph, seeds, allocation


@settings(max_examples=12, deadline=None)
@given(
    instance(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=NUM_WORLDS + 3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_streaming_reduction_matches_serial_for_any_completion_order(
    data, seed, shard_size, order_seed
):
    graph, seeds, allocation = data
    serial = MonteCarloEstimator(graph, num_samples=NUM_WORLDS, seed=seed)
    fake = ShufflingFakePool(order_seed)
    streaming = MonteCarloEstimator(
        graph, num_samples=NUM_WORLDS, seed=seed,
        shard_size=shard_size, pool=fake,
    )
    assert streaming.workers == fake.workers  # pool width wins
    assert streaming.expected_benefit(seeds, allocation) == (
        serial.expected_benefit(seeds, allocation)
    )
    assert streaming.activation_probabilities(seeds, allocation) == (
        serial.activation_probabilities(seeds, allocation)
    )


def test_out_of_order_blocks_fold_in_block_order(two_hop_path):
    """Directly exercise the executor: reversed completion, correct fold."""
    engine = CompiledCascadeEngine(two_hop_path.compiled(), 12, seed=3, shard_size=3)
    serial_counts, _ = engine.run(["a"], {"a": 1, "b": 1})
    empty_counts, _ = engine.run(["b"], {})

    class ReversingPool(ShufflingFakePool):
        def imap_unordered(self, tasks):
            results = [
                parallel.evaluate_task_in_state(self._states[task[0]], task)
                for task in tasks
            ]
            return _Completions(list(reversed(results)))

    pool = ReversingPool(order_seed=0, workers=4)
    executor = ShardExecutor(
        engine.sampler, num_worlds=12, shard_size=3, pool=pool
    )
    index = engine.compiled.index
    pending = executor.submit([
        ([index["a"]], np.array([[index["a"], 1], [index["b"], 1]])),
        ([index["b"]], np.empty((0, 2), dtype=np.int64)),
    ])
    rows = pending.result()
    np.testing.assert_array_equal(rows[0], serial_counts)
    np.testing.assert_array_equal(rows[1], empty_counts)
    assert pending.done
    assert executor.completed == 1


def test_worker_ranges_are_contiguous_and_cover_every_block():
    blocks = [(start, 1) for start in range(5)]
    assert parallel.worker_ranges(blocks, 2) == [blocks[:2], blocks[2:]]
    assert parallel.worker_ranges(blocks[:1], 2) == [blocks[:1]]
    for workers in range(1, 8):
        ranges = parallel.worker_ranges(blocks, workers)
        assert len(ranges) == min(workers, len(blocks))
        assert [block for run in ranges for block in run] == blocks


@settings(max_examples=20, deadline=None)
@given(
    instance(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([None, 1, 7]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_pipelined_batch_matches_sequential_estimates(
    data, seed, order_seed, shard_size, chunk, depth, memo_hits
):
    """expected_benefits (chunked, pipelined batches) == one-by-one calls.

    The plan carries duplicates, memo hits, an empty seed set and more
    deployments than one chunk holds; ``shard_size`` 1 and 7 make one worker
    range span several blocks.
    """
    graph, seeds, allocation = data
    nodes = list(graph.nodes())
    deployments = [(seeds, allocation), ([], allocation)]
    for node in nodes[:5]:
        extra = dict(allocation)
        extra[node] = extra.get(node, 0) + 1
        deployments.append((seeds, extra))
        deployments.append(([node], {}))
    deployments.append((list(reversed(seeds)), allocation))  # duplicate key
    deployments.append(([], {}))

    serial = MonteCarloEstimator(graph, num_samples=NUM_WORLDS, seed=seed)
    expected = [serial.expected_benefit(*deployment) for deployment in deployments]
    expected_probabilities = [
        serial.activation_probabilities(*deployment) for deployment in deployments
    ]

    fake = ShufflingFakePool(order_seed)
    batched = MonteCarloEstimator(
        graph, num_samples=NUM_WORLDS, seed=seed, shard_size=shard_size,
        pool=fake, pipeline_depth=depth,
    )
    for deployment in deployments[2 : 2 + memo_hits]:
        batched.expected_benefit(*deployment)  # memo hits inside the plan
    budget = 4 * graph.compiled().num_nodes * chunk
    with mock.patch.object(engine_module, "_BATCH_BYTES", budget):
        assert batched._engine.batch_size == chunk
        assert batched.expected_benefits(deployments) == expected
    # and the memo now serves the same numbers one by one
    assert [
        batched.expected_benefit(*deployment) for deployment in deployments
    ] == expected
    assert [
        batched.activation_probabilities(*deployment) for deployment in deployments
    ] == expected_probabilities


def test_batches_dispatch_one_task_per_worker_per_chunk(two_hop_path, monkeypatch):
    """k uncached deployments on a 2-worker pool: ceil(k / chunk) x 2 tasks."""
    dispatched = []
    original = SharedShardPool.imap_unordered

    def counting(self, tasks):
        dispatched.append(len(tasks))
        return original(self, tasks)

    monkeypatch.setattr(SharedShardPool, "imap_unordered", counting)
    chunk = 3
    monkeypatch.setattr(
        engine_module, "_BATCH_BYTES", 4 * two_hop_path.compiled().num_nodes * chunk
    )
    serial = MonteCarloEstimator(two_hop_path, num_samples=NUM_WORLDS, seed=5)
    deployments = [
        (["a"], {"a": count_a, "b": count_b})
        for count_a in range(3) for count_b in range(3)
    ][:7]
    with SharedShardPool(2) as pool:
        estimator = MonteCarloEstimator(
            two_hop_path, num_samples=NUM_WORLDS, seed=5, pool=pool
        )
        try:
            assert estimator._engine.batch_size == chunk
            estimator.expected_benefit(["b"], {})  # registers the sampler
            dispatched.clear()
            benefits = estimator.expected_benefits(deployments)
        finally:
            estimator.close()
    assert benefits == [serial.expected_benefit(*d) for d in deployments]
    assert dispatched == [pool.workers] * math.ceil(len(deployments) / chunk)
