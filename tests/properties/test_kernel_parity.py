"""Parity suite: the native cascade kernel vs the interpreted oracle.

The native kernels (:mod:`repro.diffusion.kernels`) promise *bit-identity*
with the interpreted cascade loops in :mod:`repro.diffusion.engine` — same
activation queues, same counts, same coupon-limited flags, same benefits —
for any graph, deployment, shard size and worker count.  These tests pin
that contract at every level the kernel dispatches through:

* the engine's ``run`` and instrumented cascades (hypothesis, across shard
  sizes), including batched passes over empty, single, full, random and
  non-ascending world lists, with one native call per run of consecutive
  worlds in the same block;
* the multiprocess shard executor (kernel-tagged worker tasks);
* the delta engine's snapshot/splice/reconcile state, piece for piece, and
  its benefits, including a full ``S3CA.run()``
  deployment-identity check with ``snapshot_passes == 1`` still holding;
* graceful degradation: with every native backend monkeypatched away the
  engine warns (when the kernel was requested explicitly), falls back to
  the interpreted loop, and still produces identical results.
"""

import copy
import random
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.s3ca import S3CA
from repro.diffusion import kernels
from repro.diffusion.engine import CompiledCascadeEngine
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.experiments.scalability import synthetic_scenario
from repro.graph.social_graph import SocialGraph

NUM_SAMPLES = 25

requires_native = pytest.mark.skipif(
    kernels.load_kernel() is None,
    reason="no native kernel backend resolves in this environment",
)


@st.composite
def instance(draw):
    """Random attributed graph plus a random deployment."""
    num_nodes = draw(st.integers(min_value=2, max_value=12))
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
            st.sampled_from(possible), max_size=min(30, len(possible)), unique=True
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


def _engine_pair(graph, seed, shard_size):
    compiled = graph.compiled()
    kernel_engine = CompiledCascadeEngine(
        compiled, NUM_SAMPLES, seed=seed, shard_size=shard_size, use_kernel=True
    )
    oracle_engine = CompiledCascadeEngine(
        compiled, NUM_SAMPLES, seed=seed, shard_size=shard_size, use_kernel=False
    )
    assert not oracle_engine.kernel_active
    return kernel_engine, oracle_engine


@requires_native
@settings(max_examples=10, deadline=None)
@given(instance(), st.integers(min_value=0, max_value=2**31 - 1))
@pytest.mark.parametrize("shard_size", [1, 7, NUM_SAMPLES])
def test_kernel_run_and_instrumented_match_oracle(shard_size, data, seed):
    graph, seeds, allocation = data
    kernel_engine, oracle_engine = _engine_pair(graph, seed, shard_size)
    assert kernel_engine.kernel_active

    counts_k, benefit_k = kernel_engine.run(seeds, allocation)
    counts_o, benefit_o = oracle_engine.run(seeds, allocation)
    assert (counts_k == counts_o).all()
    assert benefit_k == benefit_o

    compiled = kernel_engine.compiled
    seed_indices = compiled.indices_of(sorted(seeds, key=str))
    dense = [0] * compiled.num_nodes
    for node, count in allocation.items():
        dense[compiled.index[node]] = count

    batched = list(
        kernel_engine.cascade_worlds_instrumented(
            range(NUM_SAMPLES), seed_indices, dense
        )
    )
    for world_index, (queue_k, limited_k) in enumerate(batched):
        queue_o, limited_o = oracle_engine.cascade_world_instrumented(
            world_index, seed_indices, dense
        )
        assert queue_k == queue_o
        assert limited_k == limited_o
        # The single-world entry point dispatches to the kernel too.
        single = kernel_engine.cascade_world_instrumented(
            world_index, seed_indices, dense
        )
        assert single == (queue_o, limited_o)


def _dense_deployment(engine, seeds, allocation):
    compiled = engine.compiled
    seed_indices = compiled.indices_of(sorted(seeds, key=str))
    dense = [0] * compiled.num_nodes
    for node, count in allocation.items():
        dense[compiled.index[node]] = count
    return seed_indices, dense


def _world_lists(rng):
    """Empty, single, all, random subset and active-then-extras orders."""
    everything = list(range(NUM_SAMPLES))
    subset = sorted(rng.sample(everything, 9))
    rest = [world for world in everything if world not in subset]
    return [
        [],
        [NUM_SAMPLES - 1],
        everything,
        subset,
        # eval_new_seed's order: ascending active worlds, then the extras.
        subset + sorted(rng.sample(rest, 6)),
        # Straddles block boundaries back and forth.
        [6, 7, 8, 0, 13, 14, 1, 24, 23],
    ]


@requires_native
@settings(max_examples=10, deadline=None)
@given(instance(), st.integers(min_value=0, max_value=2**31 - 1), st.randoms())
@pytest.mark.parametrize("shard_size", [1, 7, NUM_SAMPLES])
def test_batched_instrumented_pass_matches_oracle(shard_size, data, seed, rng):
    graph, seeds, allocation = data
    kernel_engine, oracle_engine = _engine_pair(graph, seed, shard_size)
    seed_indices, dense = _dense_deployment(kernel_engine, seeds, allocation)
    for worlds in _world_lists(rng):
        batched = kernel_engine.cascade_worlds_instrumented(
            worlds, seed_indices, dense
        )
        expected = [
            oracle_engine.cascade_world_instrumented(world, seed_indices, dense)
            for world in worlds
        ]
        assert batched == expected
        # Any iterable of world indices, e.g. a generator, works too.
        assert kernel_engine.cascade_worlds_instrumented(
            iter(worlds), seed_indices, dense
        ) == expected


def _block_runs(worlds, shard_size):
    """Runs of consecutive worlds in the same block of ``shard_size``."""
    blocks = [world // shard_size for world in worlds]
    return sum(1 for i, block in enumerate(blocks) if i == 0 or block != blocks[i - 1])


@requires_native
@pytest.mark.parametrize("shard_size", [1, 7, NUM_SAMPLES])
def test_one_native_call_per_block_run(monkeypatch, two_hop_path, shard_size):
    engine = CompiledCascadeEngine(
        two_hop_path.compiled(), NUM_SAMPLES, seed=5,
        shard_size=shard_size, use_kernel=True,
    )
    seed_indices, dense = _dense_deployment(engine, ["a"], {"a": 1, "b": 1})
    # Grow the concatenated buffers to a full pass first.
    engine.cascade_worlds_instrumented(range(NUM_SAMPLES), seed_indices, dense)
    calls = []
    kernel = engine._kernel
    real = kernel.cascade_world_instrumented

    def counting(*args):
        calls.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(kernel, "cascade_world_instrumented", counting)
    for worlds in _world_lists(random.Random(3)):
        calls.clear()
        engine.cascade_worlds_instrumented(worlds, seed_indices, dense)
        assert len(calls) == (_block_runs(worlds, shard_size) if worlds else 0)
        assert sum(calls) == len(worlds)


@requires_native
def test_out_of_range_worlds_raise_before_the_native_call(two_hop_path):
    engine = CompiledCascadeEngine(
        two_hop_path.compiled(), NUM_SAMPLES, seed=5, use_kernel=True
    )
    seed_indices, dense = _dense_deployment(engine, ["a"], {"a": 1})
    for worlds in ([NUM_SAMPLES], [0, -1]):
        with pytest.raises(IndexError):
            engine.cascade_worlds_instrumented(worlds, seed_indices, dense)
    block = engine._resident_block
    with pytest.raises(IndexError):
        engine._kernel.cascade_world_instrumented(
            block.targets, block.offsets, np.array([NUM_SAMPLES], dtype=np.int64),
            np.array(seed_indices, dtype=np.int32), np.array(dense, dtype=np.int64),
            engine._kernel_visited, 0, engine._kernel_queue,
            engine._kernel_limited, 0, 0, np.zeros(2, dtype=np.int64),
        )


def _snapshot_state(delta):
    return (
        delta.base_counts.tolist(),
        delta.base_benefit,
        delta._base_queues,
        delta._base_limited,
        delta._active_worlds,
        delta._limited_worlds,
        delta._base_coupons,
        delta._base_seed_indices,
    )


@requires_native
@pytest.mark.parametrize("shard_size", [1, 7, None])
def test_snapshot_splice_reconcile_state_matches_oracle(shard_size):
    """Batched kernel passes leave the delta engine in exactly the oracle's
    state after a snapshot, a coupon splice, a seed splice and a reconcile."""
    from repro.graph.events import EdgeAdd, EdgeDrop, EdgeReweight, GraphEventBatch

    scenario = synthetic_scenario(40, budget=80.0, seed=5)
    nodes = sorted(scenario.graph.nodes(), key=str)
    seeds = nodes[:2]
    allocation = {node: 1 for node in nodes[:8] if scenario.graph.out_degree(node)}
    holder = next(node for node in nodes[8:] if scenario.graph.out_degree(node))
    pivot = next(node for node in nodes[2:] if scenario.graph.out_degree(node))
    edges = sorted(scenario.graph.edges(), key=lambda e: (str(e[0]), str(e[1])))
    absent = next(
        (u, v) for u in nodes for v in nodes
        if u != v and not scenario.graph.has_edge(u, v)
    )
    batch = GraphEventBatch([
        EdgeDrop(edges[0][0], edges[0][1]),
        EdgeReweight(edges[5][0], edges[5][1], 0.9),
        EdgeAdd(absent[0], absent[1], 0.7),
    ])

    states = {}
    for use_kernel in (True, False):
        estimator = MonteCarloEstimator(
            copy.deepcopy(scenario.graph), num_samples=NUM_SAMPLES, seed=11,
            shard_size=shard_size, use_kernel=use_kernel, shared_memory=False,
        )
        assert estimator.kernel_active is use_kernel
        delta = estimator._delta
        trace = []
        estimator.snapshot_base(seeds, allocation)
        trace.append(_snapshot_state(delta))
        raised = dict(allocation)
        raised[holder] = raised.get(holder, 0) + 2
        outcome = estimator.delta_extra_coupon(seeds, allocation, holder, seeds, raised)
        trace.append((outcome.benefit, outcome.dirty_worlds, outcome.world_queues,
                      outcome.world_limited))
        estimator.advance_base(outcome, holder, seeds, raised)
        trace.append(_snapshot_state(delta))
        estimator.advance_base_new_seed(pivot, seeds + [pivot], raised)
        trace.append(_snapshot_state(delta))
        reconciled = estimator.ingest_events(batch)
        assert reconciled.reconciled
        trace.append(_snapshot_state(delta))
        states[use_kernel] = trace
        estimator.close()
    assert states[True] == states[False]


@requires_native
def test_kernel_parity_on_worker_pool(two_hop_path):
    """Kernel-tagged worker tasks == interpreted workers == serial oracle."""
    graph = two_hop_path
    deployments = [
        (["a"], {"a": 1}),
        (["a"], {"a": 1, "b": 1}),
        (["a", "b"], {"a": 1}),
    ]
    serial = MonteCarloEstimator(
        graph, num_samples=50, seed=9, use_kernel=False
    )
    with MonteCarloEstimator(
        graph, num_samples=50, seed=9, shard_size=10, workers=2, use_kernel=True
    ) as kernel_pool, MonteCarloEstimator(
        graph, num_samples=50, seed=9, shard_size=10, workers=2, use_kernel=False
    ) as oracle_pool:
        for seeds, allocation in deployments:
            expected = serial.expected_benefit(seeds, allocation)
            assert kernel_pool.expected_benefit(seeds, allocation) == expected
            assert oracle_pool.expected_benefit(seeds, allocation) == expected
            assert kernel_pool.activation_probabilities(seeds, allocation) == (
                serial.activation_probabilities(seeds, allocation)
            )


@requires_native
@pytest.mark.parametrize("shard_size", [7, None])
def test_delta_snapshot_and_splice_paths_match_oracle(shard_size):
    """The delta engine's snapshot, eval and splice advance on the kernel
    produce exactly the interpreted engine's benefits and memoised bases."""
    scenario = synthetic_scenario(40, budget=80.0, seed=5)
    graph = scenario.graph
    nodes = sorted(graph.nodes(), key=str)
    seeds = nodes[:2]
    base_allocation = {
        node: 1 for node in nodes[:8] if graph.out_degree(node)
    }
    candidates = [node for node in nodes if graph.out_degree(node)][:6]

    results = {}
    for use_kernel in (True, False):
        estimator = MonteCarloEstimator(
            graph, num_samples=NUM_SAMPLES, seed=11,
            shard_size=shard_size, use_kernel=use_kernel,
        )
        assert estimator.kernel_active is use_kernel
        trace = [estimator.snapshot_base(seeds, base_allocation)]
        allocation = dict(base_allocation)
        for node in candidates:
            new_allocation = dict(allocation)
            new_allocation[node] = new_allocation.get(node, 0) + 1
            outcome = estimator.delta_extra_coupon(
                seeds, allocation, node, seeds, new_allocation
            )
            trace.append(outcome.benefit)
            # Splice-advance onto the evaluated deployment, as the greedy
            # accept path does.
            trace.append(
                estimator.advance_base(outcome, node, seeds, new_allocation)
            )
            allocation = new_allocation
        # One pivot add through the seed-accept splice path.
        pivot = next(node for node in nodes if node not in seeds)
        trace.append(
            estimator.advance_base_new_seed(
                pivot, seeds + [pivot], allocation
            )
        )
        results[use_kernel] = (
            trace, estimator.delta_snapshot_passes, estimator.delta_spliced_advances
        )
    assert results[True] == results[False]
    assert results[True][1] == 1  # advances spliced, never re-snapshotted


@requires_native
def test_full_s3ca_deployment_identical_with_and_without_kernel():
    scenario = synthetic_scenario(60, budget=50.0, seed=2019)
    solved = {}
    for use_kernel in (True, False):
        algorithm = S3CA(
            scenario, num_samples=NUM_SAMPLES, seed=2019,
            candidate_limit=8, max_pivot_candidates=15,
            use_kernel=use_kernel,
        )
        assert algorithm.estimator.kernel_active is use_kernel
        result = algorithm.solve()
        assert algorithm.estimator.delta_snapshot_passes == 1
        solved[use_kernel] = (
            result.seeds,
            result.allocation,
            result.expected_benefit,
            result.redemption_rate,
            result.num_maneuvers,
        )
    assert solved[True] == solved[False]


# ----------------------------------------------------------------------
# graceful degradation with no native backend
# ----------------------------------------------------------------------


@pytest.fixture
def no_native_backend(monkeypatch):
    """Make the C backend unresolvable, as if no C compiler existed;
    restores the real resolution afterwards."""
    monkeypatch.setattr(kernels, "_build_cc_library", lambda: (None, 0.0))
    kernels.reset_kernel_cache()
    yield
    kernels.reset_kernel_cache()


def test_engine_falls_back_with_warning_when_no_backend(no_native_backend, two_hop_path):
    compiled = two_hop_path.compiled()
    with pytest.warns(UserWarning, match="falling back to the interpreted"):
        engine = CompiledCascadeEngine(
            compiled, NUM_SAMPLES, seed=3, use_kernel=True
        )
    assert not engine.kernel_active
    assert engine.kernel_backend is None
    oracle = CompiledCascadeEngine(compiled, NUM_SAMPLES, seed=3, use_kernel=False)
    counts_f, benefit_f = engine.run(["a"], {"a": 1, "b": 1})
    counts_o, benefit_o = oracle.run(["a"], {"a": 1, "b": 1})
    assert (counts_f == counts_o).all()
    assert benefit_f == benefit_o


def test_auto_mode_falls_back_silently_when_no_backend(no_native_backend, two_hop_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine = CompiledCascadeEngine(
            two_hop_path.compiled(), NUM_SAMPLES, seed=3
        )
    assert not engine.kernel_active
    assert engine.kernel_compile_seconds == 0.0


def test_disable_env_forces_interpreted_path(monkeypatch, two_hop_path):
    monkeypatch.setenv(kernels.DISABLE_ENV, "1")
    kernels.reset_kernel_cache()
    try:
        assert kernels.native_disabled()
        assert kernels.load_kernel() is None
        engine = CompiledCascadeEngine(two_hop_path.compiled(), NUM_SAMPLES, seed=3)
        assert not engine.kernel_active
    finally:
        monkeypatch.delenv(kernels.DISABLE_ENV)
        kernels.reset_kernel_cache()
