"""Layered world sampling after many graph-event batches.

Every event batch that adds edges appends one RNG stream layer to the
:class:`~repro.diffusion.engine.WorldSampler`.  The draws of every non-base
layer are generated once for all worlds and kept in a column store, so a
block draw costs one base-layer generator at any uptime.  These tests pin:

* bit-identity of ``draw_block_private`` and ``draws_at`` with the
  per-layer, per-world generator loop (kept below as the oracle) after more
  than fifty rekeys of widths 0, 1 and more than one store chunk;
* that generator constructions per block draw do not depend on the number
  of layers;
* that the store stays out of pickles (pool broadcasts do not grow with
  uptime) and is refilled identically after unpickling;
* that two different rekeys of one parent never read each other's columns.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.diffusion import engine as engine_module
from repro.diffusion.engine import FlatWorldBlock, WorldSampler
from repro.graph.events import EdgeAdd, EdgeDrop, EdgeReweight, GraphEventBatch
from repro.graph.social_graph import SocialGraph

NUM_WORLDS = 12
NUM_NODES = 40


# ----------------------------------------------------------------------
# oracle: one generator per layer, advanced per world
# ----------------------------------------------------------------------


def _oracle_world_draws(sampler, start, count):
    """Every draw of worlds ``start .. start+count-1``, layer by layer."""
    generators = [
        sampler._layer_generator(state, width, start)
        for state, width in sampler.layers
    ]
    rows = np.empty((count, sampler.compiled.num_draws), dtype=np.float64)
    for slot in range(count):
        low = 0
        for generator, (_, width) in zip(generators, sampler.layers):
            rows[slot, low : low + width] = generator.random(width)
            low += width
    return rows


def _oracle_block(sampler, start, count):
    compiled = sampler.compiled
    rows = _oracle_world_draws(sampler, start, count)
    target_parts = []
    offsets = np.empty((count, compiled.num_nodes + 1), dtype=np.int64)
    base = 0
    for slot in range(count):
        live_slots = np.flatnonzero(rows[slot][compiled.edge_pos] < compiled.probs)
        target_parts.append(compiled.indices[live_slots].astype(np.int32))
        offsets[slot] = np.searchsorted(live_slots, compiled.indptr) + base
        base += live_slots.size
    return FlatWorldBlock(np.concatenate(target_parts), offsets, count)


def _oracle_draws_at(sampler, positions, num_worlds):
    return _oracle_world_draws(sampler, 0, num_worlds)[:, positions]


def _assert_blocks_equal(block, expected):
    assert block.count == expected.count
    np.testing.assert_array_equal(block.targets, expected.targets)
    np.testing.assert_array_equal(block.offsets, expected.offsets)


def _assert_matches_oracle(sampler, num_worlds=NUM_WORLDS):
    for start, count in [(0, num_worlds), (3, 5), (num_worlds - 1, 1)]:
        _assert_blocks_equal(
            sampler.draw_block_private(start, count),
            _oracle_block(sampler, start, count),
        )
    num_draws = sampler.compiled.num_draws
    base_width = sampler.layers[0][1]
    wanted = {0, base_width - 1, base_width, num_draws - 1, num_draws // 2}
    positions = np.array(
        sorted(position for position in wanted if position < num_draws),
        dtype=np.int64,
    )
    assert np.array_equal(
        sampler.draws_at(positions, num_worlds),
        _oracle_draws_at(sampler, positions, num_worlds),
    )


# ----------------------------------------------------------------------
# graphs that evolve through event batches
# ----------------------------------------------------------------------


def _graph(seed=3):
    rng = np.random.default_rng(seed)
    graph = SocialGraph()
    for node in range(NUM_NODES):
        graph.add_node(node, benefit=1.0, seed_cost=1.0, sc_cost=1.0)
    while graph.num_edges < 90:
        source, target = (int(v) for v in rng.integers(0, NUM_NODES, size=2))
        if source != target and not graph.has_edge(source, target):
            graph.add_edge(source, target, float(rng.uniform(0.05, 0.9)))
    return graph


def _absent_edges(graph, count, rng):
    found = []
    while len(found) < count:
        source, target = (int(v) for v in rng.integers(0, NUM_NODES, size=2))
        if source != target and not graph.has_edge(source, target) and (
            (source, target) not in found
        ):
            found.append((source, target))
    return found


def _batch(graph, new_edges, rng):
    """A batch adding ``new_edges`` edges (one draw position each)."""
    edges = sorted(graph.edges(), key=lambda e: (e[0], e[1]))
    source, target, _ = edges[int(rng.integers(len(edges)))]
    if new_edges == 0:
        return GraphEventBatch([EdgeReweight(source, target, 0.5)])
    events = [EdgeDrop(source, target)]
    for u, v in _absent_edges(graph, new_edges, rng):
        events.append(EdgeAdd(u, v, float(rng.uniform(0.05, 0.9))))
    return GraphEventBatch(events)


#: New draw positions per batch: widths 0, 1, a few, and one batch wider
#: than a store chunk; 55 batches in all.
WIDTHS = [1, 0, 1, 3, 1, 1, 0, 2] * 6 + [engine_module._DRAW_CHUNK + 5] + [1] * 6


def _evolve(graph, sampler, widths, seed=11):
    rng = np.random.default_rng(seed)
    for width in widths:
        application = graph.apply_events(_batch(graph, width, rng))
        assert application.num_new_draws == width
        sampler = sampler.rekey(application.compiled, application.num_new_draws)
    return sampler


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_worlds", [NUM_WORLDS, None])
def test_draws_bit_identical_to_per_layer_loop_after_many_rekeys(num_worlds):
    graph = _graph()
    sampler = WorldSampler(graph.compiled(), seed=19, num_worlds=num_worlds)
    _assert_matches_oracle(sampler)
    rng = np.random.default_rng(11)
    for step, width in enumerate(WIDTHS):
        application = graph.apply_events(_batch(graph, width, rng))
        sampler = sampler.rekey(application.compiled, application.num_new_draws)
        if step % 9 == 0 or width > engine_module._DRAW_CHUNK:
            _assert_matches_oracle(sampler)
    assert len(WIDTHS) > 50
    assert len(sampler.layers) == 1 + sum(1 for width in WIDTHS if width)
    assert sampler._draws.width > engine_module._DRAW_CHUNK
    _assert_matches_oracle(sampler)


def test_generator_constructions_per_block_do_not_grow_with_layers(monkeypatch):
    constructions = []
    real = WorldSampler._layer_generator

    def counting(self, state, width, world_index):
        constructions.append(width)
        return real(self, state, width, world_index)

    monkeypatch.setattr(WorldSampler, "_layer_generator", counting)
    graph = _graph()
    sampler = WorldSampler(graph.compiled(), seed=19, num_worlds=NUM_WORLDS)
    rng = np.random.default_rng(5)
    per_block = []
    for width in [1] * 60:
        application = graph.apply_events(_batch(graph, width, rng))
        sampler = sampler.rekey(application.compiled, application.num_new_draws)
        # The first draw after a rekey generates the one new layer once.
        constructions.clear()
        sampler.draw_block_private(0, NUM_WORLDS)
        assert len(constructions) == 2
        constructions.clear()
        sampler.draw_block_private(4, 5)
        per_block.append(len(constructions))
    assert len(sampler.layers) == 61
    assert set(per_block) == {1}


def test_pickle_size_does_not_grow_with_the_store():
    graph = _graph()
    sampler = _evolve(graph, WorldSampler(graph.compiled(), seed=19, num_worlds=4), WIDTHS[:20])
    empty = len(pickle.dumps(sampler))
    sampler.draw_block_private(0, 4)
    assert sampler._draws is not None
    assert len(pickle.dumps(sampler)) == empty

    wide = sampler.with_compiled(sampler.compiled, num_worlds=500)
    wide_empty = len(pickle.dumps(wide))
    wide.draw_block_private(0, 500)
    assert wide._draws.num_worlds == 500
    assert len(pickle.dumps(wide)) == wide_empty

    # An unpickled sampler refills its store and draws the same worlds.
    clone = pickle.loads(pickle.dumps(sampler))
    assert clone._draws is None
    _assert_blocks_equal(
        clone.draw_block_private(0, 4), sampler.draw_block_private(0, 4)
    )


def test_sibling_rekeys_do_not_see_each_others_columns():
    graph = _graph()
    parent = _evolve(graph, WorldSampler(graph.compiled(), seed=19, num_worlds=NUM_WORLDS), WIDTHS[:10])
    parent.draw_block_private(0, NUM_WORLDS)
    graph_a = copy.deepcopy(graph)
    graph_b = copy.deepcopy(graph)

    first = _evolve(graph_a, parent, [3], seed=1)
    first.draw_block_private(0, NUM_WORLDS)
    # Same store, first's layer appended in place.
    assert first._draws is parent._draws
    second = _evolve(graph_b, parent, [5], seed=2)
    _assert_matches_oracle(second)
    assert second._draws is not first._draws

    # Neither the first sibling nor the parent saw the second's columns,
    # and both keep growing correctly.
    _assert_matches_oracle(first)
    _assert_matches_oracle(parent)
    _assert_matches_oracle(_evolve(graph_a, first, [2], seed=3))
    _assert_matches_oracle(_evolve(graph_b, second, [1, 4], seed=4))
    _assert_matches_oracle(parent)


def test_event_ingestion_generates_each_new_layer_once(monkeypatch):
    """The estimator probes dirty worlds on the evolved sampler and hands it
    to the engine, so a batch's new layer is generated once, not once per
    rekey, and the engine's sampler draws what the oracle draws."""
    from repro.diffusion.monte_carlo import MonteCarloEstimator

    graph = _graph()
    estimator = MonteCarloEstimator(
        graph, num_samples=NUM_WORLDS, seed=19, shared_memory=False
    )
    estimator.snapshot_base([0, 1], {0: 1, 1: 2})
    later_layers = []
    real = WorldSampler._layer_generator

    def counting(self, state, width, world_index):
        if state is not self.layers[0][0]:
            later_layers.append(width)
        return real(self, state, width, world_index)

    monkeypatch.setattr(WorldSampler, "_layer_generator", counting)
    rng = np.random.default_rng(7)
    for width in [2, 1, 3, 1]:
        later_layers.clear()
        outcome = estimator.ingest_events(_batch(graph, width, rng))
        assert outcome.reconciled
        assert later_layers == [width]
    sampler = estimator._engine.sampler
    assert len(sampler.layers) == 5
    monkeypatch.undo()
    _assert_matches_oracle(sampler)
