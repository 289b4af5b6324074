"""Bit-parity tests: compiled cascade engine vs the dict-adjacency reference.

The engine must reproduce :func:`sample_worlds`' live-edge worlds and
:func:`cascade_in_world`'s cascades exactly for a fixed seed (common random
numbers included): identical activation probabilities, and expected benefits
equal up to floating-point summation order.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.diffusion.engine import CompiledCascadeEngine
from repro.diffusion.live_edge import cascade_in_world, sample_worlds
from repro.graph.csr import CompiledGraph
from repro.graph.generators import ppgg_like_graph, star_graph
from repro.graph.social_graph import SocialGraph


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
            st.sampled_from(possible), max_size=min(25, len(possible)), unique=True
        )
    )
    for source, target in chosen:
        graph.add_edge(
            source, target, draw(st.floats(min_value=0.0, max_value=1.0))
        )
    seeds = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True))
    allocation = {}
    for node in nodes:
        degree = graph.out_degree(node)
        if degree:
            allocation[node] = draw(st.integers(min_value=0, max_value=degree))
    return graph, seeds, allocation


def reference_estimates(graph, num_worlds, seed, seeds, allocation):
    """Activation probabilities and expected benefit from the reference loop.

    The engine cascades the seeds in canonical (``str``-sorted) order, and
    the queue order decides who gets a contested coupon, so the reference
    runs that order too.
    """
    seeds = sorted(seeds, key=str)
    counts = {}
    total = 0.0
    for world in sample_worlds(graph, num_worlds, seed):
        activated = cascade_in_world(graph, world, seeds, allocation)
        total += sum(graph.benefit(node) for node in activated)
        for node in activated:
            counts[node] = counts.get(node, 0) + 1
    probabilities = {node: count / num_worlds for node, count in counts.items()}
    return probabilities, total / num_worlds


@settings(max_examples=40, deadline=None)
@given(instance(), st.integers(min_value=0, max_value=2**31 - 1))
def test_activation_probabilities_bit_parity_with_dict_backend(data, seed):
    graph, seeds, allocation = data
    engine = CompiledCascadeEngine(graph, 25, seed=seed)
    expected, _ = reference_estimates(graph, 25, seed, seeds, allocation)
    assert engine.activation_probabilities(seeds, allocation) == expected


@settings(max_examples=40, deadline=None)
@given(instance(), st.integers(min_value=0, max_value=2**31 - 1))
def test_expected_benefit_parity_with_dict_backend(data, seed):
    graph, seeds, allocation = data
    engine = CompiledCascadeEngine(graph, 25, seed=seed)
    _, expected = reference_estimates(graph, 25, seed, seeds, allocation)
    assert engine.expected_benefit(seeds, allocation) == pytest.approx(
        expected, rel=1e-12, abs=1e-12
    )


def test_per_world_cascades_match_dict_worlds_exactly():
    """World *w* of the engine is bit-for-bit world *w* of sample_worlds."""
    graph = ppgg_like_graph(
        num_nodes=60, avg_out_degree=5.0, power_law_exponent=1.7,
        clustering=0.3, seed=3,
    )
    for node in graph.nodes():
        graph.add_node(node, benefit=1.0, seed_cost=1.0, sc_cost=1.0)
    num_worlds, seed = 20, 77
    worlds = sample_worlds(graph, num_worlds, seed)
    compiled = CompiledGraph.from_social_graph(graph)
    engine = CompiledCascadeEngine(compiled, num_worlds, seed)

    nodes = list(graph.nodes())
    seeds = nodes[:3]
    allocation = {node: min(graph.out_degree(node), 2) for node in nodes[:10]}
    seed_indices = compiled.indices_of(seeds)
    coupons = compiled.allocation_vector(allocation).tolist()
    for world_index, world in enumerate(worlds):
        expected = cascade_in_world(graph, world, seeds, allocation)
        actual = {
            compiled.node_of(i)
            for i in engine.cascade_world(world_index, seed_indices, coupons)
        }
        assert actual == expected


def test_seeds_outside_graph_are_skipped():
    graph = star_graph(4, probability=1.0)
    for node in graph.nodes():
        graph.add_node(node, benefit=1.0, seed_cost=1.0, sc_cost=1.0)
    engine = CompiledCascadeEngine(graph, 10, seed=0)
    assert engine.activation_probabilities(["ghost"], {}) == {}
    assert engine.expected_benefit(["ghost"], {}) == 0.0
    probabilities = engine.activation_probabilities(["ghost", 0], {0: 3})
    assert probabilities[0] == 1.0


def test_rejects_nonpositive_world_count():
    from repro.exceptions import EstimationError

    with pytest.raises(EstimationError):
        CompiledCascadeEngine(star_graph(3), 0)


def test_benefit_and_counts_come_from_the_same_pass():
    graph = star_graph(6, probability=0.5)
    for node in graph.nodes():
        graph.add_node(node, benefit=2.0, seed_cost=1.0, sc_cost=1.0)
    engine = CompiledCascadeEngine(graph, 200, seed=9)
    counts, benefit = engine.run([0], {0: 5})
    assert benefit == pytest.approx(2.0 * counts.sum() / 200)
