"""Parity suite: the CSR RR-set sampler vs the dict-adjacency oracle.

The CSR backend of :class:`~repro.diffusion.rr_sets.RRSetSampler` promises
*bit-identity* with the original dict-adjacency reverse BFS: because numpy's
``Generator`` fills a size-``k`` request with exactly the ``k`` doubles that
``k`` scalar calls would produce, and the reverse CSR preserves each node's
``in_neighbors`` iteration order, both backends consume the RNG stream
identically — the same targets are drawn and the same coins accepted, for any
graph and seed.  These tests pin that contract at the sampler level (sets,
roots, flat-array shape), at the coverage level, and through
:class:`~repro.diffusion.rr_sets.RRBenefitEstimator`'s probability and
benefit surfaces.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.diffusion.rr_sets import RRBenefitEstimator, RRSetSampler
from repro.graph.social_graph import SocialGraph

NUM_SETS = 40


@st.composite
def graph_instance(draw):
    """Random attributed digraph (possibly sparse, possibly disconnected)."""
    num_nodes = draw(st.integers(min_value=1, max_value=12))
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
        if possible
        else st.just([])
    )
    for source, target in chosen:
        graph.add_edge(source, target, draw(st.floats(min_value=0.0, max_value=1.0)))
    return graph


def _sampler_pair(graph, seed):
    csr = RRSetSampler(graph, num_sets=NUM_SETS, seed=seed, backend="csr")
    oracle = RRSetSampler(graph, num_sets=NUM_SETS, seed=seed, backend="dict")
    return csr, oracle


@settings(max_examples=30, deadline=None)
@given(graph_instance(), st.integers(min_value=0, max_value=2**31 - 1))
def test_csr_sampler_bit_identical_to_dict_oracle(graph, seed):
    csr, oracle = _sampler_pair(graph, seed)
    assert csr.roots == oracle.roots
    assert (csr.root_index == oracle.root_index).all()
    assert csr.rr_sets == oracle.rr_sets
    # Same per-set sizes, so the flat storage agrees structurally too.
    assert (csr.rr_offsets == oracle.rr_offsets).all()


@settings(max_examples=20, deadline=None)
@given(
    graph_instance(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.data(),
)
def test_coverage_and_spread_match_across_backends(graph, seed, data):
    csr, oracle = _sampler_pair(graph, seed)
    nodes = list(graph.nodes())
    seeds = data.draw(
        st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True)
    )
    assert csr.coverage(seeds) == oracle.coverage(seeds)
    assert csr.expected_spread(seeds) == oracle.expected_spread(seeds)
    indices = [csr.index_of[node] for node in seeds]
    assert (csr.hit_mask(indices) == oracle.hit_mask(indices)).all()
    assert (csr.hit_root_counts(indices) == oracle.hit_root_counts(indices)).all()


@settings(max_examples=20, deadline=None)
@given(
    graph_instance(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.data(),
)
def test_rr_estimator_probabilities_and_bounds_match(graph, seed, data):
    csr = RRBenefitEstimator(graph, num_sets=NUM_SETS, seed=seed, backend="csr")
    oracle = RRBenefitEstimator(graph, num_sets=NUM_SETS, seed=seed, backend="dict")
    nodes = list(graph.nodes())
    seeds = data.draw(
        st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True)
    )
    assert csr.activation_probabilities(seeds, {}) == (
        oracle.activation_probabilities(seeds, {})
    )
    assert csr.expected_benefit(seeds, {}) == oracle.expected_benefit(seeds, {})


def test_greedy_seeds_identical_across_backends():
    rng = np.random.default_rng(7)
    graph = SocialGraph()
    for node in range(30):
        graph.add_node(node, benefit=1.0, sc_cost=1.0, seed_cost=1.0)
    for _ in range(120):
        source, target = rng.integers(0, 30, size=2)
        if source != target:
            graph.add_edge(int(source), int(target), float(rng.random()))
    csr, oracle = _sampler_pair(graph, seed=13)
    assert csr.greedy_seeds(5) == oracle.greedy_seeds(5)
