"""Tests for the Monte-Carlo expected-benefit estimator."""

import pytest

from repro.diffusion.exact import ExactEstimator
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.exceptions import EstimationError
from repro.graph.generators import path_graph, star_graph
from repro.graph.social_graph import SocialGraph


def unit_benefit(graph):
    for node in graph.nodes():
        graph.add_node(node, benefit=1.0, sc_cost=1.0, seed_cost=1.0)
    return graph


def test_zero_samples_rejected():
    graph = unit_benefit(path_graph(3))
    with pytest.raises(EstimationError):
        MonteCarloEstimator(graph, num_samples=0)


def test_expected_benefit_of_seed_only_is_its_benefit():
    graph = unit_benefit(path_graph(3, probability=0.5))
    graph.add_node(0, benefit=7.0)
    estimator = MonteCarloEstimator(graph, num_samples=50, seed=1)
    assert estimator.expected_benefit([0], {}) == pytest.approx(7.0)


def test_expected_benefit_deterministic_for_fixed_seed():
    graph = unit_benefit(star_graph(5, probability=0.4))
    first = MonteCarloEstimator(graph, num_samples=100, seed=3)
    second = MonteCarloEstimator(graph, num_samples=100, seed=3)
    allocation = {0: 3}
    assert first.expected_benefit([0], allocation) == second.expected_benefit(
        [0], allocation
    )


def test_monotone_in_allocation():
    graph = unit_benefit(star_graph(6, probability=0.5))
    estimator = MonteCarloEstimator(graph, num_samples=200, seed=2)
    small = estimator.expected_benefit([0], {0: 1})
    large = estimator.expected_benefit([0], {0: 5})
    assert large >= small


def test_close_to_exact_on_small_graph():
    graph = unit_benefit(star_graph(3, probability=0.5))
    exact = ExactEstimator(graph)
    monte_carlo = MonteCarloEstimator(graph, num_samples=4000, seed=5)
    allocation = {0: 2}
    assert monte_carlo.expected_benefit([0], allocation) == pytest.approx(
        exact.expected_benefit([0], allocation), rel=0.05
    )


def test_activation_probabilities_sum_and_range():
    graph = unit_benefit(star_graph(4, probability=0.5))
    estimator = MonteCarloEstimator(graph, num_samples=300, seed=4)
    probabilities = estimator.activation_probabilities([0], {0: 4})
    assert probabilities[0] == 1.0
    assert all(0.0 <= p <= 1.0 for p in probabilities.values())
    assert estimator.expected_spread([0], {0: 4}) == pytest.approx(
        sum(probabilities.values())
    )


def test_likely_activated_threshold():
    graph = unit_benefit(path_graph(3, probability=1.0))
    estimator = MonteCarloEstimator(graph, num_samples=20, seed=1)
    assert estimator.likely_activated([0], {0: 1, 1: 1}) == {0, 1, 2}
    assert estimator.likely_activated([0], {}) == {0}


def test_expected_activations_and_benefit_consistency():
    graph = unit_benefit(star_graph(3, probability=0.5))
    estimator = MonteCarloEstimator(graph, num_samples=500, seed=6)
    spread, benefit = estimator.expected_activations_and_benefit([0], {0: 3})
    assert benefit == pytest.approx(spread)  # all benefits are 1


def test_cache_returns_same_object_value_and_clear_works():
    graph = unit_benefit(star_graph(3, probability=0.5))
    estimator = MonteCarloEstimator(graph, num_samples=50, seed=7)
    before = estimator.evaluations
    value_one = estimator.expected_benefit([0], {0: 2})
    evaluations_after_first = estimator.evaluations
    value_two = estimator.expected_benefit([0], {0: 2})
    assert value_one == value_two
    assert estimator.evaluations == evaluations_after_first > before
    estimator.clear_cache()
    estimator.expected_benefit([0], {0: 2})
    assert estimator.evaluations == evaluations_after_first + 1


def test_allocation_key_ignores_zero_entries():
    graph = unit_benefit(star_graph(3, probability=0.5))
    estimator = MonteCarloEstimator(graph, num_samples=50, seed=8)
    assert estimator.expected_benefit([0], {0: 2, 1: 0}) == estimator.expected_benefit(
        [0], {0: 2}
    )


def test_empty_deployment_has_zero_benefit():
    graph = unit_benefit(path_graph(3))
    estimator = MonteCarloEstimator(graph, num_samples=10, seed=9)
    assert estimator.expected_benefit([], {}) == 0.0


def test_mixed_type_node_ids_key_memoise_and_delta():
    """An int-id graph that gained a str-id node keys, memoises and deltas."""
    graph = unit_benefit(star_graph(3, probability=0.5))
    graph.add_node("newbie", benefit=2.0, sc_cost=1.0, seed_cost=1.0)
    graph.add_edge(0, "newbie", 0.6)
    graph.add_edge("newbie", 1, 0.7)
    estimator = MonteCarloEstimator(graph, num_samples=40, seed=4)
    allocation = {0: 2, "newbie": 1}
    benefit = estimator.expected_benefit([0, "newbie"], allocation)
    evaluations = estimator.evaluations
    # Same deployment, other iteration orders: one memo entry.
    assert estimator.expected_benefit(["newbie", 0], {"newbie": 1, 0: 2}) == benefit
    assert estimator.evaluations == evaluations
    assert estimator._key([0], allocation) == estimator._key([0], {"newbie": 1, 0: 2})

    outcome = estimator.delta_extra_coupon([0], {0: 2}, "newbie", [0], allocation)
    cold = MonteCarloEstimator(graph, num_samples=40, seed=4, incremental=False)
    assert outcome.benefit == cold.expected_benefit([0], allocation)
