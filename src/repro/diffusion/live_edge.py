"""Live-edge world realisations.

Kempe et al.'s equivalence between the IC model and live-edge graphs also
holds for the SC-constrained cascade once the sequential coupon-handout order
is fixed: toss one coin per edge up front (the edge is *live* with its
influence probability), then run the deterministic cascade in which an attempt
succeeds exactly when its edge is live.  Sharing the same set of worlds across
the deployments compared inside a greedy iteration (common random numbers)
makes marginal-redemption comparisons far less noisy than independent
simulations, which is essential for the greedy phases of S3CA.

This module is the *reference* implementation of world sampling and the
in-world cascade.  The compiled engine
(:class:`repro.diffusion.engine.CompiledCascadeEngine`) reproduces it bit for
bit on CSR arrays and runs every Monte-Carlo estimate; the exact estimator
and the parity tests use this module directly.  Keep the two in lockstep when
changing cascade semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Set, Tuple

from repro.graph.social_graph import SocialGraph
from repro.utils.rng import SeedLike, spawn_rng

NodeId = Hashable
EdgeKey = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class LiveEdgeWorld:
    """One deterministic realisation: the set of live edges."""

    live_edges: frozenset

    def is_live(self, source: NodeId, target: NodeId) -> bool:
        """Whether the directed edge is live in this world."""
        return (source, target) in self.live_edges

    def as_outcomes(self) -> Dict[EdgeKey, bool]:
        """Dictionary view compatible with ``simulate_sc_cascade(edge_outcomes=...)``."""
        return {edge: True for edge in self.live_edges}


def sample_worlds(
    graph: SocialGraph,
    num_worlds: int,
    rng: SeedLike = None,
) -> List[LiveEdgeWorld]:
    """Draw ``num_worlds`` independent live-edge worlds for ``graph``."""
    generator = spawn_rng(rng)
    edges = list(graph.edges())
    worlds: List[LiveEdgeWorld] = []
    for _ in range(num_worlds):
        draws = generator.random(len(edges))
        live = frozenset(
            (source, target)
            for (source, target, probability), draw in zip(edges, draws)
            if draw < probability
        )
        worlds.append(LiveEdgeWorld(live))
    return worlds


def cascade_in_world(
    graph: SocialGraph,
    world: LiveEdgeWorld,
    seeds: Iterable[NodeId],
    allocation: Mapping[NodeId, int],
) -> Set[NodeId]:
    """Deterministic SC-constrained cascade inside one live-edge world.

    The semantics match :func:`repro.diffusion.sc_cascade.simulate_sc_cascade`
    with ``edge_outcomes`` taken from the world: each activated coupon holder
    walks her neighbours in decreasing probability order and spends a coupon on
    every live edge to a not-yet-active neighbour until her coupons run out.
    """
    from collections import deque

    activated: Set[NodeId] = set()
    queue: deque = deque()
    for seed in seeds:
        if seed in graph and seed not in activated:
            activated.add(seed)
            queue.append(seed)
    while queue:
        user = queue.popleft()
        coupons = int(allocation.get(user, 0))
        if coupons <= 0:
            continue
        redeemed = 0
        for neighbor, _probability in graph.ranked_out_neighbors(user):
            if redeemed >= coupons:
                break
            if neighbor in activated:
                continue
            if world.is_live(user, neighbor):
                activated.add(neighbor)
                queue.append(neighbor)
                redeemed += 1
    return activated
