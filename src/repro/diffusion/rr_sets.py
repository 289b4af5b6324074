"""Reverse-reachable (RR) set estimation for plain-IC influence.

The IM literature the paper builds its baselines on (Tang et al.'s TIM/IMM
line, cited as the "reverse greedy" speed-up in Sec. V) estimates influence
spreads from *reverse-reachable sets*: pick a random target user, reveal the
in-edges that are live in one coin-flip world, and collect every user that can
reach the target through live edges.  The expected spread of a seed set ``S``
is then ``n * P(S hits a random RR set)``, and greedy seed selection becomes a
maximum-coverage problem over the sampled RR sets.

This module provides that machinery for the **plain IC model** (the model the
IM/PM baselines reason in).  It is used as a faster backend for the IM
selector on larger graphs and as an independent cross-check of the
Monte-Carlo estimator in tests.  Note that it does not apply to the
SC-constrained cascade: coupon limits break the reverse-reachability argument
because whether an edge can carry influence depends on how many *other*
neighbours redeemed first.

Backends
--------
Sampling runs over a reverse-adjacency CSR built once per sampler
(``backend="csr"``, the default): per BFS-popped node the in-edge slice is
masked against a visited stamp array and the survivors' coin flips are drawn
with one vectorized ``rng.random(k)`` call.  Because numpy's ``Generator``
fills a size-``k`` request with exactly the ``k`` doubles that ``k`` scalar
calls would produce, and the reverse CSR preserves each node's
``in_neighbors`` iteration order, the CSR sampler consumes the RNG stream
*identically* to the original dict-adjacency BFS — the sets are bit-for-bit
equal (property-tested in ``tests/properties/test_rr_parity.py``).  The dict
path is kept as the parity oracle (``backend="dict"``).

Either way the sampled sets land in flat int arrays (``rr_flat`` /
``rr_offsets`` / ``root_index``) plus an inverted membership CSR, so coverage
queries are vectorized and the arrays can ride the shared-memory machinery
unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.diffusion.estimator import BenefitEstimator
from repro.exceptions import EstimationError
from repro.graph.social_graph import SocialGraph
from repro.utils.indexed_heap import IndexedMaxHeap
from repro.utils.rng import SeedLike, spawn_rng

NodeId = Hashable

SAMPLER_BACKENDS = ("csr", "dict")


class RRSetSampler:
    """Sampler and coverage-based spread estimator over RR sets.

    Parameters
    ----------
    graph:
        The social graph (only edge probabilities are used).
    num_sets:
        Number of RR sets to sample.  More sets = lower estimation variance.
    seed:
        RNG seed; the sampler is fully deterministic given it.
    backend:
        ``"csr"`` (default) samples over the flat reverse-adjacency arrays;
        ``"dict"`` keeps the original dict-adjacency BFS as the parity
        oracle.  Both produce bit-identical sets for the same seed.
    """

    def __init__(
        self,
        graph: SocialGraph,
        num_sets: int = 2000,
        seed: SeedLike = None,
        backend: str = "csr",
    ) -> None:
        if num_sets <= 0:
            raise EstimationError(f"num_sets must be > 0, got {num_sets}")
        if backend not in SAMPLER_BACKENDS:
            raise EstimationError(
                f"unknown RR sampler backend {backend!r}; pick one of {SAMPLER_BACKENDS}"
            )
        self.graph = graph
        self.num_sets = int(num_sets)
        self.backend = backend
        self._rng = spawn_rng(seed)
        self._nodes: List[NodeId] = list(graph.nodes())
        if not self._nodes:
            raise EstimationError("cannot sample RR sets of an empty graph")
        self.index_of: Dict[NodeId, int] = {
            node: index for index, node in enumerate(self._nodes)
        }
        #: Flat node-index storage of the sampled sets: set ``i`` is
        #: ``rr_flat[rr_offsets[i]:rr_offsets[i+1]]`` (in BFS visit order).
        self.rr_flat: np.ndarray
        self.rr_offsets: np.ndarray
        #: Node index of each set's random target.
        self.root_index: np.ndarray
        self._materialized: Optional[List[FrozenSet[NodeId]]] = None
        self._mem_offsets: Optional[np.ndarray] = None
        self._mem_sets: Optional[np.ndarray] = None
        if backend == "csr":
            self._build_reverse_csr()
            self._sample_all_csr()
        else:
            self._sample_all_dict()
        self.roots: List[NodeId] = [self._nodes[i] for i in self.root_index]

    @property
    def nodes(self) -> Sequence[NodeId]:
        """Node ids in index order (the inverse of :attr:`index_of`)."""
        return self._nodes

    @property
    def rr_sets(self) -> List[FrozenSet[NodeId]]:
        """The sampled sets as node-id frozensets (materialized lazily)."""
        if self._materialized is None:
            nodes = self._nodes
            flat = self.rr_flat
            offsets = self.rr_offsets
            self._materialized = [
                frozenset(nodes[j] for j in flat[offsets[i] : offsets[i + 1]])
                for i in range(self.num_sets)
            ]
        return self._materialized

    # ------------------------------------------------------------------
    # sampling backends

    def _build_reverse_csr(self) -> None:
        """Reverse adjacency in ``in_neighbors`` iteration order per node.

        The per-node ordering matters: the BFS draws one coin per unvisited
        in-neighbour in iteration order, so preserving it is what keeps the
        CSR backend bit-identical to the dict path.
        """
        index_of = self.index_of
        offsets = np.zeros(len(self._nodes) + 1, dtype=np.int64)
        source_chunks: List[np.ndarray] = []
        prob_chunks: List[np.ndarray] = []
        for index, node in enumerate(self._nodes):
            preds = self.graph.in_neighbors(node)
            offsets[index + 1] = offsets[index] + len(preds)
            if preds:
                source_chunks.append(
                    np.fromiter(
                        (index_of[source] for source in preds), np.int64, len(preds)
                    )
                )
                prob_chunks.append(
                    np.fromiter(preds.values(), np.float64, len(preds))
                )
        self._rin_offsets = offsets
        if source_chunks:
            self._rin_sources = np.concatenate(source_chunks)
            self._rin_probs = np.concatenate(prob_chunks)
        else:
            self._rin_sources = np.empty(0, dtype=np.int64)
            self._rin_probs = np.empty(0, dtype=np.float64)

    def _sample_all_csr(self) -> None:
        rng = self._rng
        num_nodes = len(self._nodes)
        offsets = self._rin_offsets
        sources = self._rin_sources
        probs = self._rin_probs
        stamp = np.full(num_nodes, -1, dtype=np.int64)
        queue = np.empty(num_nodes, dtype=np.int64)
        root_index = np.empty(self.num_sets, dtype=np.int64)
        rr_offsets = np.zeros(self.num_sets + 1, dtype=np.int64)
        chunks: List[np.ndarray] = []
        for set_id in range(self.num_sets):
            target = int(rng.integers(0, num_nodes))
            root_index[set_id] = target
            stamp[target] = set_id
            queue[0] = target
            head, tail = 0, 1
            while head < tail:
                node = int(queue[head])
                head += 1
                lo = offsets[node]
                hi = offsets[node + 1]
                if lo == hi:
                    continue
                in_sources = sources[lo:hi]
                unvisited = stamp[in_sources] != set_id
                candidates = in_sources[unvisited]
                if candidates.size == 0:
                    continue
                draws = rng.random(candidates.size)
                accepted = candidates[draws < probs[lo:hi][unvisited]]
                if accepted.size:
                    stamp[accepted] = set_id
                    queue[tail : tail + accepted.size] = accepted
                    tail += accepted.size
            chunks.append(queue[:tail].copy())
            rr_offsets[set_id + 1] = rr_offsets[set_id] + tail
        self.rr_flat = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        self.rr_offsets = rr_offsets
        self.root_index = root_index

    def _sample_all_dict(self) -> None:
        sampled = [self._sample_one_dict() for _ in range(self.num_sets)]
        index_of = self.index_of
        rr_offsets = np.zeros(self.num_sets + 1, dtype=np.int64)
        chunks: List[np.ndarray] = []
        root_index = np.empty(self.num_sets, dtype=np.int64)
        for set_id, (root, members) in enumerate(sampled):
            root_index[set_id] = index_of[root]
            rr_offsets[set_id + 1] = rr_offsets[set_id] + len(members)
            chunks.append(
                np.fromiter(
                    (index_of[node] for node in members), np.int64, len(members)
                )
            )
        self.rr_flat = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        self.rr_offsets = rr_offsets
        self.root_index = root_index
        self._materialized = [frozenset(members) for _, members in sampled]

    def _sample_one_dict(self) -> Tuple[NodeId, Set[NodeId]]:
        """One RR set: reverse BFS from a random target over live in-edges."""
        target = self._nodes[int(self._rng.integers(0, len(self._nodes)))]
        visited: Set[NodeId] = {target}
        frontier = deque([target])
        while frontier:
            node = frontier.popleft()
            for source, probability in self.graph.in_neighbors(node).items():
                if source in visited:
                    continue
                if self._rng.random() < probability:
                    visited.add(source)
                    frontier.append(source)
        return target, visited

    # ------------------------------------------------------------------
    # membership CSR (node -> sampled sets containing it) and coverage

    def _ensure_membership(self) -> None:
        if self._mem_offsets is not None:
            return
        num_nodes = len(self._nodes)
        counts = np.bincount(self.rr_flat, minlength=num_nodes)
        order = np.argsort(self.rr_flat, kind="stable")
        set_ids = np.repeat(
            np.arange(self.num_sets, dtype=np.int64), np.diff(self.rr_offsets)
        )
        self._mem_sets = set_ids[order]
        self._mem_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self._mem_offsets[1:])

    def member_sets(self, index: int) -> np.ndarray:
        """Ids of the sampled sets containing node *index* (ascending)."""
        self._ensure_membership()
        assert self._mem_offsets is not None and self._mem_sets is not None
        return self._mem_sets[self._mem_offsets[index] : self._mem_offsets[index + 1]]

    def _seed_indices(self, seeds: Iterable[NodeId]) -> List[int]:
        index_of = self.index_of
        return [index_of[seed] for seed in set(seeds) if seed in index_of]

    def hit_mask(self, seed_indices: Sequence[int]) -> np.ndarray:
        """Boolean mask over set ids: which sampled sets the seeds hit."""
        self._ensure_membership()
        assert self._mem_offsets is not None and self._mem_sets is not None
        hit = np.zeros(self.num_sets, dtype=bool)
        offsets, members = self._mem_offsets, self._mem_sets
        for index in seed_indices:
            hit[members[offsets[index] : offsets[index + 1]]] = True
        return hit

    def hit_root_counts(self, seed_indices: Sequence[int]) -> np.ndarray:
        """Per-root counts of hit sets: entry ``r`` = #{sets rooted at ``r`` hit}."""
        hit_ids = np.flatnonzero(self.hit_mask(seed_indices))
        return np.bincount(
            self.root_index[hit_ids], minlength=len(self._nodes)
        )

    def coverage(self, seeds: Iterable[NodeId]) -> int:
        """Number of sampled RR sets hit by ``seeds``."""
        seed_indices = self._seed_indices(seeds)
        if not seed_indices:
            return 0
        return int(self.hit_mask(seed_indices).sum())

    def expected_spread(self, seeds: Iterable[NodeId]) -> float:
        """Estimated expected number of activated users under plain IC."""
        return self.graph.num_nodes * self.coverage(seeds) / self.num_sets

    def greedy_seeds(self, k: int) -> List[NodeId]:
        """Greedy maximum coverage over the RR sets (the RR-set IM solver).

        Returns up to ``k`` seeds in selection order.  Uses the standard lazy
        evaluation: node gains only decrease as sets get covered, so a stale
        heap priority is always an upper bound.
        """
        if k <= 0:
            return []
        membership: Dict[NodeId, List[int]] = {}
        for index, rr in enumerate(self.rr_sets):
            for node in rr:
                membership.setdefault(node, []).append(index)

        heap: IndexedMaxHeap = IndexedMaxHeap()
        for node, sets in membership.items():
            heap.push(node, float(len(sets)))

        covered = [False] * self.num_sets
        stale: Dict[NodeId, bool] = {node: False for node in membership}
        selected: List[NodeId] = []
        while heap and len(selected) < k:
            node, gain = heap.pop()
            if stale[node]:
                fresh_gain = float(
                    sum(1 for index in membership[node] if not covered[index])
                )
                stale[node] = False
                heap.push(node, fresh_gain)
                continue
            if gain <= 0:
                break
            selected.append(node)
            for index in membership[node]:
                covered[index] = True
            for other in stale:
                stale[other] = True
        return selected


class RRBenefitEstimator(BenefitEstimator):
    """RR-set-backed :class:`BenefitEstimator` for the plain-IC regime.

    The RR-set argument applies to the **unlimited-coupon** relaxation of the
    SC-constrained cascade (plain IC): the coupon allocation passed to
    :meth:`expected_benefit` / :meth:`activation_probabilities` is ignored and
    every activated user is assumed able to refer all her friends.  That makes
    this estimator an *upper-bound* oracle — useful for the IM-U/PM-U
    baselines and for cross-checking the Monte-Carlo estimator — but NOT a
    drop-in replacement inside the coupon aware greedy phases; use the
    ``mc-compiled`` method there.

    A node's activation probability is estimated from the RR sets *rooted at
    that node*: ``P(v active | S) ~ fraction of RR(v) samples hit by S``.
    With ``num_sets`` samples spread uniformly over roots, each node gets
    about ``num_sets / n`` of them, so size ``num_sets`` accordingly (the
    factory defaults to a multiple of ``n``).
    """

    def __init__(
        self,
        graph: SocialGraph,
        num_sets: int = 2000,
        seed: SeedLike = None,
        backend: str = "csr",
    ) -> None:
        super().__init__(graph)
        self.sampler = RRSetSampler(
            graph, num_sets=num_sets, seed=seed, backend=backend
        )
        self._by_root: Dict[NodeId, List[int]] = {}
        for index, root in enumerate(self.sampler.roots):
            self._by_root.setdefault(root, []).append(index)

    def activation_probabilities(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Dict[NodeId, float]:
        seed_set = {seed for seed in seeds if seed in self.graph}
        if not seed_set:
            return {}
        sampler = self.sampler
        hits = sampler.hit_root_counts(
            [sampler.index_of[seed] for seed in seed_set]
        )
        index_of = sampler.index_of
        probabilities: Dict[NodeId, float] = {}
        for root, indices in self._by_root.items():
            hit = int(hits[index_of[root]])
            if hit:
                probabilities[root] = hit / len(indices)
        for seed in seed_set:  # seeds are certainly active, sampled or not
            probabilities[seed] = 1.0
        return probabilities

    def expected_benefit(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> float:
        probabilities = self.activation_probabilities(seeds, allocation)
        graph = self.graph
        return sum(
            graph.benefit(node) * probability
            for node, probability in probabilities.items()
        )


def estimate_spread_rr(
    graph: SocialGraph,
    seeds: Sequence[NodeId],
    num_sets: int = 2000,
    seed: SeedLike = None,
) -> float:
    """One-shot RR-set spread estimate (convenience wrapper)."""
    sampler = RRSetSampler(graph, num_sets=num_sets, seed=seed)
    return sampler.expected_spread(seeds)
