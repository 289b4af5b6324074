"""Incremental delta-evaluation of single-investment deployment changes.

The greedy phases of S3CA only ever ask the estimator about deployments that
differ from a known *base* by exactly one investment: one extra coupon on some
node, or one new seed.  :class:`DeltaCascadeEngine` exploits that structure:
it snapshots the base deployment's per-world cascades once (an instrumented
full pass over the shared live-edge worlds) and then answers delta queries by
re-simulating **only** the worlds in which the change can possibly alter the
outcome, splicing the per-world differences into the base activation counts.

Which worlds can change is an exact property of the deterministic
SC-constrained cascade:

* **extra coupon on ``v``** — the coupon vector is only read when a node is
  dequeued, so if ``v`` never activates in a world the cascade is unchanged;
  if ``v`` activates but its hand-out walk was not coupon-limited (it
  reached the end of its live edge list, or stopped with coupons to spare)
  an extra coupon is never spent and the walk is again unchanged.  Only the
  worlds in which ``v``'s walk was *coupon-limited* need re-simulation.
* **new seed ``v``** — in worlds where ``v`` was already inactive, no base
  node ever reached ``v`` with a spare coupon (otherwise ``v`` would have
  activated), so pre-visiting ``v`` changes nothing about the base portion;
  if additionally ``v`` holds no coupons or has no live out-edges, the
  outcome is exactly the base activation set plus ``v``.  Every other world
  (``v`` active in the base — activation *order* shifts — or ``v`` able to
  spread) is re-simulated.

Bit-identical parity
--------------------
All bookkeeping is integer activation counts, so splicing is exact: the
resulting count vector equals the one a fresh
:meth:`~repro.diffusion.engine.CompiledCascadeEngine.run` would produce, and
the expected benefit is computed with the same ``counts @ benefits /
num_worlds`` expression — the delta path is bit-for-bit identical to the full
pass, not merely close.  :class:`DeltaOutcome` additionally carries the
sparse count delta so a caller can cheaply *re-derive* the benefit against a
newer snapshot (see :meth:`DeltaCascadeEngine.refresh_benefit`), plus the
re-simulated world indices and the coupon-limited nodes observed inside them
— the ingredients of the exact cache-invalidation rule used by the CELF lazy
queue in :mod:`repro.core.investment`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.diffusion.engine import CompiledCascadeEngine
from repro.exceptions import EstimationError

NodeId = Hashable


class DeltaOutcome:
    """Result of one delta evaluation.

    Attributes
    ----------
    benefit:
        Expected benefit of the new deployment — bit-identical to a full
        engine pass when ``exact`` is ``True``.
    delta_index / delta_values:
        Sparse difference between the new and the base activation-count
        vectors (``None`` when the evaluation fell back to a full pass).
    dirty_worlds:
        World indices that were re-simulated (``None`` on fallback); these
        are the only worlds whose base outcome the accepted investment can
        change.
    touched:
        Node identifiers that were coupon-limited inside any re-simulated
        world: raising *their* coupon count is the only single-node increment
        that could alter those re-simulations.
    exact:
        ``False`` when the query did not match the snapshot (different seed
        order, multi-node change, ...) and a full pass was used instead; the
        benefit is still exact, but no delta bookkeeping is available.
    world_queues / world_limited:
        Per-dirty-world instrumentation of the re-simulations: the new
        activation queue and the new coupon-limited list of every
        re-simulated world (``None`` on fallback).  When the evaluated
        investment is *accepted*, :meth:`DeltaCascadeEngine.splice_base`
        grafts these directly into the snapshot instead of re-running a full
        instrumented pass.
    clean_limited:
        Only on :meth:`DeltaCascadeEngine.eval_new_seed` outcomes evaluated
        with ``collect_clean_limited=True``: the *clean* (not re-simulated)
        worlds in which the new seed holds live out-edges while carrying no
        coupons — exactly the worlds where a fresh instrumented pass would
        flag it coupon-limited at its dequeue.
        :meth:`DeltaCascadeEngine.splice_base_new_seed` needs this limited-bit
        bookkeeping to graft an accepted zero-coupon pivot without the full
        pass.  ``None`` when the evaluation did not collect it.
    """

    __slots__ = (
        "benefit",
        "delta_index",
        "delta_values",
        "dirty_worlds",
        "touched",
        "exact",
        "world_queues",
        "world_limited",
        "clean_limited",
    )

    def __init__(
        self,
        benefit: float,
        delta_index: Optional[np.ndarray],
        delta_values: Optional[np.ndarray],
        dirty_worlds: Optional[Tuple[int, ...]],
        touched: FrozenSet[NodeId],
        exact: bool,
        world_queues: Optional[Dict[int, List[int]]] = None,
        world_limited: Optional[Dict[int, List[int]]] = None,
        clean_limited: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.benefit = benefit
        self.delta_index = delta_index
        self.delta_values = delta_values
        self.dirty_worlds = dirty_worlds
        self.touched = touched
        self.exact = exact
        self.world_queues = world_queues
        self.world_limited = world_limited
        self.clean_limited = clean_limited


class DeltaCascadeEngine:
    """Snapshot-based incremental evaluator over a compiled cascade engine."""

    def __init__(self, engine: CompiledCascadeEngine) -> None:
        self.engine = engine
        self._base_seeds: List[NodeId] = []
        self._base_seed_indices: List[int] = []
        self._base_alloc: Dict[NodeId, int] = {}
        self._base_coupons: List[int] = [0] * engine.compiled.num_nodes
        self._base_queues: List[List[int]] = []
        self._base_limited: List[List[int]] = []
        self._base_counts: Optional[np.ndarray] = None
        self.base_benefit: float = 0.0
        self._active_worlds: Dict[int, List[int]] = {}
        self._limited_worlds: Dict[int, List[int]] = {}
        #: Instrumented full passes run by :meth:`snapshot` vs accepted moves
        #: grafted by :meth:`splice_base` (coupon accepts) and
        #: :meth:`splice_base_new_seed` (pivot accepts) — the benchmark's
        #: evidence that every per-greedy-step re-snapshot pass is gone.
        self.snapshot_passes = 0
        self.spliced_advances = 0
        self.spliced_seed_advances = 0
        #: Graph-event reconciliations absorbed without a snapshot pass, and
        #: how many (dirty) worlds they re-simulated in total — the proof
        #: that graph churn does not cost cold resolves.
        self.reconcile_passes = 0
        self.reconciled_worlds = 0

    @property
    def has_snapshot(self) -> bool:
        """Whether :meth:`snapshot` has been called at least once."""
        return self._base_counts is not None

    @property
    def base_counts(self) -> Optional[np.ndarray]:
        """The base deployment's activation-count vector (read-only use)."""
        return self._base_counts

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------

    def snapshot(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Tuple[np.ndarray, float]:
        """Instrumented full pass establishing the base deployment.

        Returns ``(activation_counts, expected_benefit)`` exactly like
        :meth:`CompiledCascadeEngine.run` on the same inputs, while recording
        the per-world activation queues, each node's active worlds and each
        node's coupon-limited worlds for later delta queries.
        """
        engine = self.engine
        compiled = engine.compiled
        num_nodes = compiled.num_nodes

        # Same canonical seed order as CompiledCascadeEngine.run, so every
        # delta query built from an equal seed set matches the snapshot.  The
        # identifier list is kept too: graph-event reconciliation re-resolves
        # it against the evolved graph.
        self._base_seeds = sorted(seeds, key=str)
        self._base_seed_indices = compiled.indices_of(self._base_seeds)
        self._base_alloc = {
            node: int(count) for node, count in allocation.items() if int(count) > 0
        }
        coupons = [0] * num_nodes
        index = compiled.index
        for node, count in self._base_alloc.items():
            position = index.get(node)
            if position is not None:
                coupons[position] = count
        self._base_coupons = coupons

        queues: List[List[int]] = []
        limited_lists: List[List[int]] = []
        active_worlds: Dict[int, List[int]] = {}
        limited_worlds: Dict[int, List[int]] = {}
        flat: List[int] = []
        if self._base_seed_indices:
            instrumented = engine.cascade_worlds_instrumented(
                range(engine.num_worlds), self._base_seed_indices, coupons
            )
            for world_index, (queue, limited) in enumerate(instrumented):
                queues.append(queue)
                limited_lists.append(limited)
                flat.extend(queue)
                for node_index in queue:
                    active_worlds.setdefault(node_index, []).append(world_index)
                for node_index in limited:
                    limited_worlds.setdefault(node_index, []).append(world_index)
        else:
            queues = [[] for _ in range(engine.num_worlds)]
            limited_lists = [[] for _ in range(engine.num_worlds)]

        counts = np.bincount(
            np.asarray(flat, dtype=np.int64), minlength=num_nodes
        )
        benefit = (
            float(counts @ compiled.benefits) / engine.num_worlds
            if self._base_seed_indices
            else 0.0
        )
        self._base_queues = queues
        self._base_limited = limited_lists
        self._base_counts = counts
        self.base_benefit = benefit
        self._active_worlds = active_worlds
        self._limited_worlds = limited_worlds
        self.snapshot_passes += 1
        return counts, benefit

    # ------------------------------------------------------------------
    # delta queries
    # ------------------------------------------------------------------

    def coupon_dirty_worlds(self, node: NodeId) -> Tuple[int, ...]:
        """Worlds an extra coupon on ``node`` can change, under the snapshot."""
        self._require_snapshot()
        position = self.engine.compiled.index.get(node)
        if position is None:
            return ()
        return tuple(self._limited_worlds.get(position, ()))

    def eval_extra_coupon(
        self,
        node: NodeId,
        new_seeds: Iterable[NodeId],
        new_allocation: Mapping[NodeId, int],
    ) -> DeltaOutcome:
        """Evaluate ``base`` with ``node``'s coupon count raised.

        ``new_seeds`` / ``new_allocation`` describe the *resulting*
        deployment; they are verified against the snapshot (same seed order,
        allocation differing only on ``node`` and only upward) and the
        evaluation falls back to a full engine pass when they do not match.
        """
        self._require_snapshot()
        engine = self.engine
        compiled = engine.compiled
        new_seed_indices = compiled.indices_of(sorted(new_seeds, key=str))
        if new_seed_indices != self._base_seed_indices:
            return self._fallback(new_seed_indices, new_allocation)
        new_alloc = _normalize(new_allocation)
        if not _single_increase(self._base_alloc, new_alloc, node):
            return self._fallback(new_seed_indices, new_allocation)

        position = compiled.index.get(node)
        if position is None:
            # Unknown coupon holders are ignored by the cascade entirely.
            return self._unchanged()

        dirty = self._limited_worlds.get(position, [])
        coupons = list(self._base_coupons)
        coupons[position] = new_alloc[node]
        return self._splice(dirty, self._base_seed_indices, coupons, clean_node=None)

    def eval_new_seed(
        self,
        node: NodeId,
        new_seeds: Iterable[NodeId],
        new_allocation: Mapping[NodeId, int],
        *,
        collect_clean_limited: bool = False,
    ) -> DeltaOutcome:
        """Evaluate ``base`` with ``node`` added to the seed set.

        ``new_allocation`` may additionally raise ``node``'s own coupon count
        (the pivot-queue construction seeds users together with one coupon);
        any other difference falls back to a full pass.

        ``collect_clean_limited`` additionally records, on the returned
        outcome, the clean worlds in which a zero-coupon ``node`` holds live
        out-edges (so a fresh instrumented pass would flag it coupon-limited
        there) — the extra bookkeeping :meth:`splice_base_new_seed` needs
        when the evaluated pivot is *accepted*.  The scan touches only the
        per-world live-edge offsets, never a cascade.
        """
        self._require_snapshot()
        engine = self.engine
        compiled = engine.compiled
        new_seed_indices = compiled.indices_of(sorted(new_seeds, key=str))
        position = compiled.index.get(node)
        if position is None:
            return self._fallback(new_seed_indices, new_allocation)
        if position in self._base_seed_indices:
            if new_seed_indices == self._base_seed_indices and _normalize(
                new_allocation
            ) == self._base_alloc:
                return self._unchanged()
            return self._fallback(new_seed_indices, new_allocation)
        stripped = [i for i in new_seed_indices if i != position]
        if stripped != self._base_seed_indices:
            return self._fallback(new_seed_indices, new_allocation)
        new_alloc = _normalize(new_allocation)
        if new_alloc != self._base_alloc and not _single_increase(
            self._base_alloc, new_alloc, node
        ):
            return self._fallback(new_seed_indices, new_allocation)

        seed_coupons = new_alloc.get(node, 0)
        active = self._active_worlds.get(position, [])
        dirty = list(active)
        clean = 0
        clean_limited: List[int] = []
        if seed_coupons > 0:
            active_set = set(active)
            # Scan shard blocks in order (bounded memory under sharding) and
            # keep the historic ascending world order in `dirty`.  The
            # per-world live-out-edge test is one vectorized column compare
            # on the block's flat offsets array.  Clean worlds here hold no
            # live out-edges for the node, so it is never coupon-limited in
            # them: clean_limited stays empty.
            for start, count, block in engine.world_blocks():
                has_live = block.offsets[:, position + 1] > block.offsets[:, position]
                for slot in range(count):
                    world_index = start + slot
                    if world_index in active_set:
                        continue
                    if has_live[slot]:
                        dirty.append(world_index)
                    else:
                        clean += 1
        else:
            clean = engine.num_worlds - len(active)
            if collect_clean_limited and compiled.indptr[position + 1] > compiled.indptr[position]:
                # A zero-coupon seed is coupon-limited at its dequeue in every
                # world where it holds at least one live out-edge.
                active_set = set(active)
                for start, count, block in engine.world_blocks():
                    has_live = (
                        block.offsets[:, position + 1] > block.offsets[:, position]
                    )
                    for slot in range(count):
                        world_index = start + slot
                        if world_index in active_set:
                            continue
                        if has_live[slot]:
                            clean_limited.append(world_index)

        coupons = list(self._base_coupons)
        coupons[position] = seed_coupons
        outcome = self._splice(
            dirty, new_seed_indices, coupons, clean_node=position, clean_count=clean
        )
        if collect_clean_limited:
            outcome.clean_limited = tuple(clean_limited)
        return outcome

    def refresh_benefit(self, outcome: DeltaOutcome) -> float:
        """Re-derive an outcome's benefit against the *current* snapshot.

        Valid only while the outcome's per-world deltas still hold for the
        current base (the caller's invalidation rule guarantees this); the
        result is bit-identical to re-running the evaluation from scratch.
        """
        self._require_snapshot()
        if not outcome.exact:
            raise EstimationError("cannot refresh a fallback delta outcome")
        counts = self._base_counts.copy()
        if outcome.delta_index is not None and outcome.delta_index.size:
            counts[outcome.delta_index] += outcome.delta_values
        return float(counts @ self.engine.compiled.benefits) / self.engine.num_worlds

    # ------------------------------------------------------------------
    # surgical snapshot advancement
    # ------------------------------------------------------------------

    def splice_base(
        self,
        outcome: DeltaOutcome,
        node: NodeId,
        new_seeds: Iterable[NodeId],
        new_allocation: Mapping[NodeId, int],
    ) -> Optional[float]:
        """Make an accepted extra-coupon move's deployment the new base.

        ``outcome`` must be the :class:`DeltaOutcome` of evaluating exactly
        ``(new_seeds, new_allocation)`` against the current base — the greedy
        loop hands back the evaluation it just accepted.  Instead of running
        a fresh instrumented pass over every world (O(num_samples) per greedy
        step), the outcome's already re-simulated worlds are grafted into the
        snapshot: ``base_queues`` / ``base_limited`` are replaced for the
        dirty worlds only, the per-node ``active_worlds`` / ``limited_worlds``
        indices are updated surgically (sorted order preserved, exactly as a
        fresh ascending world scan would build them), the count vector is
        advanced by the outcome's sparse delta and the benefit is re-derived
        with the engine's canonical expression.  The resulting snapshot state
        is **identical** — queues, indices, counts and benefit, bit for bit —
        to calling :meth:`snapshot` on the new deployment from scratch.

        A reused (CELF-refreshed) outcome is equally valid: the lazy queue's
        invalidation rule guarantees its per-world re-simulations still equal
        what a fresh evaluation would produce, and the dirty-set equality
        check below re-verifies that against the current snapshot.

        Returns the new base benefit, or ``None`` when the outcome cannot be
        spliced (fallback outcome, seed change, non-single-increment
        allocation, stale dirty set) — the caller then falls back to
        :meth:`snapshot`.
        """
        if not self.has_snapshot:
            return None
        if not outcome.exact or outcome.world_queues is None:
            return None
        compiled = self.engine.compiled
        new_seed_indices = compiled.indices_of(sorted(new_seeds, key=str))
        if new_seed_indices != self._base_seed_indices:
            return None
        new_alloc = _normalize(new_allocation)
        if not _single_increase(self._base_alloc, new_alloc, node):
            return None
        position = compiled.index.get(node)
        if position is None:
            # Unknown coupon holders never reach the cascade: the deployment
            # bookkeeping moves, the worlds do not.
            if outcome.dirty_worlds:
                return None
            self._base_alloc = new_alloc
            self.spliced_advances += 1
            return self.base_benefit
        # The outcome's dirty set must be exactly what the *current* snapshot
        # says an extra coupon on ``node`` can change — refuses stale records
        # the lazy queue's invalidation rule would have rejected.
        if outcome.dirty_worlds != tuple(self._limited_worlds.get(position, ())):
            return None

        active_worlds = self._active_worlds
        limited_worlds = self._limited_worlds
        base_queues = self._base_queues
        base_limited = self._base_limited
        for world_index in outcome.dirty_worlds:
            new_queue = outcome.world_queues[world_index]
            new_limited = outcome.world_limited[world_index]
            old_active = set(base_queues[world_index])
            new_active = set(new_queue)
            for node_index in old_active - new_active:
                _sorted_remove(active_worlds, node_index, world_index)
            for node_index in new_active - old_active:
                insort(active_worlds.setdefault(node_index, []), world_index)
            old_lim = set(base_limited[world_index])
            new_lim = set(new_limited)
            for node_index in old_lim - new_lim:
                _sorted_remove(limited_worlds, node_index, world_index)
            for node_index in new_lim - old_lim:
                insort(limited_worlds.setdefault(node_index, []), world_index)
            base_queues[world_index] = list(new_queue)
            base_limited[world_index] = list(new_limited)

        if outcome.delta_index is not None and outcome.delta_index.size:
            self._base_counts[outcome.delta_index] += outcome.delta_values
        self._base_alloc = new_alloc
        self._base_coupons[position] = new_alloc[node]
        self.base_benefit = (
            float(self._base_counts @ compiled.benefits) / self.engine.num_worlds
        )
        self.spliced_advances += 1
        return self.base_benefit

    def splice_base_new_seed(
        self,
        outcome: DeltaOutcome,
        node: NodeId,
        new_seeds: Iterable[NodeId],
        new_allocation: Mapping[NodeId, int],
    ) -> Optional[float]:
        """Make an accepted *pivot* (new-seed) move's deployment the new base.

        ``outcome`` must come from :meth:`eval_new_seed` with
        ``collect_clean_limited=True`` evaluated for exactly
        ``(new_seeds, new_allocation)`` against the current base.  The
        outcome's re-simulated (dirty) worlds are grafted exactly as in
        :meth:`splice_base`; the *clean* worlds — where the base cascade is
        provably untouched — are advanced by pure bookkeeping:

        * the new seed is inserted into each clean world's activation queue
          at its canonical position in the seed prefix (fresh snapshots seed
          the queue in canonical order);
        * where the outcome's ``clean_limited`` bookkeeping says a
          zero-coupon seed holds live out-edges, the seed is inserted into
          that world's coupon-limited list at its dequeue position — after
          the limited seeds that precede it, before everything else;
        * the per-node active/limited world indices and the count vector are
          updated to match.

        The resulting snapshot state is **identical** — queues, limited
        lists, indices, counts and benefit, bit for bit — to
        :meth:`snapshot` on the new deployment from scratch.  Returns the new
        base benefit, or ``None`` when the outcome cannot be spliced
        (fallback outcome, missing bookkeeping, mismatched deployment, stale
        dirty set) — the caller then falls back to :meth:`snapshot`.
        """
        if not self.has_snapshot:
            return None
        if (
            not outcome.exact
            or outcome.world_queues is None
            or outcome.dirty_worlds is None
            or outcome.clean_limited is None
        ):
            return None
        compiled = self.engine.compiled
        new_seeds = sorted(new_seeds, key=str)
        new_seed_indices = compiled.indices_of(new_seeds)
        position = compiled.index.get(node)
        if position is None or position in self._base_seed_indices:
            return None
        if position not in new_seed_indices:
            return None
        stripped = [i for i in new_seed_indices if i != position]
        if stripped != self._base_seed_indices:
            return None
        new_alloc = _normalize(new_allocation)
        if new_alloc != self._base_alloc and not _single_increase(
            self._base_alloc, new_alloc, node
        ):
            return None
        seed_coupons = new_alloc.get(node, 0)
        # The outcome must match the *current* snapshot: eval_new_seed builds
        # its dirty list as the node's active worlds (ascending) followed by
        # inactive live-edge worlds (coupon-carrying seeds only).
        active = tuple(self._active_worlds.get(position, ()))
        if tuple(outcome.dirty_worlds[: len(active)]) != active:
            return None
        extras = outcome.dirty_worlds[len(active):]
        if extras and seed_coupons <= 0:
            return None
        if outcome.clean_limited and seed_coupons > 0:
            return None
        active_set = set(active)
        if any(world in active_set for world in extras):
            return None

        active_worlds = self._active_worlds
        limited_worlds = self._limited_worlds
        base_queues = self._base_queues
        base_limited = self._base_limited
        for world_index in outcome.dirty_worlds:
            new_queue = outcome.world_queues[world_index]
            new_limited = outcome.world_limited[world_index]
            old_active = set(base_queues[world_index])
            new_active = set(new_queue)
            for node_index in old_active - new_active:
                _sorted_remove(active_worlds, node_index, world_index)
            for node_index in new_active - old_active:
                insort(active_worlds.setdefault(node_index, []), world_index)
            old_lim = set(base_limited[world_index])
            new_lim = set(new_limited)
            for node_index in old_lim - new_lim:
                _sorted_remove(limited_worlds, node_index, world_index)
            for node_index in new_lim - old_lim:
                insort(limited_worlds.setdefault(node_index, []), world_index)
            base_queues[world_index] = list(new_queue)
            base_limited[world_index] = list(new_limited)

        # Clean worlds: base cascade untouched, bookkeeping only.
        queue_slot = new_seed_indices.index(position)
        prefix = set(new_seed_indices[:queue_slot])
        dirty_set = set(outcome.dirty_worlds)
        clean_limited_set = set(outcome.clean_limited)
        node_active = active_worlds.setdefault(position, [])
        for world_index in range(self.engine.num_worlds):
            if world_index in dirty_set:
                continue
            base_queues[world_index].insert(queue_slot, position)
            insort(node_active, world_index)
            if world_index in clean_limited_set:
                limited = base_limited[world_index]
                # Seeds are dequeued first, in canonical order, so the new
                # seed's limited entry lands after the limited seeds that
                # precede it in that order and before everything else.
                slot = 0
                while slot < len(limited) and limited[slot] in prefix:
                    slot += 1
                limited.insert(slot, position)
                insort(limited_worlds.setdefault(position, []), world_index)

        if outcome.delta_index is not None and outcome.delta_index.size:
            self._base_counts[outcome.delta_index] += outcome.delta_values
        # Graph-event reconciliation re-resolves the identifiers.
        self._base_seeds = new_seeds
        self._base_seed_indices = new_seed_indices
        self._base_alloc = new_alloc
        self._base_coupons[position] = seed_coupons
        self.base_benefit = (
            float(self._base_counts @ compiled.benefits) / self.engine.num_worlds
        )
        self.spliced_seed_advances += 1
        return self.base_benefit

    def reconcile(self, application, dirty_mask: np.ndarray) -> Optional[float]:
        """Advance the snapshot across a graph-event application.

        The engine must already have been evolved
        (:meth:`CompiledCascadeEngine.apply_events`); ``dirty_mask`` flags
        the worlds whose live-edge draws touch a changed edge.  Only those
        are re-simulated — the clean worlds' recorded queues, limited lists
        and per-node world indices are carried over (index-remapped when
        nodes were retired) by pure bookkeeping.  The resulting snapshot
        state is bit-identical to :meth:`snapshot` on the new graph from
        scratch; see :mod:`repro.diffusion.reconcile` for the argument.

        Returns the new base benefit, or ``None`` when the deployment does
        not survive the remap cleanly (e.g. a previously-unknown seed id now
        resolves) — the caller then falls back to a fresh :meth:`snapshot`.
        Raises :class:`EstimationError` when the batch retired a base seed
        or an active coupon holder, which has no well-defined reconciliation.
        """
        from repro.diffusion.reconcile import reconcile_snapshot

        return reconcile_snapshot(self, application, dirty_mask)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _require_snapshot(self) -> None:
        if self._base_counts is None:
            raise EstimationError("DeltaCascadeEngine has no snapshot yet")

    def _unchanged(self) -> DeltaOutcome:
        empty = np.empty(0, dtype=np.int64)
        return DeltaOutcome(
            benefit=self.base_benefit,
            delta_index=empty,
            delta_values=empty,
            dirty_worlds=(),
            touched=frozenset(),
            exact=True,
            world_queues={},
            world_limited={},
        )

    def _splice(
        self,
        dirty: List[int],
        seed_indices: List[int],
        coupons: List[int],
        *,
        clean_node: Optional[int] = None,
        clean_count: int = 0,
    ) -> DeltaOutcome:
        """Re-simulate ``dirty`` worlds and splice them into the base counts."""
        engine = self.engine
        compiled = engine.compiled
        num_nodes = compiled.num_nodes

        removed: List[int] = []
        added: List[int] = []
        touched: set = set()
        world_queues: Dict[int, List[int]] = {}
        world_limited: Dict[int, List[int]] = {}
        instrumented = engine.cascade_worlds_instrumented(
            dirty, seed_indices, coupons
        )
        for world_index, (queue, limited) in zip(dirty, instrumented):
            removed.extend(self._base_queues[world_index])
            added.extend(queue)
            touched.update(limited)
            world_queues[world_index] = queue
            world_limited[world_index] = limited

        counts = self._base_counts.copy()
        if clean_node is not None and clean_count:
            counts[clean_node] += clean_count
        if removed:
            counts -= np.bincount(
                np.asarray(removed, dtype=np.int64), minlength=num_nodes
            )
        if added:
            counts += np.bincount(
                np.asarray(added, dtype=np.int64), minlength=num_nodes
            )
        benefit = float(counts @ compiled.benefits) / engine.num_worlds

        delta = counts - self._base_counts
        delta_index = np.flatnonzero(delta)
        node_ids = compiled.node_ids
        return DeltaOutcome(
            benefit=benefit,
            delta_index=delta_index,
            delta_values=delta[delta_index],
            dirty_worlds=tuple(dirty),
            touched=frozenset(node_ids[i] for i in touched),
            exact=True,
            world_queues=world_queues,
            world_limited=world_limited,
        )

    def _fallback(
        self, seed_indices: List[int], new_allocation: Mapping[NodeId, int]
    ) -> DeltaOutcome:
        """Full engine pass for queries the snapshot cannot answer."""
        compiled = self.engine.compiled
        node_ids = compiled.node_ids
        seeds = [node_ids[i] for i in seed_indices]
        _, benefit = self.engine.run(seeds, new_allocation)
        return DeltaOutcome(
            benefit=benefit,
            delta_index=None,
            delta_values=None,
            dirty_worlds=None,
            touched=frozenset(),
            exact=False,
        )


def _sorted_remove(
    mapping: Dict[int, List[int]], key: int, value: int
) -> None:
    """Remove ``value`` from the sorted list ``mapping[key]``; drop empty keys."""
    worlds = mapping[key]
    index = bisect_left(worlds, value)
    if index >= len(worlds) or worlds[index] != value:
        raise EstimationError(
            f"snapshot splice inconsistency: world {value} not indexed "
            f"under node {key}"
        )
    del worlds[index]
    if not worlds:
        del mapping[key]


def _normalize(allocation: Mapping[NodeId, int]) -> Dict[NodeId, int]:
    """Positive entries only — the cascade's view of an allocation."""
    return {node: int(count) for node, count in allocation.items() if int(count) > 0}


def _single_increase(
    base: Mapping[NodeId, int], new: Mapping[NodeId, int], node: NodeId
) -> bool:
    """Whether ``new`` equals ``base`` except for a raised count on ``node``."""
    if new.get(node, 0) <= base.get(node, 0):
        return False
    if len(new) - len(base) not in (0, 1):
        return False
    for key, value in new.items():
        if key != node and base.get(key, 0) != value:
            return False
    for key in base:
        if key != node and key not in new:
            return False
    return True
