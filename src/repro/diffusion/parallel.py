"""Multiprocess shard evaluation with streaming reduction and pool sharing.

The per-world cascades of a Monte-Carlo estimate are embarrassingly parallel:
every world is an independent deterministic cascade and the estimate is a sum
of integer activation counts.  Two classes exploit that:

:class:`SharedShardPool`
    A persistent process pool that can serve **many** estimators.  Each
    :class:`~repro.diffusion.engine.WorldSampler` (frozen RNG state + compiled
    CSR graph) is *registered* once: a barrier-synchronised broadcast ships it
    to every worker exactly once, after which a task carries only a small
    token, its range's block bounds and each deployment's seed indices and
    sparse coupons.  The pool is injectable through every layer
    (``make_estimator(..., pool=...)``), so an experiment sweep spanning
    several scenarios and algorithms runs on **one** pool instead of paying a
    pool start-up per estimator.

:class:`ShardExecutor`
    One estimator's view onto a pool (owned or injected).  Its world blocks
    are grouped into one contiguous world range per worker, and an
    evaluation *batch* — one or more deployments — becomes one task per
    range: each task cascades every deployment of the batch over every
    world of its range and returns one activation-count row per deployment.
    The returned :class:`PendingCounts` handle folds the tasks' count rows
    into a running total **in range (block) order** as they arrive
    (buffering out-of-order completions), so the parent overlaps its
    reduction with the workers' computation instead of idling in a blocking
    ``pool.map``.  Several batches can be pending on the same pool at once —
    submitting chunks of a large batch and draining them in submission order
    pipelines the parent's reductions behind the workers' cascades.  A
    single evaluation is a batch of one: the workers run one task routine.

Determinism
-----------
The per-range counts are integers and the running reduction folds them in
block order whatever order they complete in, so every final count row — and
the ``counts @ benefits / num_worlds`` benefit derived from it by the engine —
is bit-identical to the serial path for any shard size, worker count, batch
size, completion order and pipelining depth.

Worker death
------------
:meth:`PendingCounts.result` waits in short slices.  Between slices it checks
the worker processes the pool started with; when one of them has died, a
task of the batch may be lost for good (``multiprocessing`` never re-runs
it), or the dead worker may hold the task queue's lock so that no task is
read again, so the handle closes the pool and raises
:class:`~repro.exceptions.EstimationError` naming the lost worker instead of
waiting forever.  The pool cannot be reused after that: the replacement
process ``multiprocessing`` starts holds none of the registered samplers.
Closing kills the remaining workers before ``Pool.terminate`` and hands back
a queue lock a dead worker still holds, so it cannot hang either.

Ownership
---------
An executor built *without* an injected pool creates one and owns it:
:meth:`ShardExecutor.close` tears the pool down.  An executor built *on* an
injected pool never closes it — closing the executor (or the estimator above
it) merely unregisters its sampler; the pool keeps serving other estimators
until its owner calls :meth:`SharedShardPool.close` (or the ``with`` block
exits) — or until it loses a worker (see above).  Every pool also carries a
:func:`weakref.finalize` guard — Python runs outstanding finalizers at
interpreter exit, so a pool whose owner forgot to close it is reclaimed at
exit instead of leaking worker processes.

The pool prefers the ``fork`` start method on Linux (cheap start-up, the
graph is inherited rather than re-imported) and uses the platform default
everywhere else (``spawn`` on macOS/Windows — fork is unsafe under macOS
frameworks), where the broadcast arguments travel pickled —
:class:`~repro.graph.csr.CompiledGraph` supports both transports.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import os
import pickle
import sys
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.diffusion import kernels as _kernels
from repro.diffusion.engine import BlockCache, WorldSampler, cascade_block
from repro.exceptions import EstimationError

#: Blocks each worker keeps materialised between tasks (per registered sampler).
_WORKER_CACHE_BLOCKS = 4

#: Seconds a worker waits at the registration barrier before giving up; only
#: reached when a sibling worker died mid-broadcast.
_BARRIER_TIMEOUT = 120.0

#: Seconds :meth:`PendingCounts.result` blocks on the pool before checking
#: that the pool's workers are still alive.
_WAIT_SLICE = 0.5

#: Seconds a pool shutdown waits for the result queue's lock after killing
#: the workers; a lock still taken then is held by a dead worker.
_LOCK_GRACE = 1.0

#: One deployment as a task carries it: (seed indices, sparse coupons as an
#: int64 ``(m, 2)`` array of ``(node index, coupon count)`` rows — one array
#: pickles far smaller and faster than ``m`` tuples).
TaskDeployment = Tuple[List[int], np.ndarray]

#: One evaluation task: (sampler token, range index, the range's blocks as
#: ``(start, count)`` pairs, the batch's deployments, use-kernel flag).  It
#: returns ``(range index, counts)`` with one count row per deployment.
Task = Tuple[int, int, List[Tuple[int, int]], List[TaskDeployment], bool]

#: Per-process worker state, keyed by sampler token.
_WORKER_STATES: Dict[int, "_WorkerState"] = {}
_WORKER_BARRIER = None

#: Live-object registries backing the leak assertions of the soak tests.
_LIVE_POOLS: "weakref.WeakSet[SharedShardPool]" = weakref.WeakSet()
_LIVE_EXECUTORS: "weakref.WeakSet[ShardExecutor]" = weakref.WeakSet()


def live_pool_count() -> int:
    """Number of :class:`SharedShardPool` instances not yet closed."""
    return sum(1 for pool in _LIVE_POOLS if not pool.closed)


def live_executor_count() -> int:
    """Number of :class:`ShardExecutor` instances not yet closed."""
    return sum(1 for executor in _LIVE_EXECUTORS if not executor.closed)


def shutdown_live_pools() -> int:
    """Terminate every live pool and executor; returns how many were closed.

    The emergency teardown path of the CLI's interrupt handler: normal code
    closes its own estimators/pools, but a ``KeyboardInterrupt`` can land
    anywhere — including between an estimator's construction and the
    ``try/finally`` that would release it.  Pools are terminated first
    (idempotent, never blocks on in-flight tasks), after which closing the
    executors is pure bookkeeping: an injected pool that is already closed
    makes ``release`` a no-op instead of a broadcast.
    """
    closed = 0
    for pool in list(_LIVE_POOLS):
        if not pool.closed:
            pool.close()
            closed += 1
    for executor in list(_LIVE_EXECUTORS):
        if not executor.closed:
            executor.close()
            closed += 1
    return closed


class _WorkerState:
    """Everything one worker process needs to evaluate one sampler's blocks."""

    def __init__(self, sampler: WorldSampler, cache_blocks: int) -> None:
        num_nodes = sampler.compiled.num_nodes
        self.sampler = sampler
        self.visited: List[int] = [0] * num_nodes
        self.coupons: List[int] = [0] * num_nodes
        self.stamp = 0
        self.cache = BlockCache(sampler, cache_blocks)
        # Native-kernel resources, resolved lazily on the first kernel-tagged
        # task so workers of a no-kernel engine never pay backend resolution.
        # The kernel path keeps its own numpy-typed buffers and stamp stream;
        # the two streams never touch each other's arrays.
        self._kernel_resolved = False
        self.kernel = None
        self.kernel_visited: Optional[np.ndarray] = None
        self.kernel_queue: Optional[np.ndarray] = None
        self.kernel_coupons: Optional[np.ndarray] = None
        self.kernel_stamp = 0

    def kernel_or_none(self):
        """The worker's native kernel, resolving (and warming) it on first use."""
        if not self._kernel_resolved:
            self._kernel_resolved = True
            kernel = _kernels.load_kernel()
            if kernel is not None:
                kernel.warm()
                num_nodes = self.sampler.compiled.num_nodes
                self.kernel = kernel
                self.kernel_visited = np.zeros(num_nodes, dtype=np.int64)
                self.kernel_queue = np.empty(num_nodes, dtype=np.int32)
                self.kernel_coupons = np.zeros(num_nodes, dtype=np.int64)
        return self.kernel


def _init_worker(barrier) -> None:
    global _WORKER_BARRIER, _WORKER_STATES
    _WORKER_BARRIER = barrier
    _WORKER_STATES = {}


def _install_sampler(args: Tuple[int, WorldSampler, int]) -> int:
    """Store a sampler in this worker; the barrier forces one task per worker."""
    token, sampler, cache_blocks = args
    _WORKER_STATES[token] = _WorkerState(sampler, cache_blocks)
    _WORKER_BARRIER.wait(timeout=_BARRIER_TIMEOUT)
    return token


def _uninstall_sampler(token: int) -> int:
    _WORKER_STATES.pop(token, None)
    _WORKER_BARRIER.wait(timeout=_BARRIER_TIMEOUT)
    return token


def evaluate_task_in_state(
    state: _WorkerState, task: Task
) -> Tuple[int, np.ndarray]:
    """Evaluate one task — a batch of deployments over one world range.

    Returns ``(range_index, counts)`` where ``counts[i]`` holds deployment
    ``i``'s activation counts summed over the range's worlds.  The rows are
    int32 (a count never exceeds the range's world count), which halves the
    bytes a task ships back.  Blocks are the outer loop, so each block of
    the range is materialised once per task whatever the batch size.  This
    is the single evaluation routine shared by the real pool workers and the
    in-process fake pools the property tests inject, so the two paths cannot
    drift.  Tasks tagged ``use_kernel`` run on the worker's native cascade
    kernel; a worker that cannot resolve a backend falls back to the
    interpreted loop — the counts are bit-identical either way.
    """
    _, range_index, blocks, deployments, use_kernel = task
    num_nodes = state.sampler.compiled.num_nodes
    counts = np.zeros((len(deployments), num_nodes), dtype=np.int32)
    block_counts = np.empty(num_nodes, dtype=np.int64)
    kernel = state.kernel_or_none() if use_kernel else None
    if kernel is not None:
        evaluate = _kernel_block
        prepared = [
            (np.asarray(seed_indices, dtype=np.int32), items[:, 0], items[:, 1])
            for seed_indices, items in deployments
        ]
    else:
        evaluate = _interpreted_block
        prepared = [
            (seed_indices, items.tolist()) for seed_indices, items in deployments
        ]
    for start, count in blocks:
        block = state.cache.block(start, count)
        for row, deployment in enumerate(prepared):
            block_counts.fill(0)
            evaluate(state, block, count, deployment, block_counts)
            counts[row] += block_counts
    return range_index, counts


def _kernel_block(state: _WorkerState, block, count: int, deployment, counts) -> None:
    """One deployment over one block on the native kernel, into ``counts``."""
    seeds, positions, coupon_counts = deployment
    coupons = state.kernel_coupons
    coupons[positions] = coupon_counts
    # Reserve the block's stamp range up front (mirroring the serial
    # engine): if the kernel raises mid-block, the stamps it already wrote
    # into `visited` must never be reused by a later task.
    stamp = state.kernel_stamp
    state.kernel_stamp = stamp + count
    try:
        state.kernel.cascade_block(
            block.targets, block.offsets, seeds, coupons,
            state.kernel_visited, stamp, state.kernel_queue, counts,
        )
    finally:
        coupons[positions] = 0


def _interpreted_block(
    state: _WorkerState, block, count: int, deployment, counts
) -> None:
    """One deployment over one block on the interpreted loop, into ``counts``."""
    seed_indices, coupon_items = deployment
    coupons = state.coupons
    for position, coupon_count in coupon_items:
        coupons[position] = coupon_count
    # Same up-front stamp-range reservation as the kernel path.
    stamp = state.stamp
    state.stamp = stamp + count
    try:
        flat_activations, _ = cascade_block(
            block, seed_indices, coupons, state.visited, stamp,
        )
    finally:
        for position, _ in coupon_items:
            coupons[position] = 0
    counts += np.bincount(
        np.asarray(flat_activations, dtype=np.int64), minlength=counts.shape[0],
    )


def _evaluate_task(task: Task) -> Tuple[int, np.ndarray]:
    state = _WORKER_STATES.get(task[0])
    if state is None:
        # A process the pool started after the sampler's broadcast (it
        # replaced a dead worker) never received it.
        raise EstimationError(
            f"pool worker pid {os.getpid()} has no sampler {task[0]}: it was "
            f"started after the sampler was registered"
        )
    return evaluate_task_in_state(state, task)


def _shutdown_pool(pool, workers) -> None:
    """Terminate a ``multiprocessing`` pool, also one that lost a worker."""
    if any(process.exitcode is not None for process in workers):
        _kill_broken_pool(pool)
    pool.terminate()
    pool.join()


def _kill_broken_pool(pool) -> None:
    """Make ``Pool.terminate`` safe on a pool one of whose workers died.

    A worker killed while it waits for a task or sends a result dies holding
    that queue's lock, or half way through a message, and ``Pool.terminate``
    would then wait forever or read garbage.  So the workers go first: the
    worker handler is stopped (no replacements), every worker is killed and
    joined, and the parent closes its end of the task pipe, which makes a
    task handler blocked on a full pipe fail instead of waiting.  A queue
    lock still taken after that belongs to a dead worker and is handed back.
    """
    handler = pool._worker_handler
    handler._state = multiprocessing.pool.TERMINATE
    pool._change_notifier.put(None)
    handler.join()
    pool._task_handler._state = multiprocessing.pool.TERMINATE
    for process in pool._pool:
        process.kill()
    for process in pool._pool:
        process.join()
    pool._inqueue._reader.close()
    result_lock = pool._outqueue._wlock  # None on Windows
    if result_lock is not None:
        # The task handler holds it only for its one-line stop sentinel.
        result_lock.acquire(timeout=_LOCK_GRACE)
        result_lock.release()
    pool._task_handler.join()
    pool._inqueue._rlock.acquire(block=False)  # no live worker can hold it
    pool._inqueue._rlock.release()


class SharedShardPool:
    """A persistent worker pool shared by any number of estimators.

    Parameters
    ----------
    workers:
        Pool size.  Fixed for the pool's lifetime; executors built on an
        injected pool inherit it.
    start_method:
        Optional multiprocessing start method; default prefers ``fork`` on
        Linux and the platform default elsewhere.
    cache_blocks:
        Shard blocks each worker keeps materialised per registered sampler.

    The pool is a context manager; it is also guarded by a
    :func:`weakref.finalize` that terminates the workers when the pool is
    garbage collected or the interpreter exits, so a leaked pool cannot keep
    worker processes alive past program end.
    """

    def __init__(
        self,
        workers: int,
        *,
        start_method: Optional[str] = None,
        cache_blocks: int = _WORKER_CACHE_BLOCKS,
    ) -> None:
        if workers < 1:
            raise EstimationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.cache_blocks = cache_blocks
        if start_method is None:
            # Prefer the cheap fork start-up only on Linux: macOS offers
            # fork too, but forking after ObjC-framework initialisation is
            # unsafe there (the reason CPython switched its default to
            # spawn), so everywhere else the platform default stands.
            start_method = "fork" if sys.platform == "linux" else None
        context = multiprocessing.get_context(start_method)
        self._barrier = context.Barrier(self.workers)
        self._pool = context.Pool(
            self.workers, initializer=_init_worker, initargs=(self._barrier,)
        )
        # The pool replaces a worker only after one died, so these are the
        # processes whose death marks the pool broken.
        self._workers = tuple(self._pool._pool)
        # token -> sampler: the strong reference keeps id() keys stable.
        self._samplers: Dict[int, WorldSampler] = {}
        self._token_by_id: Dict[int, int] = {}
        self._next_token = 0
        #: Broadcast instrumentation (benchmarks read these): pickled bytes
        #: of the most recent register() payload, the cumulative bytes
        #: shipped over the pipe (payload × workers, summed over registers),
        #: and the wall time of the most recent barrier broadcast.
        self.last_broadcast_bytes = 0
        self.broadcast_bytes_total = 0
        self.last_broadcast_seconds = 0.0
        self.broadcast_seconds_total = 0.0
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self._pool, self._workers
        )
        _LIVE_POOLS.add(self)

    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the pool has been shut down."""
        return not self._finalizer.alive

    def register(self, sampler: WorldSampler) -> int:
        """Ship ``sampler`` to every worker once; returns its task token.

        Registering the same sampler object again is a cheap no-op returning
        the existing token.  The broadcast submits exactly ``workers`` tasks
        (``chunksize=1``) whose handler blocks on a barrier until all of them
        have started, which forces one task onto each worker — the only way
        to address every worker of a :class:`multiprocessing.pool.Pool`.
        """
        self._require_open()
        token = self._token_by_id.get(id(sampler))
        if token is not None:
            return token
        token = self._next_token
        self._next_token += 1
        # Measure what one worker receives: with a shared-memory graph the
        # payload is a segment descriptor (hundreds of bytes); with a
        # private graph it is the whole CSR.  The extra dump costs one
        # serialization per register — once per estimator, not per task.
        payload = (token, sampler, self.cache_blocks)
        self.last_broadcast_bytes = len(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self.broadcast_bytes_total += self.last_broadcast_bytes * self.workers
        began = time.perf_counter()
        self._pool.map(
            _install_sampler,
            [payload] * self.workers,
            chunksize=1,
        )
        self.last_broadcast_seconds = time.perf_counter() - began
        self.broadcast_seconds_total += self.last_broadcast_seconds
        self._samplers[token] = sampler
        self._token_by_id[id(sampler)] = token
        return token

    def release(self, token: int) -> None:
        """Drop a registered sampler from every worker (frees its block LRU)."""
        if self.closed:
            return
        sampler = self._samplers.pop(token, None)
        if sampler is None:
            return
        self._token_by_id.pop(id(sampler), None)
        self._pool.map(_uninstall_sampler, [token] * self.workers, chunksize=1)

    def imap_unordered(self, tasks: Sequence[Task]):
        """Dispatch evaluation tasks; yields ``(range_index, counts)`` as done.

        The returned iterator's ``next(timeout=...)`` raises
        :class:`multiprocessing.TimeoutError` when nothing completes in time,
        which is how :class:`PendingCounts` interleaves its liveness checks.
        """
        self._require_open()
        return self._pool.imap_unordered(_evaluate_task, tasks, chunksize=1)

    def processes(self) -> Tuple[multiprocessing.process.BaseProcess, ...]:
        """The worker processes the pool started with (for death checks)."""
        return self._workers

    def close(self) -> None:
        """Terminate the workers and drop the registered samplers; idempotent."""
        self._finalizer()
        # A closed pool must not pin its samplers' shared graphs.
        self._samplers.clear()
        self._token_by_id.clear()

    def _require_open(self) -> None:
        if self.closed:
            raise EstimationError("SharedShardPool is closed")

    def __enter__(self) -> "SharedShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PendingCounts:
    """Handle to one in-flight batch's streaming reduction.

    Each task returns one int32 count row per deployment of the batch; the
    rows are folded into the running total **in range order**: a range
    completing early is buffered until every earlier range has been folded.
    ``wait_seconds`` accumulates the time the parent spent blocked waiting
    for the next completion — the parent's idle time, which pipelining
    several pending batches is designed to fill.
    """

    __slots__ = (
        "_executor", "_iterator", "_remaining", "_buffer", "_next_range",
        "_counts", "_reported", "wait_seconds",
    )

    def __init__(
        self,
        executor: "ShardExecutor",
        iterator,
        num_tasks: int,
        num_rows: int,
    ) -> None:
        self._executor = executor
        self._iterator = iterator
        self._remaining = num_tasks
        self._buffer: Dict[int, np.ndarray] = {}
        self._next_range = 0
        # int32 like the task rows: a total never exceeds num_worlds.
        self._counts = np.zeros((num_rows, executor.num_nodes), dtype=np.int32)
        self._reported = False
        self.wait_seconds = 0.0

    @property
    def done(self) -> bool:
        """Whether every task has been received and folded."""
        return self._remaining == 0

    def result(self) -> np.ndarray:
        """Drain the remaining tasks; returns one count row per deployment."""
        buffer = self._buffer
        while self._remaining:
            began = time.perf_counter()
            range_index, range_counts = self._next_completion()
            self.wait_seconds += time.perf_counter() - began
            self._remaining -= 1
            buffer[range_index] = range_counts
            while self._next_range in buffer:
                self._counts += buffer.pop(self._next_range)
                self._next_range += 1
        if self._buffer:
            raise EstimationError(
                f"shard reduction is missing ranges before "
                f"{min(self._buffer)} (got {sorted(self._buffer)})"
            )
        if not self._reported:
            self._reported = True
            self._executor.completed += 1
            self._executor.wait_seconds_total += self.wait_seconds
        return self._counts

    def _next_completion(self) -> Tuple[int, np.ndarray]:
        """The next finished task, checking worker liveness between slices."""
        while True:
            try:
                return self._iterator.next(timeout=_WAIT_SLICE)
            except multiprocessing.TimeoutError:
                pass
            except StopIteration:
                raise EstimationError(
                    f"worker pool stopped with {self._remaining} task(s) "
                    f"outstanding"
                ) from None
            except EstimationError:
                # A dead worker's replacement has no sampler: name the death.
                self._check_workers()
                raise
            self._check_workers()

    def _check_workers(self) -> None:
        """Raise when the pool was closed or lost a worker (closing it)."""
        pool = self._executor.pool
        if pool.closed:
            raise EstimationError(
                f"worker pool closed with {self._remaining} task(s) outstanding"
            )
        lost = [
            process for process in pool.processes()
            if process.exitcode is not None
        ]
        if lost:
            pool.close()
            names = ", ".join(
                f"{process.name} (pid {process.pid}, exit code "
                f"{process.exitcode})"
                for process in lost
            )
            raise EstimationError(
                f"pool worker {names} died with {self._remaining} task(s) "
                f"outstanding; the pool is closed"
            )


class ShardExecutor:
    """One sampler's evaluation front-end onto a (shared or owned) pool.

    Built lazily by :class:`~repro.diffusion.engine.CompiledCascadeEngine` on
    the first parallel run.  With ``pool=None`` the executor creates a
    :class:`SharedShardPool` of its own and :meth:`close` tears it down; with
    an injected pool the executor only registers its sampler and :meth:`close`
    merely unregisters it — **an executor never closes a pool it does not
    own** (a pool that lost a worker is the exception: see
    :class:`PendingCounts`).

    The ``shard_size`` blocks are grouped into one contiguous world range per
    pool worker (fewer when there are fewer blocks); every submitted batch is
    one task per range.
    """

    def __init__(
        self,
        sampler: WorldSampler,
        *,
        num_worlds: int,
        shard_size: int,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        cache_blocks: int = _WORKER_CACHE_BLOCKS,
        pool: Optional[SharedShardPool] = None,
        use_kernel: bool = False,
    ) -> None:
        #: Whether this executor's tasks ask workers for the native kernel.
        #: Per-task (not per-pool) so estimators with different settings can
        #: share one pool; a worker without a resolvable backend falls back
        #: to the interpreted loop with identical counts.
        self.use_kernel = bool(use_kernel)
        blocks = [
            (start, min(shard_size, num_worlds - start))
            for start in range(0, num_worlds, shard_size)
        ]
        if pool is None:
            if workers is None:
                raise EstimationError("either workers or pool is required")
            pool = SharedShardPool(
                min(int(workers), len(blocks)),
                start_method=start_method,
                cache_blocks=cache_blocks,
            )
            self._owns_pool = True
        else:
            self._owns_pool = False
        self.pool = pool
        self.workers = pool.workers
        self._ranges = worker_ranges(blocks, self.workers)
        self.num_nodes = sampler.compiled.num_nodes
        self._token = pool.register(sampler)
        self._closed = False
        #: Completed batches and the parent's cumulative blocked time,
        #: reported by the PendingCounts handles (benchmark instrumentation).
        self.completed = 0
        self.wait_seconds_total = 0.0
        _LIVE_EXECUTORS.add(self)

    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def submit(self, deployments: Sequence[TaskDeployment]) -> PendingCounts:
        """Dispatch a batch of deployments; returns its streaming-reduction handle.

        The batch becomes one task per world range.  Several batches may be
        pending at once: their tasks interleave on the pool and each handle
        drains only its own results, so a caller can pipeline chunks of a
        large batch by submitting them before draining in submission order.
        """
        if self._closed:
            raise EstimationError("ShardExecutor is closed")
        deployments = list(deployments)
        tasks: List[Task] = [
            (self._token, range_index, blocks, deployments, self.use_kernel)
            for range_index, blocks in enumerate(self._ranges)
        ]
        iterator = self.pool.imap_unordered(tasks)
        return PendingCounts(self, iterator, len(tasks), len(deployments))

    def close(self) -> None:
        """Release the executor: owned pools shut down, injected pools stay."""
        if self._closed:
            return
        self._closed = True
        if self._owns_pool:
            self.pool.close()
        else:
            self.pool.release(self._token)

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def worker_ranges(
    blocks: List[Tuple[int, int]], workers: int
) -> List[List[Tuple[int, int]]]:
    """Split ``blocks`` into at most ``workers`` contiguous, near-equal runs."""
    runs = min(workers, len(blocks))
    return [
        blocks[index * len(blocks) // runs : (index + 1) * len(blocks) // runs]
        for index in range(runs)
    ]
