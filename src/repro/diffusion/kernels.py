"""Native cascade kernels over flat world-block arrays.

The cascade inner loop — walk a FIFO queue of coupon holders over one world's
live adjacency, redeeming on not-yet-active targets until the coupons run out
— is the single hottest code path in the library: every layer above it (the
delta snapshot engine, the CELF queue, the shard pool, the batched evaluation
scheduler) ultimately funnels into it once per world per evaluation.  This
module provides a *compiled* implementation of that loop operating on the flat
contiguous arrays of :class:`~repro.diffusion.engine.FlatWorldBlock`:

``cc``
    A C translation of the loops, compiled once with the system C compiler
    (``cc``/``gcc``/``clang``) into a content-addressed shared library under
    ``~/.cache/repro-kernels`` and loaded through :mod:`ctypes`.
``None``
    No compiler available (or ``REPRO_NO_NATIVE_KERNEL`` set): callers fall
    back to the interpreted loops in :mod:`repro.diffusion.engine`, which
    remain the bit-identity *oracle* the compiled kernel is tested against.

The C backend implements the exact semantics of the interpreted
``cascade_block`` / ``cascade_world_instrumented`` pair — same FIFO order,
same redemption bookkeeping, same coupon-limited flags — so activation
queues, counts and benefits are **bit-identical** whichever path runs; the
parity suite (``tests/properties/test_kernel_parity.py``) and the benchmark
gates enforce that.

All kernels share one calling convention (flat int arrays only, no Python
objects in the hot path):

* ``targets`` — int32, the block's concatenated live-edge targets;
* ``offsets`` — int64, the block's 2-D per-world rows of ``num_nodes + 1``
  *absolute* indices into ``targets``;
* ``seeds`` — int32 deduplicated seed indices in canonical order;
* ``coupons`` — int64 dense per-node coupon vector;
* ``visited`` — int64 stamp-versioned scratch (caller owns the stamp);
* ``queue`` / ``limited`` — int32 preallocated buffers: the block
  kernel's FIFO scratch (``num_nodes`` entries), or the instrumented
  kernel's concatenated per-world queues / coupon-limited lists;
* ``counts`` — int64 activation-count accumulator (block kernel only);
* ``worlds`` / ``ends`` — int64 block rows to cascade and, per cascaded
  world, the end offsets of its queue and limited list (instrumented
  kernel only).  One call cascades a whole list of worlds, so an
  instrumented pass crosses into native code once, not once per world.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.utils.env import env_flag

logger = logging.getLogger(__name__)

#: Setting this environment variable (to any truthy value) disables the
#: native backend — the engine then runs the interpreted oracle.  This is
#: how CI's "no native kernel" leg and the forced-fallback tests exercise the
#: degradation path deterministically.
DISABLE_ENV = "REPRO_NO_NATIVE_KERNEL"

#: Override for where the C backend caches its compiled shared library.
CACHE_DIR_ENV = "REPRO_KERNEL_CACHE_DIR"

_C_SOURCE = r"""
#include <stdint.h>

/* Both functions are line-for-line translations of the interpreted
 * cascade loops in repro/diffusion/engine.py (cascade_block and
 * CompiledCascadeEngine._interpreted_world_instrumented, the latter once
 * per listed world).  Any semantic change there must be mirrored here —
 * the parity suite fails otherwise. */

int64_t repro_cascade_block(
    const int32_t *targets,
    const int64_t *offsets,      /* num_worlds x (num_nodes + 1), absolute */
    int64_t num_nodes,
    int64_t num_worlds,
    const int32_t *seeds,
    int64_t num_seeds,
    const int64_t *coupons,
    int64_t *visited,
    int64_t stamp,
    int32_t *queue,
    int64_t *counts)
{
    const int64_t stride = num_nodes + 1;
    for (int64_t w = 0; w < num_worlds; ++w) {
        stamp += 1;
        const int64_t *off = offsets + w * stride;
        int64_t qlen = 0;
        for (int64_t s = 0; s < num_seeds; ++s) {
            const int32_t seed = seeds[s];
            visited[seed] = stamp;
            queue[qlen++] = seed;
        }
        int64_t head = 0;
        while (head < qlen) {
            const int32_t user = queue[head++];
            int64_t remaining = coupons[user];
            if (remaining <= 0) continue;
            const int64_t low = off[user];
            const int64_t high = off[user + 1];
            for (int64_t pos = low; pos < high; ++pos) {
                const int32_t neighbor = targets[pos];
                if (visited[neighbor] == stamp) continue;
                visited[neighbor] = stamp;
                queue[qlen++] = neighbor;
                if (--remaining <= 0) break;
            }
        }
        for (int64_t q = 0; q < qlen; ++q) counts[queue[q]] += 1;
    }
    return stamp;
}

int64_t repro_cascade_worlds_instrumented(
    const int32_t *targets,
    const int64_t *offsets,      /* block rows x (num_nodes + 1), absolute */
    int64_t num_nodes,
    const int64_t *worlds,       /* block rows to cascade, in this order */
    int64_t num_worlds,
    const int32_t *seeds,
    int64_t num_seeds,
    const int64_t *coupons,
    int64_t *visited,
    int64_t stamp,               /* world i is stamped stamp + i + 1 */
    int32_t *queue,              /* concatenated queues */
    int32_t *limited,            /* concatenated limited lists */
    int64_t capacity,            /* entries in queue and in limited */
    int64_t qlen,                /* where the first queue is written */
    int64_t llen,                /* where the first limited list is written */
    int64_t *ends)               /* per world: [queue end, limited end] */
{
    const int64_t stride = num_nodes + 1;
    for (int64_t w = 0; w < num_worlds; ++w) {
        /* One world appends at most num_nodes entries to either buffer;
         * stop early and let the caller grow them. */
        if (capacity - qlen < num_nodes) return w;
        stamp += 1;
        const int64_t *off = offsets + worlds[w] * stride;
        const int64_t first = qlen;
        for (int64_t s = 0; s < num_seeds; ++s) {
            const int32_t seed = seeds[s];
            visited[seed] = stamp;
            queue[qlen++] = seed;
        }
        int64_t head = first;
        while (head < qlen) {
            const int32_t user = queue[head++];
            int64_t remaining = coupons[user];
            const int64_t low = off[user];
            const int64_t high = off[user + 1];
            if (remaining <= 0) {
                if (low < high) limited[llen++] = user;
                continue;
            }
            if (low == high) continue;
            for (int64_t pos = low; pos < high; ++pos) {
                const int32_t neighbor = targets[pos];
                if (visited[neighbor] == stamp) continue;
                visited[neighbor] = stamp;
                queue[qlen++] = neighbor;
                if (--remaining <= 0) {
                    if (pos < high - 1) limited[llen++] = user;
                    break;
                }
            }
        }
        ends[2 * w] = qlen;
        ends[2 * w + 1] = llen;
    }
    return num_worlds;
}
"""


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def _find_compiler() -> Optional[str]:
    from shutil import which

    for candidate in ("cc", "gcc", "clang"):
        path = which(candidate)
        if path:
            return path
    return None


def _build_cc_library() -> Tuple[Optional[ctypes.CDLL], float]:
    """Compile (or load the cached) C kernel library.

    Returns ``(library, compile_seconds)`` — ``compile_seconds`` is 0.0 when
    a previously compiled library was reused.  Any failure (no compiler,
    compile error, unwritable cache) returns ``(None, 0.0)``; the caller
    falls back to the interpreted path.
    """
    digest = hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]
    cache_dir = _cache_dir()
    lib_path = cache_dir / f"cascade-{digest}.so"
    compile_seconds = 0.0
    if not lib_path.exists():
        compiler = _find_compiler()
        if compiler is None:
            logger.debug("no C compiler found for the cascade kernel")
            return None, 0.0
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
            began = time.perf_counter()
            with tempfile.TemporaryDirectory(dir=str(cache_dir)) as workdir:
                source_path = Path(workdir) / "cascade.c"
                object_path = Path(workdir) / "cascade.so"
                source_path.write_text(_C_SOURCE, encoding="utf-8")
                subprocess.run(
                    [
                        compiler, "-O3", "-shared", "-fPIC",
                        "-o", str(object_path), str(source_path),
                    ],
                    check=True,
                    capture_output=True,
                )
                # Atomic publish: concurrent builders race harmlessly.
                os.replace(str(object_path), str(lib_path))
            compile_seconds = time.perf_counter() - began
        except (OSError, subprocess.CalledProcessError) as error:
            logger.debug("cascade kernel C compile failed: %s", error)
            return None, 0.0
    try:
        return ctypes.CDLL(str(lib_path)), compile_seconds
    except OSError as error:  # corrupt cache entry, wrong arch, ...
        logger.debug("cascade kernel library load failed: %s", error)
        try:
            lib_path.unlink()
        except OSError:
            pass
        return None, 0.0


class CascadeKernel:
    """One resolved native backend: compiled cascade entry points + warm-up.

    Instances are produced by :func:`load_kernel` (one per process) and are
    shared by every engine and worker in the process; the entry points are
    stateless, so sharing is safe.
    """

    def __init__(self, backend: str, block_fn, instrumented_fn) -> None:
        self.backend = backend
        self._block_fn = block_fn
        self._instrumented_fn = instrumented_fn
        self._warmed = False
        #: Wall-clock seconds the one-off shared-library compilation and
        #: warm-up cost in this process; 0.0 once warm or when a disk cache
        #: was hit.
        self.compile_seconds = 0.0

    # -- entry points --------------------------------------------------

    def cascade_block(
        self,
        targets: np.ndarray,
        offsets: np.ndarray,
        seeds: np.ndarray,
        coupons: np.ndarray,
        visited: np.ndarray,
        stamp: int,
        queue: np.ndarray,
        counts: np.ndarray,
    ) -> int:
        """Cascade every world of a flat block, accumulating ``counts``.

        Returns the last stamp written into ``visited`` (one per world) —
        the same contract as the interpreted
        :func:`repro.diffusion.engine.cascade_block`.
        """
        return int(
            self._block_fn(
                targets, offsets, seeds, coupons, visited, stamp, queue, counts
            )
        )

    def cascade_world_instrumented(
        self,
        targets: np.ndarray,
        offsets: np.ndarray,
        worlds: np.ndarray,
        seeds: np.ndarray,
        coupons: np.ndarray,
        visited: np.ndarray,
        stamp: int,
        queue: np.ndarray,
        limited: np.ndarray,
        queue_start: int,
        limited_start: int,
        ends: np.ndarray,
    ) -> int:
        """Instrumented cascades of the block rows ``worlds``, in order.

        World ``i`` is stamped ``stamp + i + 1``; its activation queue and
        coupon-limited list are appended to ``queue`` / ``limited`` from
        ``queue_start`` / ``limited_start`` on, and ``ends[2 i]`` /
        ``ends[2 i + 1]`` receive their end offsets.  The slices hold exactly
        what the interpreted
        :meth:`~repro.diffusion.engine.CompiledCascadeEngine.cascade_world_instrumented`
        would have produced, in the same order.  Returns how many worlds were
        cascaded: fewer than ``len(worlds)`` when the buffers could not hold
        one more world's worst case (``num_nodes`` entries) — the caller
        grows them and continues from there.
        """
        if worlds.shape[0] and (
            worlds.min() < 0 or worlds.max() >= offsets.shape[0]
        ):
            raise IndexError(f"world rows must lie in [0, {offsets.shape[0]})")
        if ends.shape[0] < 2 * worlds.shape[0]:
            raise ValueError("ends needs two entries per world")
        return int(
            self._instrumented_fn(
                targets, offsets, worlds, seeds, coupons, visited, stamp,
                queue, limited, queue_start, limited_start, ends,
            )
        )

    # -- warm-up -------------------------------------------------------

    def warm(self) -> float:
        """Compile/trigger both entry points on a one-world dummy block.

        Engines call this at construction so first-call costs land before any
        timed evaluation (CELF pivot-queue timings, benchmarks) instead of
        inside the first one.  Idempotent per kernel instance; returns the
        seconds this call spent (0.0 once warm).
        """
        if self._warmed:
            return 0.0
        began = time.perf_counter()
        targets = np.array([1], dtype=np.int32)
        offsets = np.array([[0, 1, 1]], dtype=np.int64)
        seeds = np.array([0], dtype=np.int32)
        coupons = np.array([1, 0], dtype=np.int64)
        visited = np.zeros(2, dtype=np.int64)
        queue = np.zeros(2, dtype=np.int32)
        limited = np.zeros(2, dtype=np.int32)
        counts = np.zeros(2, dtype=np.int64)
        stamp = self.cascade_block(
            targets, offsets, seeds, coupons, visited, 0, queue, counts
        )
        self.cascade_world_instrumented(
            targets, offsets, np.zeros(1, dtype=np.int64), seeds, coupons,
            visited, stamp, queue, limited, 0, 0, np.zeros(2, dtype=np.int64),
        )
        elapsed = time.perf_counter() - began
        self._warmed = True
        self.compile_seconds += elapsed
        return elapsed


def _make_cc_kernel() -> Optional[CascadeKernel]:
    library, compile_seconds = _build_cc_library()
    if library is None:
        return None
    from numpy.ctypeslib import ndpointer

    i32 = ndpointer(dtype=np.int32, flags="C_CONTIGUOUS")
    i64 = ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    c_i64 = ctypes.c_int64

    library.repro_cascade_block.argtypes = [
        i32, i64, c_i64, c_i64, i32, c_i64, i64, i64, c_i64, i32, i64,
    ]
    library.repro_cascade_block.restype = c_i64
    library.repro_cascade_worlds_instrumented.argtypes = [
        i32, i64, c_i64, i64, c_i64, i32, c_i64, i64, i64, c_i64,
        i32, i32, c_i64, c_i64, c_i64, i64,
    ]
    library.repro_cascade_worlds_instrumented.restype = c_i64

    block_raw = library.repro_cascade_block
    instrumented_raw = library.repro_cascade_worlds_instrumented

    def block_fn(targets, offsets, seeds, coupons, visited, stamp, queue, counts):
        return block_raw(
            targets, offsets, offsets.shape[1] - 1, offsets.shape[0],
            seeds, seeds.shape[0], coupons, visited, stamp, queue, counts,
        )

    def instrumented_fn(
        targets, offsets, worlds, seeds, coupons, visited, stamp,
        queue, limited, queue_start, limited_start, ends,
    ):
        return instrumented_raw(
            targets, offsets, offsets.shape[1] - 1, worlds, worlds.shape[0],
            seeds, seeds.shape[0], coupons, visited, stamp,
            queue, limited, min(queue.shape[0], limited.shape[0]),
            queue_start, limited_start, ends,
        )

    kernel = CascadeKernel("cc", block_fn, instrumented_fn)
    kernel.compile_seconds = compile_seconds
    return kernel


# Per-process kernel singleton: False = unresolved, None = resolved absent.
_KERNEL: "CascadeKernel | None | bool" = False


def native_disabled() -> bool:
    """Whether ``REPRO_NO_NATIVE_KERNEL`` forces the interpreted path.

    Parsed through :func:`repro.utils.env.env_flag`, so ``0``/``false``/
    ``no``/``off``/empty behave exactly like leaving the variable unset —
    only a truthy spelling disables the native backend.
    """
    return env_flag(DISABLE_ENV)


def load_kernel() -> Optional[CascadeKernel]:
    """The process-wide native kernel, or ``None`` when unavailable.

    The C-compiler backend, or ``None`` when no compiler can build it.  The
    result is cached for the life of the process; tests use
    :func:`reset_kernel_cache` to re-resolve after monkeypatching the
    backend.
    """
    global _KERNEL
    if native_disabled():
        return None
    if _KERNEL is False:
        kernel = _make_cc_kernel()
        if kernel is None:
            logger.debug("no native cascade kernel backend available")
        _KERNEL = kernel
    return _KERNEL


def kernel_backend() -> Optional[str]:
    """Name of the resolved native backend (``"cc"`` or ``None``)."""
    kernel = load_kernel()
    return kernel.backend if kernel is not None else None


def reset_kernel_cache() -> None:
    """Forget the resolved backend (test hook for forced-fallback suites)."""
    global _KERNEL
    _KERNEL = False
