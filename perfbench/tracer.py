"""Span tracer that times a program's entry points from outside.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` replaces named attributes (methods, functions, properties,
module-level aliases) with timing wrappers at runtime and puts the original
objects back afterwards.  Each call into a wrapped attribute records a span:
name, start, end, parent span and the id of the operation (solve or request)
it belongs to.  Self time is computed as the spans close: a span's duration
minus the durations of the wrapped calls made directly inside it.

Rules the wrappers follow:

* spans are recorded only inside :meth:`Tracer.operation` and only in the
  process that opened it (forked pool workers inherit the patched classes
  but call straight through);
* a generator function is timed over its consumption: every resumption is one
  span, so work the consumer does between items is not charged to it;
* a thread whose stack is empty (a job-queue worker running a solve) attaches
  its spans to the operation span that is open at that moment.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Column order of one recorded span; ``self`` is its self time.
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op", "n", "self")

#: Per-name aggregate columns of :meth:`Tracer.aggregate`.
CALLS, TOTAL, SELF, COUNT = range(4)


class Tracer:
    """Collects spans from wrapped callables; see the module docstring.

    ``clock`` is injectable so tests can drive the arithmetic with a fake
    time source.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: One tuple per closed span, in :data:`SPAN_FIELDS` order.
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_frame: Optional[list] = None
        self._op_id: Optional[str] = None
        self._patches: List[tuple] = []
        # A forked worker inherits the patched classes; it must not record.
        reference = weakref.ref(self)

        def forget_operation() -> None:
            tracer = reference()
            if tracer is not None:
                tracer._op_frame = None

        os.register_at_fork(after_in_child=forget_operation)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._op_frame
        # frame: [id, name, start, child seconds, parent frame, op id]
        frame = [next(self._ids), name, 0.0, 0.0, parent, self._op_id]
        stack.append(frame)
        frame[2] = self.clock()
        return frame

    def _close(self, frame: list, count: int = 0) -> None:
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        stack.pop()
        duration = end - frame[2]
        parent = frame[4]
        if parent is not None:
            if stack:
                parent[3] += duration
            else:
                # Adopted by the operation span from another thread.
                with self._lock:
                    parent[3] += duration
        self.spans.append((
            frame[0], frame[1], frame[2], end,
            parent[0] if parent is not None else None, frame[5], count,
            duration - frame[3],
        ))

    @contextmanager
    def operation(self, name: str, op_id: str) -> Iterator[None]:
        """Open the root span of one timed operation (a solve, a request)."""
        if self._op_frame is not None:
            raise RuntimeError("operations do not nest")
        self._op_id = op_id
        frame = self._open(name)
        self._op_frame = frame
        try:
            yield
        finally:
            self._op_frame = None
            self._close(frame)
            self._op_id = None

    def aggregate(self) -> Dict[str, List[float]]:
        """name -> [calls, total seconds, self seconds, summed count]."""
        table: Dict[str, List[float]] = {}
        for span in self.spans:
            entry = table.get(span[1])
            if entry is None:
                entry = table[span[1]] = [0, 0.0, 0.0, 0]
            entry[CALLS] += 1
            entry[TOTAL] += span[3] - span[2]
            entry[SELF] += span[7]
            entry[COUNT] += span[6]
        return table

    def reset(self) -> None:
        """Forget every recorded span."""
        self.spans.clear()

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _traced_call(self, name: str, function: Callable, count) -> Callable:
        open_span, close_span = self._open, self._close

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if self._op_frame is None:
                return function(*args, **kwargs)
            frame = open_span(name)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                close_span(frame)
                raise
            close_span(frame, 0 if count is None else count(result, args))
            return result

        return traced

    def _traced_generator(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            generator = function(*args, **kwargs)
            if self._op_frame is None:
                return generator
            return self._resumptions(name, generator)

        return traced

    def _resumptions(self, name: str, generator) -> Iterator:
        try:
            while True:
                if self._op_frame is None:
                    yield from generator
                    return
                frame = self._open(name)
                try:
                    item = next(generator)
                except StopIteration:
                    self._close(frame)
                    return
                except BaseException:
                    self._close(frame)
                    raise
                self._close(frame, 1)
                yield item
        finally:
            generator.close()

    def _wrap_function(self, name: str, function: Callable, count) -> Callable:
        if inspect.isgeneratorfunction(function):
            if count is not None:
                raise ValueError(f"{name}: generators take no count function")
            return self._traced_generator(name, function)
        return self._traced_call(name, function, count)

    def wrap(self, owner, attribute: str, name: str, count=None) -> None:
        """Replace ``owner.attribute`` (class or module) with a traced version.

        The attribute must be defined on ``owner`` itself, so that putting the
        original object back restores exactly what was there.  ``count``
        optionally maps ``(result, args)`` to the integer stored with the
        span (items returned, tasks dispatched, ...).
        """
        raw = vars(owner).get(attribute)
        if raw is None:
            raise AttributeError(f"{owner!r} defines no attribute {attribute!r}")
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap_function(name, raw.__func__, count))
        elif isinstance(raw, classmethod):
            replacement = classmethod(self._wrap_function(name, raw.__func__, count))
        elif isinstance(raw, property):
            replacement = property(
                self._wrap_function(name, raw.fget, count), raw.fset, raw.fdel, raw.__doc__
            )
        elif callable(raw):
            replacement = self._wrap_function(name, raw, count)
        else:
            raise TypeError(f"{name}: cannot wrap {type(raw).__name__}")
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def unwrap_all(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    @property
    def wrapped(self) -> int:
        """How many attributes are currently replaced."""
        return len(self._patches)

    @contextmanager
    def installed(self, targets) -> Iterator["Tracer"]:
        """Wrap ``(owner, attribute, name, count)`` targets for a block."""
        try:
            for owner, attribute, name, count in targets:
                self.wrap(owner, attribute, name, count)
            yield self
        finally:
            self.unwrap_all()
