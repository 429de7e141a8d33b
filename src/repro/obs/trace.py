"""Execution tracing: nested spans with wall-clock timings.

A :class:`Span` is one timed region of work — an operation invocation, a
program statement, a while-loop iteration, a compilation phase — with a
name, free-form attributes, and children.  A :class:`Tracer` collects
spans into per-thread trees: each thread keeps its own open-span stack,
so concurrent interpreter runs never interleave their trees, and
completed top-level spans are appended to a shared, lock-protected root
list.  Structural spans are opened with :meth:`Tracer.span`; op spans
are built by :meth:`Tracer.collect` from the registry's dispatch events,
the one record of an op boundary.

The tracer is built for instrumentation that must vanish when disabled:
:data:`NULL_SPAN` is a shared do-nothing context manager, and every
``span(...)`` call site in the engine is guarded by a single attribute
check on the global observation state (see :mod:`repro.obs.runtime`), so
the untraced hot path pays essentially nothing.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from typing import Iterator

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    """One timed, attributed, possibly-nested region of work.

    ``start``/``end`` are :func:`time.perf_counter` stamps; ``error``
    holds ``repr(exception)`` when the region raised; ``kernel`` marks
    an op span whose result a vector kernel produced.  Spans are context
    managers only through their owning :class:`Tracer`.
    """

    __slots__ = ("name", "attributes", "start", "end", "children", "thread_id", "error", "kernel")

    def __init__(self, name: str, attributes: dict | None = None):
        self.name = name
        self.attributes = dict(attributes or {})
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []
        self.thread_id = threading.get_ident()
        self.error: str | None = None
        self.kernel = False

    @property
    def duration(self) -> float:
        """Wall-clock seconds spent inside the span."""
        return max(0.0, self.end - self.start)

    def set(self, **attributes) -> "Span":
        """Attach or overwrite attributes; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """A JSON-serializable view of the span tree."""
        out: dict = {
            "name": self.name,
            "duration_ms": round(self.duration * 1e3, 6),
            "attributes": {k: _jsonable(v) for k, v in self.attributes.items()},
        }
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, {len(self.children)} children)"


def _jsonable(value: object) -> object:
    """Coerce attribute values into JSON-representable shapes."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class _ActiveSpan:
    """Context manager pairing a span with its tracer's stack discipline."""

    __slots__ = ("_tracer", "span", "_is_root", "_mem_start")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span
        self._is_root = False
        self._mem_start = -1

    def __enter__(self) -> Span:
        self._is_root = self._tracer._push(self.span)
        if self._tracer.memory and tracemalloc.is_tracing():
            self._mem_start, _peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.span.end = time.perf_counter()
        if self._mem_start >= 0 and tracemalloc.is_tracing():
            # Peak allocation above the level at span entry.  The peak
            # counter is process-global and reset at every span entry, so
            # a parent whose child reset it under-reports its own peak;
            # leaf spans (the operation calls the profiler attributes
            # hotspots to) are exact.
            _current, peak = tracemalloc.get_traced_memory()
            self.span.attributes["mem_peak_kb"] = round(
                max(0, peak - self._mem_start) / 1024.0, 3
            )
        if exc is not None:
            self.span.error = repr(exc)
        self._tracer._pop(self.span, self._is_root)
        return False


class _NullSpan:
    """Shared no-op stand-in for a span when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        return False

    def set(self, **attributes) -> "_NullSpan":
        return self


#: The singleton disabled span; ``with NULL_SPAN as sp: sp.set(...)`` is free.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span trees, one open-span stack per thread.

    ``memory=True`` additionally records each span's peak ``tracemalloc``
    allocation (as a ``mem_peak_kb`` attribute) — the caller is
    responsible for having ``tracemalloc`` tracing switched on (see
    :func:`repro.obs.profile.profile`, which manages that lifecycle).
    """

    __slots__ = ("_local", "_lock", "_roots", "memory")

    def __init__(self, memory: bool = False):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        self.memory = memory

    # -- stack discipline ----------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> bool:
        """Attach under the open span; True iff ``span`` starts a new tree."""
        stack = self._stack()
        is_root = not stack
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        return is_root

    def _pop(self, span: Span, is_root: bool) -> None:
        stack = self._stack()
        # Exception safety: unwind past any spans abandoned by a raise.
        while stack:
            if stack.pop() is span:
                break
        if is_root:
            with self._lock:
                self._roots.append(span)

    def _ops(self) -> list[_ActiveSpan]:
        ops = getattr(self._local, "ops", None)
        if ops is None:
            ops = self._local.ops = []
        return ops

    # -- public API -----------------------------------------------------

    def collect(self, kind: str, data: dict) -> None:
        """Build op spans from the dispatch events (the ``EVT.observer``).

        ``span_start`` opens an op span under this thread's open span,
        carrying its payload as attributes; ``span_finish`` adds its
        payload and closes it.  ``error`` records the failure,
        ``engine_dispatch`` marks the span kernel-produced and
        ``fault_injected`` nests a ``fault`` span under it.  An event
        with no open op span on its thread — a scope entered mid-op, a
        backend dispatched outside the registry — is ignored.
        """
        ops = self._ops()
        if kind == "span_start":
            attributes = {k: v for k, v in data.items() if k != "op"}
            ops.append(_ActiveSpan(self, Span(data["op"], attributes)))
            ops[-1].__enter__()
            return
        if not ops:
            return
        span = ops[-1].span
        if kind == "span_finish":
            for key, value in data.items():
                if key not in ("op", "ok", "duration_ms"):
                    span.attributes[key] = value
            ops.pop().__exit__(None, None, None)
        elif kind == "error":
            span.error = f"{data['error_type']}({data['error']!r})"
        elif kind == "engine_dispatch":
            span.kernel = True
        elif kind == "fault_injected":
            fault = Span(
                "fault",
                {"op": data["op"], "kind": data["fault"], "occurrence": data["occurrence"]},
            )
            fault.start = fault.end = time.perf_counter()
            span.children.append(fault)

    def span(self, name: str, **attributes) -> _ActiveSpan:
        """Open a new span nested under the current thread's open span."""
        return _ActiveSpan(self, Span(name, attributes))

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @property
    def roots(self) -> tuple[Span, ...]:
        """All completed top-level spans, in completion order."""
        with self._lock:
            return tuple(self._roots)

    def reset(self) -> None:
        """Drop all collected roots (open stacks are per-thread and unaffected)."""
        with self._lock:
            self._roots.clear()
