"""Execution tracing: nested spans with wall-clock timings.

A :class:`Span` is one timed region of work — an operation invocation, a
program statement, a while-loop iteration, a compilation phase — with a
name, free-form attributes, and children.  A :class:`Tracer` is a pure
consumer of the event feed (:mod:`repro.obs.events`): installed as the
``EVT.observer`` by an ``observation()`` scope, it opens and closes every
span from the ``span_start``/``span_finish`` (op) and
``boundary_start``/``boundary_finish`` (structural) events on one
open-span stack per thread, so concurrent interpreter runs never
interleave their trees, and completed top-level spans are appended to a
shared, lock-protected root list.  Fed the events a ring retained, a
fresh tracer rebuilds the same trees after the fact.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from typing import Iterator

__all__ = ["Span", "Tracer"]


class Span:
    """One timed, attributed, possibly-nested region of work.

    ``start``/``end`` are :func:`time.perf_counter` stamps; ``error``
    holds ``repr(exception)`` when the region raised; ``kernel`` marks
    an op span whose result a vector kernel produced.  A :class:`Tracer`
    builds them from the event feed.
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


class _Open:
    """One open span on a thread's stack: ``op`` marks an op span (the
    target of ``error``, ``engine_dispatch`` and ``fault_injected``);
    ``mem_start`` is the traced memory at entry, or -1."""

    __slots__ = ("span", "op", "mem_start")

    def __init__(self, span: Span, op: bool, mem_start: int):
        self.span = span
        self.op = op
        self.mem_start = mem_start


class Tracer:
    """Builds span trees from the event feed, one open-span stack per thread.

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

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def collect(self, kind: str, data: dict) -> None:
        """Open, annotate and close spans from one event (the ``EVT.observer``).

        ``span_start`` and ``boundary_start`` open a span under this
        thread's open span, carrying the payload as attributes;
        ``span_finish`` and ``boundary_finish`` add their payload and
        close it.  ``error`` records an op's failure, ``engine_dispatch``
        marks the op span kernel-produced and ``fault_injected`` nests a
        ``fault`` span under it.  An event that matches no open span on
        its thread — a scope entered mid-region, a backend dispatched
        outside the registry — is ignored.
        """
        stack = self._stack()
        if kind == "span_start" or kind == "boundary_start":
            key = "op" if kind == "span_start" else "name"
            span = Span(data[key], {k: v for k, v in data.items() if k != key})
            mem_start = -1
            if self.memory and tracemalloc.is_tracing():
                mem_start, _peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
            if stack:
                stack[-1].span.children.append(span)
            stack.append(_Open(span, kind == "span_start", mem_start))
            span.start = time.perf_counter()
            return
        if not stack:
            return
        top = stack[-1]
        span = top.span
        if kind == "boundary_finish":
            if top.op or span.name != data["name"]:
                return
            error = data.get("error")
            if error is not None:
                span.error = error
            self._close(stack, data, ("name", "ok", "error"))
        elif not top.op:
            return
        elif kind == "span_finish":
            self._close(stack, data, ("op", "ok", "duration_ms"))
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

    def _close(self, stack: list[_Open], data: dict, skip: tuple[str, ...]) -> None:
        """Close the top span with the finish payload (minus ``skip``)."""
        top = stack.pop()
        span = top.span
        span.end = time.perf_counter()
        for key, value in data.items():
            if key not in skip:
                span.attributes[key] = value
        if top.mem_start >= 0 and tracemalloc.is_tracing():
            # Peak allocation above the level at span entry.  The peak
            # counter is process-global and reset at every span entry, so
            # a parent whose child reset it under-reports its own peak;
            # leaf spans (the operation calls the profiler attributes
            # hotspots to) are exact.
            _current, peak = tracemalloc.get_traced_memory()
            span.attributes["mem_peak_kb"] = round(
                max(0, peak - top.mem_start) / 1024.0, 3
            )
        if not stack:
            with self._lock:
                self._roots.append(span)

    @property
    def roots(self) -> tuple[Span, ...]:
        """All completed top-level spans, in completion order."""
        with self._lock:
            return tuple(self._roots)
