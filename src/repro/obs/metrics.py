"""Metrics: per-operation call counts, wall time, and row/column flow.

A :class:`MetricsRegistry` aggregates two kinds of measurements:

* **operation metrics** (:class:`OpMetrics`) — one record per algebra
  operation name, accumulating calls, errors, wall time, and the number
  of tables / data rows / data columns flowing in and out;
* **counters** — plain-integer counters (statements executed, while
  iterations, wildcard combinations, …).

An observation's registry is a fold over its finished span trees
(:meth:`MetricsRegistry.from_spans`): op spans, which the registry's
dispatch events built, fold into operation metrics, and the
interpreters' structural spans fold into the counters.  All mutation
happens under one lock; snapshots are plain dicts, cheap to JSON-encode.
"""

from __future__ import annotations

import threading
from typing import Iterable

__all__ = ["HIST_BUCKETS_S", "OpMetrics", "MetricsRegistry"]

#: Per-call wall-time histogram bucket upper bounds, in seconds.  The
#: last implicit bucket is +Inf; counts are kept per bucket (not
#: cumulative) and rendered cumulatively by the Prometheus exporter.
HIST_BUCKETS_S = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class OpMetrics:
    """Aggregated measurements for one named operation."""

    __slots__ = (
        "name",
        "calls",
        "errors",
        "wall_time",
        "tables_in",
        "tables_out",
        "rows_in",
        "rows_out",
        "cols_in",
        "cols_out",
        "hist",
    )

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.errors = 0
        self.wall_time = 0.0
        self.tables_in = 0
        self.tables_out = 0
        self.rows_in = 0
        self.rows_out = 0
        self.cols_in = 0
        self.cols_out = 0
        #: Per-bucket call counts; index i counts calls with
        #: ``seconds <= HIST_BUCKETS_S[i]``, the last slot is overflow.
        self.hist = [0] * (len(HIST_BUCKETS_S) + 1)

    def observe(self, seconds: float) -> None:
        """Fold one call's wall time into the histogram."""
        for index, bound in enumerate(HIST_BUCKETS_S):
            if seconds <= bound:
                self.hist[index] += 1
                return
        self.hist[-1] += 1

    def as_dict(self) -> dict:
        """A JSON-serializable snapshot of this record."""
        return {
            "calls": self.calls,
            "errors": self.errors,
            "wall_time_ms": round(self.wall_time * 1e3, 6),
            "tables_in": self.tables_in,
            "tables_out": self.tables_out,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "cols_in": self.cols_in,
            "cols_out": self.cols_out,
            "hist": list(self.hist),
        }

    def __repr__(self) -> str:
        return (
            f"OpMetrics({self.name}: {self.calls} calls, "
            f"rows {self.rows_in}->{self.rows_out}, {self.wall_time * 1e3:.3f}ms)"
        )


#: The op-span attributes :meth:`MetricsRegistry.record_op` sums.
_FLOW_KEYS = ("tables_in", "tables_out", "rows_in", "rows_out", "cols_in", "cols_out")

#: Structural span name -> the counter each error-free close bumps.
_CLEAN_CLOSE_COUNTERS = {
    "program": "programs",
    "statement": "statements",
    "while": "while_loops",
    "fw-while": "fw_while_loops",
    "fw-statement": "fw_statements",
}

#: Loop span name -> the counter each of its ``iteration`` children bumps.
_ITERATION_COUNTERS = {"while": "while_iterations", "fw-while": "fw_while_iterations"}


class MetricsRegistry:
    """Thread-safe aggregation of operation metrics and counters."""

    __slots__ = ("_lock", "_ops", "_counters")

    def __init__(self):
        self._lock = threading.Lock()
        self._ops: dict[str, OpMetrics] = {}
        self._counters: dict[str, int] = {}

    @classmethod
    def from_spans(cls, roots: Iterable) -> "MetricsRegistry":
        """Fold finished span trees into op metrics and counters.

        An op span — one the dispatch events stamped with ``shapes_in``
        — is one call of its op, an error when the span carries one.
        Every ``iteration`` and ``fault`` span counts; the other
        structural spans (:data:`_CLEAN_CLOSE_COUNTERS`) count only when
        they closed without an error, and a clean ``statement`` adds its
        ``combinations``.
        """
        registry = cls()
        for root in roots:
            for span in root.walk():
                registry._fold(span)
        return registry

    def _fold(self, span) -> None:
        name, attrs = span.name, span.attributes
        if "shapes_in" in attrs:
            flow = {key: attrs[key] for key in _FLOW_KEYS if key in attrs}
            self.record_op(name, span.duration, error=span.error is not None, **flow)
        elif name == "fault":
            self.count("faults_injected")
        elif name in _CLEAN_CLOSE_COUNTERS:
            iterations = sum(child.name == "iteration" for child in span.children)
            if name in _ITERATION_COUNTERS and iterations:
                self.count(_ITERATION_COUNTERS[name], iterations)
            if span.error is None:
                self.count(_CLEAN_CLOSE_COUNTERS[name])
                if name == "statement":
                    self.count("combinations", attrs.get("combinations", 0))

    # -- recording ------------------------------------------------------

    def record_op(
        self,
        name: str,
        seconds: float,
        tables_in: int = 0,
        tables_out: int = 0,
        rows_in: int = 0,
        rows_out: int = 0,
        cols_in: int = 0,
        cols_out: int = 0,
        error: bool = False,
    ) -> None:
        """Fold one operation invocation into the per-op record."""
        with self._lock:
            record = self._ops.get(name)
            if record is None:
                record = self._ops[name] = OpMetrics(name)
            record.calls += 1
            record.wall_time += seconds
            record.observe(seconds)
            record.tables_in += tables_in
            record.tables_out += tables_out
            record.rows_in += rows_in
            record.rows_out += rows_out
            record.cols_in += cols_in
            record.cols_out += cols_out
            if error:
                record.errors += 1

    def count(self, name: str, n: int = 1) -> None:
        """Bump a plain counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    # -- inspection -----------------------------------------------------

    def op(self, name: str) -> OpMetrics | None:
        """The record for one operation, or None if never recorded."""
        with self._lock:
            return self._ops.get(name)

    def counter(self, name: str) -> int:
        """The current value of a counter (0 if never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    @property
    def operations(self) -> dict[str, OpMetrics]:
        """All operation records, keyed by name (a shallow copy)."""
        with self._lock:
            return dict(self._ops)

    @property
    def counters(self) -> dict[str, int]:
        """All counters (a copy)."""
        with self._lock:
            return dict(self._counters)

    def is_empty(self) -> bool:
        """True iff nothing has been recorded."""
        with self._lock:
            return not self._ops and not self._counters

    def snapshot(self) -> dict:
        """A JSON-serializable snapshot of everything recorded so far."""
        with self._lock:
            return {
                "operations": {
                    name: record.as_dict()
                    for name, record in sorted(self._ops.items())
                },
                "counters": dict(sorted(self._counters.items())),
            }

    def reset(self) -> None:
        """Drop every record and counter."""
        with self._lock:
            self._ops.clear()
            self._counters.clear()

    def __repr__(self) -> str:
        with self._lock:
            return f"MetricsRegistry({len(self._ops)} ops, {len(self._counters)} counters)"
