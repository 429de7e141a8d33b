"""The structured event bus: typed, subscribable execution telemetry.

The event bus is the engine's one telemetry stream: every chokepoint —
op dispatch, the structural boundaries around it (program, statement,
while loop and iteration, FO+while, compiler, bridge and governed
regions), while-fixpoint ticks, governor budget checks and kills,
checkpoint write/restore, fault injection, vector-engine kernel dispatch
and fallback — publishes a typed, schema-versioned :class:`Event` the
moment it happens, and subscribers consume the stream while the run is
still executing.  A server streaming job progress over a WebSocket, a
progress ticker on a terminal, the flight recorder's postmortem ring
and the run ledger are all subscribers; an ``observation()`` scope's
tracer (:mod:`repro.obs.trace`) builds its span trees from the same
events.

The bus follows the ``GOV``/``EST`` architecture exactly: one
module-level singleton, :data:`EVT`, guards every publish site, and it
is the one switch for spans and events alike.  When ``EVT.active`` is
False — the default — each chokepoint falls through after a single
attribute check, no event payload is ever built, and the
zero-allocation audit holds.  :func:`event_stream` switches the feed
on::

    from repro.obs.events import event_stream

    with event_stream() as bus:
        ring = bus.ring(capacity=512)
        program.run(db)
    for event in ring.tail():
        print(event.kind, event.data)

Two subscriber shapes:

* **ring subscribers** (:meth:`EventBus.ring`) — bounded deques holding
  the most recent events; old events are dropped (and counted), so a
  misbehaving run can never grow a subscriber without bound.  The
  flight recorder is one of these.
* **callback subscribers** (:meth:`EventBus.attach`) — called
  synchronously, outside the bus lock, for each event.  The progress
  ticker and the JSON-lines stream writer are callbacks.  A callback
  that raises is counted (``bus.callback_errors``) and never kills the
  engine: telemetry must not take the run down with it.

Every event serializes to a self-describing JSON object carrying the
schema version, so the JSON-lines stream is the future WebSocket feed
verbatim.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Iterator

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_KINDS",
    "Event",
    "RingSubscriber",
    "EventBus",
    "JsonlEventWriter",
    "EVT",
    "Boundary",
    "NO_BOUNDARY",
    "emit",
    "event_stream",
]

#: Version stamp carried by every serialized event.  Bump when an event
#: kind loses a payload field or a field changes type; adding kinds or
#: fields is backward compatible and does not bump the version.
EVENT_SCHEMA_VERSION = 1

#: The typed event vocabulary.  Each kind maps 1:1 to an engine
#: chokepoint; payload fields per kind are documented in
#: docs/OBSERVABILITY.md (the event schema table).
EVENT_KINDS = frozenset(
    {
        "run_start",  # hardened driver entered: workload, statements
        "run_finish",  # hardened driver exited cleanly: governor snapshot
        "span_start",  # op dispatch entered: op, tables/rows/cols_in, shapes_in, est_rows
        "span_finish",  # op dispatch exited: op, ok, duration_ms, tables/rows/cols_out, shapes_out
        "boundary_start",  # structural region entered: name, the region's start attributes
        "boundary_finish",  # structural region left: name, ok, error (repr) if it raised, finish attributes
        "while_iteration",  # fixpoint tick: condition, iteration, frontier/total rows + deltas
        "governor_budget",  # per-tick budget headroom: elapsed vs deadline, rows vs cap
        "governor_kill",  # a budget tripped: kind, limit, used, op/statement/iteration
        "checkpoint_write",  # checkpoint persisted: path, statement_index, iteration
        "checkpoint_restore",  # resume restored state: path, statement_index, iteration
        "fault_injected",  # chaos plan fired: op, kind, occurrence, seed
        "engine_dispatch",  # vector kernel took an invocation: op
        "engine_fallback",  # vector backend declined: op, reason (machine-readable)
        "op_estimate",  # estimator scored a prediction: op, est_rows, act_rows, q_error, source
        "error",  # an op raised: op, error (repr), error_type
        "retry_scheduled",  # supervisor will retry: attempt, decision, backoff_s, error_type
        "breaker_transition",  # circuit breaker moved: fingerprint, from_state, to_state
        "run_recovered",  # crash recovery resumed an orphaned run: run_id, workload
        "engine_degraded",  # degradation ladder fired: mode (engine|obs_shed), from/to
        "plan_rewrite",  # optimizer applied a rewrite: rule, detail, fingerprint
    }
)


class Event:
    """One published event: a sequence number, a timestamp, a kind, data.

    ``seq`` is bus-assigned and strictly increasing, so subscribers can
    detect gaps (ring drops) and order merged streams; ``ts`` is
    ``time.time()`` (wall clock, for postmortems and cross-process
    correlation).  ``data`` is the kind-specific payload dict.
    """

    __slots__ = ("seq", "ts", "kind", "data")

    def __init__(self, kind: str, data: dict):
        self.seq = 0
        self.ts = 0.0
        self.kind = kind
        self.data = data

    def to_json(self) -> dict:
        """The self-describing wire form (the WebSocket/JSONL payload)."""
        return {
            "v": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "ts": round(self.ts, 6),
            "kind": self.kind,
            "data": _jsonable_data(self.data),
        }

    def __repr__(self) -> str:
        return f"Event(#{self.seq} {self.kind} {self.data!r})"


def _jsonable_data(data: dict) -> dict:
    from .trace import _jsonable

    return {str(k): _jsonable(v) for k, v in data.items()}


class RingSubscriber:
    """A bounded most-recent-events buffer attached to one bus.

    Appends happen under the bus lock; reads take the same lock, so
    ``tail()`` is always a consistent snapshot.  When the ring is full
    the oldest event is dropped and counted — sequence-number gaps in
    the tail tell a consumer exactly what was lost.
    """

    __slots__ = ("capacity", "received", "dropped", "_events", "_lock")

    def __init__(self, capacity: int, lock: threading.Lock):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.received = 0
        self.dropped = 0
        self._events: deque[Event] = deque()
        self._lock = lock

    def _append(self, event: Event) -> None:
        # Called by the bus with its lock held.
        if len(self._events) >= self.capacity:
            self._events.popleft()
            self.dropped += 1
        self._events.append(event)
        self.received += 1

    def tail(self, n: int | None = None) -> tuple[Event, ...]:
        """The most recent events (all retained, or the last ``n``)."""
        with self._lock:
            events = tuple(self._events)
        return events if n is None else events[-n:]

    def drain(self) -> tuple[Event, ...]:
        """Remove and return everything retained (streaming consumption)."""
        with self._lock:
            events = tuple(self._events)
            self._events.clear()
        return events

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __repr__(self) -> str:
        return (
            f"RingSubscriber({len(self)}/{self.capacity} retained, "
            f"{self.dropped} dropped)"
        )


class EventBus:
    """Thread-safe publish/subscribe hub for :class:`Event` streams.

    ``publish`` assigns the sequence number and fans out to every ring
    under one lock, then invokes callback subscribers outside it (so a
    slow callback delays, but cannot deadlock, concurrent publishers).
    Subscribers may attach and detach at any time from any thread.
    """

    __slots__ = (
        "_lock",
        "_rings",
        "_callbacks",
        "_seq",
        "published",
        "callback_errors",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._rings: list[RingSubscriber] = []
        self._callbacks: list[Callable[[Event], None]] = []
        self._seq = 0
        self.published = 0
        self.callback_errors = 0

    # -- subscription ---------------------------------------------------

    def ring(self, capacity: int = 256) -> RingSubscriber:
        """Attach and return a new bounded ring subscriber."""
        subscriber = RingSubscriber(capacity, self._lock)
        with self._lock:
            self._rings.append(subscriber)
        return subscriber

    def attach(self, callback: Callable[[Event], None]) -> Callable[[Event], None]:
        """Attach a callback invoked (synchronously) per event."""
        with self._lock:
            self._callbacks.append(callback)
        return callback

    def detach(self, subscriber) -> bool:
        """Detach a ring or callback; True iff it was attached."""
        with self._lock:
            for pool in (self._rings, self._callbacks):
                for index, existing in enumerate(pool):
                    if existing is subscriber:
                        del pool[index]
                        return True
        return False

    @property
    def subscribers(self) -> int:
        """How many rings + callbacks are currently attached."""
        with self._lock:
            return len(self._rings) + len(self._callbacks)

    def ring_totals(self) -> dict:
        """Aggregate receive/drop counts over every attached ring.

        Drops are how a bounded subscriber loses telemetry silently;
        surfacing the totals (``repro metrics``, the Prometheus
        ``events_ring_dropped_total`` family) is what makes the
        truncation visible.
        """
        with self._lock:
            rings = tuple(self._rings)
        return {
            "rings": len(rings),
            "received": sum(ring.received for ring in rings),
            "dropped": sum(ring.dropped for ring in rings),
        }

    # -- publishing -----------------------------------------------------

    def publish(self, kind: str, /, **data) -> Event:
        """Publish one event to every subscriber; returns the event.

        ``kind`` must be a member of :data:`EVENT_KINDS` — an unknown
        kind is a programming error at the call site and raises
        immediately rather than polluting the typed stream.  The
        parameter is positional-only so payloads may carry their own
        ``kind`` field (``governor_kill`` does: the budget kind).
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = Event(kind, data)
        event.ts = time.time()
        with self._lock:
            self._seq += 1
            event.seq = self._seq
            self.published += 1
            for ring in self._rings:
                ring._append(event)
            callbacks = tuple(self._callbacks)
        for callback in callbacks:
            try:
                callback(event)
            except Exception:
                # A broken subscriber must never kill the run it watches.
                self.callback_errors += 1
        return event

    def __repr__(self) -> str:
        return f"EventBus({self.published} published, {self.subscribers} subscriber(s))"


class JsonlEventWriter:
    """Callback subscriber streaming events as JSON lines.

    One self-describing JSON object per line (the :meth:`Event.to_json`
    wire form), flushed per event so a tailing consumer — ``tail -f``,
    a log shipper, or the future WebSocket bridge pushing each line to a
    client verbatim — sees events as they happen.  Accepts a path (the
    writer owns and closes the handle) or any ``.write()``-able stream.
    """

    __slots__ = ("_handle", "_owns", "written")

    def __init__(self, target):
        if hasattr(target, "write"):
            self._handle = target
            self._owns = False
        else:
            self._handle = Path(target).open("w")
            self._owns = True
        self.written = 0

    def __call__(self, event: Event) -> None:
        self._handle.write(json.dumps(event.to_json()) + "\n")
        flush = getattr(self._handle, "flush", None)
        if flush is not None:
            flush()
        self.written += 1

    def close(self) -> None:
        if self._owns:
            self._handle.close()


class _EvtState:
    """The mutable global: one attribute check guards every publish site."""

    __slots__ = ("active", "bus", "observer")

    def __init__(self):
        self.active = False
        #: The installed :class:`EventBus`, or None.
        self.bus: EventBus | None = None
        #: The active observation's :class:`~repro.obs.trace.Tracer`,
        #: whose ``collect(kind, data)`` sees every event, or None.  A
        #: slot of its own rather than a bus subscription: an inner
        #: :func:`event_stream` replaces the bus but leaves the
        #: observation collecting.
        self.observer = None


#: The process-wide event-bus state consulted by all chokepoints.
EVT = _EvtState()


def emit(kind: str, /, **data) -> None:
    """Publish to the active bus and hand to the observer, if any.

    Chokepoints guard the call with ``if EVT.active:`` *before* building
    the payload kwargs, so the disabled path allocates nothing; this
    helper re-checks both sinks so a racing scope exit degrades to a
    no-op rather than an AttributeError.  ``kind`` is positional-only so
    payloads may carry their own ``kind`` field.
    """
    bus = EVT.bus
    if bus is not None:
        bus.publish(kind, **data)
    observer = EVT.observer
    if observer is not None:
        observer.collect(kind, data)


class Boundary:
    """A structural region on the feed: ``boundary_start`` when built,
    ``boundary_finish`` when its ``with`` block exits.

    Both events carry the region's ``name``; the start carries the
    keyword attributes given here, the finish carries ``ok``, the
    ``repr`` of the exception as ``error`` when the block raised, and
    whatever :meth:`set` added.  The pairs nest LIFO per thread, so a
    consumer rebuilds the region tree from the stream alone.  Sites
    build one only when ``EVT.active`` and enter :data:`NO_BOUNDARY`
    otherwise, so the disabled path builds no attributes::

        with (Boundary("while", text=cond) if EVT.active else NO_BOUNDARY) as region:
            ...
    """

    __slots__ = ("name", "finish")

    def __init__(self, name: str, /, **start):
        self.name = name
        self.finish: dict = {}
        emit("boundary_start", name=name, **start)

    def set(self, **attributes) -> None:
        """Add attributes to the finish event."""
        self.finish.update(attributes)

    def __enter__(self) -> "Boundary":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is None:
            emit("boundary_finish", name=self.name, ok=True, **self.finish)
        else:
            emit(
                "boundary_finish", name=self.name, ok=False, error=repr(exc), **self.finish
            )
        return False


#: What a site enters in a :class:`Boundary`'s place while the feed is
#: off: one shared context that publishes nothing and binds ``None``.
NO_BOUNDARY = nullcontext()


@contextmanager
def event_stream(bus: EventBus | None = None) -> Iterator[EventBus]:
    """Enable event publishing for the duration of the ``with`` block.

    Installs ``bus`` (or a fresh one) as the process-wide feed and
    restores the previous state on exit, so scopes nest exactly like
    ``observation()`` and ``governed()``: an inner stream shadows the
    outer one and the outer resumes untouched.
    """
    if bus is None:
        bus = EventBus()
    previous = (EVT.active, EVT.bus)
    EVT.bus = bus
    EVT.active = True
    try:
        yield bus
    finally:
        EVT.active, EVT.bus = previous
