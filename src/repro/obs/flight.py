"""The flight recorder: a postmortem ring over the event bus.

When a long run dies under a governor budget or an injected fault, the
question is always "what was the engine *doing*?" — and by then it is
too late to turn tracing on.  The flight recorder answers it cheaply:
a fixed-size :class:`~repro.obs.events.RingSubscriber` retains the last
N events of the run at all times, and when the run ends in a
:class:`~repro.core.errors.ContextualError` the recorder dumps a
**postmortem bundle** to a directory:

* ``MANIFEST.json`` — bundle format version, creation time, the error
  (type, message, structured context), event counts (retained/dropped),
  and the **checkpoint pointer** (the path of the last
  ``checkpoint_write`` event seen, i.e. where to resume from); when a
  run ledger was armed the manifest also carries the **run pointer**
  (``run.id`` + ``run.ledger``, noted via :meth:`FlightRecorder.note_run`)
  joining the postmortem to its ledger record;
* ``events.jsonl``   — the event tail, one wire-form JSON object per
  line, replaying the final iterations of the run;
* ``metrics.json``   — the metrics snapshot folded from the spans
  completed so far, when an :func:`~repro.obs.observation` scope was
  live;
* ``explain.txt``    — the EXPLAIN report over the same spans;
* ``plan.txt``       — the program/plan text, when the caller noted one
  via :meth:`FlightRecorder.note_program`;
* ``stats.json``     — the ANALYZE snapshot the estimator saw, when one
  was noted via :meth:`FlightRecorder.note_stats` or an estimation
  scope was live at dump time — crash triage sees the statistics behind
  every cardinality prediction of the dying run.

Usage mirrors the other runtime scopes::

    from repro.obs.flight import flight_recorder

    with flight_recorder("flight/") as recorder:
        recorder.note_program(repr(program))
        run_hardened(program, db, limits=Limits(deadline_s=0.05))
    # a deadline kill propagates out and the bundle is written;
    # recorder.last_bundle names the directory.

The recorder reuses an already-active :func:`~repro.obs.events.event_stream`
(so a ticker and the recorder share one bus) or opens its own.  With no
directory configured it still records — callers can dump manually — and
the ring costs one bounded deque regardless of run length, which is what
makes "always on" affordable.
"""

from __future__ import annotations

import json
import threading
from contextlib import ExitStack, contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

from ..core.errors import ContextualError, ReproError
from . import estimator as _est
from . import runtime as _obs
from .events import EVT, EventBus, RingSubscriber, event_stream

__all__ = [
    "BUNDLE_FORMAT",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "flight_recorder",
]

#: Version stamp written into every bundle's MANIFEST.json.
BUNDLE_FORMAT = 1

#: Events retained by the ring when the caller does not size it.
DEFAULT_CAPACITY = 256

#: Process-wide bundle counter so concurrent recorders in one process
#: never collide on a directory name.
_BUNDLE_COUNTER_LOCK = threading.Lock()
_BUNDLE_COUNTER = 0


def _next_bundle_name() -> str:
    global _BUNDLE_COUNTER
    with _BUNDLE_COUNTER_LOCK:
        _BUNDLE_COUNTER += 1
        return f"postmortem-{_BUNDLE_COUNTER:04d}"


class FlightRecorder:
    """A bounded event tail plus the postmortem dump that consumes it."""

    __slots__ = (
        "directory",
        "ring",
        "bus",
        "program_text",
        "stats",
        "last_bundle",
        "run_id",
        "ledger_path",
        "supervisor_history",
    )

    def __init__(
        self,
        bus: EventBus,
        directory: str | Path | None = None,
        capacity: int = DEFAULT_CAPACITY,
    ):
        self.bus = bus
        self.directory = Path(directory) if directory is not None else None
        self.ring: RingSubscriber = bus.ring(capacity)
        #: Plan/program text included in the bundle when noted.
        self.program_text: str | None = None
        #: ANALYZE snapshot included in the bundle when noted.
        self.stats = None
        #: Path of the most recently written bundle, or None.
        self.last_bundle: Path | None = None
        #: Run-ledger join key included in the bundle when noted.
        self.run_id: str | None = None
        self.ledger_path: str | None = None
        #: Supervision history block included in the bundle when noted.
        self.supervisor_history: dict | None = None

    def note_program(self, text: str) -> None:
        """Record the program/plan text for inclusion in any bundle."""
        self.program_text = text

    def note_run(self, run_id: str, ledger: str | Path | None = None) -> None:
        """Record the run id (and its ledger directory) for the bundle.

        A postmortem written while a run ledger was armed then carries
        the join key in its ``MANIFEST.json`` (the ``run`` block), so
        ``repro replay <bundle-dir>`` and postmortem triage can find the
        ledger record without guessing.
        """
        self.run_id = run_id
        self.ledger_path = str(ledger) if ledger is not None else None

    def note_supervisor(self, history: dict) -> None:
        """Record a supervision history for the bundle.

        The :class:`~repro.runtime.supervisor.Supervisor` stamps its
        attempt-by-attempt record (decisions, backoffs, degradations)
        here before dumping, so a postmortem shows not just the fatal
        error but every retry that led up to it.
        """
        self.supervisor_history = history

    def note_stats(self, stats) -> None:
        """Record the ANALYZE snapshot the estimator saw.

        The bundle then shows crash triage exactly the statistics the
        run's cardinality predictions came from (``stats.json``).
        """
        self.stats = stats

    def checkpoint_pointer(self) -> str | None:
        """The last ``checkpoint_write`` path seen, or None."""
        for event in reversed(self.ring.tail()):
            if event.kind == "checkpoint_write":
                path = event.data.get("path")
                return str(path) if path is not None else None
        return None

    def dump(self, error: BaseException | None = None) -> Path:
        """Write one postmortem bundle; returns the bundle directory.

        Raises :class:`~repro.core.errors.ReproError` when no directory
        is configured — a recorder without a destination records, but a
        caller asking for a dump without one is a programming error.
        """
        if self.directory is None:
            raise ReproError(
                "flight recorder has no dump directory; "
                "pass flight_recorder(directory=...)"
            )
        bundle = self.directory / _next_bundle_name()
        bundle.mkdir(parents=True, exist_ok=True)
        events = self.ring.tail()

        files = ["events.jsonl"]
        with (bundle / "events.jsonl").open("w") as handle:
            for event in events:
                handle.write(json.dumps(event.to_json()) + "\n")

        obs = _obs.OBS
        if obs.active:
            from .explain import explain_text

            snapshot = _obs.Observation(obs.tracer)
            (bundle / "metrics.json").write_text(
                json.dumps(snapshot.metrics.snapshot(), indent=2) + "\n"
            )
            (bundle / "explain.txt").write_text(explain_text(snapshot) + "\n")
            files += ["metrics.json", "explain.txt"]
        if self.program_text is not None:
            (bundle / "plan.txt").write_text(self.program_text + "\n")
            files.append("plan.txt")
        stats = self.stats
        if stats is None and _est.EST.active:
            # No snapshot was noted but an estimation scope is live:
            # include what the estimator is actually consulting.
            estimator = _est.EST.estimator
            stats = estimator.stats if estimator is not None else None
        if stats is not None:
            (bundle / "stats.json").write_text(
                json.dumps(stats.to_json(), indent=2) + "\n"
            )
            files.append("stats.json")

        manifest: dict = {
            "format": BUNDLE_FORMAT,
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "events": {
                "retained": len(events),
                "received": self.ring.received,
                "dropped": self.ring.dropped,
                "first_seq": events[0].seq if events else None,
                "last_seq": events[-1].seq if events else None,
            },
            "checkpoint": self.checkpoint_pointer(),
            "files": files + ["MANIFEST.json"],
        }
        if self.run_id is not None:
            manifest["run"] = {"id": self.run_id, "ledger": self.ledger_path}
        if self.supervisor_history is not None:
            manifest["supervisor"] = self.supervisor_history
        if stats is not None:
            manifest["stats"] = {
                "fingerprint": stats.fingerprint,
                "tables": len(stats.tables),
                "age_seconds": round(stats.age_seconds(), 3),
            }
        if error is not None:
            manifest["error"] = {
                "type": type(error).__name__,
                "message": str(error),
                "context": dict(getattr(error, "context", {}) or {}),
            }
        (bundle / "MANIFEST.json").write_text(json.dumps(manifest, indent=2) + "\n")
        self.last_bundle = bundle
        return bundle

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({self.ring!r}, "
            f"directory={str(self.directory) if self.directory else None})"
        )


@contextmanager
def flight_recorder(
    directory: str | Path | None = None,
    capacity: int = DEFAULT_CAPACITY,
    bus: EventBus | None = None,
) -> Iterator[FlightRecorder]:
    """Record the event tail; dump a bundle if the block dies contextually.

    Joins the active :func:`~repro.obs.events.event_stream` when one is
    live (``bus``/ticker/recorder then share a feed) or opens its own.
    On exit with a :class:`~repro.core.errors.ContextualError` — the
    hardened runtime's structured taxonomy: budget kills, injected
    faults, cancellation — a bundle is written to ``directory`` before
    the error propagates.  Other exceptions (and clean exits) write
    nothing.  Dump failures are swallowed: a postmortem must never mask
    the error it documents.
    """
    with ExitStack() as stack:
        if bus is not None:
            active_bus = bus
            if not (EVT.active and EVT.bus is bus):
                stack.enter_context(event_stream(bus))
        elif EVT.active and EVT.bus is not None:
            active_bus = EVT.bus
        else:
            active_bus = stack.enter_context(event_stream())
        recorder = FlightRecorder(active_bus, directory=directory, capacity=capacity)
        try:
            yield recorder
        except ContextualError as err:
            if recorder.directory is not None:
                try:
                    recorder.dump(error=err)
                except OSError:
                    pass
            raise
        finally:
            active_bus.detach(recorder.ring)
