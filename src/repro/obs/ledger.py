"""The persistent run ledger: durable, append-only cross-run memory.

Every other observability surface — spans, events, q-error scores,
fallback reasons, budget outcomes — evaporates at process exit.  The
ledger is the piece that survives: an **append-only, schema-versioned
on-disk journal** of run manifests, one JSON line per run, written to
rotating segment files.  It is the durable substrate two ROADMAP items
read from: the multi-tenant service's per-tenant accounting and the
cost-based optimizer's per-fingerprint latency/q-error feedback loop.

Layout of a ledger directory::

    ledger/
    ├── LEDGER.json          # header: {"format": 1, "created": ...}
    ├── segment-000001.jsonl # run manifests, one JSON object per line
    └── segment-000002.jsonl # opened when the previous segment filled

Durability rules:

* appends are serialized under one lock (the event-bus thread and the
  driver may record concurrently) and each line is flushed before the
  append returns;
* a **torn final line** — the process died mid-write — is skipped with
  a warning on reopen, never a crash; every intact line before it is
  recovered;
* a ledger whose header carries a *different* schema version is
  **rejected** with a typed :class:`~repro.core.errors.LedgerError`
  rather than silently reinterpreted, and so is an individual record
  whose ``v`` disagrees with the header.

The per-run index that ``runs()`` and ``get()`` read lives in memory and
is rebuilt from the segments on every open.

The manifests themselves are built by :class:`RunRecorder`, the one
manifest writer: a callback subscriber on the live event bus that folds
each event as it arrives — the engine hot path publishes the same events
it always did and the ledger listens, so recording adds **no new hooks**
to op dispatch.  A recorder without a bus (the supervisor's, when its
caller folds no events) writes the event-derived fields as null: not
observed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
import warnings
from pathlib import Path

from ..core.errors import LedgerError, outcome_status
from .estimator import _percentile
from .events import EventBus

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "RECORD_KINDS",
    "DEFAULT_SEGMENT_RECORDS",
    "DEFAULT_SEGMENT_BYTES",
    "DEFAULT_RESULT_BYTES_CAP",
    "RunLedger",
    "RunRecorder",
    "new_run_id",
    "database_digest",
    "result_block",
]

#: Version stamp carried by the ledger header and by every record.
#: Bump when a manifest field changes shape (adding fields is backward
#: compatible and does not bump the version).
LEDGER_SCHEMA_VERSION = 1

#: The record vocabulary.  Every ledger line carries a ``kind`` (absent
#: means ``"run"``, the original manifest shape, so pre-supervisor
#: ledgers reopen unchanged):
#:
#: * ``run`` — a closed run manifest (indexed, listed by ``runs()``);
#: * ``run_start`` — supervisor admission stamp written *before*
#:   execution; a start with no later ``run``/``orphan`` record for the
#:   same run id marks a crashed run (``open_runs()``);
#: * ``orphan`` — crash recovery gave up on an open run (reason inside);
#: * ``breaker`` — a circuit-breaker state transition, keyed by workload
#:   fingerprint rather than run id (latest per fingerprint wins).
RECORD_KINDS = frozenset({"run", "run_start", "orphan", "breaker"})

#: Records per segment before rotation.
DEFAULT_SEGMENT_RECORDS = 256

#: Bytes per segment before rotation (whichever threshold trips first).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Serialized result databases larger than this are recorded as digest
#: only; replay then compares digests instead of structural diffs.
DEFAULT_RESULT_BYTES_CAP = 1 * 1024 * 1024

#: Process-wide run counter folded into generated run ids so two runs
#: starting in the same nanosecond window never collide.
_RUN_COUNTER_LOCK = threading.Lock()
_RUN_COUNTER = 0


def new_run_id() -> str:
    """A unique, sortable run id: UTC second + pid + process counter."""
    global _RUN_COUNTER
    with _RUN_COUNTER_LOCK:
        _RUN_COUNTER += 1
        count = _RUN_COUNTER
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"r-{stamp}-{os.getpid():05d}-{count:04d}"


def database_digest(db) -> tuple[str, int, int, list]:
    """``(sha256, tables, rows, data)`` of one serialized database.

    Serialization reuses the checkpoint encoding, so the digest covers
    exactly the state a resume would restore — byte-identical results
    have byte-identical digests across processes.
    """
    block = result_block(db, cap=math.inf)
    return block["sha256"], block["tables"], block["rows"], block["data"]


def result_block(db, cap: float) -> dict:
    """A manifest's ``result`` block for the final database ``db``.

    :func:`database_digest`'s digest, table and row counts, then
    ``data``, the encoded tables, when their JSON text fits in ``cap``
    bytes, else ``data`` None and the text's ``bytes``.  The text is
    encoded once for both: ``data`` holds only lists, so the digest's
    sorted keys change nothing.
    """
    from ..runtime.checkpoint import database_to_data

    data = database_to_data(db)
    payload = json.dumps(data, separators=(",", ":"), sort_keys=True)
    block = {
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "tables": len(data),
        "rows": sum(len(table) for table in data),
    }
    if len(payload) <= cap:
        block["data"] = data
    else:
        block["data"] = None
        block["bytes"] = len(payload)
    return block


# ----------------------------------------------------------------------
# The on-disk ledger
# ----------------------------------------------------------------------

_HEADER_NAME = "LEDGER.json"
_SEGMENT_PREFIX = "segment-"


def _summarize(manifest: dict) -> dict:
    """The compacted index row for one manifest (what ``runs()`` lists)."""
    outcome = manifest.get("outcome") or {}
    estimates = manifest.get("estimates") or {}
    spans = manifest.get("spans") or {}
    fallbacks = manifest.get("fallbacks") or {}
    result = manifest.get("result") or {}
    return {
        "run_id": manifest["run_id"],
        "ts": manifest.get("ts"),
        "workload": (manifest.get("workload") or {}).get("label"),
        "fingerprint": (manifest.get("program") or {}).get("fingerprint"),
        "engine": manifest.get("engine"),
        "outcome": outcome.get("status"),
        "elapsed_ms": manifest.get("elapsed_ms"),
        "ops": sum(record.get("calls", 0) for record in spans.values()),
        "fallbacks": sum(fallbacks.values()),
        "q_mean": estimates.get("q_mean"),
        "q_max": estimates.get("q_max"),
        "result_sha256": result.get("sha256"),
        "dropped_events": (manifest.get("events") or {}).get("dropped"),
    }


class RunLedger:
    """One ledger directory: append runs, list runs, read runs back.

    Thread-safe: :meth:`record` may be called from the bus thread while
    another thread records or rotates.  Open is recovery: segments are
    scanned, torn tails skipped (with a warning), and the in-memory
    index rebuilt, so a ledger left behind by a killed process reopens
    cleanly.
    """

    def __init__(
        self,
        directory: str | Path,
        max_segment_records: int = DEFAULT_SEGMENT_RECORDS,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        result_bytes_cap: int = DEFAULT_RESULT_BYTES_CAP,
    ):
        if max_segment_records < 1:
            raise LedgerError(
                f"segment rotation needs >= 1 record, got {max_segment_records}"
            )
        self.directory = Path(directory)
        self.max_segment_records = max_segment_records
        self.max_segment_bytes = max_segment_bytes
        self.result_bytes_cap = result_bytes_cap
        #: Recovery notes from the last open (torn tails, unreadable lines).
        self.warnings: list[str] = []
        self._lock = threading.Lock()
        #: run_id -> (segment name, compacted summary); "run" records only
        self._index: dict[str, tuple[str, dict]] = {}
        self._order: list[str] = []
        #: run_id -> latest "run_start" record (supervisor admission)
        self._starts: dict[str, dict] = {}
        #: run_id -> "orphan" record (recovery gave this run up)
        self._orphans: dict[str, dict] = {}
        #: fingerprint -> latest "breaker" record (circuit-breaker state)
        self._breakers: dict[str, dict] = {}
        self._segment_records = 0
        self._segment_bytes = 0
        self._open()

    # -- open / recovery ------------------------------------------------

    def _open(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        header_path = self.directory / _HEADER_NAME
        if header_path.exists():
            try:
                header = json.loads(header_path.read_text())
            except (OSError, ValueError) as err:
                raise LedgerError(
                    f"cannot read ledger header {header_path}: {err}"
                ) from err
            if not isinstance(header, dict) or header.get("format") != LEDGER_SCHEMA_VERSION:
                found = header.get("format") if isinstance(header, dict) else "?"
                raise LedgerError(
                    f"ledger {self.directory} has schema version {found!r}; "
                    f"this build reads version {LEDGER_SCHEMA_VERSION} "
                    "(refusing to reinterpret a foreign format)"
                )
        else:
            header_path.write_text(
                json.dumps(
                    {"format": LEDGER_SCHEMA_VERSION, "created": round(time.time(), 3)}
                )
                + "\n"
            )
        self._recover()

    def _segments(self) -> list[Path]:
        return sorted(self.directory.glob(f"{_SEGMENT_PREFIX}*.jsonl"))

    def _recover(self) -> None:
        """Rebuild the in-memory index by scanning every segment."""
        self._index.clear()
        self._order.clear()
        self._starts.clear()
        self._orphans.clear()
        self._breakers.clear()
        self.warnings = []
        admitted_per_segment: dict[str, int] = {}
        segments = self._segments()
        for segment in segments:
            try:
                text = segment.read_text()
            except OSError as err:
                raise LedgerError(f"cannot read ledger segment {segment}: {err}") from err
            lines = text.split("\n")
            # A file ending in "\n" splits into lines + [""]; anything
            # else has a torn tail from a mid-write death.
            torn = lines[-1] != ""
            body = lines[:-1]
            for lineno, line in enumerate(body, start=1):
                if not line.strip():
                    continue
                try:
                    manifest = json.loads(line)
                except ValueError:
                    message = (
                        f"{segment.name}:{lineno}: unparseable record skipped "
                        "(torn mid-file line)"
                    )
                    self.warnings.append(message)
                    warnings.warn(f"ledger recovery: {message}", stacklevel=2)
                    continue
                self._admit(manifest, segment.name)
                admitted_per_segment[segment.name] = (
                    admitted_per_segment.get(segment.name, 0) + 1
                )
            if torn:
                message = (
                    f"{segment.name}: torn final line skipped "
                    f"({len(lines[-1])} byte(s) of partial write)"
                )
                self.warnings.append(message)
                warnings.warn(f"ledger recovery: {message}", stacklevel=2)
        if segments:
            active = segments[-1]
            self._segment_records = admitted_per_segment.get(active.name, 0)
            self._segment_bytes = active.stat().st_size
        else:
            self._segment_records = 0
            self._segment_bytes = 0

    def _admit(self, manifest: dict, segment_name: str) -> None:
        """Index one parsed record, rejecting foreign schema versions."""
        if not isinstance(manifest, dict):
            raise LedgerError(
                f"ledger segment {segment_name} holds a non-manifest record"
            )
        version = manifest.get("v")
        if version != LEDGER_SCHEMA_VERSION:
            raise LedgerError(
                f"record {manifest.get('run_id')!r} in {segment_name} carries "
                f"schema version {version!r}; this build reads "
                f"{LEDGER_SCHEMA_VERSION}"
            )
        kind = manifest.get("kind", "run")
        if kind not in RECORD_KINDS:
            raise LedgerError(
                f"record in {segment_name} carries unknown kind {kind!r}; "
                f"this build reads {sorted(RECORD_KINDS)}"
            )
        if kind == "breaker":
            if "fingerprint" not in manifest:
                raise LedgerError(
                    f"breaker record in {segment_name} has no fingerprint"
                )
            self._breakers[str(manifest["fingerprint"])] = manifest
            return
        if "run_id" not in manifest:
            raise LedgerError(
                f"{kind} record in {segment_name} has no run_id"
            )
        run_id = str(manifest["run_id"])
        if kind == "run_start":
            self._starts[run_id] = manifest
        elif kind == "orphan":
            self._orphans[run_id] = manifest
        else:
            if run_id not in self._index:
                self._order.append(run_id)
            self._index[run_id] = (segment_name, _summarize(manifest))

    # -- appending ------------------------------------------------------

    def _active_segment(self) -> Path:
        segments = self._segments()
        if segments:
            return segments[-1]
        return self.directory / f"{_SEGMENT_PREFIX}000001.jsonl"

    def _next_segment(self, current: Path) -> Path:
        number = int(current.stem[len(_SEGMENT_PREFIX):]) + 1
        return self.directory / f"{_SEGMENT_PREFIX}{number:06d}.jsonl"

    def record(self, manifest: dict) -> str:
        """Append one run manifest; returns its run id.

        The manifest must carry ``run_id`` (use :func:`new_run_id`) and
        is stamped with the schema version here, so every line on disk
        is self-describing.  Rotation happens before the append when the
        active segment is full — one record never spans two segments.
        """
        if "run_id" not in manifest:
            raise LedgerError("a run manifest needs a run_id (see new_run_id())")
        self._append(manifest)
        return str(manifest["run_id"])

    def record_start(self, manifest: dict) -> str:
        """Journal a supervisor admission stamp *before* execution.

        A ``run_start`` with no later closing record for the same run id
        is what :meth:`open_runs` (and crash recovery) finds.
        """
        if "run_id" not in manifest:
            raise LedgerError("a run_start record needs a run_id")
        self._append({**manifest, "kind": "run_start"})
        return str(manifest["run_id"])

    def record_orphan(self, manifest: dict) -> str:
        """Stamp an open run as unrecoverable (reason in the record)."""
        if "run_id" not in manifest:
            raise LedgerError("an orphan record needs a run_id")
        self._append({**manifest, "kind": "orphan"})
        return str(manifest["run_id"])

    def record_breaker(self, manifest: dict) -> str:
        """Persist a circuit-breaker transition, keyed by fingerprint.

        The latest record per fingerprint wins on reopen, which is how
        breaker state survives process restarts.
        """
        if "fingerprint" not in manifest:
            raise LedgerError("a breaker record needs a workload fingerprint")
        self._append({**manifest, "kind": "breaker"})
        return str(manifest["fingerprint"])

    def _append(self, manifest: dict) -> None:
        manifest = dict(manifest)
        manifest["v"] = LEDGER_SCHEMA_VERSION
        line = json.dumps(manifest, separators=(",", ":"), sort_keys=True) + "\n"
        encoded = line.encode("utf-8")
        with self._lock:
            segment = self._active_segment()
            if segment.exists() and (
                self._segment_records >= self.max_segment_records
                or self._segment_bytes + len(encoded) > self.max_segment_bytes > 0
            ):
                segment = self._next_segment(segment)
                self._segment_records = 0
                self._segment_bytes = 0
            try:
                with segment.open("ab") as handle:
                    handle.write(encoded)
                    handle.flush()
                    os.fsync(handle.fileno())
            except OSError as err:
                raise LedgerError(f"cannot append to {segment}: {err}") from err
            self._segment_records += 1
            self._segment_bytes += len(encoded)
            self._admit(manifest, segment.name)

    # -- reading --------------------------------------------------------

    def runs(
        self,
        fingerprint: str | None = None,
        workload: str | None = None,
        outcome: str | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """Compacted run summaries, oldest first, optionally filtered."""
        with self._lock:
            rows = [self._index[run_id][1] for run_id in self._order]
        if fingerprint is not None:
            rows = [r for r in rows if r.get("fingerprint") == fingerprint]
        if workload is not None:
            rows = [r for r in rows if r.get("workload") == workload]
        if outcome is not None:
            rows = [r for r in rows if r.get("outcome") == outcome]
        if limit is not None:
            rows = rows[-limit:]
        return rows

    def get(self, run_id: str) -> dict:
        """The full manifest of one run (reads its segment back)."""
        with self._lock:
            entry = self._index.get(run_id)
        if entry is None:
            raise LedgerError(f"no run {run_id!r} in ledger {self.directory}")
        segment = self.directory / entry[0]
        try:
            text = segment.read_text()
        except OSError as err:
            raise LedgerError(f"cannot read ledger segment {segment}: {err}") from err
        for line in text.split("\n"):
            if not line.strip():
                continue
            try:
                manifest = json.loads(line)
            except ValueError:
                continue  # torn line; recovery already warned about it
            if (
                isinstance(manifest, dict)
                and manifest.get("run_id") == run_id
                and manifest.get("kind", "run") == "run"
            ):
                if manifest.get("v") != LEDGER_SCHEMA_VERSION:
                    raise LedgerError(
                        f"run {run_id!r} carries schema version "
                        f"{manifest.get('v')!r}; this build reads "
                        f"{LEDGER_SCHEMA_VERSION}"
                    )
                return manifest
        raise LedgerError(
            f"run {run_id!r} is indexed in {entry[0]} but its record is gone "
            "(segment truncated after indexing?)"
        )

    def open_runs(self) -> list[dict]:
        """Admission stamps of runs that never closed, oldest first.

        A run is *open* when its ``run_start`` record has no later
        closing ``run`` manifest and no ``orphan`` stamp — the recording
        process died mid-run.  This is crash recovery's work queue.
        """
        with self._lock:
            return [
                dict(start)
                for run_id, start in self._starts.items()
                if run_id not in self._index and run_id not in self._orphans
            ]

    def orphans(self) -> list[dict]:
        """Orphan stamps (open runs recovery gave up on), oldest first."""
        with self._lock:
            return [dict(record) for record in self._orphans.values()]

    def breaker_states(self) -> dict[str, dict]:
        """Latest persisted breaker record per workload fingerprint."""
        with self._lock:
            return {fp: dict(record) for fp, record in self._breakers.items()}

    def aggregates(self) -> list[dict]:
        """Per-fingerprint cross-run aggregates, busiest shape first.

        This is the read surface the cost-based optimizer's feedback
        loop consumes: measured latency percentiles, q-error, and
        fallback rates per normalized program shape.
        """
        groups: dict[str, list[dict]] = {}
        for row in self.runs():
            groups.setdefault(row.get("fingerprint") or "?", []).append(row)
        out = []
        for fingerprint, rows in groups.items():
            latencies = sorted(
                float(r["elapsed_ms"]) for r in rows if r.get("elapsed_ms") is not None
            )
            q_means = [float(r["q_mean"]) for r in rows if r.get("q_mean") is not None]
            ops = sum(int(r.get("ops") or 0) for r in rows)
            fallbacks = sum(int(r.get("fallbacks") or 0) for r in rows)
            outcomes: dict[str, int] = {}
            for r in rows:
                key = str(r.get("outcome"))
                outcomes[key] = outcomes.get(key, 0) + 1
            out.append(
                {
                    "fingerprint": fingerprint,
                    "runs": len(rows),
                    "workloads": sorted({str(r.get("workload")) for r in rows}),
                    "outcomes": outcomes,
                    "latency_ms": {
                        "p50": round(_percentile(latencies, 0.50), 3),
                        "p95": round(_percentile(latencies, 0.95), 3),
                        "max": round(latencies[-1], 3) if latencies else 0.0,
                    },
                    "q_error_mean": (
                        round(sum(q_means) / len(q_means), 3) if q_means else None
                    ),
                    "ops": ops,
                    "fallback_rate": round(fallbacks / ops, 4) if ops else 0.0,
                }
            )
        out.sort(key=lambda record: (-record["runs"], record["fingerprint"]))
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._order)

    def __repr__(self) -> str:
        return f"RunLedger({self.directory}, {len(self)} run(s))"


# ----------------------------------------------------------------------
# The recorder: event stream -> run manifest
# ----------------------------------------------------------------------

class RunRecorder:
    """Builds one run manifest, folding the live event bus when it has one.

    The recorder is a callback subscriber: it folds each event into the
    manifest as it is published — per-op span summaries, the ordered op
    sequence, est-vs-actual q-errors, fallback reasons, while-iteration
    counts, checkpoint pointer and write totals, governor kills — so
    every count is exact however long the run.  :meth:`finish` detaches
    it and appends the manifest to the ledger.  Only the op sequence
    grows with the run: it keeps its first ``capacity`` records and
    counts the rest in the manifest (``events.dropped``), so a truncated
    sequence is visible to every later consumer.

    With ``bus`` None, or when no event reached it, the recorder observed
    nothing: ``spans``, ``op_sequence``, ``estimates``, ``fallbacks`` and
    ``while_iterations`` are null, never empty, so no reader mistakes
    "not observed" for "none happened".
    """

    __slots__ = (
        "ledger", "run_id", "capacity", "received", "dropped", "_bus",
        "_started", "_lock", "_spans", "_op_sequence", "_estimates",
        "_fallbacks", "_while_iterations", "_checkpoint", "_checkpoint_writes",
        "_checkpoint_bytes", "_governor_kills", "_outcome_event", "_q_sum",
        "_q_max", "_q_count",
    )

    def __init__(
        self,
        bus: EventBus | None = None,
        ledger: RunLedger | None = None,
        capacity: int = 4096,
        run_id: str | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1, got {capacity}")
        self.ledger = ledger
        self.run_id = run_id if run_id is not None else new_run_id()
        self.capacity = capacity
        #: Events folded, and op records the op sequence did not keep.
        self.received = 0
        self.dropped = 0
        # Callbacks run outside the bus lock, so concurrent publishers
        # fold under this one.
        self._lock = threading.Lock()
        self._spans: dict[str, dict] = {}
        self._op_sequence: list[list] = []
        self._estimates: dict[str, dict] = {}
        self._fallbacks: dict[str, int] = {}
        self._while_iterations = 0
        self._checkpoint = None
        self._checkpoint_writes = 0
        self._checkpoint_bytes = 0
        self._governor_kills: list[dict] = []
        self._outcome_event = None
        self._q_sum = 0.0
        self._q_max = 0.0
        self._q_count = 0
        self._bus = bus
        self._started = time.perf_counter()
        if bus is not None:
            bus.attach(self)

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.detach(self)

    def __call__(self, event) -> None:
        """Fold one published event into the manifest."""
        kind = event.kind
        data = event.data
        with self._lock:
            self.received += 1
            if kind == "span_finish":
                op = str(data.get("op", "?"))
                record = self._spans.get(op)
                if record is None:
                    record = self._spans[op] = {
                        "calls": 0, "errors": 0, "rows_out": 0, "ms": 0.0
                    }
                record["calls"] += 1
                record["ms"] = round(
                    record["ms"] + float(data.get("duration_ms", 0.0) or 0.0), 3
                )
                if data.get("ok", True):
                    rows_out = int(data.get("rows_out", 0) or 0)
                    record["rows_out"] += rows_out
                    if len(self._op_sequence) < self.capacity:
                        self._op_sequence.append([op, rows_out])
                    else:
                        self.dropped += 1
                else:
                    record["errors"] += 1
            elif kind == "op_estimate":
                op = str(data.get("op", "?"))
                q = float(data.get("q_error", 1.0))
                record = self._estimates.get(op)
                if record is None:
                    record = self._estimates[op] = {"count": 0, "q_max": 0.0}
                record["count"] += 1
                if q > record["q_max"]:
                    record["q_max"] = round(q, 4)
                self._q_sum += q
                self._q_count += 1
                if q > self._q_max:
                    self._q_max = q
            elif kind == "engine_fallback":
                reason = str(data.get("reason", "?"))
                self._fallbacks[reason] = self._fallbacks.get(reason, 0) + 1
            elif kind == "while_iteration":
                self._while_iterations += 1
            elif kind == "checkpoint_write":
                path = data.get("path")
                if path is not None:
                    self._checkpoint = str(path)
                self._checkpoint_writes += 1
                self._checkpoint_bytes += int(data.get("bytes", 0) or 0)
            elif kind == "governor_kill":
                self._governor_kills.append(
                    {
                        "kind": str(data.get("kind")),
                        "limit": data.get("limit"),
                        "used": data.get("used"),
                    }
                )
            elif kind == "run_finish":
                self._outcome_event = data

    def finish(
        self,
        *,
        workload: str,
        program=None,
        engine: str = "naive",
        seed: int = 0,
        result_db=None,
        error: BaseException | None = None,
        limits=None,
        attempts: int = 1,
        kills: list[str] | None = None,
        stats=None,
        replay_spec: str | None = None,
        result_bytes_cap: float | None = None,
        supervisor: dict | None = None,
        optimizer: dict | None = None,
        checkpoint_totals: tuple | None = None,
    ) -> dict:
        """Detach, complete the manifest, append it to the ledger.

        ``replay_spec`` names how to re-derive the program and input
        database (a workload spec or example name); runs without one are
        recorded but marked non-replayable.  ``limits`` is the run's
        :class:`~repro.runtime.governor.Limits`.  ``optimizer`` records
        that the run executed a rewritten plan (enabled rules + the stats
        snapshot the plan was chosen from), so replay can re-derive the
        same plan instead of diverging on the program fingerprint.
        ``checkpoint_totals``, ``(path, writes, bytes)`` as the run's own
        :class:`~repro.runtime.checkpoint.CheckpointLog` counted them,
        replaces the totals folded from ``checkpoint_write`` events.  The
        recorder detaches from the bus, so a recorder finishes exactly
        once.
        """
        from .workload import program_identity

        elapsed_ms = round((time.perf_counter() - self._started) * 1e3, 3)
        self.detach()
        outcome_event = self._outcome_event
        q_count = self._q_count
        observed = self.received > 0

        status = outcome_status(error)
        if status == "ok" and (outcome_event or {}).get("outcome") not in (None, "ok"):
            status = str(outcome_event["outcome"])
        outcome: dict = {"status": status, "attempts": attempts}
        if kills:
            outcome["kills"] = list(kills)
        if error is not None:
            outcome["error_type"] = type(error).__name__
            outcome["error"] = str(error)
            outcome["error_context"] = dict(getattr(error, "context", {}) or {})
        if self._governor_kills:
            outcome["governor_kills"] = self._governor_kills

        result: dict | None = None
        if result_db is not None:
            if result_bytes_cap is None:
                result_bytes_cap = (
                    self.ledger.result_bytes_cap
                    if self.ledger is not None
                    else DEFAULT_RESULT_BYTES_CAP
                )
            result = result_block(result_db, result_bytes_cap)

        normalized, fingerprint = program_identity(program, workload)
        folded = {
            "spans": self._spans,
            "op_sequence": self._op_sequence,
            "estimates": {
                "count": q_count,
                "q_mean": round(self._q_sum / q_count, 4) if q_count else None,
                "q_max": round(self._q_max, 4) if q_count else None,
                "by_op": self._estimates,
            },
            "fallbacks": self._fallbacks,
            "while_iterations": self._while_iterations,
        }
        if not observed:
            folded = dict.fromkeys(folded)
        if checkpoint_totals is None:
            checkpoint_totals = (
                (self._checkpoint, self._checkpoint_writes, self._checkpoint_bytes)
                if observed
                else (None, None, None)
            )
        manifest = {
            "run_id": self.run_id,
            "ts": round(time.time(), 3),
            "workload": {
                "label": workload,
                "spec": replay_spec,
                "replayable": replay_spec is not None and result is not None,
            },
            "program": {
                "repr": None if program is None else repr(program),
                "normalized": normalized,
                "fingerprint": fingerprint,
            },
            "engine": engine,
            "seed": seed,
            "limits": None if limits is None else limits.to_json(),
            "outcome": outcome,
            "elapsed_ms": elapsed_ms,
            "result": result,
            **folded,
            "checkpoint": checkpoint_totals[0],
            "checkpoint_writes": checkpoint_totals[1],
            "checkpoint_bytes": checkpoint_totals[2],
            "stats_fingerprint": getattr(stats, "fingerprint", None),
            "events": None if self._bus is None else {
                "published": self._bus.published,
                "received": self.received,
                "dropped": self.dropped,
            },
        }
        if supervisor is not None:
            manifest["supervisor"] = supervisor
        if optimizer is not None:
            manifest["optimizer"] = optimizer
        if self.ledger is not None:
            self.ledger.record(manifest)
        return manifest

    def __repr__(self) -> str:
        return (
            f"RunRecorder({self.run_id}, {self.received} event(s) folded, "
            f"{self.dropped} op record(s) dropped)"
        )
