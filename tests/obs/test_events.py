"""The event bus: typed kinds, ring bounding, callbacks, chokepoint feeds."""

import io
import json

import pytest

from repro.algebra.programs import parse_program
from repro.core.errors import BudgetExceededError, FaultInjectedError
from repro.data import sales_info1
from repro.obs import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    EVT,
    EventBus,
    JsonlEventWriter,
    emit,
    event_stream,
)
from repro.runtime import FaultPlan, FaultRule, Limits, governed
from repro.runtime.workloads import parse_workload

PIVOT = """
    Grouped <- GROUP by {Region} on {Sold} (Sales)
    Cleaned <- CLEANUP by {Part} on {null} (Grouped)
    Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
"""


class TestEventBus:
    def test_publish_assigns_monotonic_seq_and_schema_version(self):
        bus = EventBus()
        ring = bus.ring()
        first = bus.publish("span_start", op="GROUP")
        second = bus.publish("span_finish", op="GROUP", ok=True)
        assert (first.seq, second.seq) == (1, 2)
        wire = second.to_json()
        assert wire["v"] == EVENT_SCHEMA_VERSION
        assert wire["kind"] == "span_finish"
        assert wire["data"] == {"op": "GROUP", "ok": True}
        assert [e.seq for e in ring.tail()] == [1, 2]

    def test_unknown_kind_is_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown event kind"):
            bus.publish("made_up_kind")

    def test_payload_may_carry_its_own_kind_field(self):
        # governor_kill events carry the *budget* kind in their payload;
        # the positional-only parameter keeps the two from colliding.
        bus = EventBus()
        event = bus.publish("governor_kill", kind="deadline", limit=0.5)
        assert event.data == {"kind": "deadline", "limit": 0.5}

    def test_ring_bounds_and_counts_drops(self):
        bus = EventBus()
        ring = bus.ring(capacity=3)
        for index in range(10):
            bus.publish("span_start", op=f"OP{index}")
        assert len(ring) == 3
        assert ring.received == 10
        assert ring.dropped == 7
        # The tail is the *most recent* events, seq gap shows the loss.
        assert [e.seq for e in ring.tail()] == [8, 9, 10]
        assert ring.tail(1)[0].data["op"] == "OP9"

    def test_ring_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventBus().ring(capacity=0)

    def test_drain_empties_the_ring(self):
        bus = EventBus()
        ring = bus.ring()
        bus.publish("span_start", op="A")
        bus.publish("span_start", op="B")
        drained = ring.drain()
        assert [e.data["op"] for e in drained] == ["A", "B"]
        assert len(ring) == 0 and ring.received == 2

    def test_callbacks_receive_events_and_detach(self):
        bus = EventBus()
        seen = []
        callback = bus.attach(seen.append)
        bus.publish("span_start", op="A")
        assert bus.detach(callback) is True
        bus.publish("span_start", op="B")
        assert [e.data["op"] for e in seen] == ["A"]
        assert bus.detach(callback) is False  # already gone

    def test_broken_callback_never_kills_the_publisher(self):
        bus = EventBus()

        def boom(_event):
            raise RuntimeError("subscriber bug")

        bus.attach(boom)
        event = bus.publish("span_start", op="A")
        assert event.seq == 1
        assert bus.callback_errors == 1

    def test_subscriber_count(self):
        bus = EventBus()
        ring = bus.ring()
        bus.attach(lambda e: None)
        assert bus.subscribers == 2
        bus.detach(ring)
        assert bus.subscribers == 1


class TestEventStreamScope:
    def test_disabled_by_default_and_emit_is_noop(self):
        assert EVT.active is False and EVT.bus is None
        emit("span_start", op="A")  # no active bus: silently dropped

    def test_scope_installs_and_restores(self):
        with event_stream() as bus:
            assert EVT.active is True and EVT.bus is bus
            inner = EventBus()
            with event_stream(inner):
                assert EVT.bus is inner
            assert EVT.bus is bus
        assert EVT.active is False and EVT.bus is None

    def test_jsonl_writer_streams_wire_form(self, tmp_path):
        target = tmp_path / "events.jsonl"
        writer = JsonlEventWriter(target)
        with event_stream() as bus:
            bus.attach(writer)
            emit("span_start", op="GROUP", rows_in=4)
            emit("span_finish", op="GROUP", ok=True)
        writer.close()
        lines = target.read_text().splitlines()
        assert writer.written == 2 and len(lines) == 2
        decoded = [json.loads(line) for line in lines]
        assert [d["kind"] for d in decoded] == ["span_start", "span_finish"]
        assert all(d["v"] == EVENT_SCHEMA_VERSION for d in decoded)

    def test_jsonl_writer_accepts_streams(self):
        buffer = io.StringIO()
        writer = JsonlEventWriter(buffer)
        with event_stream() as bus:
            bus.attach(writer)
            emit("error", op="X", error="boom", error_type="RuntimeError")
        writer.close()  # does not close a caller-owned stream
        assert json.loads(buffer.getvalue())["data"]["error"] == "boom"


class TestChokepointFeeds:
    """Each instrumented engine layer publishes its typed events."""

    def _kinds(self, ring):
        return [event.kind for event in ring.tail()]

    def test_registry_publishes_span_events(self):
        with event_stream() as bus:
            ring = bus.ring(capacity=512)
            parse_program(PIVOT).run(sales_info1())
        kinds = self._kinds(ring)
        assert kinds.count("span_start") == kinds.count("span_finish") == 3
        finish = [e for e in ring.tail() if e.kind == "span_finish"]
        assert all(e.data["ok"] and "duration_ms" in e.data for e in finish)
        assert {e.data["op"] for e in finish} == {"GROUP", "CLEANUP", "PURGE"}

    def test_registry_publishes_error_events(self):
        from repro.core import UndefinedOperationError, database
        from repro.data import figure4_top

        program = parse_program("T <- GROUP by {Missing} on {Sold} (Sales)")
        with event_stream() as bus:
            ring = bus.ring()
            with pytest.raises(UndefinedOperationError):
                program.run(database(figure4_top()))
        errors = [e for e in ring.tail() if e.kind == "error"]
        assert len(errors) == 1
        assert errors[0].data["error_type"] == "UndefinedOperationError"
        failed = [e for e in ring.tail() if e.kind == "span_finish"]
        assert failed and failed[-1].data["ok"] is False

    def test_while_loop_publishes_iteration_frontier(self):
        _label, program, db = parse_workload("tc:5")
        with event_stream() as bus:
            ring = bus.ring(capacity=4096)
            program.run(db)
        ticks = [e for e in ring.tail() if e.kind == "while_iteration"]
        assert len(ticks) >= 3
        assert [t.data["iteration"] for t in ticks] == list(
            range(1, len(ticks) + 1)
        )
        for tick in ticks:
            assert tick.data["condition"] == "Delta"
            assert tick.data["frontier_rows"] >= 0
            assert tick.data["total_rows"] >= 0
            assert "delta_rows" in tick.data and "delta_cells" in tick.data
        # The frontier shrinks to empty as the closure converges.
        assert ticks[-1].data["frontier_rows"] <= ticks[0].data["frontier_rows"]

    def test_governor_kill_and_budget_events(self):
        _label, program, db = parse_workload("tc:6")
        with event_stream() as bus:
            ring = bus.ring(capacity=4096)
            with pytest.raises(BudgetExceededError):
                with governed(Limits(max_total_rows=50)):
                    program.run(db)
        kinds = self._kinds(ring)
        assert "governor_budget" in kinds
        kills = [e for e in ring.tail() if e.kind == "governor_kill"]
        assert len(kills) == 1
        assert kills[0].data["kind"] == "total_rows"
        assert kills[0].data["limit"] == 50
        assert kills[0].data["used"] > 50

    def test_fault_injection_publishes_events(self):
        plan = FaultPlan([FaultRule(op="GROUP", kind="raise")], seed=7)
        with event_stream() as bus:
            ring = bus.ring()
            with pytest.raises(FaultInjectedError):
                with governed(faults=plan):
                    parse_program(PIVOT).run(sales_info1())
        faults = [e for e in ring.tail() if e.kind == "fault_injected"]
        assert len(faults) == 1
        assert faults[0].data == {
            "op": "GROUP", "fault": "raise", "occurrence": 1, "seed": 7
        }

    def test_engine_dispatch_and_fallback_events(self):
        from repro.engine.runtime import engine_scope

        # The pivot's three ops have no kernel; the trailing SELECTCONST
        # has one.
        program = parse_program(PIVOT + "Nuts <- SELECTCONST attr Part value nuts (Pivot)\n")
        with event_stream() as bus:
            ring = bus.ring(capacity=4096)
            with engine_scope():
                program.run(sales_info1())
        dispatches = [e for e in ring.tail() if e.kind == "engine_dispatch"]
        fallbacks = [e for e in ring.tail() if e.kind == "engine_fallback"]
        assert {e.data["op"] for e in dispatches} == {"SELECTCONST"}
        assert {e.data["op"] for e in fallbacks} == {"GROUP", "CLEANUP", "PURGE"}
        assert all(e.data["reason"] == "no_kernel" for e in fallbacks)

    def test_checkpoint_and_run_framing_events(self, tmp_path):
        from repro.runtime import run_hardened

        _label, program, db = parse_workload("tc:4")
        path = tmp_path / "run.ckpt"
        with event_stream() as bus:
            ring = bus.ring(capacity=4096)
            run_hardened(program, db, checkpoint_path=path)
        kinds = self._kinds(ring)
        # The run events frame the run inside its governed boundary.
        assert kinds[:2] == ["boundary_start", "run_start"]
        assert kinds[-2:] == ["run_finish", "boundary_finish"]
        assert ring.tail()[0].data["name"] == ring.tail()[-1].data["name"] == "governed"
        writes = [e for e in ring.tail() if e.kind == "checkpoint_write"]
        assert writes and all(e.data["path"] == str(path) for e in writes)
        assert writes[-1].data["done"] is True
        finish = ring.tail()[-2]
        assert finish.data["governor"]["ops_dispatched"] > 0

    def test_hardened_resume_publishes_restore_event(self, tmp_path):
        from repro.runtime import run_hardened

        _label, program, db = parse_workload("tc:5")
        path = tmp_path / "resume.ckpt"
        with pytest.raises(BudgetExceededError):
            run_hardened(
                program, db, limits=Limits(max_total_rows=40),
                checkpoint_path=path,
            )
        with event_stream() as bus:
            ring = bus.ring(capacity=4096)
            run_hardened(program, db, checkpoint_path=path, resume=True)
        restores = [e for e in ring.tail() if e.kind == "checkpoint_restore"]
        assert len(restores) == 1
        assert restores[0].data["path"] == str(path)
        # Hardened while stepping reports iteration ticks too.
        assert "while_iteration" in self._kinds(ring)

    def test_all_published_kinds_are_in_the_vocabulary(self):
        _label, program, db = parse_workload("tc:5")
        with event_stream() as bus:
            ring = bus.ring(capacity=8192)
            with pytest.raises(BudgetExceededError):
                with governed(Limits(max_total_rows=60)):
                    program.run(db)
        assert {e.kind for e in ring.tail()} <= EVENT_KINDS

    def test_results_identical_with_and_without_events(self):
        plain = parse_program(PIVOT).run(sales_info1())
        with event_stream():
            evented = parse_program(PIVOT).run(sales_info1())
        assert evented == plain
