"""The progress ticker: human lines rendered from the event feed."""

import io

import pytest

from repro.core.errors import BudgetExceededError
from repro.obs import ProgressTicker
from repro.obs.events import EventBus, event_stream
from repro.runtime import Limits, run_hardened
from repro.runtime.workloads import parse_workload


def _tick(ticker, bus, kind, **data):
    bus.attach(ticker)
    bus.publish(kind, **data)
    bus.detach(ticker)


class TestRendering:
    def test_while_iteration_line(self):
        buffer = io.StringIO()
        ticker = ProgressTicker(buffer)
        bus = EventBus()
        _tick(
            ticker, bus, "while_iteration",
            condition="Delta", iteration=3, frontier_rows=5,
            total_rows=40, total_cells=120, delta_rows=7, delta_cells=21,
        )
        line = buffer.getvalue()
        assert "iter 3" in line
        assert "frontier Delta = 5 row(s)" in line
        assert "total 40" in line and "+7 rows" in line
        assert ticker.lines == 1

    def test_budget_headroom_folds_into_the_tick_line(self):
        buffer = io.StringIO()
        ticker = ProgressTicker(buffer)
        bus = EventBus()
        bus.attach(ticker)
        bus.publish(
            "governor_budget",
            condition="Delta", iteration=2, elapsed_s=0.25, deadline_s=1.0,
            rows_emitted=30, max_total_rows=100, max_while_iterations=8,
        )
        assert buffer.getvalue() == ""  # budget alone prints nothing
        bus.publish(
            "while_iteration",
            condition="Delta", iteration=2, frontier_rows=4,
            total_rows=30, total_cells=90, delta_rows=4, delta_cells=12,
        )
        line = buffer.getvalue()
        assert "[budget: deadline 750ms left, rows 30/100, iter 2/8]" in line

    def test_kill_fault_and_checkpoint_lines(self):
        buffer = io.StringIO()
        ticker = ProgressTicker(buffer)
        bus = EventBus()
        bus.attach(ticker)
        bus.publish("governor_kill", kind="deadline", limit=0.5, used=0.7)
        bus.publish("fault_injected", op="GROUP", fault="delay", occurrence=2, seed=7)
        bus.publish("checkpoint_write", path="x.ckpt", statement_index=0, done=False)
        bus.publish("checkpoint_write", path="x.ckpt", statement_index=3, done=True)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "KILLED: deadline budget tripped (limit=0.5, used=0.7)"
        assert lines[1] == "fault: delay injected at GROUP (occurrence 2)"
        # Mid-run checkpoints are quiet; only the final one prints.
        assert lines[2] == "checkpoint: done, written to x.ckpt"
        assert len(lines) == 3

    def test_throttling_suppresses_tight_ticks_but_not_kills(self):
        buffer = io.StringIO()
        ticker = ProgressTicker(buffer, min_interval_s=60.0)
        bus = EventBus()
        bus.attach(ticker)
        for iteration in range(1, 6):
            bus.publish(
                "while_iteration",
                condition="D", iteration=iteration, frontier_rows=1,
                total_rows=1, total_cells=1, delta_rows=0, delta_cells=0,
            )
        bus.publish("governor_kill", kind="rows", limit=1, used=2)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 2  # first tick + the kill; the rest throttled
        assert lines[-1].startswith("KILLED")

    def test_fine_grained_events_are_ignored(self):
        buffer = io.StringIO()
        ticker = ProgressTicker(buffer)
        bus = EventBus()
        bus.attach(ticker)
        bus.publish("span_start", op="GROUP")
        bus.publish("span_finish", op="GROUP", ok=True)
        bus.publish("engine_fallback", op="SELECT", reason="no_kernel")
        assert buffer.getvalue() == "" and ticker.lines == 0


class TestEndToEnd:
    def test_governed_fixpoint_renders_run_frame_and_kill(self):
        buffer = io.StringIO()
        _label, program, db = parse_workload("tc:6")
        with event_stream() as bus:
            bus.attach(ProgressTicker(buffer))
            with pytest.raises(BudgetExceededError):
                run_hardened(program, db, limits=Limits(max_total_rows=60))
        text = buffer.getvalue()
        assert text.startswith("run: ")
        assert "iter 1" in text
        assert "rows" in text and "/60]" in text  # headroom vs the cap
        assert "KILLED: total_rows" in text

    def test_clean_run_frames_start_and_finish(self):
        buffer = io.StringIO()
        _label, program, db = parse_workload("tc:4")
        with event_stream() as bus:
            bus.attach(ProgressTicker(buffer))
            run_hardened(program, db)
        lines = buffer.getvalue().splitlines()
        assert lines[0].startswith("run: ")
        assert lines[-1].startswith("finished: ")
