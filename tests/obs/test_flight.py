"""The flight recorder: postmortem bundles from the event-tail ring."""

import json

import pytest

from repro.core.errors import BudgetExceededError, ReproError
from repro.obs import FlightRecorder, flight_recorder, observation
from repro.obs.events import EventBus, event_stream
from repro.obs.flight import BUNDLE_FORMAT
from repro.runtime import Limits, run_hardened
from repro.runtime.workloads import parse_workload


def _killed_run(directory, tmp_path, deadline_s=None, max_total_rows=60):
    """Run tc under a budget that trips; returns the recorder."""
    _label, program, db = parse_workload("tc:6")
    limits = Limits(deadline_s=deadline_s, max_total_rows=max_total_rows)
    checkpoint = tmp_path / "flight.ckpt"
    with pytest.raises(BudgetExceededError):
        with flight_recorder(directory) as recorder:
            recorder.note_program(repr(program))
            run_hardened(program, db, limits=limits, checkpoint_path=checkpoint)
    return recorder


class TestBundle:
    def test_contextual_death_dumps_a_bundle(self, tmp_path):
        recorder = _killed_run(tmp_path / "flight", tmp_path)
        bundle = recorder.last_bundle
        assert bundle is not None and bundle.is_dir()
        manifest = json.loads((bundle / "MANIFEST.json").read_text())
        assert manifest["format"] == BUNDLE_FORMAT
        assert manifest["error"]["type"] == "BudgetExceededError"
        assert manifest["error"]["context"]["kind"] == "total_rows"
        assert "MANIFEST.json" in manifest["files"]
        assert "events.jsonl" in manifest["files"]

    def test_event_tail_replays_the_final_iterations(self, tmp_path):
        recorder = _killed_run(tmp_path / "flight", tmp_path)
        lines = (recorder.last_bundle / "events.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert events, "tail must not be empty"
        # Strictly increasing seq, ending with the governor kill.
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        kinds = [e["kind"] for e in events]
        assert "while_iteration" in kinds
        assert kinds[-1] == "governor_kill" or "governor_kill" in kinds
        # Iteration ticks in the tail replay the fixpoint's progress.
        ticks = [e for e in events if e["kind"] == "while_iteration"]
        iterations = [t["data"]["iteration"] for t in ticks]
        assert iterations == sorted(iterations)

    def test_checkpoint_pointer_names_the_resume_file(self, tmp_path):
        recorder = _killed_run(tmp_path / "flight", tmp_path)
        manifest = json.loads(
            (recorder.last_bundle / "MANIFEST.json").read_text()
        )
        assert manifest["checkpoint"] == str(tmp_path / "flight.ckpt")
        assert recorder.checkpoint_pointer() == str(tmp_path / "flight.ckpt")

    def test_noted_program_lands_in_plan_txt(self, tmp_path):
        recorder = _killed_run(tmp_path / "flight", tmp_path)
        plan = (recorder.last_bundle / "plan.txt").read_text()
        assert "while" in plan  # the tc fixpoint program

    def test_metrics_and_explain_ride_along_under_observation(self, tmp_path):
        _label, program, db = parse_workload("tc:6")
        with observation():
            with pytest.raises(BudgetExceededError):
                with flight_recorder(tmp_path / "flight") as recorder:
                    run_hardened(
                        program, db, limits=Limits(max_total_rows=60)
                    )
        bundle = recorder.last_bundle
        metrics = json.loads((bundle / "metrics.json").read_text())
        assert "operations" in metrics and "counters" in metrics
        assert (bundle / "explain.txt").read_text().strip()

    def test_noted_stats_land_in_stats_json(self, tmp_path):
        from repro.obs.stats import analyze_database, validate_stats_data

        _label, program, db = parse_workload("tc:6")
        stats = analyze_database(db)
        limits = Limits(max_total_rows=60)
        with pytest.raises(BudgetExceededError):
            with flight_recorder(tmp_path / "flight") as recorder:
                recorder.note_stats(stats)
                run_hardened(program, db, limits=limits)
        data = json.loads((recorder.last_bundle / "stats.json").read_text())
        assert validate_stats_data(data) == []
        manifest = json.loads((recorder.last_bundle / "MANIFEST.json").read_text())
        assert manifest["stats"]["fingerprint"] == stats.fingerprint
        assert manifest["stats"]["tables"] == 1
        assert "stats.json" in manifest["files"]

    def test_live_estimation_scope_contributes_stats(self, tmp_path):
        from repro.obs.estimator import estimation
        from repro.obs.stats import analyze_database

        _label, program, db = parse_workload("tc:6")
        stats = analyze_database(db)
        limits = Limits(max_total_rows=60)
        with pytest.raises(BudgetExceededError):
            # The estimation scope wraps the recorder so it is still live
            # when the dying run's bundle is written.
            with estimation(stats):
                with flight_recorder(tmp_path / "flight") as recorder:
                    run_hardened(program, db, limits=limits)
        # Nothing was noted, but the estimator's snapshot rode along.
        assert (recorder.last_bundle / "stats.json").exists()
        manifest = json.loads((recorder.last_bundle / "MANIFEST.json").read_text())
        assert manifest["stats"]["fingerprint"] == stats.fingerprint

    def test_bundle_without_stats_omits_the_file(self, tmp_path):
        recorder = _killed_run(tmp_path / "flight", tmp_path)
        assert not (recorder.last_bundle / "stats.json").exists()
        manifest = json.loads((recorder.last_bundle / "MANIFEST.json").read_text())
        assert "stats" not in manifest
        assert "stats.json" not in manifest["files"]

    def test_clean_exit_writes_nothing(self, tmp_path):
        directory = tmp_path / "flight"
        _label, program, db = parse_workload("tc:4")
        with flight_recorder(directory) as recorder:
            run_hardened(program, db)
        assert recorder.last_bundle is None
        assert not directory.exists()

    def test_non_contextual_errors_write_nothing(self, tmp_path):
        directory = tmp_path / "flight"
        with pytest.raises(RuntimeError):
            with flight_recorder(directory) as recorder:
                raise RuntimeError("not part of the taxonomy")
        assert recorder.last_bundle is None
        assert not directory.exists()

    def test_bundle_names_never_collide(self, tmp_path):
        first = _killed_run(tmp_path / "flight", tmp_path)
        second = _killed_run(tmp_path / "flight", tmp_path)
        assert first.last_bundle != second.last_bundle
        assert first.last_bundle.parent == second.last_bundle.parent

    def test_ring_stats_in_manifest(self, tmp_path):
        recorder = _killed_run(tmp_path / "flight", tmp_path)
        events = json.loads(
            (recorder.last_bundle / "MANIFEST.json").read_text()
        )["events"]
        assert events["retained"] >= 1
        assert events["received"] >= events["retained"]
        assert events["first_seq"] <= events["last_seq"]


class TestRecorderWiring:
    def test_dump_without_directory_raises(self):
        bus = EventBus()
        recorder = FlightRecorder(bus)
        bus.publish("span_start", op="A")
        with pytest.raises(ReproError, match="no dump directory"):
            recorder.dump()

    def test_manual_dump_without_error(self, tmp_path):
        bus = EventBus()
        recorder = FlightRecorder(bus, directory=tmp_path / "flight")
        bus.publish("span_start", op="A")
        bundle = recorder.dump()
        manifest = json.loads((bundle / "MANIFEST.json").read_text())
        assert "error" not in manifest
        assert manifest["events"]["retained"] == 1

    def test_recorder_joins_an_active_stream(self, tmp_path):
        # An outer event_stream (e.g. a progress ticker) and the
        # recorder share one bus: the ring sees the same events.
        with event_stream() as bus:
            with flight_recorder(tmp_path / "flight") as recorder:
                assert recorder.bus is bus
                bus.publish("span_start", op="A")
                assert len(recorder.ring) == 1
            # Exiting detaches the ring from the shared bus.
            bus.publish("span_start", op="B")
            assert len(recorder.ring) == 1

    def test_recorder_uses_the_given_bus(self, tmp_path):
        bus = EventBus()
        with flight_recorder(tmp_path / "flight", bus=bus) as recorder:
            assert recorder.bus is bus
            bus.publish("span_start", op="A")
        assert recorder.ring.received == 1

    def test_capacity_limits_the_tail(self, tmp_path):
        bus = EventBus()
        with flight_recorder(tmp_path / "f", capacity=4, bus=bus) as recorder:
            for index in range(20):
                bus.publish("span_start", op=f"OP{index}")
            assert len(recorder.ring) == 4
            assert recorder.ring.dropped == 16


class TestSupervisorStamp:
    def test_noted_history_lands_in_the_manifest(self, tmp_path):
        history = {
            "outcome": "failed",
            "attempts": [
                {"attempt": 1, "decision": "retry", "backoff_s": 0.01},
                {"attempt": 2, "decision": "fail"},
            ],
        }
        with event_stream():
            with flight_recorder(tmp_path / "flight") as recorder:
                recorder.note_supervisor(history)
                bundle = recorder.dump()
        manifest = json.loads((bundle / "MANIFEST.json").read_text())
        assert manifest["supervisor"] == history

    def test_manifest_without_history_omits_the_block(self, tmp_path):
        recorder = _killed_run(tmp_path / "flight", tmp_path)
        manifest = json.loads(
            (recorder.last_bundle / "MANIFEST.json").read_text()
        )
        assert "supervisor" not in manifest
