"""The run ledger: durable append-only journal + bus-fed recorder."""

import json
import threading

import pytest

from repro.core.errors import BudgetExceededError, LedgerError
from repro.obs.events import event_stream
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    RunRecorder,
    database_digest,
    new_run_id,
)
from repro.runtime import Limits, run_hardened
from repro.runtime.workloads import parse_workload


def _manifest(run_id=None, workload="tc:4", elapsed=1.0, outcome="ok"):
    """A minimal hand-built manifest (recorder-shaped, small)."""
    return {
        "run_id": run_id or new_run_id(),
        "ts": 1.0,
        "workload": {"label": workload, "spec": workload, "replayable": True},
        "program": {"repr": None, "normalized": workload, "fingerprint": "f" * 16},
        "engine": "naive",
        "outcome": {"status": outcome, "attempts": 1},
        "elapsed_ms": elapsed,
        "result": {"sha256": "0" * 64, "tables": 1, "rows": 1},
        "spans": {"DEDUP": {"calls": 2, "errors": 0, "rows_out": 4, "ms": 0.5}},
        "estimates": {"count": 0, "q_mean": None, "q_max": None, "by_op": {}},
        "fallbacks": {},
        "events": {"published": 2, "received": 2, "dropped": 0},
    }


class TestLedgerBasics:
    def test_record_and_read_back(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        run_id = ledger.record(_manifest())
        assert len(ledger) == 1
        manifest = ledger.get(run_id)
        assert manifest["run_id"] == run_id
        assert manifest["v"] == LEDGER_SCHEMA_VERSION
        rows = ledger.runs()
        assert rows[0]["run_id"] == run_id
        assert rows[0]["outcome"] == "ok"
        assert rows[0]["ops"] == 2

    def test_reopen_recovers_every_record(self, tmp_path):
        directory = tmp_path / "led"
        ledger = RunLedger(directory)
        ids = [ledger.record(_manifest()) for _ in range(5)]
        reopened = RunLedger(directory)
        assert [r["run_id"] for r in reopened.runs()] == ids
        assert reopened.warnings == []

    def test_index_is_a_disposable_cache(self, tmp_path):
        directory = tmp_path / "led"
        ledger = RunLedger(directory)
        run_id = ledger.record(_manifest())
        (directory / "index.json").unlink()
        reopened = RunLedger(directory)
        assert reopened.get(run_id)["run_id"] == run_id
        assert (directory / "index.json").exists()

    def test_filters_and_limit(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        ledger.record(_manifest(workload="tc:4"))
        ledger.record(_manifest(workload="tc:6", outcome="killed"))
        last = ledger.record(_manifest(workload="tc:6"))
        assert len(ledger.runs(workload="tc:6")) == 2
        assert len(ledger.runs(outcome="killed")) == 1
        assert [r["run_id"] for r in ledger.runs(limit=1)] == [last]

    def test_missing_run_is_a_typed_error(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        with pytest.raises(LedgerError, match="no run"):
            ledger.get("r-never")

    def test_manifest_without_run_id_rejected(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        with pytest.raises(LedgerError, match="run_id"):
            ledger.record({"workload": {}})

    def test_aggregates_group_by_fingerprint(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        for elapsed in (1.0, 2.0, 3.0):
            ledger.record(_manifest(elapsed=elapsed))
        ledger.record(_manifest(outcome="killed"))
        (aggregate,) = ledger.aggregates()
        assert aggregate["runs"] == 4
        assert aggregate["outcomes"] == {"ok": 3, "killed": 1}
        assert aggregate["latency_ms"]["max"] == 3.0


class TestRotation:
    def test_segments_rotate_at_the_record_threshold(self, tmp_path):
        directory = tmp_path / "led"
        ledger = RunLedger(directory, max_segment_records=3)
        for _ in range(8):
            ledger.record(_manifest())
        segments = sorted(p.name for p in directory.glob("segment-*.jsonl"))
        assert segments == [
            "segment-000001.jsonl",
            "segment-000002.jsonl",
            "segment-000003.jsonl",
        ]
        # Every record is still reachable across the rotation boundary.
        assert len(RunLedger(directory, max_segment_records=3)) == 8

    def test_byte_threshold_rotates_too(self, tmp_path):
        directory = tmp_path / "led"
        ledger = RunLedger(directory, max_segment_bytes=600)
        for _ in range(4):
            ledger.record(_manifest())
        assert len(list(directory.glob("segment-*.jsonl"))) > 1
        assert len(RunLedger(directory, max_segment_bytes=600)) == 4

    def test_concurrent_appends_during_rotation_lose_nothing(self, tmp_path):
        """Eight threads race across many rotation boundaries."""
        directory = tmp_path / "led"
        ledger = RunLedger(directory, max_segment_records=5)
        per_thread = 20
        errors = []

        def append(worker):
            try:
                for i in range(per_thread):
                    ledger.record(_manifest(run_id=f"r-w{worker}-{i:03d}"))
            except Exception as err:  # pragma: no cover - the assertion
                errors.append(err)

        threads = [threading.Thread(target=append, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        expected = {f"r-w{w}-{i:03d}" for w in range(8) for i in range(per_thread)}
        assert {r["run_id"] for r in ledger.runs()} == expected
        # A fresh open (pure recovery scan) sees the same set: no record
        # was lost to a torn rotation.
        reopened = RunLedger(directory, max_segment_records=5)
        assert {r["run_id"] for r in reopened.runs()} == expected
        assert all(
            json.loads(line)
            for p in directory.glob("segment-*.jsonl")
            for line in p.read_text().splitlines()
        )


class TestDurability:
    def test_torn_final_line_is_skipped_with_a_warning(self, tmp_path):
        directory = tmp_path / "led"
        ledger = RunLedger(directory)
        keep = ledger.record(_manifest())
        ledger.record(_manifest())
        (segment,) = directory.glob("segment-*.jsonl")
        text = segment.read_text()
        lines = text.splitlines(keepends=True)
        # Tear the final record mid-write: drop its trailing half.
        segment.write_text(lines[0] + lines[1][: len(lines[1]) // 2])
        with pytest.warns(UserWarning, match="torn final line"):
            recovered = RunLedger(directory)
        assert [r["run_id"] for r in recovered.runs()] == [keep]
        assert any("torn final line" in w for w in recovered.warnings)
        # The ledger stays appendable after recovery.
        appended = recovered.record(_manifest())
        assert [r["run_id"] for r in recovered.runs()] == [keep, appended]

    def test_header_schema_mismatch_is_rejected(self, tmp_path):
        directory = tmp_path / "led"
        RunLedger(directory).record(_manifest())
        header = directory / "LEDGER.json"
        header.write_text(json.dumps({"format": 999, "created": 0}))
        with pytest.raises(LedgerError, match="schema version 999"):
            RunLedger(directory)

    def test_record_schema_mismatch_is_rejected(self, tmp_path):
        directory = tmp_path / "led"
        ledger = RunLedger(directory)
        ledger.record(_manifest())
        (segment,) = directory.glob("segment-*.jsonl")
        foreign = dict(_manifest(run_id="r-foreign"))
        foreign["v"] = LEDGER_SCHEMA_VERSION + 1
        with segment.open("a") as handle:
            handle.write(json.dumps(foreign) + "\n")
        with pytest.raises(LedgerError, match="schema version"):
            RunLedger(directory)


class TestRecorder:
    def _record_run(self, ledger, spec="tc:4", limits=None, **finish_kwargs):
        _label, program, db = parse_workload(spec)
        error = None
        result = None
        with event_stream() as bus:
            recorder = RunRecorder(bus, ledger)
            try:
                result = run_hardened(program, db, limits=limits)
            except BudgetExceededError as err:
                error = err
            manifest = recorder.finish(
                workload=spec,
                program=program,
                result_db=result,
                error=error,
                replay_spec=spec,
                **finish_kwargs,
            )
        return manifest

    def test_manifest_folds_the_event_tail(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        manifest = self._record_run(ledger)
        assert manifest["outcome"]["status"] == "ok"
        assert manifest["workload"]["replayable"] is True
        assert manifest["while_iterations"] > 0
        assert manifest["spans"]  # per-op rollups
        assert manifest["op_sequence"]  # ordered dispatch trace
        assert manifest["result"]["sha256"]
        assert manifest["result"]["data"] is not None
        assert manifest["events"]["dropped"] == 0
        assert len(manifest["program"]["fingerprint"]) == 16
        # The ledger holds it, and the digest matches a recomputation.
        stored = ledger.get(manifest["run_id"])
        _label, program, db = parse_workload("tc:4")
        digest, _tables, _rows, _data = database_digest(program.run(db))
        assert stored["result"]["sha256"] == digest

    def test_killed_run_records_the_kill(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        manifest = self._record_run(
            ledger, spec="tc:6", limits=Limits(max_total_rows=40)
        )
        assert manifest["outcome"]["status"] == "killed"
        assert manifest["outcome"]["error_type"] == "BudgetExceededError"
        assert manifest["result"] is None
        assert manifest["workload"]["replayable"] is False
        assert ledger.runs()[-1]["outcome"] == "killed"

    def test_result_bytes_cap_keeps_digest_only(self, tmp_path):
        ledger = RunLedger(tmp_path / "led", result_bytes_cap=64)
        manifest = self._record_run(ledger)
        assert manifest["result"]["sha256"]
        assert manifest["result"]["data"] is None
        assert manifest["result"]["bytes"] > 64

    def test_recorder_ring_drops_are_visible(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        _label, program, db = parse_workload("tc:6")
        with event_stream() as bus:
            recorder = RunRecorder(bus, ledger, capacity=8)
            result = run_hardened(program, db)
            manifest = recorder.finish(
                workload="tc:6", program=program, result_db=result,
                replay_spec="tc:6",
            )
        assert manifest["events"]["dropped"] > 0
        assert ledger.runs()[-1]["dropped_events"] == manifest["events"]["dropped"]


class TestSingleton:
    def test_run_ids_are_unique_and_sortable(self):
        ids = [new_run_id() for _ in range(50)]
        assert len(set(ids)) == 50
        assert ids == sorted(ids)


class TestRecordKinds:
    """``run_start`` / ``orphan`` / ``breaker`` records beside the runs."""

    def _start(self, run_id, checkpoint=None):
        return {
            "run_id": run_id,
            "ts": 1.0,
            "workload": "tc:4",
            "spec": "tc:4",
            "engine": "naive",
            "fingerprint": "f" * 16,
            "checkpoint": checkpoint,
            "limits": None,
        }

    def test_start_without_outcome_is_an_open_run(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        run_id = new_run_id()
        ledger.record_start(self._start(run_id))
        assert [r["run_id"] for r in ledger.open_runs()] == [run_id]
        assert len(ledger) == 0  # starts are not completed runs

    def test_closing_manifest_closes_the_open_run(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        run_id = new_run_id()
        ledger.record_start(self._start(run_id))
        ledger.record(_manifest(run_id=run_id))
        assert ledger.open_runs() == []
        assert ledger.get(run_id)["run_id"] == run_id

    def test_orphan_stamp_closes_the_open_run(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        run_id = new_run_id()
        ledger.record_start(self._start(run_id))
        ledger.record_orphan(
            {"run_id": run_id, "ts": 2.0, "workload": "tc:4", "reason": "no checkpoint"}
        )
        assert ledger.open_runs() == []
        assert [o["reason"] for o in ledger.orphans()] == ["no checkpoint"]

    def test_kinds_survive_a_reopen(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        open_id, closed_id = new_run_id(), new_run_id()
        ledger.record_start(self._start(open_id))
        ledger.record_start(self._start(closed_id))
        ledger.record(_manifest(run_id=closed_id))
        ledger.record_breaker(
            {"fingerprint": "f" * 16, "state": "open", "failures": 3,
             "opened_ts": 1.0, "updated_ts": 1.0}
        )
        reopened = RunLedger(tmp_path / "led")
        assert [r["run_id"] for r in reopened.open_runs()] == [open_id]
        assert reopened.breaker_states()["f" * 16]["state"] == "open"
        assert len(reopened) == 1
        assert reopened.warnings == []

    def test_latest_breaker_record_wins(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        for state, failures in (("open", 3), ("half_open", 3), ("closed", 0)):
            ledger.record_breaker(
                {"fingerprint": "a" * 16, "state": state, "failures": failures,
                 "opened_ts": None, "updated_ts": 1.0}
            )
        assert ledger.breaker_states()["a" * 16]["state"] == "closed"
        assert RunLedger(tmp_path / "led").breaker_states()["a" * 16]["failures"] == 0

    def test_get_ignores_non_run_kinds(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        run_id = new_run_id()
        ledger.record_start(self._start(run_id))
        with pytest.raises(LedgerError):
            ledger.get(run_id)  # a start is not a completed run

    def test_unknown_kind_is_rejected(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        with pytest.raises(LedgerError):
            ledger.record({"kind": "mystery", "run_id": new_run_id()})

    def test_breaker_record_requires_a_fingerprint(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        with pytest.raises(LedgerError):
            ledger.record_breaker({"state": "open"})

    def test_recorder_stamps_the_supervision_history(self, tmp_path):
        """RunRecorder.finish(supervisor=...) lands the block in the
        manifest, journaled and readable after a reopen."""
        ledger = RunLedger(tmp_path / "led")
        program, db = parse_workload("tc:4")[1:]
        with event_stream() as bus:
            recorder = RunRecorder(bus, ledger)
            result = run_hardened(program, db)
            history = {"outcome": "ok", "attempts": [{"attempt": 1}]}
            recorder.finish(
                workload="tc:4",
                engine="naive",
                result_db=result,
                replay_spec="tc:4",
                supervisor=history,
            )
        reopened = RunLedger(tmp_path / "led")
        assert reopened.get(recorder.run_id)["supervisor"] == history
