"""Deterministic replay: identical runs verify, injected drift is caught."""

import json

import pytest

from repro.algebra.programs.statements import Program, assign
from repro.core import TabularDatabase, make_table
from repro.core.errors import LedgerError
from repro.obs.events import event_stream
from repro.obs.ledger import RunLedger, RunRecorder
from repro.obs.replay import (
    bundle_run_pointer,
    replay_from_ledger,
    replay_run,
    resolve_runnable,
)
from repro.runtime import run_hardened
from repro.runtime.faults import FaultPlan, FaultRule
from repro.runtime.workloads import parse_workload


def _ledgered_run(tmp_path, spec="tc:4", engine="naive", capacity=4096):
    """Execute one clean ledgered run; returns (ledger, run_id)."""
    ledger = RunLedger(tmp_path / "led")
    _label, program, db = parse_workload(spec)
    with event_stream() as bus:
        recorder = RunRecorder(bus, ledger, capacity=capacity)
        result = run_hardened(program, db, engine=engine)
        recorder.finish(
            workload=spec, program=program, engine=engine,
            result_db=result, replay_spec=spec,
        )
    return ledger, recorder.run_id


class TestCleanReplay:
    def test_byte_identical_replay_reports_ok(self, tmp_path):
        ledger, run_id = _ledgered_run(tmp_path)
        report = replay_from_ledger(ledger, run_id)
        assert report.ok
        assert report.divergences == []
        assert report.replayed_sha == report.recorded_sha
        data = report.to_json()
        assert data["ok"] is True
        assert "identical" in report.render()

    def test_replay_works_across_a_reopen(self, tmp_path):
        """The on-disk record alone suffices — no shared process state."""
        _ledger, run_id = _ledgered_run(tmp_path)
        reopened = RunLedger(tmp_path / "led")
        assert replay_from_ledger(reopened, run_id).ok

    def test_vector_recording_replays_on_vector(self, tmp_path):
        ledger, run_id = _ledgered_run(tmp_path, engine="vector")
        report = replay_from_ledger(ledger, run_id)
        assert report.engine == "vector"
        assert report.ok


class TestDivergence:
    def test_injected_fault_diverges(self, tmp_path):
        """The divergence golden: a seeded fault must trip the detector."""
        ledger, run_id = _ledgered_run(tmp_path)
        faults = FaultPlan([FaultRule(op="*", kind="corrupt")], seed=7)
        report = replay_from_ledger(ledger, run_id, faults=faults)
        assert not report.ok
        kinds = {d.kind for d in report.divergences}
        assert "replay_error" in kinds
        assert "DIVERGED" in report.render()

    def test_result_mismatch_names_the_first_cell(self, tmp_path):
        ledger, run_id = _ledgered_run(tmp_path)
        manifest = json.loads(json.dumps(ledger.get(run_id)))  # deep copy
        # Corrupt one recorded cell and its digest: the structural diff
        # must name the exact table/cell, not just "digests differ".
        manifest["result"]["sha256"] = "0" * 64
        manifest["result"]["data"][0][0][0] = ["v", "tampered"]
        report = replay_run(manifest)
        kinds = [d.kind for d in report.divergences]
        assert "result_digest" in kinds
        assert "cell" in kinds
        cell = next(d for d in report.divergences if d.kind == "cell")
        assert "[0,0]" in cell.detail

    def test_op_sequence_drift_is_reported(self, tmp_path):
        ledger, run_id = _ledgered_run(tmp_path)
        manifest = json.loads(json.dumps(ledger.get(run_id)))
        manifest["op_sequence"][0][1] += 99
        report = replay_run(manifest)
        (divergence,) = [d for d in report.divergences if d.kind == "op_sequence"]
        assert "dispatch #0" in divergence.detail

    def test_program_drift_is_reported(self, tmp_path):
        ledger, run_id = _ledgered_run(tmp_path)
        manifest = json.loads(json.dumps(ledger.get(run_id)))
        manifest["program"]["fingerprint"] = "deadbeefdeadbeef"
        report = replay_run(manifest)
        assert any(d.kind == "program_drift" for d in report.divergences)


class TestLongRuns:
    """The manifest is folded as events arrive, so no event count
    truncates it; only the op sequence is capped, by its head."""

    def test_run_past_the_ring_size_records_and_replays_exactly(
        self, tmp_path, monkeypatch
    ):
        # 1,100 one-op statements publish 4,404 events, more than the
        # 4,096 a recorder holding the run's tail in a ring kept.
        db = TabularDatabase([make_table("R", ["A"], [["a"]])])
        program = Program([assign("T", "UNION", "R", "R") for _ in range(1100)])
        ledger = RunLedger(tmp_path / "led")
        with event_stream() as bus:
            recorder = RunRecorder(bus, ledger)
            result = run_hardened(program, db)
            manifest = recorder.finish(
                workload="long", program=program, result_db=result,
                replay_spec="long",
            )
        assert manifest["events"]["received"] == bus.published > 4096
        assert manifest["events"]["dropped"] == 0
        assert manifest["spans"]["UNION"]["calls"] == 1100
        assert len(manifest["op_sequence"]) == 1100
        monkeypatch.setattr(
            "repro.obs.replay.resolve_runnable", lambda spec: (program, db)
        )
        report = replay_from_ledger(ledger, recorder.run_id)
        assert report.ok, report.render()

    def test_truncated_op_sequence_replays_by_its_head(self, tmp_path):
        ledger, run_id = _ledgered_run(tmp_path, spec="tc:6", capacity=8)
        manifest = ledger.get(run_id)
        assert len(manifest["op_sequence"]) == 8
        assert manifest["events"]["dropped"] > 0
        assert replay_from_ledger(ledger, run_id).ok

    def test_truncated_op_sequence_still_diverges(self, tmp_path):
        ledger, run_id = _ledgered_run(tmp_path, spec="tc:6", capacity=8)
        manifest = json.loads(json.dumps(ledger.get(run_id)))
        total = len(manifest["op_sequence"]) + manifest["events"]["dropped"]
        manifest["events"]["dropped"] += 1
        (divergence,) = replay_run(manifest).divergences
        assert divergence.kind == "op_sequence"
        assert (divergence.recorded, divergence.replayed) == (total + 1, total)
        manifest["events"]["dropped"] -= 1
        manifest["op_sequence"][-1][1] += 99
        (divergence,) = replay_run(manifest).divergences
        assert "dispatch #7" in divergence.detail


class TestNonReplayable:
    def test_run_without_spec_raises_typed_error(self):
        with pytest.raises(LedgerError, match="without a replayable"):
            replay_run({"run_id": "r-x", "workload": {"label": "olap"}})

    def test_unknown_spec_raises_typed_error(self):
        assert resolve_runnable("tc:4")
        with pytest.raises(LedgerError, match="not a workload or bundled example"):
            resolve_runnable("no-such-workload")


class TestBundlePointer:
    def test_pointer_round_trips(self, tmp_path):
        bundle = tmp_path / "postmortem-0001"
        bundle.mkdir()
        (bundle / "MANIFEST.json").write_text(
            json.dumps({"format": 1, "run": {"id": "r-abc", "ledger": "led"}})
        )
        assert bundle_run_pointer(bundle) == ("r-abc", "led")

    def test_bundle_without_pointer_raises(self, tmp_path):
        bundle = tmp_path / "postmortem-0002"
        bundle.mkdir()
        (bundle / "MANIFEST.json").write_text(json.dumps({"format": 1}))
        with pytest.raises(LedgerError, match="no run pointer"):
            bundle_run_pointer(bundle)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="cannot read"):
            bundle_run_pointer(tmp_path / "nowhere")
