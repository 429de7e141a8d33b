"""Checkpoint/resume: serialization round trips, resume determinism."""

import json

import pytest

from repro.core import NULL, Name, TabularDatabase, TaggedValue, Value, make_table
from repro.core.errors import (
    BudgetExceededError,
    CheckpointError,
    FaultInjectedError,
)
from repro.runtime import (
    Checkpoint,
    FaultPlan,
    FaultRule,
    Limits,
    load_checkpoint,
    program_fingerprint,
    run_hardened,
    save_checkpoint,
)
from repro.runtime.workloads import transitive_closure_workload


class TestSerialization:
    def test_symbol_round_trip(self):
        from repro.runtime.checkpoint import symbol_from_data, symbol_to_data

        for symbol in (NULL, Name("Sales"), TaggedValue(7), Value("x"), Value(3)):
            assert symbol_from_data(symbol_to_data(symbol)) == symbol

    def test_non_json_payload_is_rejected(self):
        from repro.runtime.checkpoint import symbol_to_data

        with pytest.raises(CheckpointError):
            symbol_to_data(Value(object()))

    def test_malformed_symbol_encoding_is_rejected(self):
        from repro.runtime.checkpoint import symbol_from_data

        with pytest.raises(CheckpointError):
            symbol_from_data(["?"])
        with pytest.raises(CheckpointError):
            symbol_from_data([])

    def test_database_round_trip(self):
        from repro.runtime.checkpoint import database_from_data, database_to_data

        db = TabularDatabase(
            [
                make_table("R", ["A", "B"], [(1, "x"), (2, NULL)]),
                make_table("S", ["C"], [(TaggedValue(4),)]),
            ]
        )
        assert database_from_data(database_to_data(db)) == db


class TestCheckpointFiles:
    def _checkpoint(self, db):
        return Checkpoint(
            statement_index=1,
            iterations=2,
            next_tag=9,
            db=db,
            fingerprint="abc123",
            body_index=3,
        )

    def test_save_load_round_trip(self, tmp_path):
        db = TabularDatabase([make_table("R", ["A"], [("x",)])])
        path = tmp_path / "ck.json"
        save_checkpoint(path, self._checkpoint(db))
        loaded = load_checkpoint(path)
        assert loaded.statement_index == 1
        assert loaded.body_index == 3
        assert loaded.iterations == 2
        assert loaded.next_tag == 9
        assert loaded.db == db
        assert loaded.done is False

    def test_fingerprint_mismatch_is_rejected(self, tmp_path):
        db = TabularDatabase([make_table("R", ["A"], [("x",)])])
        path = tmp_path / "ck.json"
        save_checkpoint(path, self._checkpoint(db))
        program, _db = transitive_closure_workload(4)
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path, program)
        assert "different program" in str(excinfo.value)

    def test_bad_format_is_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"format": 99}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path.write_text("not json at all {")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.json")

    def test_fingerprint_is_stable_per_program(self):
        a1, _ = transitive_closure_workload(5)
        a2, _ = transitive_closure_workload(5)
        b, _ = transitive_closure_workload(6)
        assert program_fingerprint(a1) == program_fingerprint(a2)
        # same program text => same fingerprint; the input db is not part
        # of the program, so tc:5 and tc:6 share one compiled program
        assert program_fingerprint(a1) == program_fingerprint(b)


class TestCrashAtomicity:
    """``save_checkpoint`` is temp-file + fsync + ``os.replace``: a crash
    at any instant leaves either the previous complete checkpoint or the
    new complete checkpoint — never a torn file at the real path."""

    def _checkpoint(self, rows):
        db = TabularDatabase([make_table("R", ["A"], rows)])
        return Checkpoint(
            statement_index=1,
            iterations=len(rows),
            next_tag=0,
            db=db,
            fingerprint="abc123",
        )

    def test_save_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, self._checkpoint([("x",)]))
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]

    def test_crash_before_rename_preserves_the_previous_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, self._checkpoint([("x",)]))
        # a process that died after writing the temp file but before the
        # rename leaves garbage beside the checkpoint, not inside it
        (tmp_path / "ck.json.tmp").write_text('{"format": 1, "torn')
        loaded = load_checkpoint(path)
        assert loaded.iterations == 1

    def test_torn_checkpoint_is_a_typed_error(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, self._checkpoint([("x",), ("y",)]))
        payload = path.read_text()
        for cut in (1, len(payload) // 2, len(payload) - 2):
            path.write_text(payload[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_failed_write_surfaces_as_checkpoint_error(self, tmp_path):
        target = tmp_path / "not-a-directory" / "ck.json"
        with pytest.raises(CheckpointError):
            save_checkpoint(target, self._checkpoint([("x",)]))

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, self._checkpoint([("x",)]))
        save_checkpoint(path, self._checkpoint([("x",), ("y",)]))
        assert load_checkpoint(path).iterations == 2


class TestRunHardened:
    def test_matches_vanilla_run(self):
        program, db = transitive_closure_workload(6)
        assert run_hardened(program, db) == program.run(db)

    def test_rejects_non_programs(self):
        with pytest.raises(CheckpointError):
            run_hardened(object(), TabularDatabase())

    def test_resume_requires_checkpoint_path(self):
        program, db = transitive_closure_workload(4)
        with pytest.raises(CheckpointError):
            run_hardened(program, db, resume=True)

    def test_fault_kill_then_resume_is_identical(self, tmp_path):
        """Deterministic kill mid-fixpoint, resume to the identical result."""
        program, db = transitive_closure_workload(6)
        clean = program.run(db)
        path = tmp_path / "ck.json"
        plan = FaultPlan([FaultRule(op="DIFFERENCE", kind="raise", occurrence=2)])
        with pytest.raises(FaultInjectedError):
            run_hardened(program, db, faults=plan, checkpoint_path=path)
        saved = load_checkpoint(path, program)
        assert not saved.done
        resumed = run_hardened(program, db, checkpoint_path=path, resume=True)
        assert resumed == clean
        assert load_checkpoint(path, program).done

    def test_deadline_kill_then_resume_is_identical(self, tmp_path):
        """The acceptance scenario: a 50ms deadline kills the fixpoint
        mid-run; resuming from the checkpoint yields a database identical
        to the uninterrupted run."""
        program, db = transitive_closure_workload(10)
        clean = program.run(db)
        path = tmp_path / "ck.json"
        killed = False
        try:
            result = run_hardened(
                program, db, limits=Limits(deadline_s=0.05), checkpoint_path=path
            )
        except BudgetExceededError as err:
            killed = True
            assert err.kind == "deadline"
            result = run_hardened(program, db, checkpoint_path=path, resume=True)
        assert killed, "tc:10 should outlive a 50ms deadline"
        assert result == clean

    def test_repeated_deadline_resumes_make_progress(self, tmp_path):
        """Even re-applying the same 50ms deadline on every resume
        converges: per-body-statement checkpoints keep the stride small."""
        program, db = transitive_closure_workload(8)
        clean = program.run(db)
        path = tmp_path / "ck.json"
        result = None
        for attempt in range(100):
            try:
                result = run_hardened(
                    program,
                    db,
                    limits=Limits(deadline_s=0.05),
                    checkpoint_path=path,
                    resume=attempt > 0,
                )
                break
            except BudgetExceededError:
                continue
        assert result is not None, "no resume attempt ever finished"
        assert result == clean

    def test_resume_after_done_returns_final_database(self, tmp_path):
        program, db = transitive_closure_workload(5)
        path = tmp_path / "ck.json"
        final = run_hardened(program, db, checkpoint_path=path)
        again = run_hardened(program, db, checkpoint_path=path, resume=True)
        assert again == final

    def test_fresh_tags_survive_kill_and_resume(self, tmp_path):
        """New-value invention is deterministic across a kill/resume."""
        from repro.relational import (
            Assign,
            AssignNew,
            FWProgram,
            Rel,
            Relation,
            RelationalDatabase,
            compile_program,
            relational_to_tabular,
        )

        fw = FWProgram(
            [
                Assign("Copy", Rel("E")),
                AssignNew("Tagged", Rel("E"), "Id"),
                Assign("Again", Rel("Tagged")),
            ]
        )
        program = compile_program(fw, {"E": ("Src", "Dst")})
        db = relational_to_tabular(
            RelationalDatabase([Relation("E", ["Src", "Dst"], [(1, 2), (2, 3)])])
        )
        clean = program.run(db)
        path = tmp_path / "ck.json"
        # kill after TUPLENEW already committed its minted tags
        plan = FaultPlan([FaultRule(op="DEDUP", kind="raise", occurrence=2)])
        with pytest.raises(FaultInjectedError):
            run_hardened(program, db, faults=plan, checkpoint_path=path)
        resumed = run_hardened(program, db, checkpoint_path=path, resume=True)
        assert resumed == clean


class TestSharedLoopTick:
    """``run_hardened`` and the interpreter tick a while loop identically."""

    PROGRAM = "T <- DEDUP (T)\nwhile T do T <- DEDUP (T) end"

    @staticmethod
    def _run(runner, limits):
        from repro.algebra.programs import parse_program
        from repro.core import NonTerminationError, database
        from repro.obs.events import event_stream
        from repro.runtime import governed

        program = parse_program(TestSharedLoopTick.PROGRAM)
        db = database(make_table("T", ["A"], [["x"]]))
        events = []
        with event_stream() as bus:
            bus.attach(events.append)
            with pytest.raises(NonTerminationError) as caught:
                if runner == "hardened":
                    run_hardened(program, db, limits=limits, max_while_iterations=5)
                else:
                    with governed(limits):
                        program.run(db, max_while_iterations=5)
        err = caught.value
        ticks = [
            (e.kind, e.data.get("iteration"))
            for e in events
            if e.kind in ("governor_budget", "while_iteration", "governor_kill")
        ]
        message = str(err).partition(" [")[0]
        outcome = (type(err), message, err.kind, err.condition, err.iteration, err.limit)
        return outcome, ticks

    @pytest.mark.parametrize(
        "limits, last",
        [(Limits(), "while_iteration"), (Limits(max_while_iterations=5), "governor_kill")],
        ids=["uncapped", "capped"],
    )
    def test_hardened_and_plain_runs_tick_and_fail_alike(self, limits, last):
        hardened, hardened_ticks = self._run("hardened", limits)
        interpreted, interpreted_ticks = self._run("interpreter", limits)
        assert hardened == interpreted
        assert hardened_ticks == interpreted_ticks
        assert hardened_ticks[-2:] == [("governor_budget", 6), (last, 6)]
