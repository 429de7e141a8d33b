"""Checkpoint/resume: serialization round trips, resume determinism."""

import json

import pytest

from repro.core import NULL, Name, Table, TabularDatabase, TaggedValue, Value, make_table
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
from repro.runtime.checkpoint import CheckpointLog, delta_path
from repro.runtime.workloads import transitive_closure_workload


def mid_fixpoint_delay():
    """Sleeps past a 50ms deadline at the third iteration's PRODUCT of a
    ``tc:N`` fixpoint, once: a deadline kill that holds on any host."""
    return FaultPlan([FaultRule(op="PRODUCT", kind="delay", occurrence=3, delay_s=0.1)])


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

    def test_database_round_trip(self, tmp_path):
        """A base, then a delta adding a table: the chain folds to the
        database, invented values and ⊥ included."""
        first = make_table("R", ["A", "B"], [(1, "x"), (2, NULL)])
        db = TabularDatabase([first, make_table("S", ["C"], [(TaggedValue(4),)])])
        path = tmp_path / "ck.json"
        log = CheckpointLog()
        save_checkpoint(path, _boundary(TabularDatabase([first])), log)
        assert save_checkpoint(path, _boundary(db, 1), log) == delta_path(path, 1)
        assert load_checkpoint(path).db == db


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
        path.write_text(json.dumps({"format": 99}) + "\n")
        with pytest.raises(CheckpointError, match="format 99"):
            load_checkpoint(path)
        path.write_text("not json at all {")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path.write_bytes(b"\xff\xfe not even text\n")
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


def test_fingerprint_tells_literals_that_printed_alike_apart():
    from repro.algebra.programs import Program, assign

    programs = [
        Program([assign("T", "SELECTCONST", "R", attr="A", value=value)])
        for value in (Value(True), Name("True"), Value("True"))
    ]
    assert len({program_fingerprint(p) for p in programs}) == 3


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
        to the uninterrupted run.  A delay past the deadline in the third
        iteration makes the kill certain on any host."""
        program, db = transitive_closure_workload(10)
        clean = program.run(db)
        path = tmp_path / "ck.json"
        killed = False
        try:
            result = run_hardened(
                program, db, limits=Limits(deadline_s=0.05),
                faults=mid_fixpoint_delay(), checkpoint_path=path,
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


class _Killed(BaseException):
    """Stands in for a ``kill -9`` the instant a boundary's file is on disk."""


def _run_killed(monkeypatch, program, db, path, kill_at=None, **kwargs):
    """Run ``program`` checkpointed at ``path`` and die once ``kill_at``
    boundaries are written (never when None).  Returns each boundary's
    ``(file written, Checkpoint)`` in order."""
    from repro.runtime import checkpoint as ck

    save = ck.save_checkpoint
    written = []

    def saving(target, checkpoint, log=None):
        file = save(target, checkpoint, log)
        written.append((file, checkpoint))
        if len(written) == kill_at:
            raise _Killed
        return file

    monkeypatch.setattr(ck, "save_checkpoint", saving)
    try:
        run_hardened(program, db, checkpoint_path=path, **kwargs)
    except _Killed:
        pass
    finally:
        monkeypatch.setattr(ck, "save_checkpoint", save)
    assert kill_at is None or len(written) == kill_at
    return written


def _state(checkpoint):
    return (
        checkpoint.statement_index,
        checkpoint.body_index,
        checkpoint.iterations,
        checkpoint.next_tag,
        checkpoint.done,
    )


def _assert_restores(path, program, expected):
    """The chain at ``path`` folds to the boundary ``expected`` wrote."""
    from repro.obs.ledger import database_digest

    loaded = load_checkpoint(path, program)
    assert _state(loaded) == _state(expected)
    assert loaded.db == expected.db
    assert database_digest(loaded.db)[0] == database_digest(expected.db)[0]


def _assert_resumes_identically(path, program, db, **kwargs):
    from repro.obs.ledger import database_digest

    clean = program.run(db)
    resumed = run_hardened(program, db, checkpoint_path=path, resume=True, **kwargs)
    assert resumed == clean
    assert database_digest(resumed)[0] == database_digest(clean)[0]
    final = load_checkpoint(path)
    assert final.done and final.db == clean
    # The resumed run's bases deleted every older delta: what is left
    # beside the base is its own chain, with no gap.
    deltas = sorted(path.parent.glob(f"{path.name}.[0-9]*"))
    assert deltas == [delta_path(path, seq) for seq in range(1, len(deltas) + 1)]
    assert all(_chain_id(delta) == _chain_id(path) for delta in deltas)


def _chain_id(file):
    return json.loads(file.read_text())["chain"]


def _longest_chain(monkeypatch, program, db, tmp_path, **kwargs):
    """How many boundaries to let a run write so that its chain ends
    longest: up to just before its last rebase."""
    probe = tmp_path / "probe.json"
    written = _run_killed(monkeypatch, program, db, probe, **kwargs)
    return max(index for index, (file, _c) in enumerate(written) if file == probe)


class TestDeltaChain:
    """A checkpoint is a base plus deltas; the fold stops at the first
    missing, torn or foreign delta, and resuming from whatever it folds
    to reproduces the clean run."""

    def test_boundaries_after_the_first_write_deltas(self, tmp_path, monkeypatch):
        """The first boundary writes a base and the next a delta; a later
        boundary writes a base only when its delta would make the deltas
        since the base outweigh that base."""
        from repro.obs.events import event_stream

        program, db = transitive_closure_workload(5)
        path = tmp_path / "ck.json"
        sizes = []
        with event_stream() as bus:
            bus.attach(
                lambda event: sizes.append(event.data["bytes"])
                if event.kind == "checkpoint_write" else None
            )
            written = _run_killed(monkeypatch, program, db, path)
        files = [file for file, _checkpoint in written]
        assert len(sizes) == len(files)
        assert files[:2] == [path, delta_path(path, 1)]
        # Every file is a base or the next delta of the current chain,
        # and the deltas since a base never outweigh it.
        seq = longest = 0
        for file, size in zip(files, sizes):
            seq = 0 if file == path else seq + 1
            assert file == (path if seq == 0 else delta_path(path, seq))
            since = 0 if seq == 0 else since + size
            base = size if seq == 0 else base
            assert since <= base
            longest = max(longest, seq)
        assert files.count(path) > 2 and longest >= 3
        _assert_restores(path, program, written[-1][1])

    @pytest.mark.parametrize(
        "cut", ["1 byte", "half", "length - 2", "newline", "not text"]
    )
    def test_torn_final_delta_resumes_from_the_previous_boundary(
        self, tmp_path, monkeypatch, cut
    ):
        program, db = transitive_closure_workload(5)
        full = _run_killed(monkeypatch, program, db, tmp_path / "probe.json")
        # Die right after the run's last delta, then tear that delta.
        kill_at = max(
            index + 1
            for index, (file, _checkpoint) in enumerate(full)
            if file.name != "probe.json"
        )
        path = tmp_path / "ck.json"
        written = _run_killed(monkeypatch, program, db, path, kill_at)
        final = written[-1][0]
        assert final != path
        payload = final.read_bytes()
        # Without its final newline a delta is torn even if it parses.
        torn = {
            "1 byte": payload[:1],
            "half": payload[: len(payload) // 2],
            "length - 2": payload[:-2],
            "newline": payload[:-1],
            "not text": b"\xff" * (len(payload) - 1) + b"\n",
        }[cut]
        final.write_bytes(torn)
        _assert_restores(path, program, written[-2][1])
        _assert_resumes_identically(path, program, db)

    def test_a_gap_in_the_sequence_stops_the_fold(self, tmp_path, monkeypatch):
        program, db = transitive_closure_workload(5)
        kill_at = _longest_chain(monkeypatch, program, db, tmp_path)
        path = tmp_path / "ck.json"
        written = _run_killed(monkeypatch, program, db, path, kill_at)
        base = max(index for index, (file, _c) in enumerate(written) if file == path)
        assert len(written) - base > 3, "the chain needs 3 deltas"
        delta_path(path, 2).unlink()
        _assert_restores(path, program, written[base + 1][1])
        _assert_resumes_identically(path, program, db)

    def test_a_delta_of_an_older_chain_stops_the_fold(self, tmp_path, monkeypatch):
        """A kill between a new base's rename and its deletes leaves the
        older chain's deltas beside it; the chain id keeps them out."""
        program, db = transitive_closure_workload(5)
        kill_at = _longest_chain(monkeypatch, program, db, tmp_path)
        path = tmp_path / "ck.json"
        _run_killed(monkeypatch, program, db, path, kill_at)
        older = {file: file.read_bytes() for file in tmp_path.glob("ck.json.[0-9]*")}
        assert delta_path(path, 3) in older
        restart = _run_killed(monkeypatch, program, db, path, 1)
        for file, payload in older.items():
            file.write_bytes(payload)
        assert _chain_id(delta_path(path, 1)) != _chain_id(path)
        _assert_restores(path, program, restart[0][1])
        _assert_resumes_identically(path, program, db)

    def test_a_base_deletes_every_older_delta(self, tmp_path, monkeypatch):
        """A kill partway through a base's deletes leaves a gap before
        the rest; the next base deletes those too, and nothing else."""
        program, db = transitive_closure_workload(5)
        kill_at = _longest_chain(monkeypatch, program, db, tmp_path)
        path = tmp_path / "ck.json"
        written = _run_killed(monkeypatch, program, db, path, kill_at)
        assert delta_path(path, 3).exists()
        delta_path(path, 1).unlink()
        delta_path(path, 2).unlink()
        kept = [tmp_path / "ck.json.bak", delta_path(tmp_path / "other.json", 3)]
        for file in kept:
            file.write_text("not a delta of ck.json\n")
        save_checkpoint(path, written[0][1])
        assert sorted(tmp_path.glob("ck.json.*")) == kept[:1]
        assert all(file.exists() for file in kept)
        _assert_restores(path, program, written[0][1])

    def test_a_degrade_restart_deletes_the_older_chain(self, tmp_path, monkeypatch):
        """A ``degrade`` decision restarts the run fresh on the naive
        engine over the same path.  Its first base deletes the vector
        run's deltas, so the new chain folds as if they never were."""
        program, db = transitive_closure_workload(5)
        kill_at = _longest_chain(monkeypatch, program, db, tmp_path, engine="vector")
        path = tmp_path / "ck.json"
        _run_killed(monkeypatch, program, db, path, kill_at, engine="vector")
        assert delta_path(path, 3).exists()
        restart = _run_killed(monkeypatch, program, db, path, 2, engine="naive")
        assert [file for file, _c in restart] == [path, delta_path(path, 1)]
        assert sorted(tmp_path.glob("ck.json.*")) == [delta_path(path, 1)]
        _assert_restores(path, program, restart[-1][1])
        _assert_resumes_identically(path, program, db, engine="naive")

    def test_a_format_1_checkpoint_is_refused_with_exit_3(self, tmp_path):
        from repro.__main__ import main

        program, _db = transitive_closure_workload(4)
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({
            "format": 1, "fingerprint": program_fingerprint(program),
            "statement_index": 0, "body_index": 0, "iterations": 0,
            "next_tag": 0, "done": False, "database": [],
        }) + "\n")
        with pytest.raises(CheckpointError, match="format 1"):
            load_checkpoint(path)
        assert main(["run", "tc:4", "--resume", "--checkpoint", str(path)]) == 3

    def test_a_format_2_checkpoint_is_refused_with_exit_3(self, tmp_path):
        """Format 2 wrote each table's cells as symbol encodings, with no
        symbol dictionary; it fails typed, as a missing checkpoint does."""
        from repro.__main__ import main

        program, _db = transitive_closure_workload(4)
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({
            "format": 2, "fingerprint": program_fingerprint(program),
            "chain": "0123456789abcdef", "statement_index": 0, "body_index": 0,
            "iterations": 0, "next_tag": 0, "done": False, "order": ["0"],
            "tables": {"0": [[["n", "E"], ["n", "Src"]], [["0"], ["v", 1]]]},
        }, separators=(",", ":")) + "\n")
        with pytest.raises(CheckpointError, match="format 2"):
            load_checkpoint(path)
        assert main(["run", "tc:4", "--resume", "--checkpoint", str(path)]) == 3

    @pytest.mark.parametrize("optimized", [False, True], ids=["source", "optimized"])
    @pytest.mark.parametrize("engine", ["naive", "vector"])
    def test_a_kill_at_every_boundary_resumes_identically(
        self, tmp_path, monkeypatch, engine, optimized
    ):
        from repro.engine.optimizer import optimize_program

        program, db = transitive_closure_workload(5)
        if optimized:
            program = optimize_program(program, cache=None).program
        boundaries = len(
            _run_killed(
                monkeypatch, program, db, tmp_path / "probe.json", engine=engine
            )
        )
        for kill_at in range(1, boundaries + 1):
            path = tmp_path / f"kill-{kill_at}" / "ck.json"
            path.parent.mkdir()
            written = _run_killed(
                monkeypatch, program, db, path, kill_at, engine=engine
            )
            _assert_restores(path, None, written[-1][1])
            _assert_resumes_identically(path, program, db, engine=engine)


def _boundary(db, index=0):
    return Checkpoint(
        statement_index=index, iterations=0, next_tag=0, db=db, fingerprint="abc123"
    )


def _types(db):
    """Each cell's symbol type and payload type, in grid order."""
    return [
        (type(entry), type(getattr(entry, "payload", None)))
        for table in db.tables for row in table.grid for entry in row
    ]


class TestSymbolDictionary:
    """A chain keeps one symbol dictionary: a symbol object is encoded
    once, a table is rows of indices, and a resume decodes each entry
    once, so cells that shared a symbol object share one again."""

    PROGRAM = "S <- DEDUP (R)\nT <- SELECT left A right B (S)"

    def _kill_at_select_and_resume(self, tmp_path, first, second):
        from repro.algebra.programs import parse_program
        from repro.obs.ledger import database_digest

        program = parse_program(self.PROGRAM)
        one = Value(1)
        db = TabularDatabase([Table([
            [Name("R"), Name("A"), Name("B")],
            [NULL, first, second],
            [NULL, one, one],
        ])])
        clean = program.run(db)
        path = tmp_path / "ck.json"
        plan = FaultPlan([FaultRule(op="SELECT", kind="raise")])
        with pytest.raises(FaultInjectedError):
            run_hardened(program, db, faults=plan, checkpoint_path=path)
        assert load_checkpoint(path, program).statement_index == 1
        resumed = run_hardened(program, db, checkpoint_path=path, resume=True)
        assert database_digest(resumed)[0] == database_digest(clean)[0]
        return resumed.table("T").height

    def test_one_nan_object_in_both_compared_cells_is_kept_after_resume(self, tmp_path):
        nan = Value(float("nan"))
        assert self._kill_at_select_and_resume(tmp_path, nan, nan) == 2

    def test_two_nan_objects_are_dropped_after_resume(self, tmp_path):
        first, second = Value(float("nan")), Value(float("nan"))
        assert self._kill_at_select_and_resume(tmp_path, first, second) == 1

    def test_equal_symbols_of_other_types_round_trip_a_chain(self, tmp_path):
        """``Value(1) == Value(True) == Value(1.0)`` and they hash alike,
        but each keeps its own entry, so every cell keeps its type."""
        symbols = [Value(1), Value(True), Value(1.0), Name("x"), Value("x"),
                   TaggedValue(1), NULL]
        first = Table([[Name("R"), *symbols], [NULL, *symbols]])
        again = [Value(1), Value(True), Value(1.0), Name("x"), Value("x"),
                 TaggedValue(1), NULL]
        second = Table([[Name("S"), *again], [NULL, *symbols]])
        path = tmp_path / "ck.json"
        log = CheckpointLog()
        base = TabularDatabase([first])
        save_checkpoint(path, _boundary(base), log)
        grown = base.add(second)
        assert save_checkpoint(path, _boundary(grown, 1), log) == delta_path(path, 1)
        assert len(log.entries) == 2 + len(symbols)
        loaded = load_checkpoint(path).db
        assert loaded == grown
        assert _types(loaded) == _types(grown)

    def test_a_base_carries_the_whole_dictionary(self, tmp_path):
        """Indices are never renumbered: a rebase writes every entry, the
        ones no live table uses too, and the kept rows stay valid."""
        path = tmp_path / "ck.json"
        log = CheckpointLog()
        small = make_table("R", ["A"], [("x",)])
        save_checkpoint(path, _boundary(TabularDatabase([small])), log)
        big = make_table("S", ["B"], [(n,) for n in range(50)])
        assert save_checkpoint(path, _boundary(TabularDatabase([big]), 1), log) == path
        record = json.loads(path.read_text())
        assert [["n", "R"], ["n", "A"], ["0"], ["v", "x"]] == record["symbols"][:4]
        assert len(record["symbols"]) == len(log.entries) == 4 + 2 + 50
        assert load_checkpoint(path).db == TabularDatabase([big])

    def test_a_failed_write_leaves_its_entries_for_the_next_file(
        self, tmp_path, monkeypatch
    ):
        from repro.runtime import checkpoint as ck

        path = tmp_path / "ck.json"
        log = CheckpointLog()
        first = make_table("R", ["A"], [(n,) for n in range(20)])
        save_checkpoint(path, _boundary(TabularDatabase([first])), log)
        second = make_table("S", ["B"], [("new",)])
        grown = TabularDatabase([first, second])
        write = ck._write_synced

        def failing(file, data):
            raise OSError("disk full")

        monkeypatch.setattr(ck, "_write_synced", failing)
        with pytest.raises(CheckpointError, match="disk full"):
            save_checkpoint(path, _boundary(grown, 1), log)
        monkeypatch.setattr(ck, "_write_synced", write)
        assert save_checkpoint(path, _boundary(grown, 2), log) == delta_path(path, 1)
        assert '"symbols":[["n","S"],["n","B"],["v","new"]]' in (
            delta_path(path, 1).read_text()
        )
        loaded = load_checkpoint(path)
        assert loaded.statement_index == 2 and loaded.db == grown

    @pytest.mark.parametrize(
        "cell", ["0", 0.0, True, False, -1, 3, None, [0]],
        ids=["str", "float", "true", "false", "negative", "past the end", "null", "list"],
    )
    def test_a_cell_that_is_not_an_index_is_refused(self, tmp_path, cell):
        from repro.__main__ import main

        program, _db = transitive_closure_workload(4)
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({
            "format": 3, "fingerprint": program_fingerprint(program),
            "chain": "0123456789abcdef", "statement_index": 0, "body_index": 0,
            "iterations": 0, "next_tag": 0, "done": False, "order": ["0"],
            "symbols": [["n", "E"], ["0"], ["v", 1]],
            "tables": {"0": [[0, 1], [1, cell]]},
        }) + "\n")
        with pytest.raises(CheckpointError, match="not an index into its 3 symbols"):
            load_checkpoint(path)
        assert main(["run", "tc:4", "--resume", "--checkpoint", str(path)]) == 3

    @pytest.mark.parametrize(
        "rows", [[[0, 1], [1]], [], [[]]], ids=["ragged", "no rows", "empty row"]
    )
    def test_a_table_that_is_not_a_grid_is_refused(self, tmp_path, rows):
        from repro.__main__ import main

        program, _db = transitive_closure_workload(4)
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({
            "format": 3, "fingerprint": program_fingerprint(program),
            "chain": "0123456789abcdef", "statement_index": 0, "body_index": 0,
            "iterations": 0, "next_tag": 0, "done": False, "order": ["0"],
            "symbols": [["n", "E"], ["0"]], "tables": {"0": rows},
        }) + "\n")
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)
        assert main(["run", "tc:4", "--resume", "--checkpoint", str(path)]) == 3

    def test_a_record_without_symbols_is_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        log = CheckpointLog()
        db = TabularDatabase([make_table("R", ["A"], [("x",)])])
        save_checkpoint(path, _boundary(db), log)
        delta = save_checkpoint(path, _boundary(db, 1), log)
        record = json.loads(delta.read_text())
        del record["symbols"]
        delta.write_text(json.dumps(record) + "\n")
        with pytest.raises(CheckpointError, match="malformed.*symbols"):
            load_checkpoint(path)
        record = json.loads(path.read_text())
        del record["symbols"]
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CheckpointError, match="malformed.*symbols"):
            load_checkpoint(path)

    def test_a_checkpointed_pivot_chain_writes_the_grouped_table_once(self, tmp_path):
        """GROUP's 242x242 table is far larger than the base before it, so
        its boundary writes a base; the deltas after it stay below that
        base, and no later file carries the table again."""
        from repro.obs.events import event_stream
        from repro.runtime.workloads import parse_workload

        _label, program, db = parse_workload("restructure:80")
        writes = []
        with event_stream() as bus:
            bus.attach(
                lambda event: writes.append(event.data)
                if event.kind == "checkpoint_write" else None
            )
            result = run_hardened(program, db, checkpoint_path=tmp_path / "ck.json")
        grouped = result.table("Grouped")
        assert (grouped.nrows, grouped.ncols) == (242, 242)
        # A file that holds the table holds at least one digit and one
        # separator per cell; a file that does not is far smaller.
        holding = [
            (write["statement_index"], write["base"])
            for write in writes if write["bytes"] >= 2 * grouped.nrows * grouped.ncols
        ]
        assert holding == [(1, True)]
        assert [write["base"] for write in writes] == [True, True, False, False, False, False]
