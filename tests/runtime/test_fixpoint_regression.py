"""Regressions for the while-fixpoint hot path.

Two pins:

* the ``tc:N`` transitive-closure workload converges in exactly
  ``N - 1`` while iterations (the longest path in the seeded chain
  graph), identically on the naive and vectorized engines — a planner
  or kernel bug that perturbed the fixpoint would show up here first;
* checkpoint writes encode only what is new: a while-fixpoint writes a
  checkpoint after every body statement, and the run's checkpoint chain
  encodes a table object once, when it first enters the database, and a
  symbol object once, when a table first brings it in, so only
  *replaced* tables pay encoding, only new symbols pay a symbol's, and
  the folded final checkpoint equals the result.
"""

import pytest

from repro.core import NULL, Name, Table, Value
from repro.obs import observation
from repro.obs.events import event_stream
from repro.obs.ledger import database_digest
from repro.runtime import checkpoint as ck
from repro.runtime import run_hardened
from repro.runtime.workloads import parse_workload


@pytest.mark.parametrize("nodes", [4, 6, 9])
@pytest.mark.parametrize("engine", ["naive", "vector"])
def test_tc_fixpoint_iteration_count_is_pinned(nodes, engine):
    _label, program, db = parse_workload(f"tc:{nodes}")
    with observation() as obs:
        program.run(db, engine=engine)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["while_loops"] == 1
    assert counters["while_iterations"] == nodes - 1


@pytest.mark.parametrize("engine", ["naive", "vector"])
def test_tc_results_agree_between_engines(engine):
    _label, program, db = parse_workload("tc:7")
    assert program.run(db, engine=engine) == program.run(db)


def test_a_table_in_the_chain_is_never_encoded_again(tmp_path, monkeypatch):
    """Over whole checkpointed runs, rebases included, no table object is
    encoded twice: a boundary encodes only the tables the previous one
    lacked, and a new base reuses the text the chain already holds."""
    _label, program, db = parse_workload("tc:6")
    encode = ck.CheckpointLog.encode
    for engine in ("naive", "vector"):
        encoded, writes = [], []

        def counting(log, table):
            encoded.append(table)
            return encode(log, table)

        monkeypatch.setattr(ck.CheckpointLog, "encode", counting)
        with event_stream() as bus:
            bus.attach(
                lambda event: writes.append(event.data)
                if event.kind == "checkpoint_write" else None
            )
            run_hardened(
                program, db, checkpoint_path=tmp_path / f"{engine}.json",
                engine=engine,
            )
        assert sum(write["base"] for write in writes) > 1, "the run never rebased"
        assert len({id(table) for table in encoded}) == len(encoded)


def test_checkpoint_writes_skip_reencoding_unchanged_tables(tmp_path, monkeypatch):
    """A boundary whose database holds the previous boundary's table
    objects writes a delta without tables and never calls symbol_to_data.
    A replaced table is encoded as rows of indices, and only the symbol
    objects the chain has not seen call symbol_to_data: none for a
    renamed copy of a table, one per distinct new object for a table of
    new objects, whose delta lists only the encodings not seen before."""
    _label, program, db = parse_workload("tc:5")
    path = tmp_path / "ck.json"
    log = ck.CheckpointLog()

    def boundary(database, index):
        return ck.Checkpoint(
            statement_index=index, iterations=0, next_tag=0, db=database,
            fingerprint=ck.program_fingerprint(program),
        )

    assert ck.save_checkpoint(path, boundary(db, 0), log) == path
    encoded = []
    encode = ck.symbol_to_data

    def recording(symbol):
        encoded.append(symbol)
        return encode(symbol)

    monkeypatch.setattr(ck, "symbol_to_data", recording)
    delta = ck.save_checkpoint(path, boundary(db, 1), log)
    assert delta == ck.delta_path(path, 1)
    assert '"tables":{}' in delta.read_text()
    assert encoded == []

    replaced = db.tables[0].with_name(db.tables[0].name)
    assert replaced is not db.tables[0]
    changed = db.remove(db.tables[0]).add(replaced)
    ck.save_checkpoint(path, boundary(changed, 2), log)
    assert encoded == []
    assert ck.load_checkpoint(path, program).db == changed

    # New objects: NULL is the chain's already; Name("Src") and Value(1)
    # are new objects with old encodings, and the one Value(1) fills two
    # cells.  Two NaN objects are unequal to themselves: two entries.
    one, nan, other_nan = Value(1), Value(float("nan")), Value(float("nan"))
    fresh = Table([
        [Name("Fresh"), Name("Src"), Name("X")],
        [NULL, one, nan],
        [NULL, one, other_nan],
    ])
    grown = changed.add(fresh)
    delta = ck.save_checkpoint(path, boundary(grown, 3), log)
    assert delta != path
    new_objects = {id(symbol) for row in fresh.grid for symbol in row} - {id(NULL)}
    assert len(encoded) == len(new_objects) == 6
    assert '"symbols":[["n","Fresh"],["n","X"],["v",NaN],["v",NaN]]' in delta.read_text()
    loaded = ck.load_checkpoint(path, program).db
    assert database_digest(loaded)[0] == database_digest(grown)[0]
    table = loaded.table("Fresh")
    assert table.entry(1, 1) is table.entry(2, 1)
    assert table.entry(1, 2) is not table.entry(2, 2)


def test_hardened_fixpoint_checkpoints_stay_consistent(tmp_path):
    """End to end: checkpointed hardened runs equal plain runs on both
    engines, and the folded final checkpoint is done and equals the
    result."""
    _label, program, db = parse_workload("tc:6")
    expected = program.run(db)
    for engine in ("naive", "vector"):
        path = tmp_path / f"tc-{engine}.json"
        result = run_hardened(program, db, checkpoint_path=path, engine=engine)
        assert result == expected
        final = ck.load_checkpoint(path)
        assert final.done is True
        assert final.db == result
        assert database_digest(final.db)[0] == database_digest(result)[0]
