"""Each table entry is checked once: where it comes in from outside the algebra.

A table is a total mapping into the symbol set 𝒮 (Section 2).
``Table(grid)`` checks a grid's shape and every entry; the operations
fill their results only with entries of checked tables, ⊥, coerced
parameters, lineage copies and new values, and build them with
``_from_checked``, which checks the shape alone.  These tests hold both
sides to that split:

* every table a registered op returns, over the differential corpus and
  every bundled example, passes the literal check
  :func:`grid_reference.reference_freeze`, so the per-entry check the
  ops no longer make still runs on every op here;
* every way in from outside (the builders, checkpoint decoding,
  ``with_entry``, ``append_rows``, ``append_columns``, ``map_entries``)
  still rejects a non-Symbol entry and a ragged grid, and a ragged grid
  assembled by an op fails ``_from_checked``'s shape check;
* the e2e ``restructure`` program and optimized vector ``tc:16`` make no
  full entry check while they run.
"""

import pytest

import repro.core.table as table_module
from repro.algebra.programs.registry import OPERATIONS, OpSpec
from repro.algebra.programs.statements import Program, assign
from repro.core import (
    NULL,
    Name,
    ReproError,
    SchemaError,
    Table,
    Value,
    database,
    make_table,
)
from repro.core.table import _from_checked
from repro.data import figure4_top
from repro.data.programs import MAX_WHILE_ITERATIONS, random_case, random_rewrite_case
from repro.engine.optimizer import optimize_program
from repro.engine.run import run_program
from repro.obs.examples import EXAMPLES
from repro.obs.stats import analyze_database
from repro.runtime.checkpoint import table_from_data
from repro.runtime.workloads import resolve_workload

from grid_reference import reference_freeze

# ----------------------------------------------------------------------
# Every op result passes the literal check
# ----------------------------------------------------------------------


@pytest.fixture
def op_results(monkeypatch):
    """Wrap registry dispatch: every produced table must pass the literal
    check and be frozen; returns the names of the ops seen."""
    invoke = OpSpec.invoke
    seen: set[str] = set()

    def checked(self, tables, arguments, fresh):
        produced = invoke(self, tables, arguments, fresh)
        for table in produced:
            grid = table.grid
            assert type(grid) is tuple and all(type(row) is tuple for row in grid)
            assert reference_freeze(grid) is None, self.name
        seen.add(self.name)
        return produced

    monkeypatch.setattr(OpSpec, "invoke", checked)
    return seen


def _run(thunk) -> None:
    try:
        thunk()
    except ReproError:
        pass  # the results made before a typed error were checked


def test_corpus_results_pass_the_literal_check(op_results):
    limit = MAX_WHILE_ITERATIONS
    for seed in range(200):
        program, db = random_case(seed)
        _run(lambda: program.run(db, max_while_iterations=limit))
        _run(lambda: run_program(program, db, engine="vector", max_while_iterations=limit))
    for seed in range(100):
        program, db = random_rewrite_case(seed)
        plan = optimize_program(program, analyze_database(db), cache=None).program
        _run(lambda: plan.run(db, max_while_iterations=limit))
    # The restructuring and tagging ops, which the corpus draws rarely.
    Program(
        [
            assign("Grouped", "GROUP", "Sales", by="Region", on="Sold"),
            assign("Pivot", "GROUPCOMPACT", "Sales", by="Region", on="Sold"),
            assign("Merged", "MERGE", "Pivot", on="Sold", by="Region"),
            assign("Rows", "MERGECOMPACT", "Pivot", on="Sold", by="Region"),
            assign("Ids", "TUPLENEW", "Sales", attr="Id"),
            assign("PerRegion", "SPLIT", "Sales", on="Region"),
            assign("Back", "COLLAPSE", "PerRegion", by="Region"),
            assign("Flat", "COLLAPSECOMPACT", "PerRegion", by="Region"),
            assign("Few", "SELECTCONST", "Sales", attr="Part", value="nuts"),
            assign("Subsets", "SETNEW", "Few", attr="Id"),
        ]
    ).run(database(figure4_top()))
    assert set(OPERATIONS) | {"CHAINJOIN"} <= op_results


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_results_pass_the_literal_check(op_results, name):
    EXAMPLES[name].runner()
    if EXAMPLES[name].build is not None:
        assert op_results


# ----------------------------------------------------------------------
# Input from outside is still checked
# ----------------------------------------------------------------------

RAGGED = [[Name("R"), Name("A")], [NULL]]
RAGGED_TEXT = r"ragged grid: row 1 has 1 entries, expected 2"


def _one_row():
    return Table([[Name("R"), Name("A")], [NULL, Value(1)]])


# ``Table`` itself, and ``make_table``'s own arity check, are pinned in
# test_table.py and test_builders_render.py.


def test_builders_are_checked(monkeypatch):
    import repro.core.builders as builders

    monkeypatch.setattr(builders, "data_symbol", lambda obj: obj)
    with pytest.raises(SchemaError, match=r"grid entry \(1,1\) is 1, not a Symbol"):
        make_table("R", ["A"], [[1]])


def test_decoded_tables_are_checked(monkeypatch):
    import repro.runtime.checkpoint as checkpoint

    with pytest.raises(SchemaError, match=RAGGED_TEXT):
        table_from_data([[["n", "R"], ["n", "A"]], [["0"]]])
    decode = checkpoint.symbol_from_data
    monkeypatch.setattr(
        checkpoint,
        "symbol_from_data",
        lambda data: data[1] if data[0] == "v" else decode(data),
    )
    with pytest.raises(SchemaError, match=r"grid entry \(1,1\) is 1, not a Symbol"):
        table_from_data([[["n", "R"], ["n", "A"]], [["0", None], ["v", 1]]])


def test_table_edits_are_checked():
    table = _one_row()
    entry = r"grid entry \(1,1\) is 1, not a Symbol"
    with pytest.raises(SchemaError, match=entry):
        table.with_entry(1, 1, 1)
    with pytest.raises(SchemaError, match=entry):
        table.map_entries(lambda symbol: 1 if symbol == Value(1) else symbol)
    with pytest.raises(SchemaError, match=r"grid entry \(2,1\) is 1, not a Symbol"):
        table.append_rows([[NULL, 1]])
    with pytest.raises(SchemaError, match=r"ragged grid: row 2 has 1 entries, expected 2"):
        table.append_rows([[NULL]])
    with pytest.raises(SchemaError, match=r"grid entry \(1,2\) is 1, not a Symbol"):
        table.append_columns([[Name("B"), 1]])
    with pytest.raises(SchemaError, match="appended column has 1 entries, expected 2"):
        table.append_columns([[Name("B")]])


def test_assembled_grids_keep_the_shape_check():
    with pytest.raises(SchemaError, match=RAGGED_TEXT):
        _from_checked(RAGGED)
    for empty in ([], [[]]):
        with pytest.raises(SchemaError, match=r"at least the name position"):
            _from_checked(empty)
    table = _from_checked([row for row in _one_row().grid])
    assert table == _one_row() and type(table.grid[1]) is tuple


# ----------------------------------------------------------------------
# No full entry check while a program runs
# ----------------------------------------------------------------------


@pytest.fixture
def entry_checks(monkeypatch):
    """Count the full entry checks (``Table(...)`` constructions)."""
    calls = []
    freeze = table_module._freeze_grid

    def counted(rows):
        calls.append(1)
        return freeze(rows)

    monkeypatch.setattr(table_module, "_freeze_grid", counted)
    return calls


def test_restructure_makes_no_entry_check(entry_checks):
    _label, program, db = resolve_workload("restructure:80")
    entry_checks.clear()
    result = program.run(db)
    assert entry_checks == []
    assert result.tables_named(Name("Flat"))[0].height == 240


def test_optimized_vector_tc_makes_no_entry_check(entry_checks):
    _label, program, db = resolve_workload("tc:16")
    stats = analyze_database(db)
    entry_checks.clear()
    result = run_program(program, db, engine="vector", optimize=True, stats=stats)
    assert entry_checks == []
    assert result.tables_named(Name("TC"))[0].height == 16 * 15 // 2
