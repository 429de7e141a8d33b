"""Edge paths of the engine runtime: lazy exports, bad engine names, and
runs that leave no cyclic garbage."""

import gc

import pytest

import repro.engine as engine_pkg
from repro.core import NULL, Name, Table, TabularDatabase, Value
from repro.core.errors import EvaluationError
from repro.engine import run_program
from repro.runtime.workloads import resolve_workload


def _table(name="R"):
    return Table([[Name(name), Name("A")], [NULL, Value("x")], [NULL, Value("x")]])


def test_lazy_exports_reject_unknown_attributes():
    assert engine_pkg.ENGINES == ("naive", "vector")
    with pytest.raises(AttributeError):
        engine_pkg.no_such_symbol


def test_run_program_rejects_unknown_engine():
    from repro.algebra.programs.statements import Program, assign

    program = Program([assign("D", "DEDUP", "R")])
    db = TabularDatabase([_table()])
    with pytest.raises(EvaluationError, match="unknown engine"):
        run_program(program, db, engine="turbo")


@pytest.mark.parametrize(
    "spec,engine",
    [("tc:6", "naive"), ("tc:6", "vector"), ("schemalog", "naive")],
)
def test_runs_leave_no_cyclic_garbage(spec, engine):
    """A run frees its intermediate databases by reference counting
    alone, so peak memory does not depend on when the cyclic collector
    happens to run."""
    _, program, db = resolve_workload(spec)
    run_program(program, db, engine=engine)  # warm lazy imports and caches
    gc.collect()
    gc.disable()
    try:
        run_program(program, db, engine=engine)
        assert gc.collect() == 0
    finally:
        gc.enable()
