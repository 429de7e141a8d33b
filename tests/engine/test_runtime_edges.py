"""Edge paths of the engine runtime: lazy exports, bad engine names,
kernel-declined dispatch, metrics counting, interner cache bounds, and
runs that leave no cyclic garbage."""

import gc

import pytest

import repro.engine as engine_pkg
from repro.algebra.programs.registry import OPERATIONS
from repro.core import NULL, Name, Table, TabularDatabase, Value
from repro.core.errors import EvaluationError
from repro.engine import run_program
from repro.engine.interning import IdTable, SymbolInterner
from repro.engine.runtime import VectorEngine, engine_scope
from repro.obs import observation
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


def test_dispatch_counts_a_kernel_that_declines():
    backend = VectorEngine()
    backend.kernels = dict(backend.kernels)
    backend.kernels["DEDUP"] = lambda interner, tables, arguments: None
    assert backend.dispatch("DEDUP", [_table()], {}) is None
    assert backend.stats["fallback:DEDUP"] == 1


def test_dispatch_counts_vector_kernel_hits_metric():
    with observation() as obs, engine_scope() as backend:
        OPERATIONS["DEDUP"].invoke((_table(),), {}, None)
    assert backend.stats["kernel:DEDUP"] == 1
    counters = obs.metrics.snapshot()["counters"]
    assert counters["vector_kernel_hits"] == 1


def test_interner_symbol_round_trip():
    interner = SymbolInterner()
    ids = [interner.intern(s) for s in (Value("x"), Name("A"), NULL)]
    assert ids[2] == 0  # NULL is always id 0
    for i in ids:
        assert interner.intern(interner.symbol(i)) == i


@pytest.mark.parametrize(
    "spec,engine",
    [("tc:6", "naive"), ("tc:6", "vector"), ("schemalog", "naive")],
)
def test_runs_leave_no_cyclic_garbage(spec, engine):
    """A run frees its intermediate databases and id tables by reference
    counting alone, so peak memory does not depend on when the cyclic
    collector happens to run."""
    _, program, db = resolve_workload(spec)
    run_program(program, db, engine=engine)  # warm lazy imports and caches
    gc.collect()
    gc.disable()
    try:
        run_program(program, db, engine=engine)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_interner_cache_clears_at_capacity(monkeypatch):
    monkeypatch.setattr(SymbolInterner, "CACHE_CAP", 1)
    interner = SymbolInterner()
    a, b = _table("R"), _table("S")
    interner.intern_table(a)
    interner.intern_table(b)  # trips the cap-clear branch
    assert len(interner._cache) == 1
    assert interner.intern_table(b) is interner.intern_table(b)


def test_idtable_from_empty_rows_and_transpose():
    empty = IdTable(1, (2, 3), (), rows=())
    assert empty.height == 0 and empty.width == 2
    assert empty.rows == ()

    idt = IdTable(1, (2,), (0, 0), rows=((5,), (6,)))
    flipped = idt.transposed()
    assert flipped.height == idt.width and flipped.width == idt.height
    assert flipped.transposed().rows == idt.rows
