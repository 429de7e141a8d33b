"""Experiment ``scale`` — engine scaling of every tabular algebra family.

No paper counterpart (the authors' Access/Excel system was never
evaluated); this sweep characterizes the pure-Python engine so the other
experiments' timings have context.  One benchmark per operation family
over the shared size sweep.
"""

import os
import time

import pytest

from repro.algebra import (
    cleanup,
    deduplicate,
    group,
    merge,
    project,
    purge,
    rename,
    select_constant,
    split,
    transpose,
    tuplenew,
    union,
)
from repro.algebra.programs import parse_program
from repro.algebra.programs.registry import OPERATIONS
from repro.algebra.programs.statements import Program, assign
from repro.core import NULL, FreshValueSource, Name, Table, TabularDatabase, Value
from repro.data import sales_info1, synthetic_grouped_table
from repro.engine import run_program
from repro.engine.interning import SymbolInterner
from repro.engine.kernels import KERNELS

from conftest import report

#: Trajectory label prefix: timing records roll into
#: ``BENCH_trajectory.json`` as ``scale/<test name>`` (see conftest).
BENCH_LABEL = "scale"


class TestOperationScaling:
    def test_transpose(self, benchmark, sized_sales):
        result = benchmark(transpose, sized_sales)
        assert result.width == sized_sales.height

    def test_rename(self, benchmark, sized_sales):
        result = benchmark(rename, sized_sales, "Sold", "Quantity")
        assert result.height == sized_sales.height

    def test_project(self, benchmark, sized_sales):
        result = benchmark(project, sized_sales, ["Part"])
        assert result.width == 1

    def test_select_constant(self, benchmark, sized_sales):
        result = benchmark(select_constant, sized_sales, "Region", "region0")
        assert result.height <= sized_sales.height

    def test_union_self(self, benchmark, sized_sales):
        result = benchmark(union, sized_sales, sized_sales)
        assert result.height == 2 * sized_sales.height

    def test_group(self, benchmark, sized_sales):
        result = benchmark(group, sized_sales, "Region", "Sold")
        assert result.height == sized_sales.height + 1

    def test_split(self, benchmark, sized_sales):
        result = benchmark(split, sized_sales, "Region")
        assert 1 <= len(result) <= 4

    def test_cleanup(self, benchmark, sized_sales):
        grouped = group(sized_sales, by="Region", on="Sold")
        result = benchmark(cleanup, grouped, "Part", [None])
        assert result.height <= grouped.height

    def test_purge(self, benchmark, sized_sales):
        grouped = cleanup(
            group(sized_sales, by="Region", on="Sold"), by="Part", on=[None]
        )
        result = benchmark(purge, grouped, "Sold", "Region")
        assert result.width <= grouped.width

    def test_merge(self, benchmark):
        grouped = synthetic_grouped_table(40, 6, seed=7)
        result = benchmark(merge, grouped, "Sold", "Region")
        assert result.height == (grouped.height - 1) * (grouped.width - 1)

    def test_deduplicate(self, benchmark, sized_sales):
        doubled = union(sized_sales, sized_sales)
        from repro.algebra import deduplicate_columns

        merged = deduplicate_columns(doubled)
        result = benchmark(deduplicate, merged)
        assert result.height == sized_sales.height

    def test_tuplenew(self, benchmark, sized_sales):
        result = benchmark(
            lambda: tuplenew(sized_sales, "Id", FreshValueSource())
        )
        assert result.width == sized_sales.width + 1


def _keyed_relation(name, n_rows, key_attr, key_count, prefix):
    """A relation-style table whose ``key_attr`` column repeats over
    ``key_count`` values — the join column for the product/select case."""
    keys = [Value(f"k{i}") for i in range(key_count)]
    header = [Name(name), Name(key_attr), Name(f"{prefix}0"), Name(f"{prefix}1")]
    grid = [header]
    for i in range(n_rows):
        grid.append(
            [NULL, keys[i % key_count], Value(f"{prefix}{i}a"), Value(f"{prefix}{i}b")]
        )
    return Table(grid)


def _duplicated_table(n_rows, n_cols, n_distinct):
    """A wide table where every distinct row repeats ~n/n_distinct times."""
    header = [Name("R")] + [Name(f"A{c}") for c in range(n_cols)]
    grid = [header]
    for i in range(n_rows):
        k = i % n_distinct
        grid.append([NULL] + [Value(f"v{k}_{c}") for c in range(n_cols)])
    return Table(grid)


def _product_select_case(n_rows):
    db = TabularDatabase(
        [
            _keyed_relation("R", n_rows, "K", max(2, n_rows // 8), "a"),
            _keyed_relation("S", n_rows, "J", max(2, n_rows // 8), "b"),
        ]
    )
    program = Program(
        [
            assign("T", "PRODUCT", "R", "S"),
            assign("T", "SELECT", "T", left="K", right="J"),
        ]
    )
    return program, db


def _dedup_fan_case(n_rows):
    db = TabularDatabase([_duplicated_table(n_rows, 14, max(2, n_rows // 16))])
    program = Program([assign(f"D{i}", "DEDUP", "R") for i in range(8)])
    return program, db


class TestEngineBackends:
    """Naive interpreter vs vectorized backend, side by side.

    Each case runs the *same program* under ``engine="naive"`` and
    ``engine="vector"``; the parametrize ids land in the trajectory as
    per-backend labels (``scale/test_...[naive-rowsN]`` vs
    ``[vector-rowsN]``), so ``bench-compare`` tracks both paths
    independently.
    """

    @pytest.mark.parametrize("rows", [10, 40, 160], ids=lambda n: f"rows{n}")
    @pytest.mark.parametrize("engine", ["naive", "vector"])
    def test_product_select_program(self, benchmark, engine, rows):
        program, db = _product_select_case(rows)
        result = benchmark(run_program, program, db, engine=engine)
        joined = result.tables_named("T")
        assert len(joined) == 1 and joined[0].height >= rows

    @pytest.mark.parametrize("rows", [10, 40, 160], ids=lambda n: f"rows{n}")
    @pytest.mark.parametrize("engine", ["naive", "vector"])
    def test_dedup_fan_program(self, benchmark, engine, rows):
        program, db = _dedup_fan_case(rows)
        result = benchmark(run_program, program, db, engine=engine)
        deduped = result.tables_named("D0")
        assert len(deduped) == 1
        assert deduped[0].height == max(2, rows // 16)


def _best_of(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize(
    "make_case,floor", [(_product_select_case, 5.0)], ids=["product_select"]
)
def test_backend_speedup_floor(make_case, floor):
    """The vectorized backend is ≥5x faster at the largest sweep size.

    The vector plan fuses the PRODUCT/SELECT pair into one PRODUCTSELECT,
    whose naive op hash-joins; the naive run materializes the whole
    product first.  Measured directly (best of three wall-clock runs)
    rather than via the benchmark fixture so the assertion also runs
    under ``--benchmark-disable``.  DEDUP has no kernel, so both engines
    run the same op; :func:`test_dedup_scales_linearly` guards it.
    """
    program, db = make_case(160)
    expected = run_program(program, db, engine="naive")
    assert run_program(program, db, engine="vector") == expected

    naive = _best_of(lambda: run_program(program, db, engine="naive"))
    vector = _best_of(lambda: run_program(program, db, engine="vector"))
    assert naive / vector >= floor, (
        f"speedup {naive / vector:.1f}x fell below the {floor}x floor "
        f"(naive={naive * 1e3:.2f}ms vector={vector * 1e3:.2f}ms)"
    )


def _relation(name, n_rows, offset=0, distinct=None):
    """A relation ``name(A, B, C, D)`` whose row ``i`` holds pattern
    ``offset + i`` (``offset + i % distinct`` when given, so rows repeat).

    Pattern ``k`` puts ``a<k>`` under A, the same under B when ``k`` is
    odd, one of ten values under C and ⊥ under D when ``k % 5 == 0``:
    SELECT A=B keeps half the rows, SELECTCONST C=c0 a tenth, and
    DROPNULLROWS on D drops a fifth.
    """
    grid = [[Name(name), Name("A"), Name("B"), Name("C"), Name("D")]]
    for i in range(n_rows):
        k = offset + (i % distinct if distinct else i)
        grid.append(
            [
                NULL,
                Value(f"a{k}"),
                Value(f"a{k}" if k % 2 else f"b{k}"),
                Value(f"c{k % 10}"),
                NULL if k % 5 == 0 else Value(f"d{k}"),
            ]
        )
    return Table(grid)


#: One case per kernel: its input tables and evaluated arguments, 1,000
#: rows, so every naive op runs for a few ms.
_KERNEL_CASES = {
    "SELECT": lambda: ((_relation("R", 1000),), {"left": "A", "right": "B"}),
    "SELECTCONST": lambda: ((_relation("R", 1000),), {"attr": "C", "value": "c0"}),
}

#: A kernel that cannot beat its naive op by this factor is deleted; the
#: decision table in docs/ENGINE.md records the measurements.
KERNEL_FLOOR = 2.0


@pytest.mark.parametrize("op", sorted(KERNELS))
def test_every_kernel_pays_for_itself(op):
    """Every kernel is at least 2x faster than the naive op it replaces.

    The inputs are interned before timing: that is the kernel's best
    case, the one a pipeline of kernels gives it.  A kernel that falls
    short even there costs more code than it saves time.  Wall clock,
    best of five, so the assertion also runs under --benchmark-disable.
    """
    tables, kwargs = _KERNEL_CASES[op]()
    naive_op, kernel = OPERATIONS[op].function, KERNELS[op]
    interner = SymbolInterner()
    for table in tables:
        interner.intern_table(table)
    assert kernel(interner, tables, kwargs).grid == naive_op(*tables, **kwargs).grid

    naive = _best_of(lambda: naive_op(*tables, **kwargs), reps=5)
    fast = _best_of(lambda: kernel(interner, tables, kwargs), reps=5)
    report(
        f"kernel-pays/{op}",
        naive_ms=round(naive * 1e3, 3),
        kernel_ms=round(fast * 1e3, 3),
        ratio=round(naive / fast, 2),
    )
    assert naive / fast >= KERNEL_FLOOR, (
        f"{op} kernel is {naive / fast:.2f}x its naive op, below the "
        f"{KERNEL_FLOOR}x floor (naive={naive * 1e3:.2f}ms "
        f"kernel={fast * 1e3:.2f}ms)"
    )


def _difference_family_case(op, n_rows):
    """``op``'s inputs at ``n_rows``: σ is offset by half, so half of ρ's
    rows have a mutually subsuming partner (a duplicate, for
    CLASSICALUNION); DROPNULLROWS drops a fifth."""
    if op == "DROPNULLROWS":
        return (_relation("R", n_rows),), {"attr": "D"}
    return (_relation("R", n_rows), _relation("S", n_rows, offset=n_rows // 2)), {}


# The ids avoid "rows": CI's benchmark smoke selects with
# -k "rows10 or not rows", which pytest matches case-insensitively.
@pytest.mark.parametrize(
    "op",
    ["DIFFERENCE", "DROPNULLROWS", "INTERSECTION", "CLASSICALUNION"],
    ids=["DIFFERENCE", "DROPNULL", "INTERSECTION", "CLASSICALUNION"],
)
def test_difference_family_scales_linearly(op):
    """The naive difference family, and CLASSICALUNION over the same two
    inputs, hash row keys: 10x the rows costs about 10x the time, where
    the pairwise subsumption scan cost ~100x."""
    _assert_scales_linearly(op, lambda n_rows: _difference_family_case(op, n_rows))


def test_dedup_scales_linearly():
    """Naive DEDUP hashes whole rows, each repeated ten times: 10x the
    rows costs about 10x the time."""
    _assert_scales_linearly(
        "DEDUP", lambda n_rows: ((_relation("R", n_rows, distinct=n_rows // 10),), {})
    )


def _assert_scales_linearly(op, make_case):
    """``op``'s naive form at 10,000 rows takes at most 25x its time at
    1,000 rows.

    Wall clock, best of three per size, so the assertion also runs under
    --benchmark-disable; the 25x ceiling leaves room for timer noise and
    for the larger inputs' worse cache behaviour.
    """
    naive_op = OPERATIONS[op].function
    times = {}
    for n_rows in (1_000, 10_000):
        tables, kwargs = make_case(n_rows)
        times[n_rows] = _best_of(lambda: naive_op(*tables, **kwargs))
    ratio = times[10_000] / times[1_000]
    report(
        f"scales-linearly/{op}",
        ms_1k=round(times[1_000] * 1e3, 3),
        ms_10k=round(times[10_000] * 1e3, 3),
        ratio=round(ratio, 2),
    )
    assert ratio <= 25, (
        f"{op} at 10,000 rows took {ratio:.1f}x its 1,000-row time, over "
        f"the 25x linear-scaling ceiling"
    )


def _padded_program_case(pad):
    """A 50-statement straight-line DEDUP chain from ``R``, over a
    database holding ``R`` and ``pad`` unrelated one-row tables."""
    program = Program(
        [assign("T0", "DEDUP", "R")]
        + [assign(f"T{i}", "DEDUP", f"T{i - 1}") for i in range(1, 50)]
    )
    padding = (
        Table([[Name(f"P{k}"), Name("A")], [NULL, Value(k)]]) for k in range(pad)
    )
    return program, TabularDatabase([_relation("R", 20), *padding])


def test_statement_cost_ignores_table_count():
    """An assignment touches only its target name, so padding the
    database from 10 to 1,000 unrelated tables leaves a 50-statement
    program's time nearly flat (~1.3x); rebuilding and re-sorting the
    whole database on every statement cost ~10x.

    Wall clock, best of five per size, so the assertion also runs under
    --benchmark-disable; the 4x ceiling leaves room for timer noise and
    for the one pass over every table a run makes at its start.
    """
    times = {}
    for pad in (10, 1_000):
        program, db = _padded_program_case(pad)
        result = program.run(db)
        assert len(result) == pad + 51
        assert result.table("T49") == result.table("T0").with_name(Name("T49"))
        times[pad] = _best_of(lambda: program.run(db), reps=5)
    ratio = times[1_000] / times[10]
    report(
        "statement-cost/padding",
        ms_10=round(times[10] * 1e3, 3),
        ms_1000=round(times[1_000] * 1e3, 3),
        ratio=round(ratio, 2),
    )
    assert ratio <= 4, (
        f"a 50-statement program over 1,000 padding tables took {ratio:.1f}x "
        f"its time over 10, over the 4x ceiling"
    )


#: Sizes of the ``restructure:N`` sweep, in parts: 240 to 1,920 rows.
PIVOT_PARTS = (80, 160, 320, 640)


def test_pivot_chain_scales_with_cells():
    """GROUP → CLEANUP → PURGE → MERGECOMPACT (``restructure:N``) costs
    time in proportion to GROUP's grid, which grows 4x when the rows
    double: 1,920 rows take about 4x the time of 960.  A step that
    compared pairs of rows or of columns would take 8x or more.

    Wall clock, best of three per size, so the assertion also runs under
    --benchmark-disable; the 6x ceiling leaves room for timer noise.
    """
    from repro.runtime.workloads import parse_workload

    times = {}
    for parts in PIVOT_PARTS:
        _label, program, db = parse_workload(f"restructure:{parts}")
        (sales,) = db.tables
        flat = program.run(db).table("Flat")
        assert sorted(flat.grid[1:]) == sorted(sales.grid[1:])
        times[parts] = _best_of(lambda: program.run(db))
        report(f"pivot-chain/{sales.height}", ms=round(times[parts] * 1e3, 3))
    ratio = times[640] / times[320]
    report("pivot-chain/doubling", ratio=round(ratio, 2))
    assert ratio <= 6, (
        f"restructure at 1,920 rows took {ratio:.1f}x its 960-row time, over "
        f"the 6x ceiling"
    )


def _checkpointed_tc8(directory, pad_rows):
    """A checkpointed ``tc:8`` run, over one extra ``pad_rows``-row table
    when ``pad_rows`` is non-zero: ``(symbols encoded, [bytes written by
    each boundary])``."""
    from repro.runtime import checkpoint as ck
    from repro.runtime import run_hardened
    from repro.runtime.workloads import parse_workload

    _label, program, db = parse_workload("tc:8")
    if pad_rows:
        db = db.add(_relation("Pad", pad_rows))
    encoded, sizes = [], []
    encode, save = ck.symbol_to_data, ck.save_checkpoint

    def counting(symbol):
        encoded.append(symbol)
        return encode(symbol)

    def sizing(*args, **kwargs):
        file = save(*args, **kwargs)
        sizes.append(os.path.getsize(file))
        return file

    directory.mkdir()
    ck.symbol_to_data, ck.save_checkpoint = counting, sizing
    try:
        run_hardened(program, db, checkpoint_path=directory / "ck.json")
    finally:
        ck.symbol_to_data, ck.save_checkpoint = encode, save
    return len(encoded), sizes


def test_checkpoint_bytes_ignore_an_unchanged_table(tmp_path):
    """A checkpoint boundary writes only the tables it has not written
    before, so a large table no statement touches costs its encoding
    once, at boundary zero.  After that, a checkpointed ``tc:8`` over an
    extra 2,000-row table writes no more bytes than without it, but for
    the table's key in each boundary's order (~5 bytes).  Rewriting the
    whole database at every boundary wrote the table ~100 times.

    Counts symbols and bytes, not time, so it is exact on any host.
    """
    pad = _relation("Pad", 2_000)
    plain_encoded, plain = _checkpointed_tc8(tmp_path / "plain", 0)
    padded_encoded, padded = _checkpointed_tc8(tmp_path / "padded", 2_000)
    report(
        "checkpoint-bytes/padding",
        boundaries=len(plain),
        plain_after_zero=sum(plain[1:]),
        padded_after_zero=sum(padded[1:]),
        padded_boundary_zero=padded[0],
    )
    assert len(padded) == len(plain)
    assert padded_encoded - plain_encoded == sum(len(row) for row in pad.grid)
    assert sum(padded[1:]) <= sum(plain[1:]) + 8 * len(plain), (
        "the unchanged table was written again after boundary zero"
    )


class TestInterpreterOverhead:
    """Interpreter dispatch vs direct calls (ablation input)."""

    def test_program_pipeline(self, benchmark):
        program = parse_program(
            """
            Grouped <- GROUP by {Region} on {Sold} (Sales)
            Cleaned <- CLEANUP by {Part} on {null} (Grouped)
            Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
            """
        )
        db = sales_info1()
        result = benchmark(program.run, db)
        assert result.tables_named("Pivot")

    def test_direct_pipeline(self, benchmark):
        table = sales_info1().table("Sales")

        def direct():
            grouped = group(table, by="Region", on="Sold")
            cleaned = cleanup(grouped, by="Part", on=[None])
            return purge(cleaned, on="Sold", by="Region")

        result = benchmark(direct)
        assert result.width == 5
