"""Kernel-level properties: interning round-trips, kernels ≡ naive ops.

Hypothesis drives structured random tables through each kernel and the
naive operation it replaces; grids must match cell for cell.  The
hash-dedup case is additionally checked against an independent
quadratic reference, and product/select pushdown against the explicit
post-filter composition.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    classical_union,
    deduplicate,
    difference,
    drop_all_null_rows,
    intersection,
    product,
    product_select,
    select,
    select_constant,
)
from repro.core import NULL, Name, Table, Value
from repro.engine.interning import SymbolInterner
from repro.engine.kernels import KERNELS
from repro.engine.runtime import VectorEngine

ATTRS = [NULL, Name("A"), Name("B"), Name("C")]
ENTRIES = [NULL, Name("A"), Name("B"), Value("x"), Value("y"), Value("z"), Value(3)]


@st.composite
def tables(draw, max_height=5, max_width=4):
    """Adversarial tables: ⊥ and repeated attrs, names in data."""
    height = draw(st.integers(0, max_height))
    width = draw(st.integers(0, max_width))
    name = draw(st.sampled_from([Name("R"), Name("S")]))
    header = [name] + [draw(st.sampled_from(ATTRS)) for _ in range(width)]
    grid = [header]
    for _ in range(height):
        row_attr = draw(st.sampled_from(ATTRS))
        grid.append([row_attr] + [draw(st.sampled_from(ENTRIES)) for _ in range(width)])
    return Table(grid)


def _kernel(name, tables_in, arguments):
    return KERNELS[name](SymbolInterner(), tables_in, arguments)


@given(tables())
def test_interning_round_trip(table):
    interner = SymbolInterner()
    idt = interner.intern_table(table)
    back = interner.materialize(idt.name, idt.col_attrs, idt.row_attrs, idt.rows)
    assert back == table
    assert back.grid == table.grid


@given(tables())
def test_intern_table_caches_by_identity(table):
    interner = SymbolInterner()
    assert interner.intern_table(table) is interner.intern_table(table)


@given(tables())
def test_hash_dedup_equals_quadratic_dedup(table):
    fast = _kernel("DEDUP", [table], {})
    reference = deduplicate(table)
    assert fast.grid == reference.grid

    # Independent quadratic reference: keep the first of any identical
    # (row attribute, data row) pair, preserving order.
    kept, seen = [table.grid[0]], []
    for row in table.grid[1:]:
        if row not in seen:
            seen.append(row)
            kept.append(row)
    assert fast.grid == Table(kept).grid


@settings(max_examples=60)
@given(tables(max_height=4, max_width=3), tables(max_height=4, max_width=3),
       st.sampled_from(ATTRS), st.sampled_from(ATTRS))
def test_pushdown_equals_post_filter(rho, sigma, left, right):
    fused = _kernel("PRODUCTSELECT", [rho, sigma], {"left": left, "right": right})
    post = select(product(rho, sigma), left, right)
    assert fused.grid == post.grid
    assert product_select(rho, sigma, left, right).grid == post.grid


@settings(max_examples=60)
@given(tables(max_height=4, max_width=3), tables(max_height=4, max_width=3))
def test_difference_kernel_equals_subsumption_scan(rho, sigma):
    assert _kernel("DIFFERENCE", [rho, sigma], {}).grid == difference(rho, sigma).grid


@settings(max_examples=60)
@given(tables(max_height=4, max_width=3), tables(max_height=4, max_width=3))
def test_intersection_kernel_equals_subsumption_scan(rho, sigma):
    assert (
        _kernel("INTERSECTION", [rho, sigma], {}).grid
        == intersection(rho, sigma).grid
    )


@settings(max_examples=60)
@given(tables(), st.sampled_from(ATTRS))
def test_drop_null_rows_kernel_equals_subsumption_scan(table, attr):
    assert (
        _kernel("DROPNULLROWS", [table], {"attr": attr}).grid
        == drop_all_null_rows(table, attr).grid
    )


@settings(max_examples=60)
@given(tables(max_height=4, max_width=3), tables(max_height=4, max_width=3))
def test_classical_union_kernel_matches(rho, sigma):
    assert (
        _kernel("CLASSICALUNION", [rho, sigma], {}).grid
        == classical_union(rho, sigma).grid
    )


@given(tables(), st.sampled_from(ATTRS), st.sampled_from(ATTRS))
def test_select_kernel_matches(table, left, right):
    assert (
        _kernel("SELECT", [table], {"left": left, "right": right}).grid
        == select(table, left, right).grid
    )


@given(tables(), st.sampled_from(ATTRS), st.sampled_from(ENTRIES))
def test_select_constant_kernel_matches(table, attr, value):
    assert (
        _kernel("SELECTCONST", [table], {"attr": attr, "value": value}).grid
        == select_constant(table, attr, value).grid
    )


def test_dispatch_declines_unknown_ops_and_counts():
    backend = VectorEngine()
    table = Table([[Name("R"), Name("A")], [NULL, Value("x")]])
    assert backend.dispatch("GROUP", [table], {"by": frozenset(), "on": frozenset()}) is None
    produced = backend.dispatch("DEDUP", [table], {})
    assert produced is not None and produced.grid == deduplicate(table).grid
    assert backend.stats["fallbacks"] == 1
    assert backend.stats["kernel_calls"] == 1
    assert backend.stats["fallback:GROUP"] == 1
    assert backend.stats["kernel:DEDUP"] == 1


def test_dispatch_falls_back_under_lineage():
    from repro.obs.lineage import lineage

    backend = VectorEngine()
    table = Table([[Name("R"), Name("A")], [NULL, Value("x")]])
    with lineage():
        assert backend.dispatch("DEDUP", [table], {}) is None
    assert backend.stats["fallback:DEDUP"] == 1
