"""Kernel-level properties: interning round-trips, kernels ≡ naive ops.

Hypothesis drives structured random tables through each kernel and the
naive operation it replaces; grids must match cell for cell.  The
hash-dedup case is additionally checked against an independent
quadratic reference, and product/select pushdown against the explicit
post-filter composition.

The difference family has no kernel: its naive ops hash each row's
mutual-subsumption key.  Because the naive algebra is the oracle for
the kernels, the optimizer and replay, those ops are pinned here to the
paper's definition itself, a literal pairwise scan over
``Table.rows_subsume_each_other``.
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
from repro.core import NULL, Name, TaggedValue, Table, Value
from repro.engine.interning import SymbolInterner
from repro.engine.kernels import KERNELS
from repro.engine.runtime import VectorEngine

ATTRS = [NULL, Name("A"), Name("B"), Name("C")]
ENTRIES = [
    NULL, Name("A"), Name("B"), Value("x"), Value("y"), Value("z"), Value(3),
    # Equal across payload types (1 == 1.0 == True) or not (tags, sorts).
    Value(1), Value(1.0), Value(True), TaggedValue(1), Name("x"),
]


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


@st.composite
def table_pairs(draw):
    """ρ and σ: independent, or σ reshaped from some of ρ's rows.

    The reshaping permutes σ's columns and adds one that is all ⊥ or
    repeats another, which keeps every entry set weakly equal, and it
    keeps or redraws each row attribute — so rows that mutually subsume
    each other, under the same or another row attribute, are common.
    """
    rho = draw(tables(max_height=4, max_width=3))
    if draw(st.booleans()):
        return rho, draw(tables(max_height=4, max_width=3))
    cols = draw(st.permutations(range(1, rho.ncols)))
    extra = draw(st.sampled_from([None, *cols]))
    extra_attr = draw(st.sampled_from(ATTRS)) if extra is None else rho.entry(0, extra)
    rows = []
    if rho.height:
        rows = draw(st.lists(st.sampled_from(rho.data_row_indices()), max_size=4))
    header = [Name("S"), *(rho.entry(0, j) for j in cols), extra_attr]
    grid = [header]
    for i in rows:
        attr = draw(st.sampled_from([rho.entry(i, 0), *ATTRS]))
        pad = NULL if extra is None else rho.entry(i, extra)
        grid.append([attr, *(rho.entry(i, j) for j in cols), pad])
    return rho, Table(grid)


def _subsumption_scan(rho, sigma):
    """``R \\ S`` as the paper defines it, pair by pair: drop ρ_i iff some
    σ_k has the same row attribute and ρ_i ≍ σ_k."""
    kept = [rho.row(0)]
    for i in rho.data_row_indices():
        if not any(
            rho.entry(i, 0) == sigma.entry(k, 0)
            and rho.rows_subsume_each_other(i, sigma, k)
            for k in sigma.data_row_indices()
        ):
            kept.append(rho.row(i))
    return Table(kept)


@settings(max_examples=150)
@given(table_pairs())
def test_difference_equals_subsumption_scan(pair):
    rho, sigma = pair
    assert difference(rho, sigma).grid == _subsumption_scan(rho, sigma).grid


@settings(max_examples=150)
@given(table_pairs())
def test_intersection_equals_double_subsumption_scan(pair):
    rho, sigma = pair
    expected = _subsumption_scan(rho, _subsumption_scan(rho, sigma))
    assert intersection(rho, sigma).grid == expected.grid


@settings(max_examples=100)
@given(tables(), st.sampled_from(ATTRS))
def test_drop_null_rows_equals_subsumption_scan(table, attr):
    expected = _subsumption_scan(table, select_constant(table, attr, None))
    assert drop_all_null_rows(table, attr).grid == expected.grid


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
