"""CLEAN-UP, PURGE, GROUP and the grid check pinned to their literal definitions.

The naive algebra is the oracle for the vector engine, the optimizer and
replay, so its column-wise merge, its tuple-built GROUP and its one-pass
grid check are pinned here to the per-cell constructions they replaced:
``_reference_merge_rows``, ``reference_cleanup`` and ``reference_group``
read every cell through ``Table.entry``, ``reference_purge`` transposes
through a fully checked ``Table``, and ``_reference_freeze`` checks a grid
entry by entry.

Results must match by ``==``, by the checkpoint encoding's JSON text
(``==`` cannot tell ``Value(1)`` from ``Value(True)``; the encoding can),
by each cell's type (the ⊥ constant is not a lineage copy of ⊥) and by
each cell's provenance, also under ``lineage()``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    classical_union,
    cleanup,
    deduplicate,
    deduplicate_columns,
    group,
    purge,
    union,
)
from repro.core import NULL, Name, SchemaError, Symbol, TaggedValue, Table, Value
from repro.core.table import _SYMBOL_TYPES
from repro.obs import runtime as obs_runtime
from repro.obs.lineage import CellRef, derived_from, lineage, with_prov
from repro.runtime.checkpoint import table_to_data

# ----------------------------------------------------------------------
# The literal definitions
# ----------------------------------------------------------------------


def _reference_freeze(rows):
    """The grid check entry by entry; returns the error text or None."""
    grid = tuple(tuple(row) for row in rows)
    if not grid or not grid[0]:
        return "a table requires at least the name position (a 1x1 grid)"
    ncols = len(grid[0])
    for i, row in enumerate(grid):
        if len(row) != ncols:
            return f"ragged grid: row {i} has {len(row)} entries, expected {ncols}"
        for j, entry in enumerate(row):
            if not isinstance(entry, Symbol):
                return (
                    f"grid entry ({i},{j}) is {entry!r}, not a Symbol; "
                    "use repro.core.builders for coercing plain Python objects"
                )
    return None


def _reference_transpose(table):
    return Table(zip(*table.grid))


def _reference_merge_rows(table, rows):
    lin = obs_runtime.OBS.lineage
    merged = []
    for j in range(table.ncols):
        candidate = NULL
        for i in rows:
            entry = table.entry(i, j)
            if entry.is_null:
                continue
            if candidate.is_null:
                candidate = entry
            elif candidate != entry:
                return None
        if lin is not None:
            candidate = derived_from(candidate, (table.entry(i, j) for i in rows))
        merged.append(candidate)
    return merged


def reference_cleanup(table, by, on):
    by_cols = [j for j in table.data_col_indices() if table.entry(0, j) in by]
    order, groups = [], {}
    for i in table.data_row_indices():
        attr = table.entry(i, 0)
        if attr not in on:
            continue
        key = (attr, tuple(table.entry(i, j) for j in by_cols))
        if key not in groups:
            order.append(key)
            groups[key] = []
        groups[key].append(i)
    replacement, skip = {}, set()
    for key in order:
        rows = groups[key]
        if len(rows) == 1:
            continue
        merged = _reference_merge_rows(table, rows)
        if merged is None:
            continue
        replacement[rows[0]] = merged
        skip.update(rows[1:])
    grid = [table.row(0)]
    for i in table.data_row_indices():
        if i not in skip:
            grid.append(replacement.get(i, table.row(i)))
    return Table(grid)


def reference_purge(table, on, by):
    return _reference_transpose(reference_cleanup(_reference_transpose(table), by=by, on=on))


def reference_group(table, by, on):
    by_cols = [j for j in table.data_col_indices() if table.entry(0, j) in by]
    on_cols = [j for j in table.data_col_indices() if table.entry(0, j) in on]
    rest_cols = [j for j in table.data_col_indices() if j not in by_cols + on_cols]
    data_rows = list(table.data_row_indices())
    block_width = len(on_cols)
    header = [table.name] + [table.entry(0, j) for j in rest_cols]
    for _ in data_rows:
        header += [table.entry(0, j) for j in on_cols]
    grid = [header]
    for c in by_cols:
        row = [table.entry(0, c)] + [NULL] * len(rest_cols)
        for i in data_rows:
            row += [table.entry(i, c)] * block_width
        grid.append(row)
    for position, i in enumerate(data_rows):
        row = [table.entry(i, 0)] + [table.entry(i, j) for j in rest_cols]
        for block in range(len(data_rows)):
            if block == position:
                row += [table.entry(i, j) for j in on_cols]
            else:
                row += [NULL] * block_width
        grid.append(row)
    return Table(grid)


def _scheme(table):
    return frozenset(table.column_attributes)


def reference_deduplicate(table):
    return reference_cleanup(
        table, by=_scheme(table), on=frozenset(table.row_attributes) | {NULL}
    )


def reference_classical_union(rho, sigma):
    combined = union(rho, sigma)
    columns = reference_purge(combined, on=_scheme(combined) | {NULL}, by=frozenset())
    return reference_deduplicate(columns)


# ----------------------------------------------------------------------
# Inputs: ⊥-rich grids, repeated attributes, payloads equal across types
# ----------------------------------------------------------------------

ATTRS = [NULL, Name("A"), Name("B"), Name("C")]
NAN = Value(float("nan"))  # one object: equal to itself only by identity
ENTRIES = [
    NULL, NULL, NULL, NULL,
    Value(1), Value(1.0), Value(True), TaggedValue(1), Value("x"), Name("x"), NAN,
    with_prov(NULL, frozenset({CellRef(9, 0, 0)})),
    with_prov(NULL, frozenset({CellRef(9, 0, 1)})),
    with_prov(Value(1), frozenset({CellRef(9, 1, 0)})),
    with_prov(Value("x"), frozenset({CellRef(9, 1, 1)})),
]


@st.composite
def tables(draw, max_height=6, max_width=5):
    height = draw(st.integers(0, max_height))
    width = draw(st.integers(0, max_width))
    header = [Name("R")] + [draw(st.sampled_from(ATTRS)) for _ in range(width)]
    grid = [header]
    for _ in range(height):
        grid.append([draw(st.sampled_from(ATTRS))]
                    + [draw(st.sampled_from(ENTRIES)) for _ in range(width)])
    return Table(grid)


attr_sets = st.frozensets(st.sampled_from(ATTRS), max_size=3)


@st.composite
def relations(draw):
    """Part/Region/Sold facts with few distinct values (GROUP's input)."""
    parts = [Value("nuts"), Value("bolts"), Value(1), Value(True)]
    regions = [Value("east"), Value("west"), Value(1.0), NULL]
    solds = [Value(50), Value(50.0), Value(True), TaggedValue(50), NULL, NAN]
    facts = draw(st.lists(
        st.tuples(st.sampled_from(parts), st.sampled_from(regions), st.sampled_from(solds)),
        max_size=7,
    ))
    header = [Name("Sales"), Name("Part"), Name("Region"), Name("Sold")]
    return Table([header] + [[NULL, *fact] for fact in facts])


def _cells(table):
    return [[(type(entry), entry.prov) for entry in row] for row in table.grid]


def _assert_same(fast, reference):
    text = json.dumps(table_to_data(fast))
    assert text == json.dumps(table_to_data(reference))
    # A NaN equals only itself, by identity; lineage copies of one are
    # distinct objects.
    assert fast == reference or "NaN" in text
    assert _cells(fast) == _cells(reference)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@settings(max_examples=300)
@given(tables(), attr_sets, attr_sets)
def test_cleanup_equals_per_cell_definition(table, by, on):
    _assert_same(cleanup(table, by=by, on=on), reference_cleanup(table, by=by, on=on))


@settings(max_examples=300)
@given(tables(), attr_sets, attr_sets)
def test_purge_equals_per_cell_definition(table, on, by):
    _assert_same(purge(table, on=on, by=by), reference_purge(table, on=on, by=by))


@settings(max_examples=150)
@given(tables(), attr_sets, attr_sets)
def test_cleanup_and_purge_carry_the_same_lineage(table, by, on):
    with lineage() as lin:
        tagged = lin.tag_table(table)
        _assert_same(cleanup(tagged, by=by, on=on), reference_cleanup(tagged, by=by, on=on))
        _assert_same(purge(tagged, on=on, by=by), reference_purge(tagged, on=on, by=by))


@settings(max_examples=200)
@given(tables())
def test_deduplicate_equals_per_cell_definition(table):
    _assert_same(deduplicate(table), reference_deduplicate(table))
    with lineage() as lin:
        tagged = lin.tag_table(table)
        _assert_same(deduplicate(tagged), reference_deduplicate(tagged))


@settings(max_examples=150)
@given(tables(max_height=4, max_width=3), tables(max_height=4, max_width=3))
def test_classical_union_equals_per_cell_definition(rho, sigma):
    _assert_same(classical_union(rho, sigma), reference_classical_union(rho, sigma))
    combined = union(rho, sigma)
    _assert_same(
        deduplicate_columns(combined),
        reference_purge(combined, on=_scheme(combined) | {NULL}, by=frozenset()),
    )


@st.composite
def group_arguments(draw):
    """A table and disjoint, non-empty 𝒜 and ℬ drawn from its attributes."""
    header = draw(st.lists(st.sampled_from(ATTRS), min_size=2, max_size=5)
                  .filter(lambda attrs: len(set(attrs)) >= 2))
    grid = [[Name("R"), *header]]
    for _ in range(draw(st.integers(0, 6))):
        grid.append([draw(st.sampled_from(ATTRS))]
                    + [draw(st.sampled_from(ENTRIES)) for _ in header])
    attrs = draw(st.permutations(sorted(set(header), key=repr)))
    split = draw(st.integers(1, len(attrs) - 1))
    stop = draw(st.integers(split + 1, len(attrs)))
    return Table(grid), frozenset(attrs[:split]), frozenset(attrs[split:stop])


@settings(max_examples=200)
@given(group_arguments())
def test_group_equals_per_cell_definition(arguments):
    table, by, on = arguments
    _assert_same(group(table, by=by, on=on), reference_group(table, by=by, on=on))
    with lineage() as lin:
        tagged = lin.tag_table(table)
        _assert_same(group(tagged, by=by, on=on), reference_group(tagged, by=by, on=on))


def _assert_pivot_steps_same(sales):
    by, on = {Name("Region")}, {Name("Sold")}
    grouped = group(sales, by=by, on=on)
    _assert_same(grouped, reference_group(sales, by=by, on=on))
    cleaned = cleanup(grouped, by={Name("Part")}, on={NULL})
    _assert_same(cleaned, reference_cleanup(grouped, by={Name("Part")}, on={NULL}))
    _assert_same(purge(cleaned, on=on, by=by), reference_purge(cleaned, on=on, by=by))


@settings(max_examples=150)
@given(relations())
def test_pivot_chain_equals_per_cell_definition(sales):
    """GROUP → CLEAN-UP → PURGE, the restructure program, step by step."""
    _assert_pivot_steps_same(sales)
    with lineage() as lin:
        _assert_pivot_steps_same(lin.tag_table(sales))


def test_an_entry_unequal_to_itself_still_conflicts():
    # Two rows sharing one NaN object agree by identity only; the
    # per-entry rule compares values and keeps them apart.
    table = Table([[Name("R"), Name("K"), Name("X")], [NULL, Value(1), NAN], [NULL, Value(1), NAN]])
    assert cleanup(table, by={Name("K")}, on={NULL}).height == 2
    assert reference_cleanup(table, by={Name("K")}, on={NULL}).height == 2


# ----------------------------------------------------------------------
# The grid check keeps its errors
# ----------------------------------------------------------------------

BAD_ENTRIES = [1, "x", None, 1.0, (NULL,)]


@settings(max_examples=300)
@given(tables(), st.data())
def test_grid_check_raises_the_per_entry_text(table, data):
    Table(table.grid)  # every type of this grid is known to the check now
    grid = [list(row) for row in table.grid]
    i = data.draw(st.integers(0, len(grid) - 1))
    fault = data.draw(st.sampled_from(["entry", "short", "long"]))
    if fault == "entry":
        j = data.draw(st.integers(0, len(grid[i]) - 1))
        grid[i][j] = data.draw(st.sampled_from(BAD_ENTRIES))
    elif fault == "short":
        grid[i] = grid[i][:-1]
    else:
        grid[i] = grid[i] + [NULL]
    expected = _reference_freeze(grid)
    if expected is None:  # resizing the only row leaves a table
        assert Table(grid).grid == tuple(map(tuple, grid))
        return
    with pytest.raises(SchemaError) as caught:
        Table(grid)
    assert str(caught.value) == expected


def test_only_symbol_types_join_the_known_types():
    class Impostor:
        __class__ = Value  # passes isinstance(·, Symbol) without being one

    impostor = Impostor()
    table = Table([[Name("R"), Value(1)], [NULL, impostor]])
    assert table.entry(1, 1) is impostor
    assert Impostor not in _SYMBOL_TYPES
    assert {Name, Value, type(NULL)} <= _SYMBOL_TYPES
    for _ in range(2):  # a rejected entry is rejected every time
        with pytest.raises(SchemaError, match=r"grid entry \(1,1\) is 1, not a Symbol"):
            Table([[Name("R"), Value(1)], [NULL, 1]])


def test_transpose_is_the_checked_transpose():
    table = Table([[Name("R"), Name("A")], [NULL, Value(1)], [Name("u"), NAN]])
    _assert_same(table.transpose(), _reference_transpose(table))
    _assert_same(table.transpose().transpose(), table)
