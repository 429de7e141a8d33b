"""Spreadsheet-style analytics on tables (the paper's OLTP/OLAP bridge).

The introduction's motivation: integrating database systems with
spreadsheets, which "have several powerful analytical functions built into
them.  Examples include row and column arithmetic, generalized aggregation
on arbitrary blocks of values drawn from tables, and the ability to invoke
external functions."  This module provides exactly those three families on
tabular-model tables:

* :func:`block` / :func:`block_aggregate` — rectangular regions and
  aggregation over them;
* :func:`row_arithmetic` / :func:`column_arithmetic` — derived
  rows/columns computed from existing ones;
* :func:`apply_external` — arbitrary Python functions over one column's
  values.

These functions intentionally step outside the generic tabular algebra —
they distinguish individual values, exactly like a spreadsheet formula —
which is why they live in the OLAP layer rather than in
:mod:`repro.algebra`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core import (
    NULL,
    EvaluationError,
    Name,
    SchemaError,
    Symbol,
    Table,
    Value,
    coerce_symbol,
)
from .aggregates import aggregate

__all__ = [
    "block",
    "block_aggregate",
    "row_arithmetic",
    "column_arithmetic",
    "apply_external",
    "append_aggregate_row",
    "append_aggregate_column",
]


def block(
    table: Table,
    rows: Sequence[int] | None = None,
    cols: Sequence[int] | None = None,
) -> list[Symbol]:
    """The values of a rectangular block (default: the whole data region)."""
    row_range = list(rows) if rows is not None else list(table.data_row_indices())
    col_range = list(cols) if cols is not None else list(table.data_col_indices())
    for i in row_range:
        if not 1 <= i < table.nrows:
            raise SchemaError(f"block row {i} out of data range")
    for j in col_range:
        if not 1 <= j < table.ncols:
            raise SchemaError(f"block column {j} out of data range")
    return [table.entry(i, j) for i in row_range for j in col_range]


def block_aggregate(
    table: Table,
    agg: str,
    rows: Sequence[int] | None = None,
    cols: Sequence[int] | None = None,
) -> Symbol:
    """Generalized aggregation over an arbitrary block of values."""
    return aggregate(agg, block(table, rows, cols))


def _payload(symbol: Symbol):
    if symbol.is_null:
        return None
    if isinstance(symbol, Value):
        return symbol.payload
    raise EvaluationError(f"arithmetic over the name {symbol!s} is undefined")


def row_arithmetic(
    table: Table,
    target: str,
    fn: Callable,
    sources: Sequence[str],
) -> Table:
    """Append a column computed row-wise from existing columns.

    ``fn`` receives one payload per source attribute (``None`` for ⊥) and
    returns a payload (or ``None`` for ⊥).  Each source attribute must
    name exactly one column.
    """
    source_cols = []
    for attr in sources:
        columns = table.columns_named(Name(attr))
        if len(columns) != 1:
            raise EvaluationError(
                f"row arithmetic needs exactly one column named {attr!r}, "
                f"found {len(columns)}"
            )
        source_cols.append(columns[0])
    column: list[Symbol] = [Name(target)]
    for i in table.data_row_indices():
        result = fn(*(_payload(table.entry(i, j)) for j in source_cols))
        column.append(coerce_symbol(result))
    return table.append_columns([column])


def column_arithmetic(
    table: Table,
    target: str,
    fn: Callable,
    sources: Sequence[str],
) -> Table:
    """Append a row computed column-wise from existing rows (the dual).

    Source attributes name *row* attributes; each must name exactly one
    row.  The new row's attribute is ``target``.
    """
    source_rows = []
    for attr in sources:
        rows = table.rows_named(Name(attr))
        if len(rows) != 1:
            raise EvaluationError(
                f"column arithmetic needs exactly one row named {attr!r}, "
                f"found {len(rows)}"
            )
        source_rows.append(rows[0])
    new_row: list[Symbol] = [Name(target)]
    for j in table.data_col_indices():
        result = fn(*(_payload(table.entry(i, j)) for i in source_rows))
        new_row.append(coerce_symbol(result))
    return table.append_rows([new_row])


def apply_external(table: Table, attr: str, fn: Callable) -> Table:
    """Invoke an external function over one column's values, in place.

    ⊥ entries pass through untouched; others are replaced by
    ``fn(payload)`` (coerced back to a symbol).
    """
    columns = table.columns_named(Name(attr))
    if len(columns) != 1:
        raise EvaluationError(
            f"external application needs exactly one column named {attr!r}, "
            f"found {len(columns)}"
        )
    target = columns[0]
    out = table
    for i in table.data_row_indices():
        entry = table.entry(i, target)
        if entry.is_null:
            continue
        out = out.with_entry(i, target, coerce_symbol(fn(_payload(entry))))
    return out


def append_aggregate_row(
    table: Table,
    agg: str,
    row_attr: str = "Total",
    attrs: Sequence[str] | None = None,
    over_rows: Sequence[str | None] | None = None,
) -> Table:
    """Append a summary row aggregating each data column.

    With ``attrs``, only columns carrying those attributes aggregate; the
    rest hold ⊥ (like the ⊥ under ``Part`` in ``SalesInfo2``'s Total row).
    With ``over_rows``, only entries from rows carrying those row
    attributes enter the aggregate — pass ``[None]`` to sum the plain data
    rows of a grouped table while skipping its Region-style header rows.
    ``None`` stands for the ⊥ attribute in both filters.
    """
    from ..core import attr_symbol

    wanted = {attr_symbol(a) for a in attrs} if attrs is not None else None
    row_filter = (
        {attr_symbol(a) for a in over_rows} if over_rows is not None else None
    )
    rows = [
        i
        for i in table.data_row_indices()
        if row_filter is None or table.entry(i, 0) in row_filter
    ]
    new_row: list[Symbol] = [Name(row_attr)]
    for j in table.data_col_indices():
        if wanted is not None and table.entry(0, j) not in wanted:
            new_row.append(NULL)
        else:
            new_row.append(aggregate(agg, (table.entry(i, j) for i in rows)))
    return table.append_rows([new_row])


def append_aggregate_column(
    table: Table, agg: str, col_attr: str, attrs: Sequence[str] | None = None
) -> Table:
    """Append a summary column aggregating each data row (the dual).

    With ``attrs``, only rows carrying those row attributes aggregate; the
    rest hold ⊥ (like the Region header row in ``SalesInfo2``).  ``None``
    inside ``attrs`` stands for the ⊥ attribute.
    """
    from ..core import attr_symbol

    wanted = {attr_symbol(a) for a in attrs} if attrs is not None else None
    column: list[Symbol] = [Name(col_attr)]
    for i in table.data_row_indices():
        if wanted is not None and table.entry(i, 0) not in wanted:
            column.append(NULL)
        else:
            column.append(aggregate(agg, table.data_row(i)))
    return table.append_columns([column])
