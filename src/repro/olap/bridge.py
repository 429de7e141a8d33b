"""Bridges between cubes and tabular databases (paper, Section 4.3).

"Because of the natural fit between (2- or n-dimensional) tables and OLAP
matrices, tabular algebra can be used as a fundamental querying and
restructuring language for OLAP technology."  This module realizes the
fit: every ``SalesInfo`` shape of Figure 1 is one bridge away from the
cube —

* :func:`cube_to_relation_table` — the relational shape (``SalesInfo1``);
* :func:`cube_to_grouped_table` — one measure column per coordinate
  (``SalesInfo2``), computed **through the tabular algebra** (GROUP +
  CLEAN-UP + PURGE), demonstrating pivot = tabular restructuring;
* :func:`cube_to_matrix_table` — coordinates as attributes
  (``SalesInfo3``);
* :func:`cube_to_database` — one table per coordinate of a dimension
  (``SalesInfo4``), computed through the tabular SPLIT;
* :func:`matrix_table_to_cube` / :func:`relation_table_to_cube` — back.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..algebra import group_compact, split
from ..core import (
    NULL,
    Name,
    SchemaError,
    Symbol,
    Table,
    TabularDatabase,
)
from ..obs import events as _ev
from .cube import Cube

__all__ = [
    "cube_to_relation_table",
    "cube_to_grouped_table",
    "cube_to_matrix_table",
    "cube_to_database",
    "relation_table_to_cube",
    "matrix_table_to_cube",
]


def cube_to_relation_table(cube: Cube, name: str = "Facts") -> Table:
    """The relation-style fact table: one row per applicable cell."""
    with (_ev.Boundary("bridge.cube_to_relation_table", cells=len(cube.cells)) if _ev.EVT.active else _ev.NO_BOUNDARY):
        header: list[Symbol] = [Name(name)]
        header += [Name(d) for d in cube.dims]
        header.append(Name(cube.measure))
        grid = [header]
        for key in _ordered_keys(cube):
            grid.append([NULL, *key, cube.cells[key]])
        return Table(grid)


def _ordered_keys(cube: Cube) -> list[tuple[Symbol, ...]]:
    """Cell keys in dimension-coordinate order (deterministic)."""
    positions = {
        dim: {c: i for i, c in enumerate(cube.coords[dim])} for dim in cube.dims
    }

    def rank(key: tuple[Symbol, ...]) -> tuple[int, ...]:
        return tuple(positions[d][c] for d, c in zip(cube.dims, key))

    return sorted(cube.cells, key=rank)


def cube_to_grouped_table(
    cube: Cube, row_dim: str, col_dim: str, name: str = "Facts"
) -> Table:
    """The ``SalesInfo2`` shape, via the tabular algebra.

    Pivot *is* restructuring: the grouped table is
    ``GROUPCOMPACT by col_dim on measure`` applied to the relation-style
    fact table.  Only defined for two-dimensional cubes.
    """
    if cube.dims != (row_dim, col_dim) and cube.dims != (col_dim, row_dim):
        raise SchemaError(
            f"grouped bridge needs exactly the dimensions {(row_dim, col_dim)}, "
            f"cube has {cube.dims}"
        )
    with (_ev.Boundary("bridge.cube_to_grouped_table", row_dim=row_dim, col_dim=col_dim) if _ev.EVT.active else _ev.NO_BOUNDARY):
        relation = cube_to_relation_table(cube, name)
        return group_compact(relation, by=col_dim, on=cube.measure)


def cube_to_matrix_table(
    cube: Cube, row_dim: str, col_dim: str, name: str = "Facts"
) -> Table:
    """The ``SalesInfo3`` shape: coordinates as row/column attributes."""
    if set(cube.dims) != {row_dim, col_dim}:
        raise SchemaError(
            f"matrix bridge needs exactly the dimensions {(row_dim, col_dim)}, "
            f"cube has {cube.dims}"
        )
    rows = cube.coords[row_dim]
    cols = cube.coords[col_dim]
    row_index = cube.dim_index(row_dim)
    grid: list[list[Symbol]] = [[Name(name), *cols]]
    for r in rows:
        line: list[Symbol] = [r]
        for c in cols:
            key = (r, c) if row_index == 0 else (c, r)
            line.append(cube[key])
        grid.append(line)
    return Table(grid)


def cube_to_database(
    cube: Cube, split_dim: str, name: str = "Facts"
) -> TabularDatabase:
    """The ``SalesInfo4`` shape: one table per ``split_dim`` coordinate.

    Computed through the tabular SPLIT on the relation-style fact table —
    the paper's own route from the relational to the per-region shape.
    """
    with (_ev.Boundary("bridge.cube_to_database", split_dim=split_dim) if _ev.EVT.active else _ev.NO_BOUNDARY):
        relation = cube_to_relation_table(cube, name)
        return TabularDatabase(split(relation, on=split_dim))


def relation_table_to_cube(
    table: Table,
    dims: Sequence[str],
    measure: str,
    combine: Callable | None = None,
) -> Cube:
    """Read a cube out of a relation-style fact table."""
    with (_ev.Boundary("bridge.relation_table_to_cube", rows=table.height) if _ev.EVT.active else _ev.NO_BOUNDARY):
        return _relation_table_to_cube(table, dims, measure, combine)


def _relation_table_to_cube(
    table: Table,
    dims: Sequence[str],
    measure: str,
    combine: Callable | None = None,
) -> Cube:
    dim_cols = []
    for dim in dims:
        columns = table.columns_named(Name(dim))
        if len(columns) != 1:
            raise SchemaError(f"need exactly one column named {dim!r}")
        dim_cols.append(columns[0])
    measure_cols = table.columns_named(Name(measure))
    if len(measure_cols) != 1:
        raise SchemaError(f"need exactly one column named {measure!r}")
    facts = []
    for i in table.data_row_indices():
        facts.append(
            tuple(table.entry(i, j) for j in dim_cols)
            + (table.entry(i, measure_cols[0]),)
        )
    return Cube.from_facts(facts, dims, measure, combine)


def matrix_table_to_cube(
    table: Table, row_dim: str, col_dim: str, measure: str = "Value"
) -> Cube:
    """Read a cube out of a ``SalesInfo3``-shaped matrix table."""
    with (_ev.Boundary("bridge.matrix_table_to_cube", rows=table.height, cols=table.width) if _ev.EVT.active else _ev.NO_BOUNDARY):
        return _matrix_table_to_cube(table, row_dim, col_dim, measure)


def _matrix_table_to_cube(
    table: Table, row_dim: str, col_dim: str, measure: str = "Value"
) -> Cube:
    rows = table.row_attributes
    cols = table.column_attributes
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise SchemaError("matrix tables need distinct row and column attributes")
    cells = {}
    for i in table.data_row_indices():
        for j in table.data_col_indices():
            entry = table.entry(i, j)
            if not entry.is_null:
                cells[(table.entry(i, 0), table.entry(0, j))] = entry
    return Cube(
        (row_dim, col_dim), {row_dim: rows, col_dim: cols}, cells, measure
    )
