"""Summarization — regenerating the Figure 1 summary data from the cube.

The paper's motivating example: summary data (per-part totals, per-region
totals, the grand total 420) "can come from, e.g., OLAP tools"; the
relational model is *forced* to keep it in separate relations, while the
tabular representations absorb it in place.  This module computes both
forms from a two-dimensional cube via roll-up and the cube operator:

* :func:`summary_relations` — the separate ``TotalPartSales`` /
  ``TotalRegionSales`` / ``GrandTotal`` relations of ``SalesInfo1``;
* :func:`grouped_with_totals` — ``SalesInfo2``'s single table with the
  extra ``Sold``/Total column and ``Total`` row;
* :func:`matrix_with_totals` — ``SalesInfo3`` with Total row and column;
* :func:`database_with_totals` — ``SalesInfo4`` with per-table ``Total``
  rows plus the extra table for the literal ``Total`` region.

Each output is validated in the test-suite against the *printed* figure.
"""

from __future__ import annotations

from typing import Callable

from ..core import (
    NULL,
    Name,
    SchemaError,
    Symbol,
    Table,
    TabularDatabase,
)
from .aggregates import agg_sum
from .bridge import cube_to_matrix_table
from .cube import Cube
from .operations import TOTAL, cube_operator

__all__ = [
    "summary_relations",
    "grouped_with_totals",
    "matrix_with_totals",
    "database_with_totals",
]


def _require_2d(cube: Cube) -> None:
    if cube.arity != 2:
        raise SchemaError(f"summaries are defined on 2-d cubes, got {cube.arity}-d")


def summary_relations(
    cube: Cube, agg: Callable = agg_sum, total_attr: str = "Total"
) -> TabularDatabase:
    """The separate summary relations of ``SalesInfo1``.

    For a cube over dimensions (D1, D2): ``TotalD1<measure-relation>``
    style naming follows the figure — ``Total<dim><measure>s`` is overly
    clever, so the figure's own names are used for the sales dimensions
    and a generic ``Total<dim>`` otherwise.
    """
    _require_2d(cube)
    tables = []
    for dim in cube.dims:
        other = next(d for d in cube.dims if d != dim)
        rolled = cube.rollup(other, agg)
        rel_name = _summary_name(dim, cube.measure)
        header: list[Symbol] = [Name(rel_name), Name(dim), Name(total_attr)]
        grid = [header]
        for coordinate in rolled.coords[dim]:
            value = rolled[(coordinate,)]
            if not value.is_null:
                grid.append([NULL, coordinate, value])
        tables.append(Table(grid))
    grand = Table(
        [
            [Name("GrandTotal"), Name(total_attr)],
            [NULL, cube.total(agg)],
        ]
    )
    tables.append(grand)
    return TabularDatabase(tables)


def _summary_name(dim: str, measure: str) -> str:
    # the figure names them TotalPartSales / TotalRegionSales
    if measure == "Sold":
        return f"Total{dim}Sales"
    return f"Total{dim}{measure}"


def grouped_with_totals(
    cube: Cube,
    row_dim: str,
    col_dim: str,
    name: str = "Facts",
    agg: Callable = agg_sum,
) -> Table:
    """``SalesInfo2`` with its summary column and row, from the cube operator."""
    _require_2d(cube)
    extended = cube_operator(cube, agg)
    # Build the grouped shape for the extended coordinate lists directly:
    # one measure column per col_dim coordinate (Total last), one data row
    # per row_dim coordinate plus the Total row.
    rows = extended.coords[row_dim]
    cols = extended.coords[col_dim]
    row_index = extended.dim_index(row_dim)
    measure = Name(cube.measure)
    header: list[Symbol] = [Name(name), Name(row_dim)] + [measure] * len(cols)
    coord_row: list[Symbol] = [Name(col_dim), NULL] + list(cols)
    grid = [header, coord_row]
    for r in rows:
        attr: Symbol = r if r == TOTAL else NULL
        value_cell: Symbol = NULL if r == TOTAL else r
        line: list[Symbol] = [attr, value_cell]
        for c in cols:
            key = (r, c) if row_index == 0 else (c, r)
            line.append(extended[key])
        grid.append(line)
    return Table(grid)


def matrix_with_totals(
    cube: Cube,
    row_dim: str,
    col_dim: str,
    name: str = "Facts",
    agg: Callable = agg_sum,
) -> Table:
    """``SalesInfo3`` with its Total row and column, from the cube operator."""
    _require_2d(cube)
    extended = cube_operator(cube, agg)
    return cube_to_matrix_table(extended, row_dim, col_dim, name)


def database_with_totals(
    cube: Cube,
    split_dim: str,
    name: str = "Facts",
    agg: Callable = agg_sum,
) -> TabularDatabase:
    """``SalesInfo4`` with per-table Total rows and the Total-region table."""
    _require_2d(cube)
    other = next(d for d in cube.dims if d != split_dim)
    extended = cube_operator(cube, agg)
    split_index = extended.dim_index(split_dim)
    measure = Name(cube.measure)
    tables = []
    for coordinate in extended.coords[split_dim]:
        grid: list[list[Symbol]] = [
            [Name(name), Name(other), measure],
            [Name(split_dim), coordinate, coordinate],
        ]
        for other_coord in extended.coords[other]:
            key = (
                (coordinate, other_coord)
                if split_index == 0
                else (other_coord, coordinate)
            )
            value = extended[key]
            if value.is_null:
                continue
            if other_coord == TOTAL:
                grid.append([TOTAL, NULL, value])
            else:
                grid.append([NULL, other_coord, value])
        tables.append(Table(grid))
    return TabularDatabase(tables)
