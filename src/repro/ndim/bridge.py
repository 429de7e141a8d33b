"""Bridges between n-dimensional tables and OLAP cubes.

A cube is exactly an n-dimensional table whose attribute hyperplanes hold
the coordinate values and whose name cell holds the measure name — the
"natural fit between (2- or n-dimensional) tables and OLAP matrices" of
Section 4.3, at full generality.
"""

from __future__ import annotations

from ..core import Name, SchemaError, Symbol
from ..obs import events as _ev
from ..olap import Cube
from .ndtable import NDTable

__all__ = ["cube_to_ndtable", "ndtable_to_cube"]


def cube_to_ndtable(cube: Cube) -> NDTable:
    """Materialize a cube as an n-dimensional table.

    Axis k's attribute hyperplane lists dimension k's coordinates; the
    name cell holds the measure name; data cells hold the measure values
    (⊥ where inapplicable).

    Requires arity ≥ 2: in a one-dimensional table every nonzero position
    is simultaneously attribute hyperplane *and* data, so coordinates and
    values would collide (the same degeneracy that makes a width-0 table
    carry no data in the 2-d model).
    """
    if cube.arity < 2:
        raise SchemaError(
            "one-dimensional cubes have no faithful NDTable embedding "
            "(attribute and data positions coincide)"
        )
    with (_ev.Boundary("bridge.cube_to_ndtable", arity=cube.arity, cells=len(cube.cells)) if _ev.EVT.active else _ev.NO_BOUNDARY):
        return _cube_to_ndtable(cube)


def _cube_to_ndtable(cube: Cube) -> NDTable:
    shape = tuple(len(cube.coords[d]) + 1 for d in cube.dims)
    cells: dict[tuple[int, ...], Symbol] = {
        (0,) * cube.arity: Name(cube.measure)
    }
    positions: dict[str, dict[Symbol, int]] = {}
    for axis, dim in enumerate(cube.dims):
        positions[dim] = {}
        for index, coordinate in enumerate(cube.coords[dim], start=1):
            positions[dim][coordinate] = index
            hyper = tuple(index if k == axis else 0 for k in range(cube.arity))
            cells[hyper] = coordinate
    for key, value in cube.cells.items():
        cells[tuple(positions[d][c] for d, c in zip(cube.dims, key))] = value
    return NDTable(shape, cells)


def ndtable_to_cube(table: NDTable, dims: tuple[str, ...] | None = None) -> Cube:
    """Read a cube back out of an n-dimensional table.

    ``dims`` names the dimensions (defaults to ``D0 … Dn-1``); the measure
    name comes from the table's name cell (``Value`` when it is not a
    name).  Attribute hyperplane entries must be distinct per axis.
    """
    if table.arity < 2:
        raise SchemaError(
            "one-dimensional tables carry no separable data region "
            "(attribute and data positions coincide)"
        )
    with (_ev.Boundary("bridge.ndtable_to_cube", arity=table.arity) if _ev.EVT.active else _ev.NO_BOUNDARY):
        return _ndtable_to_cube(table, dims)


def _ndtable_to_cube(table: NDTable, dims: tuple[str, ...] | None = None) -> Cube:
    names = dims if dims is not None else tuple(f"D{k}" for k in range(table.arity))
    if len(names) != table.arity:
        raise SchemaError(f"{len(names)} dimension names for arity {table.arity}")
    coords = {}
    for axis, dim in enumerate(names):
        attributes = table.attributes(axis)
        if len(set(attributes)) != len(attributes):
            raise SchemaError(f"axis {axis} attributes are not distinct")
        coords[dim] = attributes
    cells = {}
    for position in table.data_positions():
        value = table[position]
        if not value.is_null:
            key = tuple(
                coords[dim][index - 1] for dim, index in zip(names, position)
            )
            cells[key] = value
    measure = table.name.text if isinstance(table.name, Name) else "Value"
    return Cube(names, coords, cells, measure)
