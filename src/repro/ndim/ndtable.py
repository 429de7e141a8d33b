"""n-dimensional tables (paper, Sections 4.3 and 5).

"The tabular model and language, studied for two dimensions in this
paper, can be easily generalized to n dimensions."  The generalization:
an n-dimensional table is a total mapping from the Cartesian product of n
initial segments of the naturals into 𝒮.  Position ``(0, …, 0)`` holds
the table name; the *axis-k attribute hyperplane* is the set of positions
that are 0 everywhere except along axis k — the direct analogue of the
attribute row and attribute column — and all-positive positions are data.

For n = 2 an :class:`NDTable` is exactly a :class:`~repro.core.Table`
(round-trip converters below); for n = 3 it is the "three-dimensional
table" the paper identifies a tabular *database* with; and the OLAP cube
of :mod:`repro.olap` is the special case whose attribute hyperplanes hold
coordinate values and whose name cell holds the measure name.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Iterator, Mapping, Sequence

from ..core import NULL, SchemaError, Symbol, Table, coerce_symbol

__all__ = ["NDTable"]

Position = tuple[int, ...]


class NDTable:
    """An immutable n-dimensional table of symbols.

    ``shape`` gives the extent per axis (``shape[k] = m_k + 1``, counting
    position 0); entries default to ⊥, so construction takes a sparse
    mapping from positions to symbols.
    """

    __slots__ = ("shape", "_cells")

    def __init__(self, shape: Sequence[int], cells: Mapping[Position, object] = ()):
        shape_tuple = tuple(int(s) for s in shape)
        if len(shape_tuple) < 1 or any(s < 1 for s in shape_tuple):
            raise SchemaError(f"invalid shape {shape_tuple}: every axis needs extent >= 1")
        store: dict[Position, Symbol] = {}
        items = cells.items() if isinstance(cells, Mapping) else cells
        for position, value in items:
            pos = tuple(int(i) for i in position)
            if len(pos) != len(shape_tuple) or any(
                not 0 <= i < s for i, s in zip(pos, shape_tuple)
            ):
                raise SchemaError(f"position {pos} outside shape {shape_tuple}")
            symbol = coerce_symbol(value)
            if not symbol.is_null:
                store[pos] = symbol
        object.__setattr__(self, "shape", shape_tuple)
        object.__setattr__(self, "_cells", store)

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("NDTable is immutable")

    # ------------------------------------------------------------------
    # Shape and access
    # ------------------------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of axes (the paper's n)."""
        return len(self.shape)

    @property
    def name(self) -> Symbol:
        """The table name at the all-zero position."""
        return self[(0,) * self.arity]

    def __getitem__(self, position: Position) -> Symbol:
        pos = tuple(int(i) for i in position)
        if len(pos) != self.arity or any(
            not 0 <= i < s for i, s in zip(pos, self.shape)
        ):
            raise SchemaError(f"position {pos} outside shape {self.shape}")
        return self._cells.get(pos, NULL)

    def attributes(self, axis: int) -> tuple[Symbol, ...]:
        """The axis-``axis`` attribute hyperplane (indices 1…)."""
        self._check_axis(axis)
        out = []
        for i in range(1, self.shape[axis]):
            position = tuple(i if k == axis else 0 for k in range(self.arity))
            out.append(self[position])
        return tuple(out)

    def data_positions(self) -> Iterator[Position]:
        """All-positive positions, in lexicographic order."""
        ranges = [range(1, s) for s in self.shape]
        yield from iter_product(*ranges)

    def data(self) -> dict[Position, Symbol]:
        """The non-⊥ data entries."""
        return {
            pos: sym for pos, sym in self._cells.items() if all(i > 0 for i in pos)
        }

    def _check_axis(self, axis: int) -> None:
        if not 0 <= axis < self.arity:
            raise SchemaError(f"axis {axis} out of range for arity {self.arity}")

    def symbols(self) -> frozenset[Symbol]:
        return frozenset(self._cells.values()) | {NULL}

    # ------------------------------------------------------------------
    # Operations (the n-dimensional analogues)
    # ------------------------------------------------------------------

    def permute_axes(self, order: Sequence[int]) -> "NDTable":
        """Generalized transposition: reorder the axes."""
        perm = tuple(order)
        if sorted(perm) != list(range(self.arity)):
            raise SchemaError(f"{perm} is not a permutation of the {self.arity} axes")
        shape = tuple(self.shape[k] for k in perm)
        cells = {
            tuple(pos[k] for k in perm): sym for pos, sym in self._cells.items()
        }
        return NDTable(shape, cells)

    def slice_axis(self, axis: int, index: int) -> "NDTable":
        """Fix one axis at a data index; the result drops that axis.

        The sliced-out coordinate's attribute becomes unavailable, exactly
        like slicing a cube; index 0 (the attribute hyperplane) cannot be
        sliced away.
        """
        self._check_axis(axis)
        if not 1 <= index < self.shape[axis]:
            raise SchemaError(f"index {index} not a data index of axis {axis}")
        if self.arity == 1:
            raise SchemaError("cannot slice a one-dimensional table away")
        shape = tuple(s for k, s in enumerate(self.shape) if k != axis)
        cells: dict[Position, Symbol] = {}
        # data positions of the result read the slice; hyperplane positions
        # (any zero coordinate, including the name) read the source's
        # hyperplanes, which live at axis-coordinate 0.
        for reduced in iter_product(*[range(s) for s in shape]):
            coordinate = index if all(i > 0 for i in reduced) else 0
            source = reduced[:axis] + (coordinate,) + reduced[axis:]
            symbol = self[source]
            if not symbol.is_null:
                cells[reduced] = symbol
        return NDTable(shape, cells)

    def subtable(self, selections: Sequence[Sequence[int]]) -> "NDTable":
        """The n-dimensional τ_I^J: one index sequence per axis."""
        if len(selections) != self.arity:
            raise SchemaError(f"need {self.arity} index sequences")
        chosen = [list(sel) for sel in selections]
        for axis, sel in enumerate(chosen):
            for i in sel:
                if not 0 <= i < self.shape[axis]:
                    raise SchemaError(f"index {i} outside axis {axis}")
        shape = tuple(len(sel) for sel in chosen)
        cells = {}
        for new_pos in iter_product(*[range(len(sel)) for sel in chosen]):
            old_pos = tuple(chosen[k][i] for k, i in enumerate(new_pos))
            sym = self[old_pos]
            if not sym.is_null:
                cells[new_pos] = sym
        return NDTable(shape, cells)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_table(cls, table: Table) -> "NDTable":
        """The 2-dimensional case is the ordinary tabular model."""
        cells = {
            (i, j): table.entry(i, j)
            for i in range(table.nrows)
            for j in range(table.ncols)
        }
        return cls((table.nrows, table.ncols), cells)

    def to_table(self) -> Table:
        """Back to an ordinary table (arity 2 only)."""
        if self.arity != 2:
            raise SchemaError(f"to_table needs arity 2, have {self.arity}")
        rows, cols = self.shape
        return Table(
            [[self[(i, j)] for j in range(cols)] for i in range(rows)]
        )

    def slices_to_tables(self, axis: int) -> tuple[Table, ...]:
        """A 3-d table as a set of 2-d tables — "a tabular database can be
        thought of as a three-dimensional table", read in reverse."""
        if self.arity != 3:
            raise SchemaError(f"slices_to_tables needs arity 3, have {self.arity}")
        self._check_axis(axis)
        return tuple(
            self.slice_axis(axis, index).to_table()
            for index in range(1, self.shape[axis])
        )

    # ------------------------------------------------------------------
    # Equality
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NDTable)
            and other.shape == self.shape
            and other._cells == self._cells
        )

    def __hash__(self) -> int:
        return hash((self.shape, frozenset(self._cells.items())))

    def __repr__(self) -> str:
        shape = "x".join(str(s) for s in self.shape)
        return f"NDTable({shape}; {len(self._cells)} entries)"
