"""Symbol interning and the id-column table representation.

The naive operations walk ``(m+1) × (n+1)`` grids of :class:`Symbol`
objects; every comparison pays Python-level ``__eq__``/``__hash__``
(a ``Name`` hashes a ``(type, text)`` tuple per call).  The vectorized
kernels instead work over an :class:`IdTable`: the same four-region
table with every symbol replaced by a small integer id from one
:class:`SymbolInterner`.  Two ids are equal iff the symbols are equal,
⊥ is always id 0 (so "non-null" is plain truthiness), and row/column
operations become tuple-of-int manipulations that hash and compare at C
speed.

Tables are immutable, so interning is cached per *object*: the interner
keeps an ``id(table)``-keyed map validated (and evicted) through weak
references — a table produced by one kernel re-enters the next kernel
without touching its symbols again.  ``materialize`` registers its
output in the same cache, which is what makes multi-statement pipelines
pay the symbol-level costs only at the engine boundary.

Interning canonicalizes equal symbols to one representative object
(e.g. two equal ``Name("A")`` instances share an id).  Grids built from
ids are therefore equal — cell by cell under ``Symbol.__eq__`` — to the
naive results, which is the equivalence the differential harness pins.
"""

from __future__ import annotations

import weakref
from typing import Sequence

from ..core import NULL, Symbol, Table

__all__ = ["IdTable", "SymbolInterner"]


class IdTable:
    """One table as integer ids: name, attribute regions, and id-columns.

    ``cols[j]`` holds data column ``j+1`` top to bottom (no attribute
    slot); ``rows`` is the cached row-major view kernels use for
    hashing whole rows.  Ids refer to the owning interner's symbol
    list; 0 is always ⊥.
    """

    __slots__ = ("name", "col_attrs", "row_attrs", "cols", "_rows")

    def __init__(
        self,
        name: int,
        col_attrs: tuple[int, ...],
        row_attrs: tuple[int, ...],
        cols: tuple[tuple[int, ...], ...] | None = None,
        rows: tuple[tuple[int, ...], ...] | None = None,
    ):
        if cols is None:
            if rows is None:
                raise ValueError("IdTable needs cols or rows")
            cols = tuple(zip(*rows)) if rows else ()
            if not cols:
                cols = tuple(() for _ in col_attrs)
        self.name = name
        self.col_attrs = col_attrs
        self.row_attrs = row_attrs
        self.cols = cols
        self._rows = rows

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Row-major data ids (computed once from the columns)."""
        if self._rows is None:
            if self.cols and self.row_attrs:
                self._rows = tuple(zip(*self.cols))
            else:
                self._rows = tuple(() for _ in self.row_attrs)
        return self._rows

    @property
    def height(self) -> int:
        return len(self.row_attrs)

    @property
    def width(self) -> int:
        return len(self.col_attrs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IdTable({self.height}x{self.width} name={self.name})"


class SymbolInterner:
    """A bijection symbol ↔ small int, with a weak per-table cache.

    ⊥ is interned first so its id is 0; kernels rely on that for
    null-stripping via truthiness.
    """

    __slots__ = ("_ids", "_symbols", "_cache", "__weakref__")

    #: Tables cached at once; the cache resets wholesale beyond this (a
    #: backstop — weakref callbacks already evict dead entries).
    CACHE_CAP = 4096

    def __init__(self):
        self._ids: dict[Symbol, int] = {NULL: 0}
        self._symbols: list[Symbol] = [NULL]
        self._cache: dict[int, tuple[weakref.ref, IdTable]] = {}

    def __len__(self) -> int:
        return len(self._symbols)

    def intern(self, symbol: Symbol) -> int:
        """The id of ``symbol``, minting a new one on first sight."""
        i = self._ids.get(symbol)
        if i is None:
            i = len(self._symbols)
            self._ids[symbol] = i
            self._symbols.append(symbol)
        return i

    def symbol(self, i: int) -> Symbol:
        """The representative symbol for id ``i``."""
        return self._symbols[i]

    def _intern_row(self, row: Sequence[Symbol]) -> tuple[int, ...]:
        try:
            return tuple(map(self._ids.__getitem__, row))
        except KeyError:
            return tuple(self.intern(s) for s in row)

    def intern_table(self, table: Table) -> IdTable:
        """The :class:`IdTable` for ``table``, cached by object identity."""
        key = id(table)
        hit = self._cache.get(key)
        if hit is not None and hit[0]() is table:
            return hit[1]
        grid = table.grid
        header = self._intern_row(grid[0])
        body = [self._intern_row(row) for row in grid[1:]]
        idt = IdTable(
            header[0],
            header[1:],
            tuple(row[0] for row in body),
            rows=tuple(row[1:] for row in body),
        )
        self._remember(table, idt)
        return idt

    def materialize(
        self,
        name: int,
        col_attrs: Sequence[int],
        row_attrs: Sequence[int],
        rows: Sequence[Sequence[int]],
    ) -> Table:
        """Build the symbol-level :class:`Table` and cache its id form."""
        lookup = self._symbols.__getitem__
        grid = [tuple(map(lookup, (name,) + tuple(col_attrs)))]
        for attr, row in zip(row_attrs, rows):
            grid.append(tuple(map(lookup, (attr,) + tuple(row))))
        table = Table(grid)
        idt = IdTable(
            name,
            tuple(col_attrs),
            tuple(row_attrs),
            rows=tuple(tuple(row) for row in rows),
        )
        self._remember(table, idt)
        return table

    def _remember(self, table: Table, idt: IdTable) -> None:
        if len(self._cache) >= self.CACHE_CAP:
            self._cache.clear()
        key = id(table)
        # The eviction callback reaches the cache through a weak reference
        # to the interner: holding the cache itself would make cache →
        # weakref → callback → cache a cycle, and every dead engine scope's
        # id tables would then wait for the cyclic collector.
        owner = weakref.ref(self)

        def _evict(_ref, _key=key, _owner=owner):
            interner = _owner()
            if interner is not None:
                interner._cache.pop(_key, None)

        try:
            self._cache[key] = (weakref.ref(table, _evict), idt)
        except TypeError:  # pragma: no cover - Table is weak-referenceable
            pass
