"""The table — the central data structure of the tabular database model.

Formally (paper, Section 2) a table is a *total mapping from the Cartesian
product of two initial segments of the natural numbers into 𝒮*; i.e. a
matrix of symbols.  For a table τ with row numbers ``0..m`` and column
numbers ``0..n``:

* ``τ_0^0`` is the **table name**,
* ``τ_0^>`` (row 0, columns ≥ 1) are the **column attributes**,
* ``τ_>^0`` (column 0, rows ≥ 1) are the **row attributes**,
* ``τ_>^>`` are the **data entries**

— the four regions of the paper's Figure 2.  The paper calls ``n`` the
*width* and ``m`` the *height*; so a table of width n and height m is an
``(m+1) × (n+1)`` matrix.

Both row and column attributes are optional (they may be ``⊥``), attributes
need not be distinct, data may appear in attribute positions, and names may
appear in data positions — this is exactly the flexibility that separates
tables from relations.

:class:`Table` is immutable; every "mutation" returns a new table.  This is
what makes the algebra's assignment semantics and the hypothesis-based
property tests straightforward.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .errors import SchemaError
from .symbols import Symbol, weakly_contained

__all__ = ["Table"]


#: The entry types seen to be :class:`Symbol` subclasses.  A row whose
#: entry types are all in here passes the entry check in one C-level pass.
_SYMBOL_TYPES: set[type] = set()


def _freeze(rows: Iterable[Iterable[Symbol]]) -> tuple[tuple[Symbol, ...], ...]:
    """``rows`` frozen into a grid of tuples, its shape checked.

    A grid is non-empty and every row is as wide as row 0: one ``len``
    per row.
    """
    # Through a list, so the grid is allocated at its exact size: a tuple
    # built from an iterator grows by reallocation, and the tuple free
    # lists then hold more memory than the grids need.
    grid = tuple([*map(tuple, rows)])
    if not grid or not grid[0]:
        raise SchemaError("a table requires at least the name position (a 1x1 grid)")
    if len(set(map(len, grid))) != 1:
        ncols = len(grid[0])
        i, row = next((i, row) for i, row in enumerate(grid) if len(row) != ncols)
        raise SchemaError(f"ragged grid: row {i} has {len(row)} entries, expected {ncols}")
    return grid


def _freeze_grid(rows: Iterable[Iterable[Symbol]]) -> tuple[tuple[Symbol, ...], ...]:
    """:func:`_freeze`, then the check that every entry is a :class:`Symbol`."""
    grid = _freeze(rows)
    known = _SYMBOL_TYPES
    for i, row in enumerate(grid):
        if known.issuperset(map(type, row)):
            continue
        for j, entry in enumerate(row):
            if not isinstance(entry, Symbol):
                raise SchemaError(
                    f"grid entry ({i},{j}) is {entry!r}, not a Symbol; "
                    "use repro.core.builders for coercing plain Python objects"
                )
        known.update(kind for kind in map(type, row) if issubclass(kind, Symbol))
    return grid


def _from_checked(rows: Iterable[Iterable[Symbol]]) -> "Table":
    """A table over ``rows`` whose entries are known to be symbols.

    The constructor for every grid an operation assembles.  A table is a
    total mapping into 𝒮 (Section 2), and an operation fills its result
    only with its arguments' entries, ⊥, attribute or constant
    parameters coerced to symbols, lineage copies and new values, so the
    result is a table over 𝒮 by construction and its entries are not
    checked again.  The rows are frozen and the shape is checked
    (:func:`_freeze`): one ``len`` per row, against one type test per
    entry in :class:`Table`'s check.
    """
    table = object.__new__(Table)
    object.__setattr__(table, "_grid", _freeze(rows))
    object.__setattr__(table, "_hash", None)
    return table


class Table:
    """An immutable tabular-model table (a matrix of :class:`Symbol`).

    Construct directly from a grid of symbols, or use the convenience
    constructors in :mod:`repro.core.builders` for plain Python data.
    Construction checks the grid's shape and that every entry is a
    :class:`Symbol`: this is where entries come in from outside the
    algebra (builders, file and checkpoint decoding, :meth:`with_entry`,
    :meth:`map_entries`, …).  Results of the operations are assembled
    from checked entries and built by :func:`_from_checked` instead.

    Indexing follows the paper: row 0 is the attribute row, column 0 is the
    attribute column, and position (0, 0) holds the table name.
    """

    __slots__ = ("_grid", "_hash", "__weakref__")

    def __init__(self, grid: Iterable[Iterable[Symbol]]):
        object.__setattr__(self, "_grid", _freeze_grid(grid))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Table is immutable")

    def __reduce__(self):
        # Rebuilt from the grid, so the cached hash of a string grid is
        # never carried into a process with another hash seed.
        return (type(self), (self._grid,))

    # ------------------------------------------------------------------
    # Basic shape and access
    # ------------------------------------------------------------------

    @property
    def grid(self) -> tuple[tuple[Symbol, ...], ...]:
        """The raw ``(m+1) × (n+1)`` grid of symbols."""
        return self._grid

    @property
    def nrows(self) -> int:
        """Number of grid rows, ``m + 1``."""
        return len(self._grid)

    @property
    def ncols(self) -> int:
        """Number of grid columns, ``n + 1``."""
        return len(self._grid[0])

    @property
    def height(self) -> int:
        """The paper's *height* ``m`` (number of data rows)."""
        return self.nrows - 1

    @property
    def width(self) -> int:
        """The paper's *width* ``n`` (number of data columns)."""
        return self.ncols - 1

    @property
    def name(self) -> Symbol:
        """The table name ``τ_0^0``."""
        return self._grid[0][0]

    @property
    def column_attributes(self) -> tuple[Symbol, ...]:
        """The column attributes ``τ_0^>`` (row 0 without the name)."""
        return self._grid[0][1:]

    @property
    def row_attributes(self) -> tuple[Symbol, ...]:
        """The row attributes ``τ_>^0`` (column 0 without the name)."""
        return tuple(row[0] for row in self._grid[1:])

    def entry(self, i: int, j: int) -> Symbol:
        """The entry ``τ_i^j``."""
        return self._grid[i][j]

    def row(self, i: int) -> tuple[Symbol, ...]:
        """The full row ``τ_i`` (including the column-0 slot)."""
        return self._grid[i]

    def column(self, j: int) -> tuple[Symbol, ...]:
        """The full column ``τ^j`` (including the row-0 slot)."""
        return tuple(row[j] for row in self._grid)

    def data_row(self, i: int) -> tuple[Symbol, ...]:
        """Row ``i``'s data entries ``τ_i^>`` (without the row attribute)."""
        return self._grid[i][1:]

    def data_column(self, j: int) -> tuple[Symbol, ...]:
        """Column ``j``'s data entries ``τ_>^j`` (without the attribute)."""
        return tuple(row[j] for row in self._grid[1:])

    @property
    def data(self) -> tuple[tuple[Symbol, ...], ...]:
        """The data region ``τ_>^>``."""
        return tuple(row[1:] for row in self._grid[1:])

    def data_row_indices(self) -> range:
        """Indices of the data rows (``1..m``)."""
        return range(1, self.nrows)

    def data_col_indices(self) -> range:
        """Indices of the data columns (``1..n``)."""
        return range(1, self.ncols)

    def symbols(self) -> frozenset[Symbol]:
        """The set of all symbols occurring anywhere in the table."""
        return frozenset(entry for row in self._grid for entry in row)

    # ------------------------------------------------------------------
    # Subtables (the τ_I^J notation)
    # ------------------------------------------------------------------

    def subtable(self, rows: Sequence[int], cols: Sequence[int]) -> "Table":
        """The subtable ``τ_I^J`` formed by the indicated rows and columns.

        Indices may repeat and appear in any order, exactly as the paper's
        finite index sequences allow.
        """
        try:
            return _from_checked((self._grid[i][j] for j in cols) for i in rows)
        except IndexError as exc:
            raise SchemaError(f"subtable index out of range: {exc}") from exc

    # ------------------------------------------------------------------
    # Attribute-based access (the τ_i(a) notation)
    # ------------------------------------------------------------------

    def columns_named(self, attribute: Symbol) -> list[int]:
        """Data-column indices whose column attribute equals ``attribute``."""
        header = self._grid[0]
        return [j for j in range(1, self.ncols) if header[j] == attribute]

    def rows_named(self, attribute: Symbol) -> list[int]:
        """Data-row indices whose row attribute equals ``attribute``."""
        return [i for i in range(1, self.nrows) if self._grid[i][0] == attribute]

    def row_entry_set(self, i: int, attribute: Symbol) -> frozenset[Symbol]:
        """``τ_i(a)`` — the *set* of data entries of row ``i`` in columns named ``a``."""
        row = self._grid[i]
        header = self._grid[0]
        return frozenset(row[j] for j in range(1, self.ncols) if header[j] == attribute)

    def column_entry_set(self, j: int, attribute: Symbol) -> frozenset[Symbol]:
        """The dual ``τ^j(a)`` — entries of column ``j`` in rows named ``a``."""
        return frozenset(
            self._grid[i][j] for i in range(1, self.nrows) if self._grid[i][0] == attribute
        )

    # ------------------------------------------------------------------
    # Subsumption (paper, end of Section 2)
    # ------------------------------------------------------------------

    def row_subsumed_by(self, i: int, other: "Table", k: int) -> bool:
        """``ρ_i ⪯ σ_k``: row ``i`` of self is subsumed by row ``k`` of other.

        For each column attribute ``a`` occurring in either table,
        ``ρ_i(a) ⊑ σ_k(a)`` must hold.
        """
        attributes = set(self.column_attributes) | set(other.column_attributes)
        return all(
            weakly_contained(self.row_entry_set(i, a), other.row_entry_set(k, a))
            for a in attributes
        )

    def rows_subsume_each_other(self, i: int, other: "Table", k: int) -> bool:
        """``ρ_i ≍ σ_k``: mutual row subsumption."""
        return self.row_subsumed_by(i, other, k) and other.row_subsumed_by(k, self, i)

    def column_subsumed_by(self, j: int, other: "Table", l: int) -> bool:
        """Dual of :meth:`row_subsumed_by` with rows and columns swapped."""
        attributes = set(self.row_attributes) | set(other.row_attributes)
        return all(
            weakly_contained(self.column_entry_set(j, a), other.column_entry_set(l, a))
            for a in attributes
        )

    def columns_subsume_each_other(self, j: int, other: "Table", l: int) -> bool:
        """Mutual column subsumption."""
        return self.column_subsumed_by(j, other, l) and other.column_subsumed_by(l, self, j)

    # ------------------------------------------------------------------
    # Derived tables
    # ------------------------------------------------------------------

    def transpose(self) -> "Table":
        """The matrix transpose (column attributes become row attributes).

        A permutation of a checked grid, so it is not checked again.
        """
        return _from_checked(zip(*self._grid))

    def with_name(self, name: Symbol) -> "Table":
        """A copy whose table-name position holds ``name``.

        The rest of the grid is frozen and checked already, so only the
        new name is checked and the rows are shared.
        """
        if not isinstance(name, Symbol):
            raise SchemaError(
                f"grid entry (0,0) is {name!r}, not a Symbol; "
                "use repro.core.builders for coercing plain Python objects"
            )
        rows = list(self._grid)
        rows[0] = (name,) + rows[0][1:]
        return _from_checked(rows)

    def with_entry(self, i: int, j: int, symbol: Symbol) -> "Table":
        """A copy with entry (i, j) replaced by ``symbol``."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise SchemaError(f"entry ({i},{j}) out of range for {self.nrows}x{self.ncols}")
        rows = list(self._grid)
        row = list(rows[i])
        row[j] = symbol
        rows[i] = tuple(row)
        return Table(rows)

    def append_rows(self, rows: Iterable[Sequence[Symbol]]) -> "Table":
        """A copy with extra full-width rows appended below."""
        return Table(self._grid + tuple(tuple(r) for r in rows))

    def append_columns(self, columns: Iterable[Sequence[Symbol]]) -> "Table":
        """A copy with extra full-height columns appended at the right."""
        cols = [tuple(c) for c in columns]
        for c in cols:
            if len(c) != self.nrows:
                raise SchemaError(
                    f"appended column has {len(c)} entries, expected {self.nrows}"
                )
        return Table(
            tuple(row + tuple(c[i] for c in cols) for i, row in enumerate(self._grid))
        )

    def drop_rows(self, indices: Iterable[int]) -> "Table":
        """A copy without the indicated rows (row 0 cannot be dropped)."""
        drop = set(indices)
        if 0 in drop:
            raise SchemaError("the attribute row (row 0) cannot be dropped")
        return _from_checked(row for i, row in enumerate(self._grid) if i not in drop)

    def drop_columns(self, indices: Iterable[int]) -> "Table":
        """A copy without the indicated columns (column 0 cannot be dropped)."""
        drop = set(indices)
        if 0 in drop:
            raise SchemaError("the attribute column (column 0) cannot be dropped")
        keep = [j for j in range(self.ncols) if j not in drop]
        return _from_checked(tuple(row[j] for j in keep) for row in self._grid)

    def map_entries(self, fn: Callable[[Symbol], Symbol]) -> "Table":
        """A copy with ``fn`` applied to every grid entry."""
        return Table(tuple(fn(entry) for entry in row) for row in self._grid)

    def sorted_canonically(self) -> "Table":
        """A copy with data rows and columns in a deterministic order.

        Rows and columns are sorted by iterated lexicographic refinement
        (sort columns by their entry sequence, then rows, until a fixpoint).
        Used for stable rendering and as a cheap pre-pass for
        permutation-equivalence checks.
        """
        grid = [list(row) for row in self._grid]
        for _ in range(max(len(grid), len(grid[0])) + 2):
            new_cols = sorted(
                range(1, len(grid[0])),
                key=lambda j: tuple(grid[i][j].sort_key() for i in range(len(grid))),
            )
            grid = [[row[0]] + [row[j] for j in new_cols] for row in grid]
            new_rows = sorted(
                range(1, len(grid)), key=lambda i: tuple(s.sort_key() for s in grid[i])
            )
            reordered = [grid[0]] + [grid[i] for i in new_rows]
            if reordered == grid and new_cols == list(range(1, len(grid[0]))):
                grid = reordered
                break
            grid = reordered
        return _from_checked(grid)

    # ------------------------------------------------------------------
    # Equality and hashing
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Table) and other._grid == self._grid

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._grid))
        return self._hash

    def sort_key(self) -> tuple:
        """A key totally ordering tables (used for canonical database order).

        Its first component is the table name's key, so tables under
        different names are ordered by their names alone.
        """
        return tuple(tuple(s.sort_key() for s in row) for row in self._grid)

    def equivalent(self, other: "Table") -> bool:
        """Equality up to permutations of data rows and of data columns.

        This is the paper's identification of tables that differ only in
        "the order of rows and columns", used by isomorphism of databases.
        A sort-refinement canonical form settles most cases; ties fall back
        to a backtracking search over column matchings.
        """
        if self is other:
            return True
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        a = self.sorted_canonically()
        b = other.sorted_canonically()
        if a._grid == b._grid:
            return True
        return _permutation_equal(self, other)

    def __repr__(self) -> str:
        return f"Table({self.nrows}x{self.ncols} name={self.name!s})"

    def __str__(self) -> str:
        from .render import render_table

        return render_table(self)

    def __iter__(self) -> Iterator[tuple[Symbol, ...]]:
        return iter(self._grid)


def _permutation_equal(left: Table, right: Table) -> bool:
    """Exact search: is there a data-row and data-column permutation mapping
    ``left``'s grid onto ``right``'s?

    Columns are matched first (constrained by the full column content as a
    multiset ignoring row order — approximated by sorted entries), then row
    permutation is checked by comparing row multisets under the chosen
    column matching.
    """
    n = left.ncols
    if n != right.ncols or left.nrows != right.nrows:
        return False

    def column_fingerprint(table: Table, j: int) -> tuple:
        column = table.column(j)
        return (column[0].sort_key(), tuple(sorted(s.sort_key() for s in column[1:])))

    right_groups: dict[tuple, list[int]] = {}
    for j in range(1, n):
        right_groups.setdefault(column_fingerprint(right, j), []).append(j)
    left_fingerprints = [column_fingerprint(left, j) for j in range(1, n)]
    needed: dict[tuple, int] = {}
    for fp in left_fingerprints:
        needed[fp] = needed.get(fp, 0) + 1
    if any(len(right_groups.get(fp, [])) != count for fp, count in needed.items()):
        return False
    if sum(len(v) for v in right_groups.values()) != n - 1:
        return False

    def rows_match(col_map: list[int]) -> bool:
        order = [0] + col_map
        if left._grid[0] != tuple(right._grid[0][j] for j in order):
            return False
        left_rows = sorted(tuple(s.sort_key() for s in row) for row in left._grid[1:])
        right_rows = sorted(
            tuple(right._grid[i][j].sort_key() for j in order)
            for i in range(1, right.nrows)
        )
        return left_rows == right_rows

    # Backtracking: assign each left data column to an unused right column
    # carrying the same fingerprint; a complete assignment succeeds if a row
    # permutation exists (multiset equality of reordered rows).
    col_map: list[int] = []
    used: set[int] = set()

    def assign(pos: int) -> bool:
        if pos == n - 1:
            return rows_match(col_map)
        for candidate in right_groups[left_fingerprints[pos]]:
            if candidate in used:
                continue
            used.add(candidate)
            col_map.append(candidate)
            if assign(pos + 1):
                return True
            col_map.pop()
            used.discard(candidate)
        return False

    return assign(0)
