"""Tabular databases — sets of tables.

A tabular database is a *set* of tables (paper, Section 2).  Unlike in the
relational model, several tables may carry the same name (``SalesInfo4`` in
Figure 1 has one ``Sales`` table per region, their number depending on the
instance), so lookup by name returns a tuple of tables.

Databases are immutable and indexed by table name, so a program statement
``T ← op(...)``, which replaces the tables named ``T`` (Section 3), costs
what its own name's tables cost, not what the whole database holds.  The
tables keep one canonical order, computed when first asked for: two
databases built from the same tables in any order compare equal, hash
equal, render identically and serialize to the same bytes.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import SchemaError
from .symbols import Name, Symbol
from .table import Table

__all__ = ["TabularDatabase"]


def _filed(
    index: dict[Symbol, tuple[Table, ...]], tables: Iterable[Table]
) -> dict[Symbol, tuple[Table, ...]]:
    """``index`` (mutated) with ``tables`` added under their names.

    Each name's group holds its tables once (the first copy kept), in
    canonical order.
    """
    added: dict[Symbol, list[Table]] = {}
    for table in tables:
        if not isinstance(table, Table):
            raise SchemaError(f"a TabularDatabase holds Table objects, got {table!r}")
        added.setdefault(table.name, []).append(table)
    for name, new in added.items():
        group = index.get(name, ()) + tuple(new)
        if len(group) > 1:
            group = tuple(sorted(dict.fromkeys(group), key=Table.sort_key))
        index[name] = group
    return index


def _as_name(name: Symbol | str) -> Symbol:
    return Name(name) if isinstance(name, str) else name


class TabularDatabase:
    """An immutable set of :class:`Table` objects.

    Supports the paper's notions directly:

    * ``db.table_names()`` — the names occurring as table names (a scheme
      for ``db`` is any finite superset of these inside 𝒩);
    * ``db.symbols()`` — ``|D|``, the set of symbols occurring in ``db``;
    * ``db.tables_named(n)`` — all tables named ``n`` (possibly several);
    * set-like combination (``|``), addition and replacement of tables.

    The tables are held in an index from each table name to the tables
    carrying it.  ``replace_named``, ``without_name``, ``add``, ``remove``
    and ``|`` copy the index and touch only the names they change;
    ``tables_named``, ``table`` and ``in`` are one lookup.

    The canonical order — that of :attr:`tables`, iteration, ``==``,
    ``hash``, ``str`` and the checkpoint and ledger encodings — is by
    :meth:`Table.sort_key`, and of equal tables the copy inserted first is
    the one kept; that matters because ``Value(1) == Value(True)`` yet the
    two print differently.  The key starts with the table name's key, so
    the order is the names in key order, each followed by its own tables.
    So building or deriving a database never hashes or sort-keys a table
    alone under its name; the tables sharing a name are deduplicated and
    sorted when their group changes, and the order across names is
    computed on first request and cached.
    """

    __slots__ = ("_index", "_order", "_hash")

    def __init__(self, tables: Iterable[Table] = ()):
        self._init(_filed({}, tables))

    def _init(self, index: dict[Symbol, tuple[Table, ...]]) -> None:
        # ``index`` maps each name to its non-empty canonical group, and is
        # never mutated once it backs a database.
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_order", None)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, index: dict[Symbol, tuple[Table, ...]]) -> "TabularDatabase":
        db = object.__new__(cls)
        db._init(index)
        return db

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("TabularDatabase is immutable")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def tables(self) -> tuple[Table, ...]:
        """All tables, in canonical order."""
        if self._order is None:
            groups = sorted(self._index.items(), key=lambda item: item[0].sort_key())
            object.__setattr__(
                self, "_order", tuple(table for _, group in groups for table in group)
            )
        return self._order

    def __len__(self) -> int:
        return sum(map(len, self._index.values()))

    def __iter__(self) -> Iterator[Table]:
        return iter(self.tables)

    def __contains__(self, table: object) -> bool:
        return isinstance(table, Table) and table in self._index.get(table.name, ())

    def is_empty(self) -> bool:
        """True iff the database holds no tables."""
        return not self._index

    def tables_named(self, name: Symbol | str) -> tuple[Table, ...]:
        """All tables whose name position holds ``name``."""
        return self._index.get(_as_name(name), ())

    def table(self, name: Symbol | str) -> Table:
        """The unique table named ``name``; raises if absent or ambiguous."""
        found = self.tables_named(name)
        if not found:
            raise SchemaError(f"no table named {name!s}")
        if len(found) > 1:
            raise SchemaError(f"{len(found)} tables named {name!s}; use tables_named()")
        return found[0]

    def table_names(self) -> frozenset[Symbol]:
        """The set of symbols used as table names."""
        # A group's first table comes first in canonical order, so of equal
        # names it is its name that is kept.
        return frozenset(group[0].name for group in self._index.values())

    def symbols(self) -> frozenset[Symbol]:
        """``|D|`` — all symbols occurring anywhere in the database."""
        # Canonical order decides which of several equal symbols is kept.
        out: set[Symbol] = set()
        for table in self.tables:
            out |= table.symbols()
        return frozenset(out)

    def names(self) -> frozenset[Name]:
        """All symbols of the name sort occurring in the database."""
        return frozenset(s for s in self.symbols() if isinstance(s, Name))

    def scheme(self) -> frozenset[Name]:
        """The minimal scheme: table names that are proper names.

        The paper allows any finite ``N ⊆ 𝒩`` containing all table names as
        a scheme; this returns the smallest such set.  Table names that are
        not of the name sort (⊥ or values) are not part of any scheme.
        """
        return frozenset(n for n in self.table_names() if isinstance(n, Name))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add(self, *tables: Table) -> "TabularDatabase":
        """A database with the given tables added (set union)."""
        return self._of(_filed(dict(self._index), tables))

    def remove(self, *tables: Table) -> "TabularDatabase":
        """A database with the given tables removed (missing ones ignored)."""
        index = dict(self._index)
        for table in tables:
            if isinstance(table, Table) and table in index.get(table.name, ()):
                kept = tuple(t for t in index[table.name] if t != table)
                if kept:
                    index[table.name] = kept
                else:
                    del index[table.name]
        return self._of(index)

    def without_name(self, name: Symbol | str) -> "TabularDatabase":
        """A database with every table named ``name`` removed."""
        return self.replace_named(name, ())

    def replace_named(self, name: Symbol | str, tables: Iterable[Table]) -> "TabularDatabase":
        """Assignment semantics: drop all tables named ``name``, add ``tables``.

        This is how ``T ← op(...)`` statements update the database (DESIGN.md
        interpretation decision 13).
        """
        index = dict(self._index)
        index.pop(_as_name(name), None)
        return self._of(_filed(index, tables))

    def __or__(self, other: "TabularDatabase") -> "TabularDatabase":
        if not isinstance(other, TabularDatabase):
            return NotImplemented
        return self.add(*other.tables)

    # ------------------------------------------------------------------
    # Equality
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, TabularDatabase) and other._index == self._index

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.tables))
        return self._hash

    def equivalent(self, other: "TabularDatabase") -> bool:
        """Equality up to row/column permutations inside the tables.

        Two databases are identified when their tables pairwise match up to
        permutations of non-attribute rows and columns (the paper's
        condition (iii) on isomorphisms, with the identity on symbols).
        """
        if len(self) != len(other):
            return False
        remaining = list(other.tables)
        for table in self.tables:
            for candidate in remaining:
                if table.equivalent(candidate):
                    remaining.remove(candidate)
                    break
            else:
                return False
        return not remaining

    def __repr__(self) -> str:
        names = sorted(str(t.name) for group in self._index.values() for t in group)
        return f"TabularDatabase({len(names)} tables: {', '.join(names)})"

    def __str__(self) -> str:
        from .render import render_database

        return render_database(self)
