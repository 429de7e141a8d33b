"""Federations of tabular databases (paper, Section 4.2's closing remark).

"It is a simple matter to extend the tabular model and algebra in a way
that accounts for a federation of (tabular) databases.  Such an extended
language would trivially subsume SchemaLog (without function symbols)."

A federation is a finite mapping from *database names* to tabular
databases.  The extension to the algebra is exactly the paper's sketch:
statements address tables with qualified names ``db::table``, and the
flattening map — which prefixes every table name with its database name —
reduces federated programs to ordinary tabular algebra programs over one
database, so every result about the single-database language lifts.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from ..core import (
    Name,
    SchemaError,
    Symbol,
    TabularDatabase,
    Table,
)

__all__ = ["TabularFederation", "qualified_name", "split_qualified"]

#: Separator used by the flattening map (``db::table``).
SEPARATOR = "::"


def qualified_name(db_name: str, table_name: Symbol) -> Name:
    """The flattened name of a table inside a federation member."""
    if not isinstance(table_name, Name):
        raise SchemaError(
            f"only name-named tables can be qualified, got {table_name!s}"
        )
    return Name(f"{db_name}{SEPARATOR}{table_name.text}")


def split_qualified(name: Symbol) -> tuple[str, Name] | None:
    """Invert :func:`qualified_name`; None when the name is unqualified."""
    if not isinstance(name, Name) or SEPARATOR not in name.text:
        return None
    db_name, _, table_text = name.text.partition(SEPARATOR)
    if not db_name or not table_text:
        return None
    return db_name, Name(table_text)


class TabularFederation:
    """An immutable mapping from database names to tabular databases."""

    __slots__ = ("_members",)

    def __init__(self, members: Mapping[str, TabularDatabase]):
        for db_name, db in members.items():
            if not db_name or SEPARATOR in db_name:
                raise SchemaError(f"invalid federation member name {db_name!r}")
            if not isinstance(db, TabularDatabase):
                raise SchemaError(f"{db_name!r} is not a TabularDatabase")
        object.__setattr__(self, "_members", dict(sorted(members.items())))

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("TabularFederation is immutable")

    def member(self, db_name: str) -> TabularDatabase:
        """One member database."""
        if db_name not in self._members:
            raise SchemaError(f"no federation member named {db_name!r}")
        return self._members[db_name]

    def names(self) -> tuple[str, ...]:
        """The member names, sorted."""
        return tuple(self._members)

    def __iter__(self) -> Iterator[tuple[str, TabularDatabase]]:
        return iter(self._members.items())

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, db_name: object) -> bool:
        return db_name in self._members

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TabularFederation) and other._members == self._members
        )

    def __hash__(self) -> int:
        return hash(tuple(self._members.items()))

    def with_member(self, db_name: str, db: TabularDatabase) -> "TabularFederation":
        """A federation with one member added or replaced."""
        members = dict(self._members)
        members[db_name] = db
        return TabularFederation(members)

    # ------------------------------------------------------------------
    # Flattening (the reduction to the single-database language)
    # ------------------------------------------------------------------

    def flatten(self) -> TabularDatabase:
        """One tabular database with ``db::table``-qualified names.

        Every member table must be name-named (anonymous tables cannot be
        addressed across a federation).
        """
        tables: list[Table] = []
        for db_name, db in self:
            for table in db.tables:
                tables.append(table.with_name(qualified_name(db_name, table.name)))
        return TabularDatabase(tables)

    @classmethod
    def unflatten(cls, db: TabularDatabase) -> "TabularFederation":
        """Rebuild a federation from a flattened database.

        Tables with unqualified names are rejected — they do not belong to
        any member.
        """
        members: dict[str, list[Table]] = {}
        for table in db.tables:
            parsed = split_qualified(table.name)
            if parsed is None:
                raise SchemaError(
                    f"table {table.name!s} is not qualified; not a flattened federation"
                )
            db_name, table_name = parsed
            members.setdefault(db_name, []).append(table.with_name(table_name))
        return cls({k: TabularDatabase(v) for k, v in members.items()})

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}({len(v)})" for k, v in self)
        return f"TabularFederation({inner})"
