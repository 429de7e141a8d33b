"""Classical relations — the substrate for FO + while + new.

The completeness proof (Theorem 4.4) reduces tabular transformations to
relational transformations over the fixed-width canonical scheme, where
the language FO + while + new of Van den Bussche et al. [3] is complete.
This module provides that relational world: named relations with
fixed-arity schemas and *set* semantics, holding :class:`Symbol` entries
(so values, names, and tagged values flow unchanged between the relational
and tabular layers).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..core import SchemaError, Symbol, coerce_symbol

__all__ = ["Relation", "RelationalDatabase"]


def _coerce_tuple(schema: tuple[str, ...], row: Iterable[object]) -> tuple[Symbol, ...]:
    entries = tuple(coerce_symbol(v) for v in row)
    if len(entries) != len(schema):
        raise SchemaError(
            f"tuple arity {len(entries)} does not match schema arity {len(schema)}"
        )
    return entries


class Relation:
    """An immutable named relation: schema + a set of tuples.

    Attribute names within one schema must be distinct (the classical
    named perspective); entries are symbols, and plain Python values
    coerce to :class:`~repro.core.Value`.
    """

    __slots__ = ("name", "schema", "tuples")

    def __init__(self, name: str, schema: Iterable[str], tuples: Iterable[Iterable[object]] = ()):
        schema_tuple = tuple(schema)
        if len(set(schema_tuple)) != len(schema_tuple):
            raise SchemaError(f"duplicate attributes in schema {schema_tuple}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "schema", schema_tuple)
        object.__setattr__(
            self,
            "tuples",
            frozenset(_coerce_tuple(schema_tuple, row) for row in tuples),
        )

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Relation is immutable")

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.schema)

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[tuple[Symbol, ...]]:
        return iter(sorted(self.tuples, key=lambda t: tuple(s.sort_key() for s in t)))

    def __contains__(self, row: object) -> bool:
        if isinstance(row, tuple):
            return tuple(coerce_symbol(v) for v in row) in self.tuples
        return False

    def attribute_index(self, attribute: str) -> int:
        """Position of an attribute in the schema."""
        try:
            return self.schema.index(attribute)
        except ValueError:
            raise SchemaError(f"{self.name} has no attribute {attribute!r}") from None

    def column(self, attribute: str) -> frozenset[Symbol]:
        """All entries under one attribute."""
        idx = self.attribute_index(attribute)
        return frozenset(row[idx] for row in self.tuples)

    def with_name(self, name: str) -> "Relation":
        """The same relation under another name."""
        return Relation(name, self.schema, self.tuples)

    def with_tuples(self, tuples: Iterable[Iterable[object]]) -> "Relation":
        """Same name/schema, different contents."""
        return Relation(self.name, self.schema, tuples)

    def symbols(self) -> frozenset[Symbol]:
        """All symbols occurring in the relation's tuples."""
        return frozenset(s for row in self.tuples for s in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Relation)
            and other.name == self.name
            and other.schema == self.schema
            and other.tuples == self.tuples
        )

    def __hash__(self) -> int:
        return hash((self.name, self.schema, self.tuples))

    def __repr__(self) -> str:
        return f"Relation({self.name}({', '.join(self.schema)}), {len(self.tuples)} tuples)"


class RelationalDatabase:
    """An immutable mapping from relation names to relations."""

    __slots__ = ("_relations",)

    def __init__(self, relations: Iterable[Relation] | Mapping[str, Relation] = ()):
        if isinstance(relations, Mapping):
            relations = relations.values()
        store: dict[str, Relation] = {}
        for relation in relations:
            if relation.name in store:
                raise SchemaError(f"duplicate relation name {relation.name!r}")
            store[relation.name] = relation
        object.__setattr__(self, "_relations", dict(sorted(store.items())))

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("RelationalDatabase is immutable")

    def relation(self, name: str) -> Relation:
        """The relation called ``name``; raises if absent."""
        if name not in self._relations:
            raise SchemaError(f"no relation named {name!r}")
        return self._relations[name]

    def get(self, name: str) -> Relation | None:
        """The relation called ``name``, or None."""
        return self._relations.get(name)

    def names(self) -> tuple[str, ...]:
        """All relation names, sorted."""
        return tuple(self._relations)

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def set(self, relation: Relation) -> "RelationalDatabase":
        """A database with ``relation`` added or replaced (by name)."""
        store = dict(self._relations)
        store[relation.name] = relation
        return RelationalDatabase(store.values())

    def drop(self, name: str) -> "RelationalDatabase":
        """A database without the relation called ``name``."""
        store = dict(self._relations)
        store.pop(name, None)
        return RelationalDatabase(store.values())

    def symbols(self) -> frozenset[Symbol]:
        """All symbols occurring in any relation."""
        out: set[Symbol] = set()
        for relation in self:
            out |= relation.symbols()
        return frozenset(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelationalDatabase)
            and other._relations == self._relations
        )

    def __hash__(self) -> int:
        return hash(tuple(self._relations.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{r.name}/{r.arity}({len(r)})" for r in self)
        return f"RelationalDatabase({inner})"
