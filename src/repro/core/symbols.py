"""Symbols of the tabular database model.

The paper distinguishes two sorts of symbols (Section 2):

* **names** (:class:`Name`), a generalization of relation and attribute
  names — operations *may* distinguish individual names;
* **values** (:class:`Value`) — for genericity reasons operations may *not*
  distinguish individual values;

plus the special **inapplicable null** ``⊥`` (:data:`NULL`), used whenever a
table entry is not applicable.  The set of all symbols is
``𝒮 = 𝒩 ∪ 𝒱 ∪ {⊥}``.

The presence of ``⊥`` requires an adapted notion of equality on *sets* of
symbols: ``A ⊑ B`` (*weak containment*) iff ``A \\ {⊥} ⊆ B \\ {⊥}``, and
``A ≈ B`` (*weak equality*) iff both containments hold.  These are provided
by :func:`weakly_contained` and :func:`weakly_equal`.

Symbols are immutable, hashable, and totally ordered (the order is an
implementation convenience used for deterministic rendering and canonical
sorting; it carries no model-level meaning).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

__all__ = [
    "Symbol",
    "Name",
    "Value",
    "TaggedValue",
    "Null",
    "NULL",
    "FreshValueSource",
    "coerce_symbol",
    "coerce_name",
    "weakly_contained",
    "weakly_equal",
    "strip_null",
]


class Symbol:
    """Abstract base class of all tabular model symbols.

    Concrete symbols are :class:`Name`, :class:`Value`,
    :class:`TaggedValue`, and the :data:`NULL` singleton.  Instances are
    immutable and hashable, so they can be stored in the frozen grids of
    :class:`repro.core.table.Table` and in Python sets.
    """

    __slots__ = ()

    #: Rank used for the (arbitrary but total) cross-sort ordering.
    _sort_rank = 99

    #: Why-provenance of the cell this symbol occupies: a frozenset of
    #: input-cell ids, or None when the symbol carries no lineage.  Plain
    #: symbols share this class-level None; the provenance layer
    #: (:mod:`repro.obs.lineage`) substitutes per-cell *copies* that shadow
    #: it with an instance slot.  Provenance never participates in
    #: equality, hashing, or ordering — a tagged copy is indistinguishable
    #: from its original to every operation of the algebra.
    prov = None

    @property
    def is_null(self) -> bool:
        """True iff this symbol is the inapplicable null ``⊥``."""
        return False

    @property
    def is_name(self) -> bool:
        """True iff this symbol belongs to the name sort 𝒩."""
        return False

    @property
    def is_value(self) -> bool:
        """True iff this symbol belongs to the value sort 𝒱."""
        return False

    def sort_key(self) -> tuple:
        """A key that totally orders all symbols (nulls < names < values)."""
        raise NotImplementedError

    def __lt__(self, other: "Symbol") -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __setstate__(self, state: tuple) -> None:
        # ``pickle`` and ``copy`` restore the slots (a lineage copy's
        # ``prov`` among them) here, past the ``__setattr__`` guards.
        for key, value in state[1].items():
            object.__setattr__(self, key, value)


class Name(Symbol):
    """A symbol of the name sort 𝒩 (table and attribute names).

    Names are rendered in typewriter font in the paper; here they print
    bare (e.g. ``Part``) while values print with quotes when textual.
    """

    __slots__ = ("text",)
    _sort_rank = 1

    def __init__(self, text: str):
        if not isinstance(text, str) or not text:
            raise ValueError(f"a Name requires a non-empty string, got {text!r}")
        object.__setattr__(self, "text", text)

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Name is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Name) and other.text == self.text

    def __hash__(self) -> int:
        return hash((Name, self.text))

    def __repr__(self) -> str:
        return f"Name({self.text!r})"

    def __str__(self) -> str:
        return self.text

    @property
    def is_name(self) -> bool:
        return True

    def sort_key(self) -> tuple:
        return (self._sort_rank, self.text)


class Value(Symbol):
    """A symbol of the value sort 𝒱.

    The payload may be any hashable Python object (strings and numbers in
    practice).  Generic operations never branch on the payload; it only
    matters for equality, ordering, and rendering — and for the arithmetic
    offered by the OLAP/spreadsheet layer, which deliberately steps outside
    the generic algebra exactly as the paper's "external functions" do.
    """

    __slots__ = ("payload",)
    _sort_rank = 2

    def __init__(self, payload: Hashable):
        if isinstance(payload, Symbol):
            raise TypeError("Value payload must be a plain Python object, not a Symbol")
        hash(payload)  # fail fast on unhashable payloads
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Value is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Value)
            and not isinstance(other, TaggedValue)
            and not isinstance(self, TaggedValue)
            and other.payload == self.payload
        )

    def __hash__(self) -> int:
        return hash((Value, self.payload))

    def __repr__(self) -> str:
        return f"Value({self.payload!r})"

    def __str__(self) -> str:
        if isinstance(self.payload, str):
            return f"'{self.payload}'"
        return str(self.payload)

    @property
    def is_value(self) -> bool:
        return True

    def sort_key(self) -> tuple:
        payload = self.payload
        # Order numbers before everything else, then strings, then the rest
        # by repr; this keeps sorting total across heterogeneous payloads.
        # Numbers compare exactly, so only equal ones tie (a float key would
        # tie unequal ints beyond 2**53, and overflow beyond 1e308).
        if isinstance(payload, (bool, int, float)):
            return (self._sort_rank, 0, payload)
        if isinstance(payload, str):
            return (self._sort_rank, 2, payload)
        return (self._sort_rank, 3, repr(payload))


class TaggedValue(Value):
    """A *new* value created by a tagging operation (TUPLENEW / SETNEW).

    Tagged values are drawn "non-deterministically from 𝒮" in the paper;
    here they come from a :class:`FreshValueSource`, which makes programs
    reproducible while preserving determinacy up to the choice of new
    values (transformation condition (iv)).
    """

    __slots__ = ()
    _sort_rank = 3

    def __init__(self, tag: int):
        if not isinstance(tag, int) or tag < 0:
            raise ValueError(f"a TaggedValue requires a non-negative int tag, got {tag!r}")
        super().__init__(tag)

    def __eq__(self, other) -> bool:
        return isinstance(other, TaggedValue) and other.payload == self.payload

    def __hash__(self) -> int:
        return hash((TaggedValue, self.payload))

    def __repr__(self) -> str:
        return f"TaggedValue({self.payload})"

    def __str__(self) -> str:
        return f"@{self.payload}"

    def sort_key(self) -> tuple:
        return (self._sort_rank, self.payload)


class Null(Symbol):
    """The inapplicable null ``⊥``.  Use the :data:`NULL` singleton."""

    __slots__ = ()
    _sort_rank = 0
    _instance: "Null | None" = None

    def __new__(cls) -> "Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other) -> bool:
        return isinstance(other, Null)

    def __hash__(self) -> int:
        return hash(Null)

    def __repr__(self) -> str:
        return "NULL"

    def __str__(self) -> str:
        return "⊥"

    @property
    def is_null(self) -> bool:
        return True

    def sort_key(self) -> tuple:
        return (self._sort_rank,)


#: The unique inapplicable-null symbol ``⊥``.
NULL = Null()


class FreshValueSource:
    """Deterministic source of globally fresh :class:`TaggedValue` symbols.

    The tagging operations require values "distinct … chosen
    non-deterministically from 𝒮".  A source hands out tagged values with
    strictly increasing tags; :meth:`advance_past` lets an interpreter skip
    tags already present in a database so freshness is guaranteed.
    """

    def __init__(self, start: int = 0):
        self._next = start

    def fresh(self) -> TaggedValue:
        """Return a tagged value never returned by this source before."""
        value = TaggedValue(self._next)
        self._next += 1
        return value

    def advance_past(self, symbols: Iterable[Symbol]) -> None:
        """Ensure future fresh values differ from every tagged value given."""
        for symbol in symbols:
            if isinstance(symbol, TaggedValue):
                self._next = max(self._next, symbol.payload + 1)

    @property
    def next_tag(self) -> int:
        """The tag the next call to :meth:`fresh` will use."""
        return self._next

    def reset_to(self, tag: int) -> None:
        """Rewind (or fast-forward) the source so the next tag is ``tag``.

        Only safe when every tagged value handed out at or after ``tag``
        has been discarded — the snapshot-and-commit statement semantics
        of the hardened runtime and checkpoint restore, where a failed
        statement's partial results (and the tags minted for them) are
        thrown away wholesale.
        """
        if not isinstance(tag, int) or tag < 0:
            raise ValueError(f"reset_to requires a non-negative int tag, got {tag!r}")
        self._next = tag


def coerce_symbol(obj: object) -> Symbol:
    """Coerce a Python object into a :class:`Symbol`.

    ``Symbol`` instances pass through, ``None`` becomes :data:`NULL`, and
    anything else becomes a :class:`Value` with that payload.  Strings are
    *values* by default; use :class:`Name` (or :func:`coerce_name`)
    explicitly for names, mirroring the paper's typographic distinction.
    """
    if isinstance(obj, Symbol):
        return obj
    if obj is None:
        return NULL
    return Value(obj)


def coerce_name(obj: object) -> Name:
    """Coerce a string or :class:`Name` into a :class:`Name`."""
    if isinstance(obj, Name):
        return obj
    if isinstance(obj, str):
        return Name(obj)
    raise TypeError(f"expected a Name or string, got {obj!r}")


def strip_null(symbols: Iterable[Symbol]) -> frozenset[Symbol]:
    """Return ``A \\ {⊥}`` as a frozenset."""
    return frozenset(s for s in symbols if not s.is_null)


def weakly_contained(left: Iterable[Symbol], right: Iterable[Symbol]) -> bool:
    """Weak containment ``A ⊑ B``:  ``A \\ {⊥} ⊆ B \\ {⊥}``."""
    return strip_null(left) <= strip_null(right)


def weakly_equal(left: Iterable[Symbol], right: Iterable[Symbol]) -> bool:
    """Weak equality ``A ≈ B``:  ``A ⊑ B`` and ``B ⊑ A``."""
    return strip_null(left) == strip_null(right)


def iter_symbols(objs: Iterable[object]) -> Iterator[Symbol]:
    """Coerce each object in ``objs`` via :func:`coerce_symbol`."""
    for obj in objs:
        yield coerce_symbol(obj)
