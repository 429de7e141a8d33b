"""Classical relational algebra over :mod:`repro.relational.relation`.

The expression AST covers the standard named-perspective operations —
relation reference, union, difference, intersection, Cartesian product
(disjoint schemas), projection, selection (attribute = attribute and
attribute = constant), renaming, and natural join (derived).  This is the
FO core of FO + while + new: relational algebra and domain-independent FO
queries are interchangeable, and the algebraic formulation is what both
the interpreter and the TA compiler consume.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable

from ..core import SchemaError, Symbol, coerce_symbol
from .relation import Relation, RelationalDatabase

__all__ = [
    "Expr",
    "Rel",
    "Union",
    "Difference",
    "Intersection",
    "Product",
    "Project",
    "SelectEq",
    "SelectConst",
    "RenameAttr",
    "ConstColumn",
    "Join",
]


class Expr:
    """Abstract base of relational algebra expressions.

    A leaf defines :meth:`schema`; an operator defines :meth:`output`, its
    typing rule over its operands' schemas.
    """

    def schema(self, db: RelationalDatabase) -> tuple[str, ...]:
        """The output schema against ``db`` (validates the expression).

        Raises :class:`~repro.core.SchemaError` exactly where
        :meth:`evaluate` would.  This is also the Theorem 4.1 compiler's
        typing (:mod:`repro.relational.compile_ta`): the compiler calls it
        over a database of empty relations, one per name in scope, so a
        compiled program is rejected exactly where native evaluation is.
        """
        return self.typed(db)

    def typed(self, db: RelationalDatabase, joins: dict | None = None) -> tuple[str, ...]:
        """:meth:`schema`, typing each subexpression once, bottom up.

        ``joins``, when given, receives each join's operand schemas under
        the join's ``id``: the compiler expands a join from them instead of
        typing its operands again.
        """
        return self.schema(db)

    def output(self, *schemas: tuple[str, ...]) -> tuple[str, ...]:
        """The output schema given the operands' ``schemas``.

        Raises :class:`~repro.core.SchemaError` where :meth:`evaluate`
        would on operands of those schemas.
        """
        raise NotImplementedError

    def evaluate(self, db: RelationalDatabase) -> Relation:
        """Evaluate to an (anonymous) relation against ``db``."""
        raise NotImplementedError

    # -- sugar ----------------------------------------------------------

    def __or__(self, other: "Expr") -> "Union":
        return Union(self, other)

    def __sub__(self, other: "Expr") -> "Difference":
        return Difference(self, other)

    def __and__(self, other: "Expr") -> "Intersection":
        return Intersection(self, other)

    def __mul__(self, other: "Expr") -> "Product":
        return Product(self, other)

    def project(self, *attrs: str) -> "Project":
        return Project(self, attrs)

    def where_eq(self, left: str, right: str) -> "SelectEq":
        return SelectEq(self, left, right)

    def where_const(self, attr: str, value: object) -> "SelectConst":
        return SelectConst(self, attr, value)

    def rename(self, old: str, new: str) -> "RenameAttr":
        return RenameAttr(self, old, new)


class Rel(Expr):
    """Reference to a database relation by name."""

    def __init__(self, name: str):
        self.name = name

    def schema(self, db: RelationalDatabase) -> tuple[str, ...]:
        return db.relation(self.name).schema

    def evaluate(self, db: RelationalDatabase) -> Relation:
        return db.relation(self.name)

    def __repr__(self) -> str:
        return self.name


class _Binary(Expr):
    symbol = "?"

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def typed(self, db: RelationalDatabase, joins: dict | None = None) -> tuple[str, ...]:
        return self.output(self.left.typed(db, joins), self.right.typed(db, joins))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class _Unary(Expr):
    inner: Expr

    def typed(self, db: RelationalDatabase, joins: dict | None = None) -> tuple[str, ...]:
        return self.output(self.inner.typed(db, joins))


class _SetOperation(_Binary):
    """A set operation over union-compatible relations."""

    combine: Callable[[frozenset, frozenset], frozenset]

    def output(self, left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
        if left != right:
            raise SchemaError(f"union-incompatible schemas {left} vs {right}")
        return left

    def evaluate(self, db: RelationalDatabase) -> Relation:
        left = self.left.evaluate(db)
        right = self.right.evaluate(db)
        schema = self.output(left.schema, right.schema)
        return Relation("", schema, self.combine(left.tuples, right.tuples))


class Union(_SetOperation):
    """Set union of union-compatible relations."""

    symbol = "∪"
    combine = staticmethod(operator.or_)


class Difference(_SetOperation):
    """Set difference of union-compatible relations."""

    symbol = "\\"
    combine = staticmethod(operator.sub)


class Intersection(_SetOperation):
    """Set intersection (derived: ``L \\ (L \\ R)``)."""

    symbol = "∩"
    combine = staticmethod(operator.and_)


class Product(_Binary):
    """Cartesian product; the operand schemas must be disjoint."""

    symbol = "×"

    def output(self, left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
        if set(left) & set(right):
            raise SchemaError(
                f"product schemas overlap on {sorted(set(left) & set(right))}"
            )
        return left + right

    def evaluate(self, db: RelationalDatabase) -> Relation:
        left = self.left.evaluate(db)
        right = self.right.evaluate(db)
        return Relation(
            "",
            self.output(left.schema, right.schema),
            (l + r for l in left.tuples for r in right.tuples),
        )


class Project(_Unary):
    """Projection onto a list of attributes (duplicates removed)."""

    def __init__(self, inner: Expr, attrs: Iterable[str]):
        self.inner = inner
        self.attrs = tuple(attrs)
        if len(set(self.attrs)) != len(self.attrs):
            raise SchemaError(f"duplicate projection attributes {self.attrs}")

    def output(self, inner: tuple[str, ...]) -> tuple[str, ...]:
        missing = [a for a in self.attrs if a not in inner]
        if missing:
            raise SchemaError(f"projection onto unknown attributes {missing}")
        return self.attrs

    def evaluate(self, db: RelationalDatabase) -> Relation:
        inner = self.inner.evaluate(db)
        indices = [inner.attribute_index(a) for a in self.attrs]
        return Relation(
            "", self.attrs, (tuple(row[i] for i in indices) for row in inner.tuples)
        )

    def __repr__(self) -> str:
        return f"π[{', '.join(self.attrs)}]({self.inner!r})"


class SelectEq(_Unary):
    """Selection σ_{A=B}."""

    def __init__(self, inner: Expr, left: str, right: str):
        self.inner = inner
        self.left = left
        self.right = right

    def output(self, inner: tuple[str, ...]) -> tuple[str, ...]:
        for attr in (self.left, self.right):
            if attr not in inner:
                raise SchemaError(f"selection on unknown attribute {attr!r}")
        return inner

    def evaluate(self, db: RelationalDatabase) -> Relation:
        inner = self.inner.evaluate(db)
        i = inner.attribute_index(self.left)
        j = inner.attribute_index(self.right)
        return Relation(
            "", inner.schema, (row for row in inner.tuples if row[i] == row[j])
        )

    def __repr__(self) -> str:
        return f"σ[{self.left}={self.right}]({self.inner!r})"


class SelectConst(_Unary):
    """Selection σ_{A=c} for a constant c."""

    def __init__(self, inner: Expr, attr: str, value: object):
        self.inner = inner
        self.attr = attr
        self.value: Symbol = coerce_symbol(value)

    def output(self, inner: tuple[str, ...]) -> tuple[str, ...]:
        if self.attr not in inner:
            raise SchemaError(f"selection on unknown attribute {self.attr!r}")
        return inner

    def evaluate(self, db: RelationalDatabase) -> Relation:
        inner = self.inner.evaluate(db)
        i = inner.attribute_index(self.attr)
        return Relation(
            "", inner.schema, (row for row in inner.tuples if row[i] == self.value)
        )

    def __repr__(self) -> str:
        return f"σ[{self.attr}={self.value!s}]({self.inner!r})"


class RenameAttr(_Unary):
    """Attribute renaming ρ_{B←A}."""

    def __init__(self, inner: Expr, old: str, new: str):
        self.inner = inner
        self.old = old
        self.new = new

    def output(self, inner: tuple[str, ...]) -> tuple[str, ...]:
        if self.old not in inner:
            raise SchemaError(f"renaming unknown attribute {self.old!r}")
        renamed = tuple(self.new if a == self.old else a for a in inner)
        if len(set(renamed)) != len(renamed):
            raise SchemaError(f"renaming to {self.new!r} collides with the schema")
        return renamed

    def evaluate(self, db: RelationalDatabase) -> Relation:
        inner = self.inner.evaluate(db)
        return Relation("", self.output(inner.schema), inner.tuples)

    def __repr__(self) -> str:
        return f"ρ[{self.new}←{self.old}]({self.inner!r})"


class ConstColumn(_Unary):
    """Extend every tuple with a constant under a new attribute.

    Not part of the classical algebra; it exists so that rule heads with
    explicit constants compile (the SchemaLog embedding), and it maps to
    the tabular algebra's derived ``CONSTCOLUMN`` operation.
    """

    def __init__(self, inner: Expr, attr: str, value: object):
        self.inner = inner
        self.attr = attr
        self.value: Symbol = coerce_symbol(value)

    def output(self, inner: tuple[str, ...]) -> tuple[str, ...]:
        if self.attr in inner:
            raise SchemaError(f"attribute {self.attr!r} already present")
        return inner + (self.attr,)

    def evaluate(self, db: RelationalDatabase) -> Relation:
        inner = self.inner.evaluate(db)
        return Relation(
            "", self.output(inner.schema), (row + (self.value,) for row in inner.tuples)
        )

    def __repr__(self) -> str:
        return f"ε[{self.attr}={self.value!s}]({self.inner!r})"


class Join(_Binary):
    """Natural join (derived from product, selection, and projection)."""

    symbol = "⋈"

    def expand(self, left: tuple[str, ...], right: tuple[str, ...]) -> Project:
        """The join as π(σ(left × ρ(right))), given the operand schemas.

        Each common attribute ``X`` of the right operand is renamed to
        ``__join_X``, selected equal to ``X`` and projected away; the
        projection's attributes are the join's schema.  This is the one
        expansion: :meth:`output`, :meth:`evaluate` and the Theorem 4.1
        compiler all call it, each with operand schemas it already has.
        """
        common = [a for a in left if a in right]
        # The rename and the product below are the expansion's only
        # checks that can fail; make them here, so the join's schema
        # raises where evaluating its expansion would.
        taken = {f"__join_{a}" for a in common} & {*left, *right}
        if taken:
            raise SchemaError(f"natural join's temporaries {sorted(taken)} are in use")
        renamed: Expr = self.right
        for attr in common:
            renamed = RenameAttr(renamed, attr, f"__join_{attr}")
        plan: Expr = Product(self.left, renamed)
        for attr in common:
            plan = SelectEq(plan, attr, f"__join_{attr}")
        return Project(plan, left + tuple(a for a in right if a not in common))

    def output(self, left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
        return self.expand(left, right).attrs

    def typed(self, db: RelationalDatabase, joins: dict | None = None) -> tuple[str, ...]:
        operands = (self.left.typed(db, joins), self.right.typed(db, joins))
        if joins is not None:
            joins[id(self)] = operands
        return self.output(*operands)

    def evaluate(self, db: RelationalDatabase) -> Relation:
        left = self.left.evaluate(db)
        right = self.right.evaluate(db)
        evaluated = Join(_Evaluated(left), _Evaluated(right))
        return evaluated.expand(left.schema, right.schema).evaluate(db)


class _Evaluated(Expr):
    """An operand already evaluated: what :meth:`Join.evaluate` expands."""

    def __init__(self, relation: Relation):
        self.relation = relation

    def schema(self, db: RelationalDatabase) -> tuple[str, ...]:
        return self.relation.schema

    def evaluate(self, db: RelationalDatabase) -> Relation:
        return self.relation
