"""Terms, atoms, and rules of SchemaLog_d (paper, Section 4.2).

SchemaLog_d is the stripped-down, single-database version of SchemaLog
[11, 12] the paper compares against.  Its atomic formulas are

    ``Rel[Tid : Attr → Value]``

with each of the four components a constant or a variable — relation and
attribute names are *first-class citizens* (a variable may range over
relation names: that is the syntactically higher-order feature), and tuple
ids are explicit.  Standard built-in comparison predicates round out the
atom language; function symbols are excluded (the fragment of
Theorem 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union as TypingUnion

from ..core import Symbol

__all__ = [
    "Var",
    "Const",
    "Term",
    "SchemaAtom",
    "NegatedAtom",
    "Builtin",
    "Atom",
    "Rule",
    "SchemaLogProgram",
]


@dataclass(frozen=True)
class Var:
    """A logical variable (conventionally capitalized)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A constant term holding a symbol."""

    symbol: Symbol

    def __str__(self) -> str:
        return str(self.symbol)


Term = TypingUnion[Var, Const]


@dataclass(frozen=True)
class SchemaAtom:
    """``rel[tid : attr → value]``."""

    rel: Term
    tid: Term
    attr: Term
    value: Term

    def terms(self) -> tuple[Term, Term, Term, Term]:
        return (self.rel, self.tid, self.attr, self.value)

    def variables(self) -> frozenset[Var]:
        return frozenset(t for t in self.terms() if isinstance(t, Var))

    def __str__(self) -> str:
        return f"{self.rel}[{self.tid}: {self.attr} -> {self.value}]"


@dataclass(frozen=True)
class NegatedAtom:
    """``not rel[tid : attr → value]`` — stratified negation.

    SchemaLog proper includes negation; the stratified discipline makes it
    well-defined bottom-up.  For stratification to be computable in the
    presence of relation-name *variables*, the relation component of a
    negated atom must be a constant (a variable there would make the atom
    depend on every derivable relation at once).
    """

    atom: SchemaAtom

    def __post_init__(self):
        if not isinstance(self.atom.rel, Const):
            raise ValueError(
                "the relation of a negated atom must be a constant "
                "(stratification over relation-name variables is undefined)"
            )

    def variables(self) -> frozenset[Var]:
        return self.atom.variables()

    def __str__(self) -> str:
        return f"not {self.atom}"


#: Builtin comparison operators.  ``=`` and ``!=`` are generic (and hence
#: compilable into tabular algebra); the order comparisons distinguish
#: individual values and are supported by the native evaluator only.
COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Builtin:
    """A builtin comparison ``left op right``."""

    op: str
    left: Term
    right: Term

    def __post_init__(self):
        if self.op not in COMPARISONS:
            raise ValueError(f"unknown builtin operator {self.op!r}")

    def variables(self) -> frozenset[Var]:
        return frozenset(t for t in (self.left, self.right) if isinstance(t, Var))

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


Atom = TypingUnion[SchemaAtom, NegatedAtom, Builtin]


@dataclass(frozen=True)
class Rule:
    """``head :- body``.  An empty body makes the rule a ground fact."""

    head: SchemaAtom
    body: tuple[Atom, ...] = ()

    def __post_init__(self):
        body_vars: set[Var] = set()
        for atom in self.body:
            if isinstance(atom, SchemaAtom):
                body_vars |= atom.variables()
        # builtins may only use variables bound by positive schema atoms
        # (safety); variables local to a negated atom are existential
        # within the negation ("no U such that …") and need no binding
        for atom in self.body:
            if isinstance(atom, Builtin):
                unbound = atom.variables() - body_vars
                if unbound:
                    raise ValueError(
                        f"unsafe {atom}: unbound variable(s) "
                        f"{sorted(v.name for v in unbound)}"
                    )
        unbound_head = self.head.variables() - body_vars
        if unbound_head:
            raise ValueError(
                f"unsafe rule: head variable(s) "
                f"{sorted(v.name for v in unbound_head)} not bound in the body"
            )

    def positive_atoms(self) -> tuple[SchemaAtom, ...]:
        return tuple(a for a in self.body if isinstance(a, SchemaAtom))

    def negated_atoms(self) -> tuple[NegatedAtom, ...]:
        return tuple(a for a in self.body if isinstance(a, NegatedAtom))

    def builtins(self) -> tuple[Builtin, ...]:
        return tuple(a for a in self.body if isinstance(a, Builtin))

    @property
    def is_fact(self) -> bool:
        return not self.body

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}."


@dataclass(frozen=True)
class SchemaLogProgram:
    """A finite set of rules (kept in source order)."""

    rules: tuple[Rule, ...]

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def facts(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.is_fact)

    def proper_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if not r.is_fact)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)
