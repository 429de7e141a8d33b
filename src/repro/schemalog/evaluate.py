"""Bottom-up semi-naive evaluation of SchemaLog_d programs.

The standard Datalog fixpoint machinery, lifted to the quadruple fact
space: a rule fires for every substitution that matches all its body
schema-atoms against known facts and satisfies its builtins; the head
instance is derived.  Semi-naive evaluation requires at least one body
atom to match a *new* fact from the previous round, so each fact is
derived once.

Built-in comparisons: ``=`` and ``!=`` compare symbols; the order
comparisons compare value payloads and are defined only between
values of mutually orderable payloads (a practical superset of the
paper's "standard built-in predicates").
"""

from __future__ import annotations

from typing import Iterator

from ..core import EvaluationError, Symbol, Value
from .model import Fact, SchemaLogDatabase
from .stratify import stratify
from .terms import (
    Builtin,
    Const,
    NegatedAtom,
    Rule,
    SchemaAtom,
    SchemaLogProgram,
    Var,
)

__all__ = ["evaluate", "derive_once", "match_atom", "satisfies_builtin"]

Substitution = dict[Var, Symbol]


def match_atom(
    atom: SchemaAtom, fact: Fact, binding: Substitution
) -> Substitution | None:
    """Extend ``binding`` so that ``atom`` matches ``fact``, or None."""
    extended = dict(binding)
    for term, symbol in zip(atom.terms(), fact):
        if isinstance(term, Const):
            if term.symbol != symbol:
                return None
        else:
            bound = extended.get(term)
            if bound is None:
                extended[term] = symbol
            elif bound != symbol:
                return None
    return extended


def _term_value(term, binding: Substitution) -> Symbol:
    if isinstance(term, Const):
        return term.symbol
    if term not in binding:
        raise EvaluationError(f"unbound variable {term} in builtin")
    return binding[term]


def satisfies_builtin(builtin: Builtin, binding: Substitution) -> bool:
    """Evaluate a ground builtin under ``binding``."""
    left = _term_value(builtin.left, binding)
    right = _term_value(builtin.right, binding)
    if builtin.op == "=":
        return left == right
    if builtin.op == "!=":
        return left != right
    if not (isinstance(left, Value) and isinstance(right, Value)):
        raise EvaluationError(
            f"order comparison {builtin} requires value operands, "
            f"got {left!s} and {right!s}"
        )
    try:
        if builtin.op == "<":
            return left.payload < right.payload
        if builtin.op == "<=":
            return left.payload <= right.payload
        if builtin.op == ">":
            return left.payload > right.payload
        return left.payload >= right.payload
    except TypeError as exc:
        raise EvaluationError(f"incomparable payloads in {builtin}: {exc}") from exc


def _instantiate_head(head: SchemaAtom, binding: Substitution) -> Fact:
    components = []
    for term in head.terms():
        if isinstance(term, Const):
            components.append(term.symbol)
        else:
            components.append(binding[term])
    return tuple(components)  # type: ignore[return-value]


def _negation_holds(
    negated: NegatedAtom, binding: Substitution, all_facts: frozenset[Fact]
) -> bool:
    """True iff no fact matches the (safely bound) negated atom."""
    for fact in all_facts:
        if match_atom(negated.atom, fact, binding) is not None:
            return False
    return True


def _rule_matches(
    rule: Rule,
    all_facts: frozenset[Fact],
    delta: frozenset[Fact],
) -> Iterator[Fact]:
    """Head instances derivable with at least one body atom in ``delta``."""
    schema_atoms = list(rule.positive_atoms())
    builtins = list(rule.builtins())
    negated = list(rule.negated_atoms())

    def extend(idx: int, binding: Substitution, used_delta: bool) -> Iterator[Substitution]:
        if idx == len(schema_atoms):
            if used_delta or not schema_atoms:
                yield binding
            return
        atom = schema_atoms[idx]
        # the last undecided atom must hit delta if nothing has yet
        for fact in all_facts:
            extended = match_atom(atom, fact, binding)
            if extended is None:
                continue
            yield from extend(idx + 1, extended, used_delta or fact in delta)

    for binding in extend(0, {}, False):
        if not all(satisfies_builtin(b, binding) for b in builtins):
            continue
        if all(_negation_holds(n, binding, all_facts) for n in negated):
            yield _instantiate_head(rule.head, binding)


def derive_once(
    program: SchemaLogProgram, db: SchemaLogDatabase
) -> SchemaLogDatabase:
    """One naive application of every rule (facts included)."""
    derived: set[Fact] = set(db.facts)
    for rule in program:
        if rule.is_fact:
            derived.add(_instantiate_head(rule.head, {}))
        else:
            derived.update(_rule_matches(rule, db.facts, db.facts))
    return SchemaLogDatabase(derived)


def evaluate(
    program: SchemaLogProgram,
    db: SchemaLogDatabase,
    max_rounds: int = 10_000,
) -> SchemaLogDatabase:
    """The (stratified) least fixpoint of ``program`` over ``db``.

    Purely positive programs evaluate semi-naive as one stratum; programs
    with negation evaluate stratum by stratum (the perfect model), with
    each negated atom read against the completed lower strata.
    """
    facts: set[Fact] = set(db.facts)
    for rule in program.facts():
        facts.add(_instantiate_head(rule.head, {}))
    for stratum_rules in stratify(program):
        delta = frozenset(facts)
        rounds = 0
        while delta:
            rounds += 1
            if rounds > max_rounds:
                raise EvaluationError(
                    f"fixpoint not reached within {max_rounds} rounds"
                )
            new: set[Fact] = set()
            known = frozenset(facts)
            for rule in stratum_rules:
                for fact in _rule_matches(rule, known, delta):
                    if fact not in facts:
                        new.add(fact)
            facts |= new
            delta = frozenset(new)
    return SchemaLogDatabase(facts)
