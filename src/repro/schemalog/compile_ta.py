"""Theorem 4.5 — embedding SchemaLog_d into the tabular algebra.

The compilation factors through FO + while + new over the flattened
``Facts(Rel, Tid, Attr, Val)`` relation and then reuses the Theorem 4.1
compiler, mirroring how the paper's results stack: the fact space of
SchemaLog_d is fixed-width (exactly like the canonical representation), so
rule evaluation is relational, and relational iteration is simulable in
the tabular algebra.

Per rule with body schema-atoms ``a_1 … a_n`` and builtins:

1. take the product of n copies of the current fact relation, the i-th
   renamed to ``(R_i, T_i, A_i, V_i)``;
2. apply a constant selection per constant component and an equality
   selection per repeated variable;
3. compile ``=``/``!=`` builtins into (difference over) equality
   selections — order comparisons are rejected, since they distinguish
   individual values and are therefore not *generic* (condition (i)):
   they lie outside the transformations the tabular algebra computes;
4. project/rename onto the head components (constants become
   ``ConstColumn`` extensions; a head variable used more often than the
   body binds it is duplicated through a self-join).

The whole program becomes the usual fixpoint loop::

    Derived := Facts;  Delta := Facts
    while Delta ≠ ∅:
        New     := ∪ rules (rule body over Derived)
        Delta   := New \\ Derived
        Derived := Derived ∪ Delta

Ground facts inside a program are *not* compilable (no tabular algebra
expression conjures a specific value out of an empty database); put them
in the database, where they belong, or use the native evaluator.
"""

from __future__ import annotations

from ..core import EvaluationError, Symbol
from ..algebra.programs import Program
from ..relational import (
    Assign,
    ConstColumn,
    Difference,
    Expr,
    FWProgram,
    Product,
    Project,
    Rel,
    RenameAttr,
    SelectConst,
    SelectEq,
    Union,
    WhileNotEmpty,
    compile_program as compile_fw_to_ta,
    compile_span,
)
from .model import FACTS_SCHEMA
from .stratify import stratify
from .terms import Builtin, Const, Rule, SchemaLogProgram, Var

__all__ = ["rule_to_expression", "compile_to_fw", "compile_to_ta", "DERIVED", "FACTS"]

#: Relation names used by the compiled fixpoint loop.
FACTS = "Facts"
DERIVED = "Derived"
_POSITION_PREFIXES = ("R", "T", "A", "V")


def _copy_expr(source: str, index: int) -> Expr:
    """The ``index``-th fact copy, renamed to R{i}, T{i}, A{i}, V{i}."""
    expr: Expr = Rel(source)
    for attr, prefix in zip(FACTS_SCHEMA, _POSITION_PREFIXES):
        expr = RenameAttr(expr, attr, f"{prefix}{index}")
    return expr


def rule_to_expression(rule: Rule, source: str = DERIVED) -> Expr:
    """The relational expression deriving one rule's head instances.

    The output schema is exactly ``FACTS_SCHEMA``.
    """
    if rule.is_fact:
        raise EvaluationError(
            "ground facts are not compilable into the tabular algebra; "
            "load them into the database or use the native evaluator"
        )
    schema_atoms = list(rule.positive_atoms())
    builtins = list(rule.builtins())
    negated_atoms = list(rule.negated_atoms())

    # 1. product of renamed copies
    expr = _copy_expr(source, 0)
    for index in range(1, len(schema_atoms)):
        expr = Product(expr, _copy_expr(source, index))

    # 2. constants and repeated variables
    var_columns: dict[Var, list[str]] = {}
    for index, atom in enumerate(schema_atoms):
        for term, prefix in zip(atom.terms(), _POSITION_PREFIXES):
            column = f"{prefix}{index}"
            if isinstance(term, Const):
                expr = SelectConst(expr, column, term.symbol)
            else:
                var_columns.setdefault(term, []).append(column)
    for columns in var_columns.values():
        for other in columns[1:]:
            expr = SelectEq(expr, columns[0], other)

    # 3. builtins (= and != only; order comparisons are not generic)
    def equality(e: Expr, builtin: Builtin) -> Expr:
        left, right = builtin.left, builtin.right
        if isinstance(left, Const) and isinstance(right, Const):
            if left.symbol == right.symbol:
                return e
            return Difference(e, e)
        if isinstance(left, Const):
            left, right = right, left
        assert isinstance(left, Var)
        column = var_columns[left][0]
        if isinstance(right, Const):
            return SelectConst(e, column, right.symbol)
        return SelectEq(e, column, var_columns[right][0])

    for builtin in builtins:
        if builtin.op == "=":
            expr = equality(expr, builtin)
        elif builtin.op == "!=":
            expr = Difference(expr, equality(expr, builtin))
        else:
            raise EvaluationError(
                f"builtin {builtin} is not generic and cannot be compiled "
                "into the tabular algebra (native evaluation supports it)"
            )

    # 3b. stratified negation: subtract the bindings a matching fact kills.
    # The positive expression's schema is the concatenated copy columns.
    positive_columns = [
        f"{prefix}{index}"
        for index in range(len(schema_atoms))
        for prefix in _POSITION_PREFIXES
    ]
    for offset, negated in enumerate(negated_atoms):
        copy_index = len(schema_atoms) + offset
        copy: Expr = Rel(source)
        copy_columns = []
        for attr, prefix in zip(FACTS_SCHEMA, _POSITION_PREFIXES):
            column = f"{prefix}{copy_index}"
            copy = RenameAttr(copy, attr, column)
            copy_columns.append(column)
        matching: Expr = Product(expr, copy)
        local_columns: dict[Var, str] = {}
        for term, column in zip(negated.atom.terms(), copy_columns):
            if isinstance(term, Const):
                matching = SelectConst(matching, column, term.symbol)
            elif term in var_columns:
                matching = SelectEq(matching, var_columns[term][0], column)
            elif term in local_columns:
                # a variable local to the negation, repeated: equate copies
                matching = SelectEq(matching, local_columns[term], column)
            else:
                local_columns[term] = column  # existential: unconstrained
        expr = Difference(expr, Project(matching, positive_columns))

    # 4. head: assign a distinct source column per head slot
    used: list[str] = []
    const_slots: list[tuple[str, Symbol]] = []
    slot_sources: list[tuple[str, str]] = []  # (target, source column)
    duplicates = 0
    for target, term in zip(FACTS_SCHEMA, rule.head.terms()):
        if isinstance(term, Const):
            const_slots.append((target, term.symbol))
            continue
        pool = [c for c in var_columns[term] if c not in used]
        if pool:
            source_col = pool[0]
        else:
            # duplicate the variable's first column through a self-join
            original = var_columns[term][0]
            source_col = f"D{duplicates}"
            duplicates += 1
            copy = RenameAttr(Project(expr, [original]), original, source_col)
            expr = SelectEq(Product(expr, copy), original, source_col)
            var_columns[term].append(source_col)
        used.append(source_col)
        slot_sources.append((target, source_col))

    expr = Project(expr, [source_col for (_t, source_col) in slot_sources])
    for target, source_col in slot_sources:
        expr = RenameAttr(expr, source_col, target)
    for target, symbol in const_slots:
        expr = ConstColumn(expr, target, symbol)
    return Project(expr, FACTS_SCHEMA)


def compile_to_fw(program: SchemaLogProgram) -> FWProgram:
    """Compile a SchemaLog_d program to FO + while + new over ``Facts``.

    The result binds ``Derived`` to the (stratified) least fixpoint,
    which includes the input facts.  Each stratum gets its own fixpoint
    loop, in stratification order, so negated atoms always read a
    completed lower stratum.
    """
    if program.facts():
        raise EvaluationError(
            "ground facts are not compilable; add them to the Facts relation"
        )
    strata = stratify(program)
    with compile_span(
        "compile.schemalog", lambda: {"rules": len(program), "strata": len(strata)}
    ):
        statements = [Assign(DERIVED, Rel(FACTS))]
        for level, stratum_rules in enumerate(strata):
            union: Expr = rule_to_expression(stratum_rules[0])
            for rule in stratum_rules[1:]:
                union = Union(union, rule_to_expression(rule))
            delta = f"Delta{level}"
            statements.append(Assign(delta, Rel(DERIVED)))
            statements.append(
                WhileNotEmpty(
                    delta,
                    [
                        Assign("New", union),
                        Assign(delta, Difference(Rel("New"), Rel(DERIVED))),
                        Assign(DERIVED, Union(Rel(DERIVED), Rel(delta))),
                    ],
                )
            )
        return FWProgram(statements)


def compile_to_ta(program: SchemaLogProgram) -> Program:
    """Theorem 4.5: the equivalent tabular algebra program.

    Run it on a database holding the ``Facts`` table
    (:meth:`SchemaLogDatabase.facts_table`); the fixpoint lands in the
    ``Derived`` table.
    """
    return compile_fw_to_ta(compile_to_fw(program), {FACTS: FACTS_SCHEMA})
