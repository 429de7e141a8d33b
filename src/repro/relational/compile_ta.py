"""Theorem 4.1 — simulating FO + while + new within the tabular algebra.

``compile_program`` translates an FO+while+new program into a tabular
algebra program such that running the translation on the tabular embedding
of a relational database yields the tabular embedding of the original
program's result (for every output relation name).

The translation is compositional:

=======================  =================================================
FO + while + new          tabular algebra
=======================  =================================================
``R``                     the table named R
``e1 ∪ e2``               ``CLASSICALUNION`` (tabular union + purge + clean-up)
``e1 \\ e2``               ``DIFFERENCE`` (mutual subsumption = tuple
                          equality on relation-style tables)
``e1 ∩ e2``               ``INTERSECTION``
``e1 × e2``               ``PRODUCT`` (schemas disjoint ⇒ classical)
``π_A``                   ``PROJECT`` + ``DEDUP`` (set semantics)
``σ_{A=B}``               ``SELECT`` (weak = classical on null-free tables)
``σ_{A=c}``               ``SELECTCONST``
``ρ_{B←A}``               ``RENAME``
``R := new(e)``           ``TUPLENEW``
``while R ≠ ∅``           ``while R``
=======================  =================================================

Natural join is compiled by static expansion into rename/product/select/
project, which requires the operand schemas; the compiler therefore tracks
schemas statically through the program (input schemas are given, and a
while body must be schema-stable, which one extra compilation pass checks).

Intermediate results live in reserved ``__fw<i>`` tables; ``outputs``
restricted comparison ignores them.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..core import EvaluationError, SchemaError, Value
from ..algebra.programs import Assignment, Program, Statement, While
from ..obs import events as _ev
from ..runtime import governor as _gv
from .algebra import (
    ConstColumn,
    Difference,
    Expr,
    Intersection,
    Join,
    Product,
    Project,
    Rel,
    RenameAttr,
    SelectConst,
    SelectEq,
    Union,
)
from .fo_while import Assign, AssignNew, AssignSetNew, FWProgram, FWStatement, WhileNotEmpty

__all__ = ["compile_program", "compile_expression", "compile_span", "TEMP_PREFIX"]

#: Prefix reserved for the compiler's intermediate tables.
TEMP_PREFIX = "__fw"

SchemaEnv = dict[str, tuple[str, ...]]


class _Compiler:
    def __init__(self, env: SchemaEnv):
        self.env: SchemaEnv = dict(env)
        self.counter = 0
        self.statements: list[Statement] = []

    # -- plumbing -------------------------------------------------------

    def fresh_temp(self) -> str:
        name = f"{TEMP_PREFIX}{self.counter}"
        self.counter += 1
        return name

    def emit(self, target: str, op: str, args: list[str], params: dict | None = None) -> str:
        self.statements.append(Assignment(target, op, args, params or {}))
        return target

    # -- expressions ------------------------------------------------------

    def schema_of(self, expr: Expr) -> tuple[str, ...]:
        """Static schema computation mirroring ``Expr.schema``."""
        if isinstance(expr, Rel):
            if expr.name not in self.env:
                raise SchemaError(f"unknown relation {expr.name!r} at compile time")
            return self.env[expr.name]
        if isinstance(expr, (Union, Difference, Intersection)):
            left = self.schema_of(expr.left)
            if left != self.schema_of(expr.right):
                raise SchemaError("union-incompatible schemas")
            return left
        if isinstance(expr, Product):
            left = self.schema_of(expr.left)
            right = self.schema_of(expr.right)
            if set(left) & set(right):
                raise SchemaError("product schemas overlap")
            return left + right
        if isinstance(expr, Project):
            inner = self.schema_of(expr.inner)
            missing = [a for a in expr.attrs if a not in inner]
            if missing:
                raise SchemaError(f"projection onto unknown attributes {missing}")
            return expr.attrs
        if isinstance(expr, (SelectEq, SelectConst)):
            return self.schema_of(expr.inner)
        if isinstance(expr, RenameAttr):
            inner = self.schema_of(expr.inner)
            if expr.old not in inner:
                raise SchemaError(f"renaming unknown attribute {expr.old!r}")
            return tuple(expr.new if a == expr.old else a for a in inner)
        if isinstance(expr, ConstColumn):
            inner = self.schema_of(expr.inner)
            if expr.attr in inner:
                raise SchemaError(f"attribute {expr.attr!r} already present")
            return inner + (expr.attr,)
        if isinstance(expr, Join):
            return self.schema_of(self.expand_join(expr))
        raise EvaluationError(f"cannot compile expression {expr!r}")

    def expand_join(self, join: Join) -> Expr:
        """Statically expand a natural join (needs both operand schemas)."""
        left_schema = self.schema_of(join.left)
        right_schema = self.schema_of(join.right)
        common = [a for a in left_schema if a in right_schema]
        renamed: Expr = join.right
        for attr in common:
            renamed = RenameAttr(renamed, attr, f"__join_{attr}")
        plan: Expr = Product(join.left, renamed)
        for attr in common:
            plan = SelectEq(plan, attr, f"__join_{attr}")
        output = left_schema + tuple(a for a in right_schema if a not in common)
        return Project(plan, output)

    def compile_expr(self, expr: Expr) -> str:
        """Emit statements computing ``expr``; return the holding table name."""
        if isinstance(expr, Rel):
            return expr.name
        if isinstance(expr, Union):
            left, right = self.compile_expr(expr.left), self.compile_expr(expr.right)
            return self.emit(self.fresh_temp(), "CLASSICALUNION", [left, right])
        if isinstance(expr, Difference):
            left, right = self.compile_expr(expr.left), self.compile_expr(expr.right)
            return self.emit(self.fresh_temp(), "DIFFERENCE", [left, right])
        if isinstance(expr, Intersection):
            left, right = self.compile_expr(expr.left), self.compile_expr(expr.right)
            return self.emit(self.fresh_temp(), "INTERSECTION", [left, right])
        if isinstance(expr, Product):
            self.schema_of(expr)  # validate disjointness
            left, right = self.compile_expr(expr.left), self.compile_expr(expr.right)
            return self.emit(self.fresh_temp(), "PRODUCT", [left, right])
        if isinstance(expr, Project):
            inner = self.compile_expr(expr.inner)
            projected = self.emit(
                self.fresh_temp(), "PROJECT", [inner], {"attrs": list(expr.attrs)}
            )
            return self.emit(self.fresh_temp(), "DEDUP", [projected])
        if isinstance(expr, SelectEq):
            inner = self.compile_expr(expr.inner)
            # Selecting a compiler temporary overwrites it in place: the
            # temp has exactly one reader (this select), and emitting
            # ``T <- SELECT (T)`` right after ``T <- PRODUCT`` gives the
            # vector engine's planner the adjacent same-target pair it
            # fuses into a PRODUCTSELECT hash join (expand_join produces
            # precisely this shape for every join condition).
            target = inner if inner.startswith(TEMP_PREFIX) else self.fresh_temp()
            return self.emit(
                target, "SELECT", [inner], {"left": expr.left, "right": expr.right}
            )
        if isinstance(expr, SelectConst):
            inner = self.compile_expr(expr.inner)
            return self.emit(
                self.fresh_temp(),
                "SELECTCONST",
                [inner],
                {"attr": expr.attr, "value": expr.value},
            )
        if isinstance(expr, RenameAttr):
            inner = self.compile_expr(expr.inner)
            return self.emit(
                self.fresh_temp(), "RENAME", [inner], {"old": expr.old, "new": expr.new}
            )
        if isinstance(expr, ConstColumn):
            self.schema_of(expr)  # validate attribute freshness
            inner = self.compile_expr(expr.inner)
            return self.emit(
                self.fresh_temp(),
                "CONSTCOLUMN",
                [inner],
                {"attr": expr.attr, "value": expr.value},
            )
        if isinstance(expr, Join):
            return self.compile_expr(self.expand_join(expr))
        raise EvaluationError(f"cannot compile expression {expr!r}")

    # -- statements -------------------------------------------------------

    def compile_statement(self, statement: FWStatement) -> None:
        if isinstance(statement, Assign):
            schema = self.schema_of(statement.expr)
            holder = self.compile_expr(statement.expr)
            self.emit(statement.name, "DEDUP", [holder])
            self.env[statement.name] = schema
        elif isinstance(statement, AssignNew):
            schema = self.schema_of(statement.expr)
            if statement.id_attr in schema:
                raise SchemaError(
                    f"new: attribute {statement.id_attr!r} already in {schema}"
                )
            holder = self.compile_expr(statement.expr)
            self.emit(
                statement.name, "TUPLENEW", [holder], {"attr": statement.id_attr}
            )
            self.env[statement.name] = schema + (statement.id_attr,)
        elif isinstance(statement, AssignSetNew):
            schema = self.schema_of(statement.expr)
            if statement.set_attr in schema:
                raise SchemaError(
                    f"setnew: attribute {statement.set_attr!r} already in {schema}"
                )
            holder = self.compile_expr(statement.expr)
            self.emit(
                statement.name, "SETNEW", [holder], {"attr": statement.set_attr}
            )
            self.env[statement.name] = schema + (statement.set_attr,)
        elif isinstance(statement, WhileNotEmpty):
            inner = _Compiler(self.env)
            inner.counter = self.counter
            for body_statement in statement.body.statements:
                inner.compile_statement(body_statement)
            # schema stability: a second pass from the post-body environment
            # must reproduce it, otherwise iteration is not well-typed
            check = _Compiler(inner.env)
            check.counter = inner.counter
            for body_statement in statement.body.statements:
                check.compile_statement(body_statement)
            if check.env != inner.env:
                raise SchemaError("while body is not schema-stable")
            self.counter = inner.counter
            self.env = inner.env
            self.statements.append(While(statement.name, Program(inner.statements)))
        else:
            raise EvaluationError(f"cannot compile statement {statement!r}")


def compile_expression(expr: Expr, schemas: Mapping[str, tuple[str, ...]], target: str) -> Program:
    """Compile a single expression into a TA program binding ``target``."""
    compiler = _Compiler(dict(schemas))
    holder = compiler.compile_expr(expr)
    compiler.emit(target, "DEDUP", [holder])
    return Program(compiler.statements)


def compile_span(name: str, attributes: Callable[[], dict]):
    """Enter a compiler: the governor's check, then its ``compile.*`` boundary.

    Every compiler into tabular algebra — FO + while + new here, and the
    SchemaLog_d, SchemaSQL_d and GOOD front ends — starts here.  With
    the event feed on this is a :class:`~repro.obs.events.Boundary`
    starting with ``attributes()``; with it off, the shared
    :data:`~repro.obs.events.NO_BOUNDARY` (which binds ``None``), and
    ``attributes`` is never called.
    """
    gov = _gv.GOV
    if gov.active and gov.governor is not None:
        gov.governor.check(op=name)
    if _ev.EVT.active:
        return _ev.Boundary(name, **attributes())
    return _ev.NO_BOUNDARY


def compile_program(
    program: FWProgram, schemas: Mapping[str, tuple[str, ...]]
) -> Program:
    """Compile an FO+while+new program into a tabular algebra program.

    ``schemas`` gives the input relations' schemas (the compile-time
    environment Theorem 4.1's simulation needs).
    """
    with compile_span("compile.fo_while", lambda: {"statements": len(program)}) as boundary:
        compiler = _Compiler(dict(schemas))
        for statement in program.statements:
            compiler.compile_statement(statement)
        if boundary is not None:
            boundary.set(compiled_statements=len(compiler.statements))
        return Program(compiler.statements)
