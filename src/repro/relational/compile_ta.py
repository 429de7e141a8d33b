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

The compiler types with the evaluator's own schema function,
:meth:`~repro.relational.algebra.Expr.schema`, over an environment of
empty relations (input schemas are given), so it rejects exactly the
programs native evaluation rejects.  Each statement's expression is typed
once, before anything is emitted; natural join compiles through
:meth:`~repro.relational.algebra.Join.expand`, the expansion evaluation
uses, built from the operand schemas typing noted.  A while body
must be schema-stable: typing the body once more, from the environment
it leaves, must leave that environment unchanged.

Intermediate results live in reserved ``__fw<i>`` tables; ``outputs``
restricted comparison ignores them.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..core import EvaluationError, SchemaError
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
from .relation import Relation, RelationalDatabase

__all__ = ["compile_program", "compile_expression", "compile_span", "TEMP_PREFIX"]

#: Prefix reserved for the compiler's intermediate tables.
TEMP_PREFIX = "__fw"


class _Compiler:
    def __init__(self, env: RelationalDatabase):
        self.env = env
        self.counter = 0
        self.statements: list[Statement] = []
        #: The statement being compiled: each join's operand schemas, by id.
        self.joins: dict[int, tuple] = {}

    # -- plumbing -------------------------------------------------------

    def fresh_temp(self) -> str:
        name = f"{TEMP_PREFIX}{self.counter}"
        self.counter += 1
        return name

    def emit(self, target: str, op: str, args: list[str], params: dict | None = None) -> str:
        self.statements.append(Assignment(target, op, args, params or {}))
        return target

    # -- expressions ------------------------------------------------------

    def compile_expr(self, expr: Expr) -> str:
        """Emit statements computing ``expr``; return the holding table name.

        ``expr`` has been typed against ``self.env`` already, its joins'
        operand schemas noted in ``self.joins``.
        """
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
            # fuses into a PRODUCTSELECT hash join (Join.expand produces
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
            inner = self.compile_expr(expr.inner)
            return self.emit(
                self.fresh_temp(),
                "CONSTCOLUMN",
                [inner],
                {"attr": expr.attr, "value": expr.value},
            )
        if isinstance(expr, Join):
            return self.compile_expr(expr.expand(*self.joins[id(expr)]))
        raise EvaluationError(f"cannot compile expression {expr!r}")

    # -- statements -------------------------------------------------------

    def compile_statement(self, statement: FWStatement) -> None:
        if isinstance(statement, WhileNotEmpty):
            outer, self.statements = self.statements, []
            for body_statement in statement.body.statements:
                self.compile_statement(body_statement)
            body, self.statements = self.statements, outer
            _require_stable(self.env, statement)
            self.statements.append(While(statement.name, Program(body)))
            return
        self.joins = {}
        after = _typed(self.env, statement, self.joins)
        holder = self.compile_expr(statement.expr)
        if isinstance(statement, AssignNew):
            self.emit(statement.name, "TUPLENEW", [holder], {"attr": statement.id_attr})
        elif isinstance(statement, AssignSetNew):
            self.emit(statement.name, "SETNEW", [holder], {"attr": statement.set_attr})
        else:
            self.emit(statement.name, "DEDUP", [holder])
        self.env = after


def _environment(schemas: Mapping[str, tuple[str, ...]]) -> RelationalDatabase:
    """The compile-time environment: an empty relation per input schema."""
    return RelationalDatabase(Relation(name, schema) for name, schema in schemas.items())


def _typed(env: RelationalDatabase, statement: FWStatement, joins=None) -> RelationalDatabase:
    """The environment after ``statement``, typing its expression once
    (noting its joins' operand schemas in ``joins``).

    Raises :class:`~repro.core.SchemaError` where running ``statement``
    natively would; a while loop must also be schema-stable.
    """
    if isinstance(statement, WhileNotEmpty):
        for body_statement in statement.body.statements:
            env = _typed(env, body_statement)
        _require_stable(env, statement)
        return env
    if not isinstance(statement, (Assign, AssignNew, AssignSetNew)):
        raise EvaluationError(f"cannot compile statement {statement!r}")
    schema = statement.expr.typed(env, joins)
    if isinstance(statement, (AssignNew, AssignSetNew)):
        attr = statement.id_attr if isinstance(statement, AssignNew) else statement.set_attr
        if attr in schema:
            raise SchemaError(f"{statement!r}: attribute {attr!r} already in {schema}")
        schema += (attr,)
    return env.set(Relation(statement.name, schema))


def _require_stable(after: RelationalDatabase, loop: WhileNotEmpty) -> None:
    """Reject a loop whose body, typed from the environment ``after`` it
    leaves, changes that environment: the next iteration would not be
    well-typed.  Types only; emits nothing."""
    env = after
    for body_statement in loop.body.statements:
        env = _typed(env, body_statement)
    if env != after:
        raise SchemaError("while body is not schema-stable")


def compile_expression(expr: Expr, schemas: Mapping[str, tuple[str, ...]], target: str) -> Program:
    """Compile a single expression into a TA program binding ``target``.

    The whole expression is typed up front, as ``target := expr``.
    """
    compiler = _Compiler(_environment(schemas))
    compiler.compile_statement(Assign(target, expr))
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
        compiler = _Compiler(_environment(schemas))
        for statement in program.statements:
            compiler.compile_statement(statement)
        if boundary is not None:
            boundary.set(compiled_statements=len(compiler.statements))
        return Program(compiler.statements)
