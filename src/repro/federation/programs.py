"""Federated tabular algebra programs.

A federated program is an ordinary tabular algebra program whose table
names may be qualified (``db::table``); running it against a
:class:`~repro.federation.model.TabularFederation` flattens the
federation, executes the program, and unflattens the result.  This is the
paper's "extended language" in its entirety — the flattening map is the
whole extension, which is why it "trivially subsumes SchemaLog": the
SchemaLog-over-federations story reduces to SchemaLog over the flattened
facts, provided here as :func:`federation_facts`.
"""

from __future__ import annotations

from ..algebra.programs import Program, parse_program
from ..core import FreshValueSource, Name, SchemaError
from ..schemalog import SchemaLogDatabase
from .model import SEPARATOR, TabularFederation

__all__ = ["run_federated", "parse_federated", "federation_facts"]


def parse_federated(text: str) -> Program:
    """Parse a federated program.

    The base grammar's identifiers do not contain ``::``; federated
    programs write qualified names as ``db__table`` — double underscore —
    which this wrapper rewrites to the canonical ``db::table`` before
    binding.  (A pragmatic surface choice that keeps one tokenizer.)
    """
    program = parse_program(text)
    return _rewrite_names(program)


def _rewrite_names(program: Program) -> Program:
    from ..algebra.programs import Assignment, Lit, Statement, While

    def rewrite_param(param):
        if isinstance(param, Lit) and isinstance(param.symbol, Name):
            text = param.symbol.text
            if "__" in text and not text.startswith("__"):
                db_name, _, table = text.partition("__")
                return Lit(Name(f"{db_name}{SEPARATOR}{table}"))
        return param

    def rewrite_statement(statement: Statement) -> Statement:
        if isinstance(statement, Assignment):
            return Assignment(
                rewrite_param(statement.target),
                statement.spec.name,
                [rewrite_param(a) for a in statement.args],
                statement.params,
            )
        if isinstance(statement, While):
            return While(
                rewrite_param(statement.condition),
                [rewrite_statement(s) for s in statement.body.statements],
            )
        return statement

    return Program(rewrite_statement(s) for s in program.statements)


def run_federated(
    program: Program,
    federation: TabularFederation,
    fresh: FreshValueSource | None = None,
    max_while_iterations: int = 10_000,
) -> TabularFederation:
    """Run a (possibly federated) program over a federation.

    Result tables with qualified targets land in the corresponding member;
    unqualified targets land in a member called ``result``.
    """
    flattened = federation.flatten()
    out = program.run(flattened, fresh=fresh, max_while_iterations=max_while_iterations)
    members: dict[str, list] = {name: [] for name, _db in federation}
    members.setdefault("result", [])
    from .model import split_qualified

    for table in out.tables:
        parsed = split_qualified(table.name)
        if parsed is None:
            if not isinstance(table.name, Name):
                raise SchemaError(f"result table {table.name!s} has no name")
            members["result"].append(table)
        else:
            db_name, table_name = parsed
            members.setdefault(db_name, []).append(table.with_name(table_name))
    from ..core import TabularDatabase

    return TabularFederation(
        {k: TabularDatabase(v) for k, v in members.items() if v or k != "result"}
    )


def federation_facts(federation: TabularFederation) -> SchemaLogDatabase:
    """The SchemaLog fact store of a federation (5th component folded in).

    Every member table flattens into ``rel[tid: attr → val]`` facts whose
    relation component is the qualified ``db::table`` name — exactly how
    the extended language subsumes federated SchemaLog.
    """
    return SchemaLogDatabase.from_tabular(federation.flatten())
