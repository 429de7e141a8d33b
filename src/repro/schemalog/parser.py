"""A textual syntax for SchemaLog_d programs.

Grammar (EBNF)::

    program = { rule } ;
    rule    = atom [ ":-" atom { "," atom } ] "." ;
    atom    = schema_atom | builtin ;
    schema_atom = term "[" term ":" term "->" term "]" ;
    builtin = term op term ;            op ∈ { =, !=, <, <=, >, >= }
    term    = VARIABLE | NAME | STRING | NUMBER ;

Conventions follow logic programming: identifiers starting with an upper
case letter (or ``_``) are variables; lower-case identifiers are *name*
constants; quoted strings and numbers are *value* constants.  ``%`` and
``#`` start comments.

Example — restructure per-region sales tables into one relation, in the
multidatabase spirit SchemaLog was designed for::

    sales[T: part -> P]   :- east[T: part -> P].
    sales[T: region -> 'east'] :- east[T: part -> P].
"""

from __future__ import annotations

import re

from ..core import Name
from ..core.lexer import IDENT, NUMBER, STRING, Cursor
from .terms import (
    Builtin,
    Const,
    NegatedAtom,
    Rule,
    SchemaAtom,
    SchemaLogProgram,
    Term,
    Var,
)

__all__ = ["parse_schemalog", "parse_rule"]

_TOKEN_RE = re.compile(
    "|".join(
        (
            r"(?P<ws>\s+)",
            r"(?P<comment>[%#][^\n]*)",
            r"(?P<implies>:-)",
            r"(?P<arrow>->)",
            r"(?P<op><=|>=|!=|=|<|>)",
            NUMBER,
            STRING,
            IDENT,
            r"(?P<sym>[\[\]:,.])",
        )
    )
)


class _Parser(Cursor):
    pattern = _TOKEN_RE

    def parse_term(self) -> Term:
        token = self.peek()
        if token.kind == "ident":
            self.advance()
            if token.text[0].isupper() or token.text[0] == "_":
                return Var(token.text)
            return Const(Name(token.text))
        value = self.literal()
        if value is not None:
            return Const(value)
        raise self.error(f"expected a term, found {token.text!r}")

    def parse_atom(self):
        token = self.peek()
        if token.kind == "ident" and token.text == "not":
            self.advance()
            inner = self.parse_atom()
            if not isinstance(inner, SchemaAtom):
                raise self.error("'not' applies to schema atoms only", token)
            try:
                return NegatedAtom(inner)
            except ValueError as exc:
                raise self.error(str(exc), token) from exc
        first = self.parse_term()
        if self.at("sym", "["):
            self.advance()
            tid = self.parse_term()
            self.expect("sym", ":")
            attr = self.parse_term()
            self.expect("arrow")
            value = self.parse_term()
            self.expect("sym", "]")
            return SchemaAtom(first, tid, attr, value)
        if self.at("op"):
            op = self.advance().text
            right = self.parse_term()
            return Builtin(op, first, right)
        raise self.error(
            f"expected '[' or a comparison after a term, found {self.peek().text!r}"
        )

    def parse_rule(self) -> Rule:
        head = self.parse_atom()
        if not isinstance(head, SchemaAtom):
            raise self.error("a rule head must be a schema atom")
        body: list = []
        token = self.peek()
        if token.kind == "implies":
            self.advance()
            body.append(self.parse_atom())
            while self.at("sym", ","):
                self.advance()
                body.append(self.parse_atom())
        self.expect("sym", ".")
        try:
            return Rule(head, tuple(body))
        except ValueError as exc:
            raise self.error(str(exc), token) from exc

    def parse_program(self) -> SchemaLogProgram:
        rules = []
        while not self.at("eof"):
            rules.append(self.parse_rule())
        return SchemaLogProgram(tuple(rules))


def parse_schemalog(text: str) -> SchemaLogProgram:
    """Parse a full SchemaLog_d program."""
    return _Parser(text).parse_program()


def parse_rule(text: str) -> Rule:
    """Parse a single rule (must consume the whole input)."""
    parser = _Parser(text)
    rule = parser.parse_rule()
    parser.expect_end()
    return rule
