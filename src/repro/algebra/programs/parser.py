"""A textual surface syntax for tabular algebra programs.

The paper presents statements like ``Sales ← GROUP by Region on Sold
(Sales)``; this parser accepts exactly that style::

    Grouped   <- GROUP by {Region} on {Sold} (Sales)
    Cleaned   <- CLEANUP by {Part} on {null} (Grouped)
    Pivot     <- PURGE on {Sold} by {Region} (Cleaned)
    Everything <- UNION (R, S)
    while Work do
        Work <- DIFFERENCE (Work, Done)
    end

Grammar (EBNF)::

    program    = { statement } ;
    statement  = assignment | while ;
    assignment = nameparam "<-" OP { keyword param } "(" nameparam { "," nameparam } ")" ;
    while      = "while" nameparam "do" { statement } "end" ;
    param      = item | "{" "}"
               | "{" item { "," item } [ "-" item { "," item } ] "}" ;
    item       = NAME | STAR | "null" | "⊥" | "any" | STRING | NUMBER
               | TAGGED | SPECIAL | "(" param "," param ")" ;
    nameparam  = NAME | STAR ;

``null`` and ``⊥`` are the inapplicable ⊥, ``{}`` is the empty attribute
set, ``any`` the catch-all pair component, ``*``/``*1``/``*2`` are
wildcards.  Bare identifiers and backquoted text (```a b```, a backquote
written twice) are names; quoted strings (the quote written twice inside)
and numbers (``-3``, ``2.5``, ``1e+16``) are values, as are ``@n``
(tagged value ``n``) and ``$True``, ``$False``, ``$inf``, ``$-inf``,
``$nan``.  ``#`` starts a comment.  Operation names and their keywords
come from :mod:`repro.algebra.programs.registry` (e.g. ``GROUP`` takes
``by`` and ``on``).  Statements print in this syntax
(:func:`~repro.algebra.programs.params.literal_text`), so ``repr`` of an
assignment parses back to the same assignment text.
"""

from __future__ import annotations

import re

from ...core import NULL, Name, TaggedValue, Value
from ...core.lexer import IDENT, NUMBER, STRING, Cursor
from .params import ANY, NOTHING, RESERVED, Lit, Pair, Parameter, ParamSet, Star
from .registry import OPERATIONS
from .statements import Assignment, Program, Statement, While

__all__ = ["parse_program", "parse_statement"]

_TOKEN_RE = re.compile(
    "|".join(
        (
            r"(?P<ws>\s+)",
            r"(?P<comment>#[^\n]*)",
            r"(?P<arrow><-)",
            r"(?P<star>\*[0-9]*)",
            NUMBER,
            STRING,
            IDENT,
            r"(?P<quoted>`(?:[^`]|``)+`)",
            r"(?P<tagged>@[0-9]+)",
            r"(?P<special>\$(?:True|False|nan|-?inf))",
            r"(?P<sym>[{}(),\-⊥])",
        )
    )
)

#: The values only ``$`` spells.
_SPECIAL = {
    "$True": True,
    "$False": False,
    "$nan": float("nan"),
    "$inf": float("inf"),
    "$-inf": float("-inf"),
}


class _Parser(Cursor):
    pattern = _TOKEN_RE

    def parse_program(self) -> Program:
        statements: list[Statement] = []
        while not self.at("eof"):
            statements.append(self.parse_statement())
        return Program(statements)

    def parse_statement(self) -> Statement:
        if self.at("ident", "while"):
            return self.parse_while()
        return self.parse_assignment()

    def parse_while(self) -> While:
        self.expect("ident", "while")
        condition = self.parse_name_param()
        self.expect("ident", "do")
        body: list[Statement] = []
        while not self.at("ident", "end"):
            if self.at("eof"):
                raise self.error("while without matching 'end'")
            body.append(self.parse_statement())
        self.expect("ident", "end")
        return While(condition, body)

    def parse_assignment(self) -> Assignment:
        target = self.parse_name_param()
        self.expect("arrow")
        op_token = self.expect("ident")
        op_key = op_token.text.upper().replace("_", "")
        if op_key not in OPERATIONS:
            raise self.error(f"unknown operation {op_token.text!r}", op_token)
        spec = OPERATIONS[op_key]
        params: dict[str, Parameter] = {}
        while self.at("ident") and self.peek().text in spec.params:
            keyword = self.advance().text
            if keyword in params:
                raise self.error(f"duplicate parameter {keyword!r}")
            params[keyword] = self.parse_param()
        self.expect("sym", "(")
        args = [self.parse_name_param()]
        while self.at("sym", ","):
            self.advance()
            args.append(self.parse_name_param())
        self.expect("sym", ")")
        try:
            return Assignment(target, op_key, args, params)
        except Exception as exc:
            raise self.error(f"{exc}", op_token) from exc

    def parse_name_param(self) -> Parameter:
        token = self.peek()
        if token.kind == "star":
            return self.parse_star()
        name = self.name()
        if name is not None:
            return Lit(name)
        raise self.error(f"expected a table name or wildcard, found {token.text!r}")

    def name(self) -> Name | None:
        """Consume a bare or backquoted name; None if the next token is neither."""
        token = self.peek()
        if token.kind == "quoted":
            self.advance()
            return Name(token.text[1:-1].replace("``", "`"))
        if token.kind == "ident" and token.text not in RESERVED:
            self.advance()
            return Name(token.text)
        return None

    def parse_star(self) -> Star:
        text = self.advance().text
        return Star(int(text[1:]) if len(text) > 1 else 0)

    def parse_param(self) -> Parameter:
        if self.at("sym", "{"):
            return self.parse_param_set()
        return self.parse_item()

    def parse_param_set(self) -> Parameter:
        self.expect("sym", "{")
        if self.at("sym", "}"):
            self.advance()
            return NOTHING
        positive = self.parse_items()
        negative: list[Parameter] = []
        if self.at("sym", "-"):
            self.advance()
            negative = self.parse_items()
        self.expect("sym", "}")
        return ParamSet(positive, negative)

    def parse_items(self) -> list[Parameter]:
        items = [self.parse_item()]
        while self.at("sym", ","):
            self.advance()
            items.append(self.parse_item())
        return items

    def parse_item(self) -> Parameter:
        token = self.peek()
        if token.kind == "star":
            return self.parse_star()
        value = self.literal()
        if value is not None:
            return Lit(value)
        name = self.name()
        if name is not None:
            return Lit(name)
        if token.kind == "tagged":
            self.advance()
            return Lit(TaggedValue(int(token.text[1:])))
        if token.kind == "special":
            self.advance()
            return Lit(Value(_SPECIAL[token.text]))
        if token.kind == "ident" and token.text == "any":
            self.advance()
            return ANY
        if token.text in ("null", "⊥"):
            self.advance()
            return Lit(NULL)
        if token.kind == "sym" and token.text == "(":
            self.advance()
            row = self.parse_param()
            self.expect("sym", ",")
            col = self.parse_param()
            self.expect("sym", ")")
            return Pair(row, col)
        raise self.error(f"expected a parameter item, found {self.found()!r}")


def parse_program(text: str) -> Program:
    """Parse a full tabular algebra program."""
    return _Parser(text).parse_program()


def parse_statement(text: str) -> Statement:
    """Parse a single statement (assignment or while)."""
    parser = _Parser(text)
    statement = parser.parse_statement()
    parser.expect_end()
    return statement
