"""Parser for the SchemaSQL_d surface syntax.

Grammar (keywords case-insensitive; identifiers follow the logic-
programming convention — capitalized = variable, lower-case = name)::

    query    = "SELECT" selitem {"," selitem}
               "INTO" NAME
               "FROM" fromitem {"," fromitem}
               [ "WHERE" cond { "AND" cond } ] ;
    selitem  = expr "AS" NAME ;
    fromitem = "->" VAR                 (relation-name variable)
             | NAME VAR                 (tuple variable over a relation)
             | VAR VAR                  (tuple variable over a rel-var)
             | NAME "->" VAR            (attribute variable)
             | VAR "->" VAR ;
    expr     = VAR "." NAME | VAR "." VAR | VAR | NAME? no — bare names
               are not expressions; use quoted literals | STRING | NUMBER ;
    cond     = expr ("=" | "<>") expr ;
"""

from __future__ import annotations

import re

from ..core.lexer import IDENT, NUMBER, STRING, Cursor
from .ast import (
    AttrVarDecl,
    ColumnRef,
    Condition,
    Expression,
    FromItem,
    Literal,
    RelVarDecl,
    SchemaSQLQuery,
    SelectItem,
    TupleVarDecl,
    VarRef,
)

__all__ = ["parse_schemasql"]

_TOKEN_RE = re.compile(
    "|".join(
        (
            r"(?P<ws>\s+)",
            r"(?P<comment>--[^\n]*)",
            r"(?P<arrow>->)",
            r"(?P<neq><>)",
            NUMBER,
            STRING,
            IDENT,
            r"(?P<sym>[,.=()])",
        )
    )
)

_KEYWORDS = {"select", "into", "from", "where", "as", "and"}


def _is_var(text: str) -> bool:
    return text[0].isupper() or text[0] == "_"


class _Parser(Cursor):
    pattern = _TOKEN_RE

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token.kind == "ident" and token.text.lower() == word

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            raise self.error(f"expected {word.upper()}, found {self.found()!r}")
        self.advance()

    def expect_ident(self, variable: bool | None = None) -> str:
        token = self.peek()
        if token.kind != "ident" or token.text.lower() in _KEYWORDS:
            raise self.error(f"expected an identifier, found {self.found()!r}")
        if variable is True and not _is_var(token.text):
            raise self.error(f"expected a variable, found {token.text!r}")
        if variable is False and _is_var(token.text):
            raise self.error(f"expected a name, found {token.text!r}")
        return self.advance().text

    # -- grammar -----------------------------------------------------------

    def parse_query(self) -> SchemaSQLQuery:
        self.expect_keyword("select")
        select = [self.parse_select_item()]
        while self.at("sym", ","):
            self.advance()
            select.append(self.parse_select_item())
        self.expect_keyword("into")
        into = self.expect_ident(variable=False)
        self.expect_keyword("from")
        from_items = [self.parse_from_item()]
        while self.at("sym", ","):
            self.advance()
            from_items.append(self.parse_from_item())
        where: list[Condition] = []
        if self.at_keyword("where"):
            self.advance()
            where.append(self.parse_condition())
            while self.at_keyword("and"):
                self.advance()
                where.append(self.parse_condition())
        self.expect_end()
        try:
            return SchemaSQLQuery(tuple(select), into, tuple(from_items), tuple(where))
        except ValueError as exc:
            raise self.error(str(exc), self.tokens[0]) from exc

    def parse_select_item(self) -> SelectItem:
        expression = self.parse_expression()
        self.expect_keyword("as")
        alias = self.expect_ident(variable=False)
        return SelectItem(expression, alias)

    def parse_from_item(self) -> FromItem:
        if self.at("arrow"):
            self.advance()
            return RelVarDecl(self.expect_ident(variable=True))
        source = self.expect_ident()
        source_is_var = _is_var(source)
        if self.at("arrow"):
            self.advance()
            return AttrVarDecl(source, self.expect_ident(variable=True), source_is_var)
        return TupleVarDecl(source, self.expect_ident(variable=True), source_is_var)

    def parse_expression(self) -> Expression:
        value = self.literal()
        if value is not None:
            return Literal(value)
        name = self.expect_ident(variable=True)
        if self.at("sym", "."):
            self.advance()
            attr = self.expect_ident()
            return ColumnRef(name, attr, attr_is_var=_is_var(attr))
        return VarRef(name)

    def parse_condition(self) -> Condition:
        left = self.parse_expression()
        if self.at("neq"):
            op = "<>"
        elif self.at("sym", "="):
            op = "="
        else:
            raise self.error(f"expected = or <>, found {self.found()!r}")
        self.advance()
        right = self.parse_expression()
        return Condition(op, left, right)


def parse_schemasql(text: str) -> SchemaSQLQuery:
    """Parse one SchemaSQL_d query."""
    return _Parser(text).parse_query()
