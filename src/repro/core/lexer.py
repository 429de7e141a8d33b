"""The tokenizer and token cursor shared by the textual front ends.

TA programs (:mod:`repro.algebra.programs.parser`), SchemaLog_d
(:mod:`repro.schemalog.parser`) and SchemaSQL_d
(:mod:`repro.schemasql.parser`) each supply a token pattern — one named
group per token kind — and their grammar methods on a :class:`Cursor`
subclass; splitting text into tokens, tracking positions and reporting
errors happen here, once.

A pattern's ``ws`` and ``comment`` groups are matched and dropped.  Every
token records the 1-based line and column of its first character, the
token list ends with an ``eof`` token, and every error is a
:class:`~repro.core.errors.ParseError` at a line and column.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .symbols import Value

__all__ = ["IDENT", "NUMBER", "STRING", "Cursor", "Token", "tokenize"]

#: Token-pattern fragments common to the three grammars.  Inside a
#: string, its quote character is written twice.
NUMBER = r"(?P<number>-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
STRING = r"""(?P<string>'(?:[^']|'')*'|"(?:[^"]|"")*")"""
IDENT = r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"

_SKIPPED = ("ws", "comment")


class Token:
    """One token: its pattern group, its text and where it starts."""

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def tokenize(pattern: re.Pattern, text: str) -> list[Token]:
    """Split ``text`` into ``pattern``'s tokens, ending with ``eof``."""
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: the offset of the line's first character
    pos = 0
    while pos < len(text):
        match = pattern.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup
        chunk = match.group()
        if kind not in _SKIPPED:
            tokens.append(Token(kind, chunk, line, pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rfind("\n") + 1
        pos = match.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class Cursor:
    """A read position in the tokens of one text.

    A parser subclasses this, sets :attr:`pattern` and adds its grammar
    methods.
    """

    #: The token pattern of the subclass's grammar.
    pattern: re.Pattern

    def __init__(self, text: str):
        self.tokens = tokenize(self.pattern, text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at(self, kind: str, text: str | None = None) -> bool:
        """Whether the next token is of ``kind`` (and spells ``text``)."""
        token = self.tokens[self.pos]
        return token.kind == kind and (text is None or token.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        """Consume the next token, which must be of ``kind`` (and spell ``text``)."""
        if not self.at(kind, text):
            wanted = text if text is not None else kind
            raise self.error(f"expected {wanted!r}, found {self.found()!r}")
        return self.advance()

    def literal(self) -> Value | None:
        """Consume a string or number token as a value; None if the next
        token is neither."""
        token = self.tokens[self.pos]
        text = token.text
        if token.kind == "string":
            self.pos += 1
            return Value(text[1:-1].replace(text[0] * 2, text[0]))
        if token.kind == "number":
            self.pos += 1
            exact = text.lstrip("-").isdigit()
            return Value(int(text) if exact else float(text))
        return None

    def expect_end(self) -> None:
        """Fail unless every token has been consumed."""
        token = self.tokens[self.pos]
        if token.kind != "eof":
            raise self.error(f"trailing input {token.text!r}")

    def found(self) -> str:
        """The next token's text for an error message."""
        return self.tokens[self.pos].text or "end of input"

    def error(self, message: str, token: Token | None = None) -> ParseError:
        """A :class:`ParseError` located at ``token`` (default: the next one)."""
        if token is None:
            token = self.tokens[self.pos]
        return ParseError(message, token.line, token.column)
