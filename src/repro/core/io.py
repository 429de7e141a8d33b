"""Plain-text import/export for tables: CSV and Markdown.

A production library needs to move tables in and out; these functions
serialize the *full* tabular model (names vs values vs ⊥ survive a round
trip) using a small prefix convention in CSV cells:

* ``#text``  — a name (``#`` chosen because names may not be empty);
* ``@n``     — a tagged value with tag n;
* ``!``      — the inapplicable null ⊥;
* ``=text``  — a string value (the ``=`` guards strings that would
  otherwise look like one of the above or like a number);
* ``3`` / ``2.5`` — numeric values;
* anything else — a string value.

Markdown export is one-way (for reports); CSV round-trips.
"""

from __future__ import annotations

import csv
import io

from .errors import SchemaError
from .symbols import NULL, Name, Symbol, TaggedValue, Value
from .table import Table

__all__ = ["table_to_csv", "table_from_csv", "table_to_markdown"]

_NULL_TOKEN = "!"


def _encode_cell(symbol: Symbol) -> str:
    if symbol.is_null:
        return _NULL_TOKEN
    if isinstance(symbol, Name):
        return f"#{symbol.text}"
    if isinstance(symbol, TaggedValue):
        return f"@{symbol.payload}"
    if isinstance(symbol, Value):
        payload = symbol.payload
        if isinstance(payload, (int, float)) and not isinstance(payload, bool):
            return repr(payload)
        if isinstance(payload, str):
            if payload[:1] in ("#", "@", "!", "=") or _looks_numeric(payload):
                return f"={payload}"
            return payload
        raise SchemaError(f"cannot serialize value payload {payload!r} to CSV")
    raise SchemaError(f"cannot serialize symbol {symbol!r}")


def _looks_numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _decode_cell(text: str) -> Symbol:
    if text == _NULL_TOKEN:
        return NULL
    if text.startswith("#"):
        return Name(text[1:])
    if text.startswith("@"):
        return TaggedValue(int(text[1:]))
    if text.startswith("="):
        return Value(text[1:])
    if _looks_numeric(text):
        number = float(text)
        if number.is_integer() and "." not in text and "e" not in text.lower():
            return Value(int(text))
        return Value(number)
    return Value(text)


def table_to_csv(table: Table) -> str:
    """Serialize a table (all four regions) to CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in table.grid:
        writer.writerow([_encode_cell(s) for s in row])
    return buffer.getvalue()


def table_from_csv(text: str) -> Table:
    """Rebuild a table from :func:`table_to_csv` output."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise SchemaError("empty CSV input")
    return Table([_decode_cell(cell) for cell in row] for row in rows)


def table_to_markdown(table: Table) -> str:
    """Render a table as a GitHub-flavored Markdown table (one-way)."""
    cells = [[str(s) for s in row] for row in table.grid]
    header = "| " + " | ".join(cells[0]) + " |"
    rule = "|" + "|".join(" --- " for _ in cells[0]) + "|"
    body = ["| " + " | ".join(row) + " |" for row in cells[1:]]
    return "\n".join([header, rule, *body])
