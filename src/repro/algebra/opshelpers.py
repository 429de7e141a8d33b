"""Shared helpers for the tabular algebra operations.

Operations accept attribute parameters as symbols, strings (coerced to
names), ``None`` (coerced to ⊥), or iterables thereof; the helpers here
normalize those inputs and provide the small pieces of shared machinery
(column selection by attribute set, row-attribute combination).
"""

from __future__ import annotations

from typing import Iterable

from ..core import NULL, Name, Symbol, Table, UndefinedOperationError, coerce_symbol

__all__ = [
    "as_attr_symbol",
    "as_attr_set",
    "columns_with_attr_in",
    "combine_row_attributes",
]


def as_attr_symbol(obj: object) -> Symbol:
    """Coerce a single attribute parameter (str → Name, None → ⊥)."""
    if isinstance(obj, Symbol):
        return obj
    if obj is None:
        return NULL
    if isinstance(obj, str):
        return Name(obj)
    return coerce_symbol(obj)


def as_attr_set(obj: object) -> frozenset[Symbol]:
    """Coerce an attribute-set parameter.

    Accepts a single attribute (symbol/str/None) or an iterable of them.
    Strings coerce to names; ``None`` to ⊥ (attributes are optional in the
    tabular model, so ⊥ is a legitimate member of an attribute set — e.g.
    ``CLEAN-UP by Part on ⊥``).
    """
    if obj is None or isinstance(obj, (Symbol, str)):
        return frozenset([as_attr_symbol(obj)])
    if isinstance(obj, Iterable):
        return frozenset(as_attr_symbol(item) for item in obj)
    return frozenset([as_attr_symbol(obj)])


def columns_with_attr_in(table: Table, attrs: frozenset[Symbol]) -> list[int]:
    """Data-column indices whose column attribute lies in ``attrs``, in order."""
    header = table.row(0)
    return [j for j in range(1, table.ncols) if header[j] in attrs]


def combine_row_attributes(left: Symbol, right: Symbol) -> Symbol:
    """Combine two row attributes into the single slot of a product row.

    Equal attributes survive; a ⊥ yields to the other side; a genuine
    conflict becomes ⊥ (DESIGN.md interpretation decision 3).
    """
    if left == right:
        return left
    if left.is_null:
        return right
    if right.is_null:
        return left
    return NULL


def require(condition: bool, message: str) -> None:
    """Raise :class:`UndefinedOperationError` unless ``condition`` holds."""
    if not condition:
        raise UndefinedOperationError(message)
