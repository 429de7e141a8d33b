"""Transposition operators (paper, Section 3.3).

``TRANSPOSE`` flips a table as a matrix; ``SWITCH_V`` promotes a uniquely
occurring entry V to the table-name position by swapping its row with row 0
and its column with column 0.  Together they give every tabular algebra
operation an expressible *dual* (rows and columns interchanged), provided
here as the :func:`dual` combinator; constant selection is derivable this
way (the library also ships it directly in
:func:`repro.algebra.traditional.select_constant`).

Provenance contract: both operations are pure permutations of the grid —
every output cell *is* an input symbol object — so cell lineage
(:mod:`repro.obs.lineage`) flows through them untouched.
"""

from __future__ import annotations

from typing import Callable

from ..core import Table
from .opshelpers import as_attr_symbol

__all__ = ["transpose", "switch", "dual"]


def _named(table: Table, name: object | None) -> Table:
    if name is None:
        return table
    return table.with_name(as_attr_symbol(name))


def transpose(table: Table, name: object | None = None) -> Table:
    """``T ← TRANSPOSE(R)``: column attributes become row attributes and
    vice versa; the table name stays put at (0, 0)."""
    return _named(table.transpose(), name)


def switch(table: Table, value: object, name: object | None = None) -> Table:
    """``T ← SWITCH_V(R)``.

    If ``V`` occurs at exactly one position (i, j) of the table, rows 0 and
    i and columns 0 and j are swapped (so V becomes the table name, its row
    the attribute row, its column the attribute column).  Otherwise the
    table is merely renamed — the paper's fallback for non-unique V.
    """
    from ..core import coerce_symbol

    v = coerce_symbol(value)
    hits = [
        (i, j)
        for i in range(table.nrows)
        for j in range(table.ncols)
        if table.entry(i, j) == v
    ]
    if len(hits) != 1:
        return _named(table, name)
    i, j = hits[0]
    rows = list(range(table.nrows))
    cols = list(range(table.ncols))
    rows[0], rows[i] = rows[i], rows[0]
    cols[0], cols[j] = cols[j], cols[0]
    return _named(table.subtable(rows, cols), name)


def dual(operation: Callable[..., Table]) -> Callable[..., Table]:
    """Lift an operation to its dual (rows and columns interchanged).

    ``dual(op)(R, …) = TRANSPOSE(op(TRANSPOSE(R), …))``.  PURGE is the dual
    of CLEAN-UP obtained exactly this way.
    """

    def dual_operation(table: Table, *args, name: object | None = None, **kwargs) -> Table:
        result = operation(transpose(table), *args, **kwargs)
        return _named(transpose(result), name)

    dual_operation.__name__ = f"dual_{getattr(operation, '__name__', 'op')}"
    dual_operation.__doc__ = f"Dual (transposed) form of {getattr(operation, '__name__', 'op')}."
    return dual_operation
