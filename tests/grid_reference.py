"""The grid check as Section 2 states it, entry by entry.

A table is a total mapping into the symbol set 𝒮: a non-empty
rectangular grid whose every entry is a :class:`~repro.core.Symbol`.
:func:`reference_freeze` is that definition, written out literally; the
tests hold ``Table``'s one-pass check and every operation's result to it.
"""

from repro.core import Symbol


def reference_freeze(rows):
    """The grid check entry by entry; returns the error text or None."""
    grid = tuple(tuple(row) for row in rows)
    if not grid or not grid[0]:
        return "a table requires at least the name position (a 1x1 grid)"
    ncols = len(grid[0])
    for i, row in enumerate(grid):
        if len(row) != ncols:
            return f"ragged grid: row {i} has {len(row)} entries, expected {ncols}"
        for j, entry in enumerate(row):
            if not isinstance(entry, Symbol):
                return (
                    f"grid entry ({i},{j}) is {entry!r}, not a Symbol; "
                    "use repro.core.builders for coercing plain Python objects"
                )
    return None
