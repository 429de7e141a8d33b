"""Tagging operations: TUPLENEW and SETNEW (paper, Section 3.5).

These introduce *new values* into the database — the object-creating
primitives (inspired by FO + new + while of [3]) needed for the
completeness theorem.  ``TUPLENEW_A`` tags every data row with a distinct
fresh value in a new ``A``-column; ``SETNEW_A`` enumerates *all non-empty
subsets* of the data rows, each subset re-listing its rows tagged with the
subset's own fresh value — the power-set construct.

Fresh values come from a :class:`repro.core.FreshValueSource`; an
interpreter advances the source past every tagged value already present so
freshness is global (see DESIGN.md decision 14).
"""

from __future__ import annotations

from ..core import FreshValueSource, LimitExceededError, Symbol, Table
from ..core.table import _from_checked
from ..obs import runtime as _obs
from ..obs.lineage import derived_from
from .opshelpers import as_attr_symbol

__all__ = ["tuplenew", "setnew", "DEFAULT_SETNEW_LIMIT"]

#: SETNEW enumerates 2^m - 1 subsets; refuse beyond this many data rows.
DEFAULT_SETNEW_LIMIT = 16


def _named(table: Table, name: object | None) -> Table:
    if name is None:
        return table
    return table.with_name(as_attr_symbol(name))


def tuplenew(
    table: Table,
    attr: object,
    source: FreshValueSource | None = None,
    name: object | None = None,
) -> Table:
    """``T ← TUPLENEW_A(R)``: a new ``A``-column holding a distinct new
    value for each data row (tuple identifiers).

    Under an active lineage scope each fresh tag derives from the row it
    identifies (the tag is "about" that tuple).
    """
    lin = _obs.OBS.lineage
    src = source if source is not None else FreshValueSource()
    column: list[Symbol] = [as_attr_symbol(attr)]
    if lin is None:
        column += [src.fresh() for _ in table.data_row_indices()]
    else:
        column += [derived_from(src.fresh(), table.row(i)) for i in table.data_row_indices()]
    grid = [row + (entry,) for row, entry in zip(table.grid, column)]
    return _named(_from_checked(grid), name)


def setnew(
    table: Table,
    attr: object,
    source: FreshValueSource | None = None,
    name: object | None = None,
    limit: int = DEFAULT_SETNEW_LIMIT,
) -> Table:
    """``T ← SETNEW_A(R)``: enumerate all non-empty subsets of the data rows.

    The result consecutively lists, for every non-empty subset of R's data
    rows, that subset's rows extended with a new ``A``-column holding the
    subset's own distinct new value.  Subsets are enumerated in increasing
    bitmask order (deterministic); the operation is exponential by design
    and guarded by ``limit``.

    Under an active lineage scope each subset's fresh tag derives from
    every row of the subset it identifies.
    """
    m = table.height
    if m > limit:
        raise LimitExceededError(
            f"SETNEW on {m} data rows would enumerate 2^{m} - 1 subsets; "
            f"limit is {limit} rows (pass a higher limit explicitly to override)",
            kind="rows",
            op="SETNEW",
            used=m,
            limit=limit,
        )
    lin = _obs.OBS.lineage
    src = source if source is not None else FreshValueSource()
    header = list(table.row(0)) + [as_attr_symbol(attr)]
    grid: list[list[Symbol]] = [header]
    data_rows = list(table.data_row_indices())
    for mask in range(1, 1 << m):
        tag = src.fresh()
        members = [i for position, i in enumerate(data_rows) if mask & (1 << position)]
        if lin is not None:
            tag = derived_from(
                tag, (symbol for i in members for symbol in table.row(i))
            )
        for i in members:
            grid.append(list(table.row(i)) + [tag])
    return _named(_from_checked(grid), name)
