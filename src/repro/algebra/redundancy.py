"""Redundancy removal: CLEAN-UP and its dual PURGE (paper, Section 3.4).

``CLEAN-UP by 𝒜 on ℬ`` merges groups of data rows that (a) carry the same
row attribute, drawn from ℬ, (b) agree on their 𝒜-subtuple, and (c) are
position-wise compatible — every data column sees at most one distinct
non-⊥ value across the group.  The merged row is the least common subsumer
and replaces the group at its first member's position.

``PURGE on ℬ by 𝒜`` is the exact dual, implemented as
``TRANSPOSE ∘ CLEAN-UP by 𝒜 on ℬ ∘ TRANSPOSE``.

Clean-up generalizes duplicate-row elimination (identical rows always merge)
and purge duplicate-column elimination; composed with tabular union they
yield the classical union (see :func:`repro.algebra.derived.classical_union`).

The position-wise reading of "least common tuple" is an interpretation
decision forced by the figures — see DESIGN.md, Section 3, decision 9.
"""

from __future__ import annotations

from ..core import NULL, Symbol, Table
from ..obs import runtime as _obs
from ..obs.lineage import derived_from
from .opshelpers import as_attr_set, as_attr_symbol, columns_with_attr_in
from .transposition import transpose

__all__ = ["cleanup", "purge"]


def _named(table: Table, name: object | None) -> Table:
    if name is None:
        return table
    return table.with_name(as_attr_symbol(name))


def _merge_rows(rows: list[tuple[Symbol, ...]]) -> list[Symbol] | None:
    """Position-wise merge of a group of data rows, or None when incompatible.

    Compatible means: at every grid column (including column 0, the row
    attribute) the group's non-⊥ entries are all equal.  The merged row
    takes each column's first non-⊥ entry, or ⊥.

    The group merges column by column.  A column the whole group agrees
    on (in GROUP's output most are all ⊥) is settled by one C-level
    count; only a column whose entries differ walks its entries.
    ``first == first`` leaves a payload unequal to itself (NaN) to that
    walk, which finds it a conflict.

    Under an active lineage scope each merged cell derives from *all* of
    the group's entries in that column (⊥ entries included), so
    duplicate elimination unions rather than drops provenance.
    """
    lin = _obs.OBS.lineage
    size = len(rows)
    merged: list[Symbol] = []
    for column in zip(*rows):
        first = column[0]
        if column.count(first) == size and (first is NULL or first == first):
            candidate = NULL if first is NULL or first.is_null else first
        else:
            candidate = NULL
            for entry in column:
                if entry is NULL or entry.is_null:
                    continue
                if candidate is NULL:
                    candidate = entry
                elif candidate != entry:
                    return None
        if lin is not None:
            candidate = derived_from(candidate, column)
        merged.append(candidate)
    return merged


def cleanup(table: Table, by: object, on: object, name: object | None = None) -> Table:
    """``T ← CLEAN-UP by 𝒜 on ℬ (R)``.

    Example (Section 3.4): ``CLEAN-UP by Part on ⊥`` applied to Figure 4
    *bottom* groups the information on nuts, screws, and bolts into one row
    each; the subsequent ``PURGE on Sold by Region`` yields the bold
    ``Sales`` of ``SalesInfo2``.
    """
    by_set = as_attr_set(by)
    on_set = as_attr_set(on)
    by_cols = columns_with_attr_in(table, by_set)
    rows = table.grid

    # Group the ℬ-rows by (row attribute, 𝒜-subtuple), in first-seen order.
    groups: dict[tuple[Symbol, tuple[Symbol, ...]], list[int]] = {}
    for i in table.data_row_indices():
        row = rows[i]
        if row[0] in on_set:
            groups.setdefault((row[0], tuple(row[j] for j in by_cols)), []).append(i)

    # Each merged group appears at its first member's position.
    replacement: dict[int, list[Symbol]] = {}
    skip: set[int] = set()
    for members in groups.values():
        if len(members) == 1:
            continue
        merged = _merge_rows([rows[i] for i in members])
        if merged is None:
            continue
        replacement[members[0]] = merged
        skip.update(members[1:])

    grid = [rows[0]]
    grid += (replacement.get(i, rows[i]) for i in table.data_row_indices() if i not in skip)
    return _named(Table(grid), name)


def purge(table: Table, on: object, by: object, name: object | None = None) -> Table:
    """``T ← PURGE on ℬ by 𝒜 (R)`` — the dual of clean-up.

    Merges position-wise compatible groups of data *columns* that carry the
    same column attribute (from ℬ) and agree on their 𝒜-subcolumn (entries
    in the rows whose row attribute is in 𝒜).
    """
    return _named(transpose(cleanup(transpose(table), by=by, on=on)), name)
