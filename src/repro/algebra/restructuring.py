"""The four restructuring operations (paper, Section 3.2).

GROUP and MERGE (respectively SPLIT and COLLAPSE) are inverses of each
other — up to the redundancy that CLEAN-UP and PURGE remove.  The formal
definitions were suppressed in the extended abstract; the semantics here
are reconstructed from the paper's worked examples and validated against
Figures 1, 4, and 5 (see DESIGN.md, Section 3, decisions 5–8).

Summary of the reconstruction:

* ``GROUP by 𝒜 on ℬ (R)``: pivots the ℬ-columns out into one ℬ-block per
  data row and turns each 𝒜-column into a header data row (row attribute =
  the attribute itself) carrying the per-row 𝒜-values.
* ``MERGE on ℬ by 𝒜 (R)``: segments the ℬ-columns into blocks (a block
  closes when an attribute name would repeat) and emits one output row per
  (non-𝒜 data row × block), reading the 𝒜-values from the rows whose row
  attribute is in 𝒜.
* ``SPLIT on 𝒜 (R)``: one result table per distinct combination of
  𝒜-column entries; each gets per-𝒜-column header rows with the
  combination value repeated across the width.
* ``COLLAPSE by 𝒜 (R)``: merges every table named R on *all* its scheme
  attributes by 𝒜, then folds the results with tabular union.

Provenance contract: all four operations build their outputs purely by
*copying* input symbol objects into new positions (the pivoted header
rows of GROUP replicate attribute and value cells; MERGE reads its
𝒜-values from provider rows; padding uses the un-tagged ⊥ constant), so
cell lineage (:mod:`repro.obs.lineage`) flows through them without any
explicit hook — except COLLAPSE's final clean-up, which unions lineage
at its merge sites like every redundancy removal.
"""

from __future__ import annotations

from typing import Sequence

from ..core import NULL, Symbol, Table
from ..core.table import _from_checked
from .opshelpers import as_attr_set, as_attr_symbol, columns_with_attr_in, require
from .traditional import union

__all__ = ["group", "merge", "split", "collapse", "segment_blocks"]


def _named(table: Table, name: object | None) -> Table:
    if name is None:
        return table
    return table.with_name(as_attr_symbol(name))


def group(table: Table, by: object, on: object, name: object | None = None) -> Table:
    """``T ← GROUP by 𝒜 on ℬ (R)`` — Section 3.2's three-step construction.

    1. The new attribute row keeps the attributes outside 𝒜 ∪ ℬ and then
       repeats the ℬ-attributes once per data row of R.
    2. Each 𝒜-column becomes the next data row: row attribute = that
       column's attribute (a literal), ⊥ under the kept attributes, and
       under block *i* the 𝒜-entry of R's row *i* (repeated across the
       block's columns).
    3. R's data row *i* re-appears with its kept entries and its ℬ-entries
       under block *i*, ⊥ elsewhere.

    Validated against Figure 4 (top ↦ bottom) exactly.
    """
    by_set = as_attr_set(by)
    on_set = as_attr_set(on)
    require(not (by_set & on_set), "GROUP: the by- and on-attribute sets must be disjoint")
    by_cols = columns_with_attr_in(table, by_set)
    on_cols = columns_with_attr_in(table, on_set)
    require(bool(by_cols), f"GROUP: no column carries a by-attribute from {sorted(map(str, by_set))}")
    require(bool(on_cols), f"GROUP: no column carries an on-attribute from {sorted(map(str, on_set))}")
    pivoted = set(by_cols) | set(on_cols)
    rest_cols = [j for j in table.data_col_indices() if j not in pivoted]
    attrs, *data = table.grid
    block_width = len(on_cols)

    # Rows are built from whole tuples: a row's ⊥ blocks are slices of
    # one all-⊥ tuple as wide as every block together.
    rest_nulls = (NULL,) * len(rest_cols)
    pad = (NULL,) * (block_width * len(data))
    grid = [
        (attrs[0],)
        + tuple(attrs[j] for j in rest_cols)
        + tuple(attrs[j] for j in on_cols) * len(data)
    ]

    # One header data row per 𝒜-column.
    for c in by_cols:
        values = tuple(entry for row in data for entry in (row[c],) * block_width)
        grid.append((attrs[c],) + rest_nulls + values)

    # One data row per original data row, its ℬ-entries under its own block.
    for position, row in enumerate(data):
        start = position * block_width
        grid.append(
            (row[0],)
            + tuple(row[j] for j in rest_cols)
            + pad[:start]
            + tuple(row[j] for j in on_cols)
            + pad[start + block_width:]
        )

    return _named(_from_checked(grid), name)


def segment_blocks(table: Table, on_cols: Sequence[int]) -> list[list[int]]:
    """Segment ℬ-columns into blocks, closing a block on a repeated attribute.

    The output of ``GROUP … on ℬ`` segments back into its per-row copies of
    the ℬ-sequence; a relation-style table in which each ℬ-attribute occurs
    once forms a single block.  (DESIGN.md decision 6.)
    """
    blocks: list[list[int]] = []
    current: list[int] = []
    seen: set[Symbol] = set()
    for j in on_cols:
        attr = table.entry(0, j)
        if attr in seen:
            blocks.append(current)
            current = []
            seen = set()
        current.append(j)
        seen.add(attr)
    if current:
        blocks.append(current)
    return blocks


def merge(table: Table, on: object, by: object, name: object | None = None) -> Table:
    """``T ← MERGE on ℬ by 𝒜 (R)`` — the inverse of grouping.

    Emits one output data row per (data row whose row attribute ∉ 𝒜) ×
    (block of ℬ-columns); the 𝒜-values come from the data rows whose row
    attribute *is* in 𝒜, read at the block's columns.  Defined on *all*
    tables, not only those that resulted from a grouping (Section 3.2).

    Validated against Figure 5 (``SalesInfo2`` ↦ the printed 12-row table).
    """
    on_set = as_attr_set(on)
    by_set = as_attr_set(by)
    on_cols = columns_with_attr_in(table, on_set)
    require(bool(on_cols), f"MERGE: no column carries an on-attribute from {sorted(map(str, on_set))}")
    blocks = segment_blocks(table, on_cols)
    rest_cols = [j for j in table.data_col_indices() if j not in set(on_cols)]

    provider_rows = [i for i in table.data_row_indices() if table.entry(i, 0) in by_set]
    emit_rows = [i for i in table.data_row_indices() if table.entry(i, 0) not in by_set]

    # Output 𝒜-columns, ordered by first appearance as a provider row
    # attribute; members of 𝒜 never appearing come last in symbol order.
    seen_order: list[Symbol] = []
    for i in provider_rows:
        attr = table.entry(i, 0)
        if attr not in seen_order:
            seen_order.append(attr)
    missing = sorted(by_set - set(seen_order), key=lambda s: s.sort_key())
    by_order = seen_order + missing

    # Output ℬ-columns: distinct ℬ-names in first-appearance column order.
    on_names: list[Symbol] = []
    for j in on_cols:
        attr = table.entry(0, j)
        if attr not in on_names:
            on_names.append(attr)

    header: list[Symbol] = [table.name]
    header += [table.entry(0, j) for j in rest_cols]
    header += by_order
    header += on_names
    grid = [header]

    def provider_value(attr: Symbol, block: Sequence[int]) -> Symbol:
        """First non-⊥ entry of an 𝒜-named provider row at the block."""
        for i in provider_rows:
            if table.entry(i, 0) != attr:
                continue
            for j in block:
                entry = table.entry(i, j)
                if not entry.is_null:
                    return entry
        return NULL

    for i in emit_rows:
        for block in blocks:
            row: list[Symbol] = [table.entry(i, 0)]
            row += [table.entry(i, j) for j in rest_cols]
            row += [provider_value(attr, block) for attr in by_order]
            block_attrs = {table.entry(0, j): j for j in block}
            row += [
                table.entry(i, block_attrs[a]) if a in block_attrs else NULL
                for a in on_names
            ]
            grid.append(row)

    return _named(_from_checked(grid), name)


def split(table: Table, on: object, name: object | None = None) -> tuple[Table, ...]:
    """``T ← SPLIT on 𝒜 (R)`` — one table per 𝒜-combination.

    All result tables share the attribute row of R minus the 𝒜-columns.
    Each carries, per 𝒜-column, a header data row whose row attribute is
    that column's attribute (a literal) and whose every other position
    repeats the combination's value; then the matching data rows, with the
    𝒜-columns projected out.  Validated against ``SalesInfo4`` (Figure 1).
    """
    on_set = as_attr_set(on)
    a_cols = columns_with_attr_in(table, on_set)
    require(bool(a_cols), f"SPLIT: no column carries an attribute from {sorted(map(str, on_set))}")
    rest_cols = [j for j in table.data_col_indices() if j not in set(a_cols)]

    keys: list[tuple[Symbol, ...]] = []
    members: dict[tuple[Symbol, ...], list[int]] = {}
    for i in table.data_row_indices():
        key = tuple(table.entry(i, j) for j in a_cols)
        if key not in members:
            keys.append(key)
            members[key] = []
        members[key].append(i)

    result_name = table.name if name is None else as_attr_symbol(name)
    tables = []
    for key in keys:
        grid: list[list[Symbol]] = [
            [result_name] + [table.entry(0, j) for j in rest_cols]
        ]
        for value, c in zip(key, a_cols):
            grid.append([table.entry(0, c)] + [value] * len(rest_cols))
        for i in members[key]:
            grid.append([table.entry(i, 0)] + [table.entry(i, j) for j in rest_cols])
        tables.append(_from_checked(grid))
    return tuple(tables)


def collapse(tables: Sequence[Table], by: object, name: object | None = None) -> Table:
    """``T ← COLLAPSE by 𝒜 (R)`` — the inverse of splitting.

    Every input table is first merged on *all* the attributes of its scheme
    by 𝒜, then the results are folded with tabular union (Section 3.2).
    The result is deliberately uneconomical; CLEAN-UP and PURGE recover the
    compact form (see :func:`repro.algebra.derived.collapse_compact`).
    """
    require(bool(tables), "COLLAPSE: at least one input table is required")
    merged = []
    for table in tables:
        scheme = frozenset(table.column_attributes)
        require(
            bool(scheme),
            "COLLAPSE: a table with no data columns cannot be merged",
        )
        merged.append(merge(table, on=scheme, by=by))
    result = merged[0]
    for other in merged[1:]:
        result = union(result, other)
    return _named(result, name)
