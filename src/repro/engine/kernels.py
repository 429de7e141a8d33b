"""Hash-based kernels over interned id-tables.

Each kernel reimplements one registered operation of the tabular
algebra on :class:`~repro.engine.interning.IdTable` inputs, returning a
result **grid-identical** to the naive operation (same rows, same
order, cell-for-cell equal symbols).  The differential harness in
``tests/engine`` is the contract: any divergence from
:mod:`repro.algebra` is a bug in the kernel, never a "close enough".

Where the naive operations pay quadratic symbol-level scans, the
kernels hash:

* ``deduplicate`` degenerates to keep-first distinct over full id-rows
  (clean-up by the full scheme groups rows by their entire content, and
  identical rows always merge into themselves);
* ``product_select`` (the planner's fused ``PRODUCT``+``SELECT`` pair)
  pushes the selection below the product: when the two compared
  attributes live on opposite sides it becomes a hash join, when both
  live on one side a pre-filter, and only genuinely mixed attributes
  fall back to a pairwise id scan — which still skips materializing the
  unselected rows as symbol tables.

Kernels take ``(interner, tables, kwargs)`` with the keyword arguments
already evaluated by the statement layer, and return a ``Table`` (or
``None`` to decline, routing the call to the naive operation).

A kernel is kept only while it beats its naive operation by at least 2x
with its inputs already interned, its best case
(``test_every_kernel_pays_for_itself`` in
``benchmarks/bench_scaling_ops.py``).  Every other operation has no
kernel and always falls back:

* the copy operations — UNION, PRODUCT, PROJECT, RENAME, TRANSPOSE,
  CONSTCOLUMN — only move symbols, so hashing ids saves no comparison
  and interning plus materialization cost more than the naive copy;
* the clean-up family — CLEANUP, PURGE, DEDUPCOLUMNS — already groups
  by hash in its naive form; ids speed up only the position-wise merge,
  which falls short of 2x on some representative shape (CLEANUP on the
  paper's pivot, PURGE and DEDUPCOLUMNS on relation-style tables);
* the difference family — DIFFERENCE, INTERSECTION, DROPNULLROWS —
  hashes each row's mutual-subsumption key in its naive form
  (:func:`repro.algebra.difference`), the same key a kernel would hash
  over ids, so ids save too little to clear 2x;
* TUPLENEW and SETNEW mint fresh symbols, and GROUP, MERGE, SPLIT,
  COLLAPSE, SWITCH, NATURALJOIN and the compacts are structural.

The id-level union, purge and transpose below remain because
CLASSICALUNION composes them.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..algebra.opshelpers import as_attr_symbol
from ..core import Table, coerce_symbol
from .interning import IdTable, SymbolInterner

__all__ = ["KERNELS"]


# ----------------------------------------------------------------------
# Shared id-level helpers
# ----------------------------------------------------------------------

def _combine_attr(left: int, right: int) -> int:
    """Id-level ``combine_row_attributes`` (0 is ⊥)."""
    if left == right:
        return left
    if not left:
        return right
    if not right:
        return left
    return 0


def _merge_ids(
    row_attrs: tuple[int, ...],
    rows: Sequence[tuple[int, ...]],
    members: list[int],
    width: int,
) -> tuple[int, tuple[int, ...]] | None:
    """Position-wise merge of a clean-up group, or None when incompatible."""
    candidate = 0
    for i in members:
        entry = row_attrs[i]
        if not entry:
            continue
        if not candidate:
            candidate = entry
        elif candidate != entry:
            return None
    merged_attr = candidate
    merged: list[int] = []
    for j in range(width):
        candidate = 0
        for i in members:
            entry = rows[i][j]
            if not entry:
                continue
            if not candidate:
                candidate = entry
            elif candidate != entry:
                return None
        merged.append(candidate)
    return merged_attr, tuple(merged)


def _cleanup_rows(
    col_attrs: tuple[int, ...],
    row_attrs: tuple[int, ...],
    rows: Sequence[tuple[int, ...]],
    by_ids: frozenset[int],
    on_ids: frozenset[int],
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The clean-up algorithm of :func:`repro.algebra.redundancy.cleanup`
    ported to ids: group the on-rows by (row attribute, by-subtuple),
    merge compatible groups at their first member, keep the rest."""
    by_cols = [j for j, a in enumerate(col_attrs) if a in by_ids]
    order: list[tuple] = []
    groups: dict[tuple, list[int]] = {}
    for i, attr in enumerate(row_attrs):
        if attr not in on_ids:
            continue
        key = (attr, tuple(rows[i][j] for j in by_cols))
        bucket = groups.get(key)
        if bucket is None:
            order.append(key)
            groups[key] = [i]
        else:
            bucket.append(i)
    replacement: dict[int, tuple[int, tuple[int, ...]]] = {}
    skip: set[int] = set()
    width = len(col_attrs)
    for key in order:
        members = groups[key]
        if len(members) == 1:
            continue
        merged = _merge_ids(row_attrs, rows, members, width)
        if merged is None:
            continue
        replacement[members[0]] = merged
        skip.update(members[1:])
    out_attrs: list[int] = []
    out_rows: list[tuple[int, ...]] = []
    for i, attr in enumerate(row_attrs):
        if i in skip:
            continue
        rep = replacement.get(i)
        if rep is not None:
            out_attrs.append(rep[0])
            out_rows.append(rep[1])
        else:
            out_attrs.append(attr)
            out_rows.append(tuple(rows[i]))
    return tuple(out_attrs), out_rows


def _cleanup_idt(idt: IdTable, by_ids: frozenset[int], on_ids: frozenset[int]) -> IdTable:
    attrs, rows = _cleanup_rows(idt.col_attrs, idt.row_attrs, idt.rows, by_ids, on_ids)
    return IdTable(idt.name, idt.col_attrs, attrs, rows=tuple(rows))


def _purge_idt(idt: IdTable, on_ids: frozenset[int], by_ids: frozenset[int]) -> IdTable:
    """PURGE on ℬ by 𝒜 = TRANSPOSE ∘ CLEAN-UP by 𝒜 on ℬ ∘ TRANSPOSE."""
    return _cleanup_idt(idt.transposed(), by_ids, on_ids).transposed()


def _distinct_rows(idt: IdTable) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Keep-first distinct full rows (row attribute included).

    Equivalent to ``deduplicate``: clean-up by the full scheme keys
    every data column, so groups hold exactly the identical rows, and
    identical rows always merge into themselves at the first position.
    """
    seen: set[tuple] = set()
    out_attrs: list[int] = []
    out_rows: list[tuple[int, ...]] = []
    for attr, row in zip(idt.row_attrs, idt.rows):
        key = (attr, row)
        if key in seen:
            continue
        seen.add(key)
        out_attrs.append(attr)
        out_rows.append(row)
    return tuple(out_attrs), out_rows


def _dedup_columns_idt(idt: IdTable) -> IdTable:
    """``deduplicate_columns``: purge over the full scheme, empty 𝒜."""
    on = frozenset(idt.col_attrs) | {0}
    return _purge_idt(idt, on, frozenset())


def _union_idt(r: IdTable, s: IdTable) -> IdTable:
    left_pad = (0,) * s.width
    right_pad = (0,) * r.width
    rows = [row + left_pad for row in r.rows]
    rows += [right_pad + row for row in s.rows]
    return IdTable(
        r.name, r.col_attrs + s.col_attrs, r.row_attrs + s.row_attrs, rows=tuple(rows)
    )


# ----------------------------------------------------------------------
# Kernels (same observable behaviour as repro.algebra, on ids)
# ----------------------------------------------------------------------

def k_product_select(
    itn: SymbolInterner, tables: Sequence[Table], kwargs: Mapping
) -> Table:
    """Fused ``SELECT left A right B (PRODUCT (R, S))`` with pushdown.

    The selection condition on a product row is ``τ(A) ≈ τ(B)`` where
    each entry set splits by side: ``τ(A) = A_left(i) ∪ A_right(k)``.
    When neither attribute's columns span both sides the condition
    factors — into a one-sided pre-filter (both attributes on the same
    side) or an equality of per-side signatures (opposite sides), which
    is a hash join.  Output order is exactly the naive ``(i, k)``
    product order filtered.
    """
    r, s = itn.intern_table(tables[0]), itn.intern_table(tables[1])
    a = itn.intern(as_attr_symbol(kwargs["left"]))
    b = itn.intern(as_attr_symbol(kwargs["right"]))
    a_left = [j for j, x in enumerate(r.col_attrs) if x == a]
    a_right = [j for j, x in enumerate(s.col_attrs) if x == a]
    b_left = [j for j, x in enumerate(r.col_attrs) if x == b]
    b_right = [j for j, x in enumerate(s.col_attrs) if x == b]

    r_attrs, r_rows = r.row_attrs, r.rows
    s_attrs, s_rows = s.row_attrs, s.rows
    out_attrs: list[int] = []
    out_rows: list[tuple[int, ...]] = []

    def emit(i: int, k: int) -> None:
        out_attrs.append(_combine_attr(r_attrs[i], s_attrs[k]))
        out_rows.append(r_rows[i] + s_rows[k])

    def sig(row: tuple[int, ...], cols: list[int]) -> frozenset[int]:
        return frozenset(row[j] for j in cols if row[j])

    if a == b:
        # τ(A) ≈ τ(A): every pair qualifies — a plain product.
        for i in range(len(r_rows)):
            for k in range(len(s_rows)):
                emit(i, k)
    elif (a_left and a_right) or (b_left and b_right):
        # An attribute's columns span both sides: the condition does not
        # factor, scan pairs (still id-level, still unmaterialized).
        for i in range(len(r_rows)):
            sa_l = sig(r_rows[i], a_left)
            sb_l = sig(r_rows[i], b_left)
            for k in range(len(s_rows)):
                if sa_l | sig(s_rows[k], a_right) == sb_l | sig(s_rows[k], b_right):
                    emit(i, k)
    elif not a_right and not b_right:
        # Both attributes resolve on the left: filter ρ, product with σ.
        for i in range(len(r_rows)):
            if sig(r_rows[i], a_left) == sig(r_rows[i], b_left):
                for k in range(len(s_rows)):
                    emit(i, k)
    elif not a_left and not b_left:
        # Both resolve on the right: filter σ once, then emit per ρ-row.
        kept = [
            k
            for k in range(len(s_rows))
            if sig(s_rows[k], a_right) == sig(s_rows[k], b_right)
        ]
        for i in range(len(r_rows)):
            for k in kept:
                emit(i, k)
    else:
        # Opposite sides: hash join on the per-side signatures.
        left_cols, right_cols = (a_left, b_right) if a_left else (b_left, a_right)
        buckets: dict[frozenset[int], list[int]] = {}
        for k in range(len(s_rows)):
            buckets.setdefault(sig(s_rows[k], right_cols), []).append(k)
        empty: list[int] = []
        for i in range(len(r_rows)):
            for k in buckets.get(sig(r_rows[i], left_cols), empty):
                emit(i, k)
    return itn.materialize(r.name, r.col_attrs + s.col_attrs, tuple(out_attrs), out_rows)


def k_select(itn: SymbolInterner, tables: Sequence[Table], kwargs: Mapping) -> Table:
    t = itn.intern_table(tables[0])
    a = itn.intern(as_attr_symbol(kwargs["left"]))
    b = itn.intern(as_attr_symbol(kwargs["right"]))
    a_cols = [j for j, x in enumerate(t.col_attrs) if x == a]
    b_cols = [j for j, x in enumerate(t.col_attrs) if x == b]
    kept = [
        i
        for i, row in enumerate(t.rows)
        if {row[j] for j in a_cols if row[j]} == {row[j] for j in b_cols if row[j]}
    ]
    return itn.materialize(
        t.name,
        t.col_attrs,
        tuple(t.row_attrs[i] for i in kept),
        [t.rows[i] for i in kept],
    )


def k_select_constant(
    itn: SymbolInterner, tables: Sequence[Table], kwargs: Mapping
) -> Table:
    t = itn.intern_table(tables[0])
    a = itn.intern(as_attr_symbol(kwargs["attr"]))
    v = itn.intern(coerce_symbol(kwargs["value"]))
    target = {v} if v else set()
    a_cols = [j for j, x in enumerate(t.col_attrs) if x == a]
    kept = [
        i
        for i, row in enumerate(t.rows)
        if {row[j] for j in a_cols if row[j]} == target
    ]
    return itn.materialize(
        t.name,
        t.col_attrs,
        tuple(t.row_attrs[i] for i in kept),
        [t.rows[i] for i in kept],
    )


def k_deduplicate(itn: SymbolInterner, tables: Sequence[Table], kwargs: Mapping) -> Table:
    t = itn.intern_table(tables[0])
    attrs, rows = _distinct_rows(t)
    return itn.materialize(t.name, t.col_attrs, attrs, rows)


def k_classical_union(
    itn: SymbolInterner, tables: Sequence[Table], kwargs: Mapping
) -> Table:
    # union → purge duplicate columns → clean up duplicate rows, composed
    # entirely at the id level (one materialization at the end).
    combined = _union_idt(itn.intern_table(tables[0]), itn.intern_table(tables[1]))
    purged = _dedup_columns_idt(combined)
    attrs, rows = _distinct_rows(purged)
    return itn.materialize(purged.name, purged.col_attrs, attrs, rows)


#: Kernel catalogue, keyed by registry operation name.  Every op absent
#: here falls back to the naive operation: the copy ops (UNION, PRODUCT,
#: PROJECT, RENAME, TRANSPOSE, CONSTCOLUMN), the clean-up family
#: (CLEANUP, PURGE, DEDUPCOLUMNS) and the difference family (DIFFERENCE,
#: INTERSECTION, DROPNULLROWS, whose naive op hashes the same row key)
#: because their kernels lost to the naive op or beat it by less than 2x
#: (decision table in ``docs/ENGINE.md``), the rest because they are
#: structural or mint fresh symbols.
KERNELS: dict[str, object] = {
    "PRODUCTSELECT": k_product_select,
    "SELECT": k_select,
    "SELECTCONST": k_select_constant,
    "DEDUP": k_deduplicate,
    "CLASSICALUNION": k_classical_union,
}
