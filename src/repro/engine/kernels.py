"""Hash-based kernels over interned id-tables.

Each kernel reimplements one registered operation of the tabular
algebra on :class:`~repro.engine.interning.IdTable` inputs, returning a
result **grid-identical** to the naive operation (same rows, same
order, cell-for-cell equal symbols).  The differential harness in
``tests/engine`` is the contract: any divergence from
:mod:`repro.algebra` is a bug in the kernel, never a "close enough".

Two kernels remain, SELECT and SELECTCONST: each scans its rows
comparing ⊥-stripped id sets, where the naive op builds a frozenset of
symbols per row and attribute.

Kernels take ``(interner, tables, kwargs)`` with the keyword arguments
already evaluated by the statement layer, and return a ``Table`` (or
``None`` to decline, routing the call to the naive operation).

A kernel is kept only while it beats its naive operation by at least 2x
with its inputs already interned, its best case
(``test_every_kernel_pays_for_itself`` in
``benchmarks/bench_scaling_ops.py``).  It also goes when every
benchmark workload that dispatches it runs no slower without it
(``docs/ENGINE.md``, "The end-to-end rule").  Every other operation has
no kernel and always falls back:

* the copy operations — UNION, PRODUCT, PROJECT, RENAME, TRANSPOSE,
  CONSTCOLUMN — only move symbols, so hashing ids saves no comparison
  and interning plus materialization cost more than the naive copy;
* the clean-up family — CLEANUP, PURGE, DEDUPCOLUMNS — already groups
  by hash in its naive form; ids speed up only the position-wise merge,
  which falls short of 2x on some representative shape (CLEANUP on the
  paper's pivot, PURGE and DEDUPCOLUMNS on relation-style tables);
* the difference family — DIFFERENCE, INTERSECTION, DROPNULLROWS —
  hashes each row's mutual-subsumption key or tests each row for ⊥ in
  its naive form, so ids save too little to clear 2x;
* in their naive form (:mod:`repro.algebra.derived`) DEDUP and
  CLASSICALUNION hash whole rows and PRODUCTSELECT pushes the selection
  below the product; their kernels beat that only on pre-interned
  inputs and lost end to end, where each call interns cold tables and
  rebuilds symbol rows;
* TUPLENEW and SETNEW mint fresh symbols, and GROUP, MERGE, SPLIT,
  COLLAPSE, SWITCH, NATURALJOIN and the compacts are structural.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..algebra.opshelpers import as_attr_symbol
from ..core import Table, coerce_symbol
from .interning import SymbolInterner

__all__ = ["KERNELS"]


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


#: Kernel catalogue, keyed by registry operation name.  Every op absent
#: here falls back to the naive operation: the copy ops, the clean-up
#: and difference families, DEDUP, PRODUCTSELECT and CLASSICALUNION
#: because their kernels lost to the naive op, beat it by less than 2x,
#: or lost end to end (decision tables in ``docs/ENGINE.md``), the rest
#: because they are structural or mint fresh symbols.
KERNELS: dict[str, object] = {
    "SELECT": k_select,
    "SELECTCONST": k_select_constant,
}
