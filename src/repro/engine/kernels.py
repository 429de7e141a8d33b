"""The kernel catalogue: empty, so every operation runs naive.

A kernel would reimplement one registered operation of the tabular
algebra, returning a result grid-identical to the naive operation.  It
is kept only while it beats its naive operation by at least 2x in its
best case, and only while some benchmark workload that dispatches it
runs faster with it (``docs/ENGINE.md``, "Which kernels stay: the 2x
rule" and "The end-to-end rule").  No kernel clears both now:

* the copy operations — UNION, PRODUCT, PROJECT, RENAME, TRANSPOSE,
  CONSTCOLUMN — only move symbols;
* the clean-up family — CLEANUP, PURGE, DEDUPCOLUMNS — already groups
  by hash in its naive form;
* the difference family — DIFFERENCE, INTERSECTION, DROPNULLROWS —
  hashes one key per row, or tests each row once for ⊥;
* DEDUP and CLASSICALUNION hash whole rows, and PRODUCTSELECT pushes the
  selection below the product;
* SELECT and SELECTCONST find their attributes' columns once and compare
  entries directly, which beat their kernels even with inputs already
  interned;
* TUPLENEW and SETNEW mint fresh symbols, and GROUP, MERGE, SPLIT,
  COLLAPSE, SWITCH, NATURALJOIN and the compacts are structural.

So a vector run records every invocation as a naive fallback.
"""

from __future__ import annotations

__all__ = ["KERNELS"]

#: Kernel catalogue, keyed by registry operation name; every op absent
#: here falls back to the naive operation (decision tables in
#: ``docs/ENGINE.md``).
KERNELS: dict[str, object] = {}
