"""Traditional operations of the tabular algebra (paper, Section 3.1).

Adaptations of the classical relational operations to tables: union,
difference, intersection, Cartesian product, renaming, projection, and
selection.  Following Figure 3:

* **union** and **difference** are defined so that they *always exist* —
  union concatenates schemes and pads with ⊥; difference keeps the left
  scheme and filters rows by mutual subsumption;
* **selection** compares attribute entry sets under *weak* equality;
* the **classical** versions of union etc. are *derived* (see
  :mod:`repro.algebra.derived`) by composing the tabular versions with the
  redundancy-removal operations, exactly as Section 3.4 describes.

Every operation takes an optional ``name`` for the result table (the ``T``
of an assignment statement); by default the left operand's name is kept.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator

from ..core import NULL, Null, Symbol, Table
from ..core.table import _from_checked
from ..obs import runtime as _obs
from ..obs.lineage import derived_from
from .opshelpers import (
    as_attr_set,
    as_attr_symbol,
    columns_with_attr_in,
    combine_row_attributes,
)

__all__ = [
    "union",
    "difference",
    "intersection",
    "product",
    "rename",
    "project",
    "select",
    "select_constant",
]


def _named(table: Table, name: object | None) -> Table:
    if name is None:
        return table
    return table.with_name(as_attr_symbol(name))


def union(rho: Table, sigma: Table, name: object | None = None) -> Table:
    """Tabular union ``T ← R ∪ S`` (Figure 3, left).

    The result's scheme is ρ's columns followed by σ's; ρ's data rows are
    padded with ⊥ under σ's columns and vice versa.  Always defined — no
    union compatibility is required.
    """
    left_pad = (NULL,) * sigma.width
    right_pad = (NULL,) * rho.width
    grid = [rho.row(0) + sigma.column_attributes]
    for i in rho.data_row_indices():
        grid.append(rho.row(i) + left_pad)
    for k in sigma.data_row_indices():
        row = sigma.row(k)
        grid.append((row[0],) + right_pad + row[1:])
    return _named(_from_checked(grid), name)


def _mutual_subsumption_keys(table: Table) -> Iterator[tuple]:
    """Yield, per data row in order, its mutual-subsumption key: the row
    attribute and the frozenset of ``(a, τ_i(a) \\ {⊥})`` pairs over the
    column attributes ``a`` whose ⊥-stripped entry set is non-empty."""
    columns: dict[Symbol, list[int]] = {}
    for j, attr in enumerate(table.column_attributes, start=1):
        columns.setdefault(attr, []).append(j)
    groups = list(columns.items())
    for row in table.grid[1:]:
        pairs = []
        for attr, js in groups:
            entries = frozenset([row[j] for j in js if not isinstance(row[j], Null)])
            if entries:
                pairs.append((attr, entries))
        yield row[0], frozenset(pairs)


def aligned_rows(rho: Table, sigma: Table) -> Iterable[tuple[Symbol, ...]] | None:
    """σ's data rows with their columns in ρ's attribute order, when ρ
    and σ are relation-style over one attribute set; otherwise None.

    Relation-style means distinct column attributes.  An attribute
    unequal to itself (a NaN) is distinct from every attribute, its own
    copy in the other table included, so it takes the general path.
    Decided from the two attribute rows alone, in O(width); when the
    orders already match, σ's rows come as they are.
    """
    attrs = rho.column_attributes
    position = {attr: j for j, attr in enumerate(sigma.column_attributes, start=1)}
    if len(attrs) != sigma.width or len(position) != sigma.width:
        return None
    order = [position.get(attr) for attr in attrs]
    if None in order or len(set(order)) != len(order):
        return None
    if not all(attr == attr for attr in attrs):
        return None
    if order == sorted(order):
        return sigma.grid[1:]
    return map(itemgetter(0, *order), sigma.grid[1:])


def _rows_by_key(rho: Table, sigma: Table, keep_present: bool) -> list:
    """ρ's attribute row, then its data rows in order whose key is (or,
    with ``keep_present`` false, is not) among σ's keys."""
    grid = rho.grid
    rows = aligned_rows(rho, sigma)
    if rows is None:
        keys = set(_mutual_subsumption_keys(sigma))
        rho_keys = _mutual_subsumption_keys(rho)
    else:
        keys = set(rows)
        rho_keys = grid[1:]
    kept = [grid[0]]
    kept += [row for row, key in zip(grid[1:], rho_keys) if (key in keys) == keep_present]
    return kept


def difference(rho: Table, sigma: Table, name: object | None = None) -> Table:
    """Tabular difference ``T ← R \\ S`` (Figure 3, middle).

    Keeps ρ's scheme; a data row of ρ is dropped iff some data row of σ
    *mutually subsumes* it (ρ_i ≍ σ_k) and their row attributes coincide.
    Always defined.

    Instead of testing every pair of rows, each row gets one hashable
    key: its row attribute plus the frozenset of ``(a, ⊥-stripped entry
    set)`` pairs over the column attributes ``a`` where that set is
    non-empty.  ``ρ_i ≍ σ_k`` says ``ρ_i(a) ≈ σ_k(a)`` for every
    attribute ``a`` of either scheme, i.e. equal ⊥-stripped entry sets;
    an attribute a row's scheme lacks, or whose entries in the row are
    all ⊥, gives the empty set and is left out of the key on both sides.
    So two keys are equal iff the row attributes coincide and the rows
    mutually subsume each other.  σ's keys are hashed once and ρ's rows
    stream past in order, which gives exactly the pairwise scan's rows
    (:meth:`Table.rows_subsume_each_other` is that definition) in
    O(|ρ| + |σ|) hashed lookups.

    When ρ and σ are relation-style over one attribute set (see
    :func:`aligned_rows`) each attribute holds one entry per row, so
    ``ρ_i(a) ≈ σ_k(a)`` says the two entries are equal or both ⊥, and
    mutual subsumption is plain equality once σ's columns stand in ρ's
    order.  Then a ρ row is its own key, row attribute included, and σ's
    rows are keyed in ρ's column order (as they are, when the orders
    already match).
    """
    return _named(_from_checked(_rows_by_key(rho, sigma, keep_present=False)), name)


def intersection(rho: Table, sigma: Table, name: object | None = None) -> Table:
    """Tabular intersection, defined as ``R \\ (R \\ S)`` in the usual way.

    Computed directly: keep, in order, the rows of ρ whose
    mutual-subsumption key (see :func:`difference`, relation-style
    inputs included) occurs among σ's.
    That is ``R \\ (R \\ S)`` row for row: a ρ row whose key σ lacks is
    itself in ``R \\ S`` and so removes itself, while a ρ row whose key σ
    has meets no row of ``R \\ S`` with that key.
    """
    return _named(_from_checked(_rows_by_key(rho, sigma, keep_present=True)), name)


def product(rho: Table, sigma: Table, name: object | None = None) -> Table:
    """Tabular Cartesian product ``T ← R × S`` (Figure 3, right).

    One output data row per pair of data rows; schemes concatenate; the
    single row-attribute slot combines the two input row attributes
    (equal → kept, one ⊥ → the other, conflict → ⊥).

    Under an active lineage scope the combined row attribute accumulates
    the provenance of *both* argument rows: column 0 can never be
    projected away, so join ancestry survives any later PROJECT/SELECT —
    this is what makes multi-hop witnesses (e.g. transitive closure)
    cite their intermediate edges.
    """
    lin = _obs.OBS.lineage
    grid = [rho.row(0) + sigma.column_attributes]
    if lin is None:
        for i in rho.data_row_indices():
            left = rho.row(i)
            for k in sigma.data_row_indices():
                right = sigma.row(k)
                attr = combine_row_attributes(left[0], right[0])
                grid.append((attr,) + left[1:] + right[1:])
    else:
        for i in rho.data_row_indices():
            left = rho.row(i)
            for k in sigma.data_row_indices():
                right = sigma.row(k)
                attr = combine_row_attributes(left[0], right[0])
                attr = derived_from(attr, left + right)
                grid.append((attr,) + left[1:] + right[1:])
    return _named(_from_checked(grid), name)


def rename(table: Table, old: object, new: object, name: object | None = None) -> Table:
    """``T ← RENAME_{B←A}(R)``: replace attribute ``A`` by ``B`` in the
    attribute row (every occurrence).

    Under an active lineage scope each substituted attribute derives
    from the attribute cell it replaces.
    """
    lin = _obs.OBS.lineage
    old_sym = as_attr_symbol(old)
    new_sym = as_attr_symbol(new)
    header = list(table.row(0))
    for j in range(1, len(header)):
        if header[j] == old_sym:
            header[j] = new_sym if lin is None else derived_from(new_sym, (header[j],))
    grid = [tuple(header)] + [table.row(i) for i in table.data_row_indices()]
    return _named(_from_checked(grid), name)


def project(table: Table, attrs: object, name: object | None = None) -> Table:
    """``T ← PROJECT_𝒜(R)``: keep the columns whose attribute lies in 𝒜.

    The attribute column (row attributes) is kept implicitly, mirroring how
    the relational projection keeps tuple identity (DESIGN.md decision 4).
    """
    attr_set = as_attr_set(attrs)
    keep = [0] + columns_with_attr_in(table, attr_set)
    return _named(table.subtable(range(table.nrows), keep), name)


def select(table: Table, left: object, right: object, name: object | None = None) -> Table:
    """``T ← SELECT_{A=B}(R)``: keep data rows where ``τ_i(A) ≈ τ_i(B)``.

    Weak equality is used instead of classical equality (Section 3.1), so
    rows where both attribute entry sets are entirely ⊥ also qualify.
    """
    a = as_attr_symbol(left)
    b = as_attr_symbol(right)
    from ..core import weakly_equal

    kept = [table.row(0)]
    for i in table.data_row_indices():
        if weakly_equal(table.row_entry_set(i, a), table.row_entry_set(i, b)):
            kept.append(table.row(i))
    return _named(_from_checked(kept), name)


def select_constant(
    table: Table, attr: object, value: object, name: object | None = None
) -> Table:
    """Constant selection ``T ← σ_{A=v}(R)``: keep rows with ``τ_i(A) ≈ {v}``.

    The paper derives this from SWITCH and SELECT (Section 3.3); it is
    provided directly as a derived operation.  With ``v = ⊥`` this keeps
    the rows whose ``A``-entries are entirely inapplicable — the building
    block for "selecting out the tuples with Sold entry ⊥" (Section 3.2).
    """
    from ..core import coerce_symbol, weakly_equal

    a = as_attr_symbol(attr)
    v = coerce_symbol(value)
    kept = [table.row(0)]
    for i in table.data_row_indices():
        if weakly_equal(table.row_entry_set(i, a), {v}):
            kept.append(table.row(i))
    return _named(_from_checked(kept), name)
