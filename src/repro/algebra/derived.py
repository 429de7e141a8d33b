"""Derived operations — compositions the paper singles out.

The tabular algebra was designed so that "useful transformations can be
expressed directly at a high level"; this module packages the compositions
the paper itself describes:

* :func:`classical_union` — tabular union, then purge (redundant columns),
  then clean-up (duplicate rows), for union-compatible relation-style
  tables (Section 3.4);
* :func:`deduplicate` / :func:`deduplicate_columns` — clean-up/purge as
  duplicate elimination;
* :func:`group_compact` — GROUP followed by the CLEAN-UP and PURGE of the
  Section 3.2/3.4 running example, yielding the *economical* grouped table
  the authors "had in mind … when we conceived this operation" (the bold
  ``Sales`` of ``SalesInfo2``);
* :func:`merge_compact` — MERGE followed by removal of the all-⊥ rows,
  recovering the relation-style table (Figure 4 top from Figure 5);
* :func:`collapse_compact` — COLLAPSE followed by redundancy removal;
* :func:`drop_all_null_rows` — "selecting out the tuples with Sold entry
  ⊥", the difference-based simulation the paper sketches.

:func:`deduplicate`, :func:`product_select` and :func:`drop_all_null_rows`
compute their composition directly (by hashing whole rows, by pushing
the selection below the product and joining on one key per row, by one
⊥ test per row), and so does :func:`classical_union` of two
relation-style tables over one attribute set (by aligning σ's columns
to ρ's instead of purging the union); the literal compositions are the
hypothesis references that pin them.

Provenance contract: derived operations inherit lineage behaviour from
the primitives they compose.  The direct paths of :func:`deduplicate`,
:func:`product_select` and :func:`classical_union` would drop
provenance a merge or a product row records, so under an active
lineage scope they run the literal composition;
:func:`drop_all_null_rows` only keeps input rows, as the difference it
replaces does.  The one symbol-*creating* site,
:func:`const_column`, deliberately emits cells with empty lineage — a
constant genuinely derives from no input cell, and the witness-replay
audit treats it as vacuously constructive.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Callable, Sequence

from ..core import NULL, Null, Symbol, Table, strip_null
from ..core.table import _from_checked
from ..obs import runtime as _obs
from .opshelpers import as_attr_set, as_attr_symbol, combine_row_attributes
from .redundancy import cleanup, purge
from .restructuring import collapse, group, merge
from .traditional import aligned_rows, product, project, select, union

__all__ = [
    "classical_union",
    "const_column",
    "deduplicate",
    "deduplicate_columns",
    "drop_all_null_rows",
    "group_compact",
    "merge_compact",
    "collapse_compact",
    "natural_join",
    "product_select",
]


def _named(table: Table, name: object | None) -> Table:
    if name is None:
        return table
    return table.with_name(as_attr_symbol(name))


def _scheme(table: Table) -> frozenset[Symbol]:
    return frozenset(table.column_attributes)


def _row_attr_universe(table: Table) -> frozenset[Symbol]:
    return frozenset(table.row_attributes) | {NULL}


def deduplicate(table: Table, name: object | None = None) -> Table:
    """Duplicate-row elimination: clean-up by the full scheme, on every
    row attribute.

    Keyed by every column, clean-up groups exactly the identical rows
    (row attribute included), so each row is hashed whole and the first
    row of a group stands for it as CLEAN-UP's merge writes it: each
    ⊥-like entry becomes the ⊥ constant.  A group whose first row holds
    an entry unequal to itself (a NaN, equal to its copies only by
    identity) is a conflict for that merge, so all its rows stay.  A
    table without duplicates comes back as it is.  Under an active
    lineage scope the clean-up runs literally, so a merged cell derives
    from every row it absorbed.
    """
    if _obs.OBS.lineage is not None:
        return _named(
            cleanup(table, by=_scheme(table), on=_row_attr_universe(table)), name
        )
    rows = table.grid[1:]
    first: dict[tuple[Symbol, ...], int] = {}
    firsts = [first.setdefault(row, i) for i, row in enumerate(rows)]
    if len(first) == len(rows):
        return _named(table, name)
    absorbing = {j for i, j in enumerate(firsts) if j != i}
    merging = {j for j in absorbing if all(e is NULL or e == e for e in rows[j])}
    grid = [table.grid[0]]
    for i, (row, j) in enumerate(zip(rows, firsts)):
        if j not in merging:
            grid.append(row)
        elif j == i:
            grid.append(tuple(NULL if e.is_null else e for e in row))
    return _named(_from_checked(grid), name)


def deduplicate_columns(table: Table, name: object | None = None) -> Table:
    """Duplicate-column elimination: purge over the full scheme.

    The empty 𝒜 makes columns group by their attribute alone, so the
    ⊥-disjoint copies produced by tabular union merge position-wise.
    """
    return _named(
        purge(table, on=_scheme(table) | {NULL}, by=frozenset()),
        name,
    )


def classical_union(rho: Table, sigma: Table, name: object | None = None) -> Table:
    """Classical union of two union-compatible relation-style tables.

    The Section 3.4 recipe: tabular union (schemes concatenate, rows pad
    with ⊥), purge to eliminate the redundant columns, clean-up to
    eliminate duplicate rows.

    When ρ and σ are relation-style over one attribute set (see
    :func:`~repro.algebra.traditional.aligned_rows`), the purge only
    undoes the union's own padding: each attribute's two columns merge
    into ρ's, ρ's rows keep their entries, σ's rows take ρ's column
    order, and the merge writes every ⊥-like entry (a lineage copy of ⊥
    too) as the ⊥ constant, attributes included.  Those rows are built
    directly and deduplicated.  Every other input, and every input under
    an active lineage scope (where a merged attribute derives from both
    tables' attributes), runs the recipe.
    """
    rows = aligned_rows(rho, sigma)
    if rows is None or _obs.OBS.lineage is not None:
        return _named(deduplicate(deduplicate_columns(union(rho, sigma))), name)
    return _named(deduplicate(_from_checked(_null_constant([*rho.grid, *rows]))), name)


def _null_constant(grid: list[tuple[Symbol, ...]]) -> list[tuple[Symbol, ...]]:
    """``grid`` with every ⊥-like entry outside column 0 written as the
    ⊥ constant, as a merge writes it; as it is when it holds no lineage
    copy of ⊥ (one pass over the entry types)."""
    kinds = set(map(type, chain.from_iterable(grid)))
    if all(kind is Null or not issubclass(kind, Null) for kind in kinds):
        return grid
    return [(row[0], *(NULL if entry.is_null else entry for entry in row[1:])) for row in grid]


def product_select(
    rho: Table, sigma: Table, left: object, right: object, name: object | None = None
) -> Table:
    """``σ_{left ≈ right}(ρ × σ)`` as one operation, the selection
    pushed below the product.

    The condition on a product row is ``τ(A) ≈ τ(B)``, and each entry
    set splits by side: ``τ(A) = τ_ρ(A) ∪ τ_σ(A)``.  When neither
    attribute has columns on both sides the condition factors: ``A = B``
    keeps every row (a plain product), both attributes on one side
    select that side before the product, and attributes on opposite
    sides join on their ⊥-stripped entry sets, hashed on σ's side (on
    the entry itself when each side has one column for its attribute).
    An attribute with columns on both sides, or an active lineage scope,
    gets the literal composition.  Rows keep the product's order, so
    every path returns the composition's grid.

    The optimizer's ``fuse-product-select`` rule rewrites adjacent
    ``T ← PRODUCT; T ← SELECT (T)`` pairs into this operation, so a join
    never materializes the ``|ρ|·|σ|`` rows the selection drops.
    """
    a, b = as_attr_symbol(left), as_attr_symbol(right)
    if _obs.OBS.lineage is not None:
        return _named(select(product(rho, sigma), a, b), name)
    a_rho, a_sigma = rho.columns_named(a), sigma.columns_named(a)
    b_rho, b_sigma = rho.columns_named(b), sigma.columns_named(b)
    if a == b:
        joined = product(rho, sigma)
    elif (a_rho and a_sigma) or (b_rho and b_sigma):
        joined = select(product(rho, sigma), a, b)
    elif not (a_sigma or b_sigma):
        joined = product(select(rho, a, b), sigma)
    elif not (a_rho or b_rho):
        joined = product(rho, select(sigma, a, b))
    else:
        joined = _equi_join(rho, sigma, a_rho or b_rho, a_sigma or b_sigma)
    return _named(joined, name)


def _equi_join(
    rho: Table, sigma: Table, rho_cols: list[int], sigma_cols: list[int]
) -> Table:
    """The rows of ``ρ × σ``, in product order, whose ⊥-stripped entry
    sets under ``rho_cols`` (in ρ) and ``sigma_cols`` (in σ) are equal.

    With one column a side the entry itself is the key: ``{x} ≈ {y}``
    iff ``x == y``, and every ⊥ equals the ⊥ constant, so ``∅ ≈ ∅``
    matches too.  Otherwise a row's key is its ⊥-stripped entry set.
    """
    if len(rho_cols) == len(sigma_cols) == 1:
        rho_key, sigma_key = itemgetter(*rho_cols), itemgetter(*sigma_cols)
    else:
        rho_key, sigma_key = _entry_set(rho_cols), _entry_set(sigma_cols)
    matches: dict[Symbol | frozenset[Symbol], list[tuple[Symbol, ...]]] = {}
    for right in sigma.grid[1:]:
        matches.setdefault(sigma_key(right), []).append(right)
    grid = [rho.row(0) + sigma.column_attributes]
    for left in rho.grid[1:]:
        for right in matches.get(rho_key(left), ()):
            attr = combine_row_attributes(left[0], right[0])
            grid.append((attr,) + left[1:] + right[1:])
    return _from_checked(grid)


def _entry_set(cols: list[int]) -> Callable[[tuple[Symbol, ...]], frozenset[Symbol]]:
    """A row's ⊥-stripped entry set under ``cols``."""
    return lambda row: strip_null(row[j] for j in cols)


def const_column(
    table: Table, attr: object, value: object, name: object | None = None
) -> Table:
    """Append a column named ``attr`` holding ``value`` in every data row.

    Needed to express rules whose heads mention explicit constants (the
    SchemaLog embedding, Theorem 4.5).  In core tabular algebra the same
    effect is reachable through the attribute machinery — RENAME can write
    any symbol into the attribute row, TRANSPOSE/SWITCH relocate it, and a
    GROUP header row replicates it across a row — but the composition is
    long and instance-dependent, so the library ships the operation as a
    first-class derived op.
    """
    from ..core import coerce_symbol

    header, *rows = table.grid
    grid = [header + (as_attr_symbol(attr),)]
    cell = coerce_symbol(value)
    grid += [row + (cell,) for row in rows]
    return _named(_from_checked(grid), name)


def drop_all_null_rows(table: Table, attr: object, name: object | None = None) -> Table:
    """Remove the data rows whose ``attr``-entries are entirely ⊥.

    This is the paper's "selecting out the tuples with Sold entry ⊥ …
    simulated using projection, transposition, and difference", that is
    ``R \\ σ_{attr=⊥}(R)``.  Each row the selection keeps is its own
    mutually subsuming partner in the difference, and a row with a
    non-⊥ ``attr``-entry has none there, so the difference keeps, in
    order, exactly the rows with some non-⊥ entry in an ``attr`` column;
    they are filtered directly.  A table without an ``attr`` column
    loses every row.
    """
    cols = table.columns_named(as_attr_symbol(attr))
    grid = table.grid
    kept = [grid[0]]
    kept += (row for row in grid[1:] if any(not row[j].is_null for j in cols))
    return _named(_from_checked(kept), name)


def group_compact(table: Table, by: object, on: object, name: object | None = None) -> Table:
    """GROUP, then CLEAN-UP and PURGE — the economical grouped table.

    For Figure 4 top with ``by=Region, on=Sold`` this is precisely
    ``PURGE on Sold by Region (CLEAN-UP by Part on ⊥ (GROUP by Region on
    Sold (Sales)))`` and reproduces the bold ``Sales`` of ``SalesInfo2``.
    """
    by_set = as_attr_set(by)
    on_set = as_attr_set(on)
    grouped = group(table, by=by_set, on=on_set)
    rest = _scheme(table) - by_set - on_set
    cleaned = cleanup(grouped, by=rest, on=_row_attr_universe(table))
    header_names = frozenset(
        table.entry(0, j) for j in table.data_col_indices() if table.entry(0, j) in by_set
    )
    return _named(purge(cleaned, on=on_set, by=header_names), name)


def merge_compact(table: Table, on: object, by: object, name: object | None = None) -> Table:
    """MERGE, then drop the rows that are entirely ⊥ on the merged names.

    For the bold ``Sales`` of ``SalesInfo2`` with ``on=Sold, by=Region``
    this recovers Figure 4 top (up to row order).
    """
    on_set = as_attr_set(on)
    merged = merge(table, on=on_set, by=by)
    result = merged
    for attr in sorted(on_set, key=lambda s: s.sort_key()):
        result = drop_all_null_rows(result, attr)
    return _named(result, name)


def natural_join(rho: Table, sigma: Table, name: object | None = None) -> Table:
    """Classical natural join of two relation-style tables.

    Derived from the tabular primitives exactly like its relational
    counterpart: rename σ's shared attributes apart, take the Cartesian
    product, select equality per shared attribute, project the result
    schema, and deduplicate.  Shared attributes must occur exactly once on
    each side (the classical named perspective).
    """
    from .traditional import rename as rename_op
    from .traditional import select

    shared = [a for a in rho.column_attributes if a in set(sigma.column_attributes)]
    for attr in shared:
        if (
            len(rho.columns_named(attr)) != 1
            or len(sigma.columns_named(attr)) != 1
        ):
            from ..core import UndefinedOperationError

            raise UndefinedOperationError(
                f"natural join needs each shared attribute once per side; "
                f"{attr!s} repeats"
            )
    from ..core import Name

    primed = sigma
    primes = {}
    for attr in shared:
        primed_name = Name(f"__join_{attr!s}")
        primes[attr] = primed_name
        primed = rename_op(primed, attr, primed_name)
    joined = product(rho, primed)
    for attr in shared:
        joined = select(joined, attr, primes[attr])
    keep = list(rho.column_attributes) + [
        a for a in sigma.column_attributes if a not in set(shared)
    ]
    projected = project(joined, keep)
    return _named(deduplicate(projected), name)


def collapse_compact(tables: Sequence[Table], by: object, name: object | None = None) -> Table:
    """COLLAPSE, then purge the padded columns and deduplicate rows.

    Recovers the relation-style table from the ``SalesInfo4``-style family
    (Figure 1's claim that any representation restructures to any other).
    """
    collapsed = collapse(tables, by=by)
    return _named(deduplicate(deduplicate_columns(collapsed)), name)
