"""Property-based tests of tabular algebra invariants.

The central properties come straight from the paper:

* the transformation conditions — every operation is *generic* (commutes
  with permutations of values) and invariant under row/column permutations;
* the inverse laws between GROUP/MERGE and SPLIT/COLLAPSE;
* the Figure 3 shape laws for the traditional operations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    classical_union,
    cleanup,
    collapse_compact,
    deduplicate,
    difference,
    drop_all_null_rows,
    group,
    group_compact,
    intersection,
    merge_compact,
    product,
    product_select,
    project,
    purge,
    rename,
    select,
    split,
    transpose,
    union,
)
from repro.core import NULL, Name, Symbol, Table, Value
from tabular_strategies import VALUE_POOL, relation_tables, tables


def permute_values(table: Table, mapping: dict[Symbol, Symbol]) -> Table:
    """Apply a value permutation (identity on names and ⊥)."""
    return table.map_entries(lambda s: mapping.get(s, s))


@st.composite
def value_permutations(draw):
    values = [Value(v) for v in VALUE_POOL]
    shuffled = draw(st.permutations(values))
    return dict(zip(values, shuffled))


def shuffle_rows_cols(table: Table) -> Table:
    """A deterministic non-trivial data row/column permutation."""
    rows = [0] + list(reversed(range(1, table.nrows)))
    cols = [0] + list(reversed(range(1, table.ncols)))
    return table.subtable(rows, cols)


class TestGenericity:
    """Condition (i): operations never distinguish individual values."""

    @given(tables(), value_permutations())
    @settings(max_examples=50)
    def test_transpose_generic(self, t, perm):
        assert transpose(permute_values(t, perm)) == permute_values(transpose(t), perm)

    @given(tables(), tables(), value_permutations())
    @settings(max_examples=50)
    def test_union_generic(self, a, b, perm):
        assert union(permute_values(a, perm), permute_values(b, perm)) == permute_values(
            union(a, b), perm
        )

    @given(tables(), tables(), value_permutations())
    @settings(max_examples=50)
    def test_difference_generic(self, a, b, perm):
        assert difference(
            permute_values(a, perm), permute_values(b, perm)
        ) == permute_values(difference(a, b), perm)

    @given(tables(), value_permutations())
    @settings(max_examples=50)
    def test_project_generic(self, t, perm):
        attrs = frozenset([Name("A"), Name("B")])
        assert project(permute_values(t, perm), attrs) == permute_values(
            project(t, attrs), perm
        )

    @given(tables(), value_permutations())
    @settings(max_examples=50)
    def test_select_generic(self, t, perm):
        assert select(permute_values(t, perm), "A", "B") == permute_values(
            select(t, "A", "B"), perm
        )

    @given(relation_tables(), value_permutations())
    @settings(max_examples=50)
    def test_group_generic(self, t, perm):
        assert group(permute_values(t, perm), by="G", on="X") == permute_values(
            group(t, by="G", on="X"), perm
        )

    @given(tables(), value_permutations())
    @settings(max_examples=50)
    def test_cleanup_generic(self, t, perm):
        before = cleanup(permute_values(t, perm), by="A", on=[None])
        after = permute_values(cleanup(t, by="A", on=[None]), perm)
        assert before == after

    @given(tables(), value_permutations())
    @settings(max_examples=50)
    def test_deduplicate_generic(self, t, perm):
        assert deduplicate(permute_values(t, perm)) == permute_values(deduplicate(t), perm)

    @given(tables(), tables(name="S"), value_permutations(),
           st.sampled_from(["A", "B", "X"]), st.sampled_from(["A", "B", "X"]))
    @settings(max_examples=100)
    def test_product_select_generic(self, a, b, perm, left, right):
        before = product_select(permute_values(a, perm), permute_values(b, perm), left, right)
        assert before == permute_values(product_select(a, b, left, right), perm)

    @given(tables(), tables(), value_permutations())
    @settings(max_examples=50)
    def test_classical_union_generic(self, a, b, perm):
        assert classical_union(
            permute_values(a, perm), permute_values(b, perm)
        ) == permute_values(classical_union(a, b), perm)

    @given(tables(), value_permutations(), st.sampled_from(["A", "B", "X"]))
    @settings(max_examples=50)
    def test_drop_null_rows_generic(self, t, perm, attr):
        assert drop_all_null_rows(permute_values(t, perm), attr) == permute_values(
            drop_all_null_rows(t, attr), perm
        )


class TestPermutationInvariance:
    """Condition (ii): row/column order never changes an operation's meaning."""

    @given(relation_tables())
    @settings(max_examples=50)
    def test_group_invariant_up_to_equivalence(self, t):
        assert group(shuffle_rows_cols(t), by="G", on="X").equivalent(
            group(t, by="G", on="X")
        )

    @given(tables())
    @settings(max_examples=50)
    def test_dedup_invariant(self, t):
        assert deduplicate(shuffle_rows_cols(t)).equivalent(deduplicate(t))

    @given(tables(), tables())
    @settings(max_examples=50)
    def test_difference_invariant(self, a, b):
        assert difference(shuffle_rows_cols(a), shuffle_rows_cols(b)).equivalent(
            difference(a, b)
        )


class TestShapeLaws:
    """The Figure 3 diagrammatic laws."""

    @given(tables(), tables())
    def test_union_shape(self, a, b):
        u = union(a, b)
        assert u.width == a.width + b.width
        assert u.height == a.height + b.height

    @given(tables(), tables())
    def test_product_shape(self, a, b):
        p = product(a, b)
        assert p.width == a.width + b.width
        assert p.height == a.height * b.height

    @given(tables(), tables())
    def test_difference_keeps_scheme(self, a, b):
        assert difference(a, b).column_attributes == a.column_attributes

    @given(tables(), tables())
    def test_difference_monotone(self, a, b):
        assert difference(a, b).height <= a.height

    @given(tables(), tables())
    def test_intersection_bounded(self, a, b):
        assert intersection(a, b).height <= a.height


class TestInverseLaws:
    @given(relation_tables(columns=("K", "G", "X"), min_height=1, max_height=5))
    @settings(max_examples=60, deadline=None)
    def test_group_merge_round_trip(self, t):
        # (height ≥ 1: grouping an empty table leaves no ℬ-columns, so the
        # inverse MERGE is undefined — the paper's operations are partial)
        grouped = group(t, by="G", on="X")
        back = merge_compact(grouped, on="X", by="G")
        # content is preserved up to duplicate rows (MERGE re-emits one row
        # per block, so duplicated inputs come back as duplicates)
        assert deduplicate(back).equivalent(deduplicate(t))

    @given(relation_tables(columns=("K", "G", "X"), max_height=5))
    @settings(max_examples=60, deadline=None)
    def test_split_collapse_round_trip(self, t):
        if t.height == 0:
            return  # split of an empty table yields no tables to collapse
        parts = split(t, on="G")
        back = collapse_compact(parts, by="G")
        assert deduplicate(back).equivalent(deduplicate(t))

    @given(relation_tables(columns=("K", "G", "X"), min_height=1, max_height=4))
    @settings(max_examples=40, deadline=None)
    def test_pivot_round_trip(self, t):
        pivot = group_compact(t, by="G", on="X")
        back = merge_compact(pivot, on="X", by="G")
        assert deduplicate(back).equivalent(deduplicate(t))


class TestRedundancyLaws:
    @given(tables())
    @settings(max_examples=60)
    def test_cleanup_idempotent(self, t):
        once = cleanup(t, by="A", on=[None])
        assert cleanup(once, by="A", on=[None]) == once

    @given(tables())
    @settings(max_examples=60)
    def test_cleanup_never_grows(self, t):
        assert cleanup(t, by="A", on=[None]).height <= t.height

    @given(tables())
    @settings(max_examples=60)
    def test_purge_is_transpose_dual(self, t):
        direct = purge(t, on="A", by="B")
        via_dual = transpose(cleanup(transpose(t), by="B", on="A"))
        assert direct == via_dual

    @given(tables())
    @settings(max_examples=60)
    def test_dedup_idempotent(self, t):
        once = deduplicate(t)
        assert deduplicate(once) == once


class TestRenameLaws:
    @given(tables())
    def test_rename_round_trip(self, t):
        # renaming A→Z and back is the identity when Z is absent
        if Name("Z") in t.column_attributes:
            return
        assert rename(rename(t, "A", "Z"), "Z", "A") == t
