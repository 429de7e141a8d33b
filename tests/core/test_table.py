"""Unit tests for the Table matrix: regions, subtables, subsumption."""

import pytest

from repro.core import (
    NULL,
    N,
    SchemaError,
    Table,
    V,
    make_table,
)


def simple() -> Table:
    return make_table("R", ["A", "B"], [(1, 2), (3, 4)])


class TestShape:
    def test_regions(self):
        t = simple()
        assert t.name == N("R")
        assert t.column_attributes == (N("A"), N("B"))
        assert t.row_attributes == (NULL, NULL)
        assert t.data == ((V(1), V(2)), (V(3), V(4)))

    def test_width_height_follow_paper_convention(self):
        t = simple()
        # width n and height m of an (m+1) x (n+1) matrix
        assert (t.width, t.height) == (2, 2)
        assert (t.ncols, t.nrows) == (3, 3)

    def test_minimal_table_is_just_a_name(self):
        t = Table([[N("R")]])
        assert t.width == 0 and t.height == 0
        assert t.column_attributes == ()
        assert t.row_attributes == ()

    def test_rejects_empty_grid(self):
        with pytest.raises(SchemaError):
            Table([])

    def test_rejects_ragged_grid(self):
        with pytest.raises(SchemaError):
            Table([[N("R"), N("A")], [NULL]])

    def test_rejects_non_symbols(self):
        with pytest.raises(SchemaError):
            Table([[N("R"), "A"]])  # type: ignore[list-item]

    def test_rows_and_columns(self):
        t = simple()
        assert t.row(1) == (NULL, V(1), V(2))
        assert t.column(1) == (N("A"), V(1), V(3))
        assert t.data_row(2) == (V(3), V(4))
        assert t.data_column(2) == (V(2), V(4))

    def test_symbols(self):
        assert V(4) in simple().symbols()
        assert N("R") in simple().symbols()


class TestSubtable:
    def test_subtable_selects_rows_and_columns(self):
        t = simple()
        sub = t.subtable([0, 2], [0, 2])
        assert sub.grid == ((N("R"), N("B")), (NULL, V(4)))

    def test_subtable_allows_repetition_and_reorder(self):
        t = simple()
        sub = t.subtable([0, 1, 1], [0, 2, 1])
        assert sub.nrows == 3 and sub.ncols == 3
        assert sub.entry(1, 1) == V(2)
        assert sub.entry(2, 2) == V(1)

    def test_subtable_out_of_range(self):
        with pytest.raises(SchemaError):
            simple().subtable([0, 9], [0])


class TestAttributeAccess:
    def test_columns_named_with_repeats(self):
        t = make_table("R", ["A", "A", "B"], [(1, 2, 3)])
        assert t.columns_named(N("A")) == [1, 2]
        assert t.columns_named(N("B")) == [3]
        assert t.columns_named(N("Z")) == []

    def test_row_entry_set_is_a_set(self):
        t = make_table("R", ["A", "A"], [(1, 1)])
        assert t.row_entry_set(1, N("A")) == frozenset([V(1)])

    def test_row_entry_set_for_absent_attribute_is_empty(self):
        assert simple().row_entry_set(1, N("Z")) == frozenset()

    def test_rows_named(self):
        t = make_table("R", ["A"], [(1,), (2,)], row_attrs=["T", None])
        assert t.rows_named(N("T")) == [1]
        assert t.rows_named(NULL) == [2]


class TestSubsumption:
    def test_row_subsumed_by_with_null_padding(self):
        narrow = make_table("R", ["A", "B"], [(1, None)])
        wide = make_table("S", ["A", "B"], [(1, 2)])
        assert narrow.row_subsumed_by(1, wide, 1)
        assert not wide.row_subsumed_by(1, narrow, 1)

    def test_mutual_subsumption_across_column_orders(self):
        left = make_table("R", ["A", "B"], [(1, 2)])
        right = make_table("S", ["B", "A"], [(2, 1)])
        assert left.rows_subsume_each_other(1, right, 1)

    def test_subsumption_distinguishes_attributes(self):
        left = make_table("R", ["A"], [(1,)])
        right = make_table("S", ["B"], [(1,)])
        assert not left.row_subsumed_by(1, right, 1)

    def test_column_subsumption_is_the_dual(self):
        left = make_table("R", ["A"], [(1,), (None,)], row_attrs=["x", "y"])
        right = make_table("S", ["A"], [(1,), (2,)], row_attrs=["x", "y"])
        assert left.column_subsumed_by(1, right, 1)
        assert not right.column_subsumed_by(1, left, 1)


class TestDerivedTables:
    def test_transpose_swaps_regions(self):
        t = simple()
        tt = t.transpose()
        assert tt.column_attributes == t.row_attributes
        assert tt.row_attributes == t.column_attributes
        assert tt.name == t.name

    def test_transpose_is_involution(self):
        t = simple()
        assert t.transpose().transpose() == t

    def test_with_name(self):
        assert simple().with_name(N("S")).name == N("S")

    def test_with_name_equals_a_rebuilt_table(self):
        renamed = simple().with_name(N("S"))
        rebuilt = Table([(N("S"),) + simple().grid[0][1:], *simple().grid[1:]])
        assert renamed == rebuilt and hash(renamed) == hash(rebuilt)

    def test_with_name_rejects_a_non_symbol(self):
        with pytest.raises(SchemaError, match=r"grid entry \(0,0\)"):
            simple().with_name("S")

    def test_with_entry(self):
        t = simple().with_entry(1, 1, V(99))
        assert t.entry(1, 1) == V(99)
        assert simple().entry(1, 1) == V(1)  # original untouched

    def test_with_entry_out_of_range(self):
        with pytest.raises(SchemaError):
            simple().with_entry(9, 0, NULL)

    def test_append_and_drop_rows(self):
        t = simple().append_rows([(NULL, V(5), V(6))])
        assert t.height == 3
        assert t.drop_rows([3]) == simple()

    def test_drop_attribute_row_forbidden(self):
        with pytest.raises(SchemaError):
            simple().drop_rows([0])

    def test_append_and_drop_columns(self):
        t = simple().append_columns([(N("C"), V(7), V(8))])
        assert t.width == 3
        assert t.drop_columns([3]) == simple()

    def test_append_column_wrong_length(self):
        with pytest.raises(SchemaError):
            simple().append_columns([(N("C"), V(7))])

    def test_map_entries(self):
        t = simple().map_entries(lambda s: V(0) if s == V(1) else s)
        assert t.entry(1, 1) == V(0)


class TestEqualityAndEquivalence:
    def test_structural_equality(self):
        assert simple() == simple()
        assert hash(simple()) == hash(simple())

    def test_equivalent_under_row_permutation(self):
        a = make_table("R", ["A"], [(1,), (2,)])
        b = make_table("R", ["A"], [(2,), (1,)])
        assert a != b
        assert a.equivalent(b)

    def test_equivalent_under_column_permutation(self):
        a = make_table("R", ["A", "B"], [(1, 2)])
        b = make_table("R", ["B", "A"], [(2, 1)])
        assert a.equivalent(b)

    def test_not_equivalent_when_data_differs(self):
        a = make_table("R", ["A"], [(1,)])
        b = make_table("R", ["A"], [(2,)])
        assert not a.equivalent(b)

    def test_not_equivalent_when_name_differs(self):
        a = make_table("R", ["A"], [(1,)])
        assert not a.equivalent(a.with_name(N("S")))

    def test_equivalent_with_repeated_attributes_needs_backtracking(self):
        # Same attribute on both columns; only one of the two matchings works.
        a = make_table("R", ["A", "A"], [(1, 2), (3, 4)])
        b = make_table("R", ["A", "A"], [(2, 1), (4, 3)])
        assert a.equivalent(b)

    def test_not_equivalent_when_rows_entangled(self):
        a = make_table("R", ["A", "A"], [(1, 2), (3, 4)])
        b = make_table("R", ["A", "A"], [(1, 4), (3, 2)])
        assert not a.equivalent(b)

    def test_sorted_canonically_is_stable(self):
        a = make_table("R", ["B", "A"], [(2, 1), (4, 3)])
        assert a.sorted_canonically() == a.sorted_canonically().sorted_canonically()
