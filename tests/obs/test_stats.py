"""The ANALYZE pass: counts, persistence, and schema validation."""

import json
from collections import Counter

import pytest

from repro.core import NULL, database, make_table
from repro.core.errors import StatsError
from repro.data import sales_info1, sales_info2, sales_info4
from repro.obs.stats import (
    DEFAULT_TOP_K,
    STATS_SCHEMA_VERSION,
    DatabaseStats,
    analyze_database,
    analyze_table_stats,
    database_fingerprint,
    load_stats,
    validate_stats_data,
)
from repro.runtime.workloads import parse_workload


def _nulled_table():
    return make_table(
        "T",
        ["A", "B"],
        [["x", 1], ["x", None], ["y", 2], [None, 2], ["y", None]],
    )


class TestAnalyze:
    def test_row_and_distinct_counts(self):
        stats = analyze_database(sales_info1())
        (table,) = stats.tables
        assert table.name == "Sales"
        assert table.height == 8
        assert table.width == 3
        assert table.distinct_rows == 8
        assert stats.total_rows == 8

    def test_column_ndv_nulls_min_max(self):
        stats = analyze_table_stats(_nulled_table())
        by_attr = {str(c.attribute): c for c in stats.columns}
        a, b = by_attr["A"], by_attr["B"]
        assert (a.nulls, a.ndv) == (1, 2)
        assert (b.nulls, b.ndv) == (2, 2)
        assert (str(a.min), str(a.max)) == ("'x'", "'y'")
        assert a.null_fraction(stats.height) == pytest.approx(0.2)

    def test_top_k_sketch_is_complete_histogram_when_small(self):
        stats = analyze_table_stats(_nulled_table())
        column = next(c for c in stats.columns if str(c.attribute) == "A")
        # NDV 2 <= top-K: the sketch is the full histogram, exact counts.
        assert sorted((str(s), n) for s, n in column.top) == [("'x'", 2), ("'y'", 2)]
        assert column.frequency(column.top[0][0]) == column.top[0][1]

    def test_top_k_truncates(self):
        table = make_table("T", ["A"], [[f"v{i}"] for i in range(10)])
        stats = analyze_table_stats(table, top_k=3)
        (column,) = stats.columns
        assert len(column.top) == 3
        assert column.ndv == 10

    def test_bad_top_k_raises(self):
        with pytest.raises(StatsError):
            analyze_database(sales_info1(), top_k=0)


def _analyzed_counts(db):
    """ANALYZE's counts, with a sketch large enough to be the histogram."""
    out = []
    for t in analyze_database(db, top_k=10**6).tables:
        columns = [(c.attribute, c.nulls, c.ndv, dict(c.top)) for c in t.columns]
        out.append((t.name, t.height, t.width, t.distinct_rows, columns))
    return out


def _recounted(db):
    """The same counts taken with a ``Counter`` over each symbol column
    (every ⊥ counts as ⊥): an independent recount of the symbol-grid
    pass."""
    out = []
    for table in db.tables:
        columns = []
        for j in table.data_col_indices():
            counts = Counter(table.data_column(j))
            nulls = counts.pop(NULL, 0)
            columns.append((table.entry(0, j), nulls, len(counts), dict(counts)))
        rows = {table.data_row(i) for i in table.data_row_indices()}
        out.append((str(table.name), table.height, table.width, len(rows), columns))
    return out


class TestParity:
    """ANALYZE agrees with a recount over the symbol columns."""

    @pytest.mark.parametrize("db_factory", [sales_info1, sales_info2, sales_info4])
    def test_naive_and_vector_agree_on_figures(self, db_factory):
        db = db_factory()
        assert _analyzed_counts(db) == _recounted(db)

    def test_naive_and_vector_agree_on_fixpoint_output(self):
        # The while-fixpoint's output database (transitive closure) has
        # duplicated names and intermediate tables.
        _label, program, db = parse_workload("tc:6")
        result = program.run(db)
        assert _analyzed_counts(result) == _recounted(result)

    def test_parity_with_nulls(self):
        db = database(_nulled_table())
        assert _analyzed_counts(db) == _recounted(db)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        stats = analyze_database(sales_info1())
        path = stats.save(tmp_path / "stats.json")
        loaded = load_stats(path)
        assert loaded == stats
        assert loaded.version == STATS_SCHEMA_VERSION
        assert loaded.top_k == DEFAULT_TOP_K

    def test_snapshot_is_schema_valid(self):
        stats = analyze_database(sales_info2())
        assert validate_stats_data(stats.to_json()) == []

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(StatsError):
            load_stats(tmp_path / "absent.json")

    def test_load_bad_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StatsError):
            load_stats(path)

    def test_from_json_rejects_wrong_version(self):
        data = analyze_database(sales_info1()).to_json()
        data["version"] = 999
        with pytest.raises(StatsError):
            DatabaseStats.from_json(data)


class TestValidation:
    def test_not_an_object(self):
        assert validate_stats_data([1, 2]) != []

    def test_missing_tables(self):
        data = analyze_database(sales_info1()).to_json()
        del data["tables"]
        assert validate_stats_data(data) != []

    def test_malformed_column(self):
        data = analyze_database(sales_info1()).to_json()
        data["tables"][0]["columns"][0]["ndv"] = "three"
        assert validate_stats_data(data) != []


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        assert database_fingerprint(sales_info1()) == database_fingerprint(
            sales_info1()
        )

    def test_differs_across_content(self):
        assert database_fingerprint(sales_info1()) != database_fingerprint(
            sales_info2()
        )

    def test_is_the_ledger_digest_prefix(self):
        from repro.obs.ledger import database_digest

        assert database_fingerprint(sales_info1()) == database_digest(sales_info1())[0][:16]

    def test_payload_the_checkpoint_codec_refuses(self):
        from repro.core import TabularDatabase, Value

        db = TabularDatabase([make_table("R", ["A"], [[Value(("not", "json"))]])])
        assert len(database_fingerprint(db)) == 16

    def test_lookup_by_name_and_shape(self):
        stats = analyze_database(sales_info1())
        assert stats.lookup("Sales", 8, 3) is stats.tables[0]
        assert stats.lookup("Sales", 9, 3) is None
        assert stats.lookup("Absent", 8, 3) is None
        assert [t.name for t in stats.for_name("Sales")] == ["Sales"]
