"""Cardinality estimation: scope discipline, formulas, EXPLAIN wiring."""

import pytest

from repro.algebra.programs import parse_program
from repro.algebra.programs.registry import OPERATIONS
from repro.core import NULL, attr_symbol, data_symbol, database, make_table
from repro.data import figure4_top, sales_info1, sales_info2
from repro.obs import observation
from repro.obs.cost import analyze_records
from repro.obs.estimator import (
    EST,
    QERROR_BUCKETS,
    CardinalityEstimator,
    EstimateAccuracy,
    chain_rows,
    estimation,
    qerror,
)
from repro.obs.stats import analyze_database
from repro.runtime.workloads import parse_workload


class TestScope:
    def test_estimation_is_off_by_default(self):
        assert EST.active is False
        assert EST.estimator is None

    def test_scope_installs_and_restores(self):
        with estimation(analyze_database(sales_info1())) as estimator:
            assert EST.active is True
            assert EST.estimator is estimator
        assert EST.active is False
        assert EST.estimator is None

    def test_scopes_nest(self):
        with estimation() as outer:
            with estimation() as inner:
                assert EST.estimator is inner
            assert EST.estimator is outer
        assert EST.active is False

    def test_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with estimation():
                raise RuntimeError("boom")
        assert EST.active is False

    def test_estimation_never_changes_results(self):
        program = parse_program("G <- GROUP by {Region} on {Sold} (Sales)")
        plain = program.run(sales_info1())
        with estimation(analyze_database(sales_info1())):
            estimated = program.run(sales_info1())
        assert estimated == plain


class TestQError:
    def test_perfect_is_one(self):
        assert qerror(9, 9) == 1.0
        assert qerror(0, 0) == 1.0  # both clamped to one row

    def test_symmetric(self):
        assert qerror(10, 5) == qerror(5, 10) == 2.0

    def test_buckets_accumulate(self):
        accuracy = EstimateAccuracy()
        accuracy.record("OP", 10, 10, "stats")  # q=1.0 -> first bucket
        accuracy.record("OP", 30, 10, "shape")  # q=3.0 -> the 4.0 bucket
        record = accuracy.ops["OP"]
        assert record.count == 2
        assert record.hist[0] == 1
        assert record.hist[QERROR_BUCKETS.index(4.0)] == 1
        assert record.max == 3.0
        assert record.worst == (3.0, 30, 10)
        assert record.sources == {"stats": 1, "shape": 1}

    def test_snapshot_percentiles(self):
        accuracy = EstimateAccuracy()
        for act in (10, 10, 10, 40):
            accuracy.record("OP", 10, act, "stats")
        snap = accuracy.snapshot()["OP"]
        assert snap["p50"] == 1.0
        assert snap["max"] == 4.0
        assert snap["count"] == 4


class TestFormulas:
    """The measured restructuring formulas are exact on the paper's figures."""

    def _predict(self, op, db, arguments, table_index=0):
        stats = analyze_database(db)
        estimator = CardinalityEstimator(stats)
        tables = (db.tables[table_index],)
        return estimator.predict(op, tables, arguments)

    def test_group_adds_one_header_per_by_attr(self):
        # Figure 4: 8x3 -> 9x9.
        rows, source = self._predict(
            "GROUP",
            database(figure4_top()),
            {"by": {attr_symbol("Region")}, "on": {attr_symbol("Sold")}},
        )
        assert (rows, source) == (9, "stats")

    def test_merge_unfolds_non_null_cells(self):
        # Figure 5: 4x5 -> 12x3 (16 spread cells, 4 of them null).
        rows, source = self._predict(
            "MERGE",
            sales_info2(),
            {"on": {attr_symbol("Sold")}, "by": {attr_symbol("Region")}},
        )
        assert (rows, source) == (12, "stats")

    def test_split_adds_one_header_per_part(self):
        # 8 rows over 4 regions -> 4 parts of (2 data + 1 header) rows.
        rows, source = self._predict(
            "SPLIT", database(figure4_top()), {"on": {attr_symbol("Region")}}
        )
        assert (rows, source) == (12, "stats")

    def test_dedup_is_exact(self):
        table = make_table("T", ["A"], [["x"], ["x"], ["y"]])
        rows, source = self._predict("DEDUP", database(table), {})
        assert (rows, source) == (2, "stats")

    def test_selectconst_uses_frequency_sketch(self):
        rows, source = self._predict(
            "SELECTCONST",
            database(figure4_top()),
            {"attr": attr_symbol("Part"), "value": data_symbol("nuts")},
        )
        assert (rows, source) == (3, "stats")  # exact sketch count

    def test_selectconst_complete_histogram_miss_is_zero(self):
        rows, _source = self._predict(
            "SELECTCONST",
            database(figure4_top()),
            {"attr": attr_symbol("Part"), "value": data_symbol("widgets")},
        )
        assert rows == 0

    # R(A, B): 5 rows, B is ⊥ in 3 of them; C is in no column.
    _NULLS = make_table(
        "R",
        ["A", "B"],
        [["a1", None], ["a2", "b"], ["a3", None], ["a4", "c"], ["a5", None]],
    )

    def _exact(self, op, tables, arguments):
        """The stats prediction and the op's actual rows, side by side."""
        estimator = CardinalityEstimator(analyze_database(database(*tables)))
        rows, source = estimator.predict(op, tables, arguments)
        (actual,) = OPERATIONS[op].invoke(tables, arguments, None)
        return rows, source, actual.height

    def test_selectconst_null_on_a_column_counts_its_nulls(self):
        arguments = {"attr": attr_symbol("B"), "value": NULL}
        assert self._exact("SELECTCONST", (self._NULLS,), arguments) == (3, "stats", 3)

    def test_selectconst_null_on_an_absent_attribute_keeps_every_row(self):
        # No C column: every row's C entry set is ∅, weakly equal to {⊥}.
        arguments = {"attr": attr_symbol("C"), "value": NULL}
        assert self._exact("SELECTCONST", (self._NULLS,), arguments) == (5, "stats", 5)

    def test_dropnullrows_on_an_absent_attribute_keeps_nothing(self):
        arguments = {"attr": attr_symbol("C")}
        assert self._exact("DROPNULLROWS", (self._NULLS,), arguments) == (0, "stats", 0)

    def test_reflexive_select_keeps_every_row(self):
        table = make_table("R", ["A"], [[f"v{i % 3}"] for i in range(6)])
        arguments = {"left": attr_symbol("A"), "right": attr_symbol("A")}
        assert self._exact("SELECT", (table,), arguments) == (6, "stats", 6)

    def test_reflexive_productselect_keeps_every_pair(self):
        left = make_table("R", ["A"], [[f"v{i % 3}"] for i in range(6)])
        right = make_table("S", ["A"], [[f"v{i}"] for i in range(3)])
        arguments = {"left": attr_symbol("A"), "right": attr_symbol("A")}
        assert self._exact("PRODUCTSELECT", (left, right), arguments) == (
            18,
            "stats",
            18,
        )

    def test_productselect_finds_either_attribute_on_either_side(self):
        # σ_{B≈A}(R(A) × S(B)) over 6 distinct values a side is the same
        # 2-leaf chain as σ_{A≈B}: 36 pairs, 1 / NDV of them kept.
        left = make_table("R", ["A"], [[f"v{i}"] for i in range(6)])
        right = make_table("S", ["B"], [[f"v{i}"] for i in range(6)])
        a, b = attr_symbol("A"), attr_symbol("B")
        for arguments in ({"left": a, "right": b}, {"left": b, "right": a}):
            assert self._exact("PRODUCTSELECT", (left, right), arguments) == (
                6,
                "stats",
                6,
            )

    def test_reflexive_chain_condition_has_selectivity_one(self):
        tables = [
            make_table(name, ["A"], [[f"v{i}"] for i in range(3)]) for name in "RST"
        ]
        stats = analyze_database(database(*tables))
        leaves = [stats.for_name(name) for name in "RST"]
        a = attr_symbol("A")
        everything = frozenset(range(3))
        assert chain_rows(leaves, [(a, a, 3)])(everything) == 27
        # σ_{A≈B} over the same leaves is a 1/NDV(A) filter.
        b = attr_symbol("B")
        assert chain_rows(leaves, [(a, b, 3)])(everything) == pytest.approx(9)

    def test_unmatched_table_falls_back_to_shape(self):
        stats = analyze_database(sales_info1())
        estimator = CardinalityEstimator(stats)
        other = make_table("Elsewhere", ["A"], [["x"], ["y"]])
        _rows, source = estimator.predict("DEDUP", (other,), {})
        assert source == "shape"

    def test_no_stats_means_shape(self):
        estimator = CardinalityEstimator(None)
        _rows, source = estimator.predict("DEDUP", (figure4_top(),), {})
        assert source == "shape"


class TestExplainWiring:
    def test_est_rows_stamped_from_stats(self):
        program = parse_program("G <- GROUP by {Region} on {Sold} (Sales)")
        db = sales_info1()
        with estimation(analyze_database(db)), observation() as obs:
            program.run(db)
        spans = [
            s
            for root in obs.spans
            for s in root.walk()
            if s.attributes.get("est_rows") is not None
        ]
        assert spans, "no span carried est_rows"
        assert spans[0].attributes["est_rows"] == 9
        assert spans[0].attributes["est_source"] == "stats"
        assert "est_rows=9 (stats)" in obs.explain()

    def test_analyze_records_prefer_stamped_estimates(self):
        program = parse_program("G <- GROUP by {Region} on {Sold} (Sales)")
        db = sales_info1()
        with estimation(analyze_database(db)), observation() as obs:
            program.run(db)
        record = next(r for r in analyze_records(obs) if r["op"] == "GROUP")
        assert record["est_rows"] == 9
        assert record["act_rows"] == 9
        assert record["est_source"] == "stats"
        assert record["q_error"] == 1.0

    def test_analyze_records_without_estimation_use_model(self):
        program = parse_program("G <- GROUP by {Region} on {Sold} (Sales)")
        with observation() as obs:
            program.run(sales_info1())
        record = next(r for r in analyze_records(obs) if r["op"] == "GROUP")
        assert record["est_source"] == "model"

    def test_while_prediction_stamped(self):
        _label, program, db = parse_workload("tc:4")
        with estimation(analyze_database(db)) as estimator, observation() as obs:
            program.run(db)
        stamped = [
            s
            for root in obs.spans
            for s in root.walk()
            if s.attributes.get("est_iterations") is not None
        ]
        assert stamped, "the while span carries est_iterations"
        assert "WHILE" in estimator.accuracy.ops

    def test_accuracy_scored_for_every_dispatch(self):
        program = parse_program(
            """
            Grouped <- GROUP by {Region} on {Sold} (Sales)
            Cleaned <- CLEANUP by {Part} on {null} (Grouped)
            Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
            """
        )
        with estimation(analyze_database(sales_info1())) as estimator:
            program.run(sales_info1())
        assert estimator.accuracy.count == 3
        assert set(estimator.accuracy.ops) == {"GROUP", "CLEANUP", "PURGE"}


class TestEvents:
    def test_op_estimate_emitted_when_bus_live(self):
        from repro.obs.events import event_stream

        program = parse_program("G <- GROUP by {Region} on {Sold} (Sales)")
        db = sales_info1()
        with event_stream() as bus:
            ring = bus.ring(64)
            with estimation(analyze_database(db)):
                program.run(db)
        estimates = [e for e in ring.tail() if e.kind == "op_estimate"]
        assert len(estimates) == 1
        data = estimates[0].data
        assert data["op"] == "GROUP"
        assert data["est_rows"] == 9
        assert data["act_rows"] == 9
        assert data["q_error"] == 1.0
        assert data["source"] == "stats"
