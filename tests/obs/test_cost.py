"""The estimator's shape rules and the EXPLAIN ANALYZE report."""

import pytest

from repro.algebra.programs import parse_program
from repro.algebra.programs.registry import OPERATIONS
from repro.data import sales_info1, sales_info2
from repro.obs import (
    analyze_records,
    analyze_table,
    explain_analyze_text,
    observation,
)
from repro.obs.estimator import SHAPE_RULES, shape_estimate

PIVOT = """
    Grouped <- GROUP by {Region} on {Sold} (Sales)
    Cleaned <- CLEANUP by {Part} on {null} (Grouped)
    Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
"""


class TestModelCoverage:
    def test_every_registered_operation_has_an_estimator(self):
        missing = sorted(set(OPERATIONS) - set(SHAPE_RULES))
        assert missing == []

    def test_estimates_are_well_formed_for_every_operation(self):
        for name in OPERATIONS:
            estimate = shape_estimate(name, [(8, 3), (8, 3)])
            assert estimate is not None, name
            tables, rows, cols, cost_units = estimate
            assert tables >= 0
            assert rows >= 0
            assert cols >= 0
            assert cost_units > 0

    def test_unknown_operation_estimates_to_none(self):
        assert shape_estimate("FROBNICATE", [(4, 4)]) is None


class TestEstimates:
    def test_merge_estimate_matches_figure5_exactly(self):
        # SalesInfo2's pivot is 4×5; MERGE unfolds it to the printed
        # 12×3 table — the shape heuristic nails this one.
        _tables, rows, cols, _cost = shape_estimate("MERGE", [(4, 5)])
        assert (rows, cols) == (12, 3)

    def test_union_follows_the_figure3_shape_laws(self):
        _tables, rows, cols, _cost = shape_estimate("UNION", [(3, 2), (5, 4)])
        assert rows == 8
        assert cols == 6

    def test_product_is_quadratic(self):
        _t, small_rows, _c, small_cost = shape_estimate("PRODUCT", [(10, 2), (10, 2)])
        _t, large_rows, _c, large_cost = shape_estimate("PRODUCT", [(100, 2), (100, 2)])
        assert large_rows == 100 * small_rows
        assert large_cost > 50 * small_cost

    def test_setnew_carries_the_power_set_blowup(self):
        _tables, rows, _cols, _cost = shape_estimate("SETNEW", [(10, 2)])
        assert rows == 2**10

    def test_transpose_swaps_the_shape(self):
        _tables, rows, cols, _cost = shape_estimate("TRANSPOSE", [(7, 3)])
        assert (rows, cols) == (3, 7)


class TestAnalyze:
    def observed_pivot(self):
        with observation() as obs:
            parse_program(PIVOT).run(sales_info1())
        return obs

    def test_records_cover_the_pipeline_in_order(self):
        records = analyze_records(self.observed_pivot())
        assert [r["op"] for r in records] == ["GROUP", "CLEANUP", "PURGE"]

    def test_records_pair_estimates_with_actuals(self):
        records = analyze_records(self.observed_pivot())
        group = records[0]
        assert group["act_rows"] == 9  # Figure 4's printed result
        assert group["est_rows"] > 0
        assert group["row_ratio"] == pytest.approx(
            group["act_rows"] / group["est_rows"]
        )
        assert group["act_ms"] > 0
        # No time is predicted: nothing calibrates one.
        assert "est_ms" not in group and "time_ratio" not in group

    def test_merge_row_estimate_is_exact_on_figure5(self):
        with observation() as obs:
            parse_program("Sales <- MERGE on {Sold} by {Region} (Sales)").run(
                sales_info2()
            )
        (record,) = analyze_records(obs)
        assert record["est_rows"] == record["act_rows"] == 12
        assert record["row_ratio"] == pytest.approx(1.0)

    def test_analyze_table_is_deterministic_without_timings(self):
        table = analyze_table(self.observed_pivot(), timings=False)
        assert table is not None
        again = analyze_table(self.observed_pivot(), timings=False)
        assert table == again

    def test_analyze_text_report_shape(self):
        text = explain_analyze_text(self.observed_pivot())
        assert "EXPLAIN ANALYZE" in text
        assert "Row ratio" in text
        assert "Act ms" in text
        assert "Est ms" not in text and "Time ratio" not in text
        assert "worst row mis-estimate" in text

    def test_empty_observation_yields_no_records(self):
        with observation() as obs:
            pass
        assert analyze_records(obs) == []
        assert analyze_table(obs) is None
        assert "no analyzable operation spans" in explain_analyze_text(obs)

