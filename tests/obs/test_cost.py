"""The cost model and the EXPLAIN ANALYZE report."""

import pytest

from repro.algebra.programs import parse_program
from repro.algebra.programs.registry import OPERATIONS
from repro.data import sales_info1, sales_info2
from repro.obs import (
    CostModel,
    analyze_records,
    analyze_table,
    explain_analyze_text,
    observation,
)
from repro.obs.cost import ESTIMATORS

PIVOT = """
    Grouped <- GROUP by {Region} on {Sold} (Sales)
    Cleaned <- CLEANUP by {Part} on {null} (Grouped)
    Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
"""


class TestModelCoverage:
    def test_every_registered_operation_has_an_estimator(self):
        missing = sorted(set(OPERATIONS) - set(ESTIMATORS))
        assert missing == []

    def test_estimates_are_well_formed_for_every_operation(self):
        model = CostModel()
        for name in OPERATIONS:
            estimate = model.estimate(name, [(8, 3), (8, 3)])
            assert estimate is not None, name
            assert estimate.op == name
            assert estimate.tables_out >= 0
            assert estimate.rows_out >= 0
            assert estimate.cols_out >= 0
            assert estimate.cost_units > 0
            assert model.estimate_seconds(estimate) > 0

    def test_unknown_operation_estimates_to_none(self):
        assert CostModel().estimate("FROBNICATE", [(4, 4)]) is None


class TestEstimates:
    def test_merge_estimate_matches_figure5_exactly(self):
        # SalesInfo2's pivot is 4×5; MERGE unfolds it to the printed
        # 12×3 table — the shape heuristic nails this one.
        estimate = CostModel().estimate("MERGE", [(4, 5)])
        assert (estimate.rows_out, estimate.cols_out) == (12, 3)

    def test_union_follows_the_figure3_shape_laws(self):
        estimate = CostModel().estimate("UNION", [(3, 2), (5, 4)])
        assert estimate.rows_out == 8
        assert estimate.cols_out == 6

    def test_product_is_quadratic(self):
        small = CostModel().estimate("PRODUCT", [(10, 2), (10, 2)])
        large = CostModel().estimate("PRODUCT", [(100, 2), (100, 2)])
        assert large.rows_out == 100 * small.rows_out
        assert large.cost_units > 50 * small.cost_units

    def test_setnew_carries_the_power_set_blowup(self):
        estimate = CostModel().estimate("SETNEW", [(10, 2)])
        assert estimate.rows_out == 2**10

    def test_transpose_swaps_the_shape(self):
        estimate = CostModel().estimate("TRANSPOSE", [(7, 3)])
        assert (estimate.rows_out, estimate.cols_out) == (3, 7)


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
        assert group["time_ratio"] > 0

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
        assert "Time ratio" in text
        assert "worst row mis-estimate" in text

    def test_empty_observation_yields_no_records(self):
        with observation() as obs:
            pass
        assert analyze_records(obs) == []
        assert analyze_table(obs) is None
        assert "no analyzable operation spans" in explain_analyze_text(obs)

