"""Experiment ``stats`` — ANALYZE cost and estimation-scope overhead.

Three guarantees are measured:

* **disabled** — with no estimation scope active, the estimator layer
  must be indistinguishable from the raw engine (one ``EST.active``
  attribute check per dispatch);
* **enabled** — running the Figure 4 pivot pipeline with a prebuilt
  ANALYZE snapshot installed (so every dispatch predicts, runs, and
  scores) stays under the 1.5x overhead gate;
* **ANALYZE itself** — one statistics pass over the pivot database,
  timed so the trajectory catches regressions in the sketch-building
  path.

The exactness of the estimated run is asserted against the plain one,
so estimation provably does not change results.
"""

import time

from repro.algebra.programs import parse_program
from repro.data import sales_info1
from repro.obs.estimator import estimation
from repro.obs.stats import analyze_database

from conftest import report

#: Trajectory label prefix: timing records roll into
#: ``BENCH_trajectory.json`` as ``stats/<test name>`` (see conftest).
BENCH_LABEL = "stats"

PIVOT = """
    Grouped <- GROUP by {Region} on {Sold} (Sales)
    Cleaned <- CLEANUP by {Part} on {null} (Grouped)
    Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
"""


def run_pivot():
    return parse_program(PIVOT).run(sales_info1())


class TestEstimationOverhead:
    def test_disabled_estimation_runs_raw(self, benchmark):
        """The disabled path: no scope, one attribute check per dispatch."""
        result = benchmark(run_pivot)
        assert "Pivot" in {str(n) for n in result.table_names()}

    def test_enabled_estimation_runs_scored(self, benchmark):
        stats = analyze_database(sales_info1())

        def estimated():
            with estimation(stats) as estimator:
                db = run_pivot()
            return db, estimator

        db, estimator = benchmark(estimated)
        assert db == run_pivot()  # estimation never changes results
        assert estimator.accuracy.count >= 3  # every dispatch was scored

    def test_report_estimation_overhead_ratio(self):
        """One-shot on/off ratio, recorded to the trajectory.

        The 1.5x gate: with an ANALYZE snapshot installed and every
        dispatch predicted and scored, the pivot pipeline must stay
        under 1.5x its plain wall-clock (padded by a small absolute
        constant so sub-millisecond noise cannot flake the gate on a
        loaded CI box).
        """

        def clock(fn, repeats=20):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        disabled = clock(run_pivot)
        stats = analyze_database(sales_info1())

        def estimated():
            with estimation(stats):
                run_pivot()

        enabled = clock(estimated)
        report(
            "estimation-overhead",
            disabled_ms=round(disabled * 1e3, 3),
            enabled_ms=round(enabled * 1e3, 3),
            ratio=round(enabled / disabled, 2),
        )
        assert enabled < disabled * 1.5 + 0.005


class TestAnalyzeCost:
    def test_analyze_naive(self, benchmark):
        stats = benchmark(lambda: analyze_database(sales_info1()))
        assert stats.total_rows == 8

    def test_report_analyze_cost(self):
        """One-shot ANALYZE timing, for the trajectory."""

        def clock(fn, repeats=20):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        db = sales_info1()
        best = clock(lambda: analyze_database(db))
        report("analyze-cost", analyze_ms=round(best * 1e3, 3))
        assert analyze_database(db).total_rows == 8
