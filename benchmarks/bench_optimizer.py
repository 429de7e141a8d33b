"""Experiment ``optimizer`` — cost-based planning wins and its overhead.

Two guarantees, each with an explicit gate:

* **multi-join win** — on the 4-way chain workload the estimate-driven
  join order (pair ``A`` with ``D`` and ``B`` with ``C`` early) must run
  at least 2x faster end-to-end than the syntactic left-to-right fold at
  the largest size; in practice the gap is two orders of magnitude,
  because every intermediate stays at ``rows²`` instead of ``rows⁴``;
* **plan-cache hit overhead** — re-planning a cached program (program
  fingerprint + stats fingerprint + rule-set lookup) must cost at most
  1.1x a planning-free dispatch of the already-optimized plan, so
  leaving ``--optimize`` on for repeated runs is never a tax;
* **semi-naive win** — the optimized ``tc:32`` fixpoint on the vector
  engine must run at least 1.5x faster with the ``semi-naive`` rule than
  with every other rule alone, because each iteration then joins only
  the previous iteration's new rows.

Both paths assert the optimized database equals the unoptimized one
before timing, so the trajectory can only ever record sound plans.  The
``optimizer-on``/``optimizer-off`` pair rolls into
``BENCH_trajectory.json`` as ``optimizer/<test name>`` records.
"""

import time

from repro.engine import run_program
from repro.engine.optimizer import RULE_ORDER, PlanCache, optimize_program
from repro.obs.stats import analyze_database
from repro.runtime.workloads import chain_join_workload, transitive_closure_workload

from conftest import report

#: Trajectory label prefix: timing records roll into
#: ``BENCH_trajectory.json`` as ``optimizer/<test name>`` (see conftest).
BENCH_LABEL = "optimizer"

#: Per-table rows for the timed on/off pair (laptop-friendly: the
#: syntactic plan is ~40 ms here, ~600 ms at the largest sweep size).
BENCH_ROWS = 8

#: Per-table rows for the one-shot gates (largest size: the syntactic
#: intermediate reaches 16⁴ rows, the optimized one 16²).
GATE_ROWS = 16

#: Chain length of the semi-naive gate's transitive closure (31 iterations).
GATE_NODES = 32


def _clock(fn, repeats=20):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestChainDispatch:
    """The timed optimizer-on/off pair for the perf trajectory."""

    def test_chain_dispatch_optimizer_off(self, benchmark):
        program, db = chain_join_workload(BENCH_ROWS)
        result = benchmark(lambda: program.run(db))
        assert result.table("T").nrows - 1 == BENCH_ROWS**2

    def test_chain_dispatch_optimizer_on(self, benchmark):
        program, db = chain_join_workload(BENCH_ROWS)
        stats = analyze_database(db)
        cache = PlanCache()
        optimize_program(program, stats, cache=cache)  # warm the cache

        def planned():
            return optimize_program(program, stats, cache=cache).program.run(db)

        result = benchmark(planned)
        assert result == program.run(db)  # the rewritten plan is sound
        assert cache.hits >= 1


class TestOptimizerGates:
    def test_report_multi_join_win(self):
        """The ≥2x gate at the largest size, recorded to the trajectory."""
        program, db = chain_join_workload(GATE_ROWS)
        stats = analyze_database(db)
        result = optimize_program(program, stats, cache=None)
        assert result.applied  # the chain must actually be rewritten
        optimized = result.program
        assert optimized.run(db) == program.run(db)

        syntactic = _clock(lambda: program.run(db), repeats=3)
        planned = _clock(lambda: optimized.run(db))
        report(
            "multi-join-win",
            syntactic_ms=round(syntactic * 1e3, 3),
            optimized_ms=round(planned * 1e3, 3),
            speedup=round(syntactic / planned, 1),
        )
        assert planned * 2 <= syntactic

    def test_report_plan_cache_hit_overhead(self):
        """The ≤1.1x gate: a cache hit is nearly free.

        Planning-free dispatch runs the already-optimized program;
        the hit path re-enters ``optimize_program`` and pays only the
        fingerprint lookup.  A small absolute pad keeps sub-millisecond
        noise from flaking the gate on a loaded CI box.
        """
        program, db = chain_join_workload(GATE_ROWS)
        stats = analyze_database(db)
        cache = PlanCache()
        optimized = optimize_program(program, stats, cache=cache).program
        assert cache.misses == 1

        def hit():
            return optimize_program(program, stats, cache=cache).program.run(db)

        planning_free = _clock(lambda: optimized.run(db))
        cache_hit = _clock(hit)
        assert cache.hits >= 1
        report(
            "plan-cache-hit",
            planning_free_ms=round(planning_free * 1e3, 3),
            cache_hit_ms=round(cache_hit * 1e3, 3),
            ratio=round(cache_hit / planning_free, 3),
        )
        assert cache_hit < planning_free * 1.1 + 0.001

    def test_report_semi_naive_win(self):
        """The ≥1.5x gate: the fixpoint derives from Δ, not all of TC."""
        program, db = transitive_closure_workload(GATE_NODES)
        stats = analyze_database(db)
        without = [rule for rule in RULE_ORDER if rule != "semi-naive"]
        semi = optimize_program(program, stats, cache=None)
        naive = optimize_program(program, stats, rules=without, cache=None)
        assert "semi-naive" in {rewrite.rule for rewrite in semi.applied}
        expected = program.run(db)
        assert run_program(semi.program, db, engine="vector") == expected

        def timed(plan):
            return _clock(lambda: run_program(plan, db, engine="vector"), repeats=1)

        # Best of five each, alternating, so drift on a shared host hits both.
        pairs = [(timed(naive.program), timed(semi.program)) for _ in range(5)]
        naive_s = min(n for n, _ in pairs)
        semi_s = min(s for _, s in pairs)
        report(
            "semi-naive-win",
            naive_ms=round(naive_s * 1e3, 3),
            semi_naive_ms=round(semi_s * 1e3, 3),
            speedup=round(naive_s / semi_s, 2),
        )
        assert semi_s * 1.5 <= naive_s
