"""Disabled-observability guarantees: strict no-op, identical results.

The acceptance bar: with no observation scope active, every instrumented
call site must fall through after one attribute check — no spans, no
metrics, no behavioural difference.
"""

import pytest

from repro.algebra.programs import parse_program
from repro.algebra.programs.registry import OPERATIONS
from repro.core import database, make_table
from repro.data import figure4_bottom, figure4_top, sales_info1
from repro.obs import EVT, observation
from repro.obs import events as events_module


class TestDisabledState:
    def test_observation_is_off_by_default(self):
        assert EVT.active is False
        assert EVT.observer is None

    def test_no_boundary_is_built_when_disabled(self):
        # Every structural site enters the shared NO_BOUNDARY instead:
        # no Boundary, no attributes, nothing published.
        from repro.obs.examples import EXAMPLES, run_example
        from repro.relational import (
            Assign,
            Difference,
            FWProgram,
            Rel,
            Relation,
            RelationalDatabase,
            WhileNotEmpty,
        )
        from repro.runtime import Limits, governed

        fw = FWProgram(
            [
                Assign("D", Rel("R")),
                WhileNotEmpty("D", [Assign("D", Difference(Rel("D"), Rel("R")))]),
            ]
        )
        fw_db = RelationalDatabase([Relation("R", ["A"], [("x",)])])

        def run_everything():
            with governed(Limits()):
                for name in EXAMPLES:
                    run_example(name)
                fw.run(fw_db)

        built = []
        original = events_module.Boundary
        try:
            events_module.Boundary = lambda *a, **k: built.append(a[0]) or original(*a, **k)
            run_everything()
            assert built == []
            with observation():
                run_everything()
        finally:
            events_module.Boundary = original
        # ... and every kind of site builds them when the feed is on.
        assert {"governed", "program", "statement", "while", "iteration",
                "fw-program", "fw-statement", "fw-while", "compile.good",
                "bridge.cube_to_ndtable"} <= set(built)

    def test_registry_invoke_records_nothing_when_disabled(self):
        spec = OPERATIONS["GROUP"]
        result = spec.invoke(
            (figure4_top(),), {"by": {"Region"}, "on": {"Sold"}}, None
        )
        assert result == (figure4_bottom(),)
        assert EVT.observer is None

    def test_program_results_identical_with_and_without_observation(self):
        text = """
            Grouped <- GROUP by {Region} on {Sold} (Sales)
            Cleaned <- CLEANUP by {Part} on {null} (Grouped)
            Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
        """
        plain = parse_program(text).run(sales_info1())
        with observation():
            observed = parse_program(text).run(sales_info1())
        assert observed == plain

    def test_errors_propagate_unchanged_when_observed(self):
        from repro.core import UndefinedOperationError

        program = parse_program("T <- GROUP by {Missing} on {Sold} (Sales)")
        with pytest.raises(UndefinedOperationError):
            program.run(database(figure4_top()))
        with observation() as obs:
            with pytest.raises(UndefinedOperationError):
                program.run(database(figure4_top()))
        # the failing spans still closed and surfaced the error
        assert any(s.error for root in obs.spans for s in root.walk())

    def test_scope_exit_returns_to_noop(self):
        with observation():
            assert EVT.active
        spec = OPERATIONS["DEDUP"]
        table = make_table("T", ["A"], [["x"], ["x"]])
        (out,) = spec.invoke((table,), {}, None)
        assert out.height == 1
        assert EVT.active is False


class TestZeroOverheadSmoke:
    def test_disabled_dispatch_stays_on_fast_path(self):
        """The disabled invoke is the raw invoke behind one flag check."""
        import repro.algebra.programs.registry as registry_module

        spec = OPERATIONS["DEDUP"]
        table = make_table("T", ["A"], [["x"], ["y"]])
        calls = []
        original = registry_module.OpSpec._invoke_layered
        try:
            registry_module.OpSpec._invoke_layered = (
                lambda self, *a: calls.append(self.name) or original(self, *a)
            )
            spec.invoke((table,), {}, None)
            assert calls == []  # layered path never entered while disabled
            with observation():
                spec.invoke((table,), {}, None)
            assert calls == ["DEDUP"]  # and is entered exactly when active
        finally:
            registry_module.OpSpec._invoke_layered = original

    def test_disabled_dispatch_skips_the_evented_path(self):
        """The event bus is gated identically: one EVT.active check."""
        import repro.algebra.programs.registry as registry_module
        from repro.obs.events import event_stream

        spec = OPERATIONS["DEDUP"]
        table = make_table("T", ["A"], [["x"], ["y"]])
        calls = []
        original = registry_module.OpSpec._invoke_layered
        try:
            registry_module.OpSpec._invoke_layered = (
                lambda self, *a: calls.append(self.name) or original(self, *a)
            )
            spec.invoke((table,), {}, None)
            assert calls == []  # no active bus: layered path never entered
            with event_stream():
                spec.invoke((table,), {}, None)
            assert calls == ["DEDUP"]
        finally:
            registry_module.OpSpec._invoke_layered = original

    def test_disabled_dispatch_skips_the_estimated_path(self):
        """Estimation is gated identically: one EST.active check."""
        import repro.algebra.programs.registry as registry_module
        from repro.obs.estimator import estimation

        spec = OPERATIONS["DEDUP"]
        table = make_table("T", ["A"], [["x"], ["y"]])
        calls = []
        original = registry_module.OpSpec._invoke_layered
        try:
            registry_module.OpSpec._invoke_layered = (
                lambda self, *a: calls.append(self.name) or original(self, *a)
            )
            spec.invoke((table,), {}, None)
            assert calls == []  # no scope: layered path never entered
            with estimation():
                spec.invoke((table,), {}, None)
            assert calls == ["DEDUP"]
        finally:
            registry_module.OpSpec._invoke_layered = original

    def test_disabled_run_allocates_nothing_in_obs_modules(self):
        """tracemalloc audit: the off switch means *zero* obs allocations.

        Runs the pivot pipeline with observation disabled and asserts
        that not a single object was allocated by any ``repro.obs``
        module — no Span, no OpMetrics, no attribute dicts.  (The
        engine itself allocates plenty; the filter scopes the check to
        the obs package's source files.)
        """
        import os
        import tracemalloc

        import repro.obs

        obs_dir = os.path.dirname(repro.obs.__file__)
        program = parse_program(
            """
            Grouped <- GROUP by {Region} on {Sold} (Sales)
            Cleaned <- CLEANUP by {Part} on {null} (Grouped)
            Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
            """
        )
        db = sales_info1()
        program.run(db)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            program.run(db)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        obs_filter = tracemalloc.Filter(True, os.path.join(obs_dir, "*"))
        stats = after.filter_traces([obs_filter]).compare_to(
            before.filter_traces([obs_filter]), "filename"
        )
        leaked = [(s.traceback, s.size_diff) for s in stats if s.size_diff > 0]
        assert leaked == []

    def test_bridge_call_sites_skip_kwargs_when_disabled(self):
        """The bridge/compiler guards must not even build boundary kwargs."""
        from repro.data import figure4_top
        from repro.obs.events import event_stream
        from repro.olap import relation_table_to_cube

        calls = []
        original = events_module.Boundary
        try:
            events_module.Boundary = lambda *a, **k: calls.append(a) or original(*a, **k)
            relation_table_to_cube(figure4_top(), ["Part", "Region"], "Sold")
            assert calls == []  # the EVT.active guard short-circuited the call
            with event_stream():
                relation_table_to_cube(figure4_top(), ["Part", "Region"], "Sold")
            assert calls == [("bridge.relation_table_to_cube",)]
        finally:
            events_module.Boundary = original

    def test_compile_span_skips_attributes_when_disabled(self):
        from repro.relational import compile_span

        calls = []
        region = compile_span("compile.fo_while", lambda: calls.append(1) or {})
        assert region is events_module.NO_BOUNDARY
        with region as sp:
            assert sp is None
        assert calls == []

    def test_disabled_overhead_is_bounded(self):
        """Timing smoke: the guarded path is within noise of the raw call.

        Deliberately loose (3x) so CI timing jitter cannot flake it; the
        real guarantee is the dispatch test above.
        """
        import timeit

        spec = OPERATIONS["DEDUP"]
        table = make_table("T", ["A"], [["x"], ["y"]])
        args: dict = {}
        raw = timeit.timeit(lambda: spec._invoke_raw((table,), args, None), number=2000)
        guarded = timeit.timeit(lambda: spec.invoke((table,), args, None), number=2000)
        assert guarded < raw * 3 + 0.05
