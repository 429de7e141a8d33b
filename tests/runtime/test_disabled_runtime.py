"""Disabled-governor guarantees: strict no-op, zero allocations.

Mirrors ``tests/obs/test_disabled.py``: with no governed scope active,
every runtime chokepoint must fall through after one attribute check —
no governor objects, no fault hooks, no behavioural difference.
"""

from repro.algebra.programs import parse_program
from repro.algebra.programs.registry import OPERATIONS
from repro.core import make_table
from repro.data import sales_info1
from repro.runtime import GOV, governed

PIVOT = """
    Grouped <- GROUP by {Region} on {Sold} (Sales)
    Cleaned <- CLEANUP by {Part} on {null} (Grouped)
    Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
"""


class TestDisabledState:
    def test_governance_is_off_by_default(self):
        assert GOV.active is False
        assert GOV.governor is None
        assert GOV.faults is None

    def test_results_identical_with_and_without_governance(self):
        plain = parse_program(PIVOT).run(sales_info1())
        with governed():
            under_governor = parse_program(PIVOT).run(sales_info1())
        assert under_governor == plain

    def test_scope_exit_returns_to_noop(self):
        with governed():
            assert GOV.active
        assert GOV.active is False
        spec = OPERATIONS["DEDUP"]
        table = make_table("T", ["A"], [["x"], ["x"]])
        (out,) = spec.invoke((table,), {}, None)
        assert out.height == 1


class TestZeroOverhead:
    def test_disabled_dispatch_stays_on_fast_path(self):
        """The disabled invoke never enters the layered wrapper."""
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
            with governed():
                spec.invoke((table,), {}, None)
            assert calls == ["DEDUP"]  # and is entered exactly when active
        finally:
            registry_module.OpSpec._invoke_layered = original

    def test_disabled_run_allocates_nothing_in_runtime_modules(self):
        """tracemalloc audit: the off switch means *zero* runtime allocations.

        Runs the pivot pipeline (statements, while-free) and the
        fo-while fixpoint (loops) with no governed scope and asserts not
        a single object was allocated by any ``repro.runtime`` module —
        no governor, no fault bookkeeping, no budget objects beyond the
        pre-existing ``_Budget`` the FO+while interpreter always made.
        """
        import os
        import tracemalloc

        import repro.runtime
        from repro.relational import (
            Assign,
            Difference,
            FWProgram,
            Join,
            Project,
            Rel,
            Relation,
            RelationalDatabase,
            RenameAttr,
            Union,
            WhileNotEmpty,
        )
        from repro.runtime.workloads import transitive_closure_workload

        runtime_dir = os.path.dirname(repro.runtime.__file__)
        program = parse_program(PIVOT)
        db = sales_info1()
        ta_program, ta_db = transitive_closure_workload(4)
        # an FO+while fixpoint too, so the shared IterationBudget ticks
        step = Project(
            Join(
                RenameAttr(Rel("TC"), "Dst", "Mid"),
                RenameAttr(Rel("E"), "Src", "Mid"),
            ),
            ["Src", "Dst"],
        )
        fw_program = FWProgram(
            [
                Assign("TC", Rel("E")),
                Assign("Delta", Rel("E")),
                WhileNotEmpty(
                    "Delta",
                    [
                        Assign("New", step),
                        Assign("Delta", Difference(Rel("New"), Rel("TC"))),
                        Assign("TC", Union(Rel("TC"), Rel("Delta"))),
                    ],
                ),
            ]
        )
        fw_db = RelationalDatabase(
            [Relation("E", ["Src", "Dst"], [(i, i + 1) for i in range(1, 4)])]
        )
        program.run(db)  # warm caches outside the measurement
        ta_program.run(ta_db)
        fw_program.run(fw_db)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            program.run(db)
            ta_program.run(ta_db)
            fw_program.run(fw_db)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        runtime_filter = tracemalloc.Filter(True, os.path.join(runtime_dir, "*"))
        stats = after.filter_traces([runtime_filter]).compare_to(
            before.filter_traces([runtime_filter]), "filename"
        )
        leaked = [(s.traceback, s.size_diff) for s in stats if s.size_diff > 0]
        assert leaked == []
