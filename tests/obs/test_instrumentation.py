"""End-to-end instrumentation: interpreter, compilers, bridges."""

import pytest

from repro.algebra.programs import parse_program
from repro.core import database, make_table
from repro.data import figure4_top
from repro.obs import observation
from repro.obs.examples import EXAMPLES, run_example, trace_example


def span_names(obs):
    return [s.name for root in obs.spans for s in root.walk()]


class TestInterpreterSpans:
    def test_statement_spans_carry_combinations_and_shapes(self):
        program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
        with observation() as obs:
            program.run(database(figure4_top()))
        (root,) = obs.spans
        (statement,) = root.children
        assert statement.attributes["combinations"] == 1
        (op,) = statement.children
        assert op.name == "GROUP"
        assert op.attributes["rows_in"] == 8
        assert op.attributes["rows_out"] == 9

    def test_wildcard_bindings_are_snapshotted(self):
        program = parse_program("Out <- DEDUP (*)")
        db = database(
            make_table("A", ["X"], [["1"], ["1"]]),
            make_table("B", ["X"], [["2"]]),
        )
        with observation() as obs:
            program.run(db)
        (root,) = obs.spans
        (statement,) = root.children
        bindings = statement.attributes["bindings"]
        assert bindings == ["Binding(*0=A)", "Binding(*0=B)"]
        assert statement.attributes["combinations"] == 2

    def test_aggregate_and_multi_result_ops_are_accounted(self):
        program = parse_program("Parts <- SPLIT on {Part} (Sales)")
        with observation() as obs:
            program.run(database(figure4_top()))
        record = obs.metrics.op("SPLIT")
        assert record.calls == 1
        assert record.tables_out > 1  # one table per part


class TestDispatchLayerOrder:
    """Every dispatch scope at once: estimation, events and
    governor/faults wrap the op in that fixed order, and observation
    builds its op spans from the events."""

    @staticmethod
    def _invoke_under_every_scope(spec, table, arguments, faults, calls):
        from repro.obs.estimator import estimation
        from repro.obs.events import event_stream
        from repro.obs.stats import analyze_database
        from repro.runtime import Limits, governed

        events = []
        with event_stream() as bus:
            bus.attach(events.append)
            with observation() as obs, estimation(
                analyze_database(database(table))
            ) as est, governed(Limits(), faults=faults) as gov:
                for raises in calls:
                    if raises is None:
                        spec.invoke((table,), arguments, None)
                    else:
                        with pytest.raises(raises):
                            spec.invoke((table,), arguments, None)
        spans = [
            s for root in obs.spans for s in root.walk() if s.name == spec.name
        ]
        return events, spans, obs.metrics, est.accuracy, gov

    def test_layers_nest_estimation_events_governor_observation(self):
        from repro.algebra.programs.registry import OPERATIONS
        from repro.core import FaultInjectedError
        from repro.runtime import FaultPlan, FaultRule

        table = make_table("T", ["A"], [["x"], ["x"], ["y"]])
        faults = FaultPlan([FaultRule(op="DEDUP", kind="raise", occurrence=2)])
        events, spans, metrics, accuracy, gov = self._invoke_under_every_scope(
            OPERATIONS["DEDUP"], table, {}, faults, [None, FaultInjectedError]
        )
        assert [e.kind for e in events] == [
            "span_start",
            "span_finish",
            "op_estimate",
            "span_start",
            "fault_injected",
            "error",
            "span_finish",
        ]
        assert events[1].data["ok"] is True
        assert events[-1].data["ok"] is False
        # The estimate rides on span_start into both op spans; the call
        # the fault refused is an errored span with the fault under it.
        served, refused = spans
        for span in spans:
            assert span.attributes["est_rows"] == 2
            assert span.attributes["est_source"] == "stats"
        assert served.error is None and served.children == []
        assert refused.error is not None
        (fault,) = refused.children
        assert (fault.name, fault.attributes["kind"]) == ("fault", "raise")
        record = metrics.op("DEDUP")
        assert (record.calls, record.errors) == (2, 1)
        assert "governor_checks" not in metrics.counters
        assert metrics.counters["faults_injected"] == 1
        assert accuracy.count == 1
        assert gov.ops_dispatched == 2

    def test_error_inside_the_op_body_closes_every_layer(self):
        from repro.algebra.programs.registry import OPERATIONS
        from repro.core import UndefinedOperationError

        events, spans, metrics, accuracy, _gov = self._invoke_under_every_scope(
            OPERATIONS["GROUP"],
            figure4_top(),
            {"by": {"Missing"}, "on": {"Sold"}},
            None,
            [UndefinedOperationError],
        )
        assert [e.kind for e in events] == ["span_start", "error", "span_finish"]
        assert events[-1].data["ok"] is False
        (span,) = spans
        assert span.error is not None
        assert span.attributes["est_rows"] == 9
        record = metrics.op("GROUP")
        assert (record.calls, record.errors) == (1, 1)
        assert accuracy.count == 0


class TestCompilerSpans:
    def test_schemalog_pipeline_produces_one_coherent_trace(self):
        obs, _result = trace_example("schemalog")
        names = span_names(obs)
        assert "compile.schemalog" in names
        assert "compile.fo_while" in names
        assert "program" in names
        assert "while" in names  # the compiled fixpoint loop

    def test_fo_while_example_shows_fixpoint_convergence(self):
        obs, result = trace_example("fo-while")
        whiles = [
            s for root in obs.spans for s in root.walk() if s.name == "while"
        ]
        (loop,) = whiles
        assert loop.attributes["iterations"] >= 2
        rows = loop.attributes["condition_rows"]
        assert rows == sorted(rows, reverse=True)  # the delta drains
        assert obs.metrics.counter("while_iterations") == loop.attributes["iterations"]

    def test_schemasql_compile_is_spanned(self):
        from repro.schemasql import compile_to_ta, parse_schemasql

        # note: uppercase-initial identifiers are schema variables in
        # SchemaSQL, so the alias and target must be lowercase names
        query = parse_schemasql(
            "SELECT T.part AS part INTO out FROM sales T"
        )
        with observation() as obs:
            compile_to_ta(query)
        assert "compile.schemasql" in span_names(obs)

    def test_good_compile_is_spanned(self):
        from repro.good import GoodProgram, NodeAddition, compile_to_ta
        from repro.good.patterns import Pattern, PatternNode

        pattern = Pattern([PatternNode.make("n", "Part")])
        program = GoodProgram((NodeAddition(pattern, "Tagged", ()),))
        with observation() as obs:
            compile_to_ta(program)
        names = span_names(obs)
        assert "compile.good" in names
        assert "compile.fo_while" in names


class TestNativeFWSpans:
    def test_fw_program_spans_statements(self):
        from repro.relational import (
            Assign,
            FWProgram,
            Rel,
            Relation,
            RelationalDatabase,
        )

        program = FWProgram([Assign("Out", Rel("R"))])
        db = RelationalDatabase([Relation("R", ["A"], [("x",), ("y",)])])
        with observation() as obs:
            program.run(db)
        (root,) = obs.spans
        assert root.name == "fw-program"
        (statement,) = root.children
        assert statement.name == "fw-statement"
        assert statement.attributes["rows_out"] == 2
        assert obs.metrics.counter("fw_statements") == 1


class TestBridgeSpans:
    def test_olap_example_traces_all_bridges(self):
        obs, _result = trace_example("olap")
        names = span_names(obs)
        for expected in (
            "bridge.relation_table_to_cube",
            "bridge.cube_to_grouped_table",
            "bridge.cube_to_relation_table",
            "bridge.cube_to_database",
            "bridge.cube_to_ndtable",
            "bridge.ndtable_to_cube",
        ):
            assert expected in names, expected


class TestExamplesRegistry:
    def test_every_example_runs_and_traces(self):
        for name in EXAMPLES:
            obs, _result = trace_example(name)
            assert obs.spans, name

    def test_unknown_example_raises(self):
        import pytest

        with pytest.raises(KeyError):
            run_example("frobnicate")
