"""Tracer unit tests: nesting, exception safety, thread isolation."""

import threading

import pytest

from repro.obs import NULL_SPAN, OBS, Tracer, observation
from repro.obs.trace import Span


class TestSpanNesting:
    def test_with_blocks_nest(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                with tracer.span("leaf"):
                    pass
        assert tracer.roots == (outer,)
        assert [c.name for c in outer.children] == ["inner"]
        assert [c.name for c in inner.children] == ["leaf"]

    def test_siblings_stay_ordered(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            for name in ("a", "b", "c"):
                with tracer.span(name):
                    pass
        assert [c.name for c in root.children] == ["a", "b", "c"]

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_durations_are_monotone(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.duration >= inner.duration >= 0.0

    def test_attributes_and_walk(self):
        tracer = Tracer()
        with tracer.span("root", kind="test") as root:
            root.set(extra=1)
            with tracer.span("child"):
                pass
        assert root.attributes == {"kind": "test", "extra": 1}
        assert [s.name for s in root.walk()] == ["root", "child"]

    def test_to_dict_is_jsonable(self):
        import json

        tracer = Tracer()
        with tracer.span("root", items=("a", "b"), obj=object()) as root:
            pass
        encoded = json.dumps(root.to_dict())
        assert '"root"' in encoded

    def test_current_tracks_open_span(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("open") as span:
            assert tracer.current() is span
        assert tracer.current() is None

    def test_reset_drops_roots(self):
        tracer = Tracer()
        with tracer.span("gone"):
            pass
        tracer.reset()
        assert tracer.roots == ()


class TestExceptionSafety:
    def test_error_is_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (root,) = tracer.roots
        assert root.error == "ValueError('nope')"
        assert root.end >= root.start

    def test_stack_recovers_after_nested_raise(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with pytest.raises(RuntimeError):
                with tracer.span("failing"):
                    raise RuntimeError("x")
            with tracer.span("after"):
                pass
        assert [c.name for c in outer.children] == ["failing", "after"]
        assert outer.error is None
        assert tracer.current() is None

    def test_next_root_opens_cleanly_after_raise(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failed"):
                raise RuntimeError
        with tracer.span("clean"):
            pass
        assert [r.name for r in tracer.roots] == ["failed", "clean"]


class TestThreadIsolation:
    def test_threads_build_separate_trees(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(label: str) -> None:
            with tracer.span(f"root-{label}"):
                barrier.wait(timeout=5)  # both threads hold a span open
                with tracer.span(f"child-{label}"):
                    pass

        threads = [threading.Thread(target=work, args=(l,)) for l in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = {r.name: r for r in tracer.roots}
        assert set(roots) == {"root-a", "root-b"}
        for label in ("a", "b"):
            root = roots[f"root-{label}"]
            assert [c.name for c in root.children] == [f"child-{label}"]
            assert all(c.thread_id == root.thread_id for c in root.children)

    def test_observed_interpreter_runs_in_threads(self):
        from repro.algebra.programs import parse_program
        from repro.core import database
        from repro.data import figure4_top

        program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
        with observation() as obs:
            threads = [
                threading.Thread(target=program.run, args=(database(figure4_top()),))
                for _ in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(obs.spans) == 3
        for root in obs.spans:
            assert root.name == "program"
            # each thread's tree is self-contained
            assert {s.thread_id for s in root.walk()} == {root.thread_id}
        assert obs.metrics.op("GROUP").calls == 3


class TestNullSpan:
    def test_null_span_is_inert_singleton(self):
        with NULL_SPAN as sp:
            assert sp is NULL_SPAN
            assert sp.set(anything=1) is NULL_SPAN

    def test_span_helper_returns_null_when_inactive(self):
        from repro.obs import span

        assert not OBS.active
        assert span("anything", x=1) is NULL_SPAN


class TestObservationScope:
    def test_scope_installs_and_restores(self):
        assert not OBS.active
        with observation() as obs:
            assert OBS.active
            assert OBS.tracer is obs.tracer
        assert not OBS.active
        assert OBS.tracer is None

    def test_scopes_nest_and_shadow(self):
        with observation() as outer:
            with outer.tracer.span("outer-span"):
                pass
            with observation() as inner:
                with inner.tracer.span("inner-span"):
                    pass
            assert OBS.tracer is outer.tracer
        assert [r.name for r in outer.spans] == ["outer-span"]
        assert [r.name for r in inner.spans] == ["inner-span"]

    def test_restores_even_on_error(self):
        with pytest.raises(RuntimeError):
            with observation():
                raise RuntimeError
        assert not OBS.active


def _dedup(table=None):
    """One DEDUP dispatch through the registry."""
    from repro.algebra.programs.registry import OPERATIONS
    from repro.core import make_table

    table = table or make_table("T", ["A"], [["x"], ["x"], ["y"]])
    return OPERATIONS["DEDUP"].invoke((table,), {}, None)


def _op_spans(obs):
    return [s for root in obs.spans for s in root.walk() if "shapes_in" in s.attributes]


class TestEventCollector:
    """observation() builds its op spans from the dispatch events."""

    def test_event_stream_inside_observation_keeps_op_spans(self):
        from repro.obs.events import event_stream

        with observation() as obs:
            with event_stream() as bus:
                ring = bus.ring()
                _dedup()
            _dedup()
        assert [s.name for s in _op_spans(obs)] == ["DEDUP", "DEDUP"]
        assert [e.kind for e in ring.tail()] == ["span_start", "span_finish"]
        assert obs.metrics.op("DEDUP").calls == 2

    def test_observation_inside_event_stream_leaves_the_bus_alone(self):
        from repro.obs.events import event_stream
        from repro.runtime.workloads import resolve_workload

        def bus_events(observed: bool):
            _label, program, db = resolve_workload("tc:4")
            with event_stream() as bus:
                ring = bus.ring(capacity=4096)
                if observed:
                    with observation() as obs:
                        program.run(db)
                    assert _op_spans(obs)
                else:
                    program.run(db)
            return [e.kind for e in ring.tail()], bus.published

        kinds, published = bus_events(observed=False)
        assert bus_events(observed=True) == (kinds, published)
        assert published == len(kinds) > 0

    def test_inner_observation_shadows_outer_op_spans(self):
        with observation() as outer:
            _dedup()
            with observation() as inner:
                _dedup()
                _dedup()
            _dedup()
        assert len(_op_spans(outer)) == 2
        assert len(_op_spans(inner)) == 2
        assert outer.metrics.op("DEDUP").calls == 2
        assert inner.metrics.op("DEDUP").calls == 2

    def test_scope_entered_mid_op_ignores_the_orphan_finish(self):
        from contextlib import ExitStack

        from repro.algebra import deduplicate
        from repro.algebra.programs.registry import OpSpec
        from repro.obs.events import event_stream

        table = _dedup()[0]
        scopes = []
        with event_stream(), ExitStack() as stack:

            def entering(table):
                scopes.append(stack.enter_context(observation()))
                return deduplicate(table)

            (out,) = OpSpec(name="DEDUP", function=entering).invoke((table,), {}, None)
            _dedup()
        (obs,) = scopes
        assert out.height == 2
        # The op that opened the scope has no span; the next one does.
        assert [s.name for s in _op_spans(obs)] == ["DEDUP"]
        assert obs.metrics.op("DEDUP").calls == 1

    def test_backend_dispatch_outside_the_registry_is_ignored(self):
        from repro.core import make_table
        from repro.engine.runtime import VectorEngine

        table = make_table("T", ["A"], [["x"], ["x"]])
        with observation() as obs:
            assert VectorEngine().dispatch("DEDUP", [table], {}) is not None
        assert obs.spans == ()
        assert obs.metrics.is_empty()

    def test_raise_fault_is_an_errored_op_span_holding_the_fault(self):
        from repro.algebra.programs import parse_program
        from repro.core import FaultInjectedError, database
        from repro.data import figure4_top
        from repro.runtime import FaultPlan, FaultRule, Limits, governed

        program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
        faults = FaultPlan([FaultRule(op="GROUP", kind="raise")])
        with observation() as obs, governed(Limits(), faults=faults):
            with pytest.raises(FaultInjectedError):
                program.run(database(figure4_top()))
        (group,) = _op_spans(obs)
        assert group.name == "GROUP"
        assert group.error.startswith("FaultInjectedError(")
        (fault,) = group.children
        assert fault.name == "fault"
        assert fault.attributes == {"op": "GROUP", "kind": "raise", "occurrence": 1}
        record = obs.metrics.op("GROUP")
        assert (record.calls, record.errors) == (1, 1)
        assert obs.metrics.counters["faults_injected"] == 1
