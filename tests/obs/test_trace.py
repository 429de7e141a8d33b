"""Tracer unit tests: spans built from the event feed — nesting,
raising regions, thread isolation, root order."""

import threading

import pytest

from repro.obs import EVT, Tracer, observation
from repro.obs.events import NO_BOUNDARY, Boundary, event_stream


class TestSpanNesting:
    def test_with_blocks_nest(self):
        with observation() as obs:
            with Boundary("outer"):
                with Boundary("inner"):
                    with Boundary("leaf"):
                        pass
        (outer,) = obs.spans
        assert outer.name == "outer"
        (inner,) = outer.children
        assert inner.name == "inner"
        assert [c.name for c in inner.children] == ["leaf"]

    def test_siblings_stay_ordered(self):
        with observation() as obs:
            with Boundary("root"):
                for name in ("a", "b", "c"):
                    with Boundary(name):
                        pass
        (root,) = obs.spans
        assert [c.name for c in root.children] == ["a", "b", "c"]

    def test_sequential_roots(self):
        with observation() as obs:
            with Boundary("first"):
                pass
            with Boundary("second"):
                pass
        assert [r.name for r in obs.spans] == ["first", "second"]

    def test_durations_are_monotone(self):
        with observation() as obs:
            with Boundary("outer"):
                with Boundary("inner"):
                    pass
        (outer,) = obs.spans
        (inner,) = outer.children
        assert outer.duration >= inner.duration >= 0.0

    def test_attributes_and_walk(self):
        with observation() as obs:
            with Boundary("root", kind="test") as root:
                root.set(extra=1)
                with Boundary("child"):
                    pass
        (span,) = obs.spans
        assert span.attributes == {"kind": "test", "extra": 1}
        assert [s.name for s in span.walk()] == ["root", "child"]

    def test_to_dict_is_jsonable(self):
        import json

        with observation() as obs:
            with Boundary("root", items=("a", "b"), obj=object()):
                pass
        (root,) = obs.spans
        encoded = json.dumps(root.to_dict())
        assert '"root"' in encoded

    def test_current_tracks_open_span(self):
        # The open boundary parents what starts inside it, and once it
        # finishes the next start opens a new root.
        with observation() as obs:
            with Boundary("open"):
                _dedup()
            _dedup()
        assert [r.name for r in obs.spans] == ["open", "DEDUP"]
        assert [c.name for c in obs.spans[0].children] == ["DEDUP"]


class TestExceptionSafety:
    def test_error_is_recorded_and_reraised(self):
        with observation() as obs:
            with pytest.raises(ValueError):
                with Boundary("boom"):
                    raise ValueError("nope")
        (root,) = obs.spans
        assert root.error == "ValueError('nope')"
        assert root.end >= root.start

    def test_stack_recovers_after_nested_raise(self):
        with observation() as obs:
            with Boundary("outer"):
                with pytest.raises(RuntimeError):
                    with Boundary("failing"):
                        raise RuntimeError("x")
                with Boundary("after"):
                    pass
            with Boundary("next"):
                pass
        outer, after_outer = obs.spans
        assert [c.name for c in outer.children] == ["failing", "after"]
        assert outer.error is None
        assert (after_outer.name, after_outer.children) == ("next", [])

    def test_next_root_opens_cleanly_after_raise(self):
        with observation() as obs:
            with pytest.raises(RuntimeError):
                with Boundary("failed"):
                    raise RuntimeError
            with Boundary("clean"):
                pass
        assert [r.name for r in obs.spans] == ["failed", "clean"]


class TestThreadIsolation:
    def test_threads_build_separate_trees(self):
        barrier = threading.Barrier(2)

        def work(label: str) -> None:
            with Boundary(f"root-{label}"):
                barrier.wait(timeout=5)  # both threads hold a span open
                with Boundary(f"child-{label}"):
                    pass

        with observation() as obs:
            threads = [threading.Thread(target=work, args=(l,)) for l in ("a", "b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        roots = {r.name: r for r in obs.spans}
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


class TestBoundaryEvents:
    def test_boundary_publishes_a_start_and_a_finish(self):
        with event_stream() as bus:
            ring = bus.ring()
            with Boundary("region", a=1, b=2) as region:
                region.set(c=3)
            with pytest.raises(KeyError):
                with Boundary("failing"):
                    raise KeyError("k")
        assert [(e.kind, e.data) for e in ring.tail()] == [
            ("boundary_start", {"name": "region", "a": 1, "b": 2}),
            ("boundary_finish", {"name": "region", "ok": True, "c": 3}),
            ("boundary_start", {"name": "failing"}),
            ("boundary_finish", {"name": "failing", "ok": False, "error": "KeyError('k')"}),
        ]

    def test_no_boundary_binds_none_and_publishes_nothing(self):
        with event_stream() as bus:
            ring = bus.ring()
            with NO_BOUNDARY as region:
                assert region is None
        assert ring.tail() == ()

    def test_a_recorded_stream_rebuilds_the_trees(self):
        with event_stream() as bus:
            ring = bus.ring()
            with Boundary("root", k=1):
                _dedup()
        tracer = Tracer()
        for event in ring.tail():
            tracer.collect(event.kind, event.data)
        (root,) = tracer.roots
        assert (root.name, root.attributes) == ("root", {"k": 1})
        assert [c.name for c in root.children] == ["DEDUP"]

    def test_finish_matching_no_open_boundary_is_ignored(self):
        tracer = Tracer()
        tracer.collect("boundary_finish", {"name": "orphan", "ok": True})
        tracer.collect("boundary_start", {"name": "open"})
        tracer.collect("boundary_finish", {"name": "other", "ok": True})
        tracer.collect("span_finish", {"op": "DEDUP", "ok": True})
        tracer.collect("error", {"op": "DEDUP", "error": "x", "error_type": "E"})
        assert tracer.roots == ()
        tracer.collect("boundary_finish", {"name": "open", "ok": True})
        (root,) = tracer.roots
        assert (root.name, root.error, root.children) == ("open", None, [])


class TestObservationScope:
    def test_scope_installs_and_restores(self):
        assert not EVT.active
        with observation() as obs:
            assert EVT.active
            assert EVT.observer is obs.tracer
        assert not EVT.active
        assert EVT.observer is None

    def test_scopes_nest_and_shadow(self):
        with observation() as outer:
            with Boundary("outer-span"):
                pass
            with observation() as inner:
                with Boundary("inner-span"):
                    pass
            assert EVT.observer is outer.tracer
        assert [r.name for r in outer.spans] == ["outer-span"]
        assert [r.name for r in inner.spans] == ["inner-span"]

    def test_restores_even_on_error(self):
        with pytest.raises(RuntimeError):
            with observation():
                raise RuntimeError
        assert not EVT.active


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
            arguments = {"attr": "A", "value": "x"}
            assert VectorEngine().dispatch("SELECTCONST", [table], arguments) is not None
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
