"""Tracer, MetricsRegistry and EventBus under thread pools: no lost records."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.algebra.programs import parse_program
from repro.data import sales_info1
from repro.obs import Boundary, EventBus, MetricsRegistry, observation

PIVOT = """
    Grouped <- GROUP by {Region} on {Sold} (Sales)
    Cleaned <- CLEANUP by {Part} on {null} (Grouped)
    Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
"""

WORKERS = 8
RUNS = 24


class TestConcurrentObservation:
    def test_no_lost_spans_across_threads(self):
        with observation() as obs:
            with ThreadPoolExecutor(max_workers=WORKERS) as pool:
                futures = [
                    pool.submit(parse_program(PIVOT).run, sales_info1())
                    for _ in range(RUNS)
                ]
                results = [f.result() for f in futures]
        assert len(results) == RUNS
        # One root span tree per run, each with its full statement chain.
        assert len(obs.spans) == RUNS
        for root in obs.spans:
            assert root.name == "program"
            assert [s.name for s in root.children] == ["statement"] * 3

    def test_no_corrupted_counters_across_threads(self):
        with observation() as obs:
            with ThreadPoolExecutor(max_workers=WORKERS) as pool:
                list(
                    pool.map(
                        lambda _: parse_program(PIVOT).run(sales_info1()),
                        range(RUNS),
                    )
                )
        metrics = obs.metrics
        assert metrics.op("GROUP").calls == RUNS
        assert metrics.op("CLEANUP").calls == RUNS
        assert metrics.op("PURGE").calls == RUNS
        assert metrics.counter("statements") == 3 * RUNS
        assert metrics.counter("programs") == RUNS

    def test_span_trees_do_not_interleave(self):
        """Each thread's tree only contains spans from its own thread."""
        with observation() as obs:
            with ThreadPoolExecutor(max_workers=WORKERS) as pool:
                list(
                    pool.map(
                        lambda _: parse_program(PIVOT).run(sales_info1()),
                        range(RUNS),
                    )
                )
        for root in obs.spans:
            thread_ids = {span.thread_id for span in root.walk()}
            assert thread_ids == {root.thread_id}

    def test_event_built_op_spans_stay_under_their_own_statement(self):
        """The collector keeps one open-op stack per thread: with the
        switch interval shortened, every op span still closes under its
        own thread's statement with its own op's output, and no call is
        lost."""

        def flows(root):
            return [
                [(op.name, op.attributes.get("rows_out"), op.attributes.get("cols_out"))
                 for op in statement.children]
                for statement in root.children
            ]

        with observation() as reference:
            parse_program(PIVOT).run(sales_info1())
        (expected,) = [flows(root) for root in reference.spans]
        runs = 8 * RUNS
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with observation() as obs:
                with ThreadPoolExecutor(max_workers=WORKERS) as pool:
                    futures = [
                        pool.submit(parse_program(PIVOT).run, sales_info1())
                        for _ in range(runs)
                    ]
                    for future in futures:
                        future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert len(obs.spans) == runs
        for root in obs.spans:
            assert flows(root) == expected
            assert {span.thread_id for span in root.walk()} == {root.thread_id}
        assert obs.metrics.op("PURGE").calls == runs


class TestRegistryPrimitives:
    def test_counter_increments_are_exact_under_contention(self):
        registry = MetricsRegistry()
        increments_per_worker = 1_000

        def hammer(_):
            for _ in range(increments_per_worker):
                registry.count("hits")
                registry.record_op("OP", 0.000001, rows_in=1, rows_out=2)

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            list(pool.map(hammer, range(WORKERS)))
        total = WORKERS * increments_per_worker
        assert registry.counter("hits") == total
        record = registry.op("OP")
        assert record.calls == total
        assert record.rows_in == total
        assert record.rows_out == 2 * total

    def test_tracer_roots_are_complete_under_contention(self):
        spans_per_worker = 200

        def open_close(worker):
            for index in range(spans_per_worker):
                with Boundary(f"w{worker}", n=index):
                    pass

        with observation() as obs:
            with ThreadPoolExecutor(max_workers=WORKERS) as pool:
                list(pool.map(open_close, range(WORKERS)))
        tracer = obs.tracer
        assert len(tracer.roots) == WORKERS * spans_per_worker
        names = {root.name for root in tracer.roots}
        assert names == {f"w{w}" for w in range(WORKERS)}


class TestEventBusPrimitives:
    def test_publish_is_exact_under_contention(self):
        bus = EventBus()
        ring = bus.ring(capacity=100_000)
        events_per_worker = 2_000

        def hammer(worker):
            for index in range(events_per_worker):
                bus.publish("span_start", op=f"w{worker}", n=index)

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            list(pool.map(hammer, range(WORKERS)))
        total = WORKERS * events_per_worker
        assert bus.published == total
        assert ring.received == total and ring.dropped == 0
        # Sequence numbers: a gap-free permutation of 1..total.
        seqs = sorted(event.seq for event in ring.tail())
        assert seqs == list(range(1, total + 1))

    def test_bounded_ring_never_exceeds_capacity_under_contention(self):
        bus = EventBus()
        ring = bus.ring(capacity=64)
        events_per_worker = 1_000

        def hammer(_):
            for _ in range(events_per_worker):
                bus.publish("span_start", op="X")

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            list(pool.map(hammer, range(WORKERS)))
        total = WORKERS * events_per_worker
        assert len(ring) == 64
        assert ring.received == total
        assert ring.dropped == total - 64
        # The retained tail is the *newest* contiguous window.
        assert [e.seq for e in ring.tail()] == list(range(total - 63, total + 1))

    def test_subscribers_attach_and_detach_during_publishing(self):
        """Satellite: hammer publish while rings/callbacks churn."""
        bus = EventBus()
        stop = threading.Event()
        publisher_errors: list[Exception] = []

        def publish_loop(worker):
            count = 0
            try:
                while not stop.is_set():
                    bus.publish("span_start", op=f"w{worker}", n=count)
                    count += 1
            except Exception as err:  # pragma: no cover - the failure itself
                publisher_errors.append(err)
            return count

        def churn_loop(_):
            cycles = 0
            seen: list[int] = []
            while not stop.is_set():
                ring = bus.ring(capacity=16)
                callback = bus.attach(lambda e: seen.append(e.seq))
                tail = ring.tail()
                if tail:
                    # Snapshot is internally ordered even mid-publish.
                    seqs = [e.seq for e in tail]
                    assert seqs == sorted(seqs)
                assert bus.detach(ring) is True
                assert bus.detach(callback) is True
                cycles += 1
            return cycles

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            publishers = [pool.submit(publish_loop, w) for w in range(4)]
            churners = [pool.submit(churn_loop, w) for w in range(4)]
            import time

            time.sleep(0.3)
            stop.set()
            published = sum(f.result() for f in publishers)
            cycles = sum(f.result() for f in churners)
        assert not publisher_errors
        assert published > 0 and cycles > 0
        assert bus.published == published
        # All churned subscribers were detached; nothing leaked.
        assert bus.subscribers == 0

    def test_metrics_and_bus_contended_together(self):
        """The two hubs share no locks; hammer both at once."""
        registry = MetricsRegistry()
        bus = EventBus()
        ring = bus.ring(capacity=50_000)
        rounds = 1_000

        def hammer(worker):
            for index in range(rounds):
                registry.record_op("OP", 0.000001, rows_in=1, rows_out=1)
                bus.publish("span_finish", op="OP", ok=True, n=index)
                registry.count("events")

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            list(pool.map(hammer, range(WORKERS)))
        total = WORKERS * rounds
        assert registry.op("OP").calls == total
        assert registry.counter("events") == total
        assert bus.published == total
        assert ring.received == total
