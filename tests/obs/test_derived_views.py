"""Golden pins for every view derived from one observation.

Ten runs are observed: each bundled example on the naive engine, a
vector-engine ``tc:6`` run under stats estimation, and an optimized
``chain:4`` run (its ChainJoin carries ``order``, ``rules`` and
``est_rows``).  Three timing-free views of each run are compared with
the files under ``golden/``:

* ``<run>.explain.txt`` — ``explain(timings=False)``;
* ``<run>.metrics.json`` — ``metrics.snapshot()`` without
  ``wall_time_ms`` and ``hist``;
* ``<run>.analyze.json`` — ``analyze_records`` without ``act_ms``.

Each run is also recorded by a ring on the event feed alone: every
boundary start closes with its own finish, LIFO, and the retained
events fed to a fresh tracer give the same timing-free EXPLAIN as the
observed run.

After a change that is meant to alter a view, rewrite the files with
``PYTHONPATH=src python tests/obs/test_derived_views.py`` and review
the diff.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.engine.optimizer import optimize_program
from repro.obs import Observation, Tracer, analyze_records, observation
from repro.obs.estimator import estimation
from repro.obs.events import event_stream
from repro.obs.examples import EXAMPLES, run_example
from repro.obs.stats import analyze_database
from repro.runtime.workloads import resolve_workload

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Per-op snapshot fields that carry wall-clock time.
_METRIC_TIME_KEYS = ("wall_time_ms", "hist")

#: EXPLAIN ANALYZE record fields that carry wall-clock time.
_ANALYZE_TIME_KEYS = ("act_ms",)


# Each run takes the scope to run in (a context-manager factory) and
# returns what the scope yielded.
def _example(name):
    def run(scope):
        with scope() as handle:
            run_example(name)
        return handle

    return run


def _vector_tc6(scope):
    _label, program, db = resolve_workload("tc:6")
    stats = analyze_database(db)
    with scope() as handle, estimation(stats):
        program.run(db, engine="vector")
    return handle


def _optimized_chain4(scope):
    _label, program, db = resolve_workload("chain:4")
    stats = analyze_database(db)
    plan = optimize_program(program, stats, cache=None).program
    with scope() as handle, estimation(stats):
        plan.run(db)
    return handle


RUNS = {
    **{name: _example(name) for name in EXAMPLES},
    "vector-tc6": _vector_tc6,
    "optimized-chain4": _optimized_chain4,
}


@contextmanager
def _recorded():
    """The event feed alone, retained by a ring."""
    with event_stream() as bus:
        yield bus.ring(capacity=1 << 20)


def views(obs) -> dict[str, str]:
    """The three timing-free views of one observation, as file texts."""
    snapshot = obs.metrics.snapshot()
    for record in snapshot["operations"].values():
        for key in _METRIC_TIME_KEYS:
            del record[key]
    records = [
        {k: v for k, v in record.items() if k not in _ANALYZE_TIME_KEYS}
        for record in analyze_records(obs)
    ]
    return {
        "explain.txt": obs.explain(timings=False) + "\n",
        "metrics.json": json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        "analyze.json": json.dumps(records, indent=2, sort_keys=True) + "\n",
    }


@pytest.mark.parametrize("run", sorted(RUNS))
def test_derived_views_match_golden(run):
    for suffix, text in views(RUNS[run](observation)).items():
        path = GOLDEN / f"{run}.{suffix}"
        assert text == path.read_text(), f"{path.name} differs from its golden"


@pytest.mark.parametrize("run", sorted(RUNS))
def test_a_recorded_stream_alone_explains_the_run(run):
    ring = RUNS[run](_recorded)
    events = ring.tail()
    assert ring.dropped == 0
    # Every boundary start is closed by its own finish, LIFO.
    open_boundaries = []
    for event in events:
        if event.kind == "boundary_start":
            open_boundaries.append(event.data["name"])
        elif event.kind == "boundary_finish":
            assert open_boundaries.pop() == event.data["name"], event
    assert open_boundaries == []
    # Replayed into a fresh tracer, the stream rebuilds the observation.
    tracer = Tracer()
    for event in events:
        tracer.collect(event.kind, event.data)
    replayed = Observation(tracer).explain(timings=False)
    assert replayed == RUNS[run](observation).explain(timings=False)


def test_every_example_is_pinned():
    assert set(EXAMPLES) <= set(RUNS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for run, observe in sorted(RUNS.items()):
        for suffix, text in views(observe(observation)).items():
            (GOLDEN / f"{run}.{suffix}").write_text(text)
            print(f"wrote {run}.{suffix}")
