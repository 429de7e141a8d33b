"""Golden pins for every view derived from one observation.

Ten runs are observed: each bundled example on the naive engine, a
vector-engine ``tc:6`` run under stats estimation, and an optimized
``chain:4`` run (its ChainJoin carries ``order``, ``rules`` and
``est_rows``).  Three timing-free views of each run are compared with
the files under ``golden/``:

* ``<run>.explain.txt`` — ``explain(timings=False)``;
* ``<run>.metrics.json`` — ``metrics.snapshot()`` without
  ``wall_time_ms`` and ``hist``;
* ``<run>.analyze.json`` — ``analyze_records`` without ``est_ms``,
  ``act_ms`` and ``time_ratio``.

After a change that is meant to alter a view, rewrite the files with
``PYTHONPATH=src python tests/obs/test_derived_views.py`` and review
the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine.optimizer import optimize_program
from repro.obs import analyze_records, observation
from repro.obs.estimator import estimation
from repro.obs.examples import EXAMPLES, trace_example
from repro.obs.stats import analyze_database
from repro.runtime.workloads import resolve_workload

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Per-op snapshot fields that carry wall-clock time.
_METRIC_TIME_KEYS = ("wall_time_ms", "hist")

#: EXPLAIN ANALYZE record fields that carry wall-clock time.
_ANALYZE_TIME_KEYS = ("est_ms", "act_ms", "time_ratio")


def _vector_tc6():
    _label, program, db = resolve_workload("tc:6")
    stats = analyze_database(db)
    with observation() as obs, estimation(stats):
        program.run(db, engine="vector")
    return obs


def _optimized_chain4():
    _label, program, db = resolve_workload("chain:4")
    stats = analyze_database(db)
    plan = optimize_program(program, stats, cache=None).program
    with observation() as obs, estimation(stats):
        plan.run(db)
    return obs


RUNS = {
    **{name: (lambda name=name: trace_example(name)[0]) for name in EXAMPLES},
    "vector-tc6": _vector_tc6,
    "optimized-chain4": _optimized_chain4,
}


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
    for suffix, text in views(RUNS[run]()).items():
        path = GOLDEN / f"{run}.{suffix}"
        assert text == path.read_text(), f"{path.name} differs from its golden"


def test_every_example_is_pinned():
    assert set(EXAMPLES) <= set(RUNS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for run, observe in sorted(RUNS.items()):
        for suffix, text in views(observe()).items():
            (GOLDEN / f"{run}.{suffix}").write_text(text)
            print(f"wrote {run}.{suffix}")
