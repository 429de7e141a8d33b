"""Shared benchmark fixtures, reporting, and the perf-trajectory rollup.

Every benchmark module regenerates one paper artifact (a figure or a
theorem's executable content) and *asserts* the reproduction before
timing, so `pytest benchmarks/ --benchmark-only` doubles as the
experiment harness of EXPERIMENTS.md.

Three layers of reporting:

* :func:`report` records one observation — printed for the console log
  and stored under the current *run* in ``benchmarks/BENCH_obs.json``
  (git-ignored).  Runs are grouped under a run id with a timestamp and
  only the last :data:`MAX_RUNS` runs are retained, so the sink cannot
  grow without bound;
* a teardown hook harvests every ``benchmark`` fixture's median and
  feeds it through :func:`report` under a stable label
  (``<module BENCH_LABEL>/<test name>``), so timing records appear with
  no per-test boilerplate;
* at session end the run's ``median_ms`` records are rolled into the
  committed ``BENCH_trajectory.json`` at the repository root (median ms
  per label, keyed by git SHA) — the perf history that
  ``python -m repro bench-compare`` diffs and CI gates on.
"""

from __future__ import annotations

import json
import statistics
import uuid
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.data import synthetic_sales_table
from repro.obs import EVT, Observation
from repro.obs.regress import current_git_sha, update_trajectory

#: Row counts for scaling sweeps (kept laptop-friendly).
SWEEP_SIZES = (10, 40, 160)

#: Machine-readable sink for :func:`report` records (git-ignored).
OBS_PATH = Path(__file__).resolve().parent / "BENCH_obs.json"

#: The committed perf history at the repository root.
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"

#: Runs retained in ``BENCH_obs.json`` (older runs are dropped).
MAX_RUNS = 20

#: The current run: every :func:`report` record lands here.
_RUN: dict = {
    "run_id": uuid.uuid4().hex[:12],
    "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    "records": [],
}


@pytest.fixture(params=SWEEP_SIZES, ids=lambda n: f"rows{n}")
def sized_sales(request):
    """A synthetic relation-style sales table with ~n data rows."""
    n = request.param
    return synthetic_sales_table(n_parts=max(2, n // 4), n_regions=4, seed=n)


def report(label: str, **values) -> None:
    """Record one experiment observation.

    The observation is printed for the console log and stored under the
    current run in ``BENCH_obs.json``.  If an observation scope is
    active, the metrics derived from its completed spans ride along, so
    benchmark records carry per-operation call counts and row flow.
    """
    rendered = "  ".join(f"{k}={v}" for k, v in values.items())
    print(f"[{label}] {rendered}")
    record: dict = {"label": label, "values": values}
    if EVT.observer is not None:
        metrics = Observation(EVT.observer).metrics
        if not metrics.is_empty():
            record["metrics"] = metrics.snapshot()
    _RUN["records"].append(record)
    _flush_runs()


def _load_runs() -> list[dict]:
    try:
        data = json.loads(OBS_PATH.read_text())
    except (OSError, ValueError):
        return []
    # Current shape: {"runs": [...]}.  A bare list is the pre-run-id
    # shape this file used to have; treat it as one legacy run.
    if isinstance(data, dict) and isinstance(data.get("runs"), list):
        return [run for run in data["runs"] if isinstance(run, dict)]
    if isinstance(data, list):
        return [{"run_id": "legacy", "started": None, "records": data}]
    return []


def _flush_runs() -> None:
    runs = [run for run in _load_runs() if run.get("run_id") != _RUN["run_id"]]
    runs.append(_RUN)
    runs = runs[-MAX_RUNS:]
    try:
        OBS_PATH.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
    except OSError:
        pass  # read-only checkout: keep the console record


def _module_label(item) -> str:
    module = getattr(item, "module", None)
    label = getattr(module, "BENCH_LABEL", None)
    if label:
        return str(label)
    name = getattr(module, "__name__", "bench")
    return name.removeprefix("bench_")


@pytest.hookimpl(trylast=True)
def pytest_runtest_teardown(item, nextitem):
    """Harvest the benchmark fixture's stats into a :func:`report` record.

    With ``--benchmark-disable`` (the CI smoke path without the
    regression gate) the fixture carries no stats and nothing is
    recorded, so the trajectory only ever sees measured medians.
    """
    fixture = getattr(item, "funcargs", {}).get("benchmark")
    metadata = getattr(fixture, "stats", None)
    stats = getattr(metadata, "stats", None)
    if stats is None or not getattr(stats, "data", None):
        return
    label = f"{_module_label(item)}/{item.name}"
    report(
        label,
        median_ms=round(stats.median * 1e3, 6),
        rounds=stats.rounds,
    )


def pytest_sessionfinish(session, exitstatus):
    """Roll this run's medians into the committed trajectory file."""
    medians: dict[str, list[float]] = {}
    for record in _RUN["records"]:
        median_ms = record.get("values", {}).get("median_ms")
        if isinstance(median_ms, (int, float)):
            medians.setdefault(record["label"], []).append(float(median_ms))
    if not medians:
        return
    update_trajectory(
        TRAJECTORY_PATH,
        {label: statistics.median(values) for label, values in medians.items()},
        sha=current_git_sha(TRAJECTORY_PATH.parent),
        recorded=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
