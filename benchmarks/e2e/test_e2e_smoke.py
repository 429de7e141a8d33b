"""Self-test of the end-to-end benchmark: ``run.py --smoke`` end to end.

Two smoke runs (1 round of 1-request blocks each) check that every metric
named in BENCHMARK.json is reported with its unit, that no request fails,
that the layers account for the traced wall time, and that counts repeat
exactly under the pinned hash seed.  An in-process run with a corrupted
reference digest shows that the output checks are live.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(out: Path) -> tuple[subprocess.CompletedProcess, dict]:
    # Without PYTHONHASHSEED the harness re-executes itself with it pinned.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc, json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return [_smoke(tmp / f"run{i}.json") for i in range(2)]


def test_every_benchmark_metric_is_printed_with_its_unit(smoke_runs):
    proc, report = smoke_runs[0]
    assert set(report["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert report["host"]["pythonhashseed"] == "0"
    for workload, result in report["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric in SPEC[section]:
                entry = result[section][metric["name"]]
                assert entry["unit"] == metric["unit"], (workload, metric)
    text = proc.stdout
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(
            line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
            for line in text.splitlines()
        ), metric["name"]
    last = json.loads(text.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 4
    assert set(last["metrics"]) == {
        f"{workload}/{metric['name']}"
        for workload in report["workloads"]
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]
    }


def test_no_request_fails(smoke_runs):
    for _proc, report in smoke_runs:
        for workload, result in report["workloads"].items():
            assert result["end_to_end"]["failed_frac"]["value"] == 0, (workload, result["errors"])


def test_layers_account_for_the_traced_wall_time(smoke_runs):
    _proc, report = smoke_runs[0]
    for workload, result in report["workloads"].items():
        other = result["per_layer"]["other.self_ms"]["value"]
        assert other <= 0.10 * result["traced_wall_ms"], workload


def test_counts_repeat_exactly(smoke_runs, monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    from compare import EXACT_COUNTS

    (_, first), (_, second) = smoke_runs
    for workload in first["workloads"]:
        a = first["workloads"][workload]
        b = second["workloads"][workload]
        for name, entry in a["per_layer"].items():
            if name.endswith(".calls") or name in EXACT_COUNTS:
                assert entry["value"] == b["per_layer"][name]["value"], (workload, name)
        peak_a = a["end_to_end"]["peak_alloc_mb"]["value"]
        peak_b = b["end_to_end"]["peak_alloc_mb"]["value"]
        if first["host"]["aslr_disabled"]:
            # The ledger stamps records with round(time.time(), 3), whose
            # JSON text is shorter when it ends in zeros.
            limit = 64 if workload == "durable-fixpoint" else 0
            assert abs(peak_a - peak_b) * 2**20 <= limit, workload
        else:
            # Table caches its hash, an int whose size follows the object's
            # address, so a randomized layout moves the peak by a few bytes.
            assert abs(peak_a - peak_b) * 2**20 < 1024, workload


def test_smoke_leaves_no_scratch_files(smoke_runs):
    assert not (HERE / ".tmp").exists()


def test_corrupted_reference_fails_every_request(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import workloads

    monkeypatch.setattr(workloads.Workload, "reference_digest", lambda self: "0" * 64)
    report = run.run_suite(list(workloads.WORKLOADS), seed=0, trace=0, smoke=True)
    for workload, result in report["workloads"].items():
        assert result["attempted"] > 0
        assert result["end_to_end"]["failed_frac"]["value"] == 1, workload


def test_compare_verdicts(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import compare

    assert compare.verdict(100.0, 2.0, 104.0, 2.0, "lower", 0.10) == "ok"
    assert compare.verdict(100.0, 2.0, 115.0, 2.0, "lower", 0.10) == "REGRESSION"
    assert compare.verdict(100.0, 2.0, 85.0, 2.0, "lower", 0.10) == "improved"
    assert compare.verdict(10.0, 0.2, 8.5, 0.2, "higher", 0.10) == "REGRESSION"
    assert compare.verdict(100.0, 20.0, 150.0, 2.0, "lower", 0.10) == "unresolved"
