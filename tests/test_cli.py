"""Tests for the ``python -m repro`` command-line entry point."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.__main__ import COMMANDS, main


def run_cli(*args):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(args))
    return code, buffer.getvalue()


class TestCli:
    def test_check_passes(self):
        code, output = run_cli("check")
        assert code == 0
        assert "7/7 reproductions hold" in output
        assert "FAIL" not in output

    def test_bare_invocation_prints_the_command_listing(self):
        code, output = run_cli()
        assert code == 0
        assert "commands:" in output
        assert "exit codes:" in output

    def test_help_lists_every_command_and_exit_code(self):
        from repro.__main__ import COMMANDS, EXIT_CODES

        code, output = run_cli("--help")
        assert code == 0
        for name in COMMANDS:
            assert name in output
        for exit_code, meaning in EXIT_CODES:
            assert meaning in output
        assert {exit_code for exit_code, _ in EXIT_CODES} == {0, 1, 2, 3, 4}

    def test_every_command_has_a_handler_and_help(self):
        from repro.__main__ import COMMANDS

        for name, (handler, help_text) in COMMANDS.items():
            assert callable(handler), name
            assert help_text and len(help_text) < 80, name

    def test_figures_prints_every_artifact(self):
        code, output = run_cli("figures")
        assert code == 0
        for marker in ("SalesInfo1", "SalesInfo4", "GROUP", "MERGE"):
            assert marker in output
        assert output.count("exactly: True") == 2

    def test_unknown_command(self):
        code, output = run_cli("frobnicate")
        assert code == 2
        assert "figures" in output


class TestTrace:
    def test_trace_default_example(self):
        code, output = run_cli("trace")
        assert code == 0
        assert "trace of fig4-group" in output
        assert "program" in output
        assert "GROUP" in output
        assert "rows 8→9" in output
        assert "Operation metrics" in output

    def test_trace_named_example(self):
        code, output = run_cli("trace", "fo-while")
        assert code == 0
        assert "trace of fo-while" in output
        assert "iterations=" in output
        assert "condition_rows=" in output

    def test_trace_json(self):
        import json

        code, output = run_cli("trace", "fig4-group", "--json")
        assert code == 0
        data = json.loads(output)
        assert set(data) == {"spans", "metrics"}
        assert data["spans"][0]["name"] == "program"
        assert data["metrics"]["operations"]["GROUP"]["calls"] == 1

    def test_trace_unknown_example_lists_bundled(self):
        code, output = run_cli("trace", "frobnicate")
        assert code == 2
        assert "unknown example" in output
        assert "fig4-group" in output
        assert "fig5-merge" in output

    def test_trace_accepts_unique_prefixes(self):
        code, output = run_cli("trace", "fig5")
        assert code == 0
        assert "trace of fig5-merge" in output

    def test_trace_analyze_prints_estimated_vs_actual(self):
        code, output = run_cli("trace", "fig5", "--analyze")
        assert code == 0
        assert "EXPLAIN ANALYZE" in output
        assert "Est rows" in output
        assert "Act rows" in output
        assert "Row ratio" in output
        assert "Time ratio" in output
        assert "MERGE" in output

    def test_trace_analyze_json_carries_records(self):
        import json

        code, output = run_cli("trace", "pivot", "--json", "--analyze")
        assert code == 0
        data = json.loads(output)
        assert [r["op"] for r in data["analyze"]] == ["GROUP", "CLEANUP", "PURGE"]
        assert all("row_ratio" in r and "time_ratio" in r for r in data["analyze"])


class TestProfile:
    def test_profile_prints_hotspots(self):
        code, output = run_cli("profile", "fig5")
        assert code == 0
        assert "profile of fig5-merge" in output
        assert "by self time" in output
        assert "MERGE" in output
        assert "wall-time histogram" in output

    def test_profile_json(self):
        import json

        code, output = run_cli("profile", "fig4", "--json", "--no-memory")
        assert code == 0
        data = json.loads(output)
        assert data["total_ms"] > 0
        assert any(spot["name"] == "GROUP" for spot in data["hotspots"])

    def test_profile_exports_chrome_trace_and_jsonl(self, tmp_path):
        import json

        chrome = tmp_path / "trace.json"
        log = tmp_path / "log.jsonl"
        code, output = run_cli(
            "profile", "fig5", "--chrome-trace", str(chrome), "--log-json", str(log)
        )
        assert code == 0
        assert "chrome trace written" in output
        assert "JSON-lines log written" in output
        trace = json.loads(chrome.read_text())
        assert all(e["ph"] in {"X", "M"} for e in trace["traceEvents"])
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert records[-1]["type"] == "metrics"

    def test_profile_unknown_example(self):
        code, output = run_cli("profile", "frobnicate")
        assert code == 2
        assert "unknown example" in output


class TestBenchCompare:
    def write(self, path, medians, sha="abc"):
        from repro.obs.regress import update_trajectory

        update_trajectory(path, medians, sha=sha, recorded="2026-01-01T00:00:00+00:00")

    def test_pass_exits_zero(self, tmp_path):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        self.write(base, {"fig4/group": 1.0})
        self.write(cur, {"fig4/group": 1.1})
        code, output = run_cli("bench-compare", str(base), str(cur))
        assert code == 0
        assert "no regressions" in output

    def test_regression_exits_one(self, tmp_path):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        self.write(base, {"fig4/group": 1.0})
        self.write(cur, {"fig4/group": 2.0})
        code, output = run_cli("bench-compare", str(base), str(cur), "--tolerance", "1.5")
        assert code == 1
        assert "REGRESSED" in output

    def test_usage_error(self):
        code, output = run_cli("bench-compare", "only-one.json")
        assert code == 2
        assert "usage" in output

    def test_bad_tolerance(self, tmp_path):
        code, output = run_cli(
            "bench-compare", "a.json", "b.json", "--tolerance", "fast"
        )
        assert code == 2
        assert "invalid tolerance" in output

    def test_missing_trajectory_exits_three(self, tmp_path):
        """Exit 3 = the gate never ran, distinct from 1 (regression)."""
        base = tmp_path / "base.json"
        self.write(base, {"fig4/group": 1.0})
        code, output = run_cli(
            "bench-compare", str(base), str(tmp_path / "nope.json")
        )
        assert code == 3
        assert "cannot read current trajectory" in output

    def test_unparseable_trajectory_exits_three(self, tmp_path):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        self.write(base, {"fig4/group": 1.0})
        cur.write_text("{ this is not json")
        code, output = run_cli("bench-compare", str(base), str(cur))
        assert code == 3
        assert "not valid JSON" in output

    def test_malformed_trajectory_exits_three(self, tmp_path):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        self.write(base, {"fig4/group": 1.0})
        cur.write_text('{"format": 1}')  # no "benchmarks" mapping
        code, output = run_cli("bench-compare", str(base), str(cur))
        assert code == 3
        assert "malformed" in output


class TestStats:
    def test_stats_renders_metric_tables(self):
        code, output = run_cli("stats")
        assert code == 0
        assert "aggregated metrics over" in output
        assert "Operation metrics" in output
        assert "Counters" in output
        assert "GROUP" in output
        assert "Time ms" in output

    def test_stats_json(self):
        import json

        code, output = run_cli("stats", "--json")
        assert code == 0
        data = json.loads(output)
        assert set(data) == {"operations", "counters"}
        assert data["operations"]["GROUP"]["calls"] >= 1
        assert data["counters"]["programs"] >= 1


class TestLineageCli:
    def test_default_example_prints_witness_and_explain(self):
        code, output = run_cli("lineage")
        assert code == 0
        assert "lineage of fig4-group" in output
        assert "witness replay: regenerated" in output
        assert "provenance-annotated EXPLAIN" in output
        assert "prov_cells" in output

    def test_cell_query_names_the_origin(self):
        code, output = run_cli("lineage", "fig4", "--cell", "Sales[2,2]")
        assert code == 0
        assert "Sales[1,3]" in output  # the un-pivoted Sold cell
        assert "witness replay: regenerated" in output

    def test_malformed_cell(self):
        code, output = run_cli("lineage", "fig4", "--cell", "Sales[2;2]")
        assert code == 2
        assert "malformed --cell" in output

    def test_unknown_output_table(self):
        code, output = run_cli("lineage", "fig4", "--cell", "Nope[1,1]")
        assert code == 2
        assert "no output table 'Nope'" in output
        assert "Sales" in output  # the valid labels are listed

    def test_cell_out_of_range(self):
        code, output = run_cli("lineage", "fig4", "--cell", "Sales[99,1]")
        assert code == 2
        assert "outside" in output

    def test_olap_is_not_lineage_capable(self):
        code, output = run_cli("lineage", "olap")
        assert code == 2
        assert "not lineage-capable" in output
        assert "fig4-group" in output  # capable alternatives are listed

    def test_single_example_audit(self):
        code, output = run_cli("lineage", "fig4", "--audit")
        assert code == 0
        assert "audit of fig4-group" in output
        assert "regenerated" in output

    def test_full_audit_with_graph_exports(self, tmp_path):
        import json

        dot = tmp_path / "prov.dot"
        graph = tmp_path / "prov.json"
        code, output = run_cli(
            "lineage", "--audit", "--dot", str(dot), "--graph-json", str(graph)
        )
        assert code == 0
        assert "examples fully constructive" in output
        assert "FAIL" not in output
        assert dot.read_text().startswith("digraph")
        data = json.loads(graph.read_text())
        assert {g["name"] for g in data["graphs"]} >= {"fig4-group", "fo-while"}

    def test_unknown_example_suggests_close_names(self):
        code, output = run_cli("lineage", "figg5")
        assert code == 2
        assert "unknown example" in output
        assert "did you mean" in output
        assert "fig5-merge" in output

    def test_ambiguous_prefix_lists_matches(self):
        code, output = run_cli("lineage", "fig")
        assert code == 2
        assert "ambiguous example name" in output
        assert "fig4-group" in output and "fig5-merge" in output


class TestRun:
    def test_run_workload_to_completion(self):
        code, output = run_cli("run", "tc:5")
        assert code == 0
        assert "tc:5: finished after 1 attempt(s)" in output
        assert "governor" in output

    def test_run_bundled_example(self):
        code, output = run_cli("run", "fig4-group", "--verify")
        assert code == 0
        assert "identical to ungoverned run" in output

    def test_run_budget_kill_exits_nonzero(self):
        code, output = run_cli("run", "tc:6", "--max-rows", "10")
        assert code == 1
        assert "killed" in output
        assert "kind=total_rows" in output

    def test_run_deadline_retry_verify(self, tmp_path):
        """The headline robustness scenario, end to end through the CLI:
        a 50ms deadline kills the fixpoint; checkpointed retries resume
        it; the final database matches the ungoverned run."""
        ck = tmp_path / "ck.json"
        code, output = run_cli(
            "run", "tc:8", "--deadline", "50",
            "--checkpoint", str(ck), "--retry", "100", "--verify",
        )
        assert code == 0
        # --retry now routes through the supervisor, which reports the
        # attempt/kill totals instead of streaming per-attempt lines
        assert "budget kill(s)" in output
        assert "finished after" in output and "attempt(s)" in output
        assert "verify: identical to ungoverned run" in output

    def test_run_json_output(self):
        import json

        code, output = run_cli("run", "tc:4", "--json")
        assert code == 0
        data = json.loads(output)
        assert data["workload"] == "tc:4"
        assert data["finished"] is True
        assert data["governor"]["ops_dispatched"] > 0

    def test_run_usage_errors(self):
        code, output = run_cli("run", "tc:notanumber")
        assert code == 2
        code, output = run_cli("run", "tc:4", "--resume")
        assert code == 2
        assert "--resume requires --checkpoint" in output
        code, output = run_cli("run", "tc:4", "--deadline", "fast")
        assert code == 2
        assert "expected an integer" in output

    def test_run_rejects_non_program_examples(self):
        code, output = run_cli("run", "olap")
        assert code == 2
        assert "cannot run under the hardened runtime" in output


class TestRunEventFlags:
    def test_progress_streams_ticker_lines(self):
        code, output = run_cli("run", "tc:6", "--max-rows", "60", "--progress")
        assert code == 1
        assert "run: " in output
        assert "iter 1" in output and "frontier" in output
        assert "rows" in output and "/60]" in output
        assert "KILLED: total_rows" in output

    def test_events_flag_streams_jsonl(self, tmp_path):
        import json

        events = tmp_path / "events.jsonl"
        code, _output = run_cli("run", "tc:4", "--events", str(events))
        assert code == 0
        decoded = [json.loads(line) for line in events.read_text().splitlines()]
        # The run events frame the run inside its governed boundary.
        assert [r["kind"] for r in decoded[:2]] == ["boundary_start", "run_start"]
        assert [r["kind"] for r in decoded[-2:]] == ["run_finish", "boundary_finish"]
        assert decoded[0]["data"]["name"] == decoded[-1]["data"]["name"] == "governed"
        kinds = {record["kind"] for record in decoded}
        assert {"span_start", "span_finish", "while_iteration"} <= kinds

    def test_flight_dir_dumps_postmortem_on_kill(self, tmp_path):
        import json

        flight = tmp_path / "flight"
        code, output = run_cli(
            "run", "tc:6", "--max-rows", "60",
            "--checkpoint", str(tmp_path / "ck.json"),
            "--flight-dir", str(flight),
        )
        assert code == 1
        assert "postmortem bundle written to" in output
        bundles = sorted(flight.iterdir())
        assert len(bundles) == 1
        manifest = json.loads((bundles[0] / "MANIFEST.json").read_text())
        assert manifest["error"]["type"] == "BudgetExceededError"
        assert manifest["checkpoint"] == str(tmp_path / "ck.json")
        assert (bundles[0] / "events.jsonl").exists()
        assert "while" in (bundles[0] / "plan.txt").read_text()

    def test_flight_dir_json_summary_carries_the_bundle(self, tmp_path):
        import json

        flight = tmp_path / "flight"
        code, output = run_cli(
            "run", "tc:6", "--max-rows", "60",
            "--flight-dir", str(flight), "--json",
        )
        assert code == 1
        data = json.loads(output)
        assert data["finished"] is False
        assert data["postmortem"].startswith(str(flight))

    def test_clean_run_with_flight_dir_writes_nothing(self, tmp_path):
        flight = tmp_path / "flight"
        code, _output = run_cli("run", "tc:4", "--flight-dir", str(flight))
        assert code == 0
        assert not flight.exists()

    def test_retried_run_only_dumps_after_the_last_attempt(self, tmp_path):
        flight = tmp_path / "flight"
        code, output = run_cli(
            "run", "tc:8", "--deadline", "50",
            "--checkpoint", str(tmp_path / "ck.json"), "--retry", "100",
            "--flight-dir", str(flight),
        )
        assert code == 0
        assert "finished after" in output
        assert not flight.exists()  # the run recovered: no postmortem


class TestMetrics:
    def test_metrics_json_snapshot(self):
        import json

        code, output = run_cli("metrics")
        assert code == 0
        data = json.loads(output)
        assert data["operations"]["GROUP"]["calls"] >= 1
        assert "hist" in data["operations"]["GROUP"]

    def test_metrics_prom_is_lintable_text(self):
        from repro.obs import lint_prometheus_text

        code, output = run_cli("metrics", "--prom")
        assert code == 0
        assert "# TYPE repro_op_calls_total counter" in output
        assert "# TYPE repro_op_duration_seconds histogram" in output
        assert 'le="+Inf"' in output
        assert lint_prometheus_text(output) == []

    def test_metrics_prom_estimates_adds_estimator_families(self, tmp_path):
        from repro.obs import lint_prometheus_text

        stats_path = tmp_path / "stats.json"
        code, _output = run_cli("analyze", "tc:6", "--out", str(stats_path))
        assert code == 0
        code, output = run_cli(
            "metrics", "--prom", "--estimates", "--stats", str(stats_path)
        )
        assert code == 0
        assert "# TYPE repro_estimator_qerror histogram" in output
        assert "# TYPE repro_estimator_worst_qerror gauge" in output
        assert "# TYPE repro_stats_age_seconds gauge" in output
        assert 'repro_estimator_estimates_total{source="stats"}' in output
        assert lint_prometheus_text(output) == []

    def test_metrics_prom_without_optins_is_unchanged(self):
        code, output = run_cli("metrics", "--prom")
        assert code == 0
        assert "estimator" not in output

    def test_metrics_bad_stats_path_exits_two(self, tmp_path):
        code, output = run_cli(
            "metrics", "--prom", "--stats", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "error:" in output


class TestAnalyze:
    def test_analyze_workload_summary(self):
        code, output = run_cli("analyze", "tc:6")
        assert code == 0
        assert "ANALYZE of tc:6 (top-8 sketches)" in output
        assert "ndv" in output

    def test_analyze_example_naive(self):
        code, output = run_cli("analyze", "fig4-group")
        assert code == 0
        assert "Sales: 8 rows x 3 cols" in output

    def test_analyze_json_is_schema_valid(self):
        import json

        from repro.obs.stats import validate_stats_data

        code, output = run_cli("analyze", "fig4-group", "--json")
        assert code == 0
        assert validate_stats_data(json.loads(output)) == []

    def test_analyze_out_writes_loadable_snapshot(self, tmp_path):
        from repro.obs.stats import load_stats

        path = tmp_path / "nested" / "stats.json"
        code, output = run_cli("analyze", "tc:6", "--out", str(path))
        assert code == 0
        assert str(path) in output
        stats = load_stats(path)
        assert stats.total_rows == 5

    def test_analyze_top_k(self):
        import json

        code, output = run_cli("analyze", "fig4-group", "--top-k", "2", "--json")
        assert code == 0
        data = json.loads(output)
        assert data["top_k"] == 2
        assert all(
            len(c["top"]) <= 2
            for t in data["tables"]
            for c in t["columns"]
        )

    def test_analyze_bad_engine_exits_two(self):
        # ANALYZE has one counting path, so --engine is an unknown flag.
        code, output = run_cli("analyze", "tc:6", "--engine", "naive")
        assert code == 2
        assert "--engine" in output

    def test_analyze_non_program_example_exits_two(self):
        code, output = run_cli("analyze", "olap")
        assert code == 2
        assert "error" in output


class TestStatsAudit:
    def test_audit_report_covers_dispatched_ops(self, tmp_path):
        import json

        out = tmp_path / "qerror.json"
        code, output = run_cli(
            "stats-audit", "--seeds", "12", "--out", str(out)
        )
        assert code == 0
        assert "coverage: complete" in output
        assert "overall q-error" in output
        report = json.loads(out.read_text())
        assert report["coverage"]["complete"] is True
        assert report["overall"]["estimates"] > 0
        assert report["ops"]

    def test_audit_json_mode(self):
        import json

        code, output = run_cli("stats-audit", "--seeds", "2", "--tc", "4", "--json")
        data = json.loads(output)
        assert data["version"] == 1
        assert data["corpus"]["fuzz_seeds"] == 2
        assert code == (0 if data["coverage"]["complete"] else 1)

    def test_audit_bad_seeds_exits_two(self):
        code, output = run_cli("stats-audit", "--seeds", "many")
        assert code == 2
        assert "invalid --seeds" in output

    def test_audit_bad_engine_exits_two(self):
        code, output = run_cli("stats-audit", "--engine", "naive")
        assert code == 2
        assert "--engine" in output


class TestStatsFlags:
    def test_trace_analyze_with_stats_shows_source(self, tmp_path):
        stats_path = tmp_path / "stats.json"
        code, _output = run_cli("analyze", "fig4-group", "--out", str(stats_path))
        assert code == 0
        code, output = run_cli(
            "trace", "fig4-group", "--analyze", "--stats", str(stats_path)
        )
        assert code == 0
        assert "est_rows=9 (stats)" in output
        assert "| Src" in output  # the attribution column appears

    def test_trace_without_stats_has_no_source_column(self):
        code, output = run_cli("trace", "fig4-group", "--analyze")
        assert code == 0
        assert "| Src" not in output

    def test_trace_bad_stats_path_exits_two(self, tmp_path):
        code, output = run_cli(
            "trace", "fig4-group", "--stats", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "error:" in output

    def test_run_with_stats_emits_op_estimates(self, tmp_path):
        import json

        stats_path = tmp_path / "stats.json"
        code, _output = run_cli("analyze", "tc:6", "--out", str(stats_path))
        assert code == 0
        events_path = tmp_path / "events.jsonl"
        code, _output = run_cli(
            "run", "tc:6",
            "--stats", str(stats_path),
            "--events", str(events_path),
        )
        assert code == 0
        kinds = [
            json.loads(line)["kind"]
            for line in events_path.read_text().splitlines()
        ]
        assert "op_estimate" in kinds

    def test_run_bad_stats_path_exits_two(self, tmp_path):
        code, output = run_cli(
            "run", "tc:6", "--stats", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "error:" in output


class TestPromLint:
    def test_clean_payload_exits_zero(self, tmp_path):
        path = tmp_path / "metrics.prom"
        path.write_text("# TYPE x counter\nx 1\n")
        code, output = run_cli("prom-lint", str(path))
        assert code == 0
        assert "ok: 1 sample(s)" in output

    def test_broken_payload_exits_one(self, tmp_path):
        path = tmp_path / "metrics.prom"
        path.write_text("orphan_sample 5\n")
        code, output = run_cli("prom-lint", str(path))
        assert code == 1
        assert "prom-lint:" in output and "no TYPE declaration" in output

    def test_unreadable_file_exits_two(self, tmp_path):
        code, output = run_cli("prom-lint", str(tmp_path / "missing.prom"))
        assert code == 2
        assert "cannot read" in output


class TestEngineReport:
    def test_default_corpus_fully_attributed(self):
        code, output = run_cli("engine-report")
        assert code == 0
        assert "ENGINE REPORT" in output
        assert "corpus:" in output and "tc:8" in output
        assert "(100%)" in output

    def test_json_report(self):
        import json

        code, output = run_cli("engine-report", "schemasql", "tc:6", "--json")
        assert code == 0
        data = json.loads(output)
        assert data["coverage"] == 1.0
        assert data["attributed"] == data["fallbacks"]
        assert data["corpus"] == ["schemasql", "tc:6"]
        assert data["kernel_calls"] > 0
        assert data["ops"]["SELECT"]["kernel"] > 0
        assert data["ops"]["SELECTCONST"]["kernel"] > 0

    def test_reports_the_planned_program(self):
        import json

        # The report must show what a vector run executes: the planner
        # fuses each PRODUCT/SELECT pair, so neither op is dispatched
        # alone, and the fused op, which has no kernel, runs naive.
        code, output = run_cli("engine-report", "tc:6", "--json")
        assert code == 0
        ops = json.loads(output)["ops"]
        fused = ops["PRODUCTSELECT"]
        assert fused["kernel"] == 0 and fused["fallback"] > 0
        assert fused["reasons"] == {"no_kernel": fused["fallback"]}
        assert "PRODUCT" not in ops and "SELECT" not in ops

    def test_explicit_example_spec(self):
        code, output = run_cli("engine-report", "fig4-group")
        assert code == 0
        assert "no_kernel" in output  # GROUP has no vector kernel

    def test_non_program_example_rejected(self):
        code, output = run_cli("engine-report", "olap")
        assert code == 2
        assert "cannot report" in output


class TestChaos:
    def test_chaos_single_example_matrix(self):
        code, output = run_cli("chaos", "fig4-group", "--seed", "3")
        assert code == 0
        assert "GROUP" in output
        assert "raise" in output and "delay" in output and "corrupt" in output
        assert "injection points surfaced as typed errors" in output
        assert "seed=3" in output
        assert "FAIL" not in output

    def test_chaos_kind_filter_and_json(self):
        import json

        code, output = run_cli("chaos", "fig4-group", "--kinds", "raise", "--json")
        assert code == 0
        data = json.loads(output)
        assert data["ok"] is True
        assert all(p["kind"] == "raise" for p in data["points"])
        assert all(p["typed"] and p["atomic"] for p in data["points"])

    def test_chaos_unknown_kind(self):
        code, output = run_cli("chaos", "--kinds", "meteor")
        assert code == 2
        assert "unknown fault kind" in output

    def test_chaos_unknown_example(self):
        code, output = run_cli("chaos", "not-an-example")
        assert code == 2


class TestLedgerCommands:
    """``run --ledger`` + ``history``/``replay``/``sentinel`` end to end."""

    def _ledgered_run(self, tmp_path, *extra):
        led = str(tmp_path / "led")
        code, output = run_cli("run", "tc:4", "--ledger", led, "--json", *extra)
        import json

        return code, json.loads(output), led

    def test_run_records_and_history_lists(self, tmp_path):
        code, summary, led = self._ledgered_run(tmp_path)
        assert code == 0
        assert summary["run_id"].startswith("r-")
        assert summary["ledger"] == led
        code, output = run_cli("history", "--ledger", led)
        assert code == 0
        assert summary["run_id"] in output
        assert "ok" in output

    def test_history_inspects_one_manifest(self, tmp_path):
        import json

        _code, summary, led = self._ledgered_run(tmp_path)
        code, output = run_cli("history", summary["run_id"], "--ledger", led)
        assert code == 0
        manifest = json.loads(output)
        assert manifest["run_id"] == summary["run_id"]
        assert manifest["workload"]["replayable"] is True
        assert manifest["result"]["sha256"]

    def test_history_aggregates(self, tmp_path):
        _code, _summary, led = self._ledgered_run(tmp_path)
        self._ledgered_run(tmp_path)
        code, output = run_cli("history", "--ledger", led, "--aggregates")
        assert code == 0
        assert "2 run(s)" in output

    def test_killed_run_recorded_with_outcome(self, tmp_path):
        led = str(tmp_path / "led")
        checkpoint = str(tmp_path / "run.ckpt")
        code, _output = run_cli(
            "run", "tc:8", "--ledger", led, "--deadline", "1",
            "--checkpoint", checkpoint,
        )
        assert code == 1
        code, output = run_cli("history", "--ledger", led, "--outcome", "killed")
        assert code == 0
        assert "killed" in output

    def test_replay_clean_run_exits_zero(self, tmp_path):
        _code, summary, led = self._ledgered_run(tmp_path)
        code, output = run_cli("replay", summary["run_id"], "--ledger", led)
        assert code == 0
        assert "identical" in output

    def test_replay_divergence_exits_nonzero(self, tmp_path):
        """The CI golden: an injected fault must flip the exit status."""
        _code, summary, led = self._ledgered_run(tmp_path)
        code, output = run_cli(
            "replay", summary["run_id"], "--ledger", led, "--inject-fault", "7",
        )
        assert code == 1
        assert "DIVERGED" in output
        assert "replay_error" in output

    def test_replay_missing_ledger_exits_three(self, tmp_path):
        code, output = run_cli(
            "replay", "r-nope", "--ledger", str(tmp_path / "void")
        )
        assert code == 3
        assert "no ledger at" in output

    def test_replay_unknown_run_exits_three(self, tmp_path):
        _code, _summary, led = self._ledgered_run(tmp_path)
        code, output = run_cli("replay", "r-nope", "--ledger", led)
        assert code == 3
        assert "no run" in output

    def test_replay_without_target_is_usage_error(self):
        code, output = run_cli("replay")
        assert code == 2
        assert "usage" in output

    def test_replay_accepts_a_flight_bundle(self, tmp_path):
        import json
        from pathlib import Path

        led = str(tmp_path / "led")
        flight = tmp_path / "flight"
        checkpoint = str(tmp_path / "bundle.ckpt")
        code, _output = run_cli(
            "run", "tc:8", "--ledger", led, "--flight-dir", str(flight),
            "--deadline", "1", "--checkpoint", checkpoint,
        )
        assert code == 1
        (bundle,) = flight.glob("postmortem-*")
        manifest = json.loads((bundle / "MANIFEST.json").read_text())
        assert manifest["run"]["ledger"] == led
        # A killed run has no result digest: the bundle resolves to its
        # run id, which then reports non-replayable (exit 3), proving
        # the pointer was followed.
        code, output = run_cli("replay", str(bundle))
        assert code == 3
        assert manifest["run"]["id"] in output

    def test_sentinel_without_history_exits_three(self, tmp_path):
        _code, _summary, led = self._ledgered_run(tmp_path)
        code, output = run_cli("sentinel", "--ledger", led)
        assert code == 3
        assert "0 judged" in output

    def test_sentinel_clean_and_drifted(self, tmp_path):
        import json

        from repro.obs.ledger import RunLedger, new_run_id

        led = tmp_path / "led"
        ledger = RunLedger(led)
        for elapsed in (10.0, 10.0, 10.0, 10.0, 11.0, 10.0):
            ledger.record({
                "run_id": new_run_id(),
                "workload": {"label": "tc:6"},
                "program": {"fingerprint": "a" * 16},
                "outcome": {"status": "ok"},
                "elapsed_ms": elapsed,
                "spans": {}, "estimates": {}, "fallbacks": {}, "events": {},
            })
        code, output = run_cli("sentinel", "--ledger", str(led), "--window", "3")
        assert code == 0
        assert "no drift detected" in output
        for _ in range(3):
            ledger.record({
                "run_id": new_run_id(),
                "workload": {"label": "tc:6"},
                "program": {"fingerprint": "a" * 16},
                "outcome": {"status": "ok"},
                "elapsed_ms": 60.0,
                "spans": {}, "estimates": {}, "fallbacks": {}, "events": {},
            })
        code, output = run_cli(
            "sentinel", "--ledger", str(led), "--window", "3", "--json"
        )
        assert code == 4
        data = json.loads(output)
        assert data["ok"] is False
        assert data["findings"]

    def test_trace_ledger_records_non_replayable_run(self, tmp_path):
        import json

        led = str(tmp_path / "led")
        code, output = run_cli("trace", "fig4-group", "--ledger", led)
        assert code == 0
        assert "recorded in ledger" in output
        code, output = run_cli("history", "--ledger", led, "--json")
        assert code == 0
        (row,) = json.loads(output)
        assert row["workload"] == "fig4-group"
        run_id = row["run_id"]
        code, output = run_cli("replay", run_id, "--ledger", led)
        assert code == 3
        assert "without a replayable" in output

    def test_metrics_surfaces_event_counters(self):
        import json

        code, output = run_cli("metrics")
        assert code == 0
        events = json.loads(output)["events"]
        assert events["published"] > 0
        assert events["rings"] == 1
        assert events["received"] > 0

    def test_prom_export_carries_event_families(self):
        code, output = run_cli("metrics", "--prom")
        assert code == 0
        assert "repro_events_published_total" in output
        assert "repro_events_ring_dropped_total" in output
        from repro.obs import lint_prometheus_text

        assert lint_prometheus_text(output) == []


class TestOptimizeCommand:
    """``repro optimize``: golden plans, the stats-driven order pair."""

    def _json(self, *args):
        import json

        code, output = run_cli("optimize", *args, "--json")
        assert code == 0, output
        return json.loads(output)

    def test_golden_plan_chain_with_stats(self):
        report = self._json("chain:3", "--analyze")
        assert report["workload"] == "chain:3"
        assert [r["rule"] for r in report["applied"]] == [
            "fuse-product-select",
            "join-reorder",
        ]
        (decision,) = report["decisions"]
        assert decision["outcome"] == "reordered"
        assert decision["order_names"] == ["A", "D", "B", "C"]
        assert decision["cost_chosen"] < decision["cost_syntactic"]
        (after,) = report["after"]
        assert after.startswith("T <- CHAINJOIN order [A, D, B, C]")
        assert len(report["before"]) == 5

    def test_golden_pair_stats_absence_changes_the_order(self):
        # The estimator is load-bearing: the same program with no stats
        # keeps the syntactic order and never builds a CHAINJOIN.
        report = self._json("chain:3")
        assert report["stats"] is None
        (decision,) = report["decisions"]
        assert decision["outcome"] == "stats-missing"
        assert decision["order"] == [0, 1, 2, 3]
        assert [r["rule"] for r in report["applied"]] == ["fuse-product-select"]
        assert not any("CHAINJOIN" in line for line in report["after"])

    def test_golden_plan_tc_workload(self):
        report = self._json("tc:6", "--analyze")
        assert report["workload"] == "tc:6"
        rules = [r["rule"] for r in report["applied"]]
        assert "fuse-product-select" in rules and "cse" in rules
        assert report["before"] and report["after"]

    def test_golden_plan_figure_example_is_already_optimal(self):
        report = self._json("fig4-group", "--analyze")
        assert report["workload"] == "fig4-group"
        assert report["applied"] == []
        assert report["before"] == report["after"]

    def test_verify_confirms_identical_database(self):
        code, output = run_cli("optimize", "chain:4", "--analyze", "--verify")
        assert code == 0
        assert "identical" in output

    def test_explain_shows_chainjoin_span_with_order(self):
        code, output = run_cli("optimize", "chain:3", "--analyze", "--explain")
        assert code == 0
        assert "CHAINJOIN" in output
        assert "order=['A', 'D', 'B', 'C']" in output
        assert "rules=['join-reorder']" in output

    def test_rules_flag_restricts_the_set(self):
        report = self._json("chain:3", "--analyze", "--rules", "cse")
        assert report["rules"] == ["cse"]
        assert report["applied"] == []

    def test_unknown_rule_exits_two(self):
        code, output = run_cli("optimize", "chain:3", "--rules", "warp-speed")
        assert code == 2
        assert "warp-speed" in output

    def test_non_program_example_exits_two(self):
        code, output = run_cli("optimize", "olap")
        assert code == 2
        assert "error" in output

    def test_stats_file_round_trip(self, tmp_path):
        stats_path = tmp_path / "chain-stats.json"
        code, _ = run_cli("analyze", "chain:3", "--out", str(stats_path))
        assert code == 0
        report = self._json("chain:3", "--stats", str(stats_path))
        (decision,) = report["decisions"]
        assert decision["outcome"] == "reordered"

    def test_metrics_optimizer_families(self):
        code, output = run_cli("metrics", "--optimizer", "--prom")
        assert code == 0
        assert 'repro_optimizer_plan_cache_total{result="hit"} 1' in output
        assert 'repro_optimizer_ordering_total{outcome="reordered"}' in output
        assert 'repro_optimizer_ordering_total{outcome="stats-missing"}' in output
        from repro.obs import lint_prometheus_text

        assert lint_prometheus_text(output) == []

    def test_run_optimize_flag_verifies(self, tmp_path):
        stats_path = tmp_path / "stats.json"
        code, _ = run_cli("analyze", "chain:4", "--out", str(stats_path))
        assert code == 0
        code, output = run_cli(
            "run", "chain:4", "--stats", str(stats_path), "--optimize", "--verify"
        )
        assert code == 0
        assert "identical" in output

    def test_optimized_ledgered_run_replays_identically(self, tmp_path):
        # The manifest records the rules + stats snapshot the plan was
        # chosen from, so replay re-derives the same rewritten plan
        # instead of diverging on the program fingerprint.
        import json as _json

        stats_path = tmp_path / "stats.json"
        code, _ = run_cli("analyze", "chain:4", "--out", str(stats_path))
        assert code == 0
        ledger = str(tmp_path / "ledger")
        code, output = run_cli(
            "run", "chain:4", "--stats", str(stats_path), "--optimize",
            "--ledger", ledger, "--json",
        )
        assert code == 0
        run_id = _json.loads(output)["run_id"]
        code, output = run_cli("replay", run_id, "--ledger", ledger)
        assert code == 0
        assert "identical" in output


class TestSupervisorCommands:
    """``run --retry``, ``supervise``, ``recover``, ``chaos --supervisor``."""

    FAULT = '{"seed": 0, "rules": [{"op": "DIFFERENCE", "kind": "raise"}]}'

    def test_run_retry_requires_a_checkpoint(self, tmp_path):
        for n in ("0", "2"):
            code, output = run_cli("run", "tc:4", "--retry", n)
            assert code == 2
            assert "--retry requires --checkpoint" in output

    def test_run_negative_retry_is_a_usage_error(self, tmp_path):
        code, output = run_cli(
            "run", "tc:4", "--retry", "-1",
            "--checkpoint", str(tmp_path / "ck.json"),
        )
        assert code == 2

    def test_run_retry_converges_past_a_deadline(self, tmp_path):
        """The acceptance scenario: tc:10 under a 50ms deadline converges
        through supervised resume attempts to the verified database."""
        import json

        code, output = run_cli(
            "run", "tc:10", "--deadline", "50",
            "--checkpoint", str(tmp_path / "ck.json"),
            "--retry", "200", "--verify", "--json",
        )
        assert code == 0
        summary = json.loads(output)
        block = summary["supervisor"]
        assert block["outcome"] == "ok"
        assert len(block["attempts"]) > 1
        assert summary["identical_to_ungoverned_run"] is True

    def test_supervise_retries_an_injected_fault(self, tmp_path):
        import json

        code, output = run_cli(
            "supervise", "tc:6", "--faults", self.FAULT,
            "--retry", "2", "--backoff", "0", "--json",
        )
        assert code == 0
        history = json.loads(output)
        assert history["outcome"] == "ok"
        assert [a["decision"] for a in history["attempts"]] == ["retry", None]

    def test_supervise_text_output_names_each_attempt(self):
        code, output = run_cli(
            "supervise", "tc:6", "--faults", self.FAULT,
            "--retry", "2", "--backoff", "0", "--verify",
        )
        assert code == 0
        assert "ok after 2 attempt(s)" in output
        assert "attempt 1" in output and "FaultInjectedError" in output
        assert "verify: identical to ungoverned run" in output

    def test_supervise_exhaustion_exits_one(self):
        code, output = run_cli(
            "supervise", "tc:6", "--faults", self.FAULT, "--retry", "0",
        )
        assert code == 1
        assert "terminal error" in output

    def test_supervise_bad_faults_payload_exits_two(self):
        code, output = run_cli("supervise", "tc:4", "--faults", "not json")
        assert code == 2
        assert "invalid --faults" in output

    def test_supervise_negative_retry_exits_two(self):
        code, output = run_cli("supervise", "tc:4", "--retry", "-3")
        assert code == 2

    def test_supervise_bad_engine_exits_two(self):
        code, output = run_cli("supervise", "tc:4", "--engine", "warp")
        assert code == 2

    def test_breaker_quarantine_survives_processes_via_ledger(self, tmp_path):
        """Two failing supervised runs against the same ledger trip the
        breaker; the third (clean) submission is refused typed."""
        led = str(tmp_path / "led")
        poison = (
            '{"seed": 0, "rules": ['
            '{"op": "*", "kind": "raise", "occurrence": 1}]}'
        )
        for _ in range(2):
            code, _output = run_cli(
                "supervise", "tc:4", "--faults", poison, "--retry", "0",
                "--breaker-threshold", "2", "--ledger", led,
            )
            assert code == 1
        code, output = run_cli(
            "supervise", "tc:4", "--breaker-threshold", "2", "--ledger", led,
        )
        assert code == 1
        assert "quarantined" in output

    def test_recover_missing_ledger_exits_three(self, tmp_path):
        code, _output = run_cli(
            "recover", "--ledger", str(tmp_path / "nope")
        )
        assert code == 3

    def test_recover_resumes_a_crashed_run(self, tmp_path):
        """A ``run_start`` with a live checkpoint and no closing record —
        the crashed-process shape — is resumed to completion."""
        import pytest as _pytest

        from repro.core.errors import BudgetExceededError
        from repro.obs.ledger import RunLedger, new_run_id
        from repro.runtime import Limits, run_hardened
        from repro.runtime.workloads import transitive_closure_workload

        program, db = transitive_closure_workload(10)
        led = tmp_path / "led"
        checkpoint = tmp_path / "crash.json"
        with _pytest.raises(BudgetExceededError):
            run_hardened(
                program, db, limits=Limits(deadline_s=0.05),
                checkpoint_path=checkpoint,
            )
        run_id = new_run_id()
        RunLedger(led).record_start(
            {
                "run_id": run_id, "ts": 1.0, "workload": "tc:10",
                "spec": "tc:10", "engine": "naive", "fingerprint": "f" * 16,
                "checkpoint": str(checkpoint), "limits": None,
            }
        )
        code, output = run_cli(
            "recover", "--ledger", str(led), "--retry", "300", "--verify"
        )
        assert code == 0
        assert "1 resumed" in output
        assert run_id in output
        code, output = run_cli("recover", "--ledger", str(led))
        assert code == 0
        assert "0 open run(s)" in output

    def test_chaos_supervisor_matrix_is_green(self):
        import json

        code, output = run_cli("chaos", "--supervisor", "--json")
        assert code == 0
        report = json.loads(output)
        assert report["ok"] is True
        decisions = {p["cell"]: p["observed"] for p in report["points"]}
        assert decisions["poison/breaker/naive"] == "quarantined"


class TestUsageErrors:
    """Every command line is checked against its command's flag table."""

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unknown_flag_exits_two(self, command):
        code, output = run_cli(command, "--bogus")
        assert code == 2
        assert f"error: unknown flag '--bogus' for {command}" in output

    @pytest.mark.parametrize("flag", ["--deadline", "--engine", "--checkpoint"])
    def test_flag_without_its_value_exits_two(self, flag):
        # A known flag is not a value; the flag is then tried last.
        code, output = run_cli("run", "tc:4", flag, "--resume")
        assert code == 2
        assert f"error: {flag} needs a value" in output
        code, output = run_cli("run", "tc:4", flag)
        assert code == 2
        assert f"error: {flag} needs a value" in output

    def test_extra_positional_exits_two(self):
        code, output = run_cli("run", "tc:4", "tc:5")
        assert code == 2
        assert "error: unexpected argument 'tc:5' for run" in output

    def test_repeated_flag_exits_two(self):
        code, output = run_cli("run", "tc:4", "--deadline", "50", "--deadline", "60")
        assert code == 2
        assert "error: --deadline given more than once" in output

    def test_chaos_non_program_example_exits_two(self):
        code, output = run_cli("chaos", "olap")
        assert code == 2
        assert "error: example 'olap' is not chaos-capable" in output

    def test_zero_breaker_threshold_exits_two(self):
        code, output = run_cli("supervise", "tc:4", "--breaker-threshold", "0")
        assert code == 2
        assert "error: failure_threshold must be >= 1, got 0" in output


class TestClosedPipe:
    def test_reader_closing_early_ends_quietly(self):
        # 235 KB of JSON overfills the pipe, so the rest of the output is
        # written after the reader has gone, every time.
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "schemalog", "--json"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert stderr == b""


class TestPositionalEqualToAFlagValue:
    """A positional that repeats a flag's value is still the positional."""

    def test_run_checkpoint_named_like_the_workload(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, output = run_cli("run", "--checkpoint", "tc:4", "tc:4")
        assert code == 0
        assert output.startswith("tc:4: finished after 1 attempt(s)")
        assert (tmp_path / "tc:4").exists()

    def test_analyze_out_named_like_the_workload(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, output = run_cli("analyze", "--out", "tc:4", "tc:4")
        assert code == 0
        assert output.startswith("ANALYZE of tc:4 ")
        assert (tmp_path / "tc:4").exists()


class TestRunResumeErrors:
    """An unusable checkpoint is missing input: exit 3, no traceback."""

    def test_absent_checkpoint_exits_three(self, tmp_path):
        absent = tmp_path / "absent.json"
        code, output = run_cli("run", "tc:4", "--resume", "--checkpoint", str(absent))
        assert code == 3
        assert output.startswith(f"error: cannot read checkpoint {absent}")

    def test_foreign_checkpoint_exits_three(self, tmp_path):
        checkpoint = str(tmp_path / "ck.json")
        code, _output = run_cli(
            "run", "tc:6", "--checkpoint", checkpoint, "--max-rows", "20"
        )
        assert code == 1
        code, output = run_cli("run", "chain:3", "--resume", "--checkpoint", checkpoint)
        assert code == 3
        assert output.startswith("error: ")
        assert "taken from a different program" in output
