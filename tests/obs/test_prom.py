"""Prometheus text export and its format linter."""

from repro.algebra.programs import parse_program
from repro.data import sales_info1
from repro.obs import lint_prometheus_text, observation, prometheus_text
from repro.obs.metrics import HIST_BUCKETS_S, MetricsRegistry

PIVOT = """
    Grouped <- GROUP by {Region} on {Sold} (Sales)
    Cleaned <- CLEANUP by {Part} on {null} (Grouped)
    Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
"""


def _observed_metrics():
    with observation() as obs:
        parse_program(PIVOT).run(sales_info1())
    return obs.metrics


class TestExporter:
    def test_counter_families_carry_op_labels(self):
        text = prometheus_text(_observed_metrics())
        assert "# TYPE repro_op_calls_total counter" in text
        assert 'repro_op_calls_total{op="GROUP"} 1' in text
        assert 'repro_op_rows_in_total{op="GROUP"}' in text
        assert 'repro_op_errors_total{op="GROUP"} 0' in text

    def test_histogram_is_cumulative_with_inf_terminator(self):
        text = prometheus_text(_observed_metrics())
        assert "# TYPE repro_op_duration_seconds histogram" in text
        group = [
            line
            for line in text.splitlines()
            if line.startswith("repro_op_duration_seconds_bucket")
            and 'op="GROUP"' in line
        ]
        # One bucket per fixed bound, plus +Inf.
        assert len(group) == len(HIST_BUCKETS_S) + 1
        assert 'le="+Inf"' in group[-1]
        values = [float(line.rsplit(" ", 1)[1]) for line in group]
        assert values == sorted(values)
        assert values[-1] == 1  # one GROUP call observed
        assert 'repro_op_duration_seconds_count{op="GROUP"} 1' in text

    def test_free_counters_exported(self):
        text = prometheus_text(_observed_metrics())
        assert "# TYPE repro_events_total counter" in text
        assert 'repro_events_total{counter="statements"} 3' in text

    def test_namespace_is_configurable(self):
        text = prometheus_text(MetricsRegistry(), namespace="acme")
        assert "# TYPE acme_op_calls_total counter" in text
        assert "repro_" not in text

    def test_label_values_are_escaped(self):
        metrics = MetricsRegistry()
        metrics.record_op('Odd"Op\\Name', seconds=0.001, rows_in=1, rows_out=1)
        text = prometheus_text(metrics)
        assert '{op="Odd\\"Op\\\\Name"}' in text
        assert lint_prometheus_text(text) == []

    def test_empty_registry_still_lints_clean(self):
        assert lint_prometheus_text(prometheus_text(MetricsRegistry())) == []

    def test_real_export_lints_clean(self):
        assert lint_prometheus_text(prometheus_text(_observed_metrics())) == []


class TestEstimatorFamilies:
    def _accuracy_and_stats(self):
        from repro.obs.estimator import EstimateAccuracy, estimation
        from repro.obs.stats import analyze_database

        accuracy = EstimateAccuracy()
        db = sales_info1()
        stats = analyze_database(db)
        with observation() as obs:
            with estimation(stats, accuracy=accuracy):
                parse_program(PIVOT).run(db)
        return obs.metrics, accuracy, stats

    def test_qerror_histogram_is_cumulative_per_op(self):
        metrics, accuracy, stats = self._accuracy_and_stats()
        text = prometheus_text(metrics, accuracy=accuracy, stats=stats)
        assert "# TYPE repro_estimator_qerror histogram" in text
        assert 'repro_estimator_qerror_bucket{op="GROUP",le="+Inf"} 1' in text
        assert 'repro_estimator_qerror_count{op="GROUP"} 1' in text
        assert "# TYPE repro_estimator_worst_qerror gauge" in text
        assert 'repro_estimator_estimates_total{source="stats"}' in text

    def test_stats_gauges_exported(self):
        metrics, accuracy, stats = self._accuracy_and_stats()
        text = prometheus_text(metrics, accuracy=accuracy, stats=stats)
        assert "# TYPE repro_stats_age_seconds gauge" in text
        assert "repro_stats_tables 1" in text
        assert "repro_stats_rows 8" in text

    def test_estimator_families_lint_clean(self):
        metrics, accuracy, stats = self._accuracy_and_stats()
        text = prometheus_text(metrics, accuracy=accuracy, stats=stats)
        assert lint_prometheus_text(text) == []

    def test_plain_export_unchanged_without_optins(self):
        metrics, _accuracy, _stats = self._accuracy_and_stats()
        text = prometheus_text(metrics)
        assert "estimator" not in text
        assert "stats_age" not in text


class TestLinter:
    def test_bad_metric_name(self):
        payload = "# TYPE 9bad counter\n9bad 1\n"
        errors = lint_prometheus_text(payload)
        assert any("bad metric name" in e for e in errors)

    def test_sample_without_type_declaration(self):
        errors = lint_prometheus_text("repro_undeclared_total 5\n")
        assert any("no TYPE declaration" in e for e in errors)

    def test_unparseable_sample_value(self):
        payload = "# TYPE x counter\nx notanumber\n"
        errors = lint_prometheus_text(payload)
        assert any("bad sample value" in e for e in errors)

    def test_bad_label_pair(self):
        payload = '# TYPE x counter\nx{9bad="v"} 1\n'
        errors = lint_prometheus_text(payload)
        assert any("bad label pair" in e for e in errors)

    def test_histogram_missing_inf_bucket(self):
        payload = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 2\n'
            "h_sum 0.05\n"
            "h_count 2\n"
        )
        errors = lint_prometheus_text(payload)
        assert any("missing +Inf" in e for e in errors)

    def test_histogram_not_cumulative(self):
        payload = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="0.5"} 2\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_count 5\n"
        )
        errors = lint_prometheus_text(payload)
        assert any("not cumulative" in e for e in errors)

    def test_histogram_inf_disagrees_with_count(self):
        payload = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 4\n'
            "h_count 7\n"
        )
        errors = lint_prometheus_text(payload)
        assert any("!= _count" in e for e in errors)

    def test_clean_hand_written_payload(self):
        payload = (
            "# HELP x Things.\n"
            "# TYPE x counter\n"
            'x{label="a,b"} 1\n'
            "\n"
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\n'
            'h_bucket{le="+Inf"} 2\n'
            "h_sum 0.3\n"
            "h_count 2\n"
        )
        assert lint_prometheus_text(payload) == []


class TestSupervisorFamilies:
    def _supervised(self):
        from repro.runtime import FaultPlan, FaultRule
        from repro.runtime.policy import BreakerPolicy, RetryPolicy
        from repro.runtime.supervisor import Supervisor
        from repro.runtime.workloads import transitive_closure_workload

        program, db = transitive_closure_workload(5)
        supervisor = Supervisor(
            RetryPolicy(max_attempts=2, base_backoff_s=0.001, jitter=0.0),
            breaker_policy=BreakerPolicy(failure_threshold=1, cooldown_s=3600.0),
            sleep=lambda s: None,
        )
        supervisor.submit(
            program, db, workload="tc:5",
            faults=FaultPlan([FaultRule(op="DIFFERENCE", kind="raise")]),
        )
        supervisor.submit(
            program, db, workload="tc:5",
            faults=FaultPlan(
                [FaultRule(op="*", kind="raise", occurrence=n) for n in (1, 2)]
            ),
        )
        return supervisor

    def test_retry_breaker_and_recovery_families(self):
        supervisor = self._supervised()
        text = prometheus_text(_observed_metrics(), supervisor=supervisor)
        assert "# TYPE repro_retry_attempts_total counter" in text
        # one retry from the one-shot fault run, one from the poison
        # run's first attempt (its second attempt exhausts the budget)
        assert 'repro_retry_attempts_total{decision="retry"} 2' in text
        assert "# TYPE repro_retry_backoff_seconds_total counter" in text
        assert "repro_retry_exhausted_total 1" in text
        assert "# TYPE repro_breaker_transitions_total counter" in text
        assert (
            'repro_breaker_transitions_total{from_state="closed",to_state="open"} 1'
            in text
        )
        assert "# TYPE repro_breaker_open gauge" in text
        fingerprint = supervisor.last_run.fingerprint
        assert f'repro_breaker_open{{fingerprint="{fingerprint}"}} 1' in text
        assert "# TYPE repro_recovery_runs_total counter" in text

    def test_supervisor_families_lint_clean(self):
        text = prometheus_text(_observed_metrics(), supervisor=self._supervised())
        assert lint_prometheus_text(text) == []

    def test_plain_export_has_no_supervisor_families(self):
        text = prometheus_text(_observed_metrics())
        assert "repro_retry_attempts_total" not in text
        assert "repro_breaker_open" not in text
