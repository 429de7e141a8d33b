"""Prometheus text-format export of the :class:`MetricsRegistry`.

:func:`prometheus_text` renders one metrics snapshot as the Prometheus
text exposition format (version 0.0.4 — the ``# HELP``/``# TYPE`` +
sample-lines format every Prometheus scraper and ``promtool`` accept):

* per-op **counters** — calls, errors, rows in/out — labelled by op;
* per-op **histograms** — wall-clock seconds per call over the fixed
  buckets of :data:`~repro.obs.metrics.HIST_BUCKETS_S`, with the
  cumulative ``_bucket``/``_sum``/``_count`` series Prometheus expects;
* the interpreter's free **counters** (statements, while iterations,
  faults injected, …) labelled by counter name.

``python -m repro metrics --prom`` runs the bundled pipelines under an
observation scope and prints this — point a scrape config at a tiny
HTTP wrapper around it (the planned query service exposes exactly this
text on ``/metrics``) and the engine shows up in Grafana.

:func:`lint_prometheus_text` is the matching format checker: a small,
dependency-free validator (CI runs it as ``python -m repro prom-lint``)
that catches the mistakes scrapers reject — bad metric/label names,
``TYPE``-less samples, non-cumulative or ``+Inf``-less histograms.
"""

from __future__ import annotations

import re

from .metrics import HIST_BUCKETS_S, MetricsRegistry

__all__ = ["prometheus_text", "lint_prometheus_text"]

#: Prometheus metric- and label-name grammars (the scrape-time rules).
_METRIC_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    """A float rendered without exponent noise; integers stay integral."""
    if float(value) == int(value):
        return str(int(value))
    return repr(round(float(value), 9))


class _Writer:
    def __init__(self, namespace: str):
        self.namespace = namespace
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> str:
        full = f"{self.namespace}_{name}"
        self.lines.append(f"# HELP {full} {help_text}")
        self.lines.append(f"# TYPE {full} {kind}")
        return full

    def sample(self, name: str, labels: dict, value: float) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape(str(val))}"' for key, val in labels.items()
            )
            self.lines.append(f"{name}{{{rendered}}} {_fmt(value)}")
        else:
            self.lines.append(f"{name} {_fmt(value)}")


def prometheus_text(
    metrics: MetricsRegistry,
    namespace: str = "repro",
    accuracy=None,
    stats=None,
    bus=None,
    supervisor=None,
    optimizer=None,
) -> str:
    """One snapshot as the Prometheus text exposition format.

    ``accuracy`` (an :class:`~repro.obs.estimator.EstimateAccuracy`)
    adds the estimator families — per-op q-error histograms over the
    fixed :data:`~repro.obs.estimator.QERROR_BUCKETS` and the worst
    q-error gauge; ``stats`` (a :class:`~repro.obs.stats.DatabaseStats`)
    adds the stale-stats age and snapshot-size gauges; ``bus`` (an
    :class:`~repro.obs.events.EventBus`) adds the event-feed counters —
    published events, ring receive/drop totals (dropped > 0 means a
    bounded subscriber silently lost telemetry), and callback errors;
    ``supervisor`` (a :class:`~repro.runtime.supervisor.Supervisor`)
    adds the fault-tolerance families — retry decision/backoff/exhaustion
    counters, circuit-breaker transition counters and per-fingerprint
    open gauges, and crash-recovery outcome counters; ``optimizer`` (an
    :class:`~repro.engine.optimizer.OptimizerStats`) adds the
    plan-optimizer families — plan-cache hit/miss counters, applied
    rewrites by rule, and join-ordering outcomes.
    All are opt-in so the plain metrics export is unchanged.
    """
    operations = metrics.operations
    counters = metrics.counters
    out = _Writer(namespace)

    per_op_counters = (
        ("op_calls_total", "calls", "Operation invocations."),
        ("op_errors_total", "errors", "Operation invocations that raised."),
        ("op_rows_in_total", "rows_in", "Data rows consumed by the operation."),
        ("op_rows_out_total", "rows_out", "Data rows produced by the operation."),
    )
    for family, attribute, help_text in per_op_counters:
        name = out.family(family, "counter", help_text)
        for op in sorted(operations):
            out.sample(name, {"op": op}, getattr(operations[op], attribute))

    name = out.family(
        "op_duration_seconds",
        "histogram",
        "Per-call wall-clock time of the operation.",
    )
    for op in sorted(operations):
        record = operations[op]
        cumulative = 0
        for bound, count in zip(HIST_BUCKETS_S, record.hist):
            cumulative += count
            out.sample(
                f"{name}_bucket", {"op": op, "le": _fmt(bound)}, cumulative
            )
        cumulative += record.hist[-1]
        out.sample(f"{name}_bucket", {"op": op, "le": "+Inf"}, cumulative)
        out.sample(f"{name}_sum", {"op": op}, round(record.wall_time, 9))
        out.sample(f"{name}_count", {"op": op}, record.calls)

    name = out.family(
        "events_total",
        "counter",
        "Interpreter event counters (statements, while iterations, ...).",
    )
    for counter in sorted(counters):
        out.sample(name, {"counter": counter}, counters[counter])

    if accuracy is not None and accuracy.ops:
        from .estimator import QERROR_BUCKETS

        name = out.family(
            "estimator_qerror",
            "histogram",
            "Cardinality-estimate q-error (max(est/act, act/est)) per op.",
        )
        for op in sorted(accuracy.ops):
            record = accuracy.ops[op]
            cumulative = 0
            for bound, count in zip(QERROR_BUCKETS, record.hist):
                cumulative += count
                out.sample(
                    f"{name}_bucket", {"op": op, "le": _fmt(bound)}, cumulative
                )
            cumulative += record.hist[-1]
            out.sample(f"{name}_bucket", {"op": op, "le": "+Inf"}, cumulative)
            out.sample(f"{name}_sum", {"op": op}, round(record.sum, 9))
            out.sample(f"{name}_count", {"op": op}, record.count)
        name = out.family(
            "estimator_worst_qerror",
            "gauge",
            "Worst q-error observed for the op since the scope opened.",
        )
        for op in sorted(accuracy.ops):
            out.sample(name, {"op": op}, round(accuracy.ops[op].max, 9))
        name = out.family(
            "estimator_estimates_total",
            "counter",
            "Cardinality estimates scored, by source (stats vs shape).",
        )
        totals: dict[str, int] = {}
        for record in accuracy.ops.values():
            for source, count in record.sources.items():
                totals[source] = totals.get(source, 0) + count
        for source in sorted(totals):
            out.sample(name, {"source": source}, totals[source])

    if bus is not None:
        totals = bus.ring_totals()
        name = out.family(
            "events_published_total",
            "counter",
            "Events published to the bus since it opened.",
        )
        out.sample(name, {}, bus.published)
        name = out.family(
            "events_ring_received_total",
            "counter",
            "Events received across every ring subscriber.",
        )
        out.sample(name, {}, totals["received"])
        name = out.family(
            "events_ring_dropped_total",
            "counter",
            "Events dropped by full ring subscribers (silently truncated telemetry).",
        )
        out.sample(name, {}, totals["dropped"])
        name = out.family(
            "events_callback_errors_total",
            "counter",
            "Callback subscribers that raised (never fatal to the run).",
        )
        out.sample(name, {}, bus.callback_errors)

    if supervisor is not None:
        sup_stats = supervisor.stats
        name = out.family(
            "retry_attempts_total",
            "counter",
            "Supervised attempts that ended in a retryable decision.",
        )
        for decision in sorted(sup_stats.decisions):
            out.sample(name, {"decision": decision}, sup_stats.decisions[decision])
        name = out.family(
            "retry_backoff_seconds_total",
            "counter",
            "Total seconds the supervisor slept between attempts.",
        )
        out.sample(name, {}, round(sup_stats.backoff_s_total, 9))
        name = out.family(
            "retry_exhausted_total",
            "counter",
            "Runs that burned the whole retry budget and failed.",
        )
        out.sample(name, {}, sup_stats.exhausted)
        name = out.family(
            "retry_degraded_total",
            "counter",
            "Degradation-ladder firings (engine downgrade, obs shedding).",
        )
        for mode in sorted(sup_stats.degraded):
            out.sample(name, {"mode": mode}, sup_stats.degraded[mode])
        name = out.family(
            "breaker_transitions_total",
            "counter",
            "Circuit-breaker state transitions.",
        )
        for (from_state, to_state), count in sorted(
            supervisor.breaker.transitions.items()
        ):
            out.sample(
                name, {"from_state": from_state, "to_state": to_state}, count
            )
        name = out.family(
            "breaker_open",
            "gauge",
            "1 when the fingerprint's breaker is open (quarantining).",
        )
        for fingerprint, entry in sorted(supervisor.breaker.states().items()):
            out.sample(
                name,
                {"fingerprint": fingerprint},
                1 if entry["state"] == "open" else 0,
            )
        name = out.family(
            "breaker_quarantined_total",
            "counter",
            "Submissions refused admission by an open breaker.",
        )
        out.sample(name, {}, sup_stats.quarantined)
        name = out.family(
            "recovery_runs_total",
            "counter",
            "Crash-recovery outcomes (resumed, orphaned, failed).",
        )
        for outcome in sorted(sup_stats.recovery):
            out.sample(name, {"outcome": outcome}, sup_stats.recovery[outcome])

    if optimizer is not None:
        snapshot = optimizer.snapshot()
        name = out.family(
            "optimizer_plan_cache_total",
            "counter",
            "Plan-cache lookups by result (hit means planning was skipped).",
        )
        for result in sorted(snapshot["cache"]):
            out.sample(name, {"result": result}, snapshot["cache"][result])
        name = out.family(
            "optimizer_rewrites_total",
            "counter",
            "Rewrites applied, by rule (each rule is individually toggleable).",
        )
        for rule in sorted(snapshot["rewrites"]):
            out.sample(name, {"rule": rule}, snapshot["rewrites"][rule])
        name = out.family(
            "optimizer_ordering_total",
            "counter",
            "Join-ordering decisions by outcome (reordered = estimate-driven win).",
        )
        for outcome in sorted(snapshot["ordering"]):
            out.sample(name, {"outcome": outcome}, snapshot["ordering"][outcome])

    if stats is not None:
        name = out.family(
            "stats_age_seconds",
            "gauge",
            "Seconds since the installed ANALYZE snapshot was taken.",
        )
        out.sample(name, {}, round(stats.age_seconds(), 3))
        name = out.family(
            "stats_tables", "gauge", "Tables covered by the ANALYZE snapshot."
        )
        out.sample(name, {}, len(stats.tables))
        name = out.family(
            "stats_rows", "gauge", "Total data rows covered by the ANALYZE snapshot."
        )
        out.sample(name, {}, stats.total_rows)

    return "\n".join(out.lines) + "\n"


def lint_prometheus_text(text: str) -> list[str]:
    """Format problems in one exposition payload (empty = clean).

    Checks the rules scrapers actually enforce: metric and label name
    grammars, every sample preceded by a ``# TYPE`` for its family,
    parseable sample values, and — for histograms — bucket counts that
    are cumulative, monotone, and terminated by an ``+Inf`` bucket whose
    count equals ``_count``.
    """
    errors: list[str] = []
    typed: dict[str, str] = {}
    buckets: dict[tuple[str, tuple], list[tuple[float, float]]] = {}
    counts: dict[tuple[str, tuple], float] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                errors.append(f"line {lineno}: malformed TYPE line")
                continue
            if not _METRIC_RE.fullmatch(parts[2]):
                errors.append(f"line {lineno}: bad metric name {parts[2]!r}")
                continue
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            errors.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        labels: dict[str, str] = {}
        if match.group("labels"):
            for pair in _split_labels(match.group("labels")):
                pair_match = _LABEL_PAIR_RE.match(pair.strip())
                if pair_match is None or not _LABEL_RE.fullmatch(pair_match.group(1)):
                    errors.append(f"line {lineno}: bad label pair {pair!r}")
                    break
                labels[pair_match.group(1)] = pair_match.group(2)
        raw_value = match.group("value")
        try:
            value = float("inf") if raw_value == "+Inf" else float(raw_value)
        except ValueError:
            errors.append(f"line {lineno}: bad sample value {raw_value!r}")
            continue
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                family = name[: -len(suffix)]
                break
        if family not in typed:
            errors.append(f"line {lineno}: sample {name!r} has no TYPE declaration")
            continue
        if typed[family] == "histogram" and name.endswith("_bucket"):
            le = labels.get("le")
            if le is None:
                errors.append(f"line {lineno}: histogram bucket without le label")
                continue
            bound = float("inf") if le == "+Inf" else float(le)
            key = (family, tuple(sorted((k, v) for k, v in labels.items() if k != "le")))
            buckets.setdefault(key, []).append((bound, value))
        if typed[family] == "histogram" and name.endswith("_count"):
            key = (family, tuple(sorted(labels.items())))
            counts[key] = value

    for (family, labels), series in sorted(buckets.items()):
        ordered = sorted(series)
        if not ordered or ordered[-1][0] != float("inf"):
            errors.append(f"{family}{dict(labels)}: histogram missing +Inf bucket")
            continue
        values = [count for _bound, count in ordered]
        if any(b < a for a, b in zip(values, values[1:])):
            errors.append(f"{family}{dict(labels)}: bucket counts not cumulative")
        total = counts.get((family, labels))
        if total is not None and values[-1] != total:
            errors.append(
                f"{family}{dict(labels)}: +Inf bucket {values[-1]} != _count {total}"
            )
    return errors


def _split_labels(body: str) -> list[str]:
    """Split a label body on commas outside quoted values."""
    parts: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        parts.append("".join(current))
    return [part for part in parts if part.strip()]
