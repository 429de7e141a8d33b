"""Observability: execution tracing, metrics, and EXPLAIN reports.

The engine is instrumented at every layer — the algebra operation
registry, the program interpreter, the FO+while+new interpreter, the
SchemaLog/SchemaSQL/GOOD compilers, the OLAP/n-dim bridges and the
governor — and every layer publishes on one event feed, which is a
strict no-op until an :func:`event_stream` or :func:`observation` scope
switches it on (one ``EVT.active`` check guards every hot path).  The
op events and the structural boundary events are the one record of a
run: an observation builds its span trees from them and its metrics
from the spans, and a ring that retained them rebuilds the same trees.

Typical use::

    from repro.obs import observation

    with observation() as obs:
        result = program.run(db)

    print(obs.explain())            # span tree + per-op metrics tables
    data = obs.to_json()            # the same report as plain data

The CLI exposes the same machinery: ``python -m repro trace <example>``
(``--analyze`` for estimated-vs-actual), ``python -m repro profile
<example>``, ``python -m repro stats``, ``python -m repro lineage`` for
cell-level why-provenance queries and the witness-replay audit, and
``python -m repro bench-compare`` for the benchmark trajectory.
"""

from .metrics import MetricsRegistry, OpMetrics
from .runtime import OBS, Observation, observation
from .trace import Span, Tracer
from .events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    EVT,
    Boundary,
    Event,
    EventBus,
    JsonlEventWriter,
    RingSubscriber,
    emit,
    event_stream,
)
from .flight import FlightRecorder, flight_recorder
from .progress import ProgressTicker
from .prom import lint_prometheus_text, prometheus_text
from .lineage import (
    AuditResult,
    CellRef,
    Lineage,
    ReplayCheck,
    Witness,
    audit_run,
    count_prov_cells,
    derived_from,
    graph_to_dot,
    lineage,
    provenance,
    provenance_graph,
    table_origins,
    with_prov,
)
from .explain import (
    counters_table,
    explain_json,
    explain_text,
    format_span,
    metrics_table,
    span_tree_text,
)
from .cost import (
    CostEstimate,
    CostModel,
    analyze_records,
    analyze_table,
    explain_analyze_text,
)
from .export import (
    chrome_trace,
    jsonl_records,
    write_chrome_trace,
    write_jsonl,
    write_provenance_dot,
    write_provenance_json,
)
from .profile import Hotspot, Profile, profile
# Statistics and estimation load after everything above: stats/estimator
# sit below cost/flight in the layering, and keeping them last preserves
# the package's import-cycle discipline (the registry imports this
# package while the algebra package is still initialising).
from .stats import (
    DEFAULT_TOP_K,
    STATS_SCHEMA_VERSION,
    ColumnStats,
    DatabaseStats,
    TableStats,
    analyze_database,
    analyze_table_stats,
    database_fingerprint,
    load_stats,
    validate_stats_data,
)
from .estimator import (
    EST,
    QERROR_BUCKETS,
    CardinalityEstimator,
    EstimateAccuracy,
    estimation,
    qerror,
)
from .workload import (
    fingerprint_program,
    normalize_program,
    stats_audit,
)
from .ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    RunRecorder,
    database_digest,
    new_run_id,
)
from .replay import (
    Divergence,
    ReplayReport,
    bundle_run_pointer,
    replay_from_ledger,
    replay_run,
    resolve_runnable,
)
from .sentinel import DriftFinding, SentinelReport, sentinel_report

__all__ = [
    "OBS",
    "EVT",
    "EST",
    "LEDGER_SCHEMA_VERSION",
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "DEFAULT_TOP_K",
    "QERROR_BUCKETS",
    "STATS_SCHEMA_VERSION",
    "AuditResult",
    "Boundary",
    "CardinalityEstimator",
    "CellRef",
    "ColumnStats",
    "CostEstimate",
    "CostModel",
    "DatabaseStats",
    "Divergence",
    "DriftFinding",
    "EstimateAccuracy",
    "Event",
    "EventBus",
    "FlightRecorder",
    "Hotspot",
    "JsonlEventWriter",
    "Lineage",
    "MetricsRegistry",
    "Observation",
    "OpMetrics",
    "Profile",
    "ProgressTicker",
    "ReplayCheck",
    "ReplayReport",
    "RingSubscriber",
    "RunLedger",
    "RunRecorder",
    "SentinelReport",
    "Span",
    "TableStats",
    "Tracer",
    "Witness",
    "analyze_database",
    "analyze_records",
    "analyze_table_stats",
    "analyze_table",
    "audit_run",
    "bundle_run_pointer",
    "chrome_trace",
    "count_prov_cells",
    "counters_table",
    "database_digest",
    "database_fingerprint",
    "derived_from",
    "emit",
    "estimation",
    "event_stream",
    "explain_analyze_text",
    "explain_json",
    "explain_text",
    "fingerprint_program",
    "flight_recorder",
    "format_span",
    "graph_to_dot",
    "jsonl_records",
    "lineage",
    "lint_prometheus_text",
    "load_stats",
    "metrics_table",
    "new_run_id",
    "normalize_program",
    "observation",
    "profile",
    "prometheus_text",
    "provenance",
    "provenance_graph",
    "qerror",
    "replay_from_ledger",
    "replay_run",
    "resolve_runnable",
    "sentinel_report",
    "stats_audit",
    "span_tree_text",
    "table_origins",
    "validate_stats_data",
    "with_prov",
    "write_chrome_trace",
    "write_jsonl",
    "write_provenance_dot",
    "write_provenance_json",
]
