"""EXPLAIN-style reports: span trees as text, metrics as tables, JSON export.

The text report has two parts:

* the **span tree** — one line per span, box-drawn nesting, per-span wall
  time, and the row/column flow recorded by the instrumented operation
  registry (``rows 5→3  cols 3→7``);
* the **metrics tables** — per-operation aggregates and the interpreter
  counters, rendered with the same :func:`repro.core.render.render_table`
  renderer the figures use, so the report looks like the rest of the
  paper's output.

``timings=False`` drops every wall-clock figure, making the report
deterministic — that is what the golden-output tests compare against.
"""

from __future__ import annotations

from ..core import N, V, Table, make_table, render_table
from .metrics import MetricsRegistry
from .runtime import Observation
from .trace import Span

__all__ = [
    "format_span",
    "span_tree_text",
    "metrics_table",
    "counters_table",
    "explain_text",
    "explain_json",
]

#: Attributes rendered specially (not as generic ``key=value`` pairs).
#: ``shapes_in``/``shapes_out`` are the shape rules' per-table inputs and
#: merely restate the summed figures, so they are suppressed from the line.
_SHAPE_KEYS = (
    "rows_in",
    "rows_out",
    "cols_in",
    "cols_out",
    "tables_in",
    "tables_out",
    "shapes_in",
    "shapes_out",
)

#: Estimator-stamped attributes, rendered as one ``est_rows=N (source)``
#: token rather than generic pairs.
_EST_KEYS = ("est_rows", "est_source")


def format_span(span: Span, timings: bool = True) -> str:
    """One line describing a span: label, row/column flow, attributes, time."""
    attrs = span.attributes
    label = span.name
    if "text" in attrs:
        label += f": {attrs['text']}"
    parts = [label]
    if "tables_in" in attrs or "tables_out" in attrs:
        parts.append(f"tables {attrs.get('tables_in', '?')}→{attrs.get('tables_out', '?')}")
    if "rows_in" in attrs or "rows_out" in attrs:
        parts.append(f"rows {attrs.get('rows_in', '?')}→{attrs.get('rows_out', '?')}")
    if "cols_in" in attrs or "cols_out" in attrs:
        parts.append(f"cols {attrs.get('cols_in', '?')}→{attrs.get('cols_out', '?')}")
    if "est_rows" in attrs:
        # The estimation scope's prediction with its provenance:
        # ``est_rows=12 (stats)`` when derived from an ANALYZE snapshot.
        source = attrs.get("est_source")
        parts.append(
            f"est_rows={attrs['est_rows']}" + (f" ({source})" if source else "")
        )
    for key, value in attrs.items():
        if key == "text" or key in _SHAPE_KEYS or key in _EST_KEYS:
            continue
        parts.append(f"{key}={value}")
    if span.error is not None:
        parts.append(f"!{span.error}")
    if timings:
        parts.append(f"{span.duration * 1e3:.3f}ms")
    return "  ".join(parts)


def span_tree_text(span: Span, timings: bool = True) -> str:
    """The box-drawn tree of one root span."""
    lines = [format_span(span, timings)]

    def descend(node: Span, prefix: str) -> None:
        for index, child in enumerate(node.children):
            last = index == len(node.children) - 1
            branch = "└─ " if last else "├─ "
            lines.append(prefix + branch + format_span(child, timings))
            descend(child, prefix + ("   " if last else "│  "))

    descend(span, "")
    return "\n".join(lines)


def metrics_table(metrics: MetricsRegistry, timings: bool = True) -> Table | None:
    """Per-operation aggregates as a renderable table (None when empty)."""
    operations = metrics.operations
    if not operations:
        return None
    columns = ["Calls", "Errors", "Rows in", "Rows out", "Cols in", "Cols out"]
    if timings:
        columns.append("Time ms")
    names = sorted(operations)
    rows = []
    for name in names:
        record = operations[name]
        row = [
            record.calls,
            record.errors,
            record.rows_in,
            record.rows_out,
            record.cols_in,
            record.cols_out,
        ]
        if timings:
            row.append(V(round(record.wall_time * 1e3, 3)))
        rows.append(row)
    return make_table("OpMetrics", columns, rows, row_attrs=[N(n) for n in names])


def counters_table(metrics: MetricsRegistry) -> Table | None:
    """Interpreter counters as a renderable table (None when empty)."""
    counters = metrics.counters
    if not counters:
        return None
    names = sorted(counters)
    return make_table(
        "Counters",
        ["Value"],
        [[counters[n]] for n in names],
        row_attrs=[N(n) for n in names],
    )


def explain_text(obs: Observation, timings: bool = True) -> str:
    """The full EXPLAIN report of one observation."""
    blocks: list[str] = []
    for root in obs.spans:
        blocks.append(span_tree_text(root, timings))
    metrics = obs.metrics
    ops = metrics_table(metrics, timings)
    if ops is not None:
        blocks.append(render_table(ops, title="Operation metrics"))
    counters = counters_table(metrics)
    if counters is not None:
        blocks.append(render_table(counters, title="Counters"))
    if not blocks:
        return "(nothing observed)"
    return "\n\n".join(blocks)


def explain_json(obs: Observation) -> dict:
    """The report as JSON-serializable data (spans + metrics snapshot)."""
    return {
        "spans": [root.to_dict() for root in obs.spans],
        "metrics": obs.metrics.snapshot(),
    }
