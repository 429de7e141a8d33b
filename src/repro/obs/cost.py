"""The EXPLAIN ANALYZE report: estimated vs. actual per operation.

The instrumented registry stamps each operation span with its
per-table input shapes (``shapes_in``) and real output shape, and an
estimation scope (:func:`repro.obs.estimator.estimation`) stamps its
prediction (``est_rows``, ``est_source``).  :func:`analyze_records`
walks an :class:`~repro.obs.runtime.Observation` and pairs each
operation with the estimator's shape rules
(:func:`~repro.obs.estimator.shape_estimate`, also the source of
``est_rows`` where no scope stamped one) and what actually happened —
rows, tables and mis-estimation ratios, like a database engine's
``EXPLAIN ANALYZE``.

>>> from repro.obs import observation
>>> from repro.algebra.programs import parse_program
>>> from repro.data import sales_info2
>>> with observation() as obs:
...     _ = parse_program("Sales <- MERGE on {Sold} by {Region} (Sales)").run(sales_info2())
>>> rec = analyze_records(obs)[0]
>>> rec["op"], rec["act_rows"]
('MERGE', 12)
"""

from __future__ import annotations

import math

from ..core import N, V, Table, make_table, render_table
from .estimator import shape_estimate
from .runtime import Observation
from .trace import Span

__all__ = [
    "analyze_records",
    "analyze_table",
    "explain_analyze_text",
]


def _ratio(actual: float, estimated: float) -> float | None:
    """actual / estimated, guarded against a zero estimate."""
    if estimated <= 0:
        return None
    return actual / estimated


def analyze_records(obs: Observation) -> list[dict]:
    """One record per analyzed operation span, in execution order.

    A span is analyzable when the instrumented registry stamped it with
    ``shapes_in`` and a shape rule covers its name.  Each record carries
    the estimated and actual rows and tables, ``row_ratio`` (actual ÷
    estimated; > 1 means the estimate was low) and the actual wall time
    ``act_ms``.
    """
    records: list[dict] = []
    for root in obs.spans:
        for span in root.walk():
            record = _analyze_span(span)
            if record is not None:
                records.append(record)
    return records


def _analyze_span(span: Span) -> dict | None:
    shapes_in = span.attributes.get("shapes_in")
    if shapes_in is None:
        return None
    estimate = shape_estimate(span.name, shapes_in)
    if estimate is None:
        return None
    tables_out, rows_out, cols_out, cost_units = estimate
    # An estimation scope stamps its own (possibly stats-derived)
    # prediction onto the span; it takes precedence over the shape
    # rules so EXPLAIN shows what the estimator actually predicted.
    est_rows = span.attributes.get("est_rows")
    est_source = span.attributes.get("est_source")
    if est_rows is None:
        est_rows = rows_out
        est_source = "model"
    act_rows = int(span.attributes.get("rows_out", 0))
    act_tables = int(span.attributes.get("tables_out", 0))
    q = max(max(est_rows, 1), max(act_rows, 1)) / min(max(est_rows, 1), max(act_rows, 1))
    return {
        "op": span.name,
        "est_tables": tables_out,
        "act_tables": act_tables,
        "est_rows": int(est_rows),
        "est_source": est_source,
        "act_rows": act_rows,
        "row_ratio": _ratio(act_rows, est_rows),
        "q_error": round(q, 3),
        "est_cells": rows_out * cols_out,
        "cost_units": round(cost_units, 1),
        "act_ms": span.duration * 1e3,
        "error": span.error,
    }


def _format_ratio(ratio: float | None) -> str:
    if ratio is None:
        return "?"
    return f"{ratio:.2f}x"


def analyze_table(obs: Observation, timings: bool = True) -> Table | None:
    """The ANALYZE comparison as a renderable table (None when empty).

    ``timings=False`` drops the wall-clock column, leaving the purely
    structural rows/ratio comparison deterministic for golden tests.
    """
    records = analyze_records(obs)
    if not records:
        return None
    # The source column appears only when an estimation scope actually
    # stamped estimates, keeping the plain-analyze golden output stable.
    sourced = any(record["est_source"] != "model" for record in records)
    columns = ["Est rows", "Act rows", "Row ratio"]
    if sourced:
        columns.append("Src")
    if timings:
        columns.append("Act ms")
    rows = []
    for record in records:
        row = [
            record["est_rows"],
            record["act_rows"],
            N(_format_ratio(record["row_ratio"])),
        ]
        if sourced:
            row.append(N(record["est_source"]))
        if timings:
            row.append(V(round(record["act_ms"], 3)))
        rows.append(row)
    return make_table(
        "Analyze",
        columns,
        rows,
        row_attrs=[N(record["op"]) for record in records],
    )


def explain_analyze_text(obs: Observation, timings: bool = True) -> str:
    """The full EXPLAIN ANALYZE report: span trees plus the comparison.

    Mirrors a database's ``EXPLAIN ANALYZE``: the plan that ran (the
    span tree) followed by estimated vs. actual figures per operation,
    worst mis-estimates called out.
    """
    from .explain import span_tree_text

    blocks: list[str] = []
    for root in obs.spans:
        blocks.append(span_tree_text(root, timings))
    table = analyze_table(obs, timings)
    if table is None:
        blocks.append("(no analyzable operation spans)")
        return "\n\n".join(blocks)
    blocks.append(render_table(table, title="EXPLAIN ANALYZE — estimated vs. actual"))
    records = analyze_records(obs)
    worst = max(
        records,
        key=lambda r: abs(math.log(r["row_ratio"])) if r["row_ratio"] else 0.0,
    )
    if worst["row_ratio"] is not None:
        blocks.append(
            f"{len(records)} operation(s) analyzed; worst row mis-estimate: "
            f"{worst['op']} at {_format_ratio(worst['row_ratio'])} "
            f"(est {worst['est_rows']}, act {worst['act_rows']})"
        )
    return "\n\n".join(blocks)
