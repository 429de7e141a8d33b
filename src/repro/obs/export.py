"""Span-tree exporters: Chrome trace events and JSON-lines logs.

* :func:`chrome_trace` renders an observation as the Chrome trace-event
  format (the ``{"traceEvents": [...]}`` JSON that ``chrome://tracing``
  and Perfetto load): one complete ``"X"`` event per span, timestamps in
  microseconds relative to the earliest span, thread ids preserved so
  concurrent interpreter runs land on separate tracks.
* :func:`jsonl_records` flattens the same trees into one JSON object per
  span — depth, parent, duration, attributes — followed by a final
  metrics record, ready for ``jq``/log pipelines.

Both are pure functions over an :class:`~repro.obs.runtime.Observation`;
``write_chrome_trace``/``write_jsonl`` add the file plumbing used by
``python -m repro profile --chrome-trace/--log-json``.

The provenance-graph writers live here too:
:func:`write_provenance_dot`/:func:`write_provenance_json` serialize the
bipartite input-cell → output-cell graphs built by
:func:`repro.obs.lineage.provenance_graph` (one graph, or several
bundled into a single DOT digraph / JSON document, as ``python -m repro
lineage --dot/--graph-json`` does for its audits).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from .runtime import Observation
from .trace import Span, _jsonable

__all__ = [
    "chrome_trace",
    "jsonl_records",
    "write_chrome_trace",
    "write_jsonl",
    "write_provenance_dot",
    "write_provenance_json",
]


def _span_args(span: Span) -> dict:
    args = {key: _jsonable(value) for key, value in span.attributes.items()}
    if span.error is not None:
        args["error"] = span.error
    return args


def chrome_trace(obs: Observation, process_name: str = "repro") -> dict:
    """The observation as a Chrome trace-event JSON object.

    Timestamps are microseconds from the earliest recorded span, so the
    trace viewer's clock starts at zero.  Durations of zero-length spans
    are clamped to a tenth of a microsecond so they stay clickable.
    """
    spans = [span for root in obs.spans for span in root.walk()]
    base = min((span.start for span in spans), default=0.0)
    events: list[dict] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for span in spans:
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": span.thread_id,
                "name": span.name,
                "cat": "ta",
                "ts": round((span.start - base) * 1e6, 3),
                "dur": max(0.1, round(span.duration * 1e6, 3)),
                "args": _span_args(span),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def jsonl_records(obs: Observation) -> Iterator[dict]:
    """One flat JSON record per span, then one ``metrics`` record.

    Span ids are depth-first positions within the observation, stable
    for a given trace; ``parent_id`` is ``None`` on roots.
    """
    next_id = 0

    def emit(span: Span, parent_id: int | None, depth: int) -> Iterator[dict]:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        record = {
            "type": "span",
            "span_id": span_id,
            "parent_id": parent_id,
            "depth": depth,
            "name": span.name,
            "thread_id": span.thread_id,
            "duration_ms": round(span.duration * 1e3, 6),
            "attributes": {k: _jsonable(v) for k, v in span.attributes.items()},
        }
        if span.error is not None:
            record["error"] = span.error
        yield record
        for child in span.children:
            yield from emit(child, span_id, depth + 1)

    for root in obs.spans:
        yield from emit(root, None, 0)
    yield {"type": "metrics", **obs.metrics.snapshot()}


def write_chrome_trace(obs: Observation, path: str | Path) -> Path:
    """Write the Chrome trace JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(obs), indent=2) + "\n")
    return path


def write_jsonl(obs: Observation, path: str | Path) -> Path:
    """Write the JSON-lines log, one record per line; returns the path."""
    path = Path(path)
    with path.open("w") as handle:
        for record in jsonl_records(obs):
            handle.write(json.dumps(record) + "\n")
    return path


def write_provenance_dot(graphs, path: str | Path) -> Path:
    """Write provenance graph(s) as Graphviz DOT; returns the path.

    ``graphs`` is one graph dict (from
    :func:`repro.obs.lineage.provenance_graph`) or a sequence of them;
    several graphs render as clustered subgraphs of one digraph.
    """
    from .lineage import graph_to_dot

    path = Path(path)
    if isinstance(graphs, dict):
        path.write_text(graph_to_dot(graphs) + "\n")
        return path
    graphs = list(graphs)
    if len(graphs) == 1:
        path.write_text(graph_to_dot(graphs[0]) + "\n")
        return path
    lines = ['digraph "provenance" {', "  rankdir=LR;", "  node [shape=box, fontsize=10];"]
    lines += [graph_to_dot(graph, subgraph=True) for graph in graphs]
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_provenance_json(graphs, path: str | Path) -> Path:
    """Write provenance graph(s) as a JSON document; returns the path."""
    path = Path(path)
    payload = graphs if isinstance(graphs, dict) else {"graphs": list(graphs)}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
