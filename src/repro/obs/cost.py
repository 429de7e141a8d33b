"""Per-operation cost model and the EXPLAIN ANALYZE report.

A :class:`CostModel` predicts, from input shapes alone, what each tabular
algebra operation will produce — result tables, rows, cells — and how
long it should take, via an abstract *cost unit* (≈ one grid cell
touched) scaled by a nanoseconds-per-unit constant.  The estimators are
deliberately simple shape heuristics in the spirit of a textbook query
optimizer: the querying family (σ/π-style SELECT, PROJECT, …) is linear
in cells, the restructuring family (GROUP, MERGE, SPLIT, the pivot
chain) reshapes rows into columns and back with group-count guesses, and
the tagging family carries SETNEW's power-set blowup.  Every operation
registered in :data:`repro.algebra.programs.registry.OPERATIONS` has an
estimator (pinned by a test).

EXPLAIN ANALYZE pairs those predictions with what actually happened: the
instrumented registry stamps each operation span with its per-table
input shapes (``shapes_in``) and real output shape, so
:func:`analyze_records` can walk an :class:`~repro.obs.runtime.Observation`
and report estimated vs. actual rows and time with mis-estimation
ratios, exactly like a database engine's ``EXPLAIN ANALYZE``.

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
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core import N, V, Table, make_table, render_table
from .runtime import Observation
from .trace import Span

__all__ = [
    "CostEstimate",
    "CostModel",
    "DEFAULT_MODEL",
    "analyze_records",
    "analyze_table",
    "explain_analyze_text",
]

#: One shape is a ``(rows, cols)`` pair for a single table.
Shape = tuple[int, int]

#: Conversion from cost units (≈ cells touched) to seconds: 150ns/cell
#: is representative of the pure-Python engine on current hardware.
NS_PER_UNIT = 150.0

#: Cap on the SETNEW power-set exponent so estimates stay finite.
_SETNEW_CAP = 30


@dataclass(frozen=True)
class CostEstimate:
    """What the model predicts for one operation invocation."""

    op: str
    tables_out: int
    rows_out: int
    cols_out: int
    cost_units: float

    @property
    def cells_out(self) -> int:
        """Predicted size of the result grid."""
        return self.rows_out * self.cols_out

    def as_dict(self) -> dict:
        return {
            "op": self.op,
            "tables_out": self.tables_out,
            "rows_out": self.rows_out,
            "cols_out": self.cols_out,
            "cells_out": self.cells_out,
            "cost_units": round(self.cost_units, 3),
        }


def _cells(shapes: Sequence[Shape]) -> int:
    return sum(rows * cols for rows, cols in shapes)


def _first(shapes: Sequence[Shape]) -> Shape:
    return shapes[0] if shapes else (0, 0)


def _second(shapes: Sequence[Shape]) -> Shape:
    return shapes[1] if len(shapes) > 1 else (0, 0)


def _groups(rows: int) -> int:
    """Guessed number of distinct grouping values: √rows, at least one.

    Without value statistics the square-root rule is the classic
    textbook stand-in for group cardinality; mis-estimates show up in
    the ANALYZE ratios rather than being hidden.
    """
    return max(1, math.isqrt(max(0, rows)))


# Each estimator maps input shapes to (tables_out, rows_out, cols_out).
# Cost units are computed uniformly afterwards as cells_in + cells_out,
# except where an estimator returns an explicit fourth element (used by
# the quadratic and exponential operations).
_Est = Callable[[Sequence[Shape]], tuple]


def _linear(rows_factor: float = 1.0, cols_factor: float = 1.0, cols_delta: int = 0) -> _Est:
    def estimate(shapes: Sequence[Shape]) -> tuple:
        rows, cols = _first(shapes)
        return (1, max(0, round(rows * rows_factor)), max(0, round(cols * cols_factor) + cols_delta))

    return estimate


def _union(shapes: Sequence[Shape]) -> tuple:
    # Fig. 3 shape law: heights add, schemes concatenate.
    (r1, c1), (r2, c2) = _first(shapes), _second(shapes)
    return (1, r1 + r2, c1 + c2)


def _difference(shapes: Sequence[Shape]) -> tuple:
    r1, c1 = _first(shapes)
    return (1, max(1, r1 // 2), c1)


def _intersection(shapes: Sequence[Shape]) -> tuple:
    (r1, c1), (r2, _c2) = _first(shapes), _second(shapes)
    return (1, max(0, min(r1, r2) // 2), c1)


def _product(shapes: Sequence[Shape]) -> tuple:
    # Quadratic: every row pair is materialized.
    (r1, c1), (r2, c2) = _first(shapes), _second(shapes)
    rows, cols = r1 * r2, c1 + c2
    return (1, rows, cols, _cells(shapes) + rows * cols)


def _product_select(shapes: Sequence[Shape]) -> tuple:
    # Fused σ(ρ × σ): the pair scan still bounds the cost, but only the
    # selected rows (1/3, matching the SELECT selectivity guess) are
    # materialized.
    (r1, c1), (r2, c2) = _first(shapes), _second(shapes)
    rows, cols = max(1, (r1 * r2) // 3), c1 + c2
    return (1, rows, cols, _cells(shapes) + r1 * r2 + rows * cols)


def _chain_join(shapes: Sequence[Shape]) -> tuple:
    # The optimizer's reordered PRODUCT/σ chain (variadic): full product
    # of the leaves with one SELECT-style 1/3 selectivity guess — the
    # shape model cannot see how many conditions the chain carries.
    rows, cols = 1, 0
    for r, c in shapes:
        rows *= r
        cols += c
    rows = max(1, rows // 3)
    return (1, rows, cols, _cells(shapes) + rows * cols)


def _natural_join(shapes: Sequence[Shape]) -> tuple:
    (r1, c1), (r2, c2) = _first(shapes), _second(shapes)
    rows = max(r1, r2)
    cols = max(c1, c2)
    # Join cost is dominated by the pair scan before matching prunes it.
    return (1, rows, cols, _cells(shapes) + r1 * r2 + rows * cols)


def _group(shapes: Sequence[Shape]) -> tuple:
    # GROUP spreads the on-columns under one block per group: the width
    # grows with the data (Figure 4: 8×3 → 9×9), the height gains the
    # per-group summary rows.
    rows, cols = _first(shapes)
    groups = _groups(rows)
    return (1, rows + groups, max(1, cols - 2) + rows)


def _group_compact(shapes: Sequence[Shape]) -> tuple:
    rows, cols = _first(shapes)
    groups = _groups(rows)
    return (1, max(1, rows - groups), max(1, cols - 2) + groups)


def _merge(shapes: Sequence[Shape]) -> tuple:
    # MERGE unfolds each spread column back into rows (Figure 5:
    # 4×5 → 12×3): spread ≈ all but the on/by columns.
    rows, cols = _first(shapes)
    spread = max(1, cols - 2)
    return (1, rows * spread, cols - spread + 1)


def _merge_compact(shapes: Sequence[Shape]) -> tuple:
    tables, rows, cols = _merge(shapes)[:3]
    return (tables, max(1, round(rows * 0.75)), cols)


def _split(shapes: Sequence[Shape]) -> tuple:
    rows, cols = _first(shapes)
    parts = _groups(rows)
    return (parts, rows, max(1, cols - 1))


def _collapse(shapes: Sequence[Shape]) -> tuple:
    rows = sum(shape[0] for shape in shapes)
    cols = max((shape[1] for shape in shapes), default=0)
    return (1, rows, cols + 1)


def _transpose(shapes: Sequence[Shape]) -> tuple:
    rows, cols = _first(shapes)
    return (1, cols, rows)


def _cleanup(shapes: Sequence[Shape]) -> tuple:
    rows, cols = _first(shapes)
    return (1, max(1, rows - _groups(rows)), cols)


def _purge(shapes: Sequence[Shape]) -> tuple:
    rows, cols = _first(shapes)
    return (1, rows, max(1, cols - _groups(cols)))


def _setnew(shapes: Sequence[Shape]) -> tuple:
    # The power-set construct: one fresh tag per subset of the domain.
    rows, cols = _first(shapes)
    subsets = 2 ** min(rows, _SETNEW_CAP)
    return (1, subsets, cols + 1, _cells(shapes) + subsets * (cols + 1))


#: Estimators for every registered operation name.
ESTIMATORS: dict[str, _Est] = {
    # Traditional (querying) family — linear in cells.
    "UNION": _union,
    "DIFFERENCE": _difference,
    "INTERSECTION": _intersection,
    "PRODUCT": _product,
    "RENAME": _linear(),
    "PROJECT": _linear(cols_factor=0.5),
    "SELECT": _linear(rows_factor=1 / 3),
    "SELECTCONST": _linear(rows_factor=1 / 3),
    # Restructuring family — rows trade places with columns.
    "GROUP": _group,
    "MERGE": _merge,
    "SPLIT": _split,
    "COLLAPSE": _collapse,
    # Transposition.
    "TRANSPOSE": _transpose,
    "SWITCH": _transpose,
    # Redundancy removal (the pivot chain's tail).
    "CLEANUP": _cleanup,
    "PURGE": _purge,
    # Tagging.
    "TUPLENEW": _linear(cols_delta=1),
    "SETNEW": _setnew,
    # Derived operations.
    "PRODUCTSELECT": _product_select,
    "CHAINJOIN": _chain_join,
    "CLASSICALUNION": _union,
    "NATURALJOIN": _natural_join,
    "DEDUP": _linear(rows_factor=0.75),
    "DEDUPCOLUMNS": _linear(cols_factor=0.75),
    "DROPNULLROWS": _linear(rows_factor=0.75),
    "CONSTCOLUMN": _linear(cols_delta=1),
    "GROUPCOMPACT": _group_compact,
    "MERGECOMPACT": _merge_compact,
    "COLLAPSECOMPACT": _collapse,
}


class CostModel:
    """Shape-based estimates for every registered TA operation."""

    __slots__ = ()

    def covers(self, op: str) -> bool:
        """True iff the model has an estimator for ``op``."""
        return op in ESTIMATORS

    def estimate(self, op: str, shapes_in: Sequence[Shape]) -> CostEstimate | None:
        """The prediction for one invocation, or None for unknown ops."""
        estimator = ESTIMATORS.get(op)
        if estimator is None:
            return None
        shapes = [(int(rows), int(cols)) for rows, cols in shapes_in]
        result = estimator(shapes)
        tables_out, rows_out, cols_out = result[:3]
        cost = result[3] if len(result) > 3 else _cells(shapes) + rows_out * cols_out
        # Every invocation pays a constant dispatch overhead on top of
        # the data-proportional work (dominant on the paper's toy tables).
        return CostEstimate(op, tables_out, rows_out, cols_out, float(cost) + 50.0)

    def estimate_seconds(self, estimate: CostEstimate) -> float:
        """The predicted wall time for one estimate."""
        return estimate.cost_units * NS_PER_UNIT * 1e-9


#: The shared default model used by ``repro trace --analyze``.
DEFAULT_MODEL = CostModel()


def _ratio(actual: float, estimated: float) -> float | None:
    """actual / estimated, guarded against a zero estimate."""
    if estimated <= 0:
        return None
    return actual / estimated


def analyze_records(obs: Observation, model: CostModel | None = None) -> list[dict]:
    """One record per analyzed operation span, in execution order.

    A span is analyzable when the instrumented registry stamped it with
    ``shapes_in`` and the model covers its name.  Each record carries
    the estimated and actual rows/tables/time plus ``row_ratio`` and
    ``time_ratio`` (actual ÷ estimated; > 1 means the model guessed low).
    """
    model = model or DEFAULT_MODEL
    records: list[dict] = []
    for root in obs.spans:
        for span in root.walk():
            record = _analyze_span(span, model)
            if record is not None:
                records.append(record)
    return records


def _analyze_span(span: Span, model: CostModel) -> dict | None:
    shapes_in = span.attributes.get("shapes_in")
    if shapes_in is None:
        return None
    estimate = model.estimate(span.name, shapes_in)
    if estimate is None:
        return None
    # An estimation scope stamps its own (possibly stats-derived)
    # prediction onto the span; it takes precedence over the shape
    # heuristics so EXPLAIN shows what the estimator actually predicted.
    est_rows = span.attributes.get("est_rows")
    est_source = span.attributes.get("est_source")
    if est_rows is None:
        est_rows = estimate.rows_out
        est_source = "model"
    act_rows = int(span.attributes.get("rows_out", 0))
    act_tables = int(span.attributes.get("tables_out", 0))
    act_seconds = span.duration
    est_seconds = model.estimate_seconds(estimate)
    q = max(max(est_rows, 1), max(act_rows, 1)) / min(max(est_rows, 1), max(act_rows, 1))
    return {
        "op": span.name,
        "est_tables": estimate.tables_out,
        "act_tables": act_tables,
        "est_rows": int(est_rows),
        "est_source": est_source,
        "act_rows": act_rows,
        "row_ratio": _ratio(act_rows, est_rows),
        "q_error": round(q, 3),
        "est_cells": estimate.cells_out,
        "cost_units": round(estimate.cost_units, 1),
        "est_ms": est_seconds * 1e3,
        "act_ms": act_seconds * 1e3,
        "time_ratio": _ratio(act_seconds, est_seconds),
        "error": span.error,
    }


def _format_ratio(ratio: float | None) -> str:
    if ratio is None:
        return "?"
    return f"{ratio:.2f}x"


def analyze_table(
    obs: Observation, model: CostModel | None = None, timings: bool = True
) -> Table | None:
    """The ANALYZE comparison as a renderable table (None when empty).

    ``timings=False`` drops the wall-clock columns, leaving the purely
    structural rows/ratio comparison deterministic for golden tests.
    """
    records = analyze_records(obs, model)
    if not records:
        return None
    # The source column appears only when an estimation scope actually
    # stamped estimates, keeping the plain-analyze golden output stable.
    sourced = any(record["est_source"] != "model" for record in records)
    columns = ["Est rows", "Act rows", "Row ratio"]
    if sourced:
        columns.append("Src")
    if timings:
        columns += ["Est ms", "Act ms", "Time ratio"]
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
            row += [
                V(round(record["est_ms"], 3)),
                V(round(record["act_ms"], 3)),
                N(_format_ratio(record["time_ratio"])),
            ]
        rows.append(row)
    return make_table(
        "Analyze",
        columns,
        rows,
        row_attrs=[N(record["op"]) for record in records],
    )


def explain_analyze_text(
    obs: Observation, model: CostModel | None = None, timings: bool = True
) -> str:
    """The full EXPLAIN ANALYZE report: span trees plus the comparison.

    Mirrors a database's ``EXPLAIN ANALYZE``: the plan that ran (the
    span tree) followed by estimated vs. actual figures per operation,
    worst mis-estimates called out.
    """
    from .explain import span_tree_text

    model = model or DEFAULT_MODEL
    blocks: list[str] = []
    for root in obs.spans:
        blocks.append(span_tree_text(root, timings))
    table = analyze_table(obs, model, timings)
    if table is None:
        blocks.append("(no analyzable operation spans)")
        return "\n\n".join(blocks)
    blocks.append(render_table(table, title="EXPLAIN ANALYZE — estimated vs. actual"))
    records = analyze_records(obs, model)
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
