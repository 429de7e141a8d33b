"""The one cardinality model, and estimate-accuracy telemetry.

Every row prediction in the system comes from this module:

* the **shape rules** (:data:`SHAPE_RULES`, :func:`shape_estimate`)
  guess an op's output from its input shapes alone — the 1/3
  selectivity, the √rows group count — for every registered op;
* the :class:`CardinalityEstimator` replaces those guesses with
  predictions **derived from persisted ANALYZE statistics**
  (:mod:`repro.obs.stats`) whenever stats exist for every input table,
  falling back to the shape rules otherwise;
* :func:`chain_rows` estimates any subset of a PRODUCT/σ chain's
  leaves: the optimizer costs its join orders with it, and the
  estimator scores the CHAINJOIN it chose with the same formula.

It continuously measures how wrong every prediction was via the
**q-error** — ``max(est/act, act/est)``, the standard cardinality-
estimation accuracy metric (1.0 is perfect, symmetric in over- and
under-estimation).

The scope follows the ``GOV``/``EVT`` architecture exactly: one
module-level singleton, :data:`EST`, guards the registry chokepoint.
When ``EST.active`` is False — the default — dispatch falls through
after a single attribute check and the zero-allocation audit holds.
:func:`estimation` switches prediction on::

    from repro.obs.estimator import estimation
    from repro.obs.stats import analyze_database

    stats = analyze_database(db)
    with estimation(stats) as est:
        program.run(db)
    print(est.accuracy.snapshot())   # per-op q-error aggregates

While active, every registry dispatch (1) predicts rows-out *before*
the op runs — from stats when the input tables match the snapshot, from
the shape rules otherwise, with the source recorded — (2) runs the
op, and (3) records the q-error against the actual row count, emitting
an ``op_estimate`` event when an event stream is live.  When an
observation scope is also active the prediction is stamped onto the
op's span, which is how EXPLAIN ANALYZE shows stats-derived
``est_rows``.  While-loops predict their iteration count from the
condition table's frontier and account it under the pseudo-op
``WHILE``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..core import Symbol, Table
from .stats import DatabaseStats, TableStats

__all__ = [
    "QERROR_BUCKETS",
    "EST",
    "SHAPE_RULES",
    "OpAccuracy",
    "EstimateAccuracy",
    "CardinalityEstimator",
    "chain_rows",
    "estimation",
    "qerror",
    "shape_estimate",
]

#: Fixed q-error histogram bounds (shared with the Prometheus export).
#: A q-error of 1.0 is a perfect estimate; 2.0 means off by 2x either way.
QERROR_BUCKETS = (1.1, 1.25, 1.5, 2.0, 4.0, 10.0, 100.0)

#: Per-op q-error samples retained for percentile reporting (a backstop;
#: audits over the fuzzer corpus stay far below it).
_SAMPLE_CAP = 100_000

#: Estimate sources recorded with every prediction.
SOURCE_STATS = "stats"
SOURCE_SHAPE = "shape"


def qerror(est: float, act: float) -> float:
    """``max(est/act, act/est)`` with both sides clamped to >= 1 row.

    The clamp keeps empty results finite (a textbook convention): an
    estimate of 0 against an actual of 0 is perfect, not undefined.
    """
    e = max(float(est), 1.0)
    a = max(float(act), 1.0)
    return e / a if e >= a else a / e


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over an ascending sample list."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


class OpAccuracy:
    """Accumulated estimate accuracy for one operation kind."""

    __slots__ = ("op", "count", "hist", "sum", "max", "worst", "sources", "_samples")

    def __init__(self, op: str):
        self.op = op
        self.count = 0
        #: Non-cumulative bucket counts over :data:`QERROR_BUCKETS`, with
        #: one overflow slot (the Prometheus export cumulates them).
        self.hist = [0] * (len(QERROR_BUCKETS) + 1)
        self.sum = 0.0
        self.max = 0.0
        #: The worst sample seen: ``(q, est, act)``.
        self.worst: tuple[float, int, int] | None = None
        self.sources = {SOURCE_STATS: 0, SOURCE_SHAPE: 0}
        self._samples: list[float] = []

    def record(self, est: int, act: int, source: str) -> float:
        q = qerror(est, act)
        self.count += 1
        self.sum += q
        if q > self.max:
            self.max = q
            self.worst = (q, int(est), int(act))
        for index, bound in enumerate(QERROR_BUCKETS):
            if q <= bound:
                self.hist[index] += 1
                break
        else:
            self.hist[-1] += 1
        self.sources[source] = self.sources.get(source, 0) + 1
        if len(self._samples) < _SAMPLE_CAP:
            self._samples.append(q)
        return q

    def percentile(self, fraction: float) -> float:
        return _percentile(sorted(self._samples), fraction)

    def snapshot(self) -> dict:
        ordered = sorted(self._samples)
        return {
            "count": self.count,
            "p50": round(_percentile(ordered, 0.50), 3),
            "p95": round(_percentile(ordered, 0.95), 3),
            "max": round(self.max, 3),
            "mean": round(self.sum / self.count, 3) if self.count else 0.0,
            "worst": (
                None
                if self.worst is None
                else {"q": round(self.worst[0], 3), "est": self.worst[1], "act": self.worst[2]}
            ),
            "sources": dict(self.sources),
            "buckets": list(self.hist),
        }


class EstimateAccuracy:
    """Per-op q-error aggregation across one or many estimation scopes."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops: dict[str, OpAccuracy] = {}

    def record(self, op: str, est: int, act: int, source: str) -> float:
        record = self.ops.get(op)
        if record is None:
            record = self.ops[op] = OpAccuracy(op)
        return record.record(est, act, source)

    @property
    def count(self) -> int:
        return sum(record.count for record in self.ops.values())

    def snapshot(self) -> dict:
        return {op: self.ops[op].snapshot() for op in sorted(self.ops)}

    def __repr__(self) -> str:
        return f"EstimateAccuracy({self.count} estimate(s), {len(self.ops)} op(s))"


# ----------------------------------------------------------------------
# The shape rules: the fallback where no stats match
# ----------------------------------------------------------------------
#
# Deliberately simple shape heuristics in the spirit of a textbook query
# optimizer: the querying family (σ/π-style SELECT, PROJECT, …) is
# linear in cells, the restructuring family (GROUP, MERGE, SPLIT, the
# pivot chain) reshapes rows into columns and back with group-count
# guesses, and the tagging family carries SETNEW's power-set blowup.
# Every operation registered in
# :data:`repro.algebra.programs.registry.OPERATIONS` has a rule (pinned
# by a test).

#: One shape is a ``(rows, cols)`` pair for a single table.
Shape = tuple[int, int]

#: Cap on the SETNEW power-set exponent so estimates stay finite.
_SETNEW_CAP = 30


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


# Each rule maps input shapes to (tables_out, rows_out, cols_out).
# Cost units (≈ grid cells touched) are computed uniformly afterwards as
# cells_in + cells_out, except where a rule returns an explicit fourth
# element (used by the quadratic and exponential operations).
_Rule = Callable[[Sequence[Shape]], tuple]


def _linear(rows_factor: float = 1.0, cols_factor: float = 1.0, cols_delta: int = 0) -> _Rule:
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
    # shape rules cannot see how many conditions the chain carries.
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


#: The shape rule of every registered operation name.
SHAPE_RULES: dict[str, _Rule] = {
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


def shape_estimate(
    op: str, shapes_in: Sequence[Shape]
) -> tuple[int, int, int, float] | None:
    """``(tables, rows, cols, cost_units)`` out of one invocation, guessed
    from its per-table input shapes; None for an op without a rule."""
    rule = SHAPE_RULES.get(op)
    if rule is None:
        return None
    shapes = [(int(rows), int(cols)) for rows, cols in shapes_in]
    result = rule(shapes)
    tables_out, rows_out, cols_out = result[:3]
    cost = result[3] if len(result) > 3 else _cells(shapes) + rows_out * cols_out
    # Every invocation pays a constant dispatch overhead on top of the
    # data-proportional work (dominant on the paper's toy tables).
    return tables_out, rows_out, cols_out, float(cost) + 50.0


# ----------------------------------------------------------------------
# The chain formula
# ----------------------------------------------------------------------

def chain_rows(
    leaves: Sequence[Sequence[TableStats]],
    conds: Iterable[tuple[Symbol, Symbol, int]],
) -> Callable[[frozenset[int]], float]:
    """Estimated rows of any subset of a PRODUCT/σ chain's leaves.

    ``leaves[l]`` holds the stats of every table leaf ``l`` names (their
    rows add up), and each ``(left, right, prefix)`` is a σ_{left≈right}
    the chain applied once it held ``prefix`` leaves.  The returned
    function maps a set of leaf indices to the product of their rows,
    times ``1 / max NDV`` for each condition whose leaves — those among
    the first ``prefix`` that carry ``left`` or ``right`` — all lie in
    the set.  Products and σ-filters commute, so this one formula costs
    every join order the optimizer weighs and predicts the CHAINJOIN it
    chose.  A condition no leaf carries compares ∅ with ∅, and a
    reflexive one compares a set with itself: both keep every row.
    """
    heights = [sum(s.height for s in entries) for entries in leaves]
    selective: list[tuple[frozenset[int], float]] = []
    for left, right, prefix in conds:
        if left == right:
            continue
        involved: set[int] = set()
        ndv = 1
        for l in range(min(prefix, len(leaves))):
            for s in leaves[l]:
                for column in (s.column_for(left), s.column_for(right)):
                    if column is not None:
                        involved.add(l)
                        ndv = max(ndv, column.ndv)
        if involved:
            selective.append((frozenset(involved), 1.0 / ndv))

    def rows(subset: frozenset[int]) -> float:
        estimate = 1.0
        for l in subset:
            estimate *= heights[l]
        for involved, selectivity in selective:
            if involved <= subset:
                estimate *= selectivity
        return estimate

    return rows


class CardinalityEstimator:
    """Predicts rows-out per registry op from one ANALYZE snapshot.

    Each prediction is ``(rows, source)``: ``source == "stats"`` when
    every input table matched the snapshot by name *and* shape (so the
    numbers really came from measured NDV/null/frequency data),
    ``"shape"`` when the shape rules filled in.
    """

    __slots__ = ("stats", "accuracy")

    def __init__(
        self,
        stats: DatabaseStats | None,
        accuracy: EstimateAccuracy | None = None,
    ):
        self.stats = stats
        self.accuracy = accuracy if accuracy is not None else EstimateAccuracy()

    # -- the registry-facing API ---------------------------------------

    def predict(
        self,
        op: str,
        tables: Sequence[Table],
        arguments: Mapping[str, object],
    ) -> tuple[int, str] | None:
        """Predicted total rows-out for one invocation, with its source."""
        matched = self._match(tables)
        if matched is not None:
            rows = self._predict_stats(op, matched, arguments)
            if rows is not None:
                return max(0, int(rows)), SOURCE_STATS
        estimate = shape_estimate(op, [(t.height, t.width) for t in tables])
        if estimate is None:
            return None
        return max(0, int(estimate[1])), SOURCE_SHAPE

    def predict_while(self, condition: str, frontier_rows: int) -> tuple[int, str]:
        """Predicted fixpoint iterations from the loop-entry frontier.

        The frontier must shrink (or the interpreter's budget trips), so
        the entry row count of the condition table bounds the expected
        iteration count; stats contribute the *distinct*-row count when
        the condition table was analyzed (duplicate frontier rows cannot
        extend the fixpoint).
        """
        if self.stats is not None:
            for stats in self.stats.for_name(condition):
                if stats.height == frontier_rows:
                    return max(1, stats.distinct_rows), SOURCE_STATS
        return max(1, int(frontier_rows)), SOURCE_SHAPE

    def observe(self, op: str, predicted: tuple[int, str], actual_rows: int) -> float:
        """Record one prediction's q-error; emits ``op_estimate`` if live."""
        est, source = predicted
        q = self.accuracy.record(op, est, actual_rows, source)
        from . import events as _ev

        if _ev.EVT.active:
            _ev.emit(
                "op_estimate",
                op=op,
                est_rows=est,
                act_rows=int(actual_rows),
                q_error=round(q, 4),
                source=source,
            )
        return q

    # -- stats-based per-op formulas -----------------------------------

    def _match(self, tables: Sequence[Table]) -> list[TableStats] | None:
        """Per-input snapshot stats; None unless *every* input matched."""
        if self.stats is None or not tables:
            return None
        matched: list[TableStats] = []
        for table in tables:
            stats = self.stats.lookup(str(table.name), table.height, table.width)
            if stats is None:
                return None
            matched.append(stats)
        return matched

    @staticmethod
    def _ndv(stats: TableStats, attribute: Symbol | None) -> int:
        if attribute is None:
            return 1
        column = stats.column_for(attribute)
        return column.ndv if column is not None else 1

    @staticmethod
    def _combos(columns, cap: int) -> int:
        """Distinct value combinations over ``columns``: the NDV product
        (⊥ counts as one extra value where present), capped by rows."""
        combos = 1
        for column in columns:
            combos *= max(1, column.ndv + (1 if column.nulls else 0))
        return max(1, min(combos, cap))

    def _predict_stats(
        self, op: str, stats: list[TableStats], arguments: Mapping[str, object]
    ) -> int | None:
        """The stats-derived prediction, or None to fall back to shapes."""
        s1 = stats[0]
        h1 = s1.height
        if op in ("RENAME", "PROJECT", "PURGE", "CONSTCOLUMN", "TUPLENEW",
                  "DEDUPCOLUMNS"):
            return h1  # row-preserving
        if op in ("TRANSPOSE", "SWITCH"):
            return s1.width
        if op == "DEDUP":
            return s1.distinct_rows  # exact: ANALYZE counted it
        if op == "SELECT":
            left, right = arguments.get("left"), arguments.get("right")
            if left == right:
                return h1  # weak equality is reflexive
            return h1 // max(self._ndv(s1, left), self._ndv(s1, right), 1)
        if op == "SELECTCONST":
            return self._selectivity_const(
                s1, arguments.get("attr"), arguments.get("value")
            )
        if op == "DROPNULLROWS":
            # A table without an attr column loses every row.
            column = s1.column_for(arguments.get("attr"))
            return h1 - column.nulls if column is not None else 0
        if op == "PRODUCT":
            return h1 * stats[1].height
        if op == "CHAINJOIN":
            # The optimizer's reordered PRODUCT/σ chain, one table per
            # leaf: the formula that chose its order, over every leaf.
            rows = chain_rows([[s] for s in stats], arguments.get("conds", ()))
            return int(rows(frozenset(range(len(stats)))))
        if op == "PRODUCTSELECT":
            s2 = stats[1]
            left, right = arguments.get("left"), arguments.get("right")
            if left == right:
                return h1 * s2.height  # weak equality is reflexive
            ndv = max(self._ndv(s1, left), self._ndv(s2, right), 1)
            return (h1 * s2.height) // ndv
        if op in ("UNION", "COLLAPSE", "COLLAPSECOMPACT"):
            return sum(s.height for s in stats)
        if op == "CLASSICALUNION":
            total = sum(s.height for s in stats)
            distinct = sum(s.distinct_rows for s in stats)
            return min(total, distinct)
        if op == "DIFFERENCE":
            s2 = stats[1]
            overlap = min(s1.distinct_rows, s2.distinct_rows) // 2
            return max(0, h1 - overlap)
        if op == "INTERSECTION":
            return min(s1.distinct_rows, stats[1].distinct_rows) // 2
        if op == "NATURALJOIN":
            s2 = stats[1]
            shared = {c.attribute for c in s1.columns if not c.attribute.is_null} & {
                c.attribute for c in s2.columns
            }
            if not shared:
                return max(h1, s2.height)
            ndv = max(
                max(self._ndv(s1, a), self._ndv(s2, a)) for a in shared
            )
            return max(1, (h1 * s2.height) // max(1, ndv))
        if op == "SPLIT":
            # Each part carries its own header row (measured: 8 rows over
            # 4 regions split into 4 parts of 2+1 rows).
            on = set(arguments.get("on") or ())
            return h1 + self._combos(s1.columns_for(on), h1)
        if op == "GROUP":
            # GROUP keeps every data row and adds one header row per
            # grouping attribute (Figure 4: 8×3 → 9×9).
            return h1 + max(1, len(set(arguments.get("by") or ())))
        if op == "GROUPCOMPACT":
            # Compaction folds rows sharing their non-spread values: one
            # row per distinct rest-combination plus the header rows.
            by = set(arguments.get("by") or ())
            on = set(arguments.get("on") or ())
            rest = [c for c in s1.columns if c.attribute not in by | on]
            return self._combos(rest, h1) + max(1, len(by))
        if op == "CLEANUP":
            # Rows agreeing on the by-attributes merge where their other
            # entries complement: one row per distinct by-combination.
            by = set(arguments.get("by") or ())
            return self._combos(s1.columns_for(by), h1)
        if op in ("MERGE", "MERGECOMPACT"):
            # Each non-null cell of a spread (on-attributed) column
            # unfolds into one output row (Figure 5: 4×5 → 12×3).
            on = set(arguments.get("on") or ())
            spread = s1.columns_for(on)
            rows = sum(h1 - c.nulls for c in spread) if spread else h1
            return max(1, rows) if op == "MERGE" else max(1, (rows * 3) // 4)
        # SETNEW and anything unanticipated: the shape rules know better.
        return None

    @staticmethod
    def _selectivity_const(
        stats: TableStats, attribute: Symbol | None, value: Symbol | None
    ) -> int:
        """SELECTCONST via the frequency sketch: exact for retained values.

        Weak equality strips ⊥, so ``value = ⊥`` keeps the rows whose
        ``attribute`` entries are all ⊥: the column's nulls, or every
        row when no column carries ``attribute``.
        """
        if attribute is None or value is None:
            return 0 if value is None else stats.height
        column = stats.column_for(attribute)
        if value.is_null:
            return column.nulls if column is not None else stats.height
        if column is None:
            return 0
        known = column.frequency(value)
        if known is not None:
            return known
        retained = sum(count for _s, count in column.top)
        rest_ndv = column.ndv - len(column.top)
        if rest_ndv <= 0:
            # Complete histogram and the value is not in it: zero rows.
            return 0
        remaining = stats.height - column.nulls - retained
        return max(1, remaining // rest_ndv)

    def __repr__(self) -> str:
        fingerprint = self.stats.fingerprint if self.stats is not None else None
        return f"CardinalityEstimator(stats={fingerprint!r}, {self.accuracy!r})"


# ----------------------------------------------------------------------
# The scope singleton
# ----------------------------------------------------------------------

class _EstState:
    """The mutable global: one attribute check guards the dispatch site."""

    __slots__ = ("active", "estimator")

    def __init__(self):
        self.active = False
        #: The installed :class:`CardinalityEstimator`, or None.
        self.estimator: CardinalityEstimator | None = None


#: The process-wide estimation state consulted by the operation registry.
EST = _EstState()

@contextmanager
def estimation(
    stats: DatabaseStats | None = None,
    estimator: CardinalityEstimator | None = None,
    accuracy: EstimateAccuracy | None = None,
) -> Iterator[CardinalityEstimator]:
    """Enable cardinality estimation for the duration of the block.

    Pass a prebuilt ``estimator`` to share accuracy aggregation across
    scopes (the Prometheus exporter does), or ``stats`` (possibly None —
    pure shape rules, still measured) to build a fresh one; a shared
    ``accuracy`` may ride along either way.  Scopes nest like
    ``observation()``: the inner estimator shadows the outer one.
    """
    if estimator is None:
        estimator = CardinalityEstimator(stats, accuracy=accuracy)
    previous = (EST.active, EST.estimator)
    EST.estimator = estimator
    EST.active = True
    try:
        yield estimator
    finally:
        EST.active, EST.estimator = previous
