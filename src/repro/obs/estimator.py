"""Stats-backed cardinality estimation and estimate-accuracy telemetry.

The :class:`~repro.obs.cost.CostModel` guesses rows-out from input
shapes alone — the 1/3 selectivity, the √rows group count.  This module
replaces those guesses with predictions **derived from persisted ANALYZE
statistics** (:mod:`repro.obs.stats`) whenever stats exist for an input
table, and continuously measures how wrong every prediction was via the
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
the shape heuristics otherwise, with the source recorded — (2) runs the
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
from typing import Iterator, Mapping, Sequence

from ..core import Symbol, Table
from .stats import DatabaseStats, TableStats

__all__ = [
    "QERROR_BUCKETS",
    "EST",
    "OpAccuracy",
    "EstimateAccuracy",
    "CardinalityEstimator",
    "estimation",
    "qerror",
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


class CardinalityEstimator:
    """Predicts rows-out per registry op from one ANALYZE snapshot.

    Each prediction is ``(rows, source)``: ``source == "stats"`` when
    every input table matched the snapshot by name *and* shape (so the
    numbers really came from measured NDV/null/frequency data),
    ``"shape"`` when the cost model's heuristics filled in.
    """

    __slots__ = ("stats", "model", "accuracy")

    def __init__(
        self,
        stats: DatabaseStats | None,
        model=None,
        accuracy: EstimateAccuracy | None = None,
    ):
        from .cost import DEFAULT_MODEL

        self.stats = stats
        self.model = model if model is not None else DEFAULT_MODEL
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
        estimate = self.model.estimate(op, [(t.height, t.width) for t in tables])
        if estimate is None:
            return None
        return max(0, int(estimate.rows_out)), SOURCE_SHAPE

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
            ndv = max(
                self._ndv(s1, arguments.get("left")),
                self._ndv(s1, arguments.get("right")),
                1,
            )
            return h1 // ndv
        if op == "SELECTCONST":
            return self._selectivity_const(
                s1, arguments.get("attr"), arguments.get("value")
            )
        if op == "DROPNULLROWS":
            column = (
                s1.column_for(arguments["attr"])
                if arguments.get("attr") is not None
                else None
            )
            return h1 - column.nulls if column is not None else h1
        if op == "PRODUCT":
            return h1 * stats[1].height
        if op == "CHAINJOIN":
            # The optimizer's reordered PRODUCT/σ chain: the full product
            # of the leaves, one independent 1/NDV selectivity per
            # condition, each NDV read from the leaves visible at the
            # point (``prefix``) where the syntactic chain applied it.
            rows = 1
            for s in stats:
                rows *= s.height
            for left, right, prefix in arguments.get("conds", ()):
                visible = stats[: min(prefix, len(stats))]
                ndv_left = max((self._ndv(s, left) for s in visible), default=1)
                ndv_right = max((self._ndv(s, right) for s in visible), default=1)
                rows //= max(ndv_left, ndv_right, 1)
            return rows
        if op == "PRODUCTSELECT":
            s2 = stats[1]
            ndv = max(
                self._ndv(s1, arguments.get("left")),
                self._ndv(s2, arguments.get("right")),
                1,
            )
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
        # SETNEW and anything unanticipated: shape heuristics know better.
        return None

    @staticmethod
    def _selectivity_const(
        stats: TableStats, attribute: Symbol | None, value: Symbol | None
    ) -> int:
        """SELECTCONST via the frequency sketch: exact for retained values."""
        if attribute is None or value is None:
            return 0 if value is None else stats.height
        column = stats.column_for(attribute)
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
    pure shape heuristics, still measured) to build a fresh one; a shared
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
