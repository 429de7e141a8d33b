"""Registry of the tabular algebra operations available to statements.

Each entry describes how an assignment statement invokes the underlying
operation from :mod:`repro.algebra`: how many argument tables it takes, the
keyword parameters it expects and whether each denotes a single symbol or a
symbol set, and whether it runs once per matching table combination or once
over the whole set of matching tables (COLLAPSE).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ...core import EvaluationError, FreshValueSource, Symbol, Table
from ...engine import runtime as _engine
from ...obs import estimator as _est
from ...obs import events as _ev
from ...obs import runtime as _obs
from ...obs.lineage import count_prov_cells
from ...runtime import governor as _gv
from .. import (
    classical_union,
    const_column,
    cleanup,
    collapse,
    collapse_compact,
    deduplicate,
    deduplicate_columns,
    difference,
    drop_all_null_rows,
    group,
    group_compact,
    intersection,
    merge,
    merge_compact,
    natural_join,
    product,
    product_select,
    project,
    purge,
    rename,
    select,
    select_constant,
    setnew,
    split,
    switch,
    transpose,
    tuplenew,
    union,
)

__all__ = ["OpSpec", "OPERATIONS", "PARAM_SINGLE", "PARAM_SET", "PARAM_ENTRY"]

#: Parameter kinds: a single attribute, an attribute set, a single entry.
PARAM_SINGLE = "single"
PARAM_SET = "set"
PARAM_ENTRY = "entry"


@dataclass(frozen=True)
class OpSpec:
    """How a statement invokes one algebra operation.

    ``params`` maps keyword → kind (:data:`PARAM_SINGLE`,
    :data:`PARAM_SET`, or :data:`PARAM_ENTRY`); ``arity`` is the number of
    argument tables; ``aggregate`` marks operations consuming *all* tables
    of a name at once; ``multi_result`` marks operations returning several
    tables; ``needs_fresh`` marks the tagging operations.
    """

    name: str
    function: Callable
    arity: int = 1
    params: Mapping[str, str] = field(default_factory=dict)
    aggregate: bool = False
    multi_result: bool = False
    needs_fresh: bool = False

    def invoke(
        self,
        tables: Sequence[Table],
        arguments: Mapping[str, object],
        fresh: FreshValueSource | None,
    ) -> tuple[Table, ...]:
        """Run the operation; always returns a tuple of result tables.

        With no scope active this is the raw call behind one attribute
        check per scope.  Otherwise :meth:`_invoke_layered` wraps it in
        the active ones — :func:`~repro.obs.estimator.estimation`, the
        event feed (:func:`~repro.obs.events.event_stream` or
        :func:`~repro.obs.observation`, which consumes it) and
        :func:`~repro.runtime.governor.governed` — covering every
        registered operation without touching its body.
        """
        if _est.EST.active or _ev.EVT.active or _gv.GOV.active:
            return self._invoke_layered(tables, arguments, fresh)
        return self._invoke_raw(tables, arguments, fresh)

    def _invoke_layered(
        self,
        tables: Sequence[Table],
        arguments: Mapping[str, object],
        fresh: FreshValueSource | None,
    ) -> tuple[Table, ...]:
        """The active layers around one invocation, outermost first.

        Estimation predicts rows-out before and scores the prediction
        after; events publish ``span_start``/``span_finish`` (and
        ``error``), the one record of the op boundary, from which an
        observation builds its op span; the governor's
        ``before_op``/``account`` and the fault plan's
        ``before``/``after`` bracket the op, either may be absent, so a
        call they refuse still closes its span as an error.  Each
        scope's ``.active`` flag is read here, at call time, because
        the supervisor sheds layers by flipping those flags.
        Estimation is telemetry: a stats/estimator defect can never
        alter or kill a run, and its prediction rides on ``span_start``
        so EXPLAIN shows ``est_rows`` without predicting twice.
        """
        estimator = predicted = None
        est = _est.EST
        if est.active and est.estimator is not None:
            estimator = est.estimator
            try:
                predicted = estimator.predict(self.name, tables, arguments)
            except Exception:
                pass
        evented = _ev.EVT.active
        if evented:
            lineage = _obs.counts_provenance()
            start = _flow(tables, _FLOW_IN, lineage)
            if predicted is not None:
                start["est_rows"], start["est_source"] = predicted
            _ev.emit("span_start", op=self.name, **start)
            started = time.perf_counter()
        try:
            gov = _gv.GOV
            governor = faults = None
            if gov.active:
                governor, faults = gov.governor, gov.faults
            if governor is not None:
                governor.before_op(self.name)
            if faults is not None:
                faults.before(self.name)
            produced = self._invoke_raw(tables, arguments, fresh)
            if faults is not None:
                produced = faults.after(self.name, produced)
            if governor is not None:
                governor.account(
                    self.name,
                    sum(t.height for t in produced),
                    sum(t.nrows * t.ncols for t in produced),
                )
        except Exception as err:
            if evented:
                duration_ms = round((time.perf_counter() - started) * 1e3, 3)
                _ev.emit(
                    "error",
                    op=self.name,
                    error=str(err),
                    error_type=type(err).__name__,
                )
                _ev.emit(
                    "span_finish", op=self.name, ok=False, duration_ms=duration_ms
                )
            raise
        if evented:
            _ev.emit(
                "span_finish",
                op=self.name,
                ok=True,
                duration_ms=round((time.perf_counter() - started) * 1e3, 3),
                **_flow(produced, _FLOW_OUT, lineage),
            )
        if predicted is not None:
            try:
                estimator.observe(
                    self.name, predicted, sum(t.height for t in produced)
                )
            except Exception:
                pass
        return produced

    def _invoke_raw(
        self,
        tables: Sequence[Table],
        arguments: Mapping[str, object],
        fresh: FreshValueSource | None,
    ) -> tuple[Table, ...]:
        kwargs = dict(arguments)
        if self.needs_fresh:
            kwargs["source"] = fresh
        if self.aggregate:
            eng = _engine.ENGINE
            if eng.active and eng.backend is not None:
                eng.backend.note_fallback(self.name, "aggregate")
            result = self.function(list(tables), **kwargs)
        else:
            if len(tables) != self.arity:
                raise EvaluationError(
                    f"{self.name} expects {self.arity} argument table(s), got {len(tables)}"
                )
            eng = _engine.ENGINE
            if eng.active and eng.backend is not None:
                if self.needs_fresh:
                    eng.backend.note_fallback(self.name, "needs_fresh")
                elif self.multi_result:
                    eng.backend.note_fallback(self.name, "multi_result")
                else:
                    # Vectorized backend: a kernel may take the invocation;
                    # None means "no kernel / declined" and falls through
                    # to the naive operation below (per-invocation
                    # fallback, attributed by the backend).
                    produced = eng.backend.dispatch(self.name, tables, kwargs)
                    if produced is not None:
                        return (produced,)
            result = self.function(*tables, **kwargs)
        if self.multi_result:
            return tuple(result)
        return (result,)


#: The span-event fields of an op's input and output flow.
_FLOW_IN = ("tables_in", "rows_in", "cols_in", "shapes_in", "prov_cells_in")
_FLOW_OUT = ("tables_out", "rows_out", "cols_out", "shapes_out", "prov_cells_out")


def _flow(tables: Sequence[Table], fields: tuple[str, ...], lineage: bool) -> dict:
    """One side's table, row and column flow, as span-event fields.

    The per-table ``(rows, cols)`` shapes ride along because the cost
    model estimates from them; the count of cells carrying provenance
    rides along when lineage runs under observation.
    """
    shapes = tuple([(t.height, t.width) for t in tables])
    rows = cols = 0
    for height, width in shapes:
        rows += height
        cols += width
    flow = {fields[0]: len(shapes), fields[1]: rows, fields[2]: cols, fields[3]: shapes}
    if lineage:
        flow[fields[4]] = count_prov_cells(tables)
    return flow


def _spec(name, function, arity=1, params=None, **flags) -> tuple[str, OpSpec]:
    return name, OpSpec(name=name, function=function, arity=arity, params=dict(params or {}), **flags)


#: All statement-invocable operations, keyed by their (upper-case) name.
OPERATIONS: dict[str, OpSpec] = dict(
    [
        # Traditional (Section 3.1)
        _spec("UNION", union, arity=2),
        _spec("DIFFERENCE", difference, arity=2),
        _spec("INTERSECTION", intersection, arity=2),
        _spec("PRODUCT", product, arity=2),
        _spec("RENAME", rename, params={"old": PARAM_SINGLE, "new": PARAM_SINGLE}),
        _spec("PROJECT", project, params={"attrs": PARAM_SET}),
        _spec("SELECT", select, params={"left": PARAM_SINGLE, "right": PARAM_SINGLE}),
        _spec(
            "SELECTCONST",
            select_constant,
            params={"attr": PARAM_SINGLE, "value": PARAM_ENTRY},
        ),
        # Restructuring (Section 3.2)
        _spec("GROUP", group, params={"by": PARAM_SET, "on": PARAM_SET}),
        _spec("MERGE", merge, params={"on": PARAM_SET, "by": PARAM_SET}),
        _spec("SPLIT", split, params={"on": PARAM_SET}, multi_result=True),
        _spec("COLLAPSE", collapse, params={"by": PARAM_SET}, aggregate=True),
        # Transposition (Section 3.3)
        _spec("TRANSPOSE", transpose),
        _spec("SWITCH", switch, params={"value": PARAM_ENTRY}),
        # Redundancy removal (Section 3.4)
        _spec("CLEANUP", cleanup, params={"by": PARAM_SET, "on": PARAM_SET}),
        _spec("PURGE", purge, params={"on": PARAM_SET, "by": PARAM_SET}),
        # Tagging (Section 3.5)
        _spec("TUPLENEW", tuplenew, params={"attr": PARAM_SINGLE}, needs_fresh=True),
        _spec("SETNEW", setnew, params={"attr": PARAM_SINGLE}, needs_fresh=True),
        # Derived operations (Sections 3.2/3.4 compositions)
        _spec(
            "PRODUCTSELECT",
            product_select,
            arity=2,
            params={"left": PARAM_SINGLE, "right": PARAM_SINGLE},
        ),
        _spec("CLASSICALUNION", classical_union, arity=2),
        _spec("NATURALJOIN", natural_join, arity=2),
        _spec("DEDUP", deduplicate),
        _spec("DEDUPCOLUMNS", deduplicate_columns),
        _spec("DROPNULLROWS", drop_all_null_rows, params={"attr": PARAM_SINGLE}),
        _spec(
            "CONSTCOLUMN",
            const_column,
            params={"attr": PARAM_SINGLE, "value": PARAM_ENTRY},
        ),
        _spec("GROUPCOMPACT", group_compact, params={"by": PARAM_SET, "on": PARAM_SET}),
        _spec("MERGECOMPACT", merge_compact, params={"on": PARAM_SET, "by": PARAM_SET}),
        _spec(
            "COLLAPSECOMPACT",
            collapse_compact,
            params={"by": PARAM_SET},
            aggregate=True,
        ),
    ]
)
