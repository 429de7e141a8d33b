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
from ...obs.trace import NULL_SPAN
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
        the active ones — :func:`~repro.obs.estimator.estimation`,
        :func:`~repro.obs.events.event_stream`,
        :func:`~repro.runtime.governor.governed` and
        :func:`~repro.obs.observation` — covering every registered
        operation without touching its body.
        """
        if _est.EST.active or _ev.EVT.active or _gv.GOV.active or _obs.OBS.active:
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
        ``error``); the governor's ``before_op``/``account`` and the
        fault plan's ``before``/``after`` bracket the op, either may be
        absent; observation, innermost, times and row/column-accounts
        the op so failed ops still close their spans.  Each scope's
        ``.active`` flag is read here, at call time, because the
        supervisor sheds layers by flipping those flags.  Estimation is
        telemetry: a stats/estimator defect can never alter or kill a
        run, and its prediction rides into the observation span so
        EXPLAIN shows ``est_rows`` without predicting twice.
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
            _ev.emit(
                "span_start",
                op=self.name,
                tables_in=len(tables),
                rows_in=sum(t.height for t in tables),
            )
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
            if _obs.OBS.active:
                produced = self._invoke_observed(tables, arguments, fresh, predicted)
            else:
                produced = self._invoke_raw(tables, arguments, fresh)
            if faults is not None:
                produced = faults.after(self.name, produced)
            if governor is not None:
                governor.account(
                    self.name,
                    sum(t.height for t in produced),
                    sum(t.nrows * t.ncols for t in produced),
                )
                obs = _obs.OBS
                if obs.active and obs.metrics is not None:
                    obs.metrics.count("governor_checks")
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
                tables_out=len(produced),
                rows_out=sum(t.height for t in produced),
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

    def _invoke_observed(
        self,
        tables: Sequence[Table],
        arguments: Mapping[str, object],
        fresh: FreshValueSource | None,
        predicted: tuple[int, str] | None,
    ) -> tuple[Table, ...]:
        obs = _obs.OBS
        # Per-table (height, width) pairs: the cost model estimates from
        # these, so they ride on the span next to the summed figures.
        shapes_in = tuple((t.height, t.width) for t in tables)
        tables_in = len(tables)
        rows_in = sum(shape[0] for shape in shapes_in)
        cols_in = sum(shape[1] for shape in shapes_in)
        cm = obs.tracer.span(self.name) if obs.tracer is not None else NULL_SPAN
        started = time.perf_counter()
        try:
            with cm as sp:
                sp.set(
                    tables_in=tables_in,
                    rows_in=rows_in,
                    cols_in=cols_in,
                    shapes_in=shapes_in,
                )
                # The estimation layer's rows-out prediction: stamped so
                # EXPLAIN shows est_rows from stats (not shape
                # heuristics) wherever stats exist.
                if predicted is not None:
                    sp.set(est_rows=predicted[0], est_source=predicted[1])
                produced = self._invoke_raw(tables, arguments, fresh)
                sp.set(
                    tables_out=len(produced),
                    rows_out=sum(t.height for t in produced),
                    cols_out=sum(t.width for t in produced),
                    shapes_out=tuple((t.height, t.width) for t in produced),
                )
                if obs.lineage is not None:
                    from ...obs.lineage import count_prov_cells

                    sp.set(
                        prov_cells_in=count_prov_cells(tables),
                        prov_cells_out=count_prov_cells(produced),
                    )
        except Exception:
            if obs.metrics is not None:
                obs.metrics.record_op(
                    self.name,
                    time.perf_counter() - started,
                    tables_in=tables_in,
                    rows_in=rows_in,
                    cols_in=cols_in,
                    error=True,
                )
            raise
        if obs.metrics is not None:
            obs.metrics.record_op(
                self.name,
                time.perf_counter() - started,
                tables_in=tables_in,
                tables_out=len(produced),
                rows_in=rows_in,
                rows_out=sum(t.height for t in produced),
                cols_in=cols_in,
                cols_out=sum(t.width for t in produced),
            )
        return produced


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
