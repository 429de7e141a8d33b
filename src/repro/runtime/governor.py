"""The resource governor: deadlines, row/cell/memory budgets, cancellation.

The hardened execution runtime mirrors the observability stack's
architecture (:mod:`repro.obs.runtime`): one module-level singleton,
:data:`GOV`, is consulted at every chokepoint — the op registry's
``dispatch``, the TA interpreter's statements and while loops, the
FO+while budget, and the four frontend compilers.  When ``GOV.active``
is False — the default — every call site falls through after a single
attribute check and no governor code runs; the zero-allocation tests pin
that down exactly like the obs "strict no-op" contract.

:func:`governed` is the way to switch enforcement on::

    from repro.runtime import Limits, governed

    with governed(Limits(deadline_s=0.5, max_total_rows=100_000)):
        program.run(db)      # raises BudgetExceededError when a limit trips

Scopes nest and restore the previous state on exit, so a library callee
installing its own governor cannot clobber the caller's.  A
:class:`~repro.runtime.faults.FaultPlan` rides on the same state
(``GOV.faults``) so fault injection shares the chokepoints.

Budgets raise the structured taxonomy under
:class:`~repro.core.errors.ReproError`:
:class:`~repro.core.errors.BudgetExceededError` (with ``kind``, the
limit, the usage, and op/statement/iteration context) and
:class:`~repro.core.errors.CancelledError` for cooperative cancellation.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..core.errors import BudgetExceededError, CancelledError, NonTerminationError
from ..obs import events as _ev

__all__ = [
    "GOV",
    "Limits",
    "ResourceGovernor",
    "IterationBudget",
    "governed",
]


class _GovState:
    """The mutable global: one attribute check guards every hot path."""

    __slots__ = ("active", "governor", "faults")

    def __init__(self):
        self.active = False
        #: The installed :class:`ResourceGovernor`, or None.
        self.governor = None
        #: The installed :class:`repro.runtime.faults.FaultPlan`, or None.
        self.faults = None


#: The process-wide governor state consulted by all chokepoints.
GOV = _GovState()


@dataclass(frozen=True)
class Limits:
    """The resource budgets one :class:`ResourceGovernor` enforces.

    Every field defaults to "unlimited"; set only what you need.

    * ``deadline_s`` — wall-clock budget for the whole governed scope;
    * ``max_rows_per_op`` / ``max_cells_per_op`` — blast-radius caps on a
      single op invocation's output (``PRODUCT``/``TUPLENEW`` blowup);
    * ``max_total_rows`` — cumulative rows emitted across all ops;
    * ``max_memory_bytes`` — traced-allocation high-water mark (enforced
      while :mod:`tracemalloc` is tracing, e.g. under the profiler);
    * ``max_while_iterations`` — governor-level cap on any single while
      loop, layered under the interpreter's own per-run budget.
    """

    deadline_s: float | None = None
    max_rows_per_op: int | None = None
    max_cells_per_op: int | None = None
    max_total_rows: int | None = None
    max_memory_bytes: int | None = None
    max_while_iterations: int | None = None

    def to_json(self) -> dict:
        """The budgets that are set, by field name.

        The one rendering of a :class:`Limits`: run manifests, ``run_start``
        records and the ``governed`` boundary all carry it.
        """
        return {name: value for name, value in vars(self).items() if value is not None}


class ResourceGovernor:
    """Enforces one :class:`Limits` over a governed scope.

    The governor is deliberately dumb and fast: chokepoints call
    :meth:`before_op` / :meth:`account` / :meth:`while_tick` /
    :meth:`check`, each a handful of comparisons; any tripped budget
    raises with full context (op name, statement index, iteration, rows
    so far).  ``statement`` is maintained by the interpreter's hardened
    statement loop so errors raised deep inside an op still report which
    program statement was executing.
    """

    __slots__ = (
        "limits",
        "started",
        "deadline_at",
        "cancelled",
        "cancel_reason",
        "rows_emitted",
        "cells_emitted",
        "ops_dispatched",
        "statement",
    )

    def __init__(self, limits: Limits | None = None):
        self.limits = limits if limits is not None else Limits()
        self.started = time.perf_counter()
        self.deadline_at = (
            self.started + self.limits.deadline_s
            if self.limits.deadline_s is not None
            else None
        )
        self.cancelled = False
        self.cancel_reason: str | None = None
        self.rows_emitted = 0
        self.cells_emitted = 0
        self.ops_dispatched = 0
        #: Index of the top-level statement currently executing, or None.
        self.statement: int | None = None

    # -- cooperative cancellation --------------------------------------

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Request cancellation; safe from other threads/signal handlers.

        The flag is checked at every chokepoint, so a long-running
        program stops at the next op dispatch, statement entry, or while
        tick rather than mid-operation.
        """
        self.cancel_reason = reason
        self.cancelled = True

    # -- chokepoint checks ---------------------------------------------

    def _kill_event(
        self,
        kind: str,
        limit,
        used,
        op: str | None = None,
        iteration: int | None = None,
    ) -> None:
        """Publish a ``governor_kill`` event just before the budget raise."""
        if _ev.EVT.active:
            _ev.emit(
                "governor_kill",
                kind=kind,
                limit=limit,
                used=used,
                op=op,
                statement=self.statement,
                iteration=iteration,
            )

    def check(self, op: str | None = None, iteration: int | None = None) -> None:
        """Deadline + cancellation + memory check (the cheap, common one)."""
        if self.cancelled:
            self._kill_event("cancelled", None, None, op=op, iteration=iteration)
            raise CancelledError(
                self.cancel_reason or "execution cancelled",
                op=op,
                statement=self.statement,
                iteration=iteration,
            )
        if self.deadline_at is not None and time.perf_counter() > self.deadline_at:
            elapsed = round(time.perf_counter() - self.started, 4)
            self._kill_event(
                "deadline", self.limits.deadline_s, elapsed, op=op, iteration=iteration
            )
            raise BudgetExceededError(
                "wall-clock deadline exceeded",
                kind="deadline",
                limit=self.limits.deadline_s,
                elapsed=elapsed,
                op=op,
                statement=self.statement,
                iteration=iteration,
            )
        cap = self.limits.max_memory_bytes
        if cap is not None and tracemalloc.is_tracing():
            current, _peak = tracemalloc.get_traced_memory()
            if current > cap:
                self._kill_event("memory", cap, current, op=op, iteration=iteration)
                raise BudgetExceededError(
                    "memory high-water mark exceeded",
                    kind="memory",
                    limit=cap,
                    used=current,
                    op=op,
                    statement=self.statement,
                    iteration=iteration,
                )

    def before_op(self, op: str) -> None:
        """Called by the registry before dispatching one op invocation."""
        self.ops_dispatched += 1
        self.check(op=op)

    def account(self, op: str, rows: int, cells: int) -> None:
        """Charge one op invocation's output against the row/cell budgets."""
        self.rows_emitted += rows
        self.cells_emitted += cells
        limits = self.limits
        if limits.max_rows_per_op is not None and rows > limits.max_rows_per_op:
            self._kill_event("rows", limits.max_rows_per_op, rows, op=op)
            raise BudgetExceededError(
                f"{op} produced too many rows in one invocation",
                kind="rows",
                limit=limits.max_rows_per_op,
                used=rows,
                op=op,
                statement=self.statement,
            )
        if limits.max_cells_per_op is not None and cells > limits.max_cells_per_op:
            self._kill_event("cells", limits.max_cells_per_op, cells, op=op)
            raise BudgetExceededError(
                f"{op} produced too many cells in one invocation",
                kind="cells",
                limit=limits.max_cells_per_op,
                used=cells,
                op=op,
                statement=self.statement,
            )
        if (
            limits.max_total_rows is not None
            and self.rows_emitted > limits.max_total_rows
        ):
            self._kill_event(
                "total_rows", limits.max_total_rows, self.rows_emitted, op=op
            )
            raise BudgetExceededError(
                "cumulative row budget exhausted",
                kind="total_rows",
                limit=limits.max_total_rows,
                used=self.rows_emitted,
                op=op,
                statement=self.statement,
            )
        # A delayed op (fault injection, genuinely slow operator) must not
        # slip past the deadline just because no further op is dispatched.
        self.check(op=op)

    def while_tick(
        self, condition: str, iteration: int, statement: int | None = None
    ) -> None:
        """Called once per while-loop iteration by both interpreters."""
        if _ev.EVT.active:
            # Budget headroom, once per tick: the progress feed's view of
            # how close the loop is to a deadline / row-cap kill.
            _ev.emit(
                "governor_budget",
                condition=condition,
                iteration=iteration,
                elapsed_s=round(time.perf_counter() - self.started, 6),
                deadline_s=self.limits.deadline_s,
                rows_emitted=self.rows_emitted,
                max_total_rows=self.limits.max_total_rows,
                max_while_iterations=self.limits.max_while_iterations,
            )
        self.check(op=None, iteration=iteration)
        cap = self.limits.max_while_iterations
        if cap is not None and iteration > cap:
            self._kill_event("iterations", cap, iteration, iteration=iteration)
            raise NonTerminationError(
                f"while loop on {condition} exceeded the governor's iteration budget",
                kind="iterations",
                condition=condition,
                iteration=iteration,
                limit=cap,
                statement=statement if statement is not None else self.statement,
            )

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> dict:
        """The governor's counters, for trace spans and CLI summaries."""
        return {
            "ops_dispatched": self.ops_dispatched,
            "rows_emitted": self.rows_emitted,
            "cells_emitted": self.cells_emitted,
            "elapsed_s": round(time.perf_counter() - self.started, 6),
            "cancelled": self.cancelled,
        }

    def __repr__(self) -> str:
        return (
            f"ResourceGovernor(ops={self.ops_dispatched}, "
            f"rows={self.rows_emitted}, cancelled={self.cancelled})"
        )


class IterationBudget:
    """The FO+while interpreter's program-wide while-iteration budget.

    Each tick also ticks the installed governor, as the TA interpreter's
    per-loop counter does through
    :meth:`~repro.algebra.programs.statements.While.tick`, so one
    governed scope sees every loop tick regardless of which language is
    executing.  Exhaustion raises
    :class:`~repro.core.errors.NonTerminationError` with structured
    context instead of a bare string.
    """

    __slots__ = ("limit", "used", "label")

    def __init__(self, limit: int, label: str = "while"):
        self.limit = limit
        self.used = 0
        self.label = label

    @property
    def remaining(self) -> int:
        """Ticks left before exhaustion (compat with the old ``_Budget``)."""
        return self.limit - self.used

    def tick(self, condition: str | None = None) -> None:
        self.used += 1
        gov = GOV
        if gov.active and gov.governor is not None:
            gov.governor.while_tick(
                condition if condition is not None else self.label, self.used
            )
        if self.used > self.limit:
            raise NonTerminationError(
                f"{self.label} iteration budget exhausted",
                kind="iterations",
                condition=condition,
                iteration=self.used,
                limit=self.limit,
            )


@contextmanager
def governed(
    limits: Limits | None = None,
    faults=None,
    governor: ResourceGovernor | None = None,
) -> Iterator[ResourceGovernor]:
    """Enable resource governance (and/or fault injection) for a scope.

    Installs a fresh :class:`ResourceGovernor` over ``limits`` (or the
    given ``governor``) plus an optional fault plan, restoring the
    previous state on exit so scopes nest.  With the event feed on, the
    whole governed region is a ``governed`` boundary carrying the limits
    on entry and the governor's counters on exit — budget trips
    therefore close it with ``ok`` false and surface as errored spans in
    EXPLAIN.
    """
    gov = governor if governor is not None else ResourceGovernor(limits)
    previous = (GOV.active, GOV.governor, GOV.faults)
    GOV.governor, GOV.faults = gov, faults
    GOV.active = True
    try:
        region = _ev.NO_BOUNDARY
        if _ev.EVT.active:
            region = _ev.Boundary("governed", limits=gov.limits.to_json())
        with region as boundary:
            yield gov
            if boundary is not None:
                boundary.set(governor=gov.snapshot())
    finally:
        GOV.active, GOV.governor, GOV.faults = previous
