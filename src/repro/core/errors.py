"""Exception hierarchy for the tabular database reproduction.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch one type to handle any model- or algebra-level failure while letting
genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ContextualError(ReproError):
    """A :class:`ReproError` carrying structured execution context.

    ``context`` holds the machine-readable fields handlers branch on —
    op name, statement index, while-loop iteration, rows produced so
    far, the tripped limit.  The rendered message appends them as
    ``key=value`` pairs so logs stay greppable while programmatic
    callers read the attributes directly (``err.op``, ``err.iteration``,
    …).  Fields that are ``None`` are dropped, so bare raises
    (``NonTerminationError("msg")``) keep working unchanged.
    """

    def __init__(self, message: str, **context):
        self.context = {k: v for k, v in context.items() if v is not None}
        suffix = ""
        if self.context:
            rendered = ", ".join(f"{k}={v}" for k, v in self.context.items())
            suffix = f" [{rendered}]"
        super().__init__(message + suffix)

    def __getattr__(self, name: str):
        try:
            return self.__dict__["context"][name]
        except KeyError:
            raise AttributeError(name) from None


class SchemaError(ReproError):
    """A table, database, or relation violates a structural requirement.

    Examples: a ragged grid, an empty grid, a relation tuple whose arity
    does not match its schema, or a canonical representation instance that
    violates one of the ``Rep`` functional dependencies.
    """


class UndefinedOperationError(ReproError):
    """A tabular algebra operation was applied outside its domain.

    The paper leaves an operation's effect *undefined* when, for instance, a
    parameter that must denote a single column attribute matches several
    attributes, or a grouping attribute occurs in no column at all.  We
    surface those situations as this exception rather than guessing.
    """


class BudgetExceededError(ContextualError):
    """A hardened-runtime resource budget tripped.

    The :class:`repro.runtime.governor.ResourceGovernor` raises this for
    wall-clock deadlines (``kind="deadline"``), per-op and per-program
    row/cell budgets (``"rows"``/``"cells"``/``"total_rows"``), memory
    high-water marks (``"memory"``), and governor-level while-iteration
    caps (``"iterations"``).  The context carries the op name, statement
    index, iteration, the limit, and the amount used when it tripped.
    """


class CancelledError(ContextualError):
    """Execution was cooperatively cancelled via the resource governor.

    :meth:`repro.runtime.governor.ResourceGovernor.cancel` sets a flag
    (safe to call from another thread or a signal handler); the next
    chokepoint check — op dispatch, statement entry, while tick — raises
    this instead of starting more work.
    """


def outcome_status(error: BaseException | None) -> str:
    """A run's recorded outcome: ``ok`` (no error), ``killed`` or ``error``."""
    if error is None:
        return "ok"
    return "killed" if isinstance(error, (BudgetExceededError, CancelledError)) else "error"


class LimitExceededError(BudgetExceededError):
    """A resource guard tripped (e.g. SETNEW on too many data rows).

    ``SETNEW`` enumerates all non-empty subsets of the data rows and is
    therefore exponential by design (it is the power-set construct needed
    for completeness).  A configurable guard raises this error instead of
    exhausting memory.
    """


class NonTerminationError(BudgetExceededError):
    """A ``while`` program exceeded its iteration budget.

    Tabular algebra with iteration is Turing-complete, so the interpreter
    enforces a caller-configurable bound on loop iterations.
    """


class FaultInjectedError(ContextualError):
    """A chaos-engineering fault plan fired a ``raise`` fault.

    Raised at an op boundary by :class:`repro.runtime.faults.FaultPlan`;
    the context names the op, the matching rule's occurrence, and the
    plan's seed, so chaos-test failures reproduce deterministically.
    """


class QuarantinedError(ContextualError):
    """A workload was refused admission by an open circuit breaker.

    The :class:`repro.runtime.policy.CircuitBreaker` opens after a
    configurable number of consecutive failures of one workload
    fingerprint; until the cool-down elapses, submissions of that
    fingerprint are rejected up front with this error instead of
    burning retry budget on a poison workload.  The context carries the
    fingerprint, the breaker state, and the seconds until the next
    half-open probe is allowed.
    """


class VerificationError(ContextualError):
    """A supervised run finished but its result diverged from the reference.

    Verification re-executes the program ungoverned on the naive engine
    and compares databases; a mismatch is *terminal* — retrying an
    execution that completed with the wrong answer cannot help, so the
    supervisor fails the run (and feeds the circuit breaker) instead.
    """


class CheckpointError(ReproError):
    """A checkpoint file could not be written, read, or applied.

    Covers unreadable/corrupt files, format-version mismatches, and a
    checkpoint taken from a *different* program than the one resuming
    (the program fingerprint is verified before any state is restored).
    """


class ExternalToolError(ContextualError):
    """An external tool invocation (e.g. the git SHA probe) failed.

    Used by the benchmark-trajectory machinery to surface subprocess
    timeouts and failures as a typed error instead of an unhandled
    exception killing ``bench-compare``.
    """


class StatsError(ReproError):
    """A statistics snapshot could not be computed, written, or read.

    Covers unreadable/corrupt stats files, schema-version mismatches,
    and an invalid ANALYZE parameter (a non-positive top-K).
    """


class LedgerError(ReproError):
    """A run-ledger directory could not be written, read, or applied.

    Covers unreadable/corrupt ledger segments, schema-version
    mismatches (a ledger written by a different format cannot be
    silently reinterpreted), unknown run ids, and runs recorded without
    enough state to replay.
    """


class WorkloadSpecError(ReproError):
    """A workload spec (``tc:N``, ``chain:N``, ``restructure:N``, an
    example name) that resolves to no runnable TA program; the
    subclasses say why."""


class MalformedSpecError(WorkloadSpecError):
    """A recognized workload kind with an unusable size (``tc:x``, ``tc:1``)."""


class UnknownSpecError(WorkloadSpecError):
    """A spec naming no workload kind and no bundled example, or an
    example prefix matching several; the message is the diagnosis."""


class NotAProgramError(WorkloadSpecError):
    """A bundled example whose pipeline is not a TA program over a
    tabular database (the OLAP bridges), so nothing can run it as one."""


class ParseError(ReproError):
    """A textual tabular algebra or SchemaLog program failed to parse."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + location)
        self.line = line
        self.column = column


class EvaluationError(ReproError):
    """A program (TA, FO+while+new, SchemaLog, GOOD) failed during evaluation."""
