"""The fault-tolerant job supervisor: admission, retry, recovery.

:class:`Supervisor` owns the full lifecycle of a hardened run:

1. **admission** — the workload's normalized fingerprint is checked
   against the per-fingerprint :class:`~repro.runtime.policy.CircuitBreaker`;
   an open breaker rejects the submission up front with a typed
   :class:`~repro.core.errors.QuarantinedError` instead of burning
   retry budget on a poison workload.  When a ledger is armed, a
   ``run_start`` record is journaled *before* execution, which is what
   makes crash recovery possible;
2. **execution** — attempts run through
   :func:`~repro.runtime.checkpoint.run_hardened` under the declarative
   :class:`~repro.runtime.policy.RetryPolicy`: each attempt's error is
   classified (``retry`` / ``resume`` / ``degrade`` / ``fail``),
   retryable attempts back off deterministically (``retry_scheduled``
   events) or resume immediately from the checkpoint, vector-engine
   failures fall one rung down the degradation ladder onto the naive
   backend (``engine_degraded``, with a ``degraded`` stamp on the
   result), and memory kills optionally shed the observability layers;
3. **outcome** — success feeds the breaker's success path (half-open
   probes close it) and failure its failure path (threshold crossings
   open it, persisted as ``breaker`` ledger records); either way the
   run closes with a ledger manifest carrying the full supervision
   history — no silent partial results.

:meth:`Supervisor.recover` is the crash-recovery half: it scans the
ledger for runs with a ``run_start`` but no closing record, re-derives
each workload from its recorded spec, and either resumes it from its
checkpoint (emitting ``run_recovered``) or stamps it ``orphaned`` with
a machine-readable reason.

Like :mod:`repro.runtime.chaos`, this module reaches the interpreter
and (lazily) the bundled examples, so it must only be imported lazily —
never from ``repro.runtime``'s ``__init__`` at import time (the package
re-exports it through ``__getattr__``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.errors import (
    BudgetExceededError,
    CancelledError,
    CheckpointError,
    LedgerError,
    QuarantinedError,
    ReproError,
    VerificationError,
    WorkloadSpecError,
)
from ..obs import events as _ev
from .checkpoint import load_checkpoint, run_hardened
from .governor import Limits
from .policy import (
    BreakerPolicy,
    CircuitBreaker,
    RetryPolicy,
    classify_error,
    merge_attempt_limits,
)

__all__ = [
    "AttemptRecord",
    "SupervisedRun",
    "SupervisorStats",
    "RecoveryReport",
    "Supervisor",
    "workload_fingerprint",
]


def workload_fingerprint(program, workload: str = "?") -> str:
    """The breaker key: the normalized program fingerprint.

    Falls back to a digest of the workload label for pipelines the
    normalizer cannot walk — the breaker then still quarantines by
    label instead of not at all.
    """
    import hashlib

    from ..obs.workload import fingerprint_program

    try:
        return fingerprint_program(program)
    except Exception:
        return hashlib.sha256(workload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt's verdict in the supervision history."""

    attempt: int
    engine: str
    resumed: bool
    shed: bool
    error_type: str | None = None
    error: str | None = None
    decision: str | None = None  # retry/resume/degrade/fail; None = succeeded
    backoff_s: float = 0.0

    def to_json(self) -> dict:
        return {
            "attempt": self.attempt,
            "engine": self.engine,
            "resumed": self.resumed,
            "shed": self.shed,
            "error_type": self.error_type,
            "error": self.error,
            "decision": self.decision,
            "backoff_s": round(self.backoff_s, 6),
        }


@dataclass
class SupervisedRun:
    """The outcome of one supervised submission.

    ``outcome`` is ``"ok"`` (``result`` holds the database) or
    ``"failed"`` (``result`` is None and ``error`` holds the terminal
    exception) — a failed supervised run never exposes a partial
    database.  Admission refusal raises
    :class:`~repro.core.errors.QuarantinedError` before a
    ``SupervisedRun`` exists.
    """

    run_id: str
    workload: str
    fingerprint: str
    engine: str  # the engine of the final attempt
    outcome: str = "ok"
    result: object | None = None
    error: BaseException | None = None
    degraded: bool = False
    shed: tuple[str, ...] = ()
    recovered: bool = False
    verified: bool | None = None
    elapsed_s: float = 0.0
    attempts: list[AttemptRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def history(self) -> dict:
        """The supervision history block stamped into manifests/bundles."""
        return {
            "run_id": self.run_id,
            "fingerprint": self.fingerprint,
            "outcome": self.outcome,
            "engine": self.engine,
            "degraded": self.degraded,
            "shed": list(self.shed),
            "recovered": self.recovered,
            "verified": self.verified,
            "attempts": [a.to_json() for a in self.attempts],
        }


@dataclass
class SupervisorStats:
    """Counters the Prometheus export and tests read off a supervisor."""

    decisions: dict[str, int] = field(default_factory=dict)
    backoff_s_total: float = 0.0
    exhausted: int = 0
    quarantined: int = 0
    degraded: dict[str, int] = field(default_factory=dict)
    recovery: dict[str, int] = field(default_factory=dict)

    def count_decision(self, decision: str) -> None:
        self.decisions[decision] = self.decisions.get(decision, 0) + 1

    def count_degraded(self, mode: str) -> None:
        self.degraded[mode] = self.degraded.get(mode, 0) + 1

    def count_recovery(self, outcome: str) -> None:
        self.recovery[outcome] = self.recovery.get(outcome, 0) + 1


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`Supervisor.recover` found and did."""

    scanned: int
    resumed: tuple[dict, ...]
    orphaned: tuple[dict, ...]
    failed: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_json(self) -> dict:
        return {
            "scanned": self.scanned,
            "ok": self.ok,
            "resumed": list(self.resumed),
            "orphaned": list(self.orphaned),
            "failed": list(self.failed),
        }

    def render(self) -> str:
        lines = [
            f"recovery: {self.scanned} open run(s) found — "
            f"{len(self.resumed)} resumed, {len(self.orphaned)} orphaned, "
            f"{len(self.failed)} failed"
        ]
        for entry in self.resumed:
            lines.append(
                f"  resumed   {entry['run_id']}  {entry.get('workload')}  "
                f"({entry.get('attempts')} attempt(s)"
                + (", degraded)" if entry.get("degraded") else ")")
            )
        for entry in self.orphaned:
            lines.append(
                f"  orphaned  {entry['run_id']}  {entry.get('workload')}  "
                f"— {entry.get('reason')}"
            )
        for entry in self.failed:
            lines.append(
                f"  FAILED    {entry['run_id']}  {entry.get('workload')}  "
                f"— {entry.get('error')}"
            )
        return "\n".join(lines)


class _ShedScopes:
    """Temporarily flip the optional observability layers off.

    Under memory pressure the supervisor sheds the layers a run can
    live without — the event feed (and with it every span) and
    estimation — while keeping the governor (the thing enforcing the
    budget) fully armed.  The previous state is restored on exit,
    whatever it was.
    """

    def __init__(self):
        self._saved = []

    def __enter__(self):
        from ..obs import estimator as _est

        for state in (_ev.EVT, _est.EST):
            self._saved.append((state, state.active))
            state.active = False
        return self

    def __exit__(self, *exc):
        for state, active in reversed(self._saved):
            state.active = active
        self._saved.clear()
        return False


class Supervisor:
    """Drives hardened runs under a retry policy with a circuit breaker.

    ``ledger`` (a :class:`~repro.obs.ledger.RunLedger`) arms persistence:
    ``run_start`` admission records, breaker-transition records, and the
    closing run manifest.  ``sleep`` and ``clock`` are injectable for
    tests (the chaos matrix runs with ``sleep=lambda s: None``).
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        breaker_policy: BreakerPolicy | None = None,
        ledger=None,
        sleep=time.sleep,
        clock=time.monotonic,
    ):
        self.policy = policy if policy is not None else RetryPolicy()
        self.ledger = ledger
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(breaker_policy, ledger=ledger)
        )
        self.sleep = sleep
        self.clock = clock
        self.stats = SupervisorStats()
        #: The most recent :class:`SupervisedRun` (survives a raise).
        self.last_run: SupervisedRun | None = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        program,
        db,
        *,
        workload: str = "?",
        spec: str | None = None,
        limits: Limits | None = None,
        faults=None,
        checkpoint_path: str | Path | None = None,
        resume: bool = False,
        engine: str = "naive",
        verify: bool = False,
        max_while_iterations: int = 10_000,
        run_id: str | None = None,
        recorder=None,
        optimizer: dict | None = None,
        _recovered: bool = False,
    ) -> SupervisedRun:
        """Run one workload to a definitive outcome under the policy.

        Returns a :class:`SupervisedRun` with outcome ``ok`` or
        ``failed``; raises :class:`~repro.core.errors.QuarantinedError`
        when the breaker refuses admission.  ``recorder`` (a
        :class:`~repro.obs.ledger.RunRecorder`) takes over manifest
        writing when the caller already folds the event bus; otherwise
        the supervisor writes its own compact manifest to ``ledger``.
        """
        policy = self.policy
        fingerprint = workload_fingerprint(program, workload)
        try:
            self.breaker.admit(fingerprint, workload=workload)
        except QuarantinedError:
            self.stats.quarantined += 1
            raise

        if run_id is None:
            run_id = (
                recorder.run_id
                if recorder is not None
                else _new_run_id()
            )
        run = SupervisedRun(
            run_id=run_id,
            workload=workload,
            fingerprint=fingerprint,
            engine=engine,
            recovered=_recovered,
        )
        self.last_run = run
        if self.ledger is not None and not _recovered:
            self.ledger.record_start(
                {
                    "run_id": run_id,
                    "ts": round(time.time(), 3),
                    "workload": workload,
                    "spec": spec,
                    "engine": engine,
                    "fingerprint": fingerprint,
                    "checkpoint": (
                        str(checkpoint_path) if checkpoint_path is not None else None
                    ),
                    "limits": _limits_json(limits),
                }
            )

        started = self.clock()
        engine_now = engine
        shed_now = False
        fresh_restart = False  # set after a degrade: the checkpoint is stale
        attempt = 0
        result = None
        terminal: BaseException | None = None
        while True:
            attempt += 1
            remaining = None
            if policy.total_deadline_s is not None:
                remaining = policy.total_deadline_s - (self.clock() - started)
                if remaining <= 0:
                    terminal = BudgetExceededError(
                        "supervised run exceeded its total deadline",
                        kind="total_deadline",
                        limit=policy.total_deadline_s,
                        attempt=attempt,
                    )
                    run.attempts.append(
                        AttemptRecord(
                            attempt=attempt,
                            engine=engine_now,
                            resumed=False,
                            shed=shed_now,
                            error_type=type(terminal).__name__,
                            error=str(terminal),
                            decision="fail",
                        )
                    )
                    break
            attempt_limits = merge_attempt_limits(limits, policy, remaining)
            resume_now = (
                checkpoint_path is not None
                and (resume or attempt > 1)
                and not fresh_restart
            )
            fresh_restart = False
            scope = _ShedScopes() if shed_now else _NullScope()
            try:
                with scope:
                    result = run_hardened(
                        program,
                        db,
                        limits=attempt_limits,
                        faults=faults,
                        checkpoint_path=checkpoint_path,
                        resume=resume_now,
                        engine=engine_now,
                        max_while_iterations=max_while_iterations,
                    )
                run.attempts.append(
                    AttemptRecord(
                        attempt=attempt,
                        engine=engine_now,
                        resumed=resume_now,
                        shed=shed_now,
                    )
                )
                break
            except Exception as err:
                decision = classify_error(err, engine_now)
                attempts_left = attempt < policy.max_attempts
                total_ok = True
                if policy.total_deadline_s is not None:
                    total_ok = (self.clock() - started) < policy.total_deadline_s
                backoff = 0.0
                if decision == "degrade":
                    if (
                        engine_now == "vector"
                        and policy.degrade_engine
                        and attempts_left
                        and total_ok
                    ):
                        self._note_degrade(run, "engine", engine_now, "naive")
                        engine_now = "naive"
                        fresh_restart = True
                    else:
                        decision = "fail"
                elif decision in ("retry", "resume"):
                    if not (attempts_left and total_ok):
                        self.stats.exhausted += 1
                        decision = "fail"
                    else:
                        if decision == "retry":
                            backoff = policy.backoff_s(attempt)
                        if (
                            decision == "resume"
                            and policy.shed_obs
                            and not shed_now
                            and getattr(err, "context", {}).get("kind") == "memory"
                        ):
                            # Rung two of the degradation ladder: a
                            # memory kill retries with the optional obs
                            # layers shed.
                            shed_now = True
                            run.shed = ("events", "observation", "estimation")
                            self._note_degrade(run, "obs_shed", "armed", "shed")
                run.attempts.append(
                    AttemptRecord(
                        attempt=attempt,
                        engine=engine_now if decision != "degrade" else "vector",
                        resumed=resume_now,
                        shed=shed_now,
                        error_type=type(err).__name__,
                        error=str(err),
                        decision=decision,
                        backoff_s=backoff,
                    )
                )
                if decision == "fail":
                    terminal = err
                    break
                self.stats.count_decision(decision)
                if _ev.EVT.active:
                    _ev.emit(
                        "retry_scheduled",
                        attempt=attempt,
                        decision=decision,
                        backoff_s=round(backoff, 6),
                        error_type=type(err).__name__,
                        engine=engine_now,
                    )
                if backoff > 0.0:
                    self.stats.backoff_s_total += backoff
                    self.sleep(backoff)

        run.engine = engine_now
        run.elapsed_s = round(self.clock() - started, 6)

        if terminal is None and verify:
            reference = program.run(db)
            identical = result == reference
            run.verified = identical
            if not identical:
                terminal = VerificationError(
                    "supervised result diverged from the ungoverned reference run",
                    fingerprint=fingerprint,
                    run_id=run_id,
                    engine=engine_now,
                )
                result = None

        if terminal is None:
            run.outcome = "ok"
            run.result = result
            self.breaker.record_success(fingerprint)
            if _recovered and _ev.EVT.active:
                _ev.emit(
                    "run_recovered",
                    run_id=run_id,
                    workload=workload,
                    attempts=attempt,
                )
        else:
            run.outcome = "failed"
            run.result = None
            run.error = terminal
            self.breaker.record_failure(fingerprint)

        self._close(
            run, spec=spec, limits=limits, recorder=recorder, optimizer=optimizer
        )
        return run

    def _note_degrade(self, run: SupervisedRun, mode: str, from_, to) -> None:
        if mode == "engine":
            run.degraded = True
        self.stats.count_degraded(mode)
        if _ev.EVT.active:
            _ev.emit("engine_degraded", mode=mode, **{"from": from_, "to": to})

    def _close(
        self, run: SupervisedRun, *, spec, limits, recorder, optimizer=None
    ) -> None:
        """Journal the definitive outcome (manifest + supervision block)."""
        if recorder is not None:
            recorder.finish(
                workload=run.workload,
                engine=run.engine,
                result_db=run.result,
                error=run.error,
                limits=_limits_json(limits),
                attempts=len(run.attempts),
                kills=[
                    a.error
                    for a in run.attempts
                    if a.error is not None and a.decision in ("resume", "retry")
                ],
                replay_spec=spec,
                supervisor=run.history(),
                optimizer=optimizer,
            )
            return
        if self.ledger is None:
            return
        from ..obs.ledger import database_digest

        if run.error is None:
            status = "ok"
        elif isinstance(run.error, (BudgetExceededError, CancelledError)):
            status = "killed"
        else:
            status = "error"
        outcome: dict = {"status": status, "attempts": len(run.attempts)}
        if run.error is not None:
            outcome["error_type"] = type(run.error).__name__
            outcome["error"] = str(run.error)
        result_block = None
        if run.result is not None:
            digest, tables, rows, data = database_digest(run.result)
            result_block = {"sha256": digest, "tables": tables, "rows": rows}
            import json as _json

            payload = _json.dumps(data, separators=(",", ":"))
            if len(payload) <= self.ledger.result_bytes_cap:
                result_block["data"] = data
            else:
                result_block["data"] = None
                result_block["bytes"] = len(payload)
        self.ledger.record(
            {
                "run_id": run.run_id,
                "ts": round(time.time(), 3),
                "workload": {
                    "label": run.workload,
                    "spec": spec,
                    "replayable": spec is not None and result_block is not None,
                },
                "program": {
                    "repr": None,
                    "normalized": None,
                    "fingerprint": run.fingerprint,
                },
                "engine": run.engine,
                "limits": _limits_json(limits),
                "outcome": outcome,
                "elapsed_ms": round(run.elapsed_s * 1e3, 3),
                "result": result_block,
                "supervisor": run.history(),
            }
        )

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def recover(self, *, verify: bool = False) -> RecoveryReport:
        """Resume or orphan every run left open in the ledger.

        An *open* run has a ``run_start`` record but no closing manifest
        (and no prior ``orphaned`` stamp): the recording process died
        mid-run.  For each one the workload is re-derived from the
        recorded spec and resumed from its checkpoint under this
        supervisor's policy; runs that cannot be resumed — unreplayable
        spec, missing or torn checkpoint — are stamped ``orphaned`` with
        the reason, so nothing stays silently half-done.
        """
        if self.ledger is None:
            raise LedgerError("recovery needs a ledger (Supervisor(ledger=...))")
        from .workloads import resolve_workload

        resumed: list[dict] = []
        orphaned: list[dict] = []
        failed: list[dict] = []
        starts = self.ledger.open_runs()
        for start in starts:
            run_id = str(start.get("run_id"))
            workload = str(start.get("workload") or "?")
            spec = start.get("spec")
            engine = str(start.get("engine") or "naive")
            checkpoint = start.get("checkpoint")

            def orphan(reason: str) -> None:
                self.ledger.record_orphan(
                    {
                        "run_id": run_id,
                        "ts": round(time.time(), 3),
                        "workload": workload,
                        "reason": reason,
                    }
                )
                self.stats.count_recovery("orphaned")
                orphaned.append(
                    {"run_id": run_id, "workload": workload, "reason": reason}
                )

            try:
                label, program, db = resolve_workload(spec or "")
            except WorkloadSpecError:
                orphan(f"unreplayable spec {spec!r}")
                continue
            if checkpoint is None:
                orphan("no checkpoint was configured")
                continue
            if not Path(checkpoint).exists():
                orphan(f"checkpoint file {checkpoint} is gone")
                continue
            try:
                load_checkpoint(checkpoint)
            except CheckpointError as err:
                orphan(f"unusable checkpoint: {err}")
                continue
            try:
                run = self.submit(
                    program,
                    db,
                    workload=label,
                    spec=spec,
                    checkpoint_path=checkpoint,
                    resume=True,
                    engine=engine,
                    verify=verify,
                    run_id=run_id,
                    _recovered=True,
                )
            except ReproError as err:
                self.stats.count_recovery("failed")
                failed.append(
                    {"run_id": run_id, "workload": workload, "error": str(err)}
                )
                continue
            entry = {
                "run_id": run_id,
                "workload": label,
                "attempts": len(run.attempts),
                "degraded": run.degraded,
                "outcome": run.outcome,
            }
            if run.ok:
                self.stats.count_recovery("resumed")
                resumed.append(entry)
            else:
                self.stats.count_recovery("failed")
                entry["error"] = str(run.error)
                failed.append(entry)
        return RecoveryReport(
            scanned=len(starts),
            resumed=tuple(resumed),
            orphaned=tuple(orphaned),
            failed=tuple(failed),
        )


class _NullScope:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _new_run_id() -> str:
    from ..obs.ledger import new_run_id

    return new_run_id()


def _limits_json(limits: Limits | None) -> dict | None:
    if limits is None:
        return None
    return {
        "deadline_s": limits.deadline_s,
        "max_rows_per_op": limits.max_rows_per_op,
        "max_cells_per_op": limits.max_cells_per_op,
        "max_total_rows": limits.max_total_rows,
        "max_memory_bytes": limits.max_memory_bytes,
        "max_while_iterations": limits.max_while_iterations,
    }
