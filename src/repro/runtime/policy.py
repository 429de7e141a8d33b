"""Declarative supervision policy: retry/backoff rules and circuit breakers.

This module holds the *decisions* of the fault-tolerant supervisor —
pure data and pure functions, importable without loading the engine —
while :mod:`repro.runtime.supervisor` holds the *mechanics* (driving
:func:`~repro.runtime.checkpoint.run_hardened` under these rules).

Three pieces:

* :class:`RetryPolicy` — a frozen, JSON-round-trippable description of
  how hard to try: attempt cap, exponential backoff with **seeded
  deterministic jitter** (two supervisors with the same seed sleep the
  same schedule, so chaos tests replay exactly), per-attempt and total
  wall-clock deadlines, and the degradation-ladder switches;
* :func:`classify_error` — the error taxonomy mapped to supervision
  decisions.  The Conjunctive Table Algebras axioms make a re-executed
  program equivalent to the original run, which is what licenses the
  retryable classes: a transient injected fault (``retry``), a budget
  kill with checkpointed progress (``resume``), and a vector-engine
  failure (``degrade`` to the naive backend).  Everything rooted in the
  *workload itself* — non-termination, usage errors, verification
  mismatch — is terminal (``fail``): retrying a wrong program yields
  the same wrong answer, deterministically;
* :class:`CircuitBreaker` — per-workload-fingerprint quarantine with
  the classic closed → open → half-open state machine.  State is plain
  data (:meth:`CircuitBreaker.states`) so the run ledger can persist it
  as ``breaker`` records and a restarted supervisor resumes exactly
  where the dead one left off.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace

from ..core.errors import (
    BudgetExceededError,
    CancelledError,
    CheckpointError,
    FaultInjectedError,
    LimitExceededError,
    NonTerminationError,
    QuarantinedError,
    ReproError,
)
from ..obs import events as _ev

__all__ = [
    "DECISIONS",
    "BREAKER_STATES",
    "RetryPolicy",
    "classify_error",
    "BreakerPolicy",
    "CircuitBreaker",
]

#: The supervision-decision vocabulary (what :func:`classify_error`
#: returns and what ``retry_scheduled`` events / attempt records carry).
DECISIONS = ("retry", "resume", "degrade", "fail")

#: The circuit-breaker state machine's states.
BREAKER_STATES = ("closed", "open", "half_open")


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """How hard the supervisor tries before declaring a run dead.

    * ``max_attempts`` — total executions, including the first (1 = no
      retries at all);
    * ``base_backoff_s`` / ``backoff_factor`` / ``max_backoff_s`` — the
      exponential schedule for ``retry`` decisions (``resume`` decisions
      continue immediately: checkpointed progress means waiting buys
      nothing);
    * ``jitter`` — fractional spread (0.1 = ±10%) applied with a
      ``random.Random`` seeded from ``(seed, attempt)``, so the schedule
      is fully deterministic per seed yet de-synchronized across seeds;
    * ``attempt_deadline_s`` — wall-clock cap folded into each attempt's
      governor limits (the per-attempt kill that makes ``resume`` loops
      converge);
    * ``total_deadline_s`` — wall-clock cap over the *whole* supervised
      run, all attempts and backoffs included;
    * ``degrade_engine`` — whether a vector-engine failure retries the
      attempt on the naive backend (with a ``degraded`` stamp);
    * ``shed_obs`` — whether a memory-budget kill sheds the optional
      observability layers (events/metrics/estimation) on the retry.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.01
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    jitter: float = 0.1
    seed: int = 0
    attempt_deadline_s: float | None = None
    total_deadline_s: float | None = None
    degrade_engine: bool = True
    shed_obs: bool = True

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ReproError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ReproError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ReproError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if not (0.0 <= self.jitter <= 1.0):
            raise ReproError(f"jitter must be within [0, 1], got {self.jitter}")

    def backoff_s(self, attempt: int) -> float:
        """Seconds to sleep after ``attempt`` (1-based) fails retryably.

        Exponential in the attempt number, capped, with deterministic
        jitter: the RNG is seeded from an integer mix of the policy seed
        and the attempt number (``PYTHONHASHSEED``-independent), so the
        full schedule replays bit-for-bit for a given policy seed.
        """
        base = min(
            self.base_backoff_s * self.backoff_factor ** (attempt - 1),
            self.max_backoff_s,
        )
        if base <= 0.0 or self.jitter == 0.0:
            return base
        rng = random.Random(self.seed * 1_000_003 + attempt)
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def to_json(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_backoff_s": self.base_backoff_s,
            "backoff_factor": self.backoff_factor,
            "max_backoff_s": self.max_backoff_s,
            "jitter": self.jitter,
            "seed": self.seed,
            "attempt_deadline_s": self.attempt_deadline_s,
            "total_deadline_s": self.total_deadline_s,
            "degrade_engine": self.degrade_engine,
            "shed_obs": self.shed_obs,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RetryPolicy":
        if not isinstance(data, dict):
            raise ReproError(f"a retry policy is a JSON object, got {data!r}")
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ReproError(f"unknown retry-policy field(s) {sorted(unknown)}")
        try:
            return cls(**known)
        except TypeError as err:
            raise ReproError(f"malformed retry policy: {err}") from err


def classify_error(error: BaseException, engine: str = "naive") -> str:
    """Map one attempt's error to a supervision decision.

    * ``retry``   — transient by construction: an injected fault
      (:class:`FaultInjectedError`).  A fresh attempt past the fired
      occurrence converges;
    * ``resume``  — a budget kill (deadline/rows/cells/memory) or
      cooperative cancel: progress up to the last checkpoint is valid
      and determinacy makes resumption equivalent to the original run;
    * ``degrade`` — any other failure on the vector engine (a non-
      :class:`~repro.core.errors.ReproError` exception, or a structural
      error such as a corrupt result).  Retry the attempt one rung down
      the ladder, on the naive backend;
    * ``fail``    — everything rooted in the workload itself:
      non-termination, SETNEW guard trips, checkpoint misuse, usage and
      evaluation errors.  Deterministic programs fail deterministically;
      retrying burns budget without changing the answer.
    """
    if isinstance(error, FaultInjectedError):
        return "retry"
    if isinstance(error, (NonTerminationError, LimitExceededError)):
        return "fail"
    if isinstance(error, (BudgetExceededError, CancelledError)):
        return "resume"
    if isinstance(error, (CheckpointError, QuarantinedError)):
        return "fail"
    if engine == "vector":
        # Any other failure on the vector backend — a crash, a corrupt
        # result rejected by Table validation — may be backend-specific:
        # give the naive engine one shot at it.
        return "degrade"
    return "fail"


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BreakerPolicy:
    """Thresholds of the per-fingerprint circuit breaker.

    ``failure_threshold`` consecutive terminal failures open the
    breaker; after ``cooldown_s`` one half-open probe is admitted — its
    success closes the breaker, its failure re-opens it (and restarts
    the cool-down).
    """

    failure_threshold: int = 3
    cooldown_s: float = 30.0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ReproError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_s < 0:
            raise ReproError(f"cooldown_s must be >= 0, got {self.cooldown_s}")

    def to_json(self) -> dict:
        return {
            "failure_threshold": self.failure_threshold,
            "cooldown_s": self.cooldown_s,
        }


@dataclass
class _BreakerEntry:
    """One fingerprint's live breaker state."""

    state: str = "closed"
    failures: int = 0
    opened_ts: float | None = None
    updated_ts: float = 0.0

    def to_json(self) -> dict:
        return {
            "state": self.state,
            "failures": self.failures,
            "opened_ts": self.opened_ts,
            "updated_ts": self.updated_ts,
        }


class CircuitBreaker:
    """Per-workload-fingerprint quarantine (closed / open / half-open).

    ``ledger`` (a :class:`~repro.obs.ledger.RunLedger`), when given,
    does two things: previously persisted ``breaker`` records seed the
    in-memory state at construction (quarantine survives restarts), and
    every transition appends a fresh record.  ``clock`` is wall-clock
    (:func:`time.time`) because the cool-down must survive a process
    restart; tests inject a fake.
    """

    def __init__(self, policy: BreakerPolicy | None = None, ledger=None, clock=time.time):
        self.policy = policy if policy is not None else BreakerPolicy()
        self.ledger = ledger
        self.clock = clock
        self._entries: dict[str, _BreakerEntry] = {}
        #: Transition counts keyed by ``(from_state, to_state)``.
        self.transitions: dict[tuple[str, str], int] = {}
        if ledger is not None:
            for fingerprint, record in ledger.breaker_states().items():
                state = str(record.get("state", "closed"))
                if state not in BREAKER_STATES:
                    continue
                self._entries[fingerprint] = _BreakerEntry(
                    state=state,
                    failures=int(record.get("failures", 0) or 0),
                    opened_ts=record.get("opened_ts"),
                    updated_ts=float(record.get("updated_ts", 0.0) or 0.0),
                )

    # -- reads ----------------------------------------------------------

    def state(self, fingerprint: str) -> str:
        """The current state for one fingerprint (``closed`` if unseen)."""
        entry = self._entries.get(fingerprint)
        return entry.state if entry is not None else "closed"

    def states(self) -> dict[str, dict]:
        """Every tracked fingerprint's state as plain data."""
        return {fp: entry.to_json() for fp, entry in self._entries.items()}

    # -- the state machine ----------------------------------------------

    def _transition(self, fingerprint: str, entry: _BreakerEntry, to_state: str) -> None:
        from_state = entry.state
        entry.state = to_state
        entry.updated_ts = self.clock()
        if to_state == "open":
            entry.opened_ts = entry.updated_ts
        elif to_state == "closed":
            entry.opened_ts = None
            entry.failures = 0
        key = (from_state, to_state)
        self.transitions[key] = self.transitions.get(key, 0) + 1
        if _ev.EVT.active:
            _ev.emit(
                "breaker_transition",
                fingerprint=fingerprint,
                from_state=from_state,
                to_state=to_state,
                failures=entry.failures,
            )
        self._persist(fingerprint, entry)

    def _persist(self, fingerprint: str, entry: _BreakerEntry) -> None:
        if self.ledger is not None:
            self.ledger.record_breaker(
                {"fingerprint": fingerprint, **entry.to_json()}
            )

    def admit(self, fingerprint: str, workload: str | None = None) -> str:
        """Gate one submission; returns the admitting state.

        ``closed`` and ``half_open`` admit (half-open admits exactly the
        probe: the breaker moves to half-open as the probe enters, so a
        concurrent second submission still sees ``open``).  ``open``
        raises a typed :class:`~repro.core.errors.QuarantinedError`
        until the cool-down has elapsed.
        """
        entry = self._entries.get(fingerprint)
        if entry is None or entry.state == "closed":
            return "closed"
        if entry.state == "half_open":
            return "half_open"
        # state == "open"
        elapsed = self.clock() - (entry.opened_ts or 0.0)
        if elapsed >= self.policy.cooldown_s:
            self._transition(fingerprint, entry, "half_open")
            return "half_open"
        retry_after = round(self.policy.cooldown_s - elapsed, 3)
        raise QuarantinedError(
            "workload quarantined by open circuit breaker",
            fingerprint=fingerprint,
            workload=workload,
            state="open",
            failures=entry.failures,
            retry_after_s=retry_after,
        )

    def record_success(self, fingerprint: str) -> None:
        """A supervised run of this fingerprint completed correctly."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            return
        if entry.state == "half_open":
            self._transition(fingerprint, entry, "closed")
        elif entry.failures:
            entry.failures = 0
            entry.updated_ts = self.clock()
            # Persist the reset: the failure streak it clears was
            # persisted, so a restart must not resurrect it.
            self._persist(fingerprint, entry)

    def record_failure(self, fingerprint: str) -> None:
        """A supervised run of this fingerprint failed terminally."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            entry = self._entries[fingerprint] = _BreakerEntry()
        entry.failures += 1
        entry.updated_ts = self.clock()
        if entry.state == "half_open":
            self._transition(fingerprint, entry, "open")
        elif entry.state == "closed" and entry.failures >= self.policy.failure_threshold:
            self._transition(fingerprint, entry, "open")
        else:
            # Below-threshold failures must survive restarts too, or a
            # poison workload resubmitted across processes never trips
            # the breaker.
            self._persist(fingerprint, entry)

    def __repr__(self) -> str:
        open_count = sum(1 for e in self._entries.values() if e.state == "open")
        return (
            f"CircuitBreaker({len(self._entries)} fingerprint(s), "
            f"{open_count} open)"
        )


def merge_attempt_limits(limits, policy: RetryPolicy, remaining_total_s: float | None):
    """Fold the policy's deadlines into one attempt's governor limits.

    The effective per-attempt deadline is the tightest of the caller's
    ``limits.deadline_s``, the policy's ``attempt_deadline_s``, and the
    remaining share of the total deadline.  Returns a
    :class:`~repro.runtime.governor.Limits` (possibly the input object
    unchanged when the policy adds nothing).
    """
    from .governor import Limits

    candidates = [
        s
        for s in (
            limits.deadline_s if limits is not None else None,
            policy.attempt_deadline_s,
            remaining_total_s,
        )
        if s is not None
    ]
    if not candidates:
        return limits if limits is not None else Limits()
    deadline = min(candidates)
    if limits is None:
        return Limits(deadline_s=deadline)
    if limits.deadline_s == deadline:
        return limits
    return replace(limits, deadline_s=deadline)
