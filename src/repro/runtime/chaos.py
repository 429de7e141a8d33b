"""The chaos harness: a fault-injection matrix over bundled pipelines.

For each target pipeline the harness first runs a *probe* pass (a
rule-less :class:`~repro.runtime.faults.FaultPlan` simply counts op
dispatches) to discover the injection points, then replays the pipeline
once per ``(op, fault kind)`` matrix point with a single-rule plan
installed.  Each point must:

* surface as a typed :class:`~repro.core.errors.ReproError` subclass
  (never a bare ``Exception``, never silent success);
* carry op context (``raise`` faults name the op and occurrence);
* leave no partial mutation behind — the pipeline re-runs cleanly
  afterwards and reproduces the reference result exactly.

``python -m repro chaos`` drives this over the bundled examples (the CI
chaos-smoke job's first half); the report renders as a matrix table with
one verdict per point.

This module imports the engine via :mod:`repro.obs.examples`, so — like
that module — it must only be imported lazily (from the CLI or tests),
never from :mod:`repro.runtime`'s ``__init__``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import (
    BudgetExceededError,
    FaultInjectedError,
    NotAProgramError,
    ReproError,
    SchemaError,
)
from .faults import FaultPlan, FaultRule
from .governor import Limits, governed

__all__ = [
    "ChaosPoint",
    "ChaosReport",
    "run_chaos_matrix",
    "render_chaos_report",
    "SupervisorPoint",
    "SupervisorReport",
    "run_supervisor_matrix",
    "render_supervisor_report",
]

#: Deadline/delay pairing for ``delay`` faults: the injected sleep must
#: overshoot the governed deadline by a comfortable CI-safe margin.
DELAY_DEADLINE_S = 0.05
DELAY_SLEEP_S = 0.25

#: Expected error taxonomy per fault kind.
EXPECTED_ERRORS = {
    "raise": FaultInjectedError,
    "delay": BudgetExceededError,
    "corrupt": SchemaError,
}


@dataclass(frozen=True)
class ChaosPoint:
    """One matrix point's verdict."""

    example: str
    op: str
    kind: str
    error_type: str | None  # the raised ReproError subclass, or None
    typed: bool  # raised and isinstance of the expected type
    context_ok: bool  # structured context present where promised
    atomic: bool  # clean re-run still reproduces the reference

    @property
    def ok(self) -> bool:
        return self.typed and self.context_ok and self.atomic


@dataclass(frozen=True)
class ChaosReport:
    points: tuple[ChaosPoint, ...]
    seed: int

    @property
    def failures(self) -> tuple[ChaosPoint, ...]:
        return tuple(p for p in self.points if not p.ok)

    @property
    def ok(self) -> bool:
        return not self.failures


def _chaos_targets(names=None) -> dict:
    """The setup-capable bundled examples (db + run separable)."""
    from ..obs.examples import EXAMPLES
    from .workloads import lookup_example

    if not names:
        return {n: ex for n, ex in EXAMPLES.items() if ex.setup is not None}
    out = {}
    for example in map(lookup_example, names):
        if example.setup is None:
            raise NotAProgramError(
                f"example {example.name!r} is not chaos-capable (no setup hook)"
            )
        out[example.name] = example
    return out


def _probe(example) -> tuple[dict[str, int], object]:
    """Dispatch counts and the reference result of one clean run."""
    probe_plan = FaultPlan()
    db, run = example.setup()
    with governed(faults=probe_plan):
        reference = run(db)
    return probe_plan.dispatch_counts(), reference


def _run_point(example, rule: FaultRule, seed: int):
    """One injected run; returns the raised error (or None)."""
    plan = FaultPlan([rule], seed=seed)
    limits = Limits(deadline_s=DELAY_DEADLINE_S) if rule.kind == "delay" else None
    db, run = example.setup()
    try:
        with governed(limits, faults=plan):
            run(db)
    except ReproError as err:
        return err
    return None


def run_chaos_matrix(names=None, kinds=None, seed: int = 0) -> ChaosReport:
    """Run the full injection matrix; see the module docstring."""
    kinds = tuple(kinds) if kinds else ("raise", "delay", "corrupt")
    points: list[ChaosPoint] = []
    for name, example in _chaos_targets(names).items():
        counts, reference = _probe(example)
        for op in sorted(counts):
            for kind in kinds:
                rule = FaultRule(
                    op=op, kind=kind, occurrence=1, delay_s=DELAY_SLEEP_S
                )
                err = _run_point(example, rule, seed)
                expected = EXPECTED_ERRORS[kind]
                typed = isinstance(err, expected)
                context_ok = True
                if kind == "raise":
                    context_ok = (
                        typed
                        and getattr(err, "op", None) == op
                        and getattr(err, "occurrence", None) == 1
                    )
                elif kind == "delay":
                    context_ok = typed and getattr(err, "kind", None) == "deadline"
                # Atomicity at the process level: nothing the fault touched
                # may leak into a later run — the clean pipeline must still
                # reproduce the reference exactly.
                db, run = example.setup()
                atomic = run(db) == reference
                points.append(
                    ChaosPoint(
                        example=name,
                        op=op,
                        kind=kind,
                        error_type=type(err).__name__ if err is not None else None,
                        typed=typed,
                        context_ok=context_ok,
                        atomic=atomic,
                    )
                )
    return ChaosReport(points=tuple(points), seed=seed)


# ----------------------------------------------------------------------
# The supervisor decision matrix
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SupervisorPoint:
    """One (error class × policy × engine) cell's verdict.

    ``expected``/``observed`` are supervision decisions: ``retried``
    (a transient fault was retried to success), ``resumed`` (a budget
    kill resumed from the checkpoint), ``degraded`` (a vector-engine
    failure fell back to the naive backend), ``failed`` (a terminal
    error was surfaced typed, with no result), ``quarantined`` (an open
    breaker refused admission).  ``identical`` asserts no silent partial
    results: a successful cell's database is byte-identical to the
    unfaulted reference, and a failed cell exposes *no* database while a
    clean re-run still reproduces the reference.
    """

    cell: str
    error_class: str
    policy: str
    engine: str
    expected: str
    observed: str
    error_type: str | None
    identical: bool

    @property
    def ok(self) -> bool:
        return self.observed == self.expected and self.identical


@dataclass(frozen=True)
class SupervisorReport:
    points: tuple[SupervisorPoint, ...]
    seed: int

    @property
    def failures(self) -> tuple[SupervisorPoint, ...]:
        return tuple(p for p in self.points if not p.ok)

    @property
    def ok(self) -> bool:
        return not self.failures


def _observed_decision(run) -> str:
    """Collapse one SupervisedRun into the matrix's decision vocabulary."""
    if not run.ok:
        return "failed"
    if run.degraded:
        return "degraded"
    decisions = {a.decision for a in run.attempts if a.decision is not None}
    if "resume" in decisions:
        return "resumed"
    if "retry" in decisions:
        return "retried"
    return "clean"


def run_supervisor_matrix(seed: int = 0, nodes: int = 8) -> SupervisorReport:
    """Prove every supervision path on one deterministic workload.

    Each cell pairs an error class (injected fault, deadline kill via an
    injected delay, corrupt op output, non-termination, poison
    workload) with a retry policy and an engine, submits ``tc:nodes``
    through a fresh :class:`~repro.runtime.supervisor.Supervisor`, and
    asserts the documented decision *and* byte-identical results (or a
    typed failure with no result at all).  Deadline cells trigger the
    kill with a ``delay`` fault that overshoots the governed deadline,
    so the matrix stays deterministic on any machine: fault occurrence
    counts persist across attempts inside one plan, which is also why a
    retried/resumed attempt converges instead of re-dying.
    """
    import tempfile
    from pathlib import Path

    from ..core.errors import QuarantinedError
    from ..obs.ledger import database_digest
    from .policy import BreakerPolicy, RetryPolicy
    from .supervisor import Supervisor
    from .workloads import transitive_closure_workload

    retrying = RetryPolicy(
        max_attempts=300, base_backoff_s=0.0, seed=seed, jitter=0.0
    )
    single = RetryPolicy(max_attempts=1, seed=seed)

    def raise_plan():
        return FaultPlan([FaultRule(op="DIFFERENCE", kind="raise")], seed=seed)

    def delay_plan():
        return FaultPlan(
            [FaultRule(op="DIFFERENCE", kind="delay", delay_s=DELAY_SLEEP_S)],
            seed=seed,
        )

    def corrupt_plan():
        return FaultPlan([FaultRule(op="DIFFERENCE", kind="corrupt")], seed=seed)

    deadline = Limits(deadline_s=DELAY_DEADLINE_S)
    cells = [
        # (cell, error class, policy label, engine, faults, policy,
        #  limits, max_while, expected decision)
        ("raise/retry/naive", "FaultInjected", "retry", "naive",
         raise_plan, retrying, None, 10_000, "retried"),
        ("raise/retry/vector", "FaultInjected", "retry", "vector",
         raise_plan, retrying, None, 10_000, "retried"),
        ("raise/single/naive", "FaultInjected", "no-retry", "naive",
         raise_plan, single, None, 10_000, "failed"),
        ("deadline/retry/naive", "BudgetExceeded", "retry", "naive",
         delay_plan, retrying, deadline, 10_000, "resumed"),
        ("deadline/retry/vector", "BudgetExceeded", "retry", "vector",
         delay_plan, retrying, deadline, 10_000, "resumed"),
        ("deadline/single/naive", "BudgetExceeded", "no-retry", "naive",
         delay_plan, single, deadline, 10_000, "failed"),
        ("corrupt/retry/vector", "SchemaError", "retry", "vector",
         corrupt_plan, retrying, None, 10_000, "degraded"),
        ("corrupt/retry/naive", "SchemaError", "retry", "naive",
         corrupt_plan, retrying, None, 10_000, "failed"),
        ("nontermination/retry/naive", "NonTermination", "retry", "naive",
         None, retrying, None, 3, "failed"),
    ]

    label = f"tc:{nodes}"
    program, db = transitive_closure_workload(nodes)
    reference = program.run(db)
    reference_digest = database_digest(reference)[0]

    points: list[SupervisorPoint] = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        for index, (cell, error_class, policy_label, engine, plan_factory,
                    policy, limits, max_while, expected) in enumerate(cells):
            supervisor = Supervisor(policy=policy, sleep=lambda s: None)
            checkpoint = str(Path(tmp) / f"cell-{index}.json")
            run = supervisor.submit(
                program,
                db,
                workload=label,
                limits=limits,
                faults=plan_factory() if plan_factory is not None else None,
                checkpoint_path=checkpoint,
                engine=engine,
                max_while_iterations=max_while,
            )
            observed = _observed_decision(run)
            if run.ok:
                identical = database_digest(run.result)[0] == reference_digest
            else:
                # A failed cell must expose no partial database, and the
                # fault must not have leaked into shared state: a clean
                # re-run still reproduces the reference.
                identical = (
                    run.result is None
                    and database_digest(program.run(db))[0] == reference_digest
                )
            points.append(
                SupervisorPoint(
                    cell=cell,
                    error_class=error_class,
                    policy=policy_label,
                    engine=engine,
                    expected=expected,
                    observed=observed,
                    error_type=(
                        type(run.error).__name__ if run.error is not None else None
                    ),
                    identical=identical,
                )
            )

        # The quarantine cell needs memory across submissions: a poison
        # workload (every attempt dies immediately) trips the breaker at
        # the threshold, and the next submission must be refused typed.
        breaker_supervisor = Supervisor(
            policy=single,
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_s=3600.0),
            sleep=lambda s: None,
        )
        for _ in range(2):
            poison = FaultPlan([FaultRule(op="*", kind="raise")], seed=seed)
            breaker_supervisor.submit(
                program, db, workload=label, faults=poison
            )
        try:
            breaker_supervisor.submit(program, db, workload=label)
            observed = "clean"
            error_type = None
        except QuarantinedError as err:
            observed = "quarantined"
            error_type = type(err).__name__
        points.append(
            SupervisorPoint(
                cell="poison/breaker/naive",
                error_class="Quarantined",
                policy="breaker(2)",
                engine="naive",
                expected="quarantined",
                observed=observed,
                error_type=error_type,
                identical=database_digest(program.run(db))[0] == reference_digest,
            )
        )
    return SupervisorReport(points=tuple(points), seed=seed)


def render_supervisor_report(report: SupervisorReport) -> str:
    """The decision table ``python -m repro chaos --supervisor`` prints."""
    lines = []
    width_cell = max(len(p.cell) for p in report.points)
    lines.append(
        f"{'':4}  {'cell':<{width_cell}}  {'expected':<11}  "
        f"{'observed':<11}  surfaced as"
    )
    for point in report.points:
        verdict = "ok  " if point.ok else "FAIL"
        notes = []
        if point.observed != point.expected:
            notes.append("wrong decision")
        if not point.identical:
            notes.append("result not byte-identical")
        suffix = f"  ({', '.join(notes)})" if notes else ""
        lines.append(
            f"{verdict}  {point.cell:<{width_cell}}  {point.expected:<11}  "
            f"{point.observed:<11}  {point.error_type or '-'}{suffix}"
        )
    lines.append("")
    lines.append(
        f"{len(report.points) - len(report.failures)}/{len(report.points)} "
        f"supervision paths ended in the documented decision with "
        f"byte-identical results or a typed refusal (seed={report.seed})"
    )
    return "\n".join(lines)


def render_chaos_report(report: ChaosReport) -> str:
    """The matrix table ``python -m repro chaos`` prints."""
    lines = []
    width_example = max([len(p.example) for p in report.points] or [7])
    width_op = max([len(p.op) for p in report.points] or [2])
    lines.append(
        f"{'':4}  {'example':<{width_example}}  {'op':<{width_op}}  "
        f"{'fault':<7}  surfaced as"
    )
    for point in report.points:
        verdict = "ok  " if point.ok else "FAIL"
        detail = point.error_type or "no error raised"
        notes = []
        if point.error_type and not point.typed:
            notes.append("wrong type")
        if point.typed and not point.context_ok:
            notes.append("missing context")
        if not point.atomic:
            notes.append("not atomic")
        suffix = f"  ({', '.join(notes)})" if notes else ""
        lines.append(
            f"{verdict}  {point.example:<{width_example}}  "
            f"{point.op:<{width_op}}  {point.kind:<7}  {detail}{suffix}"
        )
    lines.append("")
    lines.append(
        f"{len(report.points) - len(report.failures)}/{len(report.points)} "
        f"injection points surfaced as typed errors with no partial mutation "
        f"(seed={report.seed})"
    )
    return "\n".join(lines)
