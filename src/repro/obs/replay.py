"""Deterministic replay of ledgered runs: a cross-process nondeterminism
detector.

The differential fuzzer proves the two backends agree *within* one
process; it cannot prove that the same program run **tomorrow, in a
different process** still produces the same bytes.  Replay can: a run
manifest records how to re-derive the program and its input database (a
workload spec or bundled-example name), which engine and seed drove it,
the exact serialized result database (or its digest when the result was
capped), and the ordered op/row trace.  :func:`replay_run` re-executes
the recording and diffs all of it:

* **result database** — the checkpoint serialization must be
  byte-identical (sha256 over the canonical JSON); when the recording
  kept the full data, the diff names the first diverging table, its
  dimensions, and the first differing cell;
* **op sequence** — every completed op dispatch, in order, with its
  rows-out; a plan change, a kernel behaving differently, or genuine
  nondeterminism shows up here even when the final database happens to
  agree;
* **program fingerprint** — the normalized shape must still match, so a
  drifted example or workload generator is reported as program drift,
  not silently re-recorded.

Divergence injection (``faults=...`` / a changed seed) exists so CI can
prove the detector detects: a seeded fault plan must make the replay
exit nonzero with a structured diff.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.errors import LedgerError, ReproError, UnknownSpecError, WorkloadSpecError
from .events import event_stream
from .ledger import RunLedger, database_digest

__all__ = [
    "Divergence",
    "ReplayReport",
    "resolve_runnable",
    "replay_run",
    "replay_from_ledger",
    "bundle_run_pointer",
]


@dataclass(frozen=True)
class Divergence:
    """One structured difference between the recording and the replay."""

    kind: str
    detail: str
    recorded: object = None
    replayed: object = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "recorded": self.recorded,
            "replayed": self.replayed,
        }


@dataclass
class ReplayReport:
    """What one replay found; ``ok`` iff nothing diverged."""

    run_id: str
    workload: str
    engine: str
    divergences: list[Divergence] = field(default_factory=list)
    recorded_sha: str | None = None
    replayed_sha: str | None = None
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "workload": self.workload,
            "engine": self.engine,
            "ok": self.ok,
            "recorded_sha256": self.recorded_sha,
            "replayed_sha256": self.replayed_sha,
            "elapsed_ms": self.elapsed_ms,
            "divergences": [d.to_json() for d in self.divergences],
        }

    def render(self) -> str:
        lines = [
            f"replay of {self.run_id} ({self.workload}, {self.engine} engine)"
        ]
        if self.ok:
            lines.append(
                f"  identical: result sha256 {self.recorded_sha} reproduced "
                f"in {self.elapsed_ms:.0f}ms"
            )
        else:
            lines.append(f"  DIVERGED: {len(self.divergences)} difference(s)")
            for divergence in self.divergences:
                lines.append(f"  - [{divergence.kind}] {divergence.detail}")
                if divergence.recorded is not None or divergence.replayed is not None:
                    lines.append(
                        f"      recorded: {divergence.recorded!r}"
                    )
                    lines.append(
                        f"      replayed: {divergence.replayed!r}"
                    )
        return "\n".join(lines)


def resolve_runnable(spec: str):
    """``(program, db)`` re-derived from a recorded workload spec.

    Specs are the vocabulary of
    :func:`repro.runtime.workloads.resolve_workload` — the one ``repro
    run`` and crash recovery use.  Raises
    :class:`~repro.core.errors.LedgerError` (chained to the resolver's
    typed error) when the spec no longer resolves to a runnable program.
    """
    from ..runtime.workloads import resolve_workload

    try:
        _label, program, db = resolve_workload(spec)
    except UnknownSpecError as err:
        raise LedgerError(
            f"recorded workload {spec!r} is not a workload or bundled example: {err}"
        ) from err
    except WorkloadSpecError as err:
        raise LedgerError(f"recorded workload {spec!r} cannot be replayed: {err}") from err
    return program, db


def replay_run(manifest: dict, *, faults=None, engine: str | None = None) -> ReplayReport:
    """Re-execute one recorded run and diff it against the recording.

    ``faults`` (a :class:`~repro.runtime.faults.FaultPlan`) and
    ``engine`` deliberately *inject* divergence — they exist so the
    detector can be proven live.  A clean replay passes neither.
    """
    from ..runtime.checkpoint import run_hardened
    from .workload import fingerprint_program

    workload = manifest.get("workload") or {}
    spec = workload.get("spec")
    label = str(workload.get("label", "?"))
    recorded_engine = str(manifest.get("engine", "naive"))
    run_engine = engine if engine is not None else recorded_engine
    report = ReplayReport(
        run_id=str(manifest.get("run_id", "?")),
        workload=label,
        engine=run_engine,
    )
    result = manifest.get("result") or {}
    report.recorded_sha = result.get("sha256")
    if spec is None or report.recorded_sha is None:
        raise LedgerError(
            f"run {report.run_id} was recorded without a replayable workload "
            "spec and result digest (a trace-only or non-TA run)"
        )

    program, db = resolve_runnable(str(spec))

    optimizer = manifest.get("optimizer")
    if optimizer is not None:
        # The run executed a rewritten plan.  Re-derive it from the
        # recorded rule set and the recorded stats snapshot (not a fresh
        # ANALYZE — the plan must be the one that actually ran), so the
        # fingerprint and op-sequence diffs compare like with like.
        from ..engine.optimizer import optimize_program
        from .stats import DatabaseStats

        stats_data = optimizer.get("stats")
        stats = None if stats_data is None else DatabaseStats.from_json(stats_data)
        rules = optimizer.get("rules")
        program = optimize_program(program, stats, rules=rules, cache=None).program

    recorded_fp = (manifest.get("program") or {}).get("fingerprint")
    current_fp = fingerprint_program(program)
    if recorded_fp is not None and current_fp != recorded_fp:
        report.divergences.append(
            Divergence(
                "program_drift",
                f"workload {spec!r} now compiles to a different normalized "
                "program shape",
                recorded=recorded_fp,
                replayed=current_fp,
            )
        )

    started = time.perf_counter()
    op_sequence: list[list] = []
    replayed_db = None
    with event_stream() as bus:
        def _collect(event):
            if event.kind == "span_finish" and event.data.get("ok", True):
                op_sequence.append(
                    [
                        str(event.data.get("op", "?")),
                        int(event.data.get("rows_out", 0) or 0),
                    ]
                )

        bus.attach(_collect)
        try:
            replayed_db = run_hardened(program, db, engine=run_engine, faults=faults)
        except ReproError as err:
            report.divergences.append(
                Divergence(
                    "replay_error",
                    "the replay raised where the recording finished",
                    recorded=(manifest.get("outcome") or {}).get("status"),
                    replayed=f"{type(err).__name__}: {err}",
                )
            )
    report.elapsed_ms = round((time.perf_counter() - started) * 1e3, 3)

    if replayed_db is not None:
        digest, tables, rows, data = database_digest(replayed_db)
        report.replayed_sha = digest
        if digest != report.recorded_sha:
            report.divergences.append(
                Divergence(
                    "result_digest",
                    "serialized result databases differ",
                    recorded=report.recorded_sha,
                    replayed=digest,
                )
            )
            recorded_data = result.get("data")
            if recorded_data is not None:
                report.divergences.extend(_diff_databases(recorded_data, data))
        recorded_ops = manifest.get("op_sequence")
        if recorded_ops is not None:
            divergence = _diff_op_sequences(
                list(map(list, recorded_ops)),
                op_sequence,
                int((manifest.get("events") or {}).get("dropped") or 0),
            )
            if divergence is not None:
                report.divergences.append(divergence)
    return report


def _diff_databases(recorded: list, replayed: list) -> list[Divergence]:
    """Structural drill-down once the digests already disagree."""
    divergences: list[Divergence] = []
    if len(recorded) != len(replayed):
        divergences.append(
            Divergence(
                "table_count",
                "result databases hold different table counts",
                recorded=len(recorded),
                replayed=len(replayed),
            )
        )
    for position, (old, new) in enumerate(zip(recorded, replayed)):
        if old == new:
            continue
        if len(old) != len(new) or (old and new and len(old[0]) != len(new[0])):
            divergences.append(
                Divergence(
                    "table_shape",
                    f"table #{position} changed dimensions",
                    recorded=f"{len(old)}x{len(old[0]) if old else 0}",
                    replayed=f"{len(new)}x{len(new[0]) if new else 0}",
                )
            )
            break
        for r, (old_row, new_row) in enumerate(zip(old, new)):
            if old_row == new_row:
                continue
            for c, (old_cell, new_cell) in enumerate(zip(old_row, new_row)):
                if old_cell != new_cell:
                    divergences.append(
                        Divergence(
                            "cell",
                            f"first differing cell: table #{position}[{r},{c}]",
                            recorded=old_cell,
                            replayed=new_cell,
                        )
                    )
                    break
            break
        break
    return divergences


def _diff_op_sequences(
    recorded: list, replayed: list, dropped: int
) -> Divergence | None:
    """The first difference between a recorded op trace and its replay.

    A manifest keeps the head of a long trace and counts the records it
    did not keep (``events.dropped``), so the kept head is compared op
    by op and the full lengths by count.
    """
    for position, (old, new) in enumerate(zip(recorded, replayed)):
        if old != new:
            return Divergence(
                "op_sequence",
                f"op trace diverges at dispatch #{position}",
                recorded=old,
                replayed=new,
            )
    if len(recorded) + dropped == len(replayed):
        return None
    return Divergence(
        "op_sequence",
        "op trace lengths differ",
        recorded=len(recorded) + dropped,
        replayed=len(replayed),
    )


def replay_from_ledger(
    ledger: RunLedger, run_id: str, *, faults=None, engine: str | None = None
) -> ReplayReport:
    """Replay one run id out of an open ledger."""
    return replay_run(ledger.get(run_id), faults=faults, engine=engine)


def bundle_run_pointer(bundle: str | Path) -> tuple[str, str]:
    """``(run_id, ledger_directory)`` out of a flight-recorder bundle.

    Postmortem bundles written while a ledger was armed carry the run
    pointer in their ``MANIFEST.json`` (the ``run`` block), so a
    postmortem can be joined back to its ledger record — and replayed —
    without guessing.
    """
    manifest_path = Path(bundle) / "MANIFEST.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as err:
        raise LedgerError(f"cannot read bundle manifest {manifest_path}: {err}") from err
    except ValueError as err:
        raise LedgerError(f"bundle manifest {manifest_path} is not JSON: {err}") from err
    run = manifest.get("run") if isinstance(manifest, dict) else None
    if not isinstance(run, dict) or "id" not in run or "ledger" not in run:
        raise LedgerError(
            f"bundle {bundle} carries no run pointer (recorded without a ledger?)"
        )
    return str(run["id"]), str(run["ledger"])
