"""The cross-run drift sentinel: sliding-window regression detection.

A ledger full of run manifests is only useful if something *watches*
it.  The sentinel compares, per normalized program fingerprint, a
**recent window** of runs against the **baseline window** immediately
before it, over the three signals that matter to the optimizer and the
service layer:

* **latency** — p50 and p95 of per-run wall time; drift when the recent
  percentile exceeds ``latency_factor`` × baseline;
* **q-error** — mean estimate error; drift when recent exceeds
  ``qerror_factor`` × baseline (the estimator got worse for this shape,
  so stats are stale or a formula regressed);
* **fallback rate** — vector-engine fallbacks per dispatched op; drift
  when recent exceeds baseline + ``fallback_jump`` (with the kernel
  catalogue empty, the shape's runs moved to the vector engine).

Fingerprints with fewer than ``2 × min_runs`` runs are reported as
``insufficient`` and never flagged — one noisy run must not page
anyone.  ``python -m repro sentinel`` renders the report and exits with
a **distinct code per outcome** (0 clean, 4 drift, 3 no usable data),
so a CI job can tell "healthy", "regressed", and "never measured"
apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .estimator import _percentile
from .ledger import RunLedger

__all__ = [
    "DEFAULT_WINDOW",
    "DEFAULT_MIN_RUNS",
    "DriftFinding",
    "SentinelReport",
    "sentinel_report",
]

#: Runs per sliding window when the caller does not size it.
DEFAULT_WINDOW = 10

#: Minimum runs per window before a fingerprint is judged at all.
DEFAULT_MIN_RUNS = 3


@dataclass(frozen=True)
class DriftFinding:
    """One drifted signal for one fingerprint."""

    fingerprint: str
    signal: str  # latency_p50 | latency_p95 | q_error | fallback_rate
    baseline: float
    recent: float
    threshold: float
    workloads: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "signal": self.signal,
            "baseline": self.baseline,
            "recent": self.recent,
            "threshold": self.threshold,
            "workloads": list(self.workloads),
        }


@dataclass
class SentinelReport:
    """The full sweep: per-fingerprint verdicts plus the drift list."""

    window: int
    min_runs: int
    fingerprints: list[dict] = field(default_factory=list)
    findings: list[DriftFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def judged(self) -> int:
        """Fingerprints with enough history to be judged."""
        return sum(1 for f in self.fingerprints if f["status"] != "insufficient")

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "min_runs": self.min_runs,
            "ok": self.ok,
            "judged": self.judged,
            "fingerprints": self.fingerprints,
            "findings": [finding.to_json() for finding in self.findings],
        }

    def render(self) -> str:
        lines = [
            f"drift sentinel: {len(self.fingerprints)} fingerprint(s), "
            f"{self.judged} judged (window {self.window}, min {self.min_runs} "
            "runs per window)"
        ]
        for record in self.fingerprints:
            status = record["status"]
            marker = {"ok": "ok   ", "drift": "DRIFT", "insufficient": "..   "}[status]
            workloads = ",".join(record["workloads"][:2])
            lines.append(
                f"{marker} {record['fingerprint']}  {record['runs']} run(s)  "
                f"[{workloads}]"
            )
        if self.findings:
            lines.append("")
            lines.append(f"{len(self.findings)} drifted signal(s):")
            for finding in self.findings:
                lines.append(
                    f"  {finding.fingerprint}: {finding.signal} "
                    f"{finding.baseline} -> {finding.recent} "
                    f"(threshold {finding.threshold})"
                )
        else:
            lines.append("no drift detected")
        return "\n".join(lines)


def _window_stats(rows: list[dict]) -> dict:
    latencies = sorted(
        float(r["elapsed_ms"]) for r in rows if r.get("elapsed_ms") is not None
    )
    q_means = [float(r["q_mean"]) for r in rows if r.get("q_mean") is not None]
    ops = sum(int(r.get("ops") or 0) for r in rows)
    fallbacks = sum(int(r.get("fallbacks") or 0) for r in rows)
    return {
        "runs": len(rows),
        "latency_p50": round(_percentile(latencies, 0.50), 3),
        "latency_p95": round(_percentile(latencies, 0.95), 3),
        "q_error_mean": round(sum(q_means) / len(q_means), 4) if q_means else None,
        "fallback_rate": round(fallbacks / ops, 4) if ops else 0.0,
    }


def sentinel_report(
    ledger: RunLedger,
    *,
    window: int = DEFAULT_WINDOW,
    min_runs: int = DEFAULT_MIN_RUNS,
    latency_factor: float = 2.0,
    qerror_factor: float = 2.0,
    fallback_jump: float = 0.25,
    absolute_floor_ms: float = 1.0,
) -> SentinelReport:
    """Sweep the ledger; drift findings per fingerprint.

    ``absolute_floor_ms`` suppresses latency findings when both windows
    are under the floor — sub-millisecond pipelines drift by scheduler
    noise alone, and a 2x blowup of 0.2ms is not a page.
    """
    report = SentinelReport(window=window, min_runs=min_runs)
    by_fingerprint: dict[str, list[dict]] = {}
    for row in ledger.runs():
        by_fingerprint.setdefault(str(row.get("fingerprint")), []).append(row)

    for fingerprint in sorted(by_fingerprint):
        rows = by_fingerprint[fingerprint]
        workloads = sorted({str(r.get("workload")) for r in rows})
        record = {
            "fingerprint": fingerprint,
            "runs": len(rows),
            "workloads": workloads,
        }
        recent_rows = rows[-window:]
        baseline_rows = rows[-2 * window : -window] or rows[: -len(recent_rows)]
        if len(recent_rows) < min_runs or len(baseline_rows) < min_runs:
            record["status"] = "insufficient"
            report.fingerprints.append(record)
            continue
        baseline = _window_stats(baseline_rows)
        recent = _window_stats(recent_rows)
        record["baseline"] = baseline
        record["recent"] = recent

        findings: list[DriftFinding] = []
        for signal in ("latency_p50", "latency_p95"):
            base, now = baseline[signal], recent[signal]
            if max(base, now) < absolute_floor_ms:
                continue
            if base > 0 and now > base * latency_factor:
                findings.append(
                    DriftFinding(
                        fingerprint, signal, base, now,
                        round(base * latency_factor, 3), tuple(workloads),
                    )
                )
        base_q, now_q = baseline["q_error_mean"], recent["q_error_mean"]
        if base_q is not None and now_q is not None and base_q > 0:
            if now_q > base_q * qerror_factor:
                findings.append(
                    DriftFinding(
                        fingerprint, "q_error", base_q, now_q,
                        round(base_q * qerror_factor, 4), tuple(workloads),
                    )
                )
        base_f, now_f = baseline["fallback_rate"], recent["fallback_rate"]
        if now_f > base_f + fallback_jump:
            findings.append(
                DriftFinding(
                    fingerprint, "fallback_rate", base_f, now_f,
                    round(base_f + fallback_jump, 4), tuple(workloads),
                )
            )
        record["status"] = "drift" if findings else "ok"
        report.fingerprints.append(record)
        report.findings.extend(findings)
    return report
