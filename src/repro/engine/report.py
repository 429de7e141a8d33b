"""The engine report: fallback attribution from ``VectorEngine.stats``.

A vector-engine run leaves behind a flat ``stats`` dict — fallbacks per
op, plus ``reason:{op}:{reason}`` attribution counters (see
:data:`~repro.engine.runtime.FALLBACK_REASONS`).  This module turns
that dict into the structured report behind ``python -m repro
engine-report``: per-op fallback counts, every fallback attributed to a
machine-readable reason, and a coverage figure that must be 100% — an
unattributed fallback means a dispatch path forgot to call
:meth:`~repro.engine.runtime.VectorEngine.note_fallback`, which the
differential-fuzzer attribution test would catch.
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["fallback_report", "report_text"]


def fallback_report(stats: Mapping[str, int]) -> dict:
    """Structure one ``VectorEngine.stats`` dict for reporting.

    Returns::

        {
          "fallbacks": int, "attributed": int,
          "coverage": float,          # attributed / fallbacks (1.0 = full)
          "ops": {op: {"fallback": int, "reasons": {reason: int}}},
          "reasons": {reason: int},   # totals across ops
        }
    """
    ops: dict[str, dict] = {}

    def entry(op: str) -> dict:
        record = ops.get(op)
        if record is None:
            record = ops[op] = {"fallback": 0, "reasons": {}}
        return record

    reasons_total: dict[str, int] = {}
    attributed = 0
    for key, value in stats.items():
        if key.startswith("fallback:"):
            entry(key[len("fallback:"):])["fallback"] = value
        elif key.startswith("reason:"):
            _, op, reason = key.split(":", 2)
            entry(op)["reasons"][reason] = value
            reasons_total[reason] = reasons_total.get(reason, 0) + value
            attributed += value

    fallbacks = int(stats.get("fallbacks", 0))
    return {
        "fallbacks": fallbacks,
        "attributed": attributed,
        "coverage": (attributed / fallbacks) if fallbacks else 1.0,
        "ops": {op: ops[op] for op in sorted(ops)},
        "reasons": dict(sorted(reasons_total.items())),
    }


def report_text(report: dict) -> str:
    """Render one :func:`fallback_report` as the CLI's plain-text table."""
    lines = ["ENGINE REPORT", "=" * 64]
    lines.append(
        f"fallback: {report['fallbacks']}  "
        f"attributed: {report['attributed']}/{report['fallbacks']} "
        f"({report['coverage']:.0%})"
    )
    if report["ops"]:
        lines.append("")
        lines.append(f"{'op':<16} {'fallback':>9}  reasons")
        lines.append("-" * 64)
        for op, record in report["ops"].items():
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(record["reasons"].items())
            )
            lines.append(f"{op:<16} {record['fallback']:>9}  {reasons}")
    if report["reasons"]:
        lines.append("")
        lines.append("fallback reasons:")
        for reason, count in report["reasons"].items():
            lines.append(f"  {reason:<16} {count}")
    return "\n".join(lines)
