#!/usr/bin/env python3
"""Compare two end-to-end benchmark results against the BENCHMARK.json bounds.

    python benchmarks/e2e/compare.py A B

``A`` (the base) and ``B`` (the change) are each a report written by
``run.py --out``, or a directory of such reports from repeated runs.  For
one report a metric's spread is the IQR of its per-round values; for a
directory it is the IQR of the reports' values, and the compared value is
their median.

For every workload and end-to-end metric the two values, their IQRs and
the ratio B/A with its base are printed.  Metrics BENCHMARK.json gates
also get a verdict; the others are marked ``no bound``:

* ``unresolved`` — either side's IQR, as a share of its value, is wider
  than the metric's bound, so the difference cannot be told from noise;
* ``REGRESSION`` — B is worse than A by more than the bound;
* ``improved`` — B is better than A by more than the bound;
* ``ok`` — otherwise.

``failed_frac`` has no bound: any failed request in B is ``FAILED``.
Per-layer counts that differ between A and B are listed as ``changed``.

Exit status: 0 when nothing regressed or failed, 1 otherwise, 2 on a
usage error.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Per-layer metrics that repeat exactly on identical code and inputs.
EXACT_COUNTS = ("kernel.fallbacks", "optimize.rewrites", "plan.fusions", "checkpoint.bytes")


def _iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def load_side(path: Path) -> dict:
    """``{workload: {"end_to_end": {metric: (value, iqr, unit)}, "counts": {...}}}``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise ValueError(f"no reports in {path}")
    reports = [json.loads(f.read_text())["workloads"] for f in files]
    side = {}
    for workload in reports[0]:
        runs = [r[workload] for r in reports if workload in r]
        end_to_end = {}
        for metric, entry in runs[0]["end_to_end"].items():
            values = [run["end_to_end"][metric]["value"] for run in runs]
            if len(values) == 1:
                end_to_end[metric] = (values[0], entry["iqr"], entry["unit"])
            else:
                end_to_end[metric] = (statistics.median(values), _iqr(values), entry["unit"])
        counts = {
            name: [run["per_layer"][name]["value"] for run in runs if run["per_layer"]]
            for name in runs[0]["per_layer"]
            if name.endswith(".calls") or name in EXACT_COUNTS
        }
        side[workload] = {"end_to_end": end_to_end, "counts": counts}
    return side


def verdict(a: float, a_iqr: float, b: float, b_iqr: float, better: str, bound: float) -> str:
    if max(a_iqr / a, b_iqr / b) > bound:
        return "unresolved"
    worse = (b - a) / a if better == "lower" else (a - b) / a
    if worse > bound:
        return "REGRESSION"
    if -worse > bound:
        return "improved"
    return "ok"


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    lines = []
    bad = False
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for workload in base:
        if workload not in new:
            lines.append(f"{workload}: missing from B")
            bad = True
            continue
        a_side, b_side = base[workload]["end_to_end"], new[workload]["end_to_end"]
        failed = b_side.get("failed_frac", (0.0,))[0]
        if failed:
            lines.append(f"{workload:<17} failed_frac        B={failed:.4f}  FAILED")
            bad = True
        for name in [n for n in metrics if n not in a_side or n not in b_side]:
            lines.append(f"{workload:<17} {name:<18} missing")
            bad = True
        for name in a_side:
            if name == "failed_frac" or name not in b_side:
                continue
            a, a_iqr, unit = a_side[name]
            b, b_iqr, _ = b_side[name]
            if name in metrics:
                m = metrics[name]
                result = f"bound {m['bound']:.0%}  " + verdict(
                    a, a_iqr, b, b_iqr, m["better"], m["bound"]
                )
                bad = bad or result.endswith("REGRESSION")
            else:
                result = "no bound"
            lines.append(
                f"{workload:<17} {name:<18} A={a:.4f} (IQR {a_iqr:.4f})  "
                f"B={b:.4f} (IQR {b_iqr:.4f})  B/A={b / a:.3f} of base A={a:.4f} {unit}  "
                f"{result}"
            )
        a_counts, b_counts = base[workload]["counts"], new[workload]["counts"]
        for name in sorted(set(a_counts) & set(b_counts)):
            if sorted(set(a_counts[name])) != sorted(set(b_counts[name])):
                lines.append(
                    f"{workload:<17} {name:<30} changed  A={a_counts[name]}  B={b_counts[name]}"
                )
    return lines, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        base, new = load_side(Path(argv[0])), load_side(Path(argv[1]))
    except (OSError, ValueError, KeyError) as err:
        print(f"compare.py: {err}", file=sys.stderr)
        return 2
    lines, bad = compare(base, new, spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
