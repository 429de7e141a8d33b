#!/usr/bin/env python3
"""End-to-end benchmark with per-layer attribution.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 [--workload NAME ...] [--out FILE.json]

One process, one thread, one client in a closed loop: each request starts
when the previous one has been checked.  For every workload the harness

1. builds inputs from ``--seed``, compiles what sits outside a request and
   runs one warm-up request, ``SETUP_REPEATS`` times (``setup_s`` is the
   median), then computes the reference output once;
2. measures peak traced allocation over ``ALLOC_REQUESTS`` requests;
3. runs interleaved rounds — one block per workload per round, the order
   rotating — for ``ROUNDS`` rounds or ``--seconds`` seconds;
4. runs a traced block with the layer wrappers of ``layers.py`` installed.

Every set-up and every request sits between two timings of a fixed
reference workload (:func:`reference_ms`).  Its time divided by their mean,
times ``REF_NOMINAL_MS``, is its normalized time: what it would take on a
host of fixed speed.  The gated latency and set-up metrics are normalized;
wall-clock ones are reported beside them.

Every output is checked against its reference outside the timed interval.
``--trace 0`` skips step 4, ``--trace 1`` skips step 2 and pairs every
untraced block with a traced one; without ``--trace`` all steps run.
The process first re-executes itself with the hash seed and the address
layout fixed (see :func:`reexec_pinned`).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the metrics BENCHMARK.json
names (end-to-end, per-layer, or both, following ``--trace``).

Exit status: 0 when every request was correct and no workload left more
than ``OTHER_LIMIT`` of its traced wall time unattributed, 1 otherwise,
2 on a usage error, 3 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Interleaved rounds when ``--seconds`` is not given.
ROUNDS = 12
#: Set-ups per workload; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Requests in the allocation pass; ``peak_alloc_mb`` is their largest peak.
ALLOC_REQUESTS = 3
#: Largest share of traced wall time the layers may leave unattributed.
OTHER_LIMIT = 0.10
#: What :func:`reference_ms` takes on the quiet host the bounds were set
#: on.  Normalized times are rescaled to a host this fast, so they read
#: close to wall time there.  Changing it rescales every normalized metric.
REF_NOMINAL_MS = 7.0
#: The ``personality(2)`` flag that turns address-space randomization off.
ADDR_NO_RANDOMIZE = 0x0040000

#: Unit of every end-to-end metric the report carries.  BENCHMARK.json
#: gates the subset whose run-to-run spread fits a bound on a noisy host.
END_TO_END_UNITS = {
    "norm_latency_p50_ms": "ms",
    "norm_latency_p90_ms": "ms",
    "norm_throughput_rps": "1/s",
    "latency_min_ms": "ms",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "setup_wall_s": "s",
    "peak_alloc_mb": "MiB",
    "failed_frac": "ratio",
}


class _Cell:
    """A small value object that :func:`reference_ms` compares and hashes."""

    __slots__ = ("kind", "value")

    def __init__(self, kind, value):
        self.kind = kind
        self.value = value

    def __eq__(self, other):
        return isinstance(other, _Cell) and self.kind == other.kind and self.value == other.value

    def __hash__(self):
        return hash((self.kind, self.value))


def reference_ms() -> float:
    """Milliseconds for a fixed pure-Python workload: the host's current speed.

    On a shared 2-vCPU VM the host's speed drifted by up to 2x over tens
    of seconds, and a request slowed with it.  This work (an
    arithmetic loop; building, sorting and serializing tuples, strings and
    dicts; comparing and hashing small objects) slows the same way, so a
    request's latency divided by the reference time next to it measures the
    code, not the moment.  It calls no repository code, and the garbage
    collector is off while it runs so the program's live objects cannot
    change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        total = 0
        for i in range(50_000):
            total += i % 7
        rows = [(i % 97, str(i), i * 3) for i in range(3_000)]
        groups: dict = {}
        for key, label, value in rows:
            groups.setdefault(key, []).append((label, value))
        ordered = sorted(rows, key=lambda row: row[1])
        json.dumps(ordered[:1_000])
        {row[1] for row in rows} - {str(i) for i in range(0, 3_000, 2)}
        for _ in range(3):
            cells = [_Cell(i % 3, i % 50) for i in range(400)]
            tuples = [tuple(cells[j : j + 3]) for j in range(0, 300, 3)]
            others = tuples[::2]
            [t for t in tuples if not any(t == o for o in others)]
            set(cells)
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def quantile(values, q: float) -> float:
    """The ``q`` quantile by linear interpolation (``method="inclusive"``)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def normalized(times: list[float], refs: list[float]) -> list[float]:
    """``times[i]`` at the nominal host speed, from ``refs[i]`` and ``refs[i + 1]``.

    ``refs`` holds the reference timings taken just before and just after
    each of ``times``, so it is one longer.
    """
    return [
        t * 2 * REF_NOMINAL_MS / (before + after) for t, before, after in zip(times, refs, refs[1:])
    ]


#: Per-block latency statistics; their pooled value is reported, their
#: spread is the IQR of the per-block values.
LATENCY_STATS = {
    "latency_p50_ms": statistics.median,
    "latency_p90_ms": lambda values: quantile(values, 0.9),
    "throughput_rps": lambda values: len(values) / (sum(values) / 1e3),
}


def latency_metrics(blocks: list[list[float]], prefix: str = "") -> dict:
    pooled = [ms for block in blocks for ms in block]
    return {
        prefix + name: (stat(pooled), iqr([stat(block) for block in blocks]), len(pooled))
        for name, stat in LATENCY_STATS.items()
    }


class Record:
    """Everything measured for one workload."""

    def __init__(self, workload, reference: str, setup_s: list[float], setup_norm_s: list[float]):
        self.workload = workload
        self.reference = reference
        self.setup_s = setup_s
        self.setup_norm_s = setup_norm_s
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Latencies (ms) of the measured rounds, one list per block, as
        #: measured and normalized.
        self.blocks: list[list[float]] = []
        self.norm_blocks: list[list[float]] = []
        self.ref_ms: list[float] = []
        self.peaks_mb: list[float] = []
        self.trace = None
        self.traced_ms: list[float] = []
        self.traced_norm_ms: list[float] = []
        self.traced_covered_s = 0.0
        #: Normalized untraced latencies the traced blocks are compared with.
        self.paired_norm_ms: list[float] = []

    def request(self, tracer=None) -> float:
        """Run, time and check one request; return its latency in ms."""
        workload = self.workload
        if tracer is not None:
            tracer.begin()
        start = time.perf_counter()
        try:
            output = workload.request()
        except Exception as err:
            elapsed = time.perf_counter() - start
            self._fail(f"request raised {type(err).__name__}: {err}")
            return elapsed * 1e3
        elapsed = time.perf_counter() - start
        if tracer is not None:
            self.traced_covered_s += tracer.covered_s()
        counters = self._check(output)
        if tracer is not None:
            for name, value in counters.items():
                tracer.counters[name] += value
        return elapsed * 1e3

    def _check(self, output) -> dict:
        """Count one request, compare its output, release it."""
        try:
            if self.workload.digest_of(output) == self.reference:
                self.attempted += 1
            else:
                self._fail("output differs from the reference")
        except Exception as err:
            self._fail(f"check raised {type(err).__name__}: {err}")
        return self.workload.finish(output)

    def _fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def block(
        self, size: int, tracer=None, deadline: float | None = None
    ) -> tuple[list[float], list[float]]:
        """Up to ``size`` requests; at least one, none started after ``deadline``.

        Returns their latencies in ms, as measured and normalized.
        """
        refs = [reference_ms()]
        latencies = []
        while True:
            latencies.append(self.request(tracer))
            refs.append(reference_ms())
            if len(latencies) >= size or (deadline is not None and time.perf_counter() >= deadline):
                break
        self.ref_ms += refs
        return latencies, normalized(latencies, refs)

    def allocation_pass(self, requests: int) -> None:
        """Peak traced allocation of each of ``requests`` requests, in MiB."""
        gc.collect()
        tracemalloc.start()
        try:
            for _ in range(requests):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    output = self.workload.request()
                except Exception as err:
                    self._fail(f"request raised {type(err).__name__}: {err}")
                    continue
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peaks_mb.append(peak / 2**20)
                self._check(output)
                del output
        finally:
            tracemalloc.stop()

    # -- results ---------------------------------------------------------

    def end_to_end(self) -> dict:
        out = latency_metrics(self.norm_blocks, "norm_")
        out["latency_min_ms"] = (
            min(min(b) for b in self.blocks),
            iqr([min(b) for b in self.blocks]),
            sum(map(len, self.blocks)),
        )
        out.update(latency_metrics(self.blocks))
        n = len(self.setup_s)
        out["setup_s"] = (statistics.median(self.setup_norm_s), iqr(self.setup_norm_s), n)
        out["setup_wall_s"] = (statistics.median(self.setup_s), iqr(self.setup_s), n)
        if self.peaks_mb:
            # One value per run, which repeats to within a few bytes: no
            # spread to report.
            out["peak_alloc_mb"] = (max(self.peaks_mb), 0.0, len(self.peaks_mb))
        out["failed_frac"] = (self.failed / max(self.attempted, 1), 0.0, self.attempted)
        return {
            name: {"value": value, "unit": END_TO_END_UNITS[name], "iqr": spread, "n": n}
            for name, (value, spread, n) in out.items()
        }

    def per_layer(self) -> dict:
        import layers

        if not self.traced_ms:
            return {}
        wall_s = sum(self.traced_ms) / 1e3
        values = self.trace.metrics(len(self.traced_ms), wall_s, self.traced_covered_s)
        values["trace.overhead_frac"] = (
            statistics.fmean(self.traced_norm_ms) / statistics.fmean(self.paired_norm_ms) - 1.0
        )
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in layers.metric_catalogue()
        }

    def other_frac(self) -> float | None:
        if not self.traced_ms:
            return None
        wall_s = sum(self.traced_ms) / 1e3
        return (wall_s - self.traced_covered_s) / wall_s


def prepare(cls, seed: int, scratch: Path, repeats: int) -> Record:
    """Set the workload up ``repeats`` times, each between two reference
    timings; keep the last one."""
    times = []
    refs = [reference_ms()]
    for _ in range(repeats):
        workload = cls(seed, scratch)
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
        refs.append(reference_ms())
    return Record(workload, workload.reference_digest(), times, normalized(times, refs))


def run_suite(
    names: list[str],
    seed: int,
    *,
    seconds: float | None = None,
    trace: int | None = None,
    smoke: bool = False,
) -> dict:
    """Run the schedule for ``names``; return the full report."""
    import layers
    import workloads

    rounds = 1 if smoke else ROUNDS
    scratch_parent = HERE / ".tmp"
    scratch_parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_parent))
    records: list[Record] = []
    try:
        for name in names:
            records.append(
                prepare(workloads.WORKLOADS[name], seed, scratch, 1 if smoke else SETUP_REPEATS)
            )
        if trace != 1:
            for record in records:
                record.allocation_pass(ALLOC_REQUESTS)

        def size(record: Record) -> int:
            return 1 if smoke else record.workload.block

        deadline = None if seconds is None else time.perf_counter() + seconds
        done = 0
        while True:
            turn = done % len(records)
            for record in records[turn:] + records[:turn]:
                block, norm_block = record.block(size(record), deadline=deadline)
                record.blocks.append(block)
                record.norm_blocks.append(norm_block)
                if trace == 1:
                    record.trace = record.trace or layers.LayerTrace()
                    with record.trace as tracer:
                        traced, traced_norm = record.block(size(record), tracer, deadline)
                    record.traced_ms += traced
                    record.traced_norm_ms += traced_norm
                    record.paired_norm_ms += norm_block
            done += 1
            if deadline is None and done >= rounds:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
        if trace is None:
            for record in records:
                record.trace = layers.LayerTrace()
                with record.trace as tracer:
                    record.traced_ms, record.traced_norm_ms = record.block(size(record), tracer)
                record.paired_norm_ms = [ms for block in record.norm_blocks for ms in block]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_parent.rmdir()
        except OSError:
            pass

    ref_ms = [ms for record in records for ms in record.ref_ms]
    return {
        "seed": seed,
        "host": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "aslr_disabled": aslr_disabled(),
            "ref_ms": {"median": statistics.median(ref_ms), "iqr": iqr(ref_ms), "n": len(ref_ms)},
        },
        "schedule": {
            "rounds": done,
            "seconds": seconds,
            "smoke": smoke,
            "trace": trace,
            "setup_repeats": 1 if smoke else SETUP_REPEATS,
            "alloc_requests": ALLOC_REQUESTS if trace != 1 else 0,
        },
        "workloads": {
            record.workload.name: {
                "attempted": record.attempted,
                "failed": record.failed,
                "errors": record.errors,
                "blocks": [len(block) for block in record.blocks],
                "latency_ms": record.blocks,
                "norm_latency_ms": record.norm_blocks,
                "ref_ms": record.ref_ms,
                "traced_requests": len(record.traced_ms),
                "traced_wall_ms": statistics.fmean(record.traced_ms) if record.traced_ms else None,
                "other_frac": record.other_frac(),
                "end_to_end": record.end_to_end() if trace != 1 else {},
                "per_layer": record.per_layer(),
            }
            for record in records
        },
    }


def render(report: dict) -> str:
    host = report["host"]
    lines = [
        f"e2e benchmark  seed={report['seed']}  PYTHONHASHSEED={host['pythonhashseed']}  "
        f"ASLR {'off' if host['aslr_disabled'] else 'on'}  "
        f"python {host['python']}  nproc {host['nproc']}  {host['platform']}",
        f"host.ref_ms (reference work; nominal {REF_NOMINAL_MS} ms)  "
        f"median {host['ref_ms']['median']:.2f}  "
        f"IQR {host['ref_ms']['iqr']:.2f}  n {host['ref_ms']['n']}",
    ]
    for name, result in report["workloads"].items():
        lines.append("")
        lines.append(
            f"[{name}]  attempted {result['attempted']}  failed {result['failed']}  "
            f"{sum(result['blocks'])} timed request(s) in {len(result['blocks'])} block(s)"
        )
        lines.extend(f"  error: {message}" for message in result["errors"])
        for metric, entry in result["end_to_end"].items():
            lines.append(
                f"  {metric:<20} {entry['value']:>14.4f} {entry['unit']:<6} "
                f"IQR {entry['iqr']:.4f}  n {entry['n']}"
            )
        if result["per_layer"]:
            lines.append(
                f"  per layer over {result['traced_requests']} traced request(s), "
                f"traced wall {result['traced_wall_ms']:.3f} ms/request, "
                f"unattributed {result['other_frac']:.1%}:"
            )
            for metric, entry in result["per_layer"].items():
                lines.append(f"    {metric:<30} {entry['value']:>14.4f} {entry['unit']}")
    return "\n".join(lines)


def result_line(report: dict, spec: dict) -> dict:
    """The closing JSON object: totals plus the metrics ``spec`` names.

    ``spec`` is BENCHMARK.json.  With several workloads each metric name
    is prefixed with ``<workload>/``.
    """
    results = report["workloads"]
    single = len(results) == 1
    metrics = {}
    for workload, result in results.items():
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                entry = result[section].get(metric["name"])
                if entry is not None:
                    key = metric["name"] if single else f"{workload}/{metric['name']}"
                    metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", dest="workloads", metavar="NAME")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measure rounds for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="1 round of 1-request blocks")
    parser.add_argument("--out", type=Path, help="write the full report here as JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no source tree at {SRC}", file=sys.stderr)
        return 3
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    names = args.workloads or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(
            f"run.py: unknown workload(s) {unknown}; known: {list(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    report = run_suite(names, args.seed, seconds=args.seconds, trace=args.trace, smoke=args.smoke)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(render(report))
    line = result_line(report, json.loads((ROOT / "BENCHMARK.json").read_text()))
    print(json.dumps(line))
    unattributed = [
        r["other_frac"] for r in report["workloads"].values() if r["other_frac"] is not None
    ]
    if not line["correct"] or any(frac > OTHER_LIMIT for frac in unattributed):
        return 1
    return 0


def _personality(flags: int = 0xFFFFFFFF) -> int:
    """``personality(2)``; with the default argument, the current persona.

    Returns -1 where the call is unavailable or refused.
    """
    import ctypes

    try:
        call = getattr(ctypes.CDLL(None, use_errno=True), "personality", None)
    except OSError:
        return -1
    if call is None:
        return -1
    call.argtypes = [ctypes.c_ulong]
    call.restype = ctypes.c_int
    return call(flags)


def aslr_disabled() -> bool:
    current = _personality()
    return current != -1 and bool(current & ADDR_NO_RANDOMIZE)


def reexec_pinned() -> None:
    """Re-execute with the hash seed and, where allowed, the address layout fixed.

    A fixed hash seed repeats set iteration order, so counts repeat
    exactly.  A fixed address layout removes a bimodal ~10% run-to-run
    swing in the allocation-heavy workloads.
    """
    env = dict(os.environ)
    restart = False
    if "PYTHONHASHSEED" not in env:
        env["PYTHONHASHSEED"] = "0"
        restart = True
    current = _personality()
    if current != -1 and not current & ADDR_NO_RANDOMIZE:
        restart = _personality(current | ADDR_NO_RANDOMIZE) != -1 or restart
    if restart:
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


if __name__ == "__main__":
    reexec_pinned()
    sys.exit(main())
