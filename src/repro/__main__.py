"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``figures`` — print every Figure 1–5 artifact, regenerated live, with
  the exactness checks;
* ``check``   — a fast self-check of the headline reproductions (exit
  status 0 iff everything holds);
* ``demo``    — the quickstart walkthrough;
* ``trace [example] [--json] [--analyze] [--stats PATH]`` — run a
  bundled pipeline under the tracer and print its EXPLAIN report
  (nested span tree, per-op wall time and row flow, metrics tables);
  ``--analyze`` adds the EXPLAIN ANALYZE comparison (estimated vs.
  actual rows with mis-estimation ratios, and actual times); ``--stats PATH
  installs a persisted ANALYZE snapshot so the plan's ``est_rows``
  come from measured statistics instead of shape heuristics (the
  ANALYZE report then carries a ``Src`` column attributing each
  estimate); ``--json`` emits the same data as JSON;
* ``profile [example] [--chrome-trace PATH] [--log-json PATH]`` — run a
  bundled pipeline under the profiler and print hotspots (top ops by
  self time), wall-time histograms, and per-span peak memory; the flags
  export a Chrome-trace JSON (loadable in ``chrome://tracing`` /
  Perfetto) and a JSON-lines structured log;
* ``lineage [example] [--cell T[r,c]] [--audit] [--dot PATH]
  [--graph-json PATH]`` — run a bundled pipeline with cell-level
  provenance on and answer a why-provenance query: which input cells
  produced output cell ``T[r,c]``?  Prints the witness set, the
  witness-replay verdict (re-executing on just the witness rows must
  regenerate the cell), and a provenance-annotated EXPLAIN.
  ``--audit`` replays *every* output cell (all lineage-capable examples
  when no example is named); ``--dot``/``--graph-json`` export the
  input-cell → output-cell provenance graph;
* ``stats [--json]`` — run every bundled pipeline and print the
  aggregated per-operation metrics;
* ``analyze [workload|example] [--top-k N] [--out PATH] [--json]`` —
  the ANALYZE pass: compute per-table row counts and per-column NDV /
  min / max / null fractions / top-K frequency sketches for a
  workload's database (``tc:N`` or any TA-program example), print the
  summary, and (``--out``) persist the snapshot as schema-versioned
  JSON for ``trace --stats`` / ``run --stats`` to consume;
* ``stats-audit [--seeds N] [--tc N] [--out PATH] [--json]`` — the
  estimator's accuracy audit: replay the example corpus plus
  ``--seeds`` differential-fuzzer cases with fresh
  ANALYZE stats installed, score every cardinality estimate against the
  actual rows, and report per-op p50/p95/max q-error plus workload
  fingerprint aggregates; exit 1 unless every dispatched op kind was
  scored (docs/OBSERVABILITY.md);
* ``optimize [workload|example] [--analyze] [--stats PATH]
  [--rules a,b,c] [--explain] [--verify] [--no-cache] [--json]`` — the
  cost-based plan optimizer (docs/OPTIMIZER.md): print the program
  before and after rewriting, every applied rule with its algebraic
  justification, and the join-ordering decisions (chosen order, cost
  model verdict, estimated rows); ``--analyze`` runs ANALYZE on the
  workload's database in-process so the join reorder is estimate-driven,
  ``--stats PATH`` installs a persisted snapshot instead, ``--rules``
  restricts the rewrite set to a comma-separated subset, ``--explain``
  executes the optimized plan under the tracer and prints its EXPLAIN
  (CHAINJOIN spans carry the chosen order and est rows), ``--verify``
  checks the optimized program's final database is byte-identical to
  the original's (exit 1 otherwise);
* ``metrics [--prom] [--estimates] [--stats PATH] [--supervisor]
  [--optimizer]`` —
  the same aggregated metrics as a JSON snapshot or (``--prom``) in the
  Prometheus text exposition format (per-op counters and wall-time
  histograms, ready to scrape); ``--estimates`` reruns the corpus under
  estimation and adds the estimator families (per-op q-error
  histograms, worst-q-error gauges, estimates-by-source counters);
  ``--stats PATH`` adds the stale-stats age/size gauges for a persisted
  snapshot; ``--supervisor`` runs a small deterministic supervised demo
  (a retried fault, a breaker-tripping poison workload, a quarantined
  submission) and adds the ``repro_retry_*`` / ``repro_breaker_*`` /
  ``repro_recovery_*`` fault-tolerance families; ``--optimizer`` runs a
  small deterministic plan-optimizer demo (cold plan, warm cache hit,
  stats-free plan) and adds the ``repro_optimizer_*`` plan-cache /
  rewrite / ordering counters;
* ``prom-lint [FILE]`` — validate a Prometheus text payload (stdin when
  no file): name grammars, TYPE declarations, histogram cumulativity;
  exit 1 on format problems;
* ``engine-report [workload...] [--json]`` — run a corpus (default:
  every TA-program example plus ``tc:8``) under the vector engine and
  print fallback attribution: the kernel catalogue is empty, so every
  op runs naive, each run tagged with a machine-readable reason
  (``no_kernel``, ``needs_fresh``, ``multi_result``, ``aggregate``);
  exit 1 unless 100% of fallbacks are attributed;
* ``bench-compare <baseline> <current> [--tolerance X]`` — diff two
  benchmark trajectory files (``BENCH_trajectory.json``); exit 1 when a
  shared benchmark label regressed beyond the tolerance (default 1.5x),
  exit 3 when either trajectory file is missing, unreadable, or not a
  valid trajectory (so CI can tell a failed gate from one that never
  ran);
* ``run [workload] [--engine naive|vector] [--deadline MS] [--max-rows N]
  [--max-rows-per-op N] [--max-cells-per-op N] [--max-while N]
  [--checkpoint PATH] [--resume] [--retry N] [--verify] [--json]
  [--progress] [--events PATH] [--flight-dir DIR] [--stats PATH]
  [--optimize]`` —
  run a workload
  (``tc:N`` for the synthetic transitive-closure fixpoint, or any
  bundled TA example) under the resource governor with
  checkpoint/resume; ``--engine vector`` routes execution through the
  vectorized backend (docs/ENGINE.md), ``--retry`` auto-resumes a
  budget-killed run from its checkpoint, ``--verify`` compares the final
  database against an ungoverned naive run; ``--progress`` streams live
  while-iteration/budget lines from the event bus, ``--events PATH``
  streams every event as JSON lines, and ``--flight-dir DIR`` arms the
  flight recorder — a run that dies on a budget kill dumps a postmortem
  bundle (event tail, metrics, checkpoint pointer, and the ANALYZE
  snapshot behind any live cardinality estimates) into DIR
  (docs/OBSERVABILITY.md); ``--stats PATH`` installs a persisted
  ANALYZE snapshot so the run is scored by the cardinality estimator
  (``op_estimate`` events carry est/actual rows and q-error);
  ``--optimize`` rewrites the program through the cost-based plan
  optimizer first (stats-driven join reorder when ``--stats`` is also
  given; the ledger manifest and checkpoints fingerprint the optimized
  plan); with
  ``--retry N`` the run routes through the fault-tolerant supervisor
  (error classification, checkpoint resume, deterministic backoff,
  vector→naive degradation, circuit-breaker admission) — ``--retry``
  requires ``--checkpoint`` (exit 2 otherwise); ``--resume`` from an
  absent checkpoint, or one taken from another program, exits 3;
* ``supervise [workload] [--engine naive|vector] [--retry N]
  [--backoff MS] [--attempt-deadline MS] [--total-deadline MS]
  [--deadline MS] [--max-while N] [--checkpoint PATH] [--faults JSON]
  [--seed N] [--breaker-threshold N] [--cooldown S] [--ledger DIR]
  [--verify] [--json]`` — run one workload to a definitive outcome
  under the supervisor and print the attempt-by-attempt history;
  ``--faults`` injects a seeded chaos plan (docs/ROBUSTNESS.md JSON
  format) to exercise the retry/degradation paths; with ``--ledger``
  the admission stamp, breaker transitions, and closing manifest are
  journaled so the run is crash-recoverable; exit 0 on a verified
  result, 1 on terminal failure or quarantine;
* ``recover [--ledger DIR] [--retry N] [--verify] [--json]`` — crash
  recovery: scan the ledger for runs with an admission stamp but no
  outcome, resume each from its checkpoint under the supervisor, and
  stamp unrecoverable ones ``orphaned`` (missing/torn checkpoint,
  unreplayable spec); exit 0 when every open run was resumed or
  orphaned, 1 when a resumed run failed, 3 when the ledger is absent;
* ``chaos [example...] [--kinds raise,delay,corrupt] [--seed N]
  [--supervisor] [--json]`` — run the fault-injection matrix over the
  bundled pipelines; every injection point must surface as a typed
  error with no partial mutation (exit 1 otherwise); ``--supervisor``
  runs the supervisor decision matrix instead: every
  (error class × retry policy × engine) cell must end in the documented
  decision (retried/resumed/degraded/quarantined) with a final database
  byte-identical to an unfaulted run;
* ``history [run-id] [--ledger DIR] [--fingerprint F] [--workload W]
  [--outcome S] [--limit N] [--aggregates] [--json]`` — list the runs
  recorded in a ledger directory (``run --ledger`` / ``trace --ledger``
  write them), inspect one run's full manifest by id, or
  (``--aggregates``) print the per-fingerprint cross-run aggregates the
  cost-model feedback loop consumes;
* ``replay <run-id | bundle-dir> [--ledger DIR] [--engine naive|vector]
  [--inject-fault SEED] [--json]`` — re-execute a ledgered run and diff
  it against the recording: result-database digest (with structural
  drill-down to the first differing cell), ordered op/rows trace, and
  normalized program fingerprint; exit 0 iff byte-identical, 1 on any
  divergence.  A flight-recorder bundle directory resolves to its run
  via the manifest's run pointer.  ``--inject-fault`` /``--engine``
  deliberately inject divergence so CI can prove the detector fires;
* ``sentinel [--ledger DIR] [--window N] [--min-runs N]
  [--latency-factor X] [--qerror-factor X] [--fallback-jump X]
  [--json]`` — cross-run drift detection: compare the recent window of
  runs against the baseline window per program fingerprint over latency
  p50/p95, mean q-error, and vector-fallback rate; exit 0 clean, 4 on
  drift, 3 when no fingerprint has enough history.

``run`` and ``trace`` accept ``--ledger DIR`` to journal the run into a
persistent ledger (docs/OBSERVABILITY.md describes the on-disk format).

Every command's flags are declared once, in ``ARGUMENTS``, and validated
before the command runs: an unknown flag (flags are never abbreviated), a
repeated one, a flag missing its value or given an ill-typed one, and a
surplus positional argument are usage errors — ``error: …`` on stdout,
exit status 2.  Workload and example names (``tc:N``, ``chain:N``,
``restructure:N``, an example or a unique prefix of one) all resolve
through :func:`repro.runtime.workloads.resolve_workload`.

Exit codes, uniformly: 0 success; 1 failure (a check failed, a run was
killed or diverged, a gate tripped); 2 usage error; 3 missing input
(file, ledger, run, or bundle absent or unusable); 4 drift detected.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from .core.errors import (
    CheckpointError,
    LedgerError,
    NotAProgramError,
    StatsError,
    UnknownSpecError,
    WorkloadSpecError,
)


class UsageError(Exception):
    """A command line its command does not accept (exit status 2)."""


def _figures(args: list[str], opts: dict) -> int:
    from .algebra import group, merge
    from .core import render_database, render_table
    from .data import (
        figure4_bottom,
        figure4_top,
        figure5_result,
        sales_info1,
        sales_info2,
        sales_info3,
        sales_info4,
    )

    print("=" * 72)
    print("Figure 1 — the four SalesInfo databases (bold parts)")
    print("=" * 72)
    for label, db in [
        ("SalesInfo1", sales_info1()),
        ("SalesInfo2", sales_info2()),
        ("SalesInfo3", sales_info3()),
        ("SalesInfo4", sales_info4()),
    ]:
        print()
        print(render_database(db, title=label))
    print()
    print("=" * 72)
    print("Figure 4 — Sales <- GROUP by Region on Sold (Sales)")
    print("=" * 72)
    grouped = group(figure4_top(), by="Region", on="Sold")
    print(render_table(grouped))
    print()
    print("reproduces the printed figure exactly:", grouped == figure4_bottom())
    print()
    print("=" * 72)
    print("Figure 5 — Sales <- MERGE on Sold by Region (Sales)")
    print("=" * 72)
    merged = merge(sales_info2().tables[0], on="Sold", by="Region")
    print(render_table(merged))
    print()
    print("reproduces the printed figure exactly:", merged == figure5_result())
    return 0


def _check(args: list[str], opts: dict) -> int:
    from .algebra import collapse_compact, group, group_compact, merge, merge_compact, split
    from .canonical import decode, encode
    from .data import (
        figure4_bottom,
        figure4_top,
        figure5_result,
        sales_info1,
        sales_info2,
        sales_info4,
    )

    checks = {
        "Figure 4 (GROUP, exact)": group(figure4_top(), by="Region", on="Sold")
        == figure4_bottom(),
        "Figure 5 (MERGE, exact)": merge(
            sales_info2().tables[0], on="Sold", by="Region"
        )
        == figure5_result(),
        "SalesInfo1 -> SalesInfo2": group_compact(
            figure4_top(), by="Region", on="Sold"
        ).equivalent(sales_info2().tables[0]),
        "SalesInfo2 -> SalesInfo1": merge_compact(
            sales_info2().tables[0], on="Sold", by="Region"
        ).equivalent(figure4_top()),
        "SalesInfo4 -> SalesInfo1": collapse_compact(
            sales_info4().tables, by="Region"
        ).equivalent(figure4_top()),
        "SalesInfo1 -> SalesInfo4": all(
            any(p.equivalent(t) for t in sales_info4().tables)
            for p in split(figure4_top(), on="Region")
        ),
        "canonical round trip": decode(encode(sales_info1())).equivalent(
            sales_info1()
        ),
    }
    failed = 0
    for label, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'}  {label}")
        failed += 0 if ok else 1
    print()
    print(f"{len(checks) - failed}/{len(checks)} reproductions hold")
    return 1 if failed else 0


def _demo(args: list[str], opts: dict) -> int:
    import runpy

    script = Path(__file__).resolve().parent.parent.parent / "examples" / "quickstart.py"
    if not script.exists():
        print("quickstart example not found (installed without examples/)")
        return 1
    runpy.run_path(str(script), run_name="__main__")
    return 0


def _list_examples() -> None:
    from .obs.examples import EXAMPLES

    for example in EXAMPLES.values():
        print(f"  {example.name:12}  {example.description}")


def _example(args: list[str]):
    """The bundled example named by the first positional (default fig4-group)."""
    from .runtime.workloads import lookup_example

    return lookup_example(args[0] if args else "fig4-group")


def _workload(spec: str, consequence: str) -> tuple:
    """``(label, program, db)`` for ``spec``, via the one workload resolver.

    Every failure is a typed :class:`~repro.core.errors.WorkloadSpecError`
    that :func:`main` reports; a non-program example's message ends with
    what the command cannot do with it (``consequence``).
    """
    from .runtime.workloads import resolve_workload

    try:
        return resolve_workload(spec)
    except NotAProgramError as err:
        raise NotAProgramError(f"{err}; {consequence}") from None


def _load_stats(opts: dict):
    """The ANALYZE snapshot ``--stats`` names, or None without the flag."""
    if "--stats" not in opts:
        return None
    from .obs.stats import load_stats

    return load_stats(opts["--stats"])


def _seconds(opts: dict, flag: str, default: float | None = None) -> float | None:
    """A millisecond-valued flag in seconds (``default`` when absent)."""
    return opts[flag] / 1000.0 if flag in opts else default


def _trace(args: list[str], opts: dict) -> int:
    from contextlib import ExitStack

    from .obs.examples import trace_example

    example = _example(args)
    name = example.name
    ledger_dir = opts.get("--ledger")
    recorder = None
    with ExitStack() as stack:
        if ledger_dir is not None:
            from .obs.events import event_stream
            from .obs.ledger import RunLedger, RunRecorder

            bus = stack.enter_context(event_stream())
            recorder = RunRecorder(bus, RunLedger(ledger_dir))
        stats = _load_stats(opts)
        if stats is not None:
            from .obs.estimator import estimation

            stack.enter_context(estimation(stats))
        obs, _result = trace_example(name)
        if recorder is not None:
            # Traces are journaled for history/sentinel but marked
            # non-replayable: the tracer drives the example's own
            # pipeline, not the hardened runtime replay re-executes.
            from .runtime.workloads import resolve_workload

            try:
                _label, program, _db = resolve_workload(name)
            except NotAProgramError:
                program = None
            recorder.finish(workload=name, program=program)
            if "--json" not in opts:
                print(f"run {recorder.run_id} recorded in ledger {ledger_dir}")
                print()
    analyze = "--analyze" in opts
    if "--json" in opts:
        data = obs.to_json()
        if analyze:
            from .obs.cost import analyze_records

            data["analyze"] = [
                {
                    k: (round(v, 6) if isinstance(v, float) else v)
                    for k, v in record.items()
                }
                for record in analyze_records(obs)
            ]
        print(json.dumps(data, indent=2))
        return 0
    print(f"trace of {name} — {example.description}")
    print()
    if analyze:
        from .obs.cost import explain_analyze_text

        print(explain_analyze_text(obs))
    else:
        print(obs.explain())
    return 0


def _profile(args: list[str], opts: dict) -> int:
    from .obs.examples import profile_example
    from .obs.export import write_chrome_trace, write_jsonl

    example = _example(args)
    prof, _result = profile_example(example.name, memory="--no-memory" not in opts)
    if "--json" in opts:
        print(json.dumps(prof.to_json(), indent=2))
    else:
        print(f"profile of {example.name} — {example.description}")
        print()
        print(prof.report())
    if opts.get("--chrome-trace"):
        written = write_chrome_trace(prof.observation, opts["--chrome-trace"])
        print(f"chrome trace written to {written} (load in chrome://tracing or Perfetto)")
    if opts.get("--log-json"):
        written = write_jsonl(prof.observation, opts["--log-json"])
        print(f"JSON-lines log written to {written}")
    return 0


def _parse_cell(text: str) -> tuple[str, int, int] | None:
    """Parse ``T[r,c]`` (table label, row, column); None when malformed."""
    import re

    match = re.fullmatch(r"\s*(.+?)\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*", text)
    if match is None:
        return None
    return match.group(1), int(match.group(2)), int(match.group(3))


def _lineage_graph(name: str) -> dict:
    """One example's provenance graph (its own lineage run)."""
    from .obs.examples import EXAMPLES
    from .obs.lineage import lineage as lineage_scope, provenance_graph

    db, run = EXAMPLES[name].setup()
    with lineage_scope() as lin:
        tagged = lin.tag_database(db)
        out = run(tagged)
        return provenance_graph(lin, out, name=name)


def _lineage(args: list[str], opts: dict) -> int:
    from .obs import observation
    from .obs.examples import EXAMPLES
    from .obs.export import write_provenance_dot, write_provenance_json
    from .obs.lineage import audit_run, lineage as lineage_scope

    cell_text = opts.get("--cell")
    dot_path = opts.get("--dot")
    graph_json_path = opts.get("--graph-json")
    audit = "--audit" in opts

    capable = {name: ex for name, ex in EXAMPLES.items() if ex.setup is not None}
    if audit and not args:
        # Audit (and optionally graph-export) every lineage-capable example.
        failures = 0
        graphs = []
        for name in capable:
            db, run = capable[name].setup()
            result = audit_run(run, db, name=name)
            verdict = "ok  " if result.ok else "FAIL"
            print(
                f"{verdict}  {name:12} {result.queried} cells queried, "
                f"{result.regenerated} regenerated "
                f"({result.constants} constants, {result.replays} replays)"
            )
            if not result.ok:
                failures += 1
                for label, row, col in result.failures[:5]:
                    print(f"        not regenerated: {label}[{row},{col}]")
            if dot_path or graph_json_path:
                graphs.append(_lineage_graph(name))
        print()
        print(f"{len(capable) - failures}/{len(capable)} examples fully constructive")
        if dot_path:
            print(f"provenance graph written to {write_provenance_dot(graphs, dot_path)}")
        if graph_json_path:
            print(
                "provenance graph JSON written to "
                f"{write_provenance_json(graphs, graph_json_path)}"
            )
        return 1 if failures else 0

    example = _example(args)
    name = example.name
    if example.setup is None:
        print(
            f"error: example {name!r} is not lineage-capable "
            "(its pipeline is not a TA program over a tabular database)"
        )
        others = ", ".join(capable)
        print(f"lineage-capable examples: {others}")
        return 2

    if audit:
        db, run = example.setup()
        result = audit_run(run, db, name=name)
        print(
            f"audit of {name}: {result.queried} cells queried, "
            f"{result.regenerated} regenerated "
            f"({result.constants} constants, {result.replays} replays)"
        )
        for label, row, col in result.failures:
            print(f"  not regenerated: {label}[{row},{col}]")
        if dot_path:
            print(
                "provenance graph written to "
                f"{write_provenance_dot(_lineage_graph(name), dot_path)}"
            )
        if graph_json_path:
            print(
                "provenance graph JSON written to "
                f"{write_provenance_json(_lineage_graph(name), graph_json_path)}"
            )
        return 0 if result.ok else 1

    db, run = example.setup()
    with observation() as obs, lineage_scope() as lin:
        tagged = lin.tag_database(db)
        out = run(tagged)

    # Label output tables the way tag_database labels inputs (Name#k on
    # name collisions) so --cell can address any of them.
    out_names = [str(t.name) for t in out.tables]
    seen: dict[str, int] = {}
    labels = []
    for table_name in out_names:
        if out_names.count(table_name) > 1:
            labels.append(f"{table_name}#{seen.get(table_name, 0)}")
            seen[table_name] = seen.get(table_name, 0) + 1
        else:
            labels.append(table_name)
    by_label = dict(zip(labels, out.tables))

    if cell_text is not None:
        parsed = _parse_cell(cell_text)
        if parsed is None:
            raise UsageError(
                f"malformed --cell {cell_text!r}; expected T[r,c], e.g. Sales[2,3]"
            )
        label, row, col = parsed
        table = by_label.get(label)
        if table is None:
            raise UsageError(f"no output table {label!r}; output tables: {', '.join(labels)}")
        if not (0 <= row < table.nrows and 0 <= col < table.ncols):
            raise UsageError(
                f"cell [{row},{col}] outside {label!r} "
                f"({table.nrows} rows x {table.ncols} cols)"
            )
    else:
        # Default: the first output cell that carries provenance,
        # preferring data cells over attribute cells.
        label, table, row, col = labels[0], out.tables[0], 0, 0
        found = False
        for lbl, t in by_label.items():
            for i in list(t.data_row_indices()) + [0]:
                for j in range(t.ncols):
                    if t.entry(i, j).prov:
                        label, table, row, col = lbl, t, i, j
                        found = True
                        break
                if found:
                    break
            if found:
                break

    witness = lin.witness(table, row, col, label=label)
    print(f"lineage of {name} — {example.description}")
    print()
    print(lin.describe_witness(witness))
    check = lin.replay_check(run, witness)
    print()
    if witness.origins:
        verdict = "regenerated" if check.regenerated else "NOT regenerated"
        print(
            f"witness replay: {verdict} "
            f"({check.matches} matching cell(s) from {witness.cells} witness rows)"
        )
    else:
        print("witness replay: trivial (constant cell, no input dependency)")
    print()
    print("provenance-annotated EXPLAIN:")
    print(obs.explain())
    return 0 if check.regenerated else 1


def _supervisor(opts: dict, ledger=None):
    """The :class:`~repro.runtime.supervisor.Supervisor` behind
    ``run --retry``, ``supervise`` and ``recover``.

    The retry and breaker policies read whichever policy flags the
    command's table declares; the rest keep their defaults.  Flags that
    make a policy invalid are a usage error, raised before ``ledger`` —
    an open :class:`~repro.obs.ledger.RunLedger` or a directory to open —
    is touched.
    """
    from .core.errors import ReproError
    from .runtime.policy import BreakerPolicy, RetryPolicy
    from .runtime.supervisor import Supervisor

    try:
        policy = RetryPolicy(
            max_attempts=opts["--retry"] + 1 if "--retry" in opts else 3,
            base_backoff_s=_seconds(opts, "--backoff", 0.01),
            seed=opts.get("--seed", 0),
            attempt_deadline_s=_seconds(opts, "--attempt-deadline"),
            total_deadline_s=_seconds(opts, "--total-deadline"),
        )
        breaker_policy = BreakerPolicy(
            failure_threshold=opts.get("--breaker-threshold", 3),
            cooldown_s=opts.get("--cooldown", 30.0),
        )
    except ReproError as err:
        raise UsageError(str(err)) from None
    if isinstance(ledger, str):
        from .obs.ledger import RunLedger

        ledger = RunLedger(ledger)
    return Supervisor(policy=policy, breaker_policy=breaker_policy, ledger=ledger)


def _submit_supervised(opts: dict, ledger, workload: tuple, **submit):
    """Submit ``workload`` to :func:`_supervisor`'s supervisor.

    Returns the :class:`~repro.runtime.supervisor.SupervisedRun`, or
    None once a breaker refusal (quarantine) has been reported.
    """
    from .core.errors import QuarantinedError

    supervisor = _supervisor(opts, ledger)
    label, program, db = workload
    try:
        return supervisor.submit(program, db, workload=label, spec=label, **submit)
    except QuarantinedError as err:
        if "--json" in opts:
            print(json.dumps(
                {"workload": label, "outcome": "quarantined", "error": str(err)},
                indent=2,
            ))
        else:
            print(f"quarantined: {err}")
        return None


def _run(args: list[str], opts: dict) -> int:
    from contextlib import ExitStack

    from .core.errors import BudgetExceededError, CancelledError
    from .runtime import Limits, ResourceGovernor, run_hardened

    label, program, db = _workload(
        args[0] if args else "tc", "it cannot run under the hardened runtime"
    )
    engine = opts.get("--engine", "naive")
    checkpoint = opts.get("--checkpoint")
    ledger_dir = opts.get("--ledger")
    resume = "--resume" in opts
    verify = "--verify" in opts
    json_out = "--json" in opts
    limits = Limits(
        deadline_s=_seconds(opts, "--deadline"),
        max_total_rows=opts.get("--max-rows"),
        max_rows_per_op=opts.get("--max-rows-per-op"),
        max_cells_per_op=opts.get("--max-cells-per-op"),
        max_while_iterations=opts.get("--max-while"),
    )
    if resume and checkpoint is None:
        raise UsageError("--resume requires --checkpoint PATH")
    if "--retry" in opts and checkpoint is None:
        raise UsageError("--retry requires --checkpoint PATH (resume needs a file)")
    stats = _load_stats(opts)

    optimizer_manifest = None
    if "--optimize" in opts:
        # The optimized program replaces the original for every path
        # below — hardened driver, supervisor, verify, and the ledger
        # manifest all see (and fingerprint) the optimized plan.  The
        # manifest also records the rules and the stats snapshot the
        # plan was chosen from, so `repro replay` can re-derive the
        # identical plan instead of diverging on the fingerprint.
        from .engine.optimizer import optimize_program

        optimized = optimize_program(program, stats)
        program = optimized.program
        optimizer_manifest = {
            "rules": list(optimized.rules),
            "applied": [rewrite.rule for rewrite in optimized.applied],
            "stats": None if stats is None else stats.to_json(),
        }

    bundle_path = None
    run_recorder = None
    with ExitStack() as stack:
        # The event feed is on whenever anything consumes it: the live
        # ticker, the JSONL stream, the flight recorder's postmortem
        # ring, or the run-ledger recorder.  With none of the four,
        # `run` keeps the zero-overhead disabled path.
        recorder = None
        if {"--progress", "--events", "--flight-dir", "--ledger"} & opts.keys():
            from .obs.events import JsonlEventWriter, event_stream
            from .obs.flight import FlightRecorder
            from .obs.progress import ProgressTicker

            bus = stack.enter_context(event_stream())
            if "--progress" in opts:
                bus.attach(ProgressTicker())
            if "--events" in opts:
                writer = JsonlEventWriter(opts["--events"])
                bus.attach(writer)
                stack.callback(writer.close)
            if ledger_dir is not None:
                from .obs.ledger import RunLedger, RunRecorder

                run_recorder = RunRecorder(bus, RunLedger(ledger_dir))
            if "--flight-dir" in opts:
                recorder = FlightRecorder(bus, directory=opts["--flight-dir"])
                recorder.note_program(repr(program))
                if stats is not None:
                    recorder.note_stats(stats)
                if run_recorder is not None:
                    recorder.note_run(run_recorder.run_id, ledger_dir)
        if stats is not None:
            from .obs.estimator import estimation

            stack.enter_context(estimation(stats))
        if "--retry" in opts:
            # --retry routes through the fault-tolerant supervisor:
            # error classification, checkpoint resume, deterministic
            # backoff, vector->naive degradation, breaker admission.
            from .core.errors import VerificationError

            srun = _submit_supervised(
                opts,
                run_recorder.ledger if run_recorder is not None else None,
                (label, program, db),
                limits=limits,
                checkpoint_path=checkpoint,
                resume=resume,
                engine=engine,
                verify=verify,
                recorder=run_recorder,
                optimizer=optimizer_manifest,
            )
            if srun is None:
                return 1
            attempts = len(srun.attempts)
            kills = [a.error for a in srun.attempts if a.error is not None]
            summary = {
                "workload": label,
                "engine": srun.engine,
                "attempts": attempts,
                "kills": kills,
                "finished": srun.ok,
                "supervisor": srun.history(),
            }
            if run_recorder is not None:
                summary["run_id"] = srun.run_id
                summary["ledger"] = ledger_dir
            if not srun.ok:
                if recorder is not None:
                    recorder.note_supervisor(srun.history())
                    try:
                        bundle_path = str(recorder.dump(error=srun.error))
                    except OSError:
                        bundle_path = None
                    if bundle_path is not None:
                        summary["postmortem"] = bundle_path
                if json_out:
                    print(json.dumps(summary, indent=2))
                else:
                    print(
                        f"failed after {attempts} attempt(s): {srun.error}"
                    )
                    if isinstance(srun.error, VerificationError):
                        print("verify: MISMATCH against ungoverned run")
                    if bundle_path is not None:
                        print(f"postmortem bundle written to {bundle_path}")
                    if run_recorder is not None:
                        print(
                            f"run {srun.run_id} recorded in ledger {ledger_dir}"
                        )
                return 1
            result = srun.result
            summary["tables"] = len(result.tables)
            if verify:
                summary["identical_to_ungoverned_run"] = srun.verified
            if json_out:
                print(json.dumps(summary, indent=2))
            else:
                print(
                    f"{label}: finished after {attempts} attempt(s) "
                    f"({len(kills)} budget kill(s)); "
                    f"{summary['tables']} output table(s)"
                )
                if srun.degraded or srun.shed:
                    print(
                        f"supervisor: degraded to engine={srun.engine}"
                        + (f", shed {', '.join(srun.shed)}" if srun.shed else "")
                    )
                if run_recorder is not None:
                    print(f"run {srun.run_id} recorded in ledger {ledger_dir}")
                if verify:
                    print("verify: identical to ungoverned run")
            return 0
        governor = ResourceGovernor(limits)
        try:
            result = run_hardened(
                program,
                db,
                governor=governor,
                checkpoint_path=checkpoint,
                resume=resume,
                engine=engine,
            )
        except (BudgetExceededError, CancelledError) as err:
            kills = [str(err)]
            if not json_out:
                print(f"killed (attempt 1): {err}")
            if recorder is not None:
                # The run is over and it died contextually: dump the
                # postmortem bundle (event tail, metrics, checkpoint
                # pointer) before reporting the failure.
                try:
                    bundle_path = str(recorder.dump(error=err))
                except OSError:
                    bundle_path = None
                if bundle_path is not None and not json_out:
                    print(f"postmortem bundle written to {bundle_path}")
            if run_recorder is not None:
                run_recorder.finish(
                    workload=label, program=program, engine=engine,
                    error=err, limits=limits, attempts=1,
                    kills=kills, stats=stats, replay_spec=label,
                    optimizer=optimizer_manifest,
                )
                if not json_out:
                    print(
                        f"run {run_recorder.run_id} recorded in "
                        f"ledger {ledger_dir}"
                    )
            if json_out:
                summary = {"workload": label, "attempts": 1,
                           "kills": kills, "finished": False}
                if bundle_path is not None:
                    summary["postmortem"] = bundle_path
                if run_recorder is not None:
                    summary["run_id"] = run_recorder.run_id
                    summary["ledger"] = ledger_dir
                print(json.dumps(summary, indent=2))
            return 1

    if run_recorder is not None:
        run_recorder.finish(
            workload=label, program=program, engine=engine,
            result_db=result, limits=limits, attempts=1,
            kills=[], stats=stats, replay_spec=label,
            optimizer=optimizer_manifest,
        )
    identical = None
    if verify:
        identical = result == program.run(db)
    summary = {
        "workload": label,
        "engine": engine,
        "attempts": 1,
        "kills": [],
        "finished": True,
        "tables": len(result.tables),
        "governor": governor.snapshot(),
    }
    if identical is not None:
        summary["identical_to_ungoverned_run"] = identical
    if run_recorder is not None:
        summary["run_id"] = run_recorder.run_id
        summary["ledger"] = ledger_dir
    if json_out:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"{label}: finished after 1 attempt(s) "
            f"(0 budget kill(s)); {summary['tables']} output table(s)"
        )
        gov = summary["governor"]
        print(
            f"governor (final attempt): "
            f"{gov['ops_dispatched']} ops, {gov['rows_emitted']} rows, "
            f"{gov['cells_emitted']} cells in {gov['elapsed_s'] * 1000:.0f}ms"
        )
        if run_recorder is not None:
            print(f"run {run_recorder.run_id} recorded in ledger {ledger_dir}")
        if identical is not None:
            print(
                "verify: identical to ungoverned run"
                if identical
                else "verify: MISMATCH against ungoverned run"
            )
    return 0 if identical in (None, True) else 1


def _supervise(args: list[str], opts: dict) -> int:
    from .core.errors import ReproError
    from .runtime import Limits

    workload = _workload(
        args[0] if args else "tc", "it cannot run under the hardened runtime"
    )
    faults = None
    if "--faults" in opts:
        from .runtime.faults import FaultPlan

        try:
            faults = FaultPlan.from_json(json.loads(opts["--faults"]))
        except (ValueError, ReproError) as err:
            raise UsageError(f"invalid --faults payload: {err}") from None
    limits = Limits(
        deadline_s=_seconds(opts, "--deadline"),
        max_while_iterations=opts.get("--max-while"),
    )
    label = workload[0]
    verify = "--verify" in opts
    srun = _submit_supervised(
        opts,
        opts.get("--ledger"),
        workload,
        limits=limits,
        faults=faults,
        checkpoint_path=opts.get("--checkpoint"),
        engine=opts.get("--engine", "naive"),
        verify=verify,
    )
    if srun is None:
        return 1
    if "--json" in opts:
        print(json.dumps(srun.history(), indent=2))
    else:
        print(
            f"{label}: {srun.outcome} after {len(srun.attempts)} attempt(s) "
            f"on engine {srun.engine}"
            + (" [degraded]" if srun.degraded else "")
            + (f" [shed {', '.join(srun.shed)}]" if srun.shed else "")
        )
        for record in srun.attempts:
            verdict = record.decision or "ok"
            detail = f" {record.error_type}: {record.error}" if record.error else ""
            print(
                f"  attempt {record.attempt} [{record.engine}"
                + (", resumed" if record.resumed else "")
                + f"] -> {verdict}{detail}"
            )
        if srun.error is not None:
            print(f"terminal error: {srun.error}")
        if verify and srun.ok:
            print("verify: identical to ungoverned run")
        if "--ledger" in opts:
            print(f"run {srun.run_id} recorded in ledger {opts['--ledger']}")
    return 0 if srun.ok else 1


def _recover(args: list[str], opts: dict) -> int:
    supervisor = _supervisor(opts, _open_ledger(opts.get("--ledger", "ledger")))
    report = supervisor.recover(verify="--verify" in opts)
    if "--json" in opts:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _chaos(args: list[str], opts: dict) -> int:
    from dataclasses import asdict

    from .runtime.chaos import (
        render_chaos_report,
        render_supervisor_report,
        run_chaos_matrix,
        run_supervisor_matrix,
    )

    seed = opts.get("--seed", 0)
    if "--supervisor" in opts:
        report, render = run_supervisor_matrix(seed=seed), render_supervisor_report
    else:
        kinds = None
        if "--kinds" in opts:
            kinds = tuple(k.strip() for k in opts["--kinds"].split(",") if k.strip())
            unknown = [k for k in kinds if k not in ("raise", "delay", "corrupt")]
            if unknown:
                raise UsageError(
                    f"unknown fault kind(s) {unknown}; expected raise/delay/corrupt"
                )
        report = run_chaos_matrix(args or None, kinds=kinds, seed=seed)
        render = render_chaos_report
    if "--json" in opts:
        points = [{**asdict(p), "ok": p.ok} for p in report.points]
        print(json.dumps(
            {"seed": report.seed, "ok": report.ok, "points": points}, indent=2
        ))
    else:
        print(render(report))
    return 0 if report.ok else 1


def _bench_compare(args: list[str], opts: dict) -> int:
    from .obs.regress import compare_trajectories, render_comparison

    if len(args) != 2:
        print("usage: repro bench-compare <baseline.json> <current.json> [--tolerance X]")
        return 2
    # Converted here rather than by the flag table, which would word the
    # error "invalid --tolerance"; callers match "invalid tolerance".
    tolerance_text = opts.get("--tolerance")
    try:
        tolerance = float(tolerance_text) if tolerance_text else 1.5
    except ValueError:
        raise UsageError(f"invalid tolerance {tolerance_text!r}; expected a number") from None
    # A missing or unparseable trajectory must not silently compare as
    # empty (the gate would pass with nothing checked): exit status 3,
    # distinct from 1 (regression found) and 2 (usage error), so CI can
    # tell "the perf gate failed" from "the perf gate never ran".
    for role, path in zip(("baseline", "current"), args):
        try:
            data = json.loads(Path(path).read_text())
        except OSError as err:
            print(f"error: cannot read {role} trajectory {path}: {err}")
            return 3
        except ValueError as err:
            print(f"error: {role} trajectory {path} is not valid JSON: {err}")
            return 3
        if not isinstance(data, dict) or not isinstance(data.get("benchmarks"), dict):
            print(
                f"error: {role} trajectory {path} is malformed "
                '(expected {"format": ..., "benchmarks": {...}})'
            )
            return 3
    comparison = compare_trajectories(args[0], args[1], tolerance=tolerance)
    print(render_comparison(comparison))
    return 0 if comparison.ok else 1


def _stats(args: list[str], opts: dict) -> int:
    from .core import render_table
    from .obs import counters_table, metrics_table, observation
    from .obs.examples import EXAMPLES, run_example

    with observation() as obs:
        for example in EXAMPLES.values():
            run_example(example.name)
    metrics = obs.metrics
    if "--json" in opts:
        print(json.dumps(metrics.snapshot(), indent=2))
        return 0
    print(f"aggregated metrics over {len(EXAMPLES)} bundled pipelines")
    print()
    ops = metrics_table(metrics)
    if ops is not None:
        print(render_table(ops, title="Operation metrics"))
        print()
    counters = counters_table(metrics)
    if counters is not None:
        print(render_table(counters, title="Counters"))
    return 0


def _analyze(args: list[str], opts: dict) -> int:
    from .obs.stats import DEFAULT_TOP_K, analyze_database

    label, _program, db = _workload(
        args[0] if args else "tc:8", "it has no tabular database to ANALYZE"
    )
    stats = analyze_database(db, top_k=opts.get("--top-k", DEFAULT_TOP_K))
    written = None
    if "--out" in opts:
        written = stats.save(opts["--out"])
    if "--json" in opts:
        print(json.dumps(stats.to_json(), indent=2))
        return 0
    print(f"ANALYZE of {label} (top-{stats.top_k} sketches)")
    print(
        f"fingerprint {stats.fingerprint}  "
        f"{len(stats.tables)} table(s), {stats.total_rows} data row(s)"
    )
    for table in stats.tables:
        print(
            f"  {table.name}: {table.height} rows x {table.width} cols, "
            f"{table.distinct_rows} distinct"
        )
        for column in table.columns:
            top = ", ".join(f"{s}:{c}" for s, c in column.top[:3])
            print(
                f"    {column.attribute}: ndv {column.ndv}, "
                f"nulls {column.nulls}, min {column.min}, max {column.max}"
                + (f", top [{top}]" if top else "")
            )
    if written is not None:
        print(f"snapshot written to {written}")
    return 0


def _stats_audit(args: list[str], opts: dict) -> int:
    from .obs.workload import DEFAULT_AUDIT_SEEDS, stats_audit

    out_path = opts.get("--out")
    report = stats_audit(
        seeds=opts.get("--seeds", DEFAULT_AUDIT_SEEDS),
        tc_size=opts.get("--tc", 6),
    )
    if out_path is not None:
        target = Path(out_path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(report, indent=2) + "\n")
    if "--json" in opts:
        print(json.dumps(report, indent=2))
    else:
        corpus = report["corpus"]
        print(
            f"stats audit: {corpus['cases']} case(s) "
            f"({corpus['fuzz_seeds']} fuzz seed(s), {corpus['errors']} "
            f"raised), {report['overall']['estimates']} estimate(s) scored "
            f"in {corpus['elapsed_s']}s"
        )
        print()
        width = max((len(op) for op in report["ops"]), default=2)
        print(f"{'op':{width}}  {'n':>5}  {'p50':>6}  {'p95':>6}  {'max':>8}  sources")
        for op, record in report["ops"].items():
            sources = " ".join(
                f"{source}={count}" for source, count in sorted(record["sources"].items())
            )
            print(
                f"{op:{width}}  {record['count']:>5}  {record['p50']:>6}  "
                f"{record['p95']:>6}  {record['max']:>8}  {sources}"
            )
        overall = report["overall"]
        print()
        print(
            f"overall q-error: p50 {overall['p50']}, p95 {overall['p95']}, "
            f"max {overall['max']}"
        )
        coverage = report["coverage"]
        if coverage["complete"]:
            print(
                f"coverage: complete — every dispatched op kind "
                f"({len(coverage['dispatched_ops'])}) was scored"
            )
        else:
            print(f"coverage: INCOMPLETE — never scored: {coverage['missing']}")
        optimizer = report["optimizer"]
        print(
            f"optimizer pass: {optimizer['cases']} case(s) rescored "
            f"post-rewrite ({optimizer['rewrites']} rewrite(s)), "
            f"{optimizer['estimates']} estimate(s): p50 {optimizer['p50']}, "
            f"p95 {optimizer['p95']}, max {optimizer['max']}"
        )
        if optimizer["regressed"]:
            print(
                f"optimizer REGRESSION: post-rewrite p95 {optimizer['p95']} "
                f"> baseline {optimizer['baseline_p95']} x "
                f"{optimizer['tolerance']}"
            )
        if out_path is not None:
            print(f"report written to {out_path}")
    if report["optimizer"]["regressed"]:
        return 1
    return 0 if report["coverage"]["complete"] else 1


def _optimize(args: list[str], opts: dict) -> int:
    from .engine.optimizer import PLAN_CACHE, RULE_ORDER, RULES, optimize_program

    label, program, db = _workload(args[0] if args else "chain", "it cannot be optimized")
    analyze = "--analyze" in opts
    rules = None
    if "--rules" in opts:
        rules = [r.strip() for r in opts["--rules"].split(",") if r.strip()]
        unknown = sorted(set(rules) - set(RULES))
        if unknown:
            raise UsageError(
                f"unknown rule(s) {', '.join(unknown)}; "
                f"known: {', '.join(RULE_ORDER)}"
            )
    stats = _load_stats(opts)
    if stats is None and analyze:
        from .obs.stats import analyze_database

        stats = analyze_database(db)

    result = optimize_program(
        program, stats, rules=rules,
        cache=None if "--no-cache" in opts else PLAN_CACHE,
    )

    identical = None
    if "--verify" in opts:
        identical = program.run(db) == result.program.run(db)

    explain_text = None
    if "--explain" in opts:
        from .obs import observation
        from .obs.estimator import estimation

        with observation() as obs:
            if stats is not None:
                with estimation(stats):
                    result.program.run(db)
            else:
                result.program.run(db)
        explain_text = obs.explain()

    if "--json" in opts:
        data = result.to_json()
        data["workload"] = label
        data["stats"] = "analyze" if analyze else opts.get("--stats")
        if identical is not None:
            data["identical"] = identical
        print(json.dumps(data, indent=2))
        return 0 if identical in (None, True) else 1

    stats_note = (
        f"stats {result.stats_fingerprint}" if stats is not None else "no stats"
    )
    print(f"plan for {label}  (fingerprint {result.fingerprint}, {stats_note})")
    if result.cache_hit:
        print("plan cache: hit (planning skipped)")
    print()
    print("before:")
    for i, statement in enumerate(result.source.statements, start=1):
        print(f"  {i:>2}. {statement!r}")
    print("after:")
    for i, statement in enumerate(result.program.statements, start=1):
        print(f"  {i:>2}. {statement!r}")
    print()
    if result.applied:
        print(f"applied rewrites ({len(result.applied)}):")
        for rewrite in result.applied:
            print(f"  - {rewrite.rule}: {rewrite.detail}")
            print(f"      justified by: {rewrite.justification}")
    else:
        print("applied rewrites: none (program already normal)")
    if result.decisions:
        print("ordering decisions:")
        for decision in result.decisions:
            order = ", ".join(decision.leaves[i] for i in decision.order)
            extra = (
                f"  est_rows={decision.est_rows}"
                if decision.est_rows is not None
                else ""
            )
            print(
                f"  - {decision.target}: {decision.outcome} "
                f"[{order}] — {decision.reason}{extra}"
            )
    if explain_text is not None:
        print()
        print(explain_text)
    if identical is not None:
        print()
        print(
            "verify: optimized plan produced the identical database"
            if identical
            else "verify: MISMATCH between original and optimized plan"
        )
    return 0 if identical in (None, True) else 1


def _metrics(args: list[str], opts: dict) -> int:
    from .obs import observation, prometheus_text

    stats = _load_stats(opts)
    accuracy = None
    from .obs.events import event_stream

    # The corpus runs under a live bus with one small ring attached, so
    # the export carries real publish/receive/drop counts — a scrape can
    # alert on ring truncation instead of discovering it in a postmortem.
    with event_stream() as bus, observation() as obs:
        bus.ring(capacity=256)
        from .obs.examples import EXAMPLES, run_example

        if "--estimates" in opts:
            # Rerun the corpus under estimation: each example's database
            # is ANALYZEd first so the estimator families carry real
            # stats-sourced q-errors, not just shape fallbacks.
            from .obs.estimator import EstimateAccuracy, estimation
            from .obs.stats import analyze_database

            accuracy = EstimateAccuracy()
            for example in EXAMPLES.values():
                if example.setup is None:
                    run_example(example.name)
                    continue
                db, run = example.setup()
                with estimation(analyze_database(db), accuracy=accuracy):
                    run(db)
        else:
            for example in EXAMPLES.values():
                run_example(example.name)
    supervisor = None
    if "--supervisor" in opts:
        # A small deterministic supervised demo so the fault-tolerance
        # families export non-zero: one retried fault, one poison
        # workload tripping the breaker, one quarantined submission.
        from .core.errors import QuarantinedError
        from .runtime.faults import FaultPlan, FaultRule
        from .runtime.policy import BreakerPolicy, RetryPolicy
        from .runtime.supervisor import Supervisor
        from .runtime.workloads import transitive_closure_workload

        program, db = transitive_closure_workload(6)
        supervisor = Supervisor(
            policy=RetryPolicy(max_attempts=2, base_backoff_s=0.001),
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_s=3600.0),
        )
        supervisor.submit(
            program, db, workload="tc:6",
            faults=FaultPlan([FaultRule(op="DIFFERENCE", kind="raise")]),
        )
        for _ in range(2):
            # Poison: one rule per attempt, so every attempt dies at its
            # first op and the submission fails terminally.
            supervisor.submit(
                program, db, workload="tc:6",
                faults=FaultPlan([
                    FaultRule(op="*", kind="raise", occurrence=1),
                    FaultRule(op="*", kind="raise", occurrence=2),
                ]),
            )
        try:
            supervisor.submit(program, db, workload="tc:6")
        except QuarantinedError:
            pass
    optimizer = None
    if "--optimizer" in opts:
        # A small deterministic optimizer demo so the plan-optimizer
        # families export non-zero: one cold plan (miss + rewrites +
        # a stats-driven reorder), one warm repeat (hit), and one
        # stats-free plan (a stats-missing ordering outcome).
        from .engine.optimizer import OPTIMIZER_STATS, PlanCache, optimize_program
        from .obs.stats import analyze_database
        from .runtime.workloads import chain_join_workload

        OPTIMIZER_STATS.reset()
        program, db = chain_join_workload(4)
        chain_stats = analyze_database(db)
        cache = PlanCache()
        optimize_program(program, chain_stats, cache=cache)
        optimize_program(program, chain_stats, cache=cache)
        optimize_program(program, None, cache=cache)
        optimizer = OPTIMIZER_STATS
    metrics = obs.metrics
    if "--prom" in opts:
        sys.stdout.write(
            prometheus_text(
                metrics, accuracy=accuracy, stats=stats, bus=bus,
                supervisor=supervisor, optimizer=optimizer,
            )
        )
        return 0
    snapshot = metrics.snapshot()
    snapshot["events"] = {
        "published": bus.published,
        "callback_errors": bus.callback_errors,
        **bus.ring_totals(),
    }
    if optimizer is not None:
        snapshot["optimizer"] = optimizer.snapshot()
    print(json.dumps(snapshot, indent=2))
    return 0


def _prom_lint(args: list[str], opts: dict) -> int:
    from .obs import lint_prometheus_text

    if args:
        try:
            text = Path(args[0]).read_text()
        except OSError as err:
            print(f"error: cannot read {args[0]}: {err}")
            return 2
    else:
        text = sys.stdin.read()
    errors = lint_prometheus_text(text)
    if errors:
        for message in errors:
            print(f"prom-lint: {message}")
        print(f"{len(errors)} problem(s) in the exposition payload")
        return 1
    samples = sum(
        1 for line in text.splitlines() if line.strip() and not line.startswith("#")
    )
    print(f"ok: {samples} sample(s), no format problems")
    return 0


def _engine_report(args: list[str], opts: dict) -> int:
    from .engine import run_program
    from .engine.report import fallback_report, report_text
    from .engine.runtime import VectorEngine
    from .obs.examples import EXAMPLES

    # Default corpus: every TA-program example plus the synthetic
    # transitive-closure fixpoint (a while loop with a fused join).
    specs = args or [
        name for name, example in EXAMPLES.items() if example.build is not None
    ] + ["tc:8"]
    backend = VectorEngine()
    corpus: list[str] = []
    for spec in specs:
        label, program, db = _workload(spec, "engine-report cannot report on it")
        run_program(program, db, engine="vector", backend=backend)
        corpus.append(label)

    report = fallback_report(backend.stats)
    report["corpus"] = corpus
    if "--json" in opts:
        print(json.dumps(report, indent=2))
    else:
        print(f"corpus: {', '.join(corpus)}")
        print()
        print(report_text(report))
    # Full attribution is the contract: every naive fallback must carry a
    # machine-readable reason.
    return 0 if report["coverage"] == 1.0 else 1


def _open_ledger(path: str):
    """An existing ledger directory, opened read-side.

    ``history``/``replay``/``sentinel``/``recover`` read ledgers; a
    directory that was never written is a missing input (exit 3), not an
    empty result set, so it must not be confused with "no runs matched".
    """
    from .obs.ledger import RunLedger

    if not (Path(path) / "LEDGER.json").exists():
        raise LedgerError(
            f"no ledger at {path} "
            f"(record one with: repro run tc:6 --ledger {path})"
        )
    return RunLedger(path)


def _history(args: list[str], opts: dict) -> int:
    ledger_dir = opts.get("--ledger", "ledger")
    ledger = _open_ledger(ledger_dir)

    if args:
        # Inspect one run: the full manifest, always as JSON (it *is*
        # the on-disk record).
        print(json.dumps(ledger.get(args[0]), indent=2))
        return 0

    if "--aggregates" in opts:
        data = ledger.aggregates()
        if "--json" in opts:
            print(json.dumps(data, indent=2))
            return 0
        print(f"ledger {ledger_dir}: {len(ledger)} run(s), "
              f"{len(data)} fingerprint(s)")
        for record in data:
            latency = record["latency_ms"]
            q = record["q_error_mean"]
            print(
                f"  {record['fingerprint']}  {record['runs']:>4} run(s)  "
                f"p50 {latency['p50']}ms p95 {latency['p95']}ms  "
                f"q-mean {q if q is not None else '-'}  "
                f"fallback {record['fallback_rate']}  "
                f"[{','.join(record['workloads'][:3])}]"
            )
        return 0

    rows = ledger.runs(
        fingerprint=opts.get("--fingerprint"),
        workload=opts.get("--workload"),
        outcome=opts.get("--outcome"),
        limit=opts.get("--limit"),
    )
    if "--json" in opts:
        print(json.dumps(rows, indent=2))
        return 0
    print(f"ledger {ledger_dir}: {len(rows)} run(s) listed, {len(ledger)} total")
    if ledger.warnings:
        for message in ledger.warnings:
            print(f"  recovery: {message}")
    for row in rows:
        q_max = row.get("q_max")
        dropped = row.get("dropped_events") or 0
        print(
            f"  {row['run_id']}  {row.get('workload'):>12}  "
            f"{row.get('engine') or '-':>6}  {row.get('outcome'):>6}  "
            f"{row.get('elapsed_ms')}ms  {row.get('ops')} op(s)  "
            f"{row.get('fallbacks')} fallback(s)"
            + (f"  q-max {q_max}" if q_max is not None else "")
            + (f"  {dropped} dropped event(s)" if dropped else "")
        )
    return 0


def _replay(args: list[str], opts: dict) -> int:
    if not args:
        print("usage: repro replay <run-id | bundle-dir> [--ledger DIR] "
              "[--engine naive|vector] [--inject-fault SEED] [--json]")
        return 2

    from .obs.replay import bundle_run_pointer, replay_from_ledger

    target = run_id = args[0]
    ledger_dir = opts.get("--ledger", "ledger")
    if Path(target).is_dir() and (Path(target) / "MANIFEST.json").exists():
        # A flight-recorder bundle: follow its run pointer back to the
        # ledger the run was journaled in.
        run_id, pointed = bundle_run_pointer(target)
        ledger_dir = opts.get("--ledger", pointed)
    ledger = _open_ledger(ledger_dir)

    faults = None
    if "--inject-fault" in opts:
        # Deliberate divergence: a seeded corrupt fault makes the replay
        # raise a typed error where the recording finished, proving the
        # detector (and its nonzero exit) live.
        from .runtime.faults import FaultPlan, FaultRule

        faults = FaultPlan(
            [FaultRule(op="*", kind="corrupt")], seed=opts["--inject-fault"]
        )
    report = replay_from_ledger(
        ledger, run_id, faults=faults, engine=opts.get("--engine")
    )
    if "--json" in opts:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _sentinel(args: list[str], opts: dict) -> int:
    from .obs.sentinel import DEFAULT_MIN_RUNS, DEFAULT_WINDOW, sentinel_report

    ledger = _open_ledger(opts.get("--ledger", "ledger"))
    report = sentinel_report(
        ledger,
        window=opts.get("--window", DEFAULT_WINDOW),
        min_runs=opts.get("--min-runs", DEFAULT_MIN_RUNS),
        latency_factor=opts.get("--latency-factor", 2.0),
        qerror_factor=opts.get("--qerror-factor", 2.0),
        fallback_jump=opts.get("--fallback-jump", 0.25),
    )
    if "--json" in opts:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    if not report.ok:
        return 4
    if report.judged == 0:
        # "Never measured" must not read as "healthy" in CI.
        return 3
    return 0


#: Declarative dispatch: command name -> (handler, one-line help).
#: Every handler takes the positional arguments and the ``{flag: value}``
#: map that :func:`_parse_args` made of the command line, and returns
#: the process exit status.
COMMANDS: dict = {
    "check": (_check, "fast self-check of the headline reproductions"),
    "figures": (_figures, "print every Figure 1-5 artifact with exactness checks"),
    "demo": (_demo, "the quickstart walkthrough"),
    "trace": (_trace, "run a bundled pipeline under the tracer; print EXPLAIN"),
    "profile": (_profile, "hotspots, wall-time histograms, per-span peak memory"),
    "lineage": (_lineage, "cell-level why-provenance queries and witness replay"),
    "stats": (_stats, "aggregated per-operation metrics over every example"),
    "analyze": (_analyze, "per-table/column statistics; persist an ANALYZE snapshot"),
    "stats-audit": (_stats_audit, "score every cardinality estimate (q-error audit)"),
    "optimize": (_optimize, "cost-based plan optimizer: dump before/after plans"),
    "metrics": (_metrics, "metrics snapshot as JSON or Prometheus text"),
    "prom-lint": (_prom_lint, "validate a Prometheus text payload"),
    "engine-report": (_engine_report, "vector-engine fallback attribution"),
    "bench-compare": (_bench_compare, "diff two benchmark trajectories (perf gate)"),
    "run": (_run, "run a workload under the governor with checkpoint/resume"),
    "supervise": (_supervise, "run a workload under the fault-tolerant supervisor"),
    "recover": (_recover, "resume or orphan crashed runs found in the ledger"),
    "chaos": (_chaos, "fault-injection matrix over the bundled pipelines"),
    "history": (_history, "list/inspect ledgered runs and per-shape aggregates"),
    "replay": (_replay, "re-execute a ledgered run and diff it bit for bit"),
    "sentinel": (_sentinel, "cross-run drift detection over the ledger"),
}

#: ``--engine`` takes one of these backends.
ENGINE = ("naive", "vector")


def _count(text: str) -> int:
    """A non-negative integer flag value (``--retry``)."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


#: What a value flag of each converting kind expects, for its usage error.
EXPECTED = {int: "an integer", _count: "a non-negative integer", float: "a number"}

#: Per-command argument tables: command -> (most positionals, {flag: kind}).
#: A ``bool`` flag is a switch; ``int``/``_count``/``float``/``str``
#: convert the next argument; a tuple lists the values it may take.
#: ``None`` allows any number of positionals.
ARGUMENTS: dict[str, tuple[int | None, dict]] = {
    "check": (0, {}),
    "figures": (0, {}),
    "demo": (0, {}),
    "trace": (1, {"--json": bool, "--analyze": bool, "--stats": str, "--ledger": str}),
    "profile": (1, {
        "--chrome-trace": str, "--log-json": str, "--json": bool, "--no-memory": bool,
    }),
    "lineage": (1, {"--cell": str, "--audit": bool, "--dot": str, "--graph-json": str}),
    "stats": (0, {"--json": bool}),
    "analyze": (1, {"--top-k": int, "--out": str, "--json": bool}),
    "stats-audit": (0, {
        "--seeds": int, "--tc": int, "--out": str, "--json": bool,
    }),
    "optimize": (1, {
        "--analyze": bool, "--stats": str, "--rules": str, "--explain": bool,
        "--verify": bool, "--no-cache": bool, "--json": bool,
    }),
    "metrics": (0, {
        "--prom": bool, "--estimates": bool, "--stats": str, "--supervisor": bool,
        "--optimizer": bool,
    }),
    "prom-lint": (1, {}),
    "engine-report": (None, {"--json": bool}),
    "bench-compare": (2, {"--tolerance": str}),
    "run": (1, {
        "--engine": ENGINE, "--deadline": int, "--max-rows": int,
        "--max-rows-per-op": int, "--max-cells-per-op": int, "--max-while": int,
        "--checkpoint": str, "--resume": bool, "--retry": _count, "--verify": bool,
        "--json": bool, "--progress": bool, "--events": str, "--flight-dir": str,
        "--stats": str, "--optimize": bool, "--ledger": str,
    }),
    "supervise": (1, {
        "--engine": ENGINE, "--retry": _count, "--backoff": int,
        "--attempt-deadline": int, "--total-deadline": int, "--deadline": int,
        "--max-while": int, "--checkpoint": str, "--faults": str, "--seed": int,
        "--breaker-threshold": int, "--cooldown": float, "--ledger": str,
        "--verify": bool, "--json": bool,
    }),
    "recover": (0, {"--ledger": str, "--retry": _count, "--verify": bool, "--json": bool}),
    "chaos": (None, {"--kinds": str, "--seed": int, "--supervisor": bool, "--json": bool}),
    "history": (1, {
        "--ledger": str, "--fingerprint": str, "--workload": str, "--outcome": str,
        "--limit": int, "--aggregates": bool, "--json": bool,
    }),
    "replay": (1, {"--ledger": str, "--engine": ENGINE, "--inject-fault": int, "--json": bool}),
    "sentinel": (0, {
        "--ledger": str, "--window": int, "--min-runs": int, "--latency-factor": float,
        "--qerror-factor": float, "--fallback-jump": float, "--json": bool,
    }),
}


def _parse_args(command: str, argv: list[str]) -> tuple[list[str], dict]:
    """``(positionals, {flag: value})`` for one command line.

    Switches map to True and value flags to their converted value;
    absent flags are absent.  An unknown or repeated flag, a missing or
    ill-typed value, and a surplus positional raise :class:`UsageError`.
    """
    most, table = ARGUMENTS[command]
    args: list[str] = []
    opts: dict = {}
    items = iter(argv)
    for arg in items:
        if not arg.startswith("-"):
            args.append(arg)
            continue
        if arg not in table:
            known = ", ".join(table) if table else "none"
            raise UsageError(f"unknown flag {arg!r} for {command} (flags: {known})")
        if arg in opts:
            raise UsageError(f"{arg} given more than once")
        kind = table[arg]
        if kind is bool:
            opts[arg] = True
            continue
        text = next(items, None)
        if text is None or text in table:
            raise UsageError(f"{arg} needs a value")
        if isinstance(kind, tuple):
            if text not in kind:
                raise UsageError(f"invalid {arg} {text!r}; expected {' or '.join(kind)}")
            opts[arg] = text
            continue
        try:
            opts[arg] = kind(text)
        except ValueError:
            raise UsageError(f"invalid {arg} {text!r}; expected {EXPECTED[kind]}") from None
    if most is not None and len(args) > most:
        raise UsageError(f"unexpected argument {args[most]!r} for {command}")
    return args, opts


#: Exit-status vocabulary shared by every subcommand.
EXIT_CODES = (
    (0, "success: checks hold / replay identical / no drift"),
    (1, "failure: a check failed, a run died or diverged, a gate tripped"),
    (2, "usage: unknown command, bad flag, unknown example or workload"),
    (3, "missing input: file, ledger, run, or bundle absent or unusable"),
    (4, "drift: the sentinel flagged a cross-run regression"),
)


def _usage() -> str:
    lines = ["usage: python -m repro <command> [options]", "", "commands:"]
    width = max(len(name) for name in COMMANDS)
    for name, (_handler, help_text) in COMMANDS.items():
        lines.append(f"  {name:{width}}  {help_text}")
    lines.append("")
    lines.append("exit codes:")
    for code, meaning in EXIT_CODES:
        lines.append(f"  {code}  {meaning}")
    lines.append("")
    lines.append(
        "per-command flags are documented in the module docstring "
        "(python -m pydoc repro.__main__) and under docs/."
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(list(sys.argv[1:] if argv is None else argv))
    except BrokenPipeError:
        # The reader closed the pipe early (``repro stats | head -1``):
        # stop quietly, with stdout on devnull so the interpreter's exit
        # flush of the unread output cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(args: list[str]) -> int:
    if not args or args[0] in ("--help", "-h", "help"):
        print(_usage())
        return 0
    command, rest = args[0], args[1:]
    entry = COMMANDS.get(command)
    if entry is None:
        print(f"error: unknown command {command!r}")
        print()
        print(_usage())
        return 2
    # The typed errors a command lets escape: bad input is a usage error
    # (2), an absent or unusable checkpoint or ledger is missing input (3).
    try:
        return entry[0](*_parse_args(command, rest))
    except (UsageError, WorkloadSpecError, StatsError, CheckpointError, LedgerError) as err:
        print(f"error: {err}")
        if isinstance(err, UnknownSpecError):
            print("bundled examples:")
            _list_examples()
        return 3 if isinstance(err, (CheckpointError, LedgerError)) else 2


if __name__ == "__main__":
    raise SystemExit(main())
