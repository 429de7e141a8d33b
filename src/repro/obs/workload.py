"""Workload fingerprinting and the estimator's q-error audit.

Two halves, both consumers of the statistics layer:

* **Fingerprinting** — :func:`fingerprint_program` hashes a *normalized*
  rendering of a TA program: structure (targets, operations, argument
  names, attribute parameters) is kept, entry-valued constants are
  replaced by ``?``.  Two runs of ``SELECTCONST on {Part} = 'nuts'`` and
  ``= 'bolts'`` therefore share a fingerprint, exactly like normalized
  query digests in a database's workload repository.

* **The audit** — :func:`stats_audit` replays a corpus (the bundled
  TA-program examples, the synthetic transitive-closure fixpoint, and
  seeded cases from the differential fuzzer's generator,
  :func:`repro.data.programs.random_case`) with ANALYZE stats installed,
  and reports per-op p50/p95/max q-error plus a coverage check that
  every dispatched op kind was scored.  ``python -m repro stats-audit``
  emits the report as machine-readable JSON.

This module is imported lazily from the package root: the corpus runner
pulls in the algebra interpreter and the example pipelines, which the
observability runtime must not load eagerly (the registry imports this
package while the algebra package is still initialising).
"""

from __future__ import annotations

import hashlib
import time

from .estimator import QERROR_BUCKETS, EstimateAccuracy, _percentile, estimation
from .runtime import observation
from .stats import STATS_SCHEMA_VERSION, analyze_database

__all__ = [
    "normalize_program",
    "fingerprint_program",
    "stats_audit",
    "DEFAULT_AUDIT_SEEDS",
]

#: Seeded fuzzer cases the audit replays by default: enough programs to
#: dispatch every registered op kind at least once (pinned by a test).
DEFAULT_AUDIT_SEEDS = 48


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------

def _normalize_statement(statement, lines: list[str], depth: int) -> None:
    """One statement's normalized rendering (constants → ``?``).

    Statements are duck-typed (assignments carry ``spec``, while loops
    ``condition``/``body``) so this module never imports the algebra
    package at load time.
    """
    pad = "  " * depth
    spec = getattr(statement, "spec", None)
    if spec is not None:
        from ..algebra.programs.registry import PARAM_ENTRY

        params = []
        for key in sorted(statement.params):
            if spec.params.get(key) == PARAM_ENTRY:
                params.append(f"{key}=?")
            else:
                params.append(f"{key}={statement.params[key]}")
        args = ", ".join(str(a) for a in statement.args)
        rendered = f"{statement.target} <- {spec.name}({'; '.join(params)})({args})"
        lines.append(pad + rendered)
        return
    body = getattr(statement, "body", None)
    if body is not None:
        lines.append(pad + f"while {statement.condition}:")
        for inner in body.statements:
            _normalize_statement(inner, lines, depth + 1)
        return
    lines.append(pad + repr(statement))


def normalize_program(program) -> str:
    """The fingerprint-stable rendering of one TA program."""
    lines: list[str] = []
    for statement in program.statements:
        _normalize_statement(statement, lines, 0)
    return "\n".join(lines)


def fingerprint_program(program) -> str:
    """A 16-hex-digit digest of the normalized program."""
    normalized = normalize_program(program)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# The q-error audit
# ----------------------------------------------------------------------

def _audit_corpus(seeds: int, tc_size: int) -> list[tuple]:
    """``(label, program, database, run-kwargs)`` tuples: every TA-program
    example, ``tc:<tc_size>``, then ``seeds`` differential-fuzzer cases."""
    from ..data.programs import random_case
    from ..runtime.workloads import resolve_workload
    from .examples import EXAMPLES

    specs = [name for name in sorted(EXAMPLES) if EXAMPLES[name].build is not None]
    corpus = [(*resolve_workload(spec), {}) for spec in specs + [f"tc:{tc_size}"]]
    for seed in range(seeds):
        program, db = random_case(seed)
        kwargs = {"max_while_iterations": _FUZZ_WHILE_BUDGET}
        corpus.append((f"fuzz:{seed}", program, db, kwargs))
    return corpus


#: While budget for fuzzer cases (matches the differential harness).
_FUZZ_WHILE_BUDGET = 12


def _accuracy_overall(accuracy: "EstimateAccuracy") -> dict:
    """p50/p95/max over every q-error sample an accuracy sink holds."""
    all_q = [
        q
        for record in accuracy.ops.values()
        for q in record._samples
    ]
    all_q.sort()
    return {
        "estimates": accuracy.count,
        "p50": round(_percentile(all_q, 0.50), 3),
        "p95": round(_percentile(all_q, 0.95), 3),
        "max": round(all_q[-1], 3) if all_q else 0.0,
    }


#: Slack before the optimizer pass counts as a q-error regression: the
#: rewritten plan runs a different op mix (CHAINJOIN replaces whole
#: PRODUCT/SELECT prefixes), so tiny percentile wobbles are expected;
#: a real mis-costed join order blows p95 out by far more than 25%.
OPTIMIZER_REGRESSION_TOLERANCE = 1.25


def stats_audit(
    seeds: int = DEFAULT_AUDIT_SEEDS,
    tc_size: int = 6,
    top_k: int | None = None,
    regression_tolerance: float = OPTIMIZER_REGRESSION_TOLERANCE,
) -> dict:
    """Replay the corpus under estimation; the machine-readable report.

    Each case is ANALYZEd first, then run with the resulting snapshot
    installed, so base-table predictions are stats-derived and
    intermediates exercise the shape fallback — exactly the mix a
    cost-based optimizer would see.  Cases raising a
    :class:`~repro.core.errors.ReproError` (the fuzz corpus legitimately
    hits undefined operations) still contribute every op completed
    before the error.

    The audit then makes a second, *post-rewrite* pass: every case is
    pushed through :func:`repro.engine.optimizer.optimize_program` with
    the same stats snapshot and re-run, so the op sequence being scored
    is the one the cost-based optimizer actually chose (CHAINJOIN
    orders, fused selects, pruned projections).  The report's ``optimizer`` section
    carries that pass's q-error percentiles and a ``regressed`` verdict:
    True when the optimizer-chosen plans' p95 q-error exceeds the
    unoptimized baseline by more than ``regression_tolerance`` — the
    CLI turns that into a non-zero exit so CI catches a cost model
    whose rewrites make its own estimates worse.
    """
    from ..core.errors import ReproError
    from ..engine.optimizer import PlanCache, optimize_program
    from .stats import DEFAULT_TOP_K

    accuracy = EstimateAccuracy()
    opt_accuracy = EstimateAccuracy()
    cases = errors = 0
    opt_cases = opt_errors = opt_rewrites = 0
    plan_cache = PlanCache()
    started = time.perf_counter()
    rewritable = []
    with observation() as baseline:
        for _label, program, db, kwargs in _audit_corpus(seeds, tc_size):
            stats = analyze_database(db, top_k=top_k or DEFAULT_TOP_K)
            cases += 1
            with estimation(stats, accuracy=accuracy):
                try:
                    program.run(db, **kwargs)
                except ReproError:
                    errors += 1
            rewritable.append((db, program, kwargs, stats))
    # The post-rewrite pass runs outside the observation: coverage is a
    # property of the *baseline* corpus, and the rewritten plans dispatch
    # ops (fused PRODUCTSELECT, CHAINJOIN) the baseline never does.
    for db, program, kwargs, stats in rewritable:
        try:
            result = optimize_program(program, stats, cache=plan_cache)
        except ReproError:
            continue
        opt_cases += 1
        opt_rewrites += len(result.applied)
        with estimation(stats, accuracy=opt_accuracy):
            try:
                result.program.run(db, **kwargs)
            except ReproError:
                opt_errors += 1
    elapsed = time.perf_counter() - started

    ops_report = accuracy.snapshot()
    estimated_ops = set(ops_report)
    # An op was dispatched when one of its calls completed: a failed
    # call has no actual cardinality to score.
    dispatched = {
        name
        for name, record in baseline.metrics.operations.items()
        if record.calls > record.errors
    }
    missing = sorted(dispatched - estimated_ops)
    overall = _accuracy_overall(accuracy)
    opt_overall = _accuracy_overall(opt_accuracy)
    regressed = (
        opt_overall["estimates"] > 0
        and opt_overall["p95"] > overall["p95"] * regression_tolerance
    )
    return {
        "version": 1,
        "stats_schema_version": STATS_SCHEMA_VERSION,
        "corpus": {
            "cases": cases,
            "errors": errors,
            "fuzz_seeds": seeds,
            "elapsed_s": round(elapsed, 3),
        },
        "buckets": list(QERROR_BUCKETS),
        "ops": ops_report,
        "overall": overall,
        "optimizer": {
            **opt_overall,
            "cases": opt_cases,
            "errors": opt_errors,
            "rewrites": opt_rewrites,
            "ops": opt_accuracy.snapshot(),
            "tolerance": regression_tolerance,
            "baseline_p95": overall["p95"],
            "regressed": regressed,
        },
        "coverage": {
            "dispatched_ops": sorted(dispatched),
            "estimated_ops": sorted(estimated_ops),
            "missing": missing,
            "complete": not missing,
        },
    }
