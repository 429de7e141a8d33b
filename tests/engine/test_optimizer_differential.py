"""The optimizer differential fuzzer: naive ≡ vector ≡ optimized plan.

Every seeded program must produce byte-identical final databases (or
the identical typed error) on the naive interpreter, the vectorized
backend, and after rewriting by the cost-based optimizer with fresh
ANALYZE statistics installed — the rewrite-soundness contract of
docs/OPTIMIZER.md.  Two corpora share the ``REPRO_ENGINE_DIFF_BUDGET``
seed budget:

* the shared :func:`repro.data.programs.random_case` corpus (the same
  seeds the two-way backend fuzzer and ``repro stats-audit`` replay);
* the rewrite-targeting family
  :func:`repro.data.programs.random_rewrite_case`, whose motifs are
  shaped like each rule's redex — deep PRODUCT chains, renamed
  self-joins, dead projections, duplicate subexpressions, σ-over-∪,
  DEDUP∘DEDUP / TRANSPOSE∘TRANSPOSE pairs — so every shipped rewrite
  is exercised on adversarial databases.
"""

import os

import pytest

from diffgen import (
    check_case_optimized,
    describe_failure,
    gen_case,
    gen_rewrite_case,
)

BUDGET = max(30, int(os.environ.get("REPRO_ENGINE_DIFF_BUDGET", "200")))

#: (family, generator, seed offset, per-family share).  Offsets keep the
#: corpora in disjoint, stable seed spaces.  The rewrite family gets the
#: larger share: its programs are *built* from rule redexes, so a seed
#: there buys far more rewrite coverage than a shared-corpus seed.
FAMILIES = [
    ("shared-corpus", gen_case, 5_000_000, 0.4),
    ("rewrite-family", gen_rewrite_case, 0, 0.6),
]

CHUNKS = 10


def _family_seeds(share: float) -> int:
    return max(10, round(BUDGET * share))


@pytest.mark.parametrize("chunk", range(CHUNKS))
@pytest.mark.parametrize(
    "family,generator,offset,share", FAMILIES, ids=[f[0] for f in FAMILIES]
)
def test_optimized_programs_agree(family, generator, offset, share, chunk):
    total = _family_seeds(share)
    lo = chunk * total // CHUNKS
    hi = (chunk + 1) * total // CHUNKS
    for index in range(lo, hi):
        seed = offset + index
        program, db = generator(seed)
        message = check_case_optimized(program, db)
        if message is not None:
            pytest.fail(f"optimizer divergence ({family}, seed {seed}): {message}\n"
                        f"program:\n{program!r}")


def test_rewrite_family_hits_every_rule():
    """The targeted corpus actually triggers every rule in RULE_ORDER."""
    from repro.engine.optimizer import RULE_ORDER, PlanCache, optimize_program
    from repro.obs.stats import analyze_database

    seen = set()
    cache = PlanCache()
    for seed in range(60):
        program, db = gen_rewrite_case(seed)
        stats = analyze_database(db)
        result = optimize_program(program, stats, cache=cache)
        seen.update(rewrite.rule for rewrite in result.applied)
        if seen == set(RULE_ORDER):
            break
    assert seen == set(RULE_ORDER), f"never triggered: {set(RULE_ORDER) - seen}"


def test_each_rule_is_individually_sound():
    """Every rule passes the three-way check when enabled alone."""
    from repro.engine.optimizer import RULE_ORDER

    for rule in RULE_ORDER:
        for seed in range(12):
            program, db = gen_rewrite_case(seed)
            message = check_case_optimized(program, db, rules=[rule])
            assert message is None, f"rule {rule}, seed {seed}: {message}"


def test_three_way_budget_covers_the_issue_floor():
    """Default budget keeps the corpus at or above the 200-program bar."""
    default = 200
    total = sum(max(10, round(default * share)) for _, _, _, share in FAMILIES)
    assert total >= 200
