"""Property-based tests of the optimizer's rewrite rules.

Three properties over seeded corpus programs (the rewrite-targeting
family, whose motifs are shaped like each rule's redex, plus the shared
fuzz corpus):

* **commutes with evaluation** — for every rule R in ``RULE_ORDER``,
  running ``R(program)`` equals running ``program``: same final
  database, same serialized bytes, or the same error type;
* **idempotence** — applying a rule to its own output is a no-op:
  ``R(R(p)) = R(p)`` statement-for-statement;
* **confluence of the shipped set** — the full pipeline is its own
  fixpoint: optimizing an optimized program changes nothing.

Programs come from seeds rather than a from-scratch statement strategy:
the corpus generators already produce redex-dense programs over
adversarial databases (⊥, repeated attributes, names-in-data), and a
seed shrinks better than a composite program object.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.data.programs import (
    MAX_WHILE_ITERATIONS,
    random_case,
    random_rewrite_case,
)
from repro.engine.optimizer import RULE_ORDER, optimize_program
from repro.obs.stats import analyze_database
from repro.runtime.checkpoint import database_to_data

SEEDS = st.integers(min_value=0, max_value=50_000)

RULE_STRATEGY = st.sampled_from(RULE_ORDER)


def _outcome(program, db):
    try:
        result = program.run(db, max_while_iterations=MAX_WHILE_ITERATIONS)
    except ReproError as err:
        return type(err).__name__, None
    return "ok", json.dumps(database_to_data(result), sort_keys=True)


def _statements_repr(program):
    return [repr(s) for s in program.statements]


class TestRulesCommuteWithEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, rule=RULE_STRATEGY)
    def test_single_rule_on_rewrite_family(self, seed, rule):
        program, db = random_rewrite_case(seed)
        stats = analyze_database(db)
        optimized = optimize_program(
            program, stats, rules=[rule], cache=None
        ).program
        assert _outcome(program, db) == _outcome(optimized, db)

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, rule=RULE_STRATEGY)
    def test_single_rule_without_stats(self, seed, rule):
        # No stats: join-reorder must refuse, everything else is
        # stats-independent; either way evaluation is unchanged.
        program, db = random_rewrite_case(seed)
        optimized = optimize_program(program, rules=[rule], cache=None).program
        assert _outcome(program, db) == _outcome(optimized, db)

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS)
    def test_full_pipeline_on_shared_corpus(self, seed):
        program, db = random_case(seed)
        stats = analyze_database(db)
        optimized = optimize_program(program, stats, cache=None).program
        assert _outcome(program, db) == _outcome(optimized, db)


class TestIdempotence:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, rule=RULE_STRATEGY)
    def test_each_rule_is_idempotent(self, seed, rule):
        program, db = random_rewrite_case(seed)
        stats = analyze_database(db)
        once = optimize_program(program, stats, rules=[rule], cache=None)
        twice = optimize_program(once.program, stats, rules=[rule], cache=None)
        assert twice.applied == (), (
            f"{rule} re-applied on its own output: "
            f"{[r.detail for r in twice.applied]}"
        )
        assert _statements_repr(twice.program) == _statements_repr(once.program)


class TestConfluence:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS)
    def test_shipped_set_reaches_a_fixpoint(self, seed):
        program, db = random_rewrite_case(seed)
        stats = analyze_database(db)
        once = optimize_program(program, stats, cache=None)
        twice = optimize_program(once.program, stats, cache=None)
        assert _statements_repr(twice.program) == _statements_repr(once.program)
        # And the fixpoint still evaluates like the source program.
        assert _outcome(program, db) == _outcome(twice.program, db)
