"""Unit tests for the cost-based plan optimizer (docs/OPTIMIZER.md).

The differential fuzzer proves the rewrites sound in bulk; these tests
pin the *decisions*: which redexes each rule matches, which it must
refuse, how chains are costed and ordered, what the cache keys on, and
what ChainJoin/SelectUnion do in their fallback paths.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.programs.params import Lit, Star
from repro.algebra.programs.statements import Assignment, Program, While, assign
from repro.core import EvaluationError, TabularDatabase, attr_symbol, make_table
from repro.engine import optimizer
from repro.engine.optimizer import (
    OPTIMIZER_STATS,
    PLAN_CACHE,
    RULE_ORDER,
    RULES,
    ChainJoin,
    OptimizerStats,
    PlanCache,
    SelectUnion,
    count_fusions,
    optimize_program,
    plan_program,
)
from repro.obs.stats import analyze_database


def _db(*tables):
    return TabularDatabase(tables)


def _base(name, attr, values):
    return make_table(name, [attr], [[v] for v in values])


def _chain_db(rows=3):
    # A/D share their values and B/C theirs, so σ_{A0≈D0};σ_{B0≈C0}
    # rewards the non-adjacent pairings (A,D) and (B,C) — a syntactic
    # fold pays for the full cross product before either filter applies.
    return _db(
        _base("A", "A0", [f"a{i}" for i in range(rows)]),
        _base("B", "B0", [f"c{i}" for i in range(rows)]),
        _base("C", "C0", [f"c{i}" for i in range(rows)]),
        _base("D", "D0", [f"a{i}" for i in range(rows)]),
    )


def _chain_program():
    return Program(
        [
            assign("T", "PRODUCT", "A", "B"),
            assign("T", "PRODUCT", "T", "C"),
            assign("T", "PRODUCT", "T", "D"),
            assign("T", "SELECT", "T", left="A0", right="D0"),
        ]
    )


def _same(program, optimized, db):
    assert program.run(db) == optimized.run(db)


def _reference_chain_rows(per_leaf, conds):
    """The subset formula ``_order_chain`` kept for itself before the
    estimator's :func:`~repro.obs.estimator.chain_rows` replaced it
    (unchanged but for unpacking each condition triple): the reference
    that join orders are unchanged."""
    heights = [sum(e.height for e in entries) for entries in per_leaf]

    def has(leaf, attr):
        return any(e.column_for(attr) is not None for e in per_leaf[leaf])

    def ndv(leaf, attr):
        best = 0
        for entry in per_leaf[leaf]:
            column = entry.column_for(attr)
            if column is not None:
                best = max(best, column.ndv)
        return best

    selective = []
    for left, right, prefix in conds:
        involved = frozenset(
            l for l in range(prefix) if has(l, left) or has(l, right)
        )
        if not involved:
            continue
        ndv_left = max((ndv(l, left) for l in involved), default=0)
        ndv_right = max((ndv(l, right) for l in involved), default=0)
        selective.append((involved, 1.0 / max(ndv_left, ndv_right, 1)))

    def est(subset):
        rows = 1.0
        for l in subset:
            rows *= heights[l]
        for involved, sel in selective:
            if involved <= subset:
                rows *= sel
        return rows

    return est


_CHAIN_ATTRS = ("A", "B", "C", "D")


@st.composite
def _random_chains(draw):
    """A 3–10-leaf chain without a reflexive condition, and its stats.

    Each leaf name binds one or two tables of 0–4 rows over 1–3
    (possibly repeated) attributes, with ⊥ entries; conditions may name
    ``E``, which no table carries.
    """
    k = draw(st.integers(3, 10))
    tables = []
    for leaf in range(k):
        for _copy in range(draw(st.integers(1, 2))):
            attrs = draw(st.lists(st.sampled_from(_CHAIN_ATTRS), min_size=1, max_size=3))
            rows = draw(
                st.lists(
                    st.lists(
                        st.sampled_from(["u", "v", "w", None]),
                        min_size=len(attrs),
                        max_size=len(attrs),
                    ),
                    max_size=4,
                )
            )
            tables.append(make_table(f"L{leaf}", attrs, rows))
    pairs = st.lists(
        st.sampled_from(_CHAIN_ATTRS + ("E",)), min_size=2, max_size=2, unique=True
    )
    conds = tuple(
        optimizer._Cond(attr_symbol(left), attr_symbol(right), draw(st.integers(2, k)))
        for left, right in draw(st.lists(pairs, max_size=4))
    )
    leaves = tuple(attr_symbol(f"L{leaf}") for leaf in range(k))
    chain = optimizer._Chain(attr_symbol("T"), leaves, conds, (), 0)
    return chain, analyze_database(_db(*tables))


def _decision_fields(decision):
    return (
        tuple(decision.order),
        decision.outcome,
        decision.reason,
        decision.est_rows,
        decision.cost_syntactic,
        decision.cost_chosen,
    )


class TestSelectPushdown:
    def test_pushes_through_rename_when_attrs_disjoint(self):
        program = Program(
            [
                assign("T", "RENAME", "R", old="A", new="B"),
                assign("T", "SELECT", "T", left="C", right="C"),
            ]
        )
        result = optimize_program(program, rules=["select-pushdown"], cache=None)
        assert [r.rule for r in result.applied] == ["select-pushdown"]
        first, second = result.program.statements
        assert first.spec.name == "SELECT"
        assert second.spec.name == "RENAME"
        # The swapped pair reads R and writes T at both steps.
        assert str(first.args[0]) == "R"
        assert str(second.args[0]) == "T"
        db = _db(make_table("R", ["C", "A"], [["x", "p"], ["y", "q"]]))
        _same(program, result.program, db)

    def test_refuses_rename_touching_selected_attr(self):
        program = Program(
            [
                assign("T", "RENAME", "R", old="A", new="B"),
                assign("T", "SELECT", "T", left="A", right="C"),
            ]
        )
        result = optimize_program(program, rules=["select-pushdown"], cache=None)
        assert result.applied == ()
        assert result.program is program

    def test_pushes_through_project_when_attrs_kept(self):
        program = Program(
            [
                assign("T", "PROJECT", "R", attrs=["A", "B"]),
                assign("T", "SELECT", "T", left="A", right="B"),
            ]
        )
        result = optimize_program(program, rules=["select-pushdown"], cache=None)
        assert len(result.applied) == 1
        assert result.program.statements[0].spec.name == "SELECT"
        db = _db(make_table("R", ["A", "B", "C"], [["x", "x", "1"], ["x", "y", "2"]]))
        _same(program, result.program, db)

    def test_refuses_project_dropping_selected_attr(self):
        program = Program(
            [
                assign("T", "PROJECT", "R", attrs=["A"]),
                assign("T", "SELECT", "T", left="A", right="B"),
            ]
        )
        result = optimize_program(program, rules=["select-pushdown"], cache=None)
        assert result.applied == ()


    def test_leaves_identity_copies_in_place(self):
        # cse emits copies after this pass runs; swapping σ below one
        # would make a second optimize differ from the first.
        program = Program(
            [
                assign("T", "DEDUP", "R"),
                assign("U", "DEDUP", "T"),
                assign("U", "SELECT", "U", left="B", right="B"),
            ]
        )
        once = optimize_program(program, cache=None)
        twice = optimize_program(once.program, cache=None)
        assert twice.applied == ()
        assert repr(twice.program) == repr(once.program)


class TestPruneDeadProject:
    def test_removes_project_overwritten_before_read(self):
        program = Program(
            [
                assign("T", "PROJECT", "R", attrs=["A"]),
                assign("T", "RENAME", "S", old="A", new="B"),
            ]
        )
        result = optimize_program(program, rules=["prune-dead-project"], cache=None)
        assert len(result.applied) == 1
        assert "dead" in result.applied[0].detail
        assert len(result.program.statements) == 1
        assert result.program.statements[0].spec.name == "RENAME"

    def test_keeps_project_that_is_read(self):
        program = Program(
            [
                assign("T", "PROJECT", "R", attrs=["A"]),
                assign("U", "DEDUP", "T"),
                assign("T", "RENAME", "S", old="A", new="B"),
            ]
        )
        result = optimize_program(program, rules=["prune-dead-project"], cache=None)
        assert result.applied == ()

    def test_keeps_project_before_while(self):
        loop = While("T", Program([assign("T", "DIFFERENCE", "T", "T")]))
        program = Program(
            [
                assign("T", "PROJECT", "R", attrs=["A"]),
                loop,
                assign("T", "RENAME", "S", old="A", new="B"),
            ]
        )
        result = optimize_program(program, rules=["prune-dead-project"], cache=None)
        assert result.applied == ()

    def test_collapses_adjacent_projections(self):
        program = Program(
            [
                assign("T", "PROJECT", "R", attrs=["A", "B"]),
                assign("T", "PROJECT", "T", attrs=["B", "C"]),
            ]
        )
        result = optimize_program(program, rules=["prune-dead-project"], cache=None)
        assert len(result.applied) == 1
        (fused,) = result.program.statements
        assert fused.spec.name == "PROJECT"
        db = _db(make_table("R", ["A", "B", "C"], [["1", "2", "3"]]))
        _same(program, result.program, db)

    def test_collapses_disjoint_projections_to_nothing(self):
        program = Program(
            [
                assign("T", "PROJECT", "R", attrs=["A"]),
                assign("T", "PROJECT", "T", attrs=["B"]),
            ]
        )
        result = optimize_program(program, rules=["prune-dead-project"], cache=None)
        assert len(result.applied) == 1
        db = _db(make_table("R", ["A", "B"], [["1", "2"]]))
        _same(program, result.program, db)


class TestCollapseIdempotent:
    def test_dedup_pair_reads_the_original_source(self):
        program = Program([assign("T", "DEDUP", "R"), assign("U", "DEDUP", "T")])
        result = optimize_program(program, rules=["collapse-idempotent"], cache=None)
        assert [r.rule for r in result.applied] == ["collapse-idempotent"]
        first, second = result.program.statements
        assert first is program.statements[0]  # the intermediate stays
        assert repr(second) == "U <- DEDUP (R)"
        db = _db(make_table("R", ["A"], [["x"], ["x"], ["y"]]))
        _same(program, result.program, db)

    def test_cse_then_copies_the_collapsed_dedup(self):
        # The tc loop body's shape: the collapsed DEDUP repeats the first.
        program = Program([assign("T", "DEDUP", "R"), assign("U", "DEDUP", "T")])
        result = optimize_program(program, cache=None)
        assert [r.rule for r in result.applied] == ["collapse-idempotent", "cse"]
        assert repr(result.program.statements[1]) == "U <- RENAME old ⊥ new ⊥ (T)"

    def test_transpose_pair_becomes_identity_copy(self):
        program = Program(
            [assign("T", "TRANSPOSE", "R"), assign("U", "TRANSPOSE", "T")]
        )
        result = optimize_program(program, rules=["collapse-idempotent"], cache=None)
        assert repr(result.program.statements[1]) == "U <- RENAME old ⊥ new ⊥ (R)"
        db = _db(make_table("R", ["A", "B"], [["1", None], ["2", "3"]]))
        _same(program, result.program, db)

    @pytest.mark.parametrize(
        "first,second",
        [
            # T <- TRANSPOSE (T) overwrote the source the copy would need.
            (assign("T", "TRANSPOSE", "T"), assign("U", "TRANSPOSE", "T")),
            (assign("T", "DEDUP", "T"), assign("U", "DEDUP", "T")),
            (assign("T", "DEDUP", "R"), assign("U", "TRANSPOSE", "T")),
            (assign("T", "DEDUP", "R"), Assignment("U", "DEDUP", [Star(1)])),
        ],
    )
    def test_refuses_self_assignment_mixed_ops_and_wildcards(self, first, second):
        program = Program([first, second])
        result = optimize_program(program, rules=["collapse-idempotent"], cache=None)
        assert result.applied == ()

    def test_pair_inside_while_body(self):
        body = [
            assign("T", "TRANSPOSE", "W"),
            assign("U", "TRANSPOSE", "T"),
            assign("W", "DIFFERENCE", "W", "U"),
        ]
        program = Program([While("W", Program(body))])
        result = optimize_program(program, rules=["collapse-idempotent"], cache=None)
        (loop,) = result.program.statements
        assert repr(loop.body.statements[1]) == "U <- RENAME old ⊥ new ⊥ (W)"
        _same(program, result.program, _db(make_table("W", ["A"], [["1"]])))


class TestCse:
    def test_duplicate_select_becomes_identity_copy(self):
        program = Program(
            [
                assign("X", "SELECT", "R", left="A", right="B"),
                assign("Y", "SELECT", "R", left="A", right="B"),
            ]
        )
        result = optimize_program(program, rules=["cse"], cache=None)
        assert [r.rule for r in result.applied] == ["cse"]
        copy = result.program.statements[1]
        assert copy.spec.name == "RENAME"
        assert str(copy.args[0]) == "X"
        db = _db(make_table("R", ["A", "B"], [["x", "x"], ["x", "y"]]))
        _same(program, result.program, db)

    def test_blocked_when_source_overwritten_between(self):
        program = Program(
            [
                assign("X", "SELECT", "R", left="A", right="B"),
                assign("X", "DEDUP", "S"),
                assign("Y", "SELECT", "R", left="A", right="B"),
            ]
        )
        result = optimize_program(program, rules=["cse"], cache=None)
        assert result.applied == ()

    def test_blocked_when_argument_overwritten_between(self):
        program = Program(
            [
                assign("X", "SELECT", "R", left="A", right="B"),
                assign("R", "DEDUP", "S"),
                assign("Y", "SELECT", "R", left="A", right="B"),
            ]
        )
        result = optimize_program(program, rules=["cse"], cache=None)
        assert result.applied == ()

    def test_fresh_name_ops_are_not_cse_candidates(self):
        # TUPLENEW tags rows with *fresh* names: two runs differ.
        program = Program(
            [
                assign("X", "TUPLENEW", "R", attr="A"),
                assign("Y", "TUPLENEW", "R", attr="A"),
            ]
        )
        result = optimize_program(program, rules=["cse"], cache=None)
        assert result.applied == ()


class TestJoinReorder:
    def test_no_stats_keeps_syntactic_order(self):
        result = optimize_program(
            _chain_program(), None, rules=["join-reorder"], cache=None
        )
        (decision,) = result.decisions
        assert decision.outcome == "stats-missing"
        assert tuple(decision.order) == (0, 1, 2, 3)
        assert not any(isinstance(s, ChainJoin) for s in result.program.statements)

    def test_missing_leaf_stats_keeps_syntactic_order(self):
        db = _chain_db()
        partial = analyze_database(_db(*[t for t in db.tables if str(t.name) != "D"]))
        result = optimize_program(
            _chain_program(), partial, rules=["join-reorder"], cache=None
        )
        (decision,) = result.decisions
        assert decision.outcome == "stats-missing"
        assert "D" in decision.reason

    def test_stats_drive_a_nonsyntactic_order(self):
        db = _chain_db()
        stats = analyze_database(db)
        program = Program(
            [
                assign("T", "PRODUCT", "A", "B"),
                assign("T", "PRODUCT", "T", "C"),
                assign("T", "PRODUCT", "T", "D"),
                assign("T", "SELECT", "T", left="A0", right="D0"),
                assign("T", "SELECT", "T", left="B0", right="C0"),
            ]
        )
        result = optimize_program(program, stats, rules=["join-reorder"], cache=None)
        (decision,) = result.decisions
        assert decision.outcome == "reordered"
        assert tuple(decision.order) != (0, 1, 2, 3)
        assert decision.cost_chosen < decision.cost_syntactic
        (chain,) = result.program.statements
        assert isinstance(chain, ChainJoin)
        _same(program, result.program, db)

    def test_short_chains_are_not_matched(self):
        program = Program(
            [
                assign("T", "PRODUCT", "A", "B"),
                assign("T", "SELECT", "T", left="A0", right="B0"),
            ]
        )
        stats = analyze_database(_chain_db())
        result = optimize_program(program, stats, rules=["join-reorder"], cache=None)
        assert result.decisions == ()

    def test_greedy_ordering_beyond_dp_limit(self):
        names = [f"L{i}" for i in range(9)]
        tables = [_base(name, f"K{i}", ["u", "v"]) for i, name in enumerate(names)]
        # Make the *last* two leaves join selectively so a greedy start
        # pairing them beats the syntactic fold.
        tables[7] = _base("L7", "J7", ["u", "v", "w"])
        tables[8] = _base("L8", "J8", ["u", "v", "w"])
        db = _db(*tables)
        statements = [assign("T", "PRODUCT", names[0], names[1])]
        for name in names[2:]:
            statements.append(assign("T", "PRODUCT", "T", name))
        statements.append(assign("T", "SELECT", "T", left="J7", right="J8"))
        program = Program(statements)
        stats = analyze_database(db)
        result = optimize_program(program, stats, rules=["join-reorder"], cache=None)
        (decision,) = result.decisions
        assert "greedy" in decision.reason
        assert decision.outcome == "reordered"
        assert tuple(decision.order[:2]) in ((7, 8), (8, 7))
        _same(program, result.program, db)

    @settings(max_examples=200, deadline=None)
    @given(case=_random_chains())
    def test_orders_match_the_reference_subset_formula(self, case):
        chain, stats = case
        decision = optimizer._order_chain(chain, stats)
        with mock.patch.object(optimizer, "chain_rows", _reference_chain_rows):
            reference = optimizer._order_chain(chain, stats)
        assert _decision_fields(decision) == _decision_fields(reference)

    def test_chain_inside_while_body_is_reordered(self):
        db = _chain_db()
        stats = analyze_database(db)
        body = list(_chain_program().statements) + [
            assign("T", "SELECT", "T", left="B0", right="C0"),
            assign("Flag", "DIFFERENCE", "Flag", "Flag"),
        ]
        program = Program([While("Flag", Program(body))])
        result = optimize_program(program, stats, cache=None)
        (loop,) = result.program.statements
        assert isinstance(loop, While)
        assert any(isinstance(s, ChainJoin) for s in loop.body.statements)
        run_db = _db(*db.tables, _base("Flag", "F", ["go"]))
        _same(program, result.program, run_db)


class TestChainJoin:
    def _optimized_chain(self):
        db = _chain_db()
        stats = analyze_database(db)
        program = Program(
            [
                assign("T", "PRODUCT", "A", "B"),
                assign("T", "PRODUCT", "T", "C"),
                assign("T", "PRODUCT", "T", "D"),
                assign("T", "SELECT", "T", left="A0", right="D0"),
                assign("T", "SELECT", "T", left="B0", right="C0"),
            ]
        )
        result = optimize_program(program, stats, rules=["join-reorder"], cache=None)
        (chain,) = result.program.statements
        return program, chain, db

    def test_stale_stats_fall_back_per_combination(self):
        program, chain, _db_planned = self._optimized_chain()
        # A grown table no longer matches the planning snapshot's shape.
        grown = _db(
            _base("A", "A0", [f"a{i}" for i in range(7)]),
            *[t for t in _chain_db().tables if str(t.name) != "A"],
        )
        assert not chain._stats_fresh(
            [grown.tables_named(n)[0] for n in ("A", "B", "C", "D")]
        )
        _same(program, Program([chain]), grown)

    def test_lineage_scope_runs_source_statements(self):
        from repro.obs.lineage import lineage
        from repro.obs.runtime import observation

        program, chain, db = self._optimized_chain()
        with observation(), lineage():
            lineage_db = Program([chain]).run(db)
        assert lineage_db == program.run(db)

    @pytest.mark.parametrize("spec", ["chain:3", "chain:4"])
    def test_lineage_alone_keeps_every_cells_provenance(self, spec):
        # No observation scope: lineage alone must route the chain
        # through its source statements, whose row-attribute fold
        # threads the join provenance.
        from repro.obs.lineage import lineage, provenance
        from repro.runtime.workloads import resolve_workload

        _label, program, db = resolve_workload(spec)
        plan = optimize_program(program, analyze_database(db), cache=None).program
        assert any(isinstance(s, ChainJoin) for s in plan.statements)

        def cells(prog):
            with lineage() as lin:
                out = prog.run(lin.tag_database(db))
            return [
                [(symbol, provenance(symbol)) for symbol in row]
                for table in out.tables
                for row in table.grid
            ]

        assert cells(plan) == cells(program)

    def test_repr_names_order_and_conds(self):
        _program, chain, _db2 = self._optimized_chain()
        text = repr(chain)
        assert "CHAINJOIN" in text and "order [" in text and "conds [" in text

    def test_chainjoin_span_carries_the_decisions_estimate(self):
        # One model: the CHAINJOIN op span's est_rows is the estimate
        # the order was chosen by.  At 49 rows the float product lands
        # just under 49², so an integer copy of the formula disagrees.
        from repro.obs.estimator import estimation
        from repro.obs.runtime import observation
        from repro.runtime.workloads import resolve_workload

        _label, program, db = resolve_workload("chain:49")
        stats = analyze_database(db)
        result = optimize_program(program, stats, rules=["join-reorder"], cache=None)
        (decision,) = result.decisions
        assert decision.outcome == "reordered"
        with observation() as obs, estimation(stats):
            result.program.run(db)
        (span,) = [
            span
            for root in obs.spans
            for span in root.walk()
            if span.name == "CHAINJOIN"
        ]
        assert span.attributes["est_source"] == "stats"
        assert span.attributes["est_rows"] == decision.est_rows

    def test_explain_span_carries_order_and_estimate(self):
        from repro.obs.estimator import estimation
        from repro.obs.runtime import observation

        program, chain, db = self._optimized_chain()
        stats = analyze_database(db)
        with observation() as obs, estimation(stats):
            Program([chain]).run(db)
        text = obs.explain()
        assert "CHAINJOIN" in text
        assert "rules=['join-reorder']" in text
        assert "est_rows" in text


class TestSelectUnion:
    def test_union_select_pair_is_fused(self):
        program = Program(
            [
                assign("T", "UNION", "R", "S"),
                assign("T", "SELECT", "T", left="A", right="B"),
            ]
        )
        result = optimize_program(
            program, rules=["select-pushdown-union"], cache=None
        )
        (fused,) = result.program.statements
        assert isinstance(fused, SelectUnion)
        db = _db(
            make_table("R", ["A", "B"], [["x", "x"], ["x", "y"]]),
            make_table("S", ["B", "C"], [["z", "1"]]),
        )
        _same(program, result.program, db)

    def test_empty_side_matches_naive_empty_semantics(self):
        program = Program(
            [
                assign("T", "UNION", "R", "Missing"),
                assign("T", "SELECT", "T", left="A", right="A"),
            ]
        )
        result = optimize_program(
            program, rules=["select-pushdown-union"], cache=None
        )
        db = _db(make_table("R", ["A"], [["x"]]))
        _same(program, result.program, db)

    def test_wildcard_union_is_not_fused(self):
        program = Program(
            [
                Assignment("T", "UNION", [Star(1), "S"]),
                assign("T", "SELECT", "T", left="A", right="B"),
            ]
        )
        result = optimize_program(
            program, rules=["select-pushdown-union"], cache=None
        )
        assert result.applied == ()


class TestPlanCacheAndDriver:
    def test_cache_hit_on_same_program_and_stats(self):
        cache = PlanCache()
        db = _chain_db()
        stats = analyze_database(db)
        first = optimize_program(_chain_program(), stats, cache=cache)
        second = optimize_program(_chain_program(), stats, cache=cache)
        assert not first.cache_hit and second.cache_hit
        assert cache.hits == 1 and cache.misses == 1
        assert second.program is first.program

    def test_reanalyze_invalidates_by_stats_fingerprint(self):
        cache = PlanCache()
        db = _chain_db()
        optimize_program(_chain_program(), analyze_database(db), cache=cache)
        grown = _db(
            _base("A", "A0", [f"a{i}" for i in range(9)]),
            *[t for t in db.tables if str(t.name) != "A"],
        )
        result = optimize_program(
            _chain_program(), analyze_database(grown), cache=cache
        )
        assert not result.cache_hit
        assert len(cache) == 2

    def test_rule_subset_is_part_of_the_key(self):
        cache = PlanCache()
        program = _chain_program()
        optimize_program(program, cache=cache)
        result = optimize_program(program, rules=["cse"], cache=cache)
        assert not result.cache_hit

    def test_constants_are_part_of_the_key(self):
        # The normalized fingerprint renders entry-valued parameters as
        # ``?``; keyed on it, the value-2 program was handed the value-1
        # plan and selected (1, 2) instead of (2, 3).
        from repro.algebra.programs import parse_program

        cache = PlanCache()
        db = _db(make_table("R", ["A", "B"], [[1, 2], [2, 3], [3, 4]]))
        one = parse_program("T <- SELECTCONST attr A value 1 (R)")
        two = parse_program("T <- SELECTCONST attr A value 2 (R)")
        optimize_program(one, cache=cache)
        result = optimize_program(two, cache=cache)
        assert not result.cache_hit
        assert result.fingerprint == optimize_program(one, cache=None).fingerprint
        _same(two, result.program, db)

    def test_literals_that_print_alike_get_their_own_plans(self):
        # Plans are cached by program text: literals that printed alike
        # would run each other's plans.
        from repro.core import Name, Value
        from repro.engine import run_program
        from repro.obs.ledger import database_digest

        db = _db(make_table("R", ["A", "B"], [[True, 1], ["True", 2], [3, 3]]))
        stats = analyze_database(db)
        for value in (Value(True), Name("True"), Value(float("inf")), Name("inf")):
            program = Program([assign("T", "SELECTCONST", "R", attr="A", value=value)])
            got = run_program(program, db, optimize=True, stats=stats)
            expected = program.run(db)
            assert got == expected
            assert database_digest(got) == database_digest(expected)

    def test_fifo_eviction_at_capacity(self):
        cache = PlanCache(capacity=2)
        for name in ("R", "S", "U"):
            optimize_program(
                Program([assign("T", "DEDUP", name)]), cache=cache
            )
        assert len(cache) == 2
        # The oldest plan (over R) was evicted: probing it misses.
        result = optimize_program(Program([assign("T", "DEDUP", "R")]), cache=cache)
        assert not result.cache_hit

    def test_unknown_rule_raises(self):
        with pytest.raises(EvaluationError, match="unknown rewrite rule"):
            optimize_program(_chain_program(), rules=["fuse-everything"])

    def test_disabled_rules_do_not_fire(self):
        program = Program(
            [
                assign("X", "SELECT", "R", left="A", right="B"),
                assign("Y", "SELECT", "R", left="A", right="B"),
            ]
        )
        result = optimize_program(program, rules=["join-reorder"], cache=None)
        assert result.applied == ()
        assert result.program is program

    def test_rule_registry_matches_order(self):
        assert set(RULE_ORDER) == set(RULES)
        for name, rule in RULES.items():
            assert rule.name == name
            assert rule.justification

    def test_plan_rewrite_events_are_emitted(self):
        from repro.obs.events import event_stream

        seen = []
        with event_stream() as bus:
            bus.attach(
                lambda e: seen.append(e.data["rule"])
                if e.kind == "plan_rewrite"
                else None
            )
            optimize_program(
                Program(
                    [
                        assign("T", "UNION", "R", "S"),
                        assign("T", "SELECT", "T", left="A", right="B"),
                    ]
                ),
                cache=None,
            )
        assert seen == ["select-pushdown-union"]

    def test_optimizer_stats_counters(self):
        stats = OptimizerStats()
        stats.record_cache(True)
        stats.record_cache(False)
        stats.record_rewrite("cse")
        stats.record_decision("reordered")
        snap = stats.snapshot()
        assert snap["cache"] == {"hit": 1, "miss": 1}
        assert snap["rewrites"] == {"cse": 1}
        assert snap["ordering"] == {"reordered": 1}
        stats.reset()
        assert stats.snapshot()["rewrites"] == {}

    def test_plan_program_is_fusion_alone_without_telemetry(self):
        from repro.obs.events import event_stream

        program = Program(
            [
                assign("X", "SELECT", "R", left="A", right="B"),
                assign("Y", "SELECT", "R", left="A", right="B"),
                assign("T", "PRODUCT", "R", "S"),
                assign("T", "SELECT", "T", left="A", right="B"),
            ]
        )
        before, cached = OPTIMIZER_STATS.snapshot(), len(PLAN_CACHE)
        seen = []
        with event_stream() as bus:
            bus.attach(seen.append)
            planned = plan_program(program)
        assert [repr(s) for s in planned.statements[2:]] == [
            "T <- PRODUCTSELECT left A right B (R, S)"
        ]
        assert planned.statements[:2] == program.statements[:2]  # no cse
        assert count_fusions(program) == 1
        assert not [e for e in seen if e.kind == "plan_rewrite"]
        assert OPTIMIZER_STATS.snapshot() == before and len(PLAN_CACHE) == cached

    def test_global_cache_is_the_default(self):
        PLAN_CACHE.clear()
        program = Program([assign("T", "DEDUP", "R")])
        optimize_program(program)
        assert optimize_program(program).cache_hit
        PLAN_CACHE.clear()

    def test_run_program_optimize_flag(self):
        from repro.engine import run_program

        db = _chain_db()
        expected = _chain_program().run(db)
        for engine in ("naive", "vector"):
            got = run_program(
                _chain_program(),
                db,
                engine=engine,
                optimize=True,
                stats=analyze_database(db),
            )
            assert got == expected

    def test_run_program_optimize_uses_estimation_scope_stats(self):
        from repro.engine import run_program
        from repro.obs.estimator import estimation

        db = _chain_db()
        expected = _chain_program().run(db)
        with estimation(analyze_database(db)):
            got = run_program(_chain_program(), db, optimize=True)
        assert got == expected

    def test_result_to_json_is_serializable(self):
        import json

        db = _chain_db()
        result = optimize_program(
            _chain_program(), analyze_database(db), cache=None
        )
        payload = json.loads(json.dumps(result.to_json()))
        assert payload["before"] and payload["after"]
        assert payload["rules"] == list(RULE_ORDER)
