"""The ``semi-naive`` rule: where it fires, where it must not, and that a
rewritten loop ends in the source program's database.

The differential fuzzer covers the rule in bulk through the fixpoint
motif of :func:`repro.data.programs.random_rewrite_case`; these tests pin
the decisions, the side conditions checked while the loop runs, and the
surfaces a rewritten loop passes through (both engines, checkpoint and
resume, lineage, the ledger).
"""

import itertools

import pytest

from repro.algebra.programs import parse_program
from repro.core import TabularDatabase, make_table
from repro.core.errors import FaultInjectedError
from repro.engine import run_program
from repro.engine.optimizer import Rederive, SemiNaiveWhile, optimize_program
from repro.obs import observation
from repro.obs.ledger import database_digest
from repro.obs.stats import analyze_database
from repro.runtime import FaultPlan, FaultRule, run_hardened
from repro.runtime.checkpoint import database_to_data
from repro.runtime.workloads import resolve_workload

HEAD = """
TC <- DEDUP (E)
Delta <- RENAME old ⊥ new ⊥ (TC)
"""

PREFIX = """
while Delta do
  M1 <- RENAME old Dst new Mid (TC)
  M2 <- RENAME old Src new Mid (E)
  M3 <- RENAME old Mid new J (M2)
  M4 <- PRODUCTSELECT left Mid right J (M1, M3)
  M5 <- PROJECT attrs {Src, Dst} (M4)
  New <- DEDUP (M5)
"""

TAIL = """
  X <- DIFFERENCE (New, TC)
  Delta <- DEDUP (X)
  Y <- CLASSICALUNION (TC, Delta)
  TC <- DEDUP (Y)
end
"""

TC = HEAD + PREFIX + TAIL


@pytest.fixture
def chosen(monkeypatch):
    """Per iteration run, whether it ran the Δ body (else the fallback)."""
    picks = []
    choose = SemiNaiveWhile.iteration_body

    def spy(self, db):
        body = choose(self, db)
        picks.append(body is self.body)
        return body

    monkeypatch.setattr(SemiNaiveWhile, "iteration_body", spy)
    return picks


def _edges(n=6, name="E", columns=("Src", "Dst")):
    """A path of ``n`` nodes; columns past the first two hold ⊥."""
    pad = [None] * (len(columns) - 2)
    return make_table(name, list(columns), [[i, i + 1, *pad] for i in range(1, n)])


def _fires(text, rules=None):
    result = optimize_program(parse_program(text), rules=rules, cache=None)
    return "semi-naive" in {rewrite.rule for rewrite in result.applied}


def _same(got, expected):
    assert got == expected
    assert database_digest(got) == database_digest(expected)
    assert database_to_data(got) == database_to_data(expected)


def _identical(program, plan, db, engine="naive"):
    _same(run_program(plan, db, engine=engine), program.run(db))


class TestMatch:
    def test_compiled_shape_fires(self):
        assert _fires(TC)

    def test_both_dedup_of_one_relation_on_entry(self):
        head = "TC <- DEDUP (E)\nDelta <- DEDUP (E)\n"
        # Alone, so cse does not turn the second DEDUP into a copy first.
        assert _fires(head + PREFIX + TAIL, rules=["semi-naive"])

    def test_recursive_relation_read_from_the_input(self):
        # TC is never written before the loop: Δ copies the input itself.
        assert _fires(TC.replace("TC <- DEDUP (E)\n", "", 1))

    def test_recursive_relation_on_the_right_of_the_product(self):
        text = TC.replace("(M1, M3)", "(M3, M1)")
        assert _fires(text)

    def test_union_of_two_linear_chains(self):
        text = TC.replace(
            "  New <- DEDUP (M5)\n",
            "  M6 <- SELECTCONST attr Src value 1 (TC)\n"
            "  M7 <- CLASSICALUNION (M5, M6)\n"
            "  New <- DEDUP (M7)\n",
        )
        assert _fires(text)

    @pytest.mark.parametrize(
        "spec,fires",
        [("tc:6", True), ("fo-while", True), ("schemalog", True), ("schemasql", False)],
    )
    def test_front_end_programs(self, spec, fires):
        _label, program, db = resolve_workload(spec)
        plan = optimize_program(program, analyze_database(db), cache=None)
        assert ("semi-naive" in {r.rule for r in plan.applied}) is fires
        _identical(program, plan.program, db)

    def test_rewrite_records_its_justification(self):
        result = optimize_program(parse_program(TC), cache=None)
        (rewrite,) = [r for r in result.applied if r.rule == "semi-naive"]
        assert "Delta instead of TC" in rewrite.detail
        assert "distributes over R = R_old ∪ Δ" in rewrite.justification

    def test_rewritten_loop_prints_both_derivations(self):
        plan = optimize_program(parse_program(TC), cache=None).program
        loop = plan.statements[-1]
        assert isinstance(loop, SemiNaiveWhile)
        text = repr(loop)
        assert text.startswith("while Delta semi-naive TC do\n")
        assert "M1 <- RENAME old Dst new Mid (Delta)" in text
        assert "  when Delta empty do\n    M1 <- RENAME old Dst new Mid (TC)" in text
        assert isinstance(loop.body.statements[-3], Rederive)

    def test_footprint_is_the_source_loops(self):
        source = parse_program(TC).statements[-1]
        loop = optimize_program(parse_program(TC), cache=None).program.statements[-1]
        assert loop.reads() == source.reads()
        assert loop.writes() == source.writes()

    def test_a_rewritten_loop_is_final(self):
        once = optimize_program(parse_program(TC), cache=None)
        twice = optimize_program(once.program, cache=None)
        assert twice.applied == ()
        assert repr(twice.program) == repr(once.program)


class TestRefusals:
    """Shapes the rule must leave alone."""

    @pytest.mark.parametrize(
        "text",
        [
            # R read twice in one chain: R × R is not linear in R.
            TC.replace(
                "  M2 <- RENAME old Src new Mid (E)\n",
                "  M2 <- RENAME old Src new Mid (TC)\n",
            ),
            # R on DIFFERENCE's right inside the chain.
            TC.replace(
                "  New <- DEDUP (M5)\n",
                "  M6 <- DIFFERENCE (E, TC)\n"
                "  M7 <- CLASSICALUNION (M5, M6)\n"
                "  New <- DEDUP (M7)\n",
            ),
            # Δ not equal to R on entry: a copy of another relation ...
            TC.replace("Delta <- RENAME old ⊥ new ⊥ (TC)", "Delta <- RENAME old ⊥ new ⊥ (E)"),
            # ... or R rewritten after the copy.
            TC.replace(
                "Delta <- RENAME old ⊥ new ⊥ (TC)\n",
                "Delta <- RENAME old ⊥ new ⊥ (TC)\nTC <- DEDUP (F)\n",
            ),
            # A second write of R or of Δ in the body.
            TC.replace("  New <- DEDUP (M5)\n", "  New <- DEDUP (M5)\n  TC <- DEDUP (E)\n"),
            TC.replace("  M5 <-", "  Delta <- DEDUP (M4)\n  M5 <-"),
            # An R-derived temporary read after New.
            TC.replace("  New <- DEDUP (M5)\n", "  New <- DEDUP (M5)\n  Z <- DEDUP (M4)\n"),
            # A name carried over from the previous iteration.
            TC.replace("(M1, M3)", "(M1, Y)"),
            # A tail of another shape.
            TC.replace("Y <- CLASSICALUNION (TC, Delta)", "Y <- UNION (TC, Delta)"),
            TC.replace("X <- DIFFERENCE (New, TC)", "X <- DIFFERENCE (New, E)"),
            # Δ never written before the loop, or DEDUP of two relations.
            TC.replace("Delta <- RENAME old ⊥ new ⊥ (TC)\n", ""),
            TC.replace("Delta <- RENAME old ⊥ new ⊥ (TC)", "Delta <- DEDUP (F)"),
            # A wildcard, or an operation outside the prefix set.
            TC.replace("M2 <- RENAME old Src new Mid (E)", "M2 <- RENAME old Src new Mid (*)"),
            TC.replace("  M5 <- PROJECT attrs {Src, Dst} (M4)", "  M5 <- TRANSPOSE (M4)"),
        ],
        ids=[
            "r-times-r",
            "r-right-of-difference",
            "delta-copies-another-relation",
            "r-rewritten-after-copy",
            "second-write-of-r",
            "second-write-of-delta",
            "r-derived-read-after-new",
            "loop-carried-input",
            "other-tail",
            "difference-from-another-relation",
            "delta-never-written",
            "delta-dedups-another-relation",
            "wildcard",
            "transpose-in-prefix",
        ],
    )
    def test_does_not_fire(self, text):
        assert not _fires(text)
        assert not _fires(text, rules=["semi-naive"])


class TestIdentity:
    @pytest.mark.parametrize("engine", ["naive", "vector"])
    @pytest.mark.parametrize("nodes", [2, 3, 5, 8, 12])
    def test_tc_workloads(self, nodes, engine):
        _label, program, db = resolve_workload(f"tc:{nodes}")
        plan = optimize_program(program, analyze_database(db), cache=None).program
        assert isinstance(plan.statements[-1], SemiNaiveWhile)
        _identical(program, plan, db, engine)

    @pytest.mark.parametrize("engine", ["naive", "vector"])
    @pytest.mark.parametrize("nodes", [4, 6, 9])
    def test_iteration_count_is_unchanged(self, nodes, engine):
        _label, program, db = resolve_workload(f"tc:{nodes}")
        plan = optimize_program(program, analyze_database(db), cache=None).program
        with observation() as obs:
            run_program(plan, db, engine=engine)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["while_loops"] == 1
        assert counters["while_iterations"] == nodes - 1

    def test_derives_from_delta_every_iteration(self, chosen):
        _label, program, db = resolve_workload("tc:8")
        run_program(optimize_program(program, cache=None).program, db)
        assert chosen == [True] * 7

    def test_loop_that_never_runs_leaves_no_temporaries(self):
        program = parse_program(TC)
        db = TabularDatabase([make_table("E", ["Src", "Dst"], [])])
        _identical(program, optimize_program(program, cache=None).program, db)

    @pytest.mark.parametrize(
        "text,db",
        [
            # Two tables named E, so several tables per name (edges that
            # never chain: each iteration multiplies the tables).
            (
                TC,
                TabularDatabase(
                    [
                        make_table("E", ["Src", "Dst"], [[1, 2]]),
                        make_table("E", ["Src", "Dst"], [[3, 4]]),
                    ]
                ),
            ),
            # A repeated attribute.
            (TC, TabularDatabase([_edges(5, columns=("Src", "Src"))])),
            # New lists its columns in another order than TC; derived
            # from Δ's order, it comes out the same.
            (TC, TabularDatabase([_edges(5, columns=("Dst", "Src"))])),
            # Reversing each edge: derived from Δ's order, New would list
            # its columns the other way round.
            (
                HEAD
                + """
while Delta do
  M1 <- RENAME old Src new T (TC)
  M2 <- RENAME old Dst new Src (M1)
  M3 <- RENAME old T new Dst (M2)
  New <- DEDUP (M3)
"""
                + TAIL,
                TabularDatabase([_edges(4)]),
            ),
        ],
        ids=["two-tables", "repeated-attribute", "permuted-scheme", "reversed-scheme"],
    )
    def test_side_conditions_fall_back_or_hold(self, text, db):
        program = parse_program(text)
        plan = optimize_program(program, cache=None).program
        assert isinstance(plan.statements[-1], SemiNaiveWhile)
        for engine in ("naive", "vector"):
            _identical(program, plan, db, engine)
            _same(run_hardened(plan, db, engine=engine), program.run(db))

    def test_vector_plan_keeps_the_loop(self):
        # Optimized without fusion, the vector engine's plan would fuse
        # inside the loop's bodies; it must leave the semi-naive loop
        # whole, fallback included (edges reversed: the second iteration
        # falls back).
        text = (
            HEAD
            + """
while Delta do
  M1 <- RENAME old Src new T (TC)
  M2 <- RENAME old Dst new Src (M1)
  M3 <- RENAME old T new Dst (M2)
  M4 <- PRODUCT (M3, K)
  M4 <- SELECT left Src right Src (M4)
  M5 <- PROJECT attrs {Src, Dst} (M4)
  New <- DEDUP (M5)
"""
            + TAIL
        )
        program = parse_program(text)
        plan = optimize_program(program, rules=["semi-naive"], cache=None).program
        db = TabularDatabase([_edges(4), make_table("K", ["Z"], [[0]])])
        _identical(program, plan, db, "vector")

    def test_lineage_keeps_every_cells_provenance(self, chosen):
        # Under lineage every iteration is the source iteration, as
        # ChainJoin runs its source statements.
        from repro.obs.lineage import lineage, provenance

        _label, program, db = resolve_workload("tc:5")
        plan = optimize_program(program, cache=None).program

        def cells(prog):
            with lineage() as lin:
                out = prog.run(lin.tag_database(db))
            return [
                [(symbol, provenance(symbol)) for symbol in row]
                for table in out.tables
                for row in table.grid
            ]

        assert cells(plan) == cells(program)
        assert chosen == [False] * 4


class TestDeltaReady:
    """The side conditions an iteration start must meet to derive from Δ."""

    @staticmethod
    def _loop(text=TC):
        loop = optimize_program(parse_program(text), cache=None).program.statements[-1]
        assert isinstance(loop, SemiNaiveWhile)
        return loop

    @staticmethod
    def _state(tc=("Src", "Dst"), delta=("Dst", "Src"), extra=()):
        return TabularDatabase(
            [
                _edges(4, "TC", tc),
                _edges(3, "Delta", delta),
                _edges(4, "E"),
                *extra,
            ]
        )

    def test_clean_state_derives_from_delta(self):
        assert self._loop().delta_ready(self._state())

    @pytest.mark.parametrize(
        "state",
        [
            _state(extra=[_edges(2, "TC")]),  # two tables named R
            _state(extra=[_edges(2, "E")]),  # two tables of an input
            _state(tc=("Src", "Src"), delta=("Src", "Src")),  # repeated attribute
            _state(tc=("Src", "Dst", "W")),  # an attribute Δ lacks
        ],
        ids=["two-r-tables", "two-input-tables", "repeated-attribute", "other-attributes"],
    )
    def test_falls_back(self, state):
        assert not self._loop().delta_ready(state)

    def test_a_scheme_on_the_way_repeats_an_attribute(self):
        # M2 keeps E's Dst next to TC's: the product repeats it.
        loop = self._loop(TC.replace("new Mid (E)", "new Dst (E)"))
        assert not loop.delta_ready(self._state())

    def test_lineage_falls_back(self):
        from repro.obs.lineage import lineage

        with lineage():
            assert not self._loop().delta_ready(self._state())


class TestHardenedRuns:
    @pytest.mark.parametrize("engine", ["naive", "vector"])
    def test_kill_anywhere_then_resume_is_identical(self, tmp_path, engine):
        _label, program, db = resolve_workload("tc:5")
        plan = optimize_program(program, cache=None).program
        clean = program.run(db)
        path = tmp_path / "ck.json"
        kills = 0
        # Every dispatch of these ops in turn, the last iteration's
        # re-derivation included, until a run no longer reaches the fault.
        for op in ("RENAME", "PRODUCTSELECT", "DIFFERENCE", "CLASSICALUNION"):
            for occurrence in itertools.count(1):
                faults = FaultPlan([FaultRule(op=op, kind="raise", occurrence=occurrence)])
                try:
                    result = run_hardened(
                        plan, db, faults=faults, checkpoint_path=path, engine=engine
                    )
                except FaultInjectedError:
                    kills += 1
                    result = run_hardened(
                        plan, db, checkpoint_path=path, resume=True, engine=engine
                    )
                    _same(result, clean)
                    continue
                _same(result, clean)
                break
        assert kills >= 30

    def test_optimized_ledgered_run_replays_identically(self, tmp_path):
        import io
        import json
        from contextlib import redirect_stdout

        from repro.__main__ import main

        def cli(*args):
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(list(args))
            return code, out.getvalue()

        ledger = str(tmp_path / "ledger")
        code, output = cli("run", "tc:8", "--optimize", "--ledger", ledger, "--json")
        assert code == 0
        code, replayed = cli("replay", json.loads(output)["run_id"], "--ledger", ledger)
        assert code == 0
        assert "identical" in replayed
