"""Theorem 4.1 tests: FO + while + new simulated within the tabular algebra.

Most tests run a program twice — natively over relations and compiled to
tabular algebra over the tabular embedding — and demand identical results
for the output relations (ignoring the compiler's ``__fw`` temporaries),
or a :class:`SchemaError` from both native evaluation and the compiler.
``TestTypingCost`` counts the compiler's schema lookups.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SchemaError
from repro.data import generators
from repro.obs.examples import EXAMPLES
from repro.relational import (
    Assign,
    AssignNew,
    ConstColumn,
    Difference,
    FWProgram,
    Intersection,
    Join,
    Product,
    Project,
    Rel,
    Relation,
    RelationalDatabase,
    RenameAttr,
    SelectConst,
    SelectEq,
    TEMP_PREFIX,
    Union,
    WhileNotEmpty,
    compile_expression,
    compile_program,
    relational_to_tabular,
    table_to_relation,
)


def run_both(program: FWProgram, db: RelationalDatabase, schemas, outputs):
    """Run natively and via TA; return (native, simulated) per output name."""
    native = program.run(db)
    ta_program = compile_program(program, schemas)
    tabular_out = ta_program.run(relational_to_tabular(db))
    results = {}
    for name in outputs:
        native_rel = native.relation(name)
        tables = tabular_out.tables_named(name)
        assert len(tables) == 1, f"expected one table named {name}"
        simulated = table_to_relation(tables[0]).with_name(name)
        results[name] = (native_rel, simulated)
    return results


def assert_agree(program, db, schemas, outputs):
    for name, (native, simulated) in run_both(program, db, schemas, outputs).items():
        assert simulated.schema == native.schema, name
        assert simulated.tuples == native.tuples, name


GRAPH = RelationalDatabase(
    [Relation("E", ["A", "B"], [(1, 2), (2, 3), (3, 4), (4, 2)])]
)
SCHEMAS = {"E": ("A", "B")}


class TestExpressionCompilation:
    @pytest.mark.parametrize(
        "expr",
        [
            Rel("E"),
            Union(Rel("E"), Rel("E")),
            Difference(Rel("E"), SelectConst(Rel("E"), "A", 1)),
            Intersection(Rel("E"), Rel("E")),
            Project(Rel("E"), ["B"]),
            SelectEq(Rel("E"), "A", "B"),
            SelectConst(Rel("E"), "B", 2),
            RenameAttr(Rel("E"), "A", "Src"),
            Product(Rel("E"), RenameAttr(RenameAttr(Rel("E"), "A", "C"), "B", "D")),
            Join(
                RenameAttr(Rel("E"), "A", "Src"),
                RenameAttr(Rel("E"), "B", "Dst"),
            ),
        ],
        ids=[
            "ref",
            "union",
            "difference",
            "intersection",
            "project",
            "select-eq",
            "select-const",
            "rename",
            "product",
            "join",
        ],
    )
    def test_expression_agrees(self, expr):
        program = FWProgram([Assign("Out", expr)])
        assert_agree(program, GRAPH, SCHEMAS, ["Out"])

    @pytest.mark.parametrize(
        "expr",
        [
            SelectEq(Rel("E"), "A", "C"),
            SelectConst(Rel("E"), "C", 1),
            RenameAttr(Rel("E"), "A", "B"),
        ],
        ids=["select-eq-absent", "select-const-absent", "rename-onto-existing"],
    )
    def test_ill_typed_statement_rejected(self, expr):
        program = FWProgram([Assign("Out", expr)])
        with pytest.raises(SchemaError):
            program.run(GRAPH)
        with pytest.raises(SchemaError):
            compile_program(program, SCHEMAS)

    @pytest.mark.parametrize(
        "expr",
        [
            Union(Rel("E"), RenameAttr(Rel("E"), "A", "C")),
            Project(Rel("E"), ["C"]),
        ],
        ids=["union-incompatible", "project-absent"],
    )
    def test_ill_typed_expression_rejected(self, expr):
        with pytest.raises(SchemaError):
            expr.evaluate(GRAPH)
        with pytest.raises(SchemaError):
            compile_expression(expr, SCHEMAS, "Out")

    def test_compile_expression_helper(self):
        program = compile_expression(Project(Rel("E"), ["A"]), SCHEMAS, "Out")
        out = program.run(relational_to_tabular(GRAPH))
        relation = table_to_relation(out.tables_named("Out")[0])
        assert relation.schema == ("A",)
        assert len(relation) == 4

    def test_union_with_duplicates_dedups(self):
        db = RelationalDatabase(
            [
                Relation("R", ["A"], [(1,), (2,)]),
                Relation("S", ["A"], [(2,), (3,)]),
            ]
        )
        program = FWProgram([Assign("Out", Union(Rel("R"), Rel("S")))])
        assert_agree(program, db, {"R": ("A",), "S": ("A",)}, ["Out"])


class TestProgramCompilation:
    def test_transitive_closure(self):
        step = (
            Join(
                Rel("TC").rename("A", "X").rename("B", "Y"),
                Rel("E").rename("A", "Y").rename("B", "Z"),
            )
            .project("X", "Z")
            .rename("X", "A")
            .rename("Z", "B")
        )
        program = FWProgram(
            [
                Assign("TC", Rel("E")),
                Assign("Delta", Rel("E")),
                WhileNotEmpty(
                    "Delta",
                    [
                        Assign("Step", step),
                        Assign("Delta", Difference(Rel("Step"), Rel("TC"))),
                        Assign("TC", Union(Rel("TC"), Rel("Delta"))),
                    ],
                ),
            ]
        )
        assert_agree(program, GRAPH, SCHEMAS, ["TC"])

    def test_transitive_closure_on_random_graphs(self):
        import random

        rng = random.Random(7)
        for trial in range(3):
            n = 5 + trial
            edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(n + 2)}
            db = RelationalDatabase([Relation("E", ["A", "B"], edges)])
            step = (
                Join(
                    Rel("TC").rename("A", "X").rename("B", "Y"),
                    Rel("E").rename("A", "Y").rename("B", "Z"),
                )
                .project("X", "Z")
                .rename("X", "A")
                .rename("Z", "B")
            )
            program = FWProgram(
                [
                    Assign("TC", Rel("E")),
                    Assign("Delta", Rel("E")),
                    WhileNotEmpty(
                        "Delta",
                        [
                            Assign("Step", step),
                            Assign("Delta", Difference(Rel("Step"), Rel("TC"))),
                            Assign("TC", Union(Rel("TC"), Rel("Delta"))),
                        ],
                    ),
                ]
            )
            assert_agree(program, db, SCHEMAS, ["TC"])

    def test_new_construct_sizes_agree(self):
        # Fresh ids differ between runs, so compare shapes, not values.
        program = FWProgram([AssignNew("Tagged", Rel("E"), "Id")])
        results = run_both(program, GRAPH, SCHEMAS, ["Tagged"])
        native, simulated = results["Tagged"]
        assert simulated.schema == native.schema
        assert len(simulated) == len(native)
        ids = {row[2] for row in simulated.tuples}
        assert len(ids) == len(simulated)

    def test_sequencing_and_rebinding(self):
        program = FWProgram(
            [
                Assign("X", Rel("E")),
                Assign("X", SelectConst(Rel("X"), "A", 2)),
                Assign("Out", Project(Rel("X"), ["B"])),
            ]
        )
        assert_agree(program, GRAPH, SCHEMAS, ["Out", "X"])

    def test_temp_tables_are_reserved_names(self):
        program = FWProgram([Assign("Out", Project(Rel("E"), ["A"]))])
        ta_program = compile_program(program, SCHEMAS)
        out = ta_program.run(relational_to_tabular(GRAPH))
        temp_names = [
            str(n) for n in out.table_names() if str(n).startswith(TEMP_PREFIX)
        ]
        assert temp_names  # intermediates exist and are clearly reserved

    def test_schema_unstable_while_rejected(self):
        # the body renames A away, so it cannot re-apply on the next pass
        unstable = FWProgram(
            [
                Assign("X", Rel("E")),
                WhileNotEmpty("X", [Assign("X", RenameAttr(Rel("X"), "A", "A2"))]),
            ]
        )
        with pytest.raises(SchemaError):
            compile_program(unstable, SCHEMAS)

    def test_schema_stable_shrinking_while_accepted(self):
        # projecting X onto A stabilizes after one pass and must compile
        stable = FWProgram(
            [
                Assign("X", Rel("E")),
                WhileNotEmpty(
                    "X",
                    [
                        Assign("X", Project(Rel("X"), ["A"])),
                        Assign("X", Difference(Rel("X"), Rel("X"))),
                    ],
                ),
            ]
        )
        assert_agree(stable, GRAPH, SCHEMAS, ["X"])

    def test_unknown_relation_rejected_at_compile_time(self):
        with pytest.raises(SchemaError):
            compile_program(FWProgram([Assign("X", Rel("Nope"))]), SCHEMAS)


# -- a randomized Theorem 4.1 over expressions ---------------------------

ORACLE_SCHEMAS = {"R": ("A", "B"), "S": ("B", "C")}
ORACLE_ATTRS = ("A", "B", "C", "D")  # D is in neither schema
ORACLE_VALUES = (1, 2, 5)


def expressions(depth: int = 4):
    """Expressions of depth at most ``depth`` over R(A,B) and S(B,C).

    The root is one of the ten ``Expr`` kinds other than a relation
    reference; each operand is a reference with probability 1/2, else
    an expression drawn the same way one level shallower.
    """
    leaves = st.sampled_from(sorted(ORACLE_SCHEMAS)).map(Rel)
    if depth == 0:
        return leaves
    deeper = expressions(depth - 1)
    inner = st.booleans().flatmap(lambda leaf: leaves if leaf else deeper)
    attr = st.sampled_from(ORACLE_ATTRS)
    value = st.sampled_from(ORACLE_VALUES)
    return st.one_of(
        st.builds(Union, inner, inner),
        st.builds(Difference, inner, inner),
        st.builds(Intersection, inner, inner),
        st.builds(Product, inner, inner),
        st.builds(Join, inner, inner),
        st.builds(Project, inner, st.lists(attr, min_size=1, max_size=3, unique=True)),
        st.builds(SelectEq, inner, attr, attr),
        st.builds(SelectConst, inner, attr, value),
        st.builds(RenameAttr, inner, attr, attr),
        st.builds(ConstColumn, inner, attr, value),
    )


ORACLE_ROWS = st.frozensets(
    st.tuples(st.sampled_from(ORACLE_VALUES), st.sampled_from(ORACLE_VALUES)),
    max_size=4,
)


class TestRandomizedExpressions:
    @given(expressions(), ORACLE_ROWS, ORACLE_ROWS)
    @settings(max_examples=600, deadline=None)
    # TA PROJECT keeps the table's column order, native π the list's.
    @example(
        SelectConst(
            Project(SelectEq(Intersection(Rel("R"), Rel("R")), "B", "A"), ["B", "A"]),
            "A",
            5,
        ),
        frozenset({(5, 5), (1, 2)}),
        frozenset(),
    )
    # Join.expand's temporary attribute is taken on the right.
    @example(
        Join(Rel("R"), RenameAttr(Rel("S"), "C", "__join_B")),
        frozenset({(1, 2)}),
        frozenset({(2, 1)}),
    )
    def test_native_and_compiled_agree(self, expr, r_rows, s_rows):
        db = RelationalDatabase(
            [Relation("R", ["A", "B"], r_rows), Relation("S", ["B", "C"], s_rows)]
        )
        try:
            native = expr.evaluate(db)
        except SchemaError:
            with pytest.raises(SchemaError):
                compile_expression(expr, ORACLE_SCHEMAS, "Out")
            return
        program = compile_expression(expr, ORACLE_SCHEMAS, "Out")
        out = program.run(relational_to_tabular(db))
        simulated = table_to_relation(out.tables_named("Out")[0])
        assert sorted(simulated.schema) == sorted(native.schema)
        order = [simulated.schema.index(a) for a in native.schema]
        assert {tuple(row[i] for i in order) for row in simulated.tuples} == native.tuples


class TestTypingCost:
    """The compiler asks each relation reference for its schema at most
    twice: once typing its statement, once checking its while body is
    schema-stable.  Counts, not times, so a re-walk shows on any host."""

    @pytest.fixture
    def schema_calls(self, monkeypatch):
        calls: Counter = Counter()
        schema = Rel.schema

        def counted(rel, db):
            calls[rel] += 1
            return schema(rel, db)

        monkeypatch.setattr(Rel, "schema", counted)
        return calls

    def test_schemalog_example(self, schema_calls):
        EXAMPLES["schemalog"].build()
        assert schema_calls and max(schema_calls.values()) <= 2

    def test_deep_chain(self, schema_calls):
        chain = Rel("E")
        for level in range(64):
            renamed = RenameAttr(RenameAttr(Rel("E"), "A", f"A{level}"), "B", f"B{level}")
            chain = ConstColumn(Product(chain, renamed), f"C{level}", level)
        compile_program(FWProgram([Assign("Out", chain)]), SCHEMAS)
        assert len(schema_calls) == 65
        assert max(schema_calls.values()) <= 2
