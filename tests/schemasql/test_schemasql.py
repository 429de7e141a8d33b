"""Unit tests for the SchemaSQL_d surface: parser, evaluation, TA compilation."""

import pytest

from repro.core import EvaluationError, N, ParseError, V, database
from repro.relational import Relation, RelationalDatabase, table_to_relation
from repro.schemalog import SchemaLogDatabase
from repro.schemasql import (
    AttrVarDecl,
    ColumnRef,
    Literal,
    RelVarDecl,
    TupleVarDecl,
    VarRef,
    compile_to_ta,
    evaluate_query,
    parse_schemasql,
    validate_query,
)


@pytest.fixture
def db() -> SchemaLogDatabase:
    return SchemaLogDatabase.from_relational(
        RelationalDatabase(
            [
                Relation("east", ["part", "sold"], [("nuts", 50), ("bolts", 70)]),
                Relation("west", ["part", "sold"], [("nuts", 60), ("screws", 50)]),
            ]
        )
    )


def rows(relation):
    return {tuple(str(s) for s in row) for row in relation}


class TestParser:
    def test_basic_query(self):
        q = parse_schemasql(
            "SELECT T.part AS part INTO out FROM east T WHERE T.sold = 50"
        )
        assert q.into == "out"
        assert isinstance(q.from_items[0], TupleVarDecl)
        assert isinstance(q.select[0].expression, ColumnRef)
        assert len(q.where) == 1

    def test_relation_variable(self):
        q = parse_schemasql("SELECT R AS r INTO out FROM -> R, R T")
        assert isinstance(q.from_items[0], RelVarDecl)
        tup = q.from_items[1]
        assert isinstance(tup, TupleVarDecl) and tup.source_is_var

    def test_attribute_variable(self):
        q = parse_schemasql("SELECT A AS a INTO out FROM east -> A")
        assert isinstance(q.from_items[0], AttrVarDecl)

    def test_attr_var_in_column_position(self):
        q = parse_schemasql("SELECT T.A AS v INTO out FROM east T, east -> A")
        ref = q.select[0].expression
        assert isinstance(ref, ColumnRef) and ref.attr_is_var

    def test_literals(self):
        q = parse_schemasql("SELECT 'x' AS a, 42 AS b INTO out FROM east T")
        assert q.select[0].expression == Literal(V("x"))
        assert q.select[1].expression == Literal(V(42))

    def test_keywords_case_insensitive(self):
        q = parse_schemasql("select T.part as p into out from east T")
        assert q.into == "out"

    def test_comments(self):
        q = parse_schemasql(
            """
            -- restructure
            SELECT T.part AS p INTO out FROM east T
            """
        )
        assert q.into == "out"

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT T.part INTO out FROM east T",  # missing AS
            "SELECT T.part AS p FROM east T",  # missing INTO
            "SELECT T.part AS p INTO out",  # missing FROM
            "SELECT T.part AS p INTO Out FROM east T",  # variable target
            "SELECT T.part AS p, T.sold AS p INTO out FROM east T",  # dup alias
            "SELECT t.part AS p INTO out FROM east T",  # lowercase tuple var
            "SELECT T.part AS p INTO out FROM east T WHERE T.part < 3",  # bad op
            "SELECT T.part AS p INTO out FROM east T extra",  # trailing
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_schemasql(text)

    def test_error_names_line_and_column(self):
        with pytest.raises(ParseError) as info:
            parse_schemasql("SELECT T.part AS p\nINTO Out FROM east T")
        assert str(info.value) == "expected a name, found 'Out' at line 2, column 6"
        assert (info.value.line, info.value.column) == (2, 6)
        with pytest.raises(ParseError) as info:
            parse_schemasql("SELECT T.part AS p, T.sold AS p INTO out FROM east T")
        assert (info.value.line, info.value.column) == (1, 1)


class TestValidation:
    def test_undeclared_tuple_variable(self, db):
        q = parse_schemasql("SELECT T.part AS p INTO out FROM east U")
        with pytest.raises(EvaluationError):
            evaluate_query(q, db)

    def test_tuple_var_over_undeclared_rel_var(self):
        with pytest.raises(EvaluationError):
            validate_query(parse_schemasql("SELECT T.part AS p INTO out FROM R T"))

    def test_varref_must_be_rel_or_attr_var(self, db):
        q = parse_schemasql("SELECT T AS t INTO out FROM east T")
        with pytest.raises(EvaluationError):
            evaluate_query(q, db)

    def test_double_declaration(self):
        with pytest.raises(EvaluationError):
            validate_query(
                parse_schemasql("SELECT T.part AS p INTO out FROM east T, west T")
            )


class TestEvaluation:
    def test_plain_selection(self, db):
        q = parse_schemasql("SELECT T.part AS p, T.sold AS s INTO out FROM east T")
        assert rows(evaluate_query(q, db)) == {("'nuts'", "50"), ("'bolts'", "70")}

    def test_literal_columns(self, db):
        q = parse_schemasql(
            "SELECT T.part AS p, 'east' AS region INTO out FROM east T"
        )
        assert ("'nuts'", "'east'") in rows(evaluate_query(q, db))

    def test_relation_variable_federation(self, db):
        q = parse_schemasql(
            "SELECT R AS region, T.part AS part INTO out FROM -> R, R T"
        )
        result = rows(evaluate_query(q, db))
        assert ("east", "'nuts'") in result and ("west", "'screws'") in result
        assert len(result) == 4

    def test_attribute_variable_schema_query(self, db):
        q = parse_schemasql("SELECT A AS attr INTO out FROM east -> A")
        assert rows(evaluate_query(q, db)) == {("part",), ("sold",)}

    def test_full_flattening(self, db):
        q = parse_schemasql(
            "SELECT R AS rel, A AS attr, T.A AS val INTO out FROM -> R, R T, R -> A"
        )
        assert len(evaluate_query(q, db)) == len(db)

    def test_where_equality_and_inequality(self, db):
        q = parse_schemasql(
            "SELECT T.part AS p INTO out FROM east T WHERE T.sold = 70"
        )
        assert rows(evaluate_query(q, db)) == {("'bolts'",)}
        q2 = parse_schemasql(
            "SELECT T.part AS p INTO out FROM east T WHERE T.part <> 'nuts'"
        )
        assert rows(evaluate_query(q2, db)) == {("'bolts'",)}

    def test_join_across_tuple_variables(self, db):
        q = parse_schemasql(
            "SELECT T.part AS p INTO out FROM east T, west U "
            "WHERE T.part = U.part"
        )
        assert rows(evaluate_query(q, db)) == {("'nuts'",)}

    def test_missing_attribute_drops_binding(self):
        sparse = SchemaLogDatabase(
            [
                (N("r"), V("t1"), N("a"), V(1)),
                (N("r"), V("t2"), N("b"), V(2)),
            ]
        )
        q = parse_schemasql("SELECT T.a AS a INTO out FROM r T")
        assert len(evaluate_query(q, sparse)) == 1

    def test_set_semantics(self, db):
        q = parse_schemasql("SELECT 'k' AS k INTO out FROM east T")
        assert len(evaluate_query(q, db)) == 1


class TestCompilation:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT T.part AS part, 'east' AS region INTO out FROM east T",
            "SELECT R AS region, T.part AS part INTO out FROM -> R, R T",
            "SELECT A AS attr INTO out FROM east -> A",
            "SELECT R AS rel, A AS attr, T.A AS val INTO out FROM -> R, R T, R -> A",
            "SELECT T.part AS p1, T.part AS p2 INTO out FROM east T",
            "SELECT T.part AS p INTO out FROM east T WHERE T.sold = 70",
            "SELECT T.part AS p INTO out FROM east T WHERE T.part <> 'nuts'",
            "SELECT T.part AS p INTO out FROM east T, west U WHERE T.part = U.part",
            "SELECT R AS r INTO out FROM -> R",
        ],
        ids=[
            "literal",
            "rel-var",
            "attr-var",
            "flatten",
            "dup-column",
            "where-eq",
            "where-neq",
            "join",
            "rel-var-alone",
        ],
    )
    def test_native_and_compiled_agree(self, db, text):
        query = parse_schemasql(text)
        native = evaluate_query(query, db)
        out = compile_to_ta(query).run(database(db.facts_table()))
        simulated = table_to_relation(
            out.tables_named(query.into)[0], schema=native.schema
        )
        assert simulated.tuples == native.tuples
        assert simulated.schema == native.schema
