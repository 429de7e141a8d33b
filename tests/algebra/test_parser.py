"""Unit tests for the textual tabular algebra syntax."""

import pytest

from repro.algebra.programs import (
    NOTHING,
    Assignment,
    Lit,
    Pair,
    ParamSet,
    Star,
    While,
    parse_program,
    parse_statement,
)
from repro.core import NULL, N, ParseError, V, database, make_table
from repro.data import sales_info1, sales_info2
from repro.data.programs import random_case, random_rewrite_case
from repro.engine.optimizer import optimize_program
from repro.obs.examples import EXAMPLES
from repro.runtime.workloads import resolve_workload


class TestParsing:
    def test_simple_assignment(self):
        stmt = parse_statement("T <- TRANSPOSE (R)")
        assert isinstance(stmt, Assignment)
        assert stmt.spec.name == "TRANSPOSE"
        assert isinstance(stmt.target, Lit) and stmt.target.symbol == N("T")

    def test_keyword_parameters(self):
        stmt = parse_statement("T <- GROUP by {Region} on {Sold} (Sales)")
        assert isinstance(stmt, Assignment)
        assert set(stmt.params) == {"by", "on"}

    def test_bare_parameter_without_braces(self):
        stmt = parse_statement("T <- GROUP by Region on Sold (Sales)")
        assert isinstance(stmt, Assignment)

    def test_negative_list(self):
        stmt = parse_statement("T <- PROJECT attrs {A, B - B} (R)")
        assert isinstance(stmt, Assignment)
        param = stmt.params["attrs"]
        assert isinstance(param, ParamSet)
        assert len(param.negative) == 1

    def test_null_and_values(self):
        stmt = parse_statement("T <- CLEANUP by {Part} on {null} (R)")
        assert isinstance(stmt, Assignment)
        stmt2 = parse_statement("T <- SWITCH value 'east' (R)")
        assert isinstance(stmt2, Assignment)
        assert stmt2.params["value"].symbol == V("east")  # type: ignore[attr-defined]

    def test_numeric_value(self):
        stmt = parse_statement("T <- SELECTCONST attr A value 42 (R)")
        assert stmt.params["value"].symbol == V(42)  # type: ignore[attr-defined]

    def test_wildcards(self):
        stmt = parse_statement("*1 <- DEDUP (*1)")
        assert isinstance(stmt.target, Star) and stmt.target.index == 1

    def test_pair_parameter(self):
        stmt = parse_statement("T <- PROJECT attrs {(Region, any)} (R)")
        param = stmt.params["attrs"]
        assert isinstance(param, ParamSet)
        assert isinstance(param.positive[0], Pair)

    def test_while_block(self):
        program = parse_program(
            """
            while Work do
                Work <- DIFFERENCE (Work, Done)
            end
            """
        )
        assert len(program) == 1
        assert isinstance(program.statements[0], While)

    def test_nested_while(self):
        program = parse_program(
            """
            while A do
                while B do
                    B <- DIFFERENCE (B, A)
                end
                A <- DIFFERENCE (A, B)
            end
            """
        )
        outer = program.statements[0]
        assert isinstance(outer, While)
        assert isinstance(outer.body.statements[0], While)

    def test_comments_and_blank_lines(self):
        program = parse_program(
            """
            # build the pivot
            T <- GROUP by {Region} on {Sold} (Sales)  # trailing comment
            """
        )
        assert len(program) == 1

    def test_multiple_arguments(self):
        stmt = parse_statement("T <- UNION (R, S)")
        assert len(stmt.args) == 2  # type: ignore[union-attr]

    def test_case_insensitive_operation(self):
        assert parse_statement("T <- group by {G} on {X} (R)").spec.name == "GROUP"  # type: ignore[union-attr]


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "T <- NOSUCHOP (R)",
            "T <- GROUP by {Region} (Sales)",  # missing 'on'
            "T <- UNION (R",  # unclosed parens
            "while Work do T <- DEDUP (Work)",  # missing end
            "T <- GROUP by { - Region} on {Sold} (Sales)",  # no positive item
            "T GROUP (R)",  # missing arrow
            "T <- UNION ()",  # no arguments
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_program(text)

    def test_error_carries_location(self):
        try:
            parse_program("T <-\nNOSUCHOP (R)")
        except ParseError as exc:
            assert exc.line == 2
        else:  # pragma: no cover
            pytest.fail("expected ParseError")

    def test_error_message_names_line_and_column(self):
        with pytest.raises(ParseError) as info:
            parse_program("T <- UNION (R,\n  S")
        assert str(info.value) == "expected ')', found 'end of input' at line 2, column 4"
        assert (info.value.line, info.value.column) == (2, 4)


def _assignments(program):
    for statement in program.statements:
        if isinstance(statement, While):
            yield from _assignments(statement.body)
        else:
            yield statement


def _assert_round_trips(program):
    for statement in _assignments(program):
        text = repr(statement)
        assert repr(parse_statement(text)) == text


class TestPrintedFormParses:
    """``repr`` of an assignment, a loop or a program is program text
    that parses back to it."""

    def test_bottom_and_empty_set(self):
        stmt = parse_statement("T <- CLEANUP by {} on {⊥} (R)")
        assert stmt.params["by"] is NOTHING
        assert stmt.params["on"].positive[0].symbol is NULL
        assert parse_statement("T <- CONSTCOLUMN attr A value ⊥ (R)").params["value"].symbol is NULL
        assert repr(stmt) == "T <- CLEANUP by {} on {⊥} (R)"

    def test_pair_prints_as_it_parses(self):
        stmt = parse_statement("T <- PROJECT attrs {(Region, any)} (R)")
        assert repr(stmt) == "T <- PROJECT attrs {(Region, any)} (R)"

    def test_fuzz_assignments_round_trip(self):
        for seed in range(300):
            for generate in (random_case, random_rewrite_case):
                _assert_round_trips(generate(seed)[0])

    @pytest.mark.parametrize(
        "spec", [name for name, ex in EXAMPLES.items() if ex.build is not None] + ["tc:6"]
    )
    def test_bundled_plans_round_trip(self, spec):
        _label, program, _db = resolve_workload(spec)
        _assert_round_trips(program)
        _assert_round_trips(optimize_program(program, cache=None).program)

    @pytest.mark.parametrize(
        "spec",
        [name for name, ex in EXAMPLES.items() if ex.build is not None]
        + ["tc:6", "chain:4"],
    )
    def test_programs_print_as_program_text(self, spec):
        # The examples include the compiled FO+while, SchemaLog,
        # SchemaSQL and GOOD programs; tc:6 nests a loop.
        _label, program, _db = resolve_workload(spec)
        text = repr(program)
        assert repr(parse_program(text)) == text

    def test_nested_loops_print_indented(self):
        text = "while A do\n  B <- DEDUP (A)\n  while B do\n    B <- DIFFERENCE (B, B)\n  end\nend"
        assert repr(parse_program(text)) == text


class TestParsedExecution:
    def test_pivot_program(self):
        program = parse_program(
            """
            Grouped <- GROUP by {Region} on {Sold} (Sales)
            Cleaned <- CLEANUP by {Part} on {null} (Grouped)
            Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
            """
        )
        out = program.run(sales_info1())
        pivot = out.tables_named("Pivot")[0]
        expected = sales_info2().tables[0].with_name(N("Pivot"))
        assert pivot.equivalent(expected)

    def test_while_program(self):
        program = parse_program(
            """
            while Work do
                Work <- DIFFERENCE (Work, Done)
            end
            """
        )
        db = database(
            make_table("Work", ["A"], [(1,), (2,)]),
            make_table("Done", ["A"], [(1,), (2,)]),
        )
        out = program.run(db)
        assert out.tables_named("Work")[0].height == 0

    def test_roundtrip_repr_parse(self):
        stmt = parse_statement("T <- GROUP by {Region} on {Sold} (Sales)")
        reparsed = parse_statement(repr(stmt).replace("<-", "<- "))
        assert repr(reparsed) == repr(stmt)
