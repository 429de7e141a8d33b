"""Unit tests for SchemaLog_d terms, rules, and the parser."""

import pytest

from repro.core import Name, ParseError, V
from repro.schemalog import (
    Builtin,
    Const,
    Rule,
    SchemaAtom,
    Var,
    parse_rule,
    parse_schemalog,
)


class TestTerms:
    def test_atom_variables(self):
        atom = SchemaAtom(Var("R"), Var("T"), Const(Name("a")), Const(V(1)))
        assert atom.variables() == frozenset([Var("R"), Var("T")])

    def test_builtin_operator_validated(self):
        with pytest.raises(ValueError):
            Builtin("~", Var("X"), Var("Y"))

    def test_rule_safety_head(self):
        head = SchemaAtom(Const(Name("r")), Var("T"), Const(Name("a")), Var("X"))
        with pytest.raises(ValueError):
            Rule(head, ())

    def test_rule_safety_builtin(self):
        head = SchemaAtom(Const(Name("r")), Const(V(1)), Const(Name("a")), Const(V(2)))
        body_atom = SchemaAtom(Const(Name("e")), Var("T"), Const(Name("a")), Var("X"))
        with pytest.raises(ValueError):
            Rule(head, (body_atom, Builtin("=", Var("Z"), Var("X"))))

    def test_ground_fact_allowed(self):
        head = SchemaAtom(Const(Name("r")), Const(V(1)), Const(Name("a")), Const(V(2)))
        assert Rule(head, ()).is_fact


class TestParser:
    def test_simple_rule(self):
        rule = parse_rule("out[T: a -> X] :- in[T: a -> X].")
        assert isinstance(rule.head, SchemaAtom)
        assert rule.head.rel == Const(Name("out"))
        assert rule.head.tid == Var("T")
        assert len(rule.body) == 1

    def test_variable_over_relation_names(self):
        rule = parse_rule("all[T: A -> V] :- R[T: A -> V].")
        body = rule.body[0]
        assert isinstance(body, SchemaAtom)
        assert body.rel == Var("R")  # the higher-order feature

    def test_constants(self):
        rule = parse_rule("r[T: region -> 'east'] :- e[T: part -> P].")
        assert rule.head.value == Const(V("east"))
        rule2 = parse_rule("r[T: n -> 42] :- e[T: n -> 42].")
        assert rule2.head.value == Const(V(42))

    def test_fact(self):
        rule = parse_rule("r[t1: a -> 'v'].")
        assert rule.is_fact
        assert rule.head.tid == Const(Name("t1"))

    def test_builtins(self):
        rule = parse_rule("r[T: a -> X] :- e[T: a -> X], X != 'zero', X = X.")
        ops = [a.op for a in rule.body if isinstance(a, Builtin)]
        assert ops == ["!=", "="]

    def test_order_comparison_parses(self):
        rule = parse_rule("big[T: v -> X] :- e[T: v -> X], X > 10.")
        assert any(isinstance(a, Builtin) and a.op == ">" for a in rule.body)

    def test_comments_and_program(self):
        program = parse_schemalog(
            """
            % copy everything
            all[T: A -> V] :- R[T: A -> V].
            # and a fact
            r[t: a -> 1].
            """
        )
        assert len(program) == 2
        assert len(program.facts()) == 1
        assert len(program.proper_rules()) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "r[T: a -> X] :- e[T: a -> X]",  # missing period
            "X = Y :- e[T: a -> X].",  # builtin head
            "r[T: a X] :- e[T: a -> X].",  # missing arrow
            "r[T: a -> X] :- .",  # empty body after :-
            "r[T: a -> X].",  # unsafe fact with variables
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_schemalog(text)

    def test_error_names_line_and_column(self):
        with pytest.raises(ParseError) as info:
            parse_schemalog("r[T: a -> X] :-\n  e[T: a X].")
        assert str(info.value) == "expected 'arrow', found 'X' at line 2, column 10"
        assert (info.value.line, info.value.column) == (2, 10)

    def test_str_round_trip(self):
        rule = parse_rule("out[T: a -> X] :- in[T: a -> X], X != 'v'.")
        assert parse_rule(str(rule)) == rule
