"""EXPLAIN rendering tests, including the Figure 4 golden output."""

import json

import pytest

from repro.algebra.programs import parse_program
from repro.core import database
from repro.data import figure4_top
from repro.obs import format_span, observation, span_tree_text
from repro.obs.events import Boundary
from repro.obs.trace import Span

#: The deterministic (timings-off) EXPLAIN of the Figure 4 group program.
FIGURE4_GOLDEN = """\
program  tables 1→1  statements=1
└─ statement: Sales <- GROUP by {Region} on {Sold} (Sales)  tables 1→1  combinations=1
   └─ GROUP  tables 1→1  rows 8→9  cols 3→9

Operation metrics
+-----------+-------+--------+---------+----------+---------+----------+
| OpMetrics | Calls | Errors | Rows in | Rows out | Cols in | Cols out |
+-----------+-------+--------+---------+----------+---------+----------+
| GROUP     | 1     | 0      | 8       | 9        | 3       | 9        |
+-----------+-------+--------+---------+----------+---------+----------+

Counters
+--------------+-------+
| Counters     | Value |
+--------------+-------+
| combinations | 1     |
| programs     | 1     |
| statements   | 1     |
+--------------+-------+"""


def run_figure4():
    program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
    with observation() as obs:
        program.run(database(figure4_top()))
    return obs


class TestGolden:
    def test_figure4_group_explain_text(self):
        assert run_figure4().explain(timings=False) == FIGURE4_GOLDEN

    def test_timings_add_ms_figures(self):
        text = run_figure4().explain()
        assert "ms" in text
        assert "Time ms" in text


class TestJsonExport:
    def test_round_trips_through_json(self):
        data = run_figure4().to_json()
        decoded = json.loads(json.dumps(data))
        assert set(decoded) == {"spans", "metrics"}
        (program_span,) = decoded["spans"]
        assert program_span["name"] == "program"
        (statement,) = program_span["children"]
        (op,) = statement["children"]
        assert op["name"] == "GROUP"
        assert op["attributes"]["rows_in"] == 8
        assert op["attributes"]["rows_out"] == 9
        assert op["duration_ms"] >= 0
        assert decoded["metrics"]["operations"]["GROUP"]["calls"] == 1
        assert decoded["metrics"]["counters"]["statements"] == 1

    def test_empty_observation(self):
        with observation() as obs:
            pass
        assert obs.to_json() == {
            "spans": [],
            "metrics": {"operations": {}, "counters": {}},
        }
        assert obs.explain() == "(nothing observed)"


class TestSpanFormatting:
    def test_format_span_orders_parts(self):
        span = Span("GROUP", {"rows_in": 5, "rows_out": 3, "note": "x"})
        assert format_span(span, timings=False) == "GROUP  rows 5→3  note=x"

    def test_error_is_marked(self):
        span = Span("SELECT")
        span.error = "ValueError('boom')"
        assert format_span(span, timings=False).endswith("!ValueError('boom')")

    def test_tree_uses_box_drawing(self):
        with observation() as obs:
            with Boundary("root"):
                with Boundary("a"):
                    with Boundary("a1"):
                        pass
                with Boundary("b"):
                    pass
        (root,) = obs.spans
        text = span_tree_text(root, timings=False)
        assert text.splitlines() == [
            "root",
            "├─ a",
            "│  └─ a1",
            "└─ b",
        ]


class TestWhileExplain:
    def test_fixpoint_shows_iterations_and_convergence(self):
        program = parse_program(
            """
            while Work do
                Work <- DIFFERENCE (Work, Work)
            end
            """
        )
        from repro.core import make_table

        work = make_table("Work", ["A"], [["x"], ["y"]])
        with observation() as obs:
            program.run(database(work))
        text = obs.explain(timings=False)
        assert "while: Work  iterations=1  condition_rows=[2]" in text
        assert "iteration  n=1" in text
        assert obs.metrics.counter("while_iterations") == 1
        assert obs.metrics.counter("while_loops") == 1
