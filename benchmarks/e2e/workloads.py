"""The four end-to-end workloads and the independent checks of their outputs.

Each workload builds its inputs from a seed, prepares everything that sits
outside a request in :meth:`Workload.setup`, and runs one request per
:meth:`Workload.request` call through the repository's public API.  Outputs
are reduced to a layout-free canonical form and compared by digest with a
reference computed once from an evaluator the request does not use: the
paper's printed figure tables, a front end's native evaluator, the plain
naive interpreter, or the input itself.

The seed changes labels and row order, never sizes, so a request costs the
same on every seed and run-to-run spread measures the host, not the input.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
from pathlib import Path

from repro.algebra import programs as ta
from repro.core import V, database, make_table
from repro.data import BASE_FACTS, figure4_bottom, figure5_result, sales_info2, sales_info4
from repro.engine import optimizer, run as engine_run
from repro.obs import examples, ledger, stats
from repro.relational import (
    Assign,
    Difference,
    FWProgram,
    Join,
    Project,
    Rel,
    Relation,
    RelationalDatabase,
    RenameAttr,
    Union,
    WhileNotEmpty,
    compile_program,
    relational_to_tabular,
    table_to_relation,
)
from repro.runtime import supervisor
from repro.runtime.workloads import chain_join_workload

__all__ = ["WORKLOADS", "Workload", "digest", "relation_form", "sales_facts", "table_form"]


def digest(form) -> str:
    """The sha256 of a canonical form's JSON encoding."""
    payload = json.dumps(form, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def relation_form(table) -> dict:
    """A table with distinct column attributes, up to row and column order.

    Row attributes are dropped; columns are ordered by attribute and rows
    sorted, so two tables holding the same rows compare equal.
    """
    header = table.grid[0]
    order = sorted(range(1, len(header)), key=lambda j: str(header[j]))
    return {
        "columns": [str(header[j]) for j in order],
        "rows": sorted([repr(row[j]) for j in order] for row in table.grid[1:]),
    }


def _relation_form(relation: Relation) -> dict:
    order = sorted(range(len(relation.schema)), key=lambda j: relation.schema[j])
    return {
        "columns": [relation.schema[j] for j in order],
        "rows": sorted([repr(row[j]) for j in order] for row in relation.tuples),
    }


def table_form(table) -> list:
    """A small table up to permutations of its data rows and data columns.

    The paper identifies tables that differ only in row and column order;
    the least form over every column permutation is that identification's
    canonical representative (tables here have at most six data columns).
    The table name is left out.
    """
    grid = [[repr(entry) for entry in row] for row in table.grid]
    header, body = grid[0], grid[1:]
    if len(header) > 7:
        raise ValueError(f"table_form is exhaustive; {len(header) - 1} columns is too many")
    best = None
    for perm in itertools.permutations(range(1, len(header))):
        cols = (0,) + perm
        form = [[header[j] for j in cols[1:]], sorted([row[j] for j in cols] for row in body)]
        if best is None or form < best:
            best = form
    return best


def _exact_form(table) -> list:
    return [[repr(entry) for entry in row] for row in table.grid]


def _named(db, name: str):
    tables = [t for t in db.tables if str(t.name) == name]
    if len(tables) != 1:
        raise ValueError(f"expected one table named {name}, found {len(tables)}")
    return tables[0]


def _tc_program() -> FWProgram:
    """Transitive closure in FO+while (the Theorem 4.1 fixpoint of ``tc:N``)."""
    step = Project(
        Join(RenameAttr(Rel("TC"), "Dst", "Mid"), RenameAttr(Rel("E"), "Src", "Mid")),
        ["Src", "Dst"],
    )
    return FWProgram(
        [
            Assign("TC", Rel("E")),
            Assign("Delta", Rel("E")),
            WhileNotEmpty(
                "Delta",
                [
                    Assign("New", step),
                    Assign("Delta", Difference(Rel("New"), Rel("TC"))),
                    Assign("TC", Union(Rel("TC"), Rel("Delta"))),
                ],
            ),
        ]
    )


def _chain_edges(rng: random.Random, nodes: int) -> Relation:
    """An ``nodes``-node chain over seeded distinct labels of equal magnitude."""
    labels = rng.sample(range(100_000, 1_000_000), nodes)
    return Relation("E", ["Src", "Dst"], list(zip(labels, labels[1:])))


class Workload:
    """One named workload: seeded inputs, a request, and its check."""

    name = ""
    #: Requests per block in the interleaved schedule (about 2 s each).
    block = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        #: A private directory for files a request writes.
        self.scratch = scratch

    def setup(self) -> None:
        """Build inputs, compile what sits outside a request, warm up."""
        raise NotImplementedError

    def request(self):
        raise NotImplementedError

    def output_form(self, output):
        """The canonical form of one request's output."""
        raise NotImplementedError

    def reference_form(self):
        """The canonical form the output must have, from an independent source."""
        raise NotImplementedError

    def reference_digest(self) -> str:
        return digest(self.reference_form())

    def digest_of(self, output) -> str:
        return digest(self.output_form(output))

    def finish(self, output) -> dict:
        """Release what a request left behind; return per-request counters."""
        return {}


# Mirrors of the pipelines in repro.obs.examples, evaluated natively for the
# paper-mix reference.
_SCHEMALOG_TEXT = """
    sales[T: part -> P]        :- east[T: part -> P].
    sales[T: sold -> S]        :- east[T: sold -> S].
    sales[T: region -> 'east'] :- east[T: part -> P].
    sales[T: part -> P]        :- west[T: part -> P].
    sales[T: sold -> S]        :- west[T: sold -> S].
    sales[T: region -> 'west'] :- west[T: part -> P].
"""
_SCHEMASQL_TEXT = (
    "SELECT T.part AS part, R AS region, T.sold AS sold INTO sales FROM -> R, R T"
)


def _federation():
    from repro.schemalog import SchemaLogDatabase

    return SchemaLogDatabase.from_relational(
        RelationalDatabase(
            [
                Relation("east", ["part", "sold"], [("nuts", 50), ("bolts", 70)]),
                Relation("west", ["part", "sold"], [("nuts", 60), ("screws", 50)]),
            ]
        )
    )


def _good_inputs():
    from repro.good import (
        EdgeAddition,
        GoodEdge,
        GoodNode,
        GoodProgram,
        ObjectGraph,
        Pattern,
        PatternEdge,
        PatternNode,
    )

    graph = ObjectGraph(
        [
            GoodNode.make("p1", "Person", "ann"),
            GoodNode.make("p2", "Person", "bob"),
            GoodNode.make("p3", "Person", "cal"),
        ],
        [GoodEdge.make("p1", "parent", "p2"), GoodEdge.make("p2", "parent", "p3")],
    )
    grandparent = Pattern(
        [
            PatternNode.make("X", "Person"),
            PatternNode.make("Y", "Person"),
            PatternNode.make("Z", "Person"),
        ],
        [PatternEdge.make("X", "parent", "Y"), PatternEdge.make("Y", "parent", "Z")],
    )
    return GoodProgram((EdgeAddition(grandparent, "X", "gp", "Z"),)), graph


def _graph_form(graph) -> dict:
    return {
        "nodes": sorted(repr(n) for n in graph.nodes),
        "edges": sorted(repr(e) for e in graph.edges),
    }


def _cube_form(cube) -> dict:
    return {
        "dims": list(cube.dims),
        "cells": sorted([[repr(c) for c in key], repr(v)] for key, v in cube.cells.items()),
    }


class PaperMix(Workload):
    """Every bundled example, each parsed, compiled and run (naive engine).

    The inputs are the paper's own figures, so the seed changes nothing
    here.  Even the example order stays fixed: it moves the allocation
    peak by about 9%.
    """

    name = "paper-mix"
    block = 30

    def setup(self) -> None:
        self.examples = list(examples.EXAMPLES.values())
        self.request()

    def request(self):
        outputs = {}
        for example in self.examples:
            if example.setup is None:
                outputs[example.name] = example.runner()
            else:
                db, run = example.setup()
                outputs[example.name] = run(db)
        return outputs

    def output_form(self, outputs):
        from repro.good import decode_graph
        from repro.schemalog import DERIVED, SchemaLogDatabase

        grouped, per_region, cube = outputs["olap"]
        derived = table_to_relation(_named(outputs["schemalog"], str(DERIVED)))
        return {
            "fig4-group": _exact_form(_named(outputs["fig4-group"], "Sales")),
            "fig5-merge": _exact_form(_named(outputs["fig5-merge"], "Sales")),
            "pivot": table_form(_named(outputs["pivot"], "Pivot")),
            "schemalog": sorted(
                repr(f)
                for f in SchemaLogDatabase.from_facts_relation(derived.with_name("Facts"))
            ),
            "schemasql": relation_form(_named(outputs["schemasql"], "sales")),
            "good": _graph_form(decode_graph(outputs["good"])),
            "fo-while": relation_form(_named(outputs["fo-while"], "TC")),
            "olap": {
                "grouped": table_form(grouped),
                "per_region": sorted(table_form(t) for t in per_region.tables),
                "cube": _cube_form(cube),
            },
        }

    def reference_form(self):
        from repro.schemalog import evaluate, parse_schemalog
        from repro.schemasql import evaluate_query, parse_schemasql

        federation = _federation()
        good_program, graph = _good_inputs()
        edges = Relation("E", ["Src", "Dst"], [(i, i + 1) for i in range(1, 5)])
        closure = _tc_program().run(RelationalDatabase([edges])).relation("TC")
        return {
            "fig4-group": _exact_form(figure4_bottom()),
            "fig5-merge": _exact_form(figure5_result()),
            "pivot": table_form(sales_info2().tables[0]),
            "schemalog": sorted(
                repr(f) for f in evaluate(parse_schemalog(_SCHEMALOG_TEXT), federation)
            ),
            "schemasql": _relation_form(
                evaluate_query(parse_schemasql(_SCHEMASQL_TEXT), federation)
            ),
            "good": _graph_form(good_program.run(graph)),
            "fo-while": _relation_form(closure),
            "olap": {
                "grouped": table_form(sales_info2().tables[0]),
                "per_region": sorted(table_form(t) for t in sales_info4().tables),
                "cube": {
                    "dims": ["Part", "Region"],
                    "cells": sorted(
                        [[repr(V(p)), repr(V(r))], repr(V(s))] for p, r, s in BASE_FACTS
                    ),
                },
            },
        }


RESTRUCTURE_PROGRAM = """
    Grouped <- GROUP by {Region} on {Sold} (Sales)
    Cleaned <- CLEANUP by {Part} on {null} (Grouped)
    Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
    Flat    <- MERGECOMPACT on {Sold} by {Region} (Pivot)
"""


def sales_facts(seed: int, parts: int = 80, regions: int = 4) -> list[tuple]:
    """``(part, region, sold)`` facts with exactly one region missing per part.

    Unlike ``synthetic_sales_facts``, whose row count varies with the seed,
    every seed gives ``parts * (regions - 1)`` rows and ``parts`` null cells
    in the pivot, so the quadratic null-row removal inside MERGECOMPACT
    does the same work on every seed.
    """
    rng = random.Random(seed)
    facts = []
    for p in range(parts):
        missing = rng.randrange(regions)
        for r in range(regions):
            if r != missing:
                facts.append((f"part{p}", f"region{r}", rng.randrange(10, 1000)))
    return facts


class Restructure(Workload):
    """Pivot a 240-row relation and unpivot it again (naive engine)."""

    name = "restructure"
    block = 9

    def setup(self) -> None:
        self.sales = make_table("Sales", ["Part", "Region", "Sold"], sales_facts(self.seed))
        self.db = database(self.sales)
        self.request()

    def request(self):
        return ta.parse_program(RESTRUCTURE_PROGRAM).run(self.db)

    def output_form(self, output):
        return relation_form(_named(output, "Flat"))

    def reference_form(self):
        # Pivot followed by unpivot is the identity on the input rows.
        return relation_form(self.sales)


class FixpointJoin(Workload):
    """``tc:16`` and ``chain:32`` on the vector engine with the optimizer."""

    name = "fixpoint-join"
    block = 22

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.edges = _chain_edges(rng, 16)
        self.tc_program = compile_program(_tc_program(), {"E": ("Src", "Dst")})
        self.tc_db = relational_to_tabular(RelationalDatabase([self.edges]))
        self.chain_values = {}
        tables = []
        labels = [f"v{k}" for k in rng.sample(range(100_000, 1_000_000), 32)]
        for name in ("A", "B", "C", "D"):
            column = labels[:]
            rng.shuffle(column)
            self.chain_values[name] = column
            tables.append(make_table(name, [f"{name}0"], [[v] for v in column]))
        self.chain_program = chain_join_workload(1)[0]
        self.chain_db = database(*tables)
        self.request()

    def request(self):
        # A cleared plan cache makes every request plan afresh, like a new
        # ``repro run --optimize`` process does.
        optimizer.PLAN_CACHE.clear()
        tc = engine_run.run_program(
            self.tc_program,
            self.tc_db,
            engine="vector",
            optimize=True,
            stats=stats.analyze_database(self.tc_db),
        )
        chain = engine_run.run_program(
            self.chain_program,
            self.chain_db,
            engine="vector",
            optimize=True,
            stats=stats.analyze_database(self.chain_db),
        )
        return tc, chain

    def output_form(self, output):
        tc, chain = output
        return {"tc": relation_form(_named(tc, "TC")), "chain": relation_form(_named(chain, "T"))}

    def reference_form(self):
        closure = _tc_program().run(RelationalDatabase([self.edges])).relation("TC")
        # σ_{A0≈D0} σ_{B0≈C0} (A × B × C × D), joined here by value.
        a, b, c, d = (self.chain_values[n] for n in "ABCD")
        rows = [
            [repr(V(x)), repr(V(y)), repr(V(y2)), repr(V(x2))]
            for x in a
            for y in b
            for y2 in c
            if y2 == y
            for x2 in d
            if x2 == x
        ]
        return {
            "tc": _relation_form(closure),
            "chain": {"columns": ["A0", "B0", "C0", "D0"], "rows": sorted(rows)},
        }


class DurableFixpoint(Workload):
    """``tc:12`` through the supervisor with a ledger and fsync'd checkpoints."""

    name = "durable-fixpoint"
    block = 9

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.requests = 0

    def setup(self) -> None:
        edges = _chain_edges(random.Random(self.seed), 12)
        self.program = compile_program(_tc_program(), {"E": ("Src", "Dst")})
        self.db = relational_to_tabular(RelationalDatabase([edges]))
        self.finish(self.request())

    def request(self):
        self.requests += 1
        directory = self.scratch / f"{self.name}-{self.requests}"
        run = supervisor.Supervisor(ledger=ledger.RunLedger(directory)).submit(
            self.program,
            self.db,
            workload="tc:12",
            checkpoint_path=directory / "ckpt.json",
            engine="vector",
        )
        return run, directory

    def output_form(self, output):
        run, _directory = output
        if not run.ok:
            return {"failed": repr(run.error)}
        return ledger.database_digest(run.result)[0]

    def reference_form(self):
        return ledger.database_digest(self.program.run(self.db))[0]

    def finish(self, output) -> dict:
        _run, directory = output
        ledger_bytes = sum(
            p.stat().st_size
            for p in directory.iterdir()
            if p.is_file() and not p.name.startswith("ckpt.json")
        )
        shutil.rmtree(directory)
        return {"ledger.bytes": ledger_bytes}


#: Workload name -> class, in report order.
WORKLOADS = {
    cls.name: cls for cls in (PaperMix, Restructure, FixpointJoin, DurableFixpoint)
}
