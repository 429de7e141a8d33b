"""Bundled traceable pipelines for ``python -m repro trace`` / ``stats``.

Each example is a self-contained end-to-end pipeline over the paper's
running data — a tabular algebra program, a compiled embedding, or an
OLAP bridge round trip — chosen so the trace shows something meaningful:
nested statement spans, while-loop fixpoints, compiler phases, bridge
conversions.

Examples whose pipeline is "a TA program over a tabular database" also
expose a ``build`` hook returning ``(program, db)`` separately, so the
workload resolver can run them under the hardened runtime and the
lineage CLI can tag the input cells before running — that is what makes
``python -m repro lineage <example>`` and the witness-replay audit work.
The OLAP example stays lineage-incapable: its bridges build cube objects
rather than running a TA program.

This module imports the engine (algebra, schemalog, relational, olap), so
it is deliberately *not* imported from :mod:`repro.obs`'s ``__init__`` —
the operation registry imports the observability runtime, and loading the
engine from the package root would close that cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .profile import Profile, profile
from .runtime import Observation, observation

__all__ = [
    "Example",
    "EXAMPLES",
    "run_example",
    "trace_example",
    "profile_example",
]


@dataclass(frozen=True)
class Example:
    """One named, runnable pipeline.

    ``build``, when present, returns ``(program, db)`` — the example's TA
    :class:`~repro.algebra.programs.statements.Program` and its input
    :class:`~repro.core.database.TabularDatabase` — which is what
    :func:`repro.runtime.workloads.resolve_workload` hands to ``run``,
    replay and recovery.  ``runner`` remains the one-shot entry point
    used by trace/profile.
    """

    name: str
    description: str
    runner: Callable[[], object]
    build: Callable[[], tuple[object, object]] | None = None

    @property
    def setup(self) -> Callable[[], tuple[object, Callable]] | None:
        """``build`` as ``(db, run)``, for callers that interpose on the
        input before running (lineage tagging, fault injection); None
        when the pipeline is not a TA program."""
        return None if self.build is None else self._setup

    def _setup(self) -> tuple[object, Callable]:
        program, db = self.build()
        return db, program.run


def _run_build(build: Callable[[], tuple[object, object]]) -> Callable[[], object]:
    def runner() -> object:
        program, db = build()
        return program.run(db)

    return runner


def _fig4() -> tuple[object, object]:
    from ..algebra.programs import parse_program
    from ..core import database
    from ..data import figure4_top

    program = parse_program("Sales <- GROUP by {Region} on {Sold} (Sales)")
    return program, database(figure4_top())


def _fig5() -> tuple[object, object]:
    from ..algebra.programs import parse_program
    from ..data import sales_info2

    program = parse_program("Sales <- MERGE on {Sold} by {Region} (Sales)")
    return program, sales_info2()


def _pivot() -> tuple[object, object]:
    from ..algebra.programs import parse_program
    from ..data import sales_info1

    program = parse_program(
        """
        Grouped <- GROUP by {Region} on {Sold} (Sales)
        Cleaned <- CLEANUP by {Part} on {null} (Grouped)
        Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
        """
    )
    return program, sales_info1()


def _federation_facts() -> object:
    """The two-source federation the SchemaLog/SchemaSQL examples query."""
    from ..relational import Relation, RelationalDatabase
    from ..schemalog import SchemaLogDatabase

    return SchemaLogDatabase.from_relational(
        RelationalDatabase(
            [
                Relation("east", ["part", "sold"], [("nuts", 50), ("bolts", 70)]),
                Relation("west", ["part", "sold"], [("nuts", 60), ("screws", 50)]),
            ]
        )
    )


def _schemalog() -> tuple[object, object]:
    from ..core import database
    from ..schemalog import compile_to_ta, parse_schemalog

    program = parse_schemalog(
        """
        sales[T: part -> P]        :- east[T: part -> P].
        sales[T: sold -> S]        :- east[T: sold -> S].
        sales[T: region -> 'east'] :- east[T: part -> P].
        sales[T: part -> P]        :- west[T: part -> P].
        sales[T: sold -> S]        :- west[T: sold -> S].
        sales[T: region -> 'west'] :- west[T: part -> P].
        """
    )
    db = database(_federation_facts().facts_table())
    return compile_to_ta(program), db


def _schemasql() -> tuple[object, object]:
    from ..core import database
    from ..schemasql import compile_to_ta, parse_schemasql

    # The relation-name wildcard ``-> R`` ranges over the federation's
    # source relations — restructuring data *and* metadata in one query.
    query = parse_schemasql(
        "SELECT T.part AS part, R AS region, T.sold AS sold "
        "INTO sales FROM -> R, R T"
    )
    db = database(_federation_facts().facts_table())
    return compile_to_ta(query), db


def _good() -> tuple[object, object]:
    from ..good import (
        EdgeAddition,
        GoodEdge,
        GoodNode,
        GoodProgram,
        ObjectGraph,
        Pattern,
        PatternEdge,
        PatternNode,
        compile_to_ta,
        encode_graph,
    )

    graph = ObjectGraph(
        [
            GoodNode.make("p1", "Person", "ann"),
            GoodNode.make("p2", "Person", "bob"),
            GoodNode.make("p3", "Person", "cal"),
        ],
        [
            GoodEdge.make("p1", "parent", "p2"),
            GoodEdge.make("p2", "parent", "p3"),
        ],
    )
    grandparent = Pattern(
        [
            PatternNode.make("X", "Person"),
            PatternNode.make("Y", "Person"),
            PatternNode.make("Z", "Person"),
        ],
        [PatternEdge.make("X", "parent", "Y"), PatternEdge.make("Y", "parent", "Z")],
    )
    program = GoodProgram((EdgeAddition(grandparent, "X", "gp", "Z"),))
    db = encode_graph(graph)
    return compile_to_ta(program), db


def _fo_while() -> tuple[object, object]:
    from ..relational import (
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
    )

    # Transitive closure of a 5-node chain: the while loop iterates until
    # the Delta relation drains, showing the fixpoint in the trace.
    step = Project(
        Join(RenameAttr(Rel("TC"), "Dst", "Mid"), RenameAttr(Rel("E"), "Src", "Mid")),
        ["Src", "Dst"],
    )
    fw = FWProgram(
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
    edges = Relation("E", ["Src", "Dst"], [(i, i + 1) for i in range(1, 5)])
    db = RelationalDatabase([edges])
    ta_program = compile_program(fw, {"E": ("Src", "Dst")})
    return ta_program, relational_to_tabular(db)


def _olap_bridges() -> object:
    from ..data import figure4_top
    from ..ndim import cube_to_ndtable, ndtable_to_cube
    from ..olap import cube_to_database, cube_to_grouped_table, relation_table_to_cube

    cube = relation_table_to_cube(figure4_top(), ["Part", "Region"], "Sold")
    grouped = cube_to_grouped_table(cube, "Part", "Region")
    per_region = cube_to_database(cube, "Region")
    round_trip = ndtable_to_cube(cube_to_ndtable(cube), cube.dims)
    return (grouped, per_region, round_trip)


def _example(name: str, description: str, build) -> Example:
    return Example(name, description, _run_build(build), build)


#: All bundled examples, keyed by CLI name.
EXAMPLES: dict[str, Example] = {
    example.name: example
    for example in (
        _example("fig4-group", "Figure 4: GROUP by Region on Sold, as a TA program", _fig4),
        _example("fig5-merge", "Figure 5: MERGE on Sold by Region, as a TA program", _fig5),
        _example("pivot", "the 3-statement compact pivot (GROUP + CLEANUP + PURGE)", _pivot),
        _example("schemalog", "Theorem 4.5: a SchemaLog_d federation program, TA-compiled", _schemalog),
        _example("schemasql", "Section 4.2: a SchemaSQL federation query, TA-compiled", _schemasql),
        _example("good", "Section 4.4: a GOOD edge-addition program on an encoded graph", _good),
        _example("fo-while", "Theorem 4.1: transitive closure in FO+while, TA-compiled", _fo_while),
        Example("olap", "Section 4.3: cube ↔ table bridges (pivot, split, n-dim)", _olap_bridges),
    )
}


def run_example(name: str) -> object:
    """Run one bundled example, by full name, under whatever observation
    is active (:func:`repro.runtime.workloads.lookup_example` resolves
    prefixes); an unknown name raises :class:`KeyError`."""
    return EXAMPLES[name].runner()


def trace_example(name: str) -> tuple[Observation, object]:
    """Run one bundled example inside a fresh observation scope."""
    with observation() as obs:
        result = run_example(name)
    return obs, result


def profile_example(name: str, memory: bool = True) -> tuple[Profile, object]:
    """Run one bundled example inside a fresh profiling scope."""
    with profile(memory=memory) as prof:
        result = run_example(name)
    return prof, result
