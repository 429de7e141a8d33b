"""Synthetic long-running workloads for the hardened runtime.

The bundled examples in :mod:`repro.obs.examples` are sized to finish in
milliseconds — perfect for traces, useless for demonstrating deadlines
and checkpoint/resume.  This module builds *parameterized* workloads
whose runtime scales with one knob, without bloating the example
registry (and the lineage audit that walks it).

The flagship is the paper's own fixpoint: transitive closure of an
``n``-node chain in FO+while, compiled to the tabular algebra by the
Theorem 4.1 compiler.  An ``n`` around 12 runs for ~0.5 s — long enough
that a 50 ms deadline reliably kills it mid-fixpoint, short enough that
CI converges quickly even when every resume attempt re-applies the same
50 ms deadline.

Beside it, ``restructure:N`` pivots a relation into the paper's
``SalesInfo2`` shape and back, the workload whose cost grows with the
square of its rows.

Every spec a user or a ledger names — ``tc:12``, ``chain:4``,
``restructure:80``, a bundled example or a unique prefix of one —
becomes a runnable program through :func:`resolve_workload`, the single
resolver behind ``python -m repro
run``/``supervise``/``analyze``/``optimize``/``engine-report``, ledger
replay, crash recovery and the stats audit.

Like :mod:`repro.runtime.chaos`, this module imports the engine, so it
must only be imported lazily — never from ``repro.runtime``'s
``__init__``.
"""

from __future__ import annotations

import difflib

from ..core.errors import MalformedSpecError, NotAProgramError, UnknownSpecError

__all__ = [
    "DEFAULT_TC_NODES",
    "DEFAULT_CHAIN_ROWS",
    "DEFAULT_RESTRUCTURE_PARTS",
    "transitive_closure_workload",
    "chain_join_workload",
    "restructure_workload",
    "parse_workload",
    "lookup_example",
    "resolve_workload",
]

#: Chain length used when ``tc`` is requested without a size.
DEFAULT_TC_NODES = 12

#: Per-table rows used when ``chain`` is requested without a size.
DEFAULT_CHAIN_ROWS = 8

#: Parts used when ``restructure`` is requested without a size (240 rows).
DEFAULT_RESTRUCTURE_PARTS = 80

#: Figure 1's pivot from ``SalesInfo1`` to ``SalesInfo2`` (Sections 3.2
#: and 3.4, Figures 4 and 5) and the unpivot back to a relation.
RESTRUCTURE_PROGRAM = """
    Grouped <- GROUP by {Region} on {Sold} (Sales)
    Cleaned <- CLEANUP by {Part} on {null} (Grouped)
    Pivot   <- PURGE on {Sold} by {Region} (Cleaned)
    Flat    <- MERGECOMPACT on {Sold} by {Region} (Pivot)
"""


def transitive_closure_workload(nodes: int = DEFAULT_TC_NODES):
    """``(program, db)`` computing the transitive closure of a chain.

    The FO+while source is the same Delta-driven fixpoint as the
    ``fo-while`` bundled example; ``nodes`` is the chain length, so the
    loop runs ``nodes - 2`` iterations and the closure holds
    ``nodes * (nodes - 1) / 2`` edges.
    """
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

    if nodes < 2:
        raise MalformedSpecError(
            f"transitive-closure workload needs >= 2 nodes, got {nodes}"
        )
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
    program = compile_program(fw, {"E": ("Src", "Dst")})
    edges = Relation("E", ["Src", "Dst"], [(i, i + 1) for i in range(1, nodes)])
    db = relational_to_tabular(RelationalDatabase([edges]))
    return program, db


def chain_join_workload(rows: int = DEFAULT_CHAIN_ROWS):
    """``(program, db)``: a 4-way PRODUCT chain with late selections.

    Four tables ``A``–``D`` of ``rows`` rows, one distinct-valued data
    column each (``A0``–``D0``, values ``0..rows-1``).  The program folds
    them left-to-right and only then applies the two selections::

        T ← A × B × C × D;  T ← σ_{A0≈D0}(T);  T ← σ_{B0≈C0}(T)

    Evaluated syntactically the intermediate reaches ``rows⁴`` rows; an
    order that pairs ``A`` with ``D`` and ``B`` with ``C`` early keeps
    every intermediate at ``rows²`` — the workload the cost-based
    optimizer exists to win, and the benchmark/golden-plan fixture for
    the estimate-driven join order (final result: ``rows²`` rows).
    """
    from ..algebra.programs.statements import Program, assign
    from ..core import TabularDatabase, make_table

    if rows < 1:
        raise MalformedSpecError(f"chain workload needs >= 1 row, got {rows}")
    tables = []
    for name in ("A", "B", "C", "D"):
        attr = f"{name}0"
        tables.append(
            make_table(name, [attr], [[f"v{i}"] for i in range(rows)])
        )
    db = TabularDatabase(tables)
    program = Program(
        [
            assign("T", "PRODUCT", "A", "B"),
            assign("T", "PRODUCT", "T", "C"),
            assign("T", "PRODUCT", "T", "D"),
            assign("T", "SELECT", "T", left="A0", right="D0"),
            assign("T", "SELECT", "T", left="B0", right="C0"),
        ]
    )
    return program, db


def restructure_workload(parts: int = DEFAULT_RESTRUCTURE_PARTS):
    """``(program, db)``: pivot a relation to ``SalesInfo2`` and back.

    ``Sales(Part, Region, Sold)`` holds ``parts`` parts in 4 regions,
    each part missing from one region, so ``3 * parts`` rows.  The
    program is GROUP → CLEANUP → PURGE → MERGECOMPACT
    (:data:`RESTRUCTURE_PROGRAM`); ``parts=80`` is the shape of the
    end-to-end ``restructure`` workload.  GROUP's grid has ``(3 * parts
    + 2)²`` cells, so the time grows about 4x when ``parts`` doubles.
    """
    from ..algebra.programs import parse_program
    from ..core import TabularDatabase, make_table

    if parts < 1:
        raise MalformedSpecError(f"restructure workload needs >= 1 part, got {parts}")
    facts = [
        (f"part{p}", f"region{r}", 10 + (37 * p + 11 * r) % 990)
        for p in range(parts)
        for r in range(4)
        if r != p % 4
    ]
    sales = make_table("Sales", ["Part", "Region", "Sold"], facts)
    return parse_program(RESTRUCTURE_PROGRAM), TabularDatabase([sales])


#: Synthetic workload kinds: spec name -> (build function, default size).  No
#: kind may share a bundled example's name (``pivot`` is one), which it
#: would shadow.
_KINDS = {
    "tc": (transitive_closure_workload, DEFAULT_TC_NODES),
    "chain": (chain_join_workload, DEFAULT_CHAIN_ROWS),
    "restructure": (restructure_workload, DEFAULT_RESTRUCTURE_PARTS),
}


def parse_workload(spec: str):
    """Resolve a synthetic workload spec to ``(label, program, db)``, or None.

    Recognized specs: ``tc`` / ``tc:N`` (transitive closure of an N-node
    chain), ``chain`` / ``chain:N`` (a 4-way product chain with late
    selections over N-row tables) and ``restructure`` /
    ``restructure:N`` (the pivot and unpivot of a 3N-row relation).
    Anything else returns None.  A recognized-but-malformed size raises
    :class:`~repro.core.errors.MalformedSpecError`.  Callers outside
    this module want :func:`resolve_workload`, which also knows the
    bundled examples.
    """
    name, _, size = spec.partition(":")
    if name not in _KINDS:
        return None
    build, n = _KINDS[name]
    if size:
        try:
            n = int(size)
        except ValueError:
            raise MalformedSpecError(
                f"malformed workload size in {spec!r}; expected {name}:N"
            ) from None
    program, db = build(n)
    return f"{name}:{n}", program, db


def lookup_example(spec: str):
    """The bundled :class:`~repro.obs.examples.Example` ``spec`` names.

    Accepts full names and unique prefixes (``fig5`` is ``fig5-merge``).
    Raises :class:`~repro.core.errors.UnknownSpecError` whose message is
    the diagnosis: every match of an ambiguous prefix, or the closest
    known names ("did you mean") for an unknown one.
    """
    from ..obs.examples import EXAMPLES

    if spec in EXAMPLES:
        return EXAMPLES[spec]
    matches = [name for name in sorted(EXAMPLES) if name.startswith(spec)]
    if len(matches) == 1:
        return EXAMPLES[matches[0]]
    if matches:
        raise UnknownSpecError(
            f"ambiguous example name {spec!r}: matches " + ", ".join(matches)
        )
    close = difflib.get_close_matches(spec, sorted(EXAMPLES), n=3, cutoff=0.4)
    hint = ("; did you mean: " + ", ".join(close)) if close else ""
    raise UnknownSpecError(f"unknown example {spec!r}{hint}")


def resolve_workload(spec: str):
    """``(label, program, db)`` for any spec the CLI, replay and recovery accept.

    ``tc[:N]``, ``chain[:N]`` and ``restructure[:N]`` build the
    synthetic workloads; anything else names a bundled example by full
    name or unique prefix, labelled by its full name.  Failures raise a typed
    :class:`~repro.core.errors.WorkloadSpecError`:
    :class:`~repro.core.errors.MalformedSpecError` for a bad size,
    :class:`~repro.core.errors.UnknownSpecError` for a name that matches
    no example or several, and :class:`~repro.core.errors.NotAProgramError`
    for an example whose pipeline is not a TA program.
    """
    workload = parse_workload(spec)
    if workload is not None:
        return workload
    example = lookup_example(spec)
    if example.build is None:
        raise NotAProgramError(
            f"example {example.name!r} is not a TA program over a tabular database"
        )
    program, db = example.build()
    return example.name, program, db
