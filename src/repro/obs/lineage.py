"""Cell-level provenance (lineage) through the tabular algebra.

The paper's central claim is that tabular algebra transformations are
*generic and constructive*: every value of an output table is built from
values present in the input.  This module witnesses that claim
executably.  A :class:`Lineage` scope assigns a stable id
(:class:`CellRef`) to every cell of the input tables and threads
*why-provenance sets* through execution, so that afterwards any output
cell can answer "which input cells produced you?" — and a *witness
replay* can re-run the program on just those cells and check that the
queried value is regenerated.

How provenance flows
--------------------

Tables are grids of immutable :class:`~repro.core.symbols.Symbol`
objects, and every algebra operation builds its output by *copying
symbol objects by reference* out of its inputs.  Tagging therefore works
by substituting, for each input cell, a copy of its symbol that carries
a ``prov`` frozenset of :class:`CellRef` ids.  The copies compare and
hash exactly like the originals (provenance never participates in
equality), so execution is bit-for-bit unchanged — but wherever a cell
is copied, moved, pivoted, transposed, or padded into an output table,
its provenance rides along for free, through every operation family,
the program interpreter (including while-loop fixpoints), the compiled
frontends, and the OLAP bridges.

The places where symbols are *created* rather than copied union their
parents' provenance explicitly (guarded by ``OBS.lineage``, off by
default and allocation-free when disabled):

* ``RENAME`` — the new attribute inherits the renamed cell's lineage;
* ``PRODUCT`` — the combined row attribute accumulates the lineage of
  *both* argument rows, so join ancestry survives later projections
  (column 0 can never be projected away);
* ``CLEAN-UP``/``PURGE`` — a merged row/column cell unions the lineage
  of the whole merged group;
* ``TUPLENEW``/``SETNEW`` — a fresh tag carries the lineage of the
  row(s) it identifies.

Typical use::

    from repro.obs import lineage

    with lineage() as lin:
        tagged = lin.tag_database(db)
        out = program.run(tagged)
    report = lin.witness(out.table("Sales"), row=2, col=3)
    print(lin.describe_witness(report))
    assert lin.replay_check(program.run, report).regenerated

The witness of an output cell is its own origin set plus the origins of
every cell in its row (rows are the algebra's unit of combination, so
this closure captures selection conditions, join partners, and MERGE
providers).  The replay restricts every input table to its witness rows
(attribute rows are always kept), re-executes, and succeeds iff some
output cell carries the queried origins again with the same value.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from ..core.database import TabularDatabase
from ..core.symbols import Name, Null, Symbol, TaggedValue, Value
from ..core.table import Table
from . import runtime as _runtime

__all__ = [
    "CellRef",
    "Lineage",
    "Witness",
    "ReplayCheck",
    "AuditResult",
    "lineage",
    "with_prov",
    "provenance",
    "derived_from",
    "count_prov_cells",
    "table_origins",
    "audit_run",
    "provenance_graph",
    "graph_to_dot",
]

#: The shared empty provenance set.
EMPTY_PROV: frozenset = frozenset()


class CellRef(NamedTuple):
    """A stable id for one input cell: (source-table ordinal, row, col).

    The ordinal indexes the :class:`Lineage` scope's tagged sources in
    tagging order (for one tagged database, its canonical table order);
    row/col are grid coordinates, so ``(t, 0, 0)`` is a table name,
    ``(t, 0, j)`` a column attribute, and ``(t, i, 0)`` a row attribute.
    """

    table: int
    row: int
    col: int


class _ProvName(Name):
    """A :class:`Name` copy carrying cell provenance."""

    __slots__ = ("prov",)


class _ProvValue(Value):
    """A :class:`Value` copy carrying cell provenance."""

    __slots__ = ("prov",)


class _ProvTagged(TaggedValue):
    """A :class:`TaggedValue` copy carrying cell provenance."""

    __slots__ = ("prov",)


class _ProvNull(Null):
    """A ⊥ instance carrying cell provenance.

    Unlike the :data:`~repro.core.symbols.NULL` singleton, provenance
    nulls are per-cell instances — they still compare and hash equal to
    every other null.
    """

    __slots__ = ("prov",)

    def __new__(cls) -> "_ProvNull":
        return object.__new__(cls)


def with_prov(symbol: Symbol, prov: frozenset) -> Symbol:
    """A copy of ``symbol`` carrying ``prov`` (equal to the original)."""
    if isinstance(symbol, TaggedValue):
        copy: Symbol = _ProvTagged(symbol.payload)
    elif isinstance(symbol, Name):
        copy = _ProvName(symbol.text)
    elif isinstance(symbol, Value):
        copy = _ProvValue(symbol.payload)
    elif isinstance(symbol, Null):
        copy = _ProvNull()
    else:  # pragma: no cover - no other symbol sorts exist
        return symbol
    object.__setattr__(copy, "prov", prov)
    return copy


def provenance(symbol: Symbol) -> frozenset:
    """The why-provenance set of ``symbol`` (empty for untagged symbols)."""
    prov = symbol.prov
    return prov if prov is not None else EMPTY_PROV


def derived_from(symbol: Symbol, parents: Iterable[Symbol]) -> Symbol:
    """``symbol`` carrying the union of its own and its parents' lineage.

    Returns ``symbol`` unchanged when the union adds nothing, so the
    call is allocation-free for untagged data.  This is the union point
    the operation families call at their symbol-*creating* sites.
    """
    merged: set | None = None
    for parent in parents:
        prov = parent.prov
        if prov:
            if merged is None:
                merged = set(prov)
            else:
                merged |= prov
    if not merged:
        return symbol
    own = provenance(symbol)
    if merged <= own:
        return symbol
    return with_prov(symbol, own | frozenset(merged))


def count_prov_cells(tables: Iterable[Table]) -> int:
    """How many grid cells across ``tables`` carry non-empty lineage."""
    total = 0
    for table in tables:
        for row in table.grid:
            for symbol in row:
                if symbol.prov:
                    total += 1
    return total


def table_origins(tables: Iterable[Table]) -> frozenset:
    """The union of every cell's provenance across ``tables``."""
    out: set = set()
    for table in tables:
        for row in table.grid:
            for symbol in row:
                prov = symbol.prov
                if prov:
                    out |= prov
    return frozenset(out)


@dataclass(frozen=True)
class Witness:
    """The answer to one cell-level why-provenance query.

    ``origins`` is the queried cell's own where-provenance (the input
    cells its value was copied/derived from); ``rows`` is the why-
    provenance closure at row grain — per source-table ordinal, the
    input data rows that the queried cell's whole output row was built
    from.  The replay checker re-executes on exactly these rows.
    """

    table: str
    row: int
    col: int
    symbol: Symbol
    origins: tuple[CellRef, ...]
    rows: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def cells(self) -> int:
        """Total input cells named by the row-closure witness."""
        return sum(len(rows) for _ordinal, rows in self.rows)


@dataclass(frozen=True)
class ReplayCheck:
    """The outcome of one witness replay."""

    witness: Witness
    regenerated: bool
    matches: int
    replayed_tables: int


@dataclass(frozen=True)
class AuditResult:
    """The outcome of the constructivity audit over one program run."""

    name: str
    queried: int
    regenerated: int
    constants: int
    replays: int
    failures: tuple[tuple[str, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


class Lineage:
    """One provenance scope: tagged sources, queries, and replay.

    Install with :func:`lineage`; tag inputs with :meth:`tag_database`
    (or :meth:`tag_table`); run any program/pipeline on the tagged
    tables; then query output cells with :meth:`witness` and audit with
    :meth:`replay_check`.
    """

    def __init__(self):
        self._labels: list[str] = []
        self._sources: list[Table] = []

    # -- tagging --------------------------------------------------------

    def tag_table(self, table: Table, label: str | None = None) -> Table:
        """A copy of ``table`` whose every cell carries its own CellRef."""
        ordinal = len(self._sources)
        tagged = Table(
            tuple(
                with_prov(symbol, frozenset((CellRef(ordinal, i, j),)))
                for j, symbol in enumerate(row)
            )
            for i, row in enumerate(table.grid)
        )
        self._labels.append(label if label is not None else str(table.name))
        self._sources.append(tagged)
        return tagged

    def tag_database(self, db: TabularDatabase) -> TabularDatabase:
        """A database with every table tagged (canonical table order).

        Tables sharing a name are labelled ``Name#0``, ``Name#1``, … in
        canonical order so cell ids stay unambiguous.
        """
        names = [str(t.name) for t in db.tables]
        seen: dict[str, int] = {}
        tagged = []
        for table, name in zip(db.tables, names):
            if names.count(name) > 1:
                label = f"{name}#{seen.get(name, 0)}"
                seen[name] = seen.get(name, 0) + 1
            else:
                label = name
            tagged.append(self.tag_table(table, label))
        return TabularDatabase(tagged)

    # -- inspection -----------------------------------------------------

    @property
    def sources(self) -> tuple[Table, ...]:
        """The tagged source tables, by ordinal."""
        return tuple(self._sources)

    def label(self, ordinal: int) -> str:
        """The display label of source ``ordinal`` (e.g. ``Sales#1``)."""
        return self._labels[ordinal]

    def origin_symbol(self, ref: CellRef) -> Symbol:
        """The input symbol a :class:`CellRef` points at."""
        return self._sources[ref.table].entry(ref.row, ref.col)

    def describe_ref(self, ref: CellRef) -> str:
        """A human-readable rendering, e.g. ``Sales[2,3]='nuts'``."""
        return (
            f"{self.label(ref.table)}[{ref.row},{ref.col}]"
            f"={self.origin_symbol(ref)!s}"
        )

    # -- queries --------------------------------------------------------

    def why(self, table: Table, row: int, col: int) -> frozenset:
        """The where-provenance of one output cell (a CellRef frozenset)."""
        return provenance(table.entry(row, col))

    def witness(self, table: Table, row: int, col: int, label: str | None = None) -> Witness:
        """The why-provenance witness of output cell ``table[row, col]``.

        Origins are the cell's own lineage; the row closure unions the
        lineage of every cell in the output row (plus the cell's column
        attribute), capturing the join partners, selection conditions,
        and MERGE providers the cell's presence depends on.  An
        attribute-row cell (``row == 0``) closes over its *column*
        instead: a pivoted column attribute exists because of the data
        rows that spawned the column, so those rows are its witness.
        """
        origins = provenance(table.entry(row, col))
        closure: set = set(origins)
        if row == 0:
            for i in range(table.nrows):
                prov = table.entry(i, col).prov
                if prov:
                    closure |= prov
        else:
            for symbol in table.row(row):
                prov = symbol.prov
                if prov:
                    closure |= prov
            header_prov = table.entry(0, col).prov
            if header_prov:
                closure |= header_prov
        rows_by_source: dict[int, set[int]] = {}
        for ref in closure:
            if ref.row > 0:
                rows_by_source.setdefault(ref.table, set()).add(ref.row)
        return Witness(
            table=label if label is not None else str(table.name),
            row=row,
            col=col,
            symbol=table.entry(row, col),
            origins=tuple(sorted(origins)),
            rows=tuple(
                (ordinal, tuple(sorted(rows)))
                for ordinal, rows in sorted(rows_by_source.items())
            ),
        )

    def describe_witness(self, witness: Witness) -> str:
        """A multi-line human-readable witness report."""
        lines = [
            f"cell {witness.table}[{witness.row},{witness.col}] = {witness.symbol!s}"
        ]
        if witness.origins:
            lines.append("copied from:")
            for ref in witness.origins:
                lines.append(f"  {self.describe_ref(ref)}")
        else:
            lines.append("copied from: (no input cell — constant, padding, or fresh value)")
        if witness.rows:
            lines.append(f"witness rows ({witness.cells} input rows):")
            for ordinal, rows in witness.rows:
                rendered = ", ".join(str(i) for i in rows)
                lines.append(f"  {self.label(ordinal)}: rows {rendered}")
        else:
            lines.append("witness rows: (none — the cell depends on no input data row)")
        return "\n".join(lines)

    # -- witness replay -------------------------------------------------

    def restrict(self, witness: Witness) -> TabularDatabase:
        """The input database cut down to the witness rows.

        Every tagged source keeps its attribute row (row 0) and exactly
        the witness data rows; sources contributing nothing become
        header-only (empty) tables.  Cell ids are preserved, so a replay
        on the restriction produces comparable provenance.
        """
        rows_by_source = dict(witness.rows)
        restricted = []
        for ordinal, source in enumerate(self._sources):
            keep = set(rows_by_source.get(ordinal, ()))
            drop = [i for i in source.data_row_indices() if i not in keep]
            restricted.append(source.drop_rows(drop) if drop else source)
        return TabularDatabase(restricted)

    def replay_check(
        self,
        run: Callable[[TabularDatabase], TabularDatabase],
        witness: Witness,
        replayed: TabularDatabase | None = None,
    ) -> ReplayCheck:
        """Re-execute on the witness rows and check the cell regenerates.

        ``run`` maps an input database to an output database (usually
        ``program.run``).  The check succeeds iff some replayed output
        cell carries at least the queried cell's origins and matches its
        value (fresh tagged values match by lineage alone, since replay
        may renumber tags).  Cells with no origins are constants —
        vacuously constructive — and succeed with zero matches.
        Pass ``replayed`` to reuse a previously computed replay output
        for the same witness rows.
        """
        if not witness.origins:
            return ReplayCheck(witness=witness, regenerated=True, matches=0, replayed_tables=0)
        if replayed is not None:
            out = replayed
        else:
            # Replay under this scope so the algebra's provenance-union
            # hooks stay live even when called after the original
            # ``lineage()`` block has exited.
            previous = _runtime.OBS.lineage
            _runtime.OBS.lineage = self
            try:
                out = run(self.restrict(witness))
            finally:
                _runtime.OBS.lineage = previous
        origins = frozenset(witness.origins)
        target = witness.symbol
        target_tagged = isinstance(target, TaggedValue)
        matches = 0
        for table in out:
            for row in table.grid:
                for symbol in row:
                    prov = symbol.prov
                    if prov and origins <= prov:
                        if (target_tagged and isinstance(symbol, TaggedValue)) or (
                            not target_tagged and symbol == target
                        ):
                            matches += 1
        return ReplayCheck(
            witness=witness,
            regenerated=matches > 0,
            matches=matches,
            replayed_tables=len(out),
        )


@contextmanager
def lineage() -> Iterator[Lineage]:
    """Activate a provenance scope (off by default; scopes nest).

    Only tables tagged through the yielded :class:`Lineage` carry cell
    ids; the scope's only global effect is enabling the provenance
    unions at the algebra's symbol-creating sites and the provenance
    annotations on EXPLAIN spans (when an observation is also active).
    """
    lin = Lineage()
    previous = _runtime.OBS.lineage
    _runtime.OBS.lineage = lin
    try:
        yield lin
    finally:
        _runtime.OBS.lineage = previous


def _output_labels(db: TabularDatabase) -> list[str]:
    names = [str(t.name) for t in db.tables]
    seen: dict[str, int] = {}
    labels = []
    for name in names:
        if names.count(name) > 1:
            labels.append(f"{name}#{seen.get(name, 0)}")
            seen[name] = seen.get(name, 0) + 1
        else:
            labels.append(name)
    return labels


def audit_run(
    run: Callable[[TabularDatabase], TabularDatabase],
    db: TabularDatabase,
    name: str = "program",
) -> AuditResult:
    """The constructivity audit: witness-replay every output cell.

    Tags ``db``, executes ``run``, and for *every* grid cell of every
    output table answers the why-provenance query and replays the
    program on the witness rows, checking the cell regenerates.  Replays
    are cached per distinct witness row set, so the audit costs one
    execution per distinct witness rather than one per cell.
    """
    with lineage() as lin:
        tagged = lin.tag_database(db)
        out = run(tagged)
        labels = _output_labels(out)
        queried = regenerated = constants = 0
        failures: list[tuple[str, int, int]] = []
        replay_cache: dict[tuple, TabularDatabase] = {}
        for table, label in zip(out.tables, labels):
            for i in range(table.nrows):
                for j in range(table.ncols):
                    queried += 1
                    witness = lin.witness(table, i, j, label=label)
                    if not witness.origins:
                        constants += 1
                        regenerated += 1
                        continue
                    key = witness.rows
                    if key not in replay_cache:
                        replay_cache[key] = run(lin.restrict(witness))
                    check = lin.replay_check(run, witness, replayed=replay_cache[key])
                    if check.regenerated:
                        regenerated += 1
                    else:
                        failures.append((label, i, j))
        return AuditResult(
            name=name,
            queried=queried,
            regenerated=regenerated,
            constants=constants,
            replays=len(replay_cache),
            failures=tuple(failures),
        )


# ----------------------------------------------------------------------
# Provenance graph (DOT / JSON export data)
# ----------------------------------------------------------------------


def provenance_graph(
    lin: Lineage,
    out_db: TabularDatabase,
    name: str = "provenance",
) -> dict:
    """A bipartite lineage graph: input cells → the output cells they feed.

    Nodes are input cells (those actually cited by some output cell) and
    output cells carrying lineage; one edge per (origin, output cell)
    pair.  The dict is JSON-serializable; render with
    :func:`graph_to_dot` or :func:`repro.obs.export.write_provenance_json`.
    """
    labels = _output_labels(out_db)
    inputs: dict[CellRef, dict] = {}
    outputs: list[dict] = []
    edges: list[dict] = []
    for table, label in zip(out_db.tables, labels):
        for i in range(table.nrows):
            for j in range(table.ncols):
                prov = table.entry(i, j).prov
                if not prov:
                    continue
                out_id = f"out:{label}[{i},{j}]"
                outputs.append(
                    {
                        "id": out_id,
                        "table": label,
                        "row": i,
                        "col": j,
                        "value": str(table.entry(i, j)),
                    }
                )
                for ref in sorted(prov):
                    if ref not in inputs:
                        inputs[ref] = {
                            "id": f"in:{lin.label(ref.table)}[{ref.row},{ref.col}]",
                            "table": lin.label(ref.table),
                            "row": ref.row,
                            "col": ref.col,
                            "value": str(lin.origin_symbol(ref)),
                        }
                    edges.append({"from": inputs[ref]["id"], "to": out_id})
    return {
        "name": name,
        "inputs": [inputs[ref] for ref in sorted(inputs)],
        "outputs": outputs,
        "edges": edges,
    }


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(graph: dict, subgraph: bool = False) -> str:
    """Render one provenance graph as Graphviz DOT.

    ``subgraph=True`` emits a ``subgraph cluster_…`` block so several
    example graphs can be concatenated into one ``digraph`` (the CLI's
    ``--audit --dot`` export does exactly that).
    """
    name = graph.get("name", "provenance")
    lines: list[str] = []
    indent = "    " if subgraph else "  "
    if subgraph:
        safe = "".join(ch if ch.isalnum() else "_" for ch in name)
        lines.append(f"  subgraph cluster_{safe} {{")
        lines.append(f"    label={_dot_quote(name)};")
    else:
        lines.append(f"digraph {_dot_quote(name)} {{")
        lines.append("  rankdir=LR;")
        lines.append("  node [shape=box, fontsize=10];")
    prefix = f"{name}/" if subgraph else ""
    for node in graph["inputs"]:
        label = f"{node['table']}[{node['row']},{node['col']}]\\n{node['value']}"
        lines.append(
            f"{indent}{_dot_quote(prefix + node['id'])} "
            f"[label={_dot_quote(label)}, style=filled, fillcolor=lightyellow];"
        )
    for node in graph["outputs"]:
        label = f"{node['table']}[{node['row']},{node['col']}]\\n{node['value']}"
        lines.append(f"{indent}{_dot_quote(prefix + node['id'])} [label={_dot_quote(label)}];")
    for edge in graph["edges"]:
        lines.append(
            f"{indent}{_dot_quote(prefix + edge['from'])} -> {_dot_quote(prefix + edge['to'])};"
        )
    lines.append("  }" if subgraph else "}")
    return "\n".join(lines)
