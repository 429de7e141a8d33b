"""Checkpoint/resume for tabular algebra programs.

A checkpoint captures the complete interpreter environment at a
statement boundary — the database, the fresh-value source's next tag,
the index of the next top-level statement, and the while-iteration count.
Because TA execution is deterministic given those four pieces (the
paper's transformation condition (iv): determinacy up to the choice of
new values, which the fresh source fixes), a deadline-killed or
cancelled run restarted from its last checkpoint produces the
*identical* final database, bit for bit, tagged values included.

Granularity: checkpoints are written after every completed **top-level**
statement, and — inside a **top-level** while loop — after every
completed statement of the loop body (the paper's programs put the
fixpoint loop at the top level, so this is where the long-running work
lives, and a compiled fixpoint body is a long straight-line block of
small TA assignments).  Statements nested any deeper commit atomically
with their enclosing body statement.  This keeps the inter-checkpoint
stride small enough that even a tight deadline re-applied on every
resume still makes forward progress.

Layout (format 3): a statement ``T ← op(…)`` replaces only the tables
named ``T`` (Section 3), so consecutive boundaries share all but a few
table objects, and a checkpoint at ``path`` is a chain of files in which
each boundary writes only the tables it has not written before.  The
chain keeps one symbol dictionary: a symbol object gets an index the
first time a boundary writes a table holding it, and every table is
written as rows of indices.

* ``path`` is the chain's *base*: a chain id, the program fingerprint,
  the run state, the database's order of table keys, the whole symbol
  dictionary and every table under its per-run key.  It goes to a
  sibling temp file, is fsync'd and is renamed over ``path``.
* Each later boundary writes one *delta*, ``path.000001``,
  ``path.000002``, …: the chain id, the run state, the order of table
  keys, the dictionary entries first seen at this boundary and only the
  tables whose objects were not in the previous boundary's database.
  It is fsync'd once, where it lies.

:func:`load_checkpoint` folds the base's consecutive deltas in order and
stops at the first that is missing, torn (no final newline, or not
JSON) or from another chain, so a run killed mid-delta resumes from the
boundary before it.  It decodes each dictionary entry once and builds
the tables from the decoded list, so cells that held one symbol object
hold one again.  A run's first boundary writes a base, and so does any
boundary whose delta would make the deltas since the base outweigh it.
Once renamed in place, a base deletes every delta beside it; a kill
between the rename and the deletes leaves some, and the chain id keeps
them out of the fold.  One fsync per boundary; directory entries are
not fsync'd, since losing one to a power cut re-exposes an earlier
boundary, which is still a valid resume point.

:func:`run_hardened` is the driver: it steps a
:class:`~repro.algebra.programs.statements.Program` statement by
statement under an optional :func:`~repro.runtime.governor.governed`
scope, writes checkpoints through a :class:`CheckpointLog`, applies
snapshot-and-commit semantics to the fresh-value source (a failed
statement's minted tags are rolled back), and on ``resume=True``
restores state from the checkpoint chain instead of starting over.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from ..core.database import TabularDatabase
from ..core.errors import CheckpointError, SchemaError, outcome_status
from ..core.symbols import NULL, FreshValueSource, Name, Symbol, TaggedValue, Value
from ..core.table import Table
from ..obs import events as _ev
from .faults import FaultPlan
from .governor import Limits, ResourceGovernor, governed

__all__ = [
    "CHECKPOINT_FORMAT",
    "Checkpoint",
    "CheckpointLog",
    "delta_path",
    "symbol_to_data",
    "symbol_from_data",
    "table_to_data",
    "database_to_data",
    "program_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
    "run_hardened",
]

#: Version stamp written into every base.  Format 1 wrote the whole
#: database into one file at every boundary, and format 2 wrote each
#: new table's cells as symbol encodings; neither loads any more.
CHECKPOINT_FORMAT = 3

_COMPACT = (",", ":")


# ----------------------------------------------------------------------
# Symbol / table / database serialization
# ----------------------------------------------------------------------

def symbol_to_data(symbol: Symbol) -> list:
    """A JSON-stable encoding of one symbol: ``[sort, payload?]``."""
    if symbol.is_null:
        return ["0"]
    if isinstance(symbol, Name):
        return ["n", symbol.text]
    if isinstance(symbol, TaggedValue):
        return ["t", symbol.payload]
    if isinstance(symbol, Value):
        payload = symbol.payload
        if not isinstance(payload, (str, int, float, bool)):
            raise CheckpointError(
                f"cannot checkpoint a Value with non-JSON payload {payload!r}"
            )
        return ["v", payload]
    raise CheckpointError(f"cannot checkpoint symbol {symbol!r}")


def symbol_from_data(data: list) -> Symbol:
    """Invert :func:`symbol_to_data`."""
    try:
        sort = data[0]
        if sort == "0":
            return NULL
        if sort == "n":
            return Name(data[1])
        if sort == "t":
            return TaggedValue(data[1])
        if sort == "v":
            return Value(data[1])
    except (IndexError, TypeError, ValueError) as err:
        raise CheckpointError(f"malformed symbol encoding {data!r}") from err
    raise CheckpointError(f"unknown symbol sort in {data!r}")


def table_to_data(table: Table) -> list:
    """One table as its encoded grid (row-major)."""
    return [[symbol_to_data(entry) for entry in row] for row in table.grid]


def database_to_data(db: TabularDatabase) -> list:
    return [table_to_data(table) for table in db.tables]


def program_fingerprint(program) -> str:
    """A stable digest of the program text, pinned into every checkpoint.

    Resuming under a *different* program would silently produce garbage;
    the fingerprint turns that into a typed :class:`CheckpointError`.
    """
    return hashlib.sha256(repr(program).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Checkpoint chains
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Checkpoint:
    """One restorable execution state at a statement boundary.

    ``statement_index`` is the top-level statement to (re-)enter;
    ``body_index`` is non-zero only inside a top-level while loop, where
    it names the next statement of the loop body (0 = at the loop
    boundary, about to re-test the condition).
    """

    statement_index: int
    iterations: int
    next_tag: int
    db: TabularDatabase
    fingerprint: str
    body_index: int = 0
    done: bool = False


def delta_path(path: str | Path, seq: int) -> Path:
    """The file of the ``seq``-th delta after the base at ``path``."""
    return Path(f"{os.fspath(path)}.{seq:06d}")


class CheckpointLog:
    """One run's checkpoint chain, as far as its boundaries wrote it.

    The chain keeps one symbol dictionary, keyed by the symbol object,
    then by its encoding, never by ``==`` (``Value(1)``, ``Value(True)``
    and ``Value(1.0)`` are equal but encode apart).  ``ids`` maps a
    symbol object's id to its index and ``held`` holds every such
    object, so no id is reused while the log lives.  ``entries`` holds
    each index's compact JSON encoding, and ``texts`` maps the encoding
    of a symbol equal to itself to its index, so equal objects that
    encode alike share one entry; a symbol unequal to itself (a NaN
    payload) always gets its own.  Indices are never renumbered.
    ``flushed`` counts the entries the current chain's files hold: a
    delta writes the ones after them, a base writes them all, and a
    failed write leaves them for the next file.

    ``live`` maps each table of the last boundary's database, by object
    identity, to ``(table, key, text)``: its per-run key and its rows of
    indices in compact JSON.  Holding the table keeps its id from being
    reused, and holding the text lets a new base reuse it, so a table
    object is encoded once while it stays in the database.  ``last`` is
    the size of the last file written and whether it was a base;
    ``writes`` and ``bytes_written`` count every file the log wrote.
    """

    __slots__ = ("chain", "seq", "base_bytes", "delta_bytes", "live", "keys",
                 "ids", "held", "entries", "texts", "flushed",
                 "last", "writes", "bytes_written")

    def __init__(self):
        self.chain: str | None = None
        self.seq = 0
        self.base_bytes = 0
        self.delta_bytes = 0
        self.live: dict[int, tuple[Table, str, str]] = {}
        self.keys = 0
        self.ids: dict[int, int] = {}
        self.held: list[Symbol] = []
        self.entries: list[str] = []
        self.texts: dict[str, int] = {}
        self.flushed = 0
        self.last = (0, False)
        self.writes = 0
        self.bytes_written = 0

    def _index(self, symbol: Symbol) -> int:
        """The dictionary index of ``symbol``, added when it is new."""
        index = self.ids.get(id(symbol))
        if index is None:
            text = json.dumps(symbol_to_data(symbol), separators=_COMPACT)
            itself = symbol == symbol
            index = self.texts.get(text) if itself else None
            if index is None:
                index = len(self.entries)
                self.entries.append(text)
                if itself:
                    self.texts[text] = index
            self.ids[id(symbol)] = index
            self.held.append(symbol)
        return index

    def encode(self, table: Table) -> str:
        """``table``'s grid as rows of dictionary indices, in compact JSON."""
        index = self.ids.__getitem__
        rows = []
        for row in table.grid:
            try:
                rows.append(list(map(index, map(id, row))))
            except KeyError:
                rows.append([self._index(symbol) for symbol in row])
        return json.dumps(rows, separators=_COMPACT)

    def write(self, path: str, checkpoint: Checkpoint) -> str:
        """Write ``checkpoint`` as the chain's next file; return its path.

        The boundary's new tables and dictionary entries are encoded
        first; the file is a base when there is no chain yet or when
        this delta would make the deltas since the base outweigh it.
        """
        live: dict[int, tuple[Table, str, str]] = {}
        new = []
        for table in checkpoint.db.tables:
            entry = self.live.get(id(table))
            if entry is None:
                entry = (table, str(self.keys), self.encode(table))
                self.keys += 1
                new.append(entry)
            live[id(table)] = entry
        head = {
            "chain": self.chain,
            "statement_index": checkpoint.statement_index,
            "body_index": checkpoint.body_index,
            "iterations": checkpoint.iterations,
            "next_tag": checkpoint.next_tag,
            "done": checkpoint.done,
            "order": [key for _table, key, _text in live.values()],
        }
        base = self.chain is None
        if not base:
            payload = _payload(head, self.entries[self.flushed:], new)
            base = self.delta_bytes + len(payload) > self.base_bytes
        if base:
            head = {"format": CHECKPOINT_FORMAT,
                    "fingerprint": checkpoint.fingerprint,
                    **head, "chain": os.urandom(8).hex()}
            payload = _payload(head, self.entries, live.values())
        target = path if base else f"{path}.{self.seq + 1:06d}"
        written = f"{path}.tmp" if base else target
        try:
            _write_synced(written, payload.encode())
            if base:
                os.replace(written, path)
                _delete_deltas(path)
        except OSError as err:
            raise CheckpointError(f"cannot write checkpoint {target}: {err}") from err
        if base:
            self.chain, self.seq = head["chain"], 0
            self.base_bytes, self.delta_bytes = len(payload), 0
        else:
            self.seq += 1
            self.delta_bytes += len(payload)
        self.flushed = len(self.entries)
        self.live = live
        self.last = (len(payload), base)
        self.writes += 1
        self.bytes_written += len(payload)
        return target


def _payload(head: dict, entries: list[str], tables) -> str:
    """One checkpoint file's text: ``head``, then ``entries`` and ``tables``."""
    return (
        json.dumps(head, separators=_COMPACT)[:-1]
        + ',"symbols":[' + ",".join(entries)
        + '],"tables":{'
        + ",".join(f'"{key}":{text}' for _table, key, text in tables)
        + "}}\n"
    )


def _write_synced(file: str, data: bytes) -> None:
    """Write all of ``data`` to ``file``, truncating it, and fsync it."""
    fd = os.open(file, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)


def _delete_deltas(path: str) -> None:
    """Delete every ``path.NNNNNN`` beside ``path``, past any gap too."""
    directory, name = os.path.split(path)
    prefix = f"{name}."
    for entry in os.listdir(directory or "."):
        if entry.startswith(prefix) and entry[len(prefix):].isdigit():
            os.unlink(os.path.join(directory, entry))


def save_checkpoint(
    path: str | Path, checkpoint: Checkpoint, log: CheckpointLog | None = None
) -> Path:
    """Write one boundary of ``log``'s chain at ``path``; return the file.

    The file is the base ``path`` itself or the delta written after it.
    Without a ``log`` the checkpoint is the base of a chain of its own.
    A base is crash-atomic (temp file, fsync, rename): a ``kill -9`` at
    any instant leaves the previous complete base or the new one.  A
    delta is written in place and fsync'd; a torn one ends the fold.
    """
    log = CheckpointLog() if log is None else log
    return Path(log.write(os.fspath(path), checkpoint))


def _parse(raw: bytes) -> dict | None:
    """The object one checkpoint file holds; None when the file is torn."""
    if not raw.endswith(b"\n"):
        return None
    try:
        data = json.loads(raw)
    except ValueError:  # not JSON, or not even text
        return None
    return data if isinstance(data, dict) else None


def _fold(symbols: list[Symbol], tables: dict, record: dict, path: Path) -> dict:
    """The live tables after ``record``: key -> rows of indices, in its
    order.  ``symbols`` gains ``record``'s dictionary entries, decoded."""
    try:
        entries = record["symbols"]
        if not isinstance(entries, list):
            raise TypeError(f"symbols is {type(entries).__name__}, not a list")
        merged = {**tables, **record["tables"]}
        tables = {key: merged[key] for key in record["order"]}
    except (KeyError, TypeError) as err:
        raise CheckpointError(f"checkpoint {path} is malformed: {err!r}") from err
    symbols.extend(map(symbol_from_data, entries))
    return tables


def _table(rows: list, symbols: list[Symbol], path: Path) -> Table:
    """The table whose grid is ``rows`` of indices into ``symbols``."""
    try:
        cells = list(chain.from_iterable(rows))
        if set(map(type, cells)) - {int} or (
            cells and (min(cells) < 0 or max(cells) >= len(symbols))
        ):
            raise TypeError(
                f"a table cell is not an index into its {len(symbols)} symbols"
            )
        return Table([map(symbols.__getitem__, row) for row in rows])
    except (TypeError, SchemaError) as err:
        raise CheckpointError(f"checkpoint {path} is malformed: {err}") from err


def load_checkpoint(path: str | Path, program=None) -> Checkpoint:
    """Fold one checkpoint chain; verify format and (optionally) the program.

    ``program``, when given, must fingerprint-match the checkpoint —
    resuming a checkpoint under a different program raises.  Each
    dictionary entry is decoded once, and every table is built from the
    decoded symbols through :class:`~repro.core.table.Table`'s checks.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    state = _parse(raw)
    if state is None:
        raise CheckpointError(f"checkpoint {path} is torn or not valid JSON")
    if state.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path} has format {state.get('format')!r}; "
            f"expected {CHECKPOINT_FORMAT}"
        )
    fingerprint = str(state.get("fingerprint", ""))
    if program is not None and fingerprint != program_fingerprint(program):
        raise CheckpointError(
            f"checkpoint {path} was taken from a different program "
            f"(fingerprint {fingerprint} != {program_fingerprint(program)})"
        )
    chain_id = state.get("chain")
    if not isinstance(chain_id, str):
        raise CheckpointError(f"checkpoint {path} is malformed: no chain id")
    symbols: list[Symbol] = []
    tables = _fold(symbols, {}, state, path)
    seq = 1
    while True:
        delta = delta_path(path, seq)
        try:
            record = _parse(delta.read_bytes())
        except FileNotFoundError:
            break
        except OSError as err:
            raise CheckpointError(f"cannot read checkpoint {delta}: {err}") from err
        if record is None or record.get("chain") != chain_id:
            break
        tables = _fold(symbols, tables, record, delta)
        state = record
        seq += 1
    db = TabularDatabase(_table(rows, symbols, path) for rows in tables.values())
    try:
        return Checkpoint(
            statement_index=int(state["statement_index"]),
            iterations=int(state["iterations"]),
            next_tag=int(state["next_tag"]),
            db=db,
            fingerprint=fingerprint,
            body_index=int(state["body_index"]),
            done=bool(state["done"]),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"checkpoint {path} is malformed: {err!r}") from err


# ----------------------------------------------------------------------
# The hardened driver
# ----------------------------------------------------------------------

def run_hardened(
    program,
    db: TabularDatabase,
    *,
    fresh: FreshValueSource | None = None,
    limits: Limits | None = None,
    faults: FaultPlan | None = None,
    governor: ResourceGovernor | None = None,
    checkpoint_path: str | Path | None = None,
    resume: bool = False,
    max_while_iterations: int = 10_000,
    engine: str | None = None,
    log: CheckpointLog | None = None,
) -> TabularDatabase:
    """Run a TA program under the governor with checkpoint/resume.

    Equivalent to ``program.run(db)`` — same semantics, same result —
    but stepped at top-level statement (and top-level while-iteration)
    boundaries so that:

    * a :class:`~repro.runtime.governor.ResourceGovernor` over ``limits``
      (and/or a :class:`~repro.runtime.faults.FaultPlan`) is installed
      around the whole run;
    * after every completed boundary the environment is written to the
      checkpoint chain at ``checkpoint_path`` (when given), each
      boundary writing only the tables the chain does not hold yet;
    * ``resume=True`` restores the environment from ``checkpoint_path``
      and continues from the recorded boundary — a killed run re-driven
      this way yields the identical final database;
    * a statement that raises rolls the fresh-value source back to its
      pre-statement tag (snapshot-and-commit), so the checkpointed
      environment is never partially mutated;
    * ``engine="vector"`` plans the program (product/select fusion) and
      records every op dispatch as a naive fallback; the checkpoint
      fingerprint covers the *planned* program, so a resume must use the
      same engine the original run did.

    ``log``, a fresh :class:`CheckpointLog`, is the one the run writes its
    chain through; it changes nothing, and afterwards counts the files
    this run wrote.
    """
    from ..algebra.programs.statements import Interpreter, Program

    if not isinstance(program, Program):
        raise CheckpointError(f"run_hardened drives TA Programs, got {program!r}")

    if engine in (None, "naive"):
        scope = nullcontext()
    elif engine == "vector":
        from ..engine import plan_program
        from ..engine.runtime import engine_scope

        program = plan_program(program)
        scope = engine_scope()
    else:
        raise CheckpointError(f"unknown engine {engine!r}; expected naive or vector")

    interp = Interpreter(fresh=fresh, max_while_iterations=max_while_iterations)
    fingerprint = program_fingerprint(program)
    start_index = 0
    start_body = 0
    start_iteration = 0

    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume=True requires a checkpoint_path")
        checkpoint = load_checkpoint(checkpoint_path, program)
        db = checkpoint.db
        start_index = checkpoint.statement_index
        start_body = checkpoint.body_index
        start_iteration = checkpoint.iterations
        interp.fresh.reset_to(checkpoint.next_tag)
        if _ev.EVT.active:
            _ev.emit(
                "checkpoint_restore",
                path=str(checkpoint_path),
                statement_index=start_index,
                body_index=start_body,
                iteration=start_iteration,
                done=checkpoint.done,
            )
        if checkpoint.done:
            return db

    interp.fresh.advance_past(db.symbols())
    if log is None:
        log = CheckpointLog()

    def write(database: TabularDatabase, index: int, body_index: int = 0,
              iteration: int = 0, done: bool = False) -> None:
        if checkpoint_path is not None:
            save_checkpoint(
                checkpoint_path,
                Checkpoint(
                    statement_index=index,
                    iterations=iteration,
                    next_tag=interp.fresh.next_tag,
                    db=database,
                    fingerprint=fingerprint,
                    body_index=body_index,
                    done=done,
                ),
                log,
            )
            if _ev.EVT.active:
                size, base = log.last
                _ev.emit(
                    "checkpoint_write",
                    path=str(checkpoint_path),
                    statement_index=index,
                    body_index=body_index,
                    iteration=iteration,
                    done=done,
                    bytes=size,
                    base=base,
                )

    with scope, governed(limits, faults=faults, governor=governor) as gov:
        if _ev.EVT.active:
            _ev.emit(
                "run_start",
                statements=len(program.statements),
                resume=resume,
                engine=engine or "naive",
                start_index=start_index,
            )
        # Boundary zero: resume works even if killed before any progress.
        write(db, start_index, body_index=start_body, iteration=start_iteration)
        try:
            db = _drive(
                program, db, interp, gov, write,
                start_index, start_body, start_iteration,
            )
        except BaseException as err:
            # Outcome stamping: the bus sees *every* run end, not just
            # the clean ones, so a ledger recorder can attribute the
            # outcome without being handed the exception out of band.
            if _ev.EVT.active:
                _ev.emit(
                    "run_finish",
                    governor=gov.snapshot(),
                    outcome=outcome_status(err),
                    error_type=type(err).__name__,
                )
            raise
        write(db, len(program.statements), done=True)
        if _ev.EVT.active:
            _ev.emit("run_finish", governor=gov.snapshot(), outcome="ok")
    return db


def _drive(program, db, interp, gov, write,
           start_index, start_body, start_iteration):
    """The statement-stepping loop of :func:`run_hardened`.

    Statements commit through ``Interpreter.commit`` and loop iterations
    tick through ``While.tick``, as under ``program.run`` in a governed
    scope; on top of that the loop records the statement index on the
    governor and writes a checkpoint after every step.
    """
    from ..algebra.programs.statements import While

    for index in range(start_index, len(program.statements)):
        statement = program.statements[index]
        previous_statement, gov.statement = gov.statement, index
        try:
            if isinstance(statement, While):
                # Step the fixpoint one body statement at a time so
                # every completed body statement is a restart point.
                if index == start_index:
                    # A mid-body resume re-enters iteration
                    # `start_iteration` at statement `start_body`
                    # without re-testing the condition.
                    iteration, body_pos = start_iteration, start_body
                else:
                    iteration, body_pos = 0, 0
                totals = While.totals(db) if _ev.EVT.active else (0, 0)
                while True:
                    if body_pos == 0:
                        if not statement._holds(db, interp):
                            break
                        iteration += 1
                        totals = statement.tick(db, interp, iteration, totals)
                    body = statement.iteration_body(db).statements
                    for position in range(body_pos, len(body)):
                        db = interp.commit(body[position], db)
                        write(
                            db,
                            index,
                            body_index=(position + 1) % len(body),
                            iteration=iteration,
                        )
                    body_pos = 0
            else:
                db = interp.commit(statement, db)
                write(db, index + 1)
        finally:
            gov.statement = previous_statement
    return db
