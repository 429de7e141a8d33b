"""Tabular algebra programs: assignment statements, while loops, interpreter.

A program is a sequence of assignment statements of the form
``T ← (operation)(parameter list)(argument list)`` and while programs
``while R ≠ ∅ do P`` (paper, Sections 3 and 3.6).  Execution semantics:

* each assignment is executed for **all combinations of tables** whose
  names match the argument parameters (a name parameter matches every
  table carrying that name — there may be several); wildcards bind to the
  names in the combination and are shared across the whole statement,
  including the target;
* the results of all combinations are named after the target and
  **replace** the tables previously carrying that name (DESIGN.md
  decision 13) — the database is otherwise only augmented;
* aggregate operations (COLLAPSE) consume all tables of a matching name at
  once rather than one combination at a time;
* ``while R ≠ ∅ do P`` repeats P as long as some table named R contains a
  non-empty set of data rows; the interpreter enforces an iteration budget
  since the language is Turing-complete.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ...core import (
    EvaluationError,
    FreshValueSource,
    NonTerminationError,
    Symbol,
    TabularDatabase,
    Table,
)
from ...obs import estimator as _est
from ...obs import events as _ev
from ...obs import runtime as _obs
from ...runtime import governor as _gv
from .params import Binding, Lit, Parameter, Star, as_parameter, literal_symbol
from .registry import OPERATIONS, PARAM_ENTRY, PARAM_SET, PARAM_SINGLE, OpSpec

__all__ = ["Statement", "Assignment", "While", "Program", "Interpreter", "assign"]


class Statement:
    """Abstract base of program statements.

    :meth:`reads`/:meth:`writes` are the statement's footprint — the table
    names it reads and (re)binds, or None when wildcards make them
    data-dependent: the one read/write analysis every rewrite consults.
    """

    def execute(self, db: TabularDatabase, interp: "Interpreter") -> TabularDatabase:
        raise NotImplementedError

    def _step(
        self, op: str, db: TabularDatabase, interp: "Interpreter"
    ) -> TabularDatabase:
        """The statement entry: governor check, then the ``statement`` boundary.

        The governor is checked first, so a deadline or cancellation
        trips even when no combination matches and no op is dispatched.
        With the event feed on, :meth:`_apply` runs inside a
        ``statement`` boundary whose finish records its combination
        count, its table flow and its own attributes.
        """
        gov = _gv.GOV
        if gov.active and gov.governor is not None:
            gov.governor.check(op=op)
        if not _ev.EVT.active:
            return self._apply(db, interp, False)[0]
        with _ev.Boundary("statement", text=repr(self)) as boundary:
            new_db, combinations, attributes = self._apply(db, interp, True)
            boundary.set(
                combinations=combinations,
                tables_in=len(db),
                tables_out=len(new_db),
                **attributes,
            )
            return new_db

    def _apply(
        self, db: TabularDatabase, interp: "Interpreter", observing: bool
    ) -> tuple[TabularDatabase, int, dict]:
        """The work behind :meth:`_step`.

        Returns the new database, the number of argument combinations
        run, and the statement's own boundary attributes (read only when
        ``observing``, that is with the feed on).
        """
        raise NotImplementedError

    def reads(self) -> frozenset[Symbol] | None:
        return None

    def writes(self) -> frozenset[Symbol] | None:
        return None


def _union(footprints: Iterable[frozenset[Symbol] | None]) -> frozenset[Symbol] | None:
    names: set[Symbol] = set()
    for footprint in footprints:
        if footprint is None:
            return None
        names |= footprint
    return frozenset(names)


class Assignment(Statement):
    """``target ← OP (params) (args)``.

    ``target`` and each member of ``args`` are name parameters (literal
    names or wildcards); ``params`` maps the operation's keywords to
    parameters (coerced via :func:`repro.algebra.programs.params.as_parameter`).
    """

    def __init__(
        self,
        target: object,
        op: str,
        args: Sequence[object],
        params: Mapping[str, object] | None = None,
    ):
        op_key = op.upper().replace("-", "").replace("_", "")
        if op_key not in OPERATIONS:
            raise EvaluationError(f"unknown operation {op!r}")
        self.spec: OpSpec = OPERATIONS[op_key]
        self.target = as_parameter(target)
        self.args = tuple(as_parameter(a) for a in args)
        self.params = {k: as_parameter(v) for k, v in (params or {}).items()}
        unknown = set(self.params) - set(self.spec.params)
        if unknown:
            raise EvaluationError(
                f"{self.spec.name} does not take parameter(s) {sorted(unknown)}"
            )
        missing = set(self.spec.params) - set(self.params)
        if missing:
            raise EvaluationError(
                f"{self.spec.name} is missing parameter(s) {sorted(missing)}"
            )
        if not self.spec.aggregate and len(self.args) != self.spec.arity:
            raise EvaluationError(
                f"{self.spec.name} takes {self.spec.arity} argument table(s), got {len(self.args)}"
            )
        if self.spec.aggregate and len(self.args) != 1:
            raise EvaluationError(f"{self.spec.name} takes exactly one argument name")

    def reads(self) -> frozenset[Symbol] | None:
        names = [literal_symbol(arg) for arg in self.args]
        if any(name is None for name in names):
            return None
        return frozenset(names)

    def writes(self) -> frozenset[Symbol] | None:
        target = literal_symbol(self.target)
        return None if target is None else frozenset([target])

    # -- matching ------------------------------------------------------

    def _candidate_names(
        self, param: Parameter, db: TabularDatabase, binding: Binding
    ) -> Iterator[tuple[Symbol, Binding]]:
        """Names a table-name parameter can denote, with extended bindings."""
        if isinstance(param, Star):
            if binding.bound(param.index):
                yield binding.get(param.index), binding
            else:
                for name in sorted(db.table_names(), key=lambda s: s.sort_key()):
                    yield name, binding.extended(param.index, name)
        elif isinstance(param, Lit):
            yield param.symbol, binding
        else:
            raise EvaluationError(
                f"argument parameters must be names or wildcards, got {param!r}"
            )

    def _combinations(
        self,
        db: TabularDatabase,
        binding: Binding,
        idx: int = 0,
        chosen: tuple[Table, ...] = (),
    ) -> Iterator[tuple[tuple[Table, ...], Binding]]:
        """All argument-table combinations with their wildcard bindings,
        extending the tables ``chosen`` for the arguments before ``idx``.

        Recursion goes through the method rather than a nested closure:
        a closure that calls itself is a reference cycle, which would
        keep ``db`` alive until the cyclic collector runs.
        """
        if idx == len(self.args):
            yield chosen, binding
            return
        for name, bnd in self._candidate_names(self.args[idx], db, binding):
            for table in db.tables_named(name):
                yield from self._combinations(db, bnd, idx + 1, chosen + (table,))

    def _aggregate_groups(
        self, db: TabularDatabase, binding: Binding
    ) -> Iterator[tuple[tuple[Table, ...], Binding]]:
        """For aggregate operations: all tables of each matching name."""
        for name, bnd in self._candidate_names(self.args[0], db, binding):
            tables = db.tables_named(name)
            if tables:
                yield tables, bnd

    # -- parameter evaluation ------------------------------------------

    def _evaluate_params(self, binding: Binding, table: Table) -> dict[str, object]:
        out: dict[str, object] = {}
        for keyword, kind in self.spec.params.items():
            param = self.params[keyword]
            if kind == PARAM_SET:
                out[keyword] = param.evaluate(binding, table)
            elif kind in (PARAM_SINGLE, PARAM_ENTRY):
                out[keyword] = param.evaluate_single(binding, table)
            else:  # pragma: no cover - registry invariant
                raise EvaluationError(f"unknown parameter kind {kind!r}")
        return out

    # -- execution ------------------------------------------------------

    def execute(self, db: TabularDatabase, interp: "Interpreter") -> TabularDatabase:
        return self._step(self.spec.name, db, interp)

    def _apply(
        self, db: TabularDatabase, interp: "Interpreter", observing: bool
    ) -> tuple[TabularDatabase, int, dict]:
        source = (
            self._aggregate_groups(db, interp.binding)
            if self.spec.aggregate
            else self._combinations(db, interp.binding)
        )
        results: dict[Symbol, list[Table]] = {}
        target_names: set[Symbol] = set()
        combinations = 0
        bindings_seen: list[str] = []
        for tables, binding in source:
            combinations += 1
            if observing and binding is not interp.binding:
                # Snapshot the wildcard environment driving this
                # combination (bounded, so wide fan-outs stay readable).
                if len(bindings_seen) < 8:
                    bindings_seen.append(repr(binding))
                elif len(bindings_seen) == 8:
                    bindings_seen.append("…")
            arguments = self._evaluate_params(binding, tables[0])
            produced = self.spec.invoke(tables, arguments, interp.fresh)
            target = self.target.evaluate_single(binding, tables[0])
            target_names.add(target)
            results.setdefault(target, []).extend(
                t.with_name(target) for t in produced
            )
        if not target_names and isinstance(self.target, Lit):
            # No combination matched: the target name becomes empty.
            target_names.add(self.target.symbol)
        new_db = db
        for name in target_names:
            new_db = new_db.replace_named(name, results.get(name, []))
        attributes: dict = {}
        if bindings_seen:
            attributes["bindings"] = bindings_seen
        if observing and _obs.counts_provenance():
            from ...obs.lineage import count_prov_cells

            attributes["prov_cells"] = count_prov_cells(
                t for tables in results.values() for t in tables
            )
        return new_db, combinations, attributes

    def __repr__(self) -> str:
        params = " ".join(f"{k} {v}" for k, v in self.params.items())
        args = ", ".join(str(a) for a in self.args)
        middle = f" {params}" if params else ""
        return f"{self.target} <- {self.spec.name}{middle} ({args})"


class While(Statement):
    """``while R ≠ ∅ do P`` — repeat P while some table named R has data rows.

    The condition parameter must denote a fixed name (a literal or a
    wildcard already bound by an enclosing statement).
    """

    def __init__(self, condition: object, body: "Program | Sequence[Statement]"):
        self.condition = as_parameter(condition)
        self.body = body if isinstance(body, Program) else Program(body)

    def reads(self) -> frozenset[Symbol] | None:
        # The condition name plus every read of the body.
        condition = literal_symbol(self.condition)
        first = None if condition is None else frozenset([condition])
        return _union([first, *(s.reads() for s in self.body.statements)])

    def writes(self) -> frozenset[Symbol] | None:
        return _union(s.writes() for s in self.body.statements)

    def _holds(self, db: TabularDatabase, interp: "Interpreter") -> bool:
        name = self.condition.evaluate_single(interp.binding, None)
        return any(t.height > 0 for t in db.tables_named(name))

    def _condition_rows(self, db: TabularDatabase, interp: "Interpreter") -> int:
        name = self.condition.evaluate_single(interp.binding, None)
        return sum(t.height for t in db.tables_named(name))

    @staticmethod
    def totals(db: TabularDatabase) -> tuple[int, int]:
        """The database's (rows, cells): what :meth:`tick` reports growth of."""
        return (
            sum(t.height for t in db.tables),
            sum(t.nrows * t.ncols for t in db.tables),
        )

    def tick(
        self,
        db: TabularDatabase,
        interp: "Interpreter",
        iteration: int,
        previous: tuple[int, int],
    ) -> tuple[int, int]:
        """Account loop iteration ``iteration`` before its body runs.

        The one per-iteration step shared by this interpreter and the
        checkpointing loop of :func:`~repro.runtime.checkpoint.run_hardened`,
        in a fixed order: the governor's tick (deadline, cancellation and its iteration cap,
        the same chokepoint the FO+while budget delegates to), the
        ``while_iteration`` event, then the interpreter's iteration
        budget.  ``previous`` is the :meth:`totals` at the previous tick
        or at loop entry; the return value is the pair for the next tick.
        """
        gov = _gv.GOV
        if gov.active and gov.governor is not None:
            gov.governor.while_tick(str(self.condition), iteration)
        if _ev.EVT.active:
            # Fixpoint frontier, live: condition rows plus the
            # database's row/cell growth since the previous tick.
            total_rows, total_cells = current = self.totals(db)
            _ev.emit(
                "while_iteration",
                condition=str(self.condition),
                iteration=iteration,
                frontier_rows=self._condition_rows(db, interp),
                total_rows=total_rows,
                total_cells=total_cells,
                delta_rows=total_rows - previous[0],
                delta_cells=total_cells - previous[1],
            )
            previous = current
        if iteration > interp.max_while_iterations:
            raise NonTerminationError(
                f"while loop on {self.condition} exceeded "
                f"{interp.max_while_iterations} iterations",
                kind="iterations",
                condition=str(self.condition),
                iteration=iteration,
                limit=interp.max_while_iterations,
            )
        return previous

    def execute(self, db: TabularDatabase, interp: "Interpreter") -> TabularDatabase:
        evented = _ev.EVT.active
        lineage_on = evented and _obs.counts_provenance()
        region = _ev.Boundary("while", text=str(self.condition)) if evented else _ev.NO_BOUNDARY
        with region as boundary:
            iterations = 0
            condition_rows: list[int] = []
            prov_frontier: list[int] = []
            predicted_iterations = None
            if _est.EST.active and _est.EST.estimator is not None:
                # Predict the fixpoint's iteration count from the
                # loop-entry frontier; scored under the pseudo-op WHILE.
                try:
                    predicted_iterations = _est.EST.estimator.predict_while(
                        str(self.condition), self._condition_rows(db, interp)
                    )
                except Exception:
                    predicted_iterations = None
            totals = self.totals(db) if evented else (0, 0)
            while self._holds(db, interp):
                iterations += 1
                totals = self.tick(db, interp, iterations, totals)
                if evented:
                    # Fixpoint visibility: the condition's row count per
                    # iteration shows how fast the loop converges.
                    condition_rows.append(self._condition_rows(db, interp))
                    if lineage_on:
                        # Provenance unions across iterations: the size of
                        # the cumulative origin set over the whole database
                        # grows monotonically toward the fixpoint.
                        from ...obs.lineage import table_origins

                        prov_frontier.append(len(table_origins(db)))
                body = self.iteration_body(db)
                with _ev.Boundary("iteration", n=iterations) if evented else _ev.NO_BOUNDARY:
                    db = body.execute(db, interp)
            if predicted_iterations is not None:
                estimator = _est.EST.estimator
                if estimator is not None:
                    try:
                        estimator.observe("WHILE", predicted_iterations, iterations)
                    except Exception:
                        pass
            if evented:
                if predicted_iterations is not None:
                    boundary.set(est_iterations=predicted_iterations[0])
                boundary.set(iterations=iterations, condition_rows=condition_rows)
                if lineage_on:
                    from ...obs.lineage import table_origins

                    prov_frontier.append(len(table_origins(db)))
                    boundary.set(prov_frontier=prov_frontier)
            return db

    def iteration_body(self, db: TabularDatabase) -> "Program":
        """The statements the next iteration runs over ``db``: the body.

        The one per-iteration choice shared with the checkpointing loop
        of :func:`~repro.runtime.checkpoint.run_hardened`; a semi-naive
        loop (:class:`~repro.engine.optimizer.SemiNaiveWhile`) picks
        between two bodies of one shape here.
        """
        return self.body

    def __repr__(self) -> str:
        body = "".join(f"\n  {line}" for line in repr(self.body).splitlines())
        return f"while {self.condition} do{body}\nend"


class Program:
    """A sequence of statements, executed consecutively."""

    def __init__(self, statements: Iterable[Statement] = ()):
        self.statements = tuple(statements)
        for statement in self.statements:
            if not isinstance(statement, Statement):
                raise EvaluationError(f"not a statement: {statement!r}")

    def execute(self, db: TabularDatabase, interp: "Interpreter") -> TabularDatabase:
        if _gv.GOV.active:
            # Under the governor every statement commits atomically.
            for statement in self.statements:
                db = interp.commit(statement, db)
            return db
        for statement in self.statements:
            db = statement.execute(db, interp)
        return db

    def run(
        self,
        db: TabularDatabase,
        fresh: FreshValueSource | None = None,
        max_while_iterations: int = 10_000,
        engine: str | None = None,
    ) -> TabularDatabase:
        """Convenience: run on ``db`` with a fresh interpreter.

        ``engine="vector"`` routes execution through the vectorized
        backend (:mod:`repro.engine`); ``None``/``"naive"`` is the plain
        interpreter.
        """
        if engine not in (None, "naive"):
            from ...engine import run_program

            return run_program(
                self,
                db,
                engine=engine,
                fresh=fresh,
                max_while_iterations=max_while_iterations,
            )
        return Interpreter(
            fresh=fresh, max_while_iterations=max_while_iterations
        ).run(self, db)

    def __add__(self, other: "Program") -> "Program":
        if not isinstance(other, Program):
            return NotImplemented
        return Program(self.statements + other.statements)

    def __len__(self) -> int:
        return len(self.statements)

    def __repr__(self) -> str:
        """The program text, one statement per line (parses back to itself)."""
        return "\n".join(repr(s) for s in self.statements)


class Interpreter:
    """Executes tabular algebra programs against a database.

    Carries the fresh-value source (advanced past every tagged value in
    the input so tagging yields globally new values), the wildcard binding
    environment, and the while-loop iteration budget.
    """

    def __init__(
        self,
        fresh: FreshValueSource | None = None,
        max_while_iterations: int = 10_000,
        binding: Binding | None = None,
    ):
        self.fresh = fresh if fresh is not None else FreshValueSource()
        self.max_while_iterations = max_while_iterations
        self.binding = binding if binding is not None else Binding()

    def commit(self, statement: Statement, db: TabularDatabase) -> TabularDatabase:
        """Execute one statement with snapshot-and-commit semantics.

        The database is immutable, so the only interpreter state a
        failing statement can leave behind is the fresh-value source it
        advanced while building partial results.  Rolling the source
        back to its pre-statement tag makes the statement atomic: the
        environment after a caught fault equals the environment before
        the failing statement, and a checkpointed resume re-mints the
        identical tags.
        """
        mark = self.fresh.next_tag
        try:
            return statement.execute(db, self)
        except BaseException:
            self.fresh.reset_to(mark)
            raise

    def run(self, program: Program, db: TabularDatabase) -> TabularDatabase:
        self.fresh.advance_past(db.symbols())
        region = _ev.NO_BOUNDARY
        if _ev.EVT.active:
            start: dict = {"statements": len(program)}
            bound = self.binding.snapshot()
            if bound:
                start["binding"] = {f"*{k}": str(v) for k, v in sorted(bound.items())}
            region = _ev.Boundary("program", **start)
        with region as boundary:
            out = program.execute(db, self)
            if boundary is not None:
                boundary.set(tables_in=len(db), tables_out=len(out))
            return out


def assign(target: object, op: str, *args: object, **params: object) -> Assignment:
    """Sugar for building assignment statements.

    >>> stmt = assign("T", "group", "Sales", by="Region", on="Sold")
    """
    return Assignment(target, op, args, params)
