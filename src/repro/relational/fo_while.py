"""FO + while + new — the relational language of Van den Bussche et al. [3].

The paper leans on this language twice: Theorem 4.1 simulates it within
the tabular algebra, and Theorem 4.4's completeness proof expresses the
canonical-level transformation in it.  A program is a sequence of

* ``Assign(name, expr)`` — evaluate a relational algebra expression and
  (re)bind a relation name to the result;
* ``AssignNew(name, expr, id_attr)`` — the *new* construct: evaluate and
  extend every tuple with a globally fresh value under ``id_attr``
  (object/tuple-id creation);
* ``WhileNotEmpty(name, body)`` — the *while* construct: repeat ``body``
  while the named relation is non-empty.

The interpreter mirrors the tabular one (fresh-value source, iteration
budget) so results can be compared 1:1 after compilation to TA.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core import (
    EvaluationError,
    FreshValueSource,
    SchemaError,
)
from ..obs import events as _ev
from ..runtime.governor import GOV as _GOV, IterationBudget
from .algebra import Expr
from .relation import Relation, RelationalDatabase

__all__ = [
    "FWStatement",
    "Assign",
    "AssignNew",
    "AssignSetNew",
    "WhileNotEmpty",
    "FWProgram",
]


class FWStatement:
    """Abstract base of FO + while + new statements."""

    def execute(
        self, db: RelationalDatabase, fresh: FreshValueSource, budget: "_Budget"
    ) -> RelationalDatabase:
        raise NotImplementedError


class _Budget(IterationBudget):
    """Shared while-iteration budget for one program run.

    A thin veneer over :class:`repro.runtime.governor.IterationBudget`:
    exhaustion raises :class:`~repro.core.errors.NonTerminationError`
    with structured fields, and every tick is forwarded to the installed
    resource governor — one ``governed()`` scope bounds TA and FO+while
    programs alike.
    """

    def __init__(self, limit: int):
        super().__init__(limit, label="FO+while+new")


class Assign(FWStatement):
    """``R := expr``."""

    def __init__(self, name: str, expr: Expr):
        self.name = name
        self.expr = expr

    def execute(self, db, fresh, budget):
        result = self.expr.evaluate(db)
        return db.set(result.with_name(self.name))

    def __repr__(self) -> str:
        return f"{self.name} := {self.expr!r}"


class AssignNew(FWStatement):
    """``R := new(expr)`` — extend each tuple with a fresh value."""

    def __init__(self, name: str, expr: Expr, id_attr: str = "Id"):
        self.name = name
        self.expr = expr
        self.id_attr = id_attr

    def execute(self, db, fresh, budget):
        result = self.expr.evaluate(db)
        if self.id_attr in result.schema:
            raise SchemaError(
                f"new: attribute {self.id_attr!r} already present in {result.schema}"
            )
        extended = Relation(
            self.name,
            result.schema + (self.id_attr,),
            (row + (fresh.fresh(),) for row in result),
        )
        return db.set(extended)

    def __repr__(self) -> str:
        return f"{self.name} := new[{self.id_attr}]({self.expr!r})"


class AssignSetNew(FWStatement):
    """``R := setnew(expr, set_attr)`` — the power-set construct.

    For every non-empty *subset* S of ``expr``'s tuples, the result lists
    S's tuples extended with S's own fresh value under ``set_attr`` — the
    relational mirror of the tabular SETNEW (Section 3.5), and the piece
    of machinery set-creating transformations (e.g. GOOD's abstraction)
    need.  Exponential by design; ``limit`` bounds the base cardinality.
    """

    def __init__(self, name: str, expr: Expr, set_attr: str = "Set", limit: int = 16):
        self.name = name
        self.expr = expr
        self.set_attr = set_attr
        self.limit = limit

    def execute(self, db, fresh, budget):
        from ..core import LimitExceededError

        result = self.expr.evaluate(db)
        if self.set_attr in result.schema:
            raise SchemaError(
                f"setnew: attribute {self.set_attr!r} already present in {result.schema}"
            )
        rows = list(result)
        if len(rows) > self.limit:
            raise LimitExceededError(
                f"setnew over {len(rows)} tuples would enumerate 2^{len(rows)} - 1 "
                f"subsets; limit is {self.limit}",
                kind="rows",
                op="setnew",
                used=len(rows),
                limit=self.limit,
            )
        out = []
        for mask in range(1, 1 << len(rows)):
            tag = fresh.fresh()
            for position, row in enumerate(rows):
                if mask & (1 << position):
                    out.append(row + (tag,))
        extended = Relation(self.name, result.schema + (self.set_attr,), out)
        return db.set(extended)

    def __repr__(self) -> str:
        return f"{self.name} := setnew[{self.set_attr}]({self.expr!r})"


class WhileNotEmpty(FWStatement):
    """``while R ≠ ∅ do body``."""

    def __init__(self, name: str, body: "FWProgram | Sequence[FWStatement]"):
        self.name = name
        self.body = body if isinstance(body, FWProgram) else FWProgram(body)

    def execute(self, db, fresh, budget):
        evented = _ev.EVT.active
        region = _ev.Boundary("fw-while", text=f"while {self.name}") if evented else _ev.NO_BOUNDARY
        with region as boundary:
            iterations = 0
            condition_rows: list[int] = []
            while self.name in db and len(db.relation(self.name)) > 0:
                budget.tick(self.name)
                iterations += 1
                if evented:
                    condition_rows.append(len(db.relation(self.name)))
                with _ev.Boundary("iteration", n=iterations) if evented else _ev.NO_BOUNDARY:
                    db = self.body._execute(db, fresh, budget)
            if evented:
                boundary.set(iterations=iterations, condition_rows=condition_rows)
            return db

    def __repr__(self) -> str:
        return f"while {self.name} do {self.body!r} end"


class FWProgram:
    """A sequence of FO + while + new statements."""

    def __init__(self, statements: Iterable[FWStatement] = ()):
        self.statements = tuple(statements)
        for statement in self.statements:
            if not isinstance(statement, FWStatement):
                raise EvaluationError(f"not an FO+while+new statement: {statement!r}")

    def _execute(self, db, fresh, budget) -> RelationalDatabase:
        gov = _GOV
        if gov.active and gov.governor is not None:
            # FO+while expressions evaluate outside the op registry, so
            # the per-statement check is this language's only chokepoint
            # for deadlines and cancellation between while ticks.
            gov.governor.check()
        evented = _ev.EVT.active
        for statement in self.statements:
            # A while loop publishes its own boundary.
            bounded = evented and not isinstance(statement, WhileNotEmpty)
            region = (
                _ev.Boundary("fw-statement", text=repr(statement))
                if bounded
                else _ev.NO_BOUNDARY
            )
            with region as boundary:
                db = statement.execute(db, fresh, budget)
                if bounded and isinstance(statement, (Assign, AssignNew, AssignSetNew)):
                    boundary.set(rows_out=len(db.relation(statement.name)))
        return db

    def run(
        self,
        db: RelationalDatabase,
        fresh: FreshValueSource | None = None,
        max_while_iterations: int = 10_000,
    ) -> RelationalDatabase:
        """Execute against ``db`` and return the final database."""
        source = fresh if fresh is not None else FreshValueSource()
        source.advance_past(db.symbols())
        with (
            _ev.Boundary("fw-program", statements=len(self.statements))
            if _ev.EVT.active
            else _ev.NO_BOUNDARY
        ):
            return self._execute(db, source, _Budget(max_while_iterations))

    def __len__(self) -> int:
        return len(self.statements)

    def __add__(self, other: "FWProgram") -> "FWProgram":
        if not isinstance(other, FWProgram):
            return NotImplemented
        return FWProgram(self.statements + other.statements)

    def __repr__(self) -> str:
        return "FWProgram([" + "; ".join(repr(s) for s in self.statements) + "])"
