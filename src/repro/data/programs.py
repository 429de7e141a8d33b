"""Seeded random program generation: the differential/audit corpus.

:func:`random_case` produces a seeded (program, database) pair drawing
from the full registered operation set — kernel-backed and fallback ops
alike — optionally with wildcard arguments/parameters and while loops.
Databases come from :func:`repro.data.generators.random_database`:
adversarial tables where ⊥, repeated attributes, and names-in-data all
occur.  A coarse size ledger keeps every generated program's
intermediate tables small, so no resource governor is needed and runs
are cheap enough to use as a corpus.

Two consumers share this generator (same seeds → same cases):

* the differential-testing harness (``tests/engine/diffgen.py``) runs
  each case on the naive and vectorized backends and compares outcomes;
* the ``repro stats-audit`` command replays the corpus under an
  estimation scope to measure per-op q-error of the cardinality
  estimator (:mod:`repro.obs.workload`).
"""

from __future__ import annotations

import random

from ..algebra.programs.params import Star
from ..algebra.programs.statements import Assignment, Program, Statement, While
from ..core import TabularDatabase
from .generators import random_database

__all__ = [
    "ATTRS",
    "VALUES",
    "NAMES",
    "MAX_WHILE_ITERATIONS",
    "random_case",
    "random_rewrite_case",
]

#: While-loop budget every corpus consumer shares (generated loops are
#: built to terminate well within it).
MAX_WHILE_ITERATIONS = 12

ATTRS = ("A", "B", "C", "D")
VALUES = tuple(f"v{i}" for i in range(20))
NAMES = ("R", "S", "T", "U", "V")

#: Operations that never grow a table (rows and columns bounded by the
#: input) — the only ones allowed inside while-loop bodies, so loop
#: iteration cannot blow up the database.
_SAFE_OPS = (
    "SELECT",
    "SELECTCONST",
    "PROJECT",
    "RENAME",
    "TRANSPOSE",
    "CLEANUP",
    "PURGE",
    "DEDUP",
    "DEDUPCOLUMNS",
    "DROPNULLROWS",
    "DIFFERENCE",
    "INTERSECTION",
)

#: Fallback-only operations (no kernel): drawing these mixes naive and
#: vectorized statements inside one vector-engine run.
_FALLBACK_OPS = (
    "GROUP",
    "MERGE",
    "SWITCH",
    "SPLIT",
    "NATURALJOIN",
    "GROUPCOMPACT",
    "MERGECOMPACT",
    "TUPLENEW",
)


class _Sizes:
    """Coarse per-name (tables, rows, cols) upper bounds during generation."""

    def __init__(self, db: TabularDatabase):
        self.by_name: dict[str, tuple[int, int, int]] = {}
        for table in db.tables:
            name = str(table.name)
            count, rows, cols = self.by_name.get(name, (0, 0, 0))
            self.by_name[name] = (
                count + 1,
                max(rows, table.height),
                max(cols, table.width),
            )

    def get(self, name: object) -> tuple[int, int, int]:
        if isinstance(name, Star):
            out = (1, 1, 1)
            for bound in self.by_name.values():
                out = tuple(max(a, b) for a, b in zip(out, bound))
            return out
        return self.by_name.get(str(name), (1, 1, 1))

    def put(self, name: object, bound: tuple[int, int, int]) -> None:
        count = min(bound[0], 6)
        rows = min(bound[1], 400)
        cols = min(bound[2], 20)
        if isinstance(name, Star):
            for key in self.by_name:
                self.by_name[key] = (count, rows, cols)
        else:
            self.by_name[str(name)] = (count, rows, cols)


def _attr(rng: random.Random) -> object:
    return None if rng.random() < 0.08 else rng.choice(ATTRS)


def _attr_set(rng: random.Random) -> list:
    size = rng.randrange(0, 3)
    return [_attr(rng) for _ in range(size)]


def _value(rng: random.Random) -> object:
    return None if rng.random() < 0.1 else rng.choice(VALUES)


def _gen_params(rng: random.Random, op: str, star: Star | None) -> dict:
    def attr() -> object:
        if star is not None and rng.random() < 0.2:
            return star
        return _attr(rng)

    if op == "SELECT":
        return {"left": attr(), "right": attr()}
    if op == "SELECTCONST":
        return {"attr": attr(), "value": _value(rng)}
    if op == "PROJECT":
        return {"attrs": _attr_set(rng)}
    if op == "RENAME":
        return {"old": attr(), "new": attr()}
    if op in ("CLEANUP", "GROUP", "GROUPCOMPACT"):
        return {"by": _attr_set(rng), "on": _attr_set(rng)}
    if op in ("PURGE", "MERGE", "MERGECOMPACT"):
        return {"on": _attr_set(rng), "by": _attr_set(rng)}
    if op in ("DROPNULLROWS", "TUPLENEW"):
        return {"attr": attr()}
    if op == "CONSTCOLUMN":
        return {"attr": attr(), "value": _value(rng)}
    if op == "SWITCH":
        return {"value": _value(rng)}
    if op == "SPLIT":
        return {"on": _attr_set(rng)}
    return {}


def _arity(op: str) -> int:
    return 2 if op in ("UNION", "DIFFERENCE", "INTERSECTION", "PRODUCT",
                       "CLASSICALUNION", "NATURALJOIN") else 1


def _gen_statement(
    rng: random.Random, sizes: _Sizes, *, allow_wildcards: bool, safe_only: bool
) -> list[Statement]:
    """One generation step: usually one statement, sometimes a fusable
    PRODUCT+SELECT pair (so product/select fusion is differentially
    covered end to end)."""
    star = Star(1) if allow_wildcards and rng.random() < 0.25 else None

    pool: tuple[str, ...] = _SAFE_OPS
    if not safe_only:
        pool = pool + ("UNION", "PRODUCT", "CLASSICALUNION", "CONSTCOLUMN")
        pool = pool + tuple(rng.sample(_FALLBACK_OPS, 3))
    op = rng.choice(pool)

    args: list[object] = []
    for _ in range(_arity(op)):
        if star is not None and rng.random() < 0.6:
            args.append(star)
        else:
            args.append(rng.choice(NAMES[:4]))
    if star is not None and not any(isinstance(a, Star) for a in args):
        args[0] = star

    counts = [sizes.get(a) for a in args]
    target: object = rng.choice(NAMES)
    if star is not None and rng.random() < 0.3:
        target = star

    # Size guards: regenerate growing ops as a safe op when too big.
    if op in ("PRODUCT", "NATURALJOIN"):
        (n1, r1, c1), (n2, r2, c2) = counts
        if n1 * n2 > 4 or r1 * r2 > 200 or c1 + c2 > 14:
            op = "DIFFERENCE"
    if op in ("UNION", "CLASSICALUNION"):
        (n1, r1, c1), (n2, r2, c2) = counts
        if n1 * n2 > 4 or r1 + r2 > 300 or c1 + c2 > 16:
            op = "INTERSECTION"
    if op in ("GROUP", "GROUPCOMPACT", "MERGE", "MERGECOMPACT", "SWITCH"):
        _n, rows, cols = counts[0]
        if rows + cols > 14 or rows * max(cols, 1) > 200:
            op = "DEDUP"
    if op == "SPLIT":
        _n, rows, cols = counts[0]
        if counts[0][0] * max(rows, 1) > 12:
            op = "DEDUP"
    if op in ("CONSTCOLUMN", "TUPLENEW") and counts[0][2] > 16:
        op = "PROJECT"
    args = args[: _arity(op)]
    counts = counts[: _arity(op)]

    statements = [Assignment(target, op, args, _gen_params(rng, op, star))]

    # Update the ledger with a coarse upper bound of the result shape.
    (n1, r1, c1) = counts[0]
    if _arity(op) == 2:
        (n2, r2, c2) = counts[1]
        bound = (n1 * n2, r1 * r2 if op in ("PRODUCT", "NATURALJOIN") else r1 + r2,
                 c1 + c2)
    elif op in ("GROUP", "GROUPCOMPACT"):
        bound = (n1, 2 * r1 + 2, c1 + r1 + 2)
    elif op in ("MERGE", "MERGECOMPACT"):
        bound = (n1, r1 * max(c1, 1), c1 + 1)
    elif op == "SPLIT":
        bound = (n1 * max(r1, 1), r1, c1)
    elif op == "TRANSPOSE":
        bound = (n1, c1 + 1, r1 + 1)
    elif op == "SWITCH":
        bound = (n1, r1 + c1, r1 + c1)
    elif op in ("CONSTCOLUMN", "TUPLENEW"):
        bound = (n1, r1, c1 + 1)
    else:
        bound = (n1, r1, c1)
    sizes.put(target, bound)

    # Sometimes chase a PRODUCT with a same-target SELECT: exactly the
    # adjacent pair fuse-product-select turns into PRODUCTSELECT.
    if op == "PRODUCT" and not isinstance(target, Star) and rng.random() < 0.7:
        statements.append(
            Assignment(
                target,
                "SELECT",
                [target],
                {"left": _attr(rng), "right": _attr(rng)},
            )
        )
    return statements


def _gen_while(rng: random.Random, sizes: _Sizes, allow_wildcards: bool) -> While:
    condition = rng.choice(NAMES[:4])
    body: list[Statement] = []
    for _ in range(rng.randrange(1, 3)):
        body.extend(
            _gen_statement(rng, sizes, allow_wildcards=allow_wildcards, safe_only=True)
        )
    if rng.random() < 0.7:
        # Guarantee termination: R \ R is always empty, so assigning it
        # to the condition name ends the loop after this iteration.
        body.append(Assignment(condition, "DIFFERENCE", [condition, condition]))
    else:
        body.append(
            Assignment(
                condition,
                "SELECTCONST",
                [condition],
                {"attr": _attr(rng), "value": _value(rng)},
            )
        )
    return While(condition, Program(body))


def random_case(
    seed: int, *, allow_while: bool = True, allow_wildcards: bool = True
) -> tuple[Program, TabularDatabase]:
    """The seeded random (program, database) corpus case."""
    rng = random.Random(seed)
    db = random_database(
        n_tables=rng.randrange(2, 5),
        height=rng.randrange(2, 5),
        width=rng.randrange(1, 4),
        seed=rng.randrange(10**9),
    )
    sizes = _Sizes(db)
    statements: list[Statement] = []
    for _ in range(rng.randrange(3, 9)):
        if allow_while and rng.random() < 0.18:
            statements.append(_gen_while(rng, sizes, allow_wildcards))
        else:
            statements.extend(
                _gen_statement(
                    rng, sizes, allow_wildcards=allow_wildcards, safe_only=False
                )
            )
    return Program(statements), db


# ----------------------------------------------------------------------
# The rewrite-targeting family
# ----------------------------------------------------------------------
#
# ``random_case`` hits PRODUCT+SELECT fusion often but the other
# optimizer rewrites only by accident.  This family generates programs
# *shaped like* each rule's redex — deep product chains,
# σ-after-RENAME/PROJECT, dead projections, duplicate subexpressions,
# σ-over-∪, idempotent pairs — over the same adversarial databases, so
# the differential harness can prove every rewrite sound on inputs with
# ⊥, repeated attributes, and names-in-data.


def _motif_chain(rng: random.Random, bases: list[str]) -> list[Statement]:
    """A ≥3-way PRODUCT chain with trailing selects: join-reorder's redex."""
    k = rng.randrange(3, 5)
    if len(bases) >= k:
        leaves = rng.sample(bases, k=k)
    else:  # adversarial dbs reuse names; repeats keep the chain deep
        leaves = [rng.choice(bases) for _ in range(k)]
    target = rng.choice([n for n in NAMES if n not in bases] or ["T"])
    statements = [Assignment(target, "PRODUCT", [leaves[0], leaves[1]])]
    for leaf in leaves[2:]:
        statements.append(Assignment(target, "PRODUCT", [target, leaf]))
    for _ in range(rng.randrange(1, 3)):
        statements.append(
            Assignment(
                target,
                "SELECT",
                [target],
                {"left": _attr(rng), "right": _attr(rng)},
            )
        )
    return statements


def _motif_renamed_self_join(rng: random.Random, bases: list[str]) -> list[Statement]:
    """RENAME a copy, product it against the original, then select —
    σ can push through the RENAME when its attrs are untouched."""
    base = rng.choice(bases)
    alias = rng.choice([n for n in NAMES if n not in bases] or ["U"])
    old, new = rng.sample(ATTRS, 2)
    select_attr = rng.choice([a for a in ATTRS if a not in (old, new)])
    target = rng.choice([n for n in NAMES if n not in (*bases, alias)] or ["T"])
    return [
        Assignment(alias, "RENAME", [base], {"old": old, "new": new}),
        Assignment(alias, "SELECT", [alias], {"left": select_attr, "right": select_attr}),
        Assignment(target, "PRODUCT", [base, alias]),
        Assignment(
            target, "SELECT", [target], {"left": select_attr, "right": _attr(rng)}
        ),
    ]


def _motif_dead_projection(rng: random.Random, bases: list[str]) -> list[Statement]:
    """A projection whose target is overwritten before any read, plus a
    π∘π pair: prune-dead-project's two redexes."""
    base = rng.choice(bases)
    target = rng.choice([n for n in NAMES if n not in bases] or ["T"])
    wide = [a for a in ATTRS if rng.random() < 0.8] or list(ATTRS[:2])
    narrow = [a for a in wide if rng.random() < 0.5]
    return [
        Assignment(target, "PROJECT", [base], {"attrs": _attr_set(rng)}),
        Assignment(target, "PROJECT", [base], {"attrs": wide}),
        Assignment(target, "PROJECT", [target], {"attrs": narrow}),
    ]


def _motif_duplicate(rng: random.Random, bases: list[str]) -> list[Statement]:
    """The same pure computation bound to two names: CSE's redex."""
    base = rng.choice(bases)
    op = rng.choice(("SELECT", "PROJECT", "DEDUP", "RENAME"))
    params = _gen_params(rng, op, None)
    spare = [n for n in NAMES if n not in bases] or ["T", "U"]
    first = spare[0]
    second = spare[1] if len(spare) > 1 else rng.choice(bases)
    return [
        Assignment(first, op, [base], dict(params)),
        Assignment(second, op, [base], dict(params)),
    ]


def _motif_select_union(rng: random.Random, bases: list[str]) -> list[Statement]:
    """σ over ∪: select-pushdown-union's redex."""
    left, right = rng.sample(bases, 2) if len(bases) >= 2 else (bases[0], bases[0])
    target = rng.choice([n for n in NAMES if n not in bases] or ["T"])
    return [
        Assignment(target, "UNION", [left, right]),
        Assignment(
            target, "SELECT", [target], {"left": _attr(rng), "right": _attr(rng)}
        ),
    ]


def _motif_idempotent_pair(rng: random.Random, bases: list[str]) -> list[Statement]:
    """DEDUP∘DEDUP or TRANSPOSE∘TRANSPOSE through an intermediate:
    collapse-idempotent's redex."""
    op = rng.choice(("DEDUP", "TRANSPOSE"))
    base = rng.choice(bases)
    spare = [n for n in NAMES if n not in bases] or ["T", "U"]
    middle = spare[0]
    target = rng.choice(spare[1:] or bases)
    return [
        Assignment(middle, op, [base]),
        Assignment(target, op, [middle]),
    ]


_REWRITE_MOTIFS = (
    _motif_chain,
    _motif_renamed_self_join,
    _motif_dead_projection,
    _motif_duplicate,
    _motif_select_union,
    _motif_idempotent_pair,
)


def random_rewrite_case(seed: int) -> tuple[Program, TabularDatabase]:
    """A seeded (program, database) case shaped to trigger rewrites.

    Every seed draws 2–4 motifs from the redex catalogue (each motif
    maps onto one optimizer rule) plus a little safe-op noise between
    them, over an adversarial :func:`random_database`.  Sizes stay small
    enough (base tables ≤ 4 rows, chains ≤ 4-way) that the worst-case
    product is a few hundred rows — no governor needed.
    """
    rng = random.Random(seed ^ 0x5EED)
    n_tables = rng.randrange(3, 5)
    db = random_database(
        n_tables=n_tables,
        height=rng.randrange(2, 5),
        width=rng.randrange(1, 3),
        seed=rng.randrange(10**9),
    )
    bases = sorted({str(t.name) for t in db.tables})
    sizes = _Sizes(db)
    statements: list[Statement] = []
    for _ in range(rng.randrange(2, 5)):
        motif = rng.choice(_REWRITE_MOTIFS)
        statements.extend(motif(rng, bases))
        if rng.random() < 0.4:
            statements.extend(
                _gen_statement(rng, sizes, allow_wildcards=False, safe_only=True)
            )
    return Program(statements), db
