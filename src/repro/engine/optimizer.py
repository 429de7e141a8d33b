"""The program rewrite framework and cost-based optimizer (docs/OPTIMIZER.md).

Every program rewrite in the system lives here: a registry of named,
individually toggleable :class:`RewriteRule` passes, each justified by
an algebraic identity of the tabular algebra, applied by one
While-recursing pass over one statement footprint
(:meth:`~repro.algebra.programs.statements.Statement.reads` /
:meth:`~repro.algebra.programs.statements.Statement.writes`), plus
cost-based join ordering of PRODUCT chains driven by
:class:`~repro.obs.stats.DatabaseStats` from ANALYZE.  Its consumers:

* :func:`optimize_program` — the enabled rules, cached and counted;
* :func:`plan_program` / :func:`count_fusions` — the vector engine's
  plan, ``fuse-product-select`` run alone with no cache or telemetry;
* :func:`collapse_idempotent_pairs` / :func:`eliminate_dead_statements`
  — the output-relative program optimizer of
  :mod:`repro.algebra.programs.optimize`.

Soundness contract (enforced by the differential harness and the
hypothesis property tests): an optimized program must produce the
**byte-identical** final database of the original on success — same
table grids, same column order, same row order within each table, same
row attributes — and raise the same error type on failure.  Resource
*profiles* (op counts, intermediate sizes, which statement a governor
budget trips on) are exactly what optimization changes and are not part
of the contract.

Rule catalogue (applied in this order; each entry names the identity
that justifies it — the full derivations live in docs/OPTIMIZER.md):

``select-pushdown``
    σ_{a≈b}(ρ_{n←o}(R)) = ρ_{n←o}(σ_{a≈b}(R)) when {a,b} ∩ {o,n} = ∅,
    and σ_{a≈b}(π_A(R)) = π_A(σ_{a≈b}(R)) when a, b ∈ A.  Bubbles
    selections left over renames/projections so they filter earlier and
    expose PRODUCT+SELECT adjacency to fusion and join ordering.

``prune-dead-project``
    Dead-store elimination for projections (a PROJECT whose target is
    overwritten before any read computes nothing observable — PROJECT
    never raises, so removing it preserves error behaviour too) and
    π_{A₂}(π_{A₁}(R)) = π_{A₁∩A₂}(R) (adjacent projection collapse —
    the columns in A₁ \\ A₂ are dead).

``collapse-idempotent``
    DEDUP∘DEDUP = DEDUP and TRANSPOSE∘TRANSPOSE = identity: of an
    adjacent pair through an intermediate, the second statement
    re-deduplicates the original source, or becomes the identity copy
    ``Y ← RENAME ⊥ ⊥ (X)`` of it.  The intermediate is kept.

``cse``
    Within a straight-line region, a repeated pure assignment with
    identical operation, arguments, and parameters recomputes a value
    already on hand; the duplicate is replaced by an identity copy
    ``Y ← RENAME ⊥ ⊥ (X)`` (renaming an attribute to itself is the
    identity on any table), valid while neither the arguments nor the
    source target were overwritten in between.

``fuse-product-select``
    σ_{a≈b}(R × S) as one PRODUCTSELECT, which pushes the selection
    below the product (hash join) instead of materializing ``|R|·|S|``
    rows first.

``join-reorder``
    × is associative/commutative up to column order and σ-filters
    commute, so a PRODUCT/PRODUCTSELECT chain into one target may be
    *evaluated* in any leaf order as long as the result is assembled in
    syntactic order.  :class:`ChainJoin` does exactly that: hash-joins
    the leaves in a cost-chosen order over row-index tuples, then sorts
    the matches lexicographically (= the nested-loop order) and emits
    rows with columns and the row-attribute fold in syntactic order.
    Ordering is chosen by dynamic programming over the C_out cost
    (sum of estimated intermediate cardinalities, from the estimator's
    chain formula) for chains of ≤ 8 leaves and greedily beyond, with
    selectivities from ANALYZE NDVs;
    missing stats keep the syntactic order, and stale stats (shape
    mismatch at run time, the estimator's staleness guard) fall back
    per combination.

``select-pushdown-union``
    σ_{a≈b}(R ∪ S) = σ_{a≈b}(R) ∪ σ_{a≈b}(S) — exactly, including row
    order, because tabular union pads with ⊥ and weak equality strips ⊥
    from both entry sets before comparing.  Fused as
    :class:`SelectUnion` so the selection runs on the inputs.

``semi-naive``
    A fixpoint ``while Δ`` that derives ``New`` from R by a chain linear
    in R and ends ``X ← New \\ R; Δ ← DEDUP(X); Y ← R ∪ Δ; R ← DEDUP(Y)``,
    with Δ = R on entry, derives New from Δ instead: the chain
    distributes over R = R_old ∪ Δ and chain(R_old) ⊆ R, so ``New \\ R``
    is unchanged, row order included.  :class:`SemiNaiveWhile` checks the
    side conditions the program text cannot show (one table per name,
    distinct attributes, no lineage scope) each iteration and runs the
    source iteration where they fail; a :class:`Rederive` re-derives
    New from R in the last iteration, so temporaries end as before.

Plans are cached under ``(program text, stats fingerprint, enabled
rules)`` — the exact program text plus the stats *content* fingerprint,
so a re-ANALYZE invalidates every cached plan it could change.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple, Sequence

from ..algebra.opshelpers import combine_row_attributes
from ..algebra.programs.params import (
    NOTHING,
    Binding,
    Lit,
    Nothing,
    Parameter,
    ParamSet,
    Star,
    as_parameter,
    literal_symbol,
)
from ..algebra.programs.registry import OPERATIONS, PARAM_SET, OpSpec
from ..algebra.programs.statements import Assignment, Program, Statement, While
from ..core import (
    EvaluationError,
    Symbol,
    Table,
    TabularDatabase,
    strip_null,
    weakly_equal,
)
from ..core.table import _from_checked
from ..obs import events as _ev
from ..obs import runtime as _obs
from ..obs.estimator import chain_rows
from ..obs.stats import DatabaseStats
from ..runtime import governor as _gv

__all__ = [
    "RULE_ORDER",
    "RULES",
    "Rewrite",
    "RewriteRule",
    "OrderDecision",
    "OptimizationResult",
    "PlanCache",
    "PLAN_CACHE",
    "OptimizerStats",
    "OPTIMIZER_STATS",
    "ChainJoin",
    "SelectUnion",
    "SemiNaiveWhile",
    "Rederive",
    "optimize_program",
    "plan_program",
    "count_fusions",
    "collapse_idempotent_pairs",
    "eliminate_dead_statements",
]

#: Chains longer than this use greedy ordering instead of subset DP.
DP_LEAF_LIMIT = 8

#: Pseudo-op name the chain join dispatches under (events, governor,
#: estimator, metrics — the same surfaces a registry op gets).
CHAINJOIN_OP = "CHAINJOIN"


# ----------------------------------------------------------------------
# Records: applied rewrites, ordering decisions, the optimize result
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Rewrite:
    """One applied rewrite: which rule, where, and why it is sound."""

    rule: str
    detail: str
    justification: str

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "detail": self.detail,
            "justification": self.justification,
        }


@dataclass(frozen=True)
class OrderDecision:
    """One join-ordering decision over a PRODUCT chain."""

    target: str
    leaves: tuple[str, ...]
    #: Chosen evaluation order as indices into ``leaves``.
    order: tuple[int, ...]
    #: ``reordered`` | ``syntactic`` | ``stats-missing``.
    outcome: str
    reason: str
    est_rows: int | None = None
    cost_syntactic: float | None = None
    cost_chosen: float | None = None

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "leaves": list(self.leaves),
            "order": list(self.order),
            "order_names": [self.leaves[i] for i in self.order],
            "outcome": self.outcome,
            "reason": self.reason,
            "est_rows": self.est_rows,
            "cost_syntactic": self.cost_syntactic,
            "cost_chosen": self.cost_chosen,
        }


@dataclass(frozen=True)
class OptimizationResult:
    """What :func:`optimize_program` decided, and the plan it produced."""

    program: Program
    source: Program
    applied: tuple[Rewrite, ...]
    decisions: tuple[OrderDecision, ...]
    fingerprint: str
    stats_fingerprint: str
    rules: tuple[str, ...]
    cache_hit: bool = False

    def to_json(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "stats_fingerprint": self.stats_fingerprint,
            "rules": list(self.rules),
            "cache_hit": self.cache_hit,
            "before": [repr(s) for s in self.source.statements],
            "after": [repr(s) for s in self.program.statements],
            "applied": [r.to_json() for r in self.applied],
            "decisions": [d.to_json() for d in self.decisions],
        }


@dataclass(frozen=True)
class RewriteRule:
    """A named, toggleable rewrite pass over one statement list."""

    name: str
    justification: str
    apply: Callable[[list[Statement], "_Context"], list[Statement]]


@dataclass
class _Context:
    """Mutable state threaded through the rule passes of one optimize."""

    stats: DatabaseStats | None
    applied: list[Rewrite] = field(default_factory=list)
    decisions: list[OrderDecision] = field(default_factory=list)

    def record(self, rule: str, detail: str) -> None:
        self.applied.append(Rewrite(rule, detail, RULES[rule].justification))


# ----------------------------------------------------------------------
# Static-shape helpers shared by the rules
# ----------------------------------------------------------------------


def _lit_set(param: object) -> frozenset[Symbol] | None:
    """The symbol set of a wildcard-free set parameter, else None."""
    if isinstance(param, Lit):
        return frozenset([param.symbol])
    if isinstance(param, Nothing):
        return frozenset()
    if isinstance(param, ParamSet):
        items = param.positive + param.negative
        if all(isinstance(p, Lit) for p in items):
            return param.evaluate(Binding(), None)
    return None


def _static_params(statement: Assignment) -> bool:
    """True when no parameter depends on wildcards or table contents."""
    for param in statement.params.values():
        if isinstance(param, Lit) or isinstance(param, Nothing):
            continue
        if _lit_set(param) is None:
            return False
    return True


def _fold_pairs(
    statements: Sequence[Statement],
    rewrite_pair: Callable[[Statement, Statement], tuple[list[Statement], str] | None],
    ctx: _Context,
    rule: str,
) -> list[Statement]:
    """One left-to-right peephole pass over adjacent statements.

    ``rewrite_pair(previous, current)`` sees the last *rewritten*
    statement and the next source statement, and returns their
    replacement plus a detail to record, or None to keep both.
    """
    out: list[Statement] = []
    for statement in statements:
        pair = rewrite_pair(out[-1], statement) if out else None
        if pair is None:
            out.append(statement)
        else:
            out[-1:] = pair[0]
            ctx.record(rule, pair[1])
    return out


# ----------------------------------------------------------------------
# select-pushdown: σ through RENAME and PROJECT
# ----------------------------------------------------------------------


def _pushdown_swap(
    first: Statement, second: Statement
) -> tuple[list[Statement], str] | None:
    if not (isinstance(first, Assignment) and isinstance(second, Assignment)):
        return None
    if second.spec.name != "SELECT" or first.spec.name not in ("RENAME", "PROJECT"):
        return None
    if _is_identity_copy(first):
        # A copy costs the same on either side of σ, and cse emits one
        # after this pass ran: swapping it would make a second pass differ.
        return None
    if not (isinstance(first.target, Lit) and isinstance(second.target, Lit)):
        return None
    target = first.target.symbol
    if second.target.symbol != target:
        return None
    if len(second.args) != 1 or literal_symbol(second.args[0]) != target:
        return None
    left = literal_symbol(second.params.get("left"))
    right = literal_symbol(second.params.get("right"))
    if left is None or right is None:
        return None
    if first.spec.name == "RENAME":
        old = literal_symbol(first.params.get("old"))
        new = literal_symbol(first.params.get("new"))
        if old is None or new is None:
            return None
        # The selection must not mention the renamed attribute on either
        # side — then σ reads the same columns before and after ρ.
        if {left, right} & {old, new}:
            return None
        detail = f"σ {left}≈{right} pushed below RENAME {old}→{new} into {target}"
    else:
        attrs = _lit_set(first.params.get("attrs"))
        if attrs is None or left not in attrs or right not in attrs:
            return None
        detail = f"σ {left}≈{right} pushed below PROJECT into {target}"
    swapped_select = Assignment(first.target, "SELECT", first.args, second.params)
    swapped_first = Assignment(
        first.target, first.spec.name, [first.target], first.params
    )
    return [swapped_select, swapped_first], detail


def _apply_select_pushdown(
    statements: list[Statement], ctx: _Context
) -> list[Statement]:
    # To a fixpoint: each pass bubbles a selection one step further left.
    while True:
        before = len(ctx.applied)
        statements = _fold_pairs(statements, _pushdown_swap, ctx, "select-pushdown")
        if len(ctx.applied) == before:
            return statements


# ----------------------------------------------------------------------
# prune-dead-project: dead stores and adjacent projection collapse
# ----------------------------------------------------------------------


def _prunable_project(statement: Statement) -> bool:
    return (
        isinstance(statement, Assignment)
        and statement.spec.name == "PROJECT"
        and isinstance(statement.target, Lit)
        and _lit_set(statement.params.get("attrs")) is not None
        and all(isinstance(a, (Lit, Star)) for a in statement.args)
    )


def _dead_store(statements: Sequence[Statement], i: int) -> bool:
    """True when statement ``i``'s target is overwritten before any read."""
    target = statements[i].target.symbol
    for nxt in statements[i + 1 :]:
        if isinstance(nxt, While):
            # A region boundary: the loop condition or body may read it.
            return False
        reads = nxt.reads()
        if reads is None or target in reads:
            return False
        if target in (nxt.writes() or ()):
            return True
    return False


def _collapse_projects(
    first: Statement, second: Statement
) -> tuple[list[Statement], str] | None:
    if not (_prunable_project(first) and _prunable_project(second)):
        return None
    target = first.target.symbol
    if second.target.symbol != target:
        return None
    if len(second.args) != 1 or literal_symbol(second.args[0]) != target:
        return None
    attrs1 = _lit_set(first.params["attrs"])
    attrs2 = _lit_set(second.params["attrs"])
    kept = attrs1 & attrs2
    dead = sorted(str(a) for a in attrs1 - kept)
    param = (
        ParamSet([Lit(s) for s in sorted(kept, key=lambda s: s.sort_key())])
        if kept
        else NOTHING
    )
    fused = Assignment(first.target, "PROJECT", first.args, {"attrs": param})
    detail = f"π∘π over {target} collapsed; dead columns [{', '.join(dead)}]"
    return [fused], detail


def _apply_prune_dead_project(
    statements: list[Statement], ctx: _Context
) -> list[Statement]:
    # To a fixpoint: removing a dead store removes its *reads*, which can
    # make an earlier overwritten projection dead in turn.
    current = list(statements)
    while True:
        out: list[Statement] = []
        for i, statement in enumerate(current):
            if _prunable_project(statement) and _dead_store(current, i):
                ctx.record(
                    "prune-dead-project",
                    f"dead π store into {statement.target.symbol} removed",
                )
                continue
            out.append(statement)
        collapsed = _fold_pairs(out, _collapse_projects, ctx, "prune-dead-project")
        if len(collapsed) == len(current):
            return collapsed
        current = collapsed


# ----------------------------------------------------------------------
# The identity copy shared by collapse-idempotent and cse
# ----------------------------------------------------------------------


def _identity_copy(target: Parameter, source: Symbol) -> Assignment:
    # RENAME ⊥→⊥ replaces ⊥ header slots with ⊥: the identity on any
    # table, so this statement is a pure copy that can never raise.
    return Assignment(target, "RENAME", [source], {"old": None, "new": None})


def _is_identity_copy(statement: Statement) -> bool:
    if not (isinstance(statement, Assignment) and statement.spec.name == "RENAME"):
        return False
    old = literal_symbol(statement.params["old"])
    new = literal_symbol(statement.params["new"])
    return old is not None and new is not None and old.is_null and new.is_null


# ----------------------------------------------------------------------
# collapse-idempotent: DEDUP∘DEDUP and TRANSPOSE∘TRANSPOSE
# ----------------------------------------------------------------------


def _collapse_idempotent(
    first: Statement, second: Statement
) -> tuple[list[Statement], str] | None:
    if not (isinstance(first, Assignment) and isinstance(second, Assignment)):
        return None
    op = first.spec.name
    if op not in ("DEDUP", "TRANSPOSE") or second.spec.name != op:
        return None
    middle = literal_symbol(first.target)
    source = literal_symbol(first.args[0])
    # ``T ← OP (T)`` has overwritten the source a rewrite would read.
    if middle is None or source is None or middle == source:
        return None
    if literal_symbol(second.args[0]) != middle:
        return None
    if op == "DEDUP":
        rewritten = Assignment(second.target, "DEDUP", [first.args[0]])
        effect = f"reads {source}"
    else:
        rewritten = _identity_copy(second.target, source)
        effect = f"copies {source}"
    return [first, rewritten], f"{op}∘{op} through {middle}: {second.target} {effect}"


def _apply_collapse_idempotent(
    statements: list[Statement], ctx: _Context
) -> list[Statement]:
    # The intermediate statement stays: soundness never depends on who
    # else reads it.
    return _fold_pairs(statements, _collapse_idempotent, ctx, "collapse-idempotent")


# ----------------------------------------------------------------------
# cse: duplicate pure assignments become identity copies
# ----------------------------------------------------------------------


def _cse_key(statement: Statement):
    """A value-semantics key for pure, fully static assignments."""
    if not isinstance(statement, Assignment):
        return None
    spec = statement.spec
    if spec.needs_fresh or spec.aggregate:
        return None
    if not isinstance(statement.target, Lit):
        return None
    if not all(isinstance(a, Lit) for a in statement.args):
        return None
    if not _static_params(statement):
        return None
    params = tuple(
        (keyword, statement.params[keyword].evaluate(Binding(), None))
        for keyword in sorted(statement.params)
    )
    return (spec.name, tuple(a.symbol for a in statement.args), params)


def _apply_cse(statements: list[Statement], ctx: _Context) -> list[Statement]:
    out = list(statements)
    for j in range(len(out)):
        if _is_identity_copy(out[j]):
            continue  # already a copy; rewriting again is churn, not CSE
        key = _cse_key(out[j])
        if key is None:
            continue
        deps = set(key[1])
        written: set[Symbol] = set()
        for i in range(j - 1, -1, -1):
            candidate = out[i]
            # A While is a region boundary, like an unknown footprint.
            writes = None if isinstance(candidate, While) else candidate.writes()
            if writes is None:
                break
            if (
                _cse_key(candidate) == key
                and candidate.target.symbol not in written
                and candidate.target.symbol not in deps
            ):
                source = candidate.target.symbol
                ctx.record(
                    "cse",
                    f"{out[j].target} recomputes {key[0]}({', '.join(map(str, key[1]))});"
                    f" copied from {source}",
                )
                out[j] = _identity_copy(out[j].target, source)
                break
            if writes & deps:
                break
            written |= writes
    return out


# ----------------------------------------------------------------------
# fuse-product-select: T ← PRODUCT; T ← SELECT (T) as one PRODUCTSELECT
# ----------------------------------------------------------------------


def _fuse_product_select(
    first: Statement, second: Statement
) -> tuple[list[Statement], str] | None:
    """Fuse only when no observable behaviour can change.

    Both targets are the same literal ``T`` and the select reads exactly
    that ``T``, so no statement could have seen the intermediate
    product.  The selection attributes are literals: a wildcard could
    bind differently, and a ``Pair`` evaluates against the intermediate
    product.  The product's arguments are kept verbatim, wildcards
    included, so name matching and binding are untouched.
    """
    if not (isinstance(first, Assignment) and isinstance(second, Assignment)):
        return None
    if first.spec.name != "PRODUCT" or second.spec.name != "SELECT":
        return None
    target = literal_symbol(first.target)
    if target is None or literal_symbol(second.target) != target:
        return None
    if literal_symbol(second.args[0]) != target:
        return None
    left, right = second.params["left"], second.params["right"]
    if literal_symbol(left) is None or literal_symbol(right) is None:
        return None
    fused = Assignment(
        first.target, "PRODUCTSELECT", first.args, {"left": left, "right": right}
    )
    return [fused], f"σ fused into × for {fused.target}"


def _apply_fusion(statements: list[Statement], ctx: _Context) -> list[Statement]:
    return _fold_pairs(statements, _fuse_product_select, ctx, "fuse-product-select")


# ----------------------------------------------------------------------
# join-reorder: chain detection, costing, and the ChainJoin statement
# ----------------------------------------------------------------------


class _Cond(NamedTuple):
    """One σ_{left≈right} applied when the chain had ``prefix`` leaves:
    the condition triple :func:`~repro.obs.estimator.chain_rows` reads."""

    left: Symbol
    right: Symbol
    prefix: int


@dataclass(frozen=True)
class _Chain:
    target: Symbol
    leaves: tuple[Symbol, ...]
    conds: tuple[_Cond, ...]
    statements: tuple[Statement, ...]
    end: int  # index just past the chain in the enclosing list


def _match_chain(statements: Sequence[Statement], start: int) -> _Chain | None:
    first = statements[start]
    if not isinstance(first, Assignment):
        return None
    if first.spec.name not in ("PRODUCT", "PRODUCTSELECT"):
        return None
    if not isinstance(first.target, Lit):
        return None
    target = first.target.symbol
    if not all(isinstance(a, Lit) for a in first.args):
        return None
    leaves = [a.symbol for a in first.args]
    conds: list[_Cond] = []
    if first.spec.name == "PRODUCTSELECT":
        left = literal_symbol(first.params["left"])
        right = literal_symbol(first.params["right"])
        if left is None or right is None:
            return None
        conds.append(_Cond(left, right, 2))
    j = start + 1
    while j < len(statements):
        statement = statements[j]
        if not isinstance(statement, Assignment):
            break
        if not isinstance(statement.target, Lit) or statement.target.symbol != target:
            break
        name = statement.spec.name
        if name == "SELECT":
            if len(statement.args) != 1 or literal_symbol(statement.args[0]) != target:
                break
            left = literal_symbol(statement.params["left"])
            right = literal_symbol(statement.params["right"])
            if left is None or right is None:
                break
            conds.append(_Cond(left, right, len(leaves)))
            j += 1
            continue
        if name in ("PRODUCT", "PRODUCTSELECT"):
            if len(statement.args) != 2 or not all(
                isinstance(a, Lit) for a in statement.args
            ):
                break
            if (
                literal_symbol(statement.args[0]) != target
                or literal_symbol(statement.args[1]) == target
            ):
                break
            leaves.append(statement.args[1].symbol)
            if name == "PRODUCTSELECT":
                left = literal_symbol(statement.params["left"])
                right = literal_symbol(statement.params["right"])
                if left is None or right is None:
                    leaves.pop()
                    break
                conds.append(_Cond(left, right, len(leaves)))
            j += 1
            continue
        break
    if len(leaves) < 3:
        return None
    return _Chain(target, tuple(leaves), tuple(conds), tuple(statements[start:j]), j)


def _order_chain(chain: _Chain, stats: DatabaseStats | None) -> OrderDecision:
    k = len(chain.leaves)
    identity = tuple(range(k))
    base = dict(
        target=str(chain.target),
        leaves=tuple(str(s) for s in chain.leaves),
        order=identity,
    )
    if stats is None:
        return OrderDecision(
            outcome="stats-missing", reason="no stats snapshot", **base
        )
    per_leaf = []
    for name in chain.leaves:
        entries = stats.for_name(str(name))
        if not entries:
            return OrderDecision(
                outcome="stats-missing", reason=f"no stats for {name}", **base
            )
        per_leaf.append(entries)
    est = chain_rows(per_leaf, chain.conds)

    def order_cost(order: Sequence[int]) -> float:
        return sum(est(frozenset(order[:p])) for p in range(2, k + 1))

    cost_syntactic = order_cost(identity)
    if k <= DP_LEAF_LIMIT:
        best: dict[frozenset[int], tuple[float, tuple[int, ...]]] = {
            frozenset([l]): (0.0, (l,)) for l in range(k)
        }
        for size in range(2, k + 1):
            for subset in itertools.combinations(range(k), size):
                fs = frozenset(subset)
                rows = est(fs)
                best[fs] = min(
                    (best[fs - {last}][0] + rows, best[fs - {last}][1] + (last,))
                    for last in subset
                )
        cost_chosen, chosen = best[frozenset(identity)]
        method = "dp"
    else:
        pair_cost, pair = min(
            (est(frozenset(p)), p) for p in itertools.permutations(range(k), 2)
        )
        chosen_list = list(pair)
        cost_chosen = pair_cost
        while len(chosen_list) < k:
            members = frozenset(chosen_list)
            step_cost, nxt = min(
                (est(members | {l}), l) for l in range(k) if l not in members
            )
            chosen_list.append(nxt)
            cost_chosen += step_cost
        chosen = tuple(chosen_list)
        method = "greedy"
    est_rows = round(est(frozenset(identity)))
    if cost_syntactic <= cost_chosen or chosen == identity:
        return OrderDecision(
            outcome="syntactic",
            reason=f"{method}: syntactic order already optimal",
            est_rows=est_rows,
            cost_syntactic=cost_syntactic,
            cost_chosen=cost_syntactic,
            **base,
        )
    base["order"] = chosen
    return OrderDecision(
        outcome="reordered",
        reason=f"{method}: C_out {cost_chosen:.0f} vs syntactic {cost_syntactic:.0f}",
        est_rows=est_rows,
        cost_syntactic=cost_syntactic,
        cost_chosen=cost_chosen,
        **base,
    )


def _join_keys(
    tables: Sequence[Table],
    leaf: int,
    leaf_pos: list[tuple[int, int]],
    built_pos: list[tuple[int, int]],
    at: dict[int, int],
) -> tuple[Callable[[int], object], Callable[[tuple[int, ...]], object]]:
    """The hash-join keys of a condition linking the built side to
    ``leaf``: one of a row index of ``leaf``, one of a built index tuple
    (its leaf ``l``'s row index at ``at[l]``).

    With one column a side the entry itself is the key, as in
    PRODUCTSELECT: ``{x} ≈ {y}`` iff ``x == y``, and every ⊥ equals the
    ⊥ constant, so ``∅ ≈ ∅`` matches too.  Otherwise a key is the
    ⊥-stripped set of the side's entries under the condition.
    """
    if len(leaf_pos) == len(built_pos) == 1:
        ((_, j),) = leaf_pos
        ((l, k),) = built_pos
        leaf_rows, built_rows, slot = tables[leaf].grid, tables[l].grid, at[l]
        return (lambda i: leaf_rows[i][j]), (lambda tup: built_rows[tup[slot]][k])

    def entries(positions, slots, tup):
        return strip_null(tables[l].grid[tup[slots[l]]][j] for l, j in positions)

    leaf_slots = {leaf: 0}
    return (
        lambda i: entries(leaf_pos, leaf_slots, (i,)),
        lambda tup: entries(built_pos, at, tup),
    )


class ChainJoin(Statement):
    """A PRODUCT/σ chain evaluated in a cost-chosen leaf order.

    Replaces a run of statements that left-fold ``k ≥ 3`` leaves into one
    literal target with interleaved selections.  Per leaf-table
    combination it joins row *indices* in the chosen order (hash joins
    where a condition links the built side to the new leaf, keyed by the
    entry itself when the condition has one column on each side, as
    PRODUCTSELECT is, and by the ⊥-stripped entry set otherwise; filters
    as soon as a condition's columns are all present — sound because the
    conjunctive filters commute), then restores the exact naive result:
    matched index tuples sorted lexicographically equal the nested-loop
    row order, and rows are assembled with columns and the
    order-sensitive row-attribute fold in *syntactic* leaf order.  The
    rows hold only the leaves' checked entries, so the result is built
    without checking its entries again.

    Dispatches through a pseudo registry op (:data:`CHAINJOIN_OP`) so
    events, governor accounting, estimation, and EXPLAIN spans see it
    like any other operation.  Falls back to the original statements
    under an active lineage scope (the provenance fold is
    order-sensitive) and to syntactic evaluation order per combination
    when a leaf's shape no longer matches the planning stats (stale).
    """

    def __init__(
        self,
        chain: _Chain,
        order: tuple[int, ...],
        stats: DatabaseStats | None,
        est_rows: int | None = None,
    ):
        self.target = chain.target
        self.leaves = chain.leaves
        self.conds = chain.conds
        self.order = order
        self.stats = stats
        self.est_rows = est_rows
        self.source = chain.statements
        self._spec = OpSpec(
            name=CHAINJOIN_OP, function=self._join_tables, arity=len(chain.leaves)
        )
        self._arguments = {"conds": self.conds}

    def reads(self) -> frozenset[Symbol]:
        return frozenset(self.leaves)

    def writes(self) -> frozenset[Symbol]:
        return frozenset([self.target])

    def _stats_fresh(self, tables: Sequence[Table]) -> bool:
        if self.stats is None:
            return False
        return all(
            self.stats.lookup(str(name), t.height, t.width) is not None
            for name, t in zip(self.leaves, tables)
        )

    def _join_tables(self, *tables: Table, conds=None) -> Table:
        k = len(tables)
        headers = [t.column_attributes for t in tables]
        resolved = []
        for cond in self.conds:
            pos_left = [
                (l, j + 1)
                for l in range(cond.prefix)
                for j, attr in enumerate(headers[l])
                if attr == cond.left
            ]
            pos_right = [
                (l, j + 1)
                for l in range(cond.prefix)
                for j, attr in enumerate(headers[l])
                if attr == cond.right
            ]
            if not pos_left and not pos_right:
                continue  # ∅ ≈ ∅ holds for every row
            involved = frozenset(l for l, _ in pos_left) | frozenset(
                l for l, _ in pos_right
            )
            resolved.append((involved, pos_left, pos_right))
        order = self.order if self._stats_fresh(tables) else tuple(range(k))

        def values(positions, at: dict[int, int], tup: tuple[int, ...]):
            return frozenset(
                tables[l].entry(tup[at[l]], j) for l, j in positions
            )

        joined: list[int] = []
        at: dict[int, int] = {}
        tuples: list[tuple[int, ...]] | None = None
        pending = list(resolved)
        for leaf in order:
            visible = set(joined) | {leaf}
            ready = [c for c in pending if c[0] <= visible]
            pending = [c for c in pending if not (c[0] <= visible)]
            table = tables[leaf]
            rows = list(range(1, table.height + 1))
            local = [c for c in ready if c[0] <= {leaf}]
            for _inv, pos_l, pos_r in local:
                leaf_at = {leaf: 0}
                rows = [
                    i
                    for i in rows
                    if weakly_equal(
                        values(pos_l, leaf_at, (i,)), values(pos_r, leaf_at, (i,))
                    )
                ]
            others = [c for c in ready if not (c[0] <= {leaf})]
            if tuples is None:
                tuples = [(i,) for i in rows]
                joined = [leaf]
                at = {leaf: 0}
                continue
            hash_cond = None
            for cond in others:
                inv, pos_l, pos_r = cond
                left_on_leaf = all(l == leaf for l, _ in pos_l)
                right_on_leaf = all(l == leaf for l, _ in pos_r)
                left_built = all(l != leaf for l, _ in pos_l)
                right_built = all(l != leaf for l, _ in pos_r)
                if pos_l and pos_r and (
                    (left_built and right_on_leaf) or (right_built and left_on_leaf)
                ):
                    hash_cond = cond
                    break
            new_at = dict(at)
            new_at[leaf] = len(joined)
            if hash_cond is not None:
                _inv, pos_l, pos_r = hash_cond
                if all(l == leaf for l, _ in pos_l):
                    leaf_pos, built_pos = pos_l, pos_r
                else:
                    leaf_pos, built_pos = pos_r, pos_l
                leaf_key, built_key = _join_keys(tables, leaf, leaf_pos, built_pos, at)
                buckets: dict[Symbol | frozenset, list[int]] = {}
                for i in rows:
                    buckets.setdefault(leaf_key(i), []).append(i)
                new_tuples = []
                for tup in tuples:
                    for i in buckets.get(built_key(tup), ()):
                        new_tuples.append(tup + (i,))
                others = [c for c in others if c is not hash_cond]
            else:
                new_tuples = [tup + (i,) for tup in tuples for i in rows]
            for _inv, pos_l, pos_r in others:
                new_tuples = [
                    tup
                    for tup in new_tuples
                    if weakly_equal(
                        values(pos_l, new_at, tup), values(pos_r, new_at, tup)
                    )
                ]
            tuples = new_tuples
            joined.append(leaf)
            at = new_at
        matches = sorted(
            tuple(tup[at[l]] for l in range(k)) for tup in (tuples or [])
        )
        grid = [(self.target,) + tuple(a for h in headers for a in h)]
        for index in matches:
            parts = [tables[l].row(index[l]) for l in range(k)]
            attr = parts[0][0]
            for part in parts[1:]:
                attr = combine_row_attributes(attr, part[0])
            row = [attr]
            for part in parts:
                row.extend(part[1:])
            grid.append(tuple(row))
        return _from_checked(grid)

    def execute(self, db: TabularDatabase, interp) -> TabularDatabase:
        if _obs.OBS.lineage is not None:
            gov = _gv.GOV
            if gov.active and gov.governor is not None:
                gov.governor.check(op=CHAINJOIN_OP)
            # The provenance fold over column 0 is order-sensitive; the
            # original statements thread it correctly.
            for statement in self.source:
                db = statement.execute(db, interp)
            return db
        return self._step(CHAINJOIN_OP, db, interp)

    def _apply(
        self, db: TabularDatabase, interp, observing: bool
    ) -> tuple[TabularDatabase, int, dict]:
        lists = [db.tables_named(name) for name in self.leaves]
        results: list[Table] = []
        combinations = 0
        stale = 0
        for tables in itertools.product(*lists):
            combinations += 1
            if not self._stats_fresh(tables):
                stale += 1
            produced = self._spec.invoke(tables, self._arguments, interp.fresh)
            results.extend(t.with_name(self.target) for t in produced)
        attributes: dict = {}
        if observing:
            attributes["order"] = [str(self.leaves[l]) for l in self.order]
            attributes["rules"] = ["join-reorder"]
            if self.est_rows is not None:
                attributes.update(est_rows=self.est_rows, est_source="stats")
            if stale:
                attributes["stale_combinations"] = stale
        return db.replace_named(self.target, results), combinations, attributes

    def __repr__(self) -> str:
        order = ", ".join(str(self.leaves[l]) for l in self.order)
        conds = ", ".join(f"{c.left}~{c.right}@{c.prefix}" for c in self.conds)
        args = ", ".join(str(l) for l in self.leaves)
        return (
            f"{self.target} <- CHAINJOIN order [{order}] conds [{conds}] ({args})"
        )


def _apply_join_reorder(statements: list[Statement], ctx: _Context) -> list[Statement]:
    out: list[Statement] = []
    i = 0
    while i < len(statements):
        chain = _match_chain(statements, i)
        if chain is None:
            out.append(statements[i])
            i += 1
            continue
        decision = _order_chain(chain, ctx.stats)
        ctx.decisions.append(decision)
        if decision.outcome == "reordered":
            ctx.record(
                "join-reorder",
                f"{len(chain.leaves)}-way chain into {chain.target} evaluated as "
                f"[{', '.join(decision.leaves[l] for l in decision.order)}] "
                f"({decision.reason})",
            )
            out.append(
                ChainJoin(chain, decision.order, ctx.stats, decision.est_rows)
            )
        else:
            out.extend(chain.statements)
        i = chain.end
    return out


# ----------------------------------------------------------------------
# select-pushdown-union: the fused σ(R ∪ S) = σ(R) ∪ σ(S) statement
# ----------------------------------------------------------------------


class SelectUnion(Statement):
    """``T ← σ_{a≈b}(R ∪ S)`` computed as ``σ_{a≈b}(R) ∪ σ_{a≈b}(S)``.

    Exact, including row order: tabular union pads each side's rows with
    ⊥ under the other side's columns, and weak equality strips ⊥ from
    both entry sets, so a padded row satisfies the selection iff the
    unpadded row does; filtering then padding preserves the
    ρ-rows-then-σ-rows order.  Each component σ and the ∪ dispatch
    through the registry, so telemetry sees the real (smaller) work.
    """

    def __init__(self, target: Lit, args: tuple[Lit, Lit], left: Lit, right: Lit):
        self.target = target
        self.args = args
        self.left = left
        self.right = right

    def reads(self) -> frozenset[Symbol]:
        return frozenset(a.symbol for a in self.args)

    def writes(self) -> frozenset[Symbol]:
        return frozenset([self.target.symbol])

    def execute(self, db: TabularDatabase, interp) -> TabularDatabase:
        return self._step("SELECTUNION", db, interp)

    def _apply(
        self, db: TabularDatabase, interp, observing: bool
    ) -> tuple[TabularDatabase, int, dict]:
        target = self.target.symbol
        select_spec = OPERATIONS["SELECT"]
        union_spec = OPERATIONS["UNION"]
        arguments = {"left": self.left.symbol, "right": self.right.symbol}
        lefts = db.tables_named(self.args[0].symbol)
        rights = db.tables_named(self.args[1].symbol)
        results: list[Table] = []
        combinations = 0
        if lefts and rights:
            filtered_left = [
                select_spec.invoke((t,), arguments, interp.fresh)[0] for t in lefts
            ]
            filtered_right = [
                select_spec.invoke((t,), arguments, interp.fresh)[0] for t in rights
            ]
            for fl in filtered_left:
                for fr in filtered_right:
                    combinations += 1
                    produced = union_spec.invoke((fl, fr), {}, interp.fresh)
                    results.extend(t.with_name(target) for t in produced)
        attributes = {"rules": ["select-pushdown-union"]}
        return db.replace_named(target, results), combinations, attributes

    def __repr__(self) -> str:
        return (
            f"{self.target} <- SELECTUNION left {self.left} right {self.right} "
            f"({self.args[0]}, {self.args[1]})"
        )


def _select_union(
    first: Statement, second: Statement
) -> tuple[list[Statement], str] | None:
    if not (
        isinstance(first, Assignment)
        and isinstance(second, Assignment)
        and first.spec.name == "UNION"
        and second.spec.name == "SELECT"
        and isinstance(first.target, Lit)
        and isinstance(second.target, Lit)
        and first.target.symbol == second.target.symbol
        and literal_symbol(second.args[0]) == first.target.symbol
        and all(isinstance(a, Lit) for a in first.args)
        and literal_symbol(second.params["left"]) is not None
        and literal_symbol(second.params["right"]) is not None
    ):
        return None
    fused = SelectUnion(
        first.target,
        (first.args[0], first.args[1]),
        second.params["left"],
        second.params["right"],
    )
    detail = f"σ {fused.left}≈{fused.right} pushed into both sides of ∪"
    return [fused], f"{detail} for {first.target}"


def _apply_select_pushdown_union(
    statements: list[Statement], ctx: _Context
) -> list[Statement]:
    return _fold_pairs(statements, _select_union, ctx, "select-pushdown-union")


# ----------------------------------------------------------------------
# semi-naive: fixpoint loops derive from Δ instead of the whole of R
# ----------------------------------------------------------------------

#: Operations a loop prefix may use: deterministic, one result table per
#: argument combination, and with a result scheme :func:`_result_scheme`
#: computes from the argument schemes.
_PREFIX_OPS = frozenset(
    {
        "RENAME", "PROJECT", "CONSTCOLUMN", "SELECT", "SELECTCONST", "DEDUP",
        "DIFFERENCE", "INTERSECTION", "PRODUCT", "PRODUCTSELECT", "CLASSICALUNION",
    }
)  # fmt: skip


def _result_scheme(statement: Assignment, schemes: list[tuple]) -> tuple:
    """The column attributes ``statement`` produces from its arguments'.

    Exact when every scheme involved has pairwise-distinct attributes:
    then CLASSICALUNION merges each ⊥-padded pair of equal columns.
    """
    op, params, first = statement.spec.name, statement.params, schemes[0]
    if op == "RENAME":
        old, new = params["old"].symbol, params["new"].symbol
        return tuple(new if a == old else a for a in first)
    if op == "PROJECT":
        keep = _lit_set(params["attrs"])
        return tuple(a for a in first if a in keep)
    if op == "CONSTCOLUMN":
        return first + (params["attr"].symbol,)
    if op in ("PRODUCT", "PRODUCTSELECT"):
        return first + schemes[1]
    if op == "CLASSICALUNION":
        return first + tuple(a for a in schemes[1] if a not in first)
    return first  # SELECT, SELECTCONST, DEDUP, DIFFERENCE, INTERSECTION


def _literal_params(statement: Assignment) -> bool:
    """Single parameters are literals, set parameters wildcard-free."""
    return all(
        _lit_set(statement.params[k]) is not None
        if kind == PARAM_SET
        else isinstance(statement.params[k], Lit)
        for k, kind in statement.spec.params.items()
    )


def _linear_in(statement: Assignment, tainted: set[Symbol]) -> bool:
    """Whether ``statement`` maps each row derived from R on its own.

    Row-wise operations, DEDUP and CLASSICALUNION distribute over
    R = R_old ∪ Δ; a product must read R on one side only, and a
    DIFFERENCE or INTERSECTION only on the left (on the right R is not
    monotone, or not row-wise).
    """
    flags = [a.symbol in tainted for a in statement.args]
    op = statement.spec.name
    if op in ("PRODUCT", "PRODUCTSELECT"):
        return flags.count(True) == 1
    if op in ("DIFFERENCE", "INTERSECTION"):
        return flags == [True, False]
    return True


def _scheme_distinct(scheme: tuple) -> bool:
    return len(set(scheme)) == len(scheme)


class Rederive(Statement):
    """``when Δ empty do P end``: run P when no table named Δ has rows.

    Sits in a :class:`SemiNaiveWhile` body between ``Δ ← DEDUP (X)`` and
    the update of R, with P the loop's original prefix.  Δ is empty there
    exactly in the last iteration, and R still holds the value that
    iteration started from, so P recomputes the temporaries (``New``
    among them) a naive last iteration leaves behind.  A loop that never
    iterates never reaches it.
    """

    def __init__(self, condition: Lit, prefix: Program):
        self.condition = condition
        self.prefix = prefix

    def reads(self) -> frozenset[Symbol]:
        names = {self.condition.symbol}
        for statement in self.prefix.statements:
            names |= statement.reads()
        return frozenset(names)

    def writes(self) -> frozenset[Symbol]:
        return frozenset(s.target.symbol for s in self.prefix.statements)

    def execute(self, db: TabularDatabase, interp) -> TabularDatabase:
        if any(t.height > 0 for t in db.tables_named(self.condition.symbol)):
            return db
        return self.prefix.execute(db, interp)

    def __repr__(self) -> str:
        body = "".join(f"\n  {line}" for line in repr(self.prefix).splitlines())
        return f"when {self.condition} empty do{body}\nend"


class SemiNaiveWhile(While):
    """``while Δ do …`` whose derivation reads Δ where the source read R.

    Built from the source loop's ``prefix`` (the statements up to New)
    and its four-statement ``tail``.  ``body`` is the prefix with every
    read of R made a read of Δ, then the tail with a :class:`Rederive` of
    the source prefix inserted before the update of R; ``fallback`` is
    the source body with the same :class:`Rederive`.  Both have one
    shape, so a checkpoint taken in either resumes in either.  Each
    iteration runs ``body`` when :meth:`delta_ready` holds for the
    database it starts from, else ``fallback`` — the source iteration
    itself.
    """

    def __init__(
        self,
        condition: Lit,
        prefix: Sequence[Assignment],
        tail: Sequence[Assignment],
        recursive: Symbol,
        inputs: tuple[Symbol, ...],
    ):
        derive = [
            Assignment(
                s.target,
                s.spec.name,
                [condition if a.symbol == recursive else a for a in s.args],
                s.params,
            )
            for s in prefix
        ]
        rest = [*tail[:2], Rederive(condition, Program(prefix)), *tail[2:]]
        super().__init__(condition, Program(derive + rest))
        self.fallback = Program([*prefix, *rest])
        self.prefix = tuple(prefix)
        self.recursive = recursive
        self.inputs = inputs
        self.new = prefix[-1].target.symbol
        #: The last scheme check, ``(schemes, verdict)``: a pure function
        #: of the schemes, which stay fixed from the second iteration on.
        self._memo: tuple = ((), False)

    def _scheme_of_new(self, schemes: dict[Symbol, tuple]) -> tuple | None:
        """New's scheme when the prefix reads R with ``schemes[R]``, or None
        when some scheme on the way repeats an attribute."""
        env = dict(schemes)
        for statement in self.prefix:
            scheme = _result_scheme(statement, [env[a.symbol] for a in statement.args])
            if not _scheme_distinct(scheme):
                return None
            env[statement.target.symbol] = scheme
        return env[self.new]

    def delta_ready(self, db: TabularDatabase) -> bool:
        """Whether deriving from Δ reproduces this iteration exactly.

        R, Δ and every loop-invariant input are one table each, outside a
        lineage scope; R's and Δ's schemes are permutations of one set of
        distinct attributes, and the prefix derives New with one scheme,
        never repeating an attribute, from either.  Then (docs/OPTIMIZER.md)
        R's rows are the previous R's followed by Δ's, every row the
        previous R derives is already in R, and the derivation from Δ
        lists the rows that ``New \\ R`` keeps in the same order.
        """
        if _obs.OBS.lineage is not None:
            return False
        delta = self.condition.symbol
        schemes: dict[Symbol, tuple] = {}
        for name in (self.recursive, delta, *self.inputs):
            tables = db.tables_named(name)
            if len(tables) != 1:
                return False
            schemes[name] = tables[0].column_attributes
        key = tuple(schemes.items())
        memo = self._memo
        if memo[0] == key:
            return memo[1]
        recursive = schemes[self.recursive]
        ready = (
            _scheme_distinct(recursive)
            and Counter(recursive) == Counter(schemes[delta])
            and (new := self._scheme_of_new(schemes)) is not None
            and self._scheme_of_new({**schemes, self.recursive: schemes[delta]}) == new
        )
        self._memo = (key, ready)
        return ready

    def iteration_body(self, db: TabularDatabase) -> Program:
        return self.body if self.delta_ready(db) else self.fallback

    def __repr__(self) -> str:
        body = "".join(f"\n  {line}" for line in repr(self.body).splitlines())
        return f"while {self.condition} semi-naive {self.recursive} do{body}\nend"


def _entry_copies(before: Sequence[Statement], recursive: Symbol, delta: Symbol) -> bool:
    """Whether Δ provably equals R when a loop placed after ``before`` starts.

    The last write of Δ is ``Δ ← RENAME ⊥ ⊥ (R)`` (an identity copy) after
    the last write of R, or the last writes of R and Δ are ``DEDUP`` of
    one relation that is not rewritten between them.
    """
    footprints = [s.writes() for s in before]

    def last_write(name: Symbol) -> int | None:
        for i in range(len(before) - 1, -1, -1):
            if footprints[i] is None:
                return None
            if name in footprints[i]:
                return i
        return -1

    j, k = last_write(delta), last_write(recursive)
    if j is None or k is None or j < 0:
        return False
    copy = before[j]
    if _is_identity_copy(copy):
        return literal_symbol(copy.args[0]) == recursive and k < j
    if k < 0 or not all(
        isinstance(s, Assignment) and s.spec.name == "DEDUP" for s in (copy, before[k])
    ):
        return False
    source = literal_symbol(copy.args[0])
    lo, hi = sorted((j, k))
    return (
        source is not None
        and literal_symbol(before[k].args[0]) == source
        and source not in (recursive, delta)
        and all(source not in footprints[i] for i in range(lo, hi))
    )


def _semi_naive(before: Sequence[Statement], loop: While) -> SemiNaiveWhile | None:
    """The semi-naive form of ``loop``, or None when it does not qualify."""
    delta = literal_symbol(loop.condition)
    body = loop.body.statements
    if type(loop) is not While or delta is None or len(body) < 5:
        return None
    if not all(
        type(s) is Assignment
        and isinstance(s.target, Lit)
        and all(isinstance(a, Lit) for a in s.args)
        for s in body
    ):
        return None
    prefix, tail = body[:-4], body[-4:]
    if tuple(s.spec.name for s in tail) != ("DIFFERENCE", "DEDUP", "CLASSICALUNION", "DEDUP"):
        return None
    diff, dedup_delta, union, dedup_r = tail
    x, y, recursive = diff.target.symbol, union.target.symbol, dedup_r.target.symbol
    new = diff.args[0].symbol
    if not (
        [a.symbol for a in diff.args] == [new, recursive]
        and dedup_delta.target.symbol == delta
        and dedup_delta.args[0].symbol == x
        and [a.symbol for a in union.args] == [recursive, delta]
        and dedup_r.args[0].symbol == y
        and len({x, y, new, recursive, delta}) == 5
    ):
        return None
    body_writes = {s.target.symbol for s in body}
    written: set[Symbol] = set()
    tainted: set[Symbol] = {recursive}
    inputs: list[Symbol] = []
    for statement in prefix:
        if statement.spec.name not in _PREFIX_OPS or not _literal_params(statement):
            return None
        for arg in statement.args:
            name = arg.symbol
            if name == recursive or name in written:
                continue
            if name in body_writes:
                return None  # carried from the previous iteration, Δ included
            if name not in inputs:
                inputs.append(name)
        target = statement.target.symbol
        if target in (x, y, recursive, delta):
            return None
        if any(a.symbol in tainted for a in statement.args):
            if not _linear_in(statement, tainted):
                return None
            tainted.add(target)
        else:
            tainted.discard(target)
        written.add(target)
    if prefix[-1].target.symbol != new or new not in tainted:
        return None
    if not _entry_copies(before, recursive, delta):
        return None
    return SemiNaiveWhile(loop.condition, prefix, tail, recursive, tuple(inputs))


def _apply_semi_naive(statements: list[Statement], ctx: _Context) -> list[Statement]:
    out: list[Statement] = []
    for statement in statements:
        rewritten = _semi_naive(out, statement) if isinstance(statement, While) else None
        if rewritten is not None:
            ctx.record(
                "semi-naive",
                f"while {rewritten.condition} derives from {rewritten.condition} "
                f"instead of {rewritten.recursive}; New re-derived on exit",
            )
            statement = rewritten
        out.append(statement)
    return out


# ----------------------------------------------------------------------
# The rule registry and the optimize driver
# ----------------------------------------------------------------------


RULES: dict[str, RewriteRule] = {
    rule.name: rule
    for rule in (
        RewriteRule(
            "select-pushdown",
            "σ_{a≈b}∘ρ_{n←o} = ρ_{n←o}∘σ_{a≈b} when {a,b}∩{o,n}=∅; "
            "σ_{a≈b}∘π_A = π_A∘σ_{a≈b} when a,b∈A",
            _apply_select_pushdown,
        ),
        RewriteRule(
            "prune-dead-project",
            "π never raises and assignment replaces its target wholesale, "
            "so an unread, overwritten π store is unobservable; "
            "π_{A₂}∘π_{A₁} = π_{A₁∩A₂}",
            _apply_prune_dead_project,
        ),
        RewriteRule(
            "collapse-idempotent",
            "DEDUP∘DEDUP = DEDUP and TRANSPOSE∘TRANSPOSE = id, and "
            "RENAME ⊥→⊥ is the identity; the intermediate statement is kept",
            _apply_collapse_idempotent,
        ),
        RewriteRule(
            "cse",
            "operations are deterministic functions of their argument "
            "tables; RENAME ⊥→⊥ is the identity, so a duplicate pure "
            "assignment equals a copy of the earlier result",
            _apply_cse,
        ),
        RewriteRule(
            "fuse-product-select",
            "σ_{a≈b}(R × S) = PRODUCTSELECT_{a≈b}(R, S) by definition of "
            "the derived operation",
            _apply_fusion,
        ),
        RewriteRule(
            "join-reorder",
            "× is associative and commutative up to column order and "
            "σ-filters commute, so a chain may be evaluated in any leaf "
            "order when the result is assembled in syntactic order",
            _apply_join_reorder,
        ),
        RewriteRule(
            "select-pushdown-union",
            "σ_{a≈b}(R ∪ S) = σ_{a≈b}(R) ∪ σ_{a≈b}(S): union's ⊥-padding "
            "is invisible to weak equality",
            _apply_select_pushdown_union,
        ),
        RewriteRule(
            "semi-naive",
            "a derivation linear in R distributes over R = R_old ∪ Δ, and "
            "what R_old derives is already in R, so New \\ R lists the same "
            "rows in the same order when derived from Δ; the last iteration "
            "re-derives New from R",
            _apply_semi_naive,
        ),
    )
}

#: Application order of the shipped rules (structural rules first, the
#: fused-statement builders last so they see the normalized program).
RULE_ORDER = (
    "select-pushdown",
    "prune-dead-project",
    "collapse-idempotent",
    "cse",
    "fuse-product-select",
    "join-reorder",
    "select-pushdown-union",
    "semi-naive",
)


class PlanCache:
    """Optimized-plan cache with FIFO eviction, keyed by program text."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._entries: dict = {}
        self.hits = 0
        self.misses = 0

    def get(self, key) -> OptimizationResult | None:
        result = self._entries.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key, result: OptimizationResult) -> None:
        if key not in self._entries and len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = result

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide plan cache (a re-ANALYZE changes the stats
#: fingerprint, so stale plans are never returned — only evicted).
PLAN_CACHE = PlanCache()


class OptimizerStats:
    """Process-wide optimizer counters for the Prometheus export."""

    def __init__(self):
        self.cache = {"hit": 0, "miss": 0}
        self.rewrites: dict[str, int] = {}
        self.ordering: dict[str, int] = {}

    def record_cache(self, hit: bool) -> None:
        self.cache["hit" if hit else "miss"] += 1

    def record_rewrite(self, rule: str) -> None:
        self.rewrites[rule] = self.rewrites.get(rule, 0) + 1

    def record_decision(self, outcome: str) -> None:
        self.ordering[outcome] = self.ordering.get(outcome, 0) + 1

    def snapshot(self) -> dict:
        return {
            "cache": dict(self.cache),
            "rewrites": dict(self.rewrites),
            "ordering": dict(self.ordering),
        }

    def reset(self) -> None:
        self.__init__()


#: The counters behind ``repro metrics --prom --optimizer``.
OPTIMIZER_STATS = OptimizerStats()


def _optimize_statements(
    statements: Sequence[Statement], ctx: _Context, enabled: Sequence[str]
) -> list[Statement]:
    out: list[Statement] = []
    for statement in statements:
        # A semi-naive loop is final: its two bodies must keep one shape.
        if type(statement) is While:
            before = len(ctx.applied)
            body = _optimize_statements(statement.body.statements, ctx, enabled)
            if len(ctx.applied) != before:
                statement = While(statement.condition, Program(body))
        out.append(statement)
    for name in enabled:
        out = RULES[name].apply(out, ctx)
    return out


def _rewrite(
    program: Program, enabled: Sequence[str], stats: DatabaseStats | None = None
) -> tuple[Program, _Context]:
    """Apply ``enabled`` once, While bodies first; ``program`` if nothing applied."""
    ctx = _Context(stats=stats)
    statements = _optimize_statements(program.statements, ctx, enabled)
    return (Program(statements) if ctx.applied else program), ctx


def optimize_program(
    program: Program,
    stats: DatabaseStats | None = None,
    *,
    rules: Iterable[str] | None = None,
    cache: PlanCache | None = PLAN_CACHE,
) -> OptimizationResult:
    """Optimize ``program`` under the enabled rules and ``stats``.

    ``rules`` restricts the pass list (names from :data:`RULE_ORDER`;
    order is fixed, membership is the toggle).  Results are cached under
    ``(program text, stats fingerprint, enabled rules)``; pass
    ``cache=None`` to bypass caching.  The normalized fingerprint only
    names the plan: programs differing in a constant share it.
    """
    if rules is None:
        enabled = RULE_ORDER
    else:
        requested = list(rules)
        unknown = sorted(set(requested) - set(RULES))
        if unknown:
            raise EvaluationError(
                f"unknown rewrite rule(s) {unknown}; known: {sorted(RULES)}"
            )
        enabled = tuple(r for r in RULE_ORDER if r in set(requested))
    from ..obs.workload import fingerprint_program

    stats_fingerprint = stats.fingerprint if stats is not None else ""
    if cache is not None:
        key = (repr(program), stats_fingerprint, enabled)
        cached = cache.get(key)
        if cached is not None:
            OPTIMIZER_STATS.record_cache(True)
            return replace(cached, cache_hit=True)
        OPTIMIZER_STATS.record_cache(False)
    fingerprint = fingerprint_program(program)
    optimized, ctx = _rewrite(program, enabled, stats)
    result = OptimizationResult(
        program=optimized,
        source=program,
        applied=tuple(ctx.applied),
        decisions=tuple(ctx.decisions),
        fingerprint=fingerprint,
        stats_fingerprint=stats_fingerprint,
        rules=enabled,
    )
    for rewrite in result.applied:
        OPTIMIZER_STATS.record_rewrite(rewrite.rule)
        if _ev.EVT.active:
            _ev.emit(
                "plan_rewrite",
                rule=rewrite.rule,
                detail=rewrite.detail,
                fingerprint=fingerprint,
            )
    for decision in result.decisions:
        OPTIMIZER_STATS.record_decision(decision.outcome)
    if cache is not None:
        cache.put(key, result)
    return result


def plan_program(program: Program) -> Program:
    """The vector engine's plan: ``fuse-product-select`` alone.

    No fingerprint, plan cache, ``plan_rewrite`` event or
    :data:`OPTIMIZER_STATS` update; ``program`` itself if nothing fuses.
    """
    return _rewrite(program, ("fuse-product-select",))[0]


def count_fusions(program: Program) -> int:
    """How many product/select pairs :func:`plan_program` fuses."""
    return len(_rewrite(program, ("fuse-product-select",))[1].applied)


# ----------------------------------------------------------------------
# The output-relative program optimizer (repro.algebra.programs.optimize)
# ----------------------------------------------------------------------


def collapse_idempotent_pairs(program: Program) -> Program:
    """``collapse-idempotent`` alone; the intermediates stay."""
    return _rewrite(program, ("collapse-idempotent",))[0]


def eliminate_dead_statements(program: Program, outputs: Iterable[object]) -> Program:
    """Drop statements whose writes never reach ``outputs``.

    Backward liveness over the statement footprint.  Output-relative, so
    not a rule: the full-database contract admits only the
    ``prune-dead-project`` form.  A loop is kept if it writes a live name
    or nothing, and kills no live name (it may run zero times); a
    data-dependent footprint keeps the statement and all before it.
    """
    live: set[Symbol] = set()
    for output in outputs:
        name = literal_symbol(as_parameter(output))
        if name is None:
            return program  # wildcard outputs: give up
        live.add(name)
    statements = program.statements
    kept: list[Statement] = []
    for index in range(len(statements) - 1, -1, -1):
        statement = statements[index]
        reads, writes = statement.reads(), statement.writes()
        if reads is None or writes is None:
            kept.extend(reversed(statements[: index + 1]))
            break
        if isinstance(statement, While):
            if writes & live or not writes:
                kept.append(statement)
                live |= reads
        elif writes & live:
            kept.append(statement)
            live = (live - writes) | reads
    return Program(reversed(kept))
