"""The paper's notion of *transformation* and executable condition checkers.

A transformation (Section 4.1, after Chandra–Harel / Abiteboul–Kanellakis /
Van den Bussche et al.) is a recursively enumerable relation
``Q ⊆ inst(N) × inst(N)`` such that

  (i)   **genericity** — Q is invariant under every permutation of 𝒮 that
        is the identity on N ∪ {⊥};
  (ii)  **permutation invariance** — row/column order inside tables is
        immaterial;
  (iii) **symbol growth** — Q(D, D') implies |D| ⊆ |D'|;
  (iv)  **determinacy** — outputs for one input are |D|-isomorphic (new
        values are the only non-determinism);
  (v)   **constructivity** — every automorphism of D extends to an
        automorphism of D'.

On finite instances these conditions are *checkable*, and that is what
this module does: given a Python function ``f`` from databases to
databases (e.g. a compiled tabular algebra program), it samples value
permutations and row/column shuffles and verifies each condition, raising
a :class:`TransformationViolation` or returning a structured report.

These checkers power the Theorem 4.4 benchmark: every tabular algebra
operation must pass (genericity, determinacy, constructivity), and the
completeness pipeline must compute the same transformation in normal form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..core import Symbol, TabularDatabase
from .isomorphism import apply_symbol_map, are_isomorphic, automorphisms, movable_values

__all__ = [
    "TransformationReport",
    "check_transformation",
    "sample_value_permutations",
    "shuffle_database",
    "symbols_grow",
]

Transformation = Callable[[TabularDatabase], TabularDatabase]


@dataclass
class TransformationReport:
    """Outcome of checking the five transformation conditions on samples."""

    generic: bool = True
    permutation_invariant: bool = True
    symbols_grow: bool = True
    determinate: bool = True
    constructive: bool = True
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff every checked condition held on every sample."""
        return (
            self.generic
            and self.permutation_invariant
            and self.symbols_grow
            and self.determinate
            and self.constructive
        )

    def _note(self, condition: str, message: str) -> None:
        setattr(self, condition, False)
        self.failures.append(f"{condition}: {message}")


def sample_value_permutations(
    db: TabularDatabase, samples: int, seed: int = 0
) -> list[dict[Symbol, Symbol]]:
    """Random permutations of ``db``'s values (identity on names and ⊥)."""
    rng = random.Random(seed)
    values = movable_values(db, frozenset())
    permutations = []
    for _ in range(samples):
        shuffled = values[:]
        rng.shuffle(shuffled)
        permutations.append(dict(zip(values, shuffled)))
    return permutations


def shuffle_database(db: TabularDatabase, seed: int | None = 0) -> TabularDatabase:
    """Shuffle the data rows and columns of every table (names fixed).

    ``seed=None`` applies a deterministic full reversal instead of a random
    shuffle — guaranteed non-trivial whenever any table has two or more
    data rows or columns.
    """
    rng = random.Random(seed) if seed is not None else None
    tables = []
    for table in db.tables:
        if rng is None:
            rows = [0] + list(reversed(range(1, table.nrows)))
            cols = [0] + list(reversed(range(1, table.ncols)))
        else:
            rows = [0] + rng.sample(range(1, table.nrows), table.height)
            cols = [0] + rng.sample(range(1, table.ncols), table.width)
        tables.append(table.subtable(rows, cols))
    return TabularDatabase(tables)


def symbols_grow(db_in: TabularDatabase, db_out: TabularDatabase) -> bool:
    """Condition (iii): ``|D| ⊆ |D'|`` (⊥ disregarded).

    The paper's transformations never lose symbols "even if entries no
    longer occur in a particular table"; operationally this corresponds to
    programs that augment the database rather than discarding their
    inputs.
    """
    missing = {s for s in db_in.symbols() if not s.is_null} - set(db_out.symbols())
    return not missing


def check_transformation(
    f: Transformation,
    db: TabularDatabase,
    samples: int = 3,
    seed: int = 0,
    check_growth: bool = False,
    max_automorphisms: int = 24,
) -> TransformationReport:
    """Check the transformation conditions for ``f`` at input ``db``.

    ``check_growth`` is off by default because single algebra operations
    legitimately discard symbols; enable it for full programs that retain
    their inputs.  ``samples`` controls how many random value permutations
    and shuffles are tried per condition.
    """
    report = TransformationReport()
    base_symbols = frozenset(db.symbols())
    output = f(db)

    # (i) genericity: f(π D) must be |π D|-isomorphic to π(f D).
    for k, perm in enumerate(sample_value_permutations(db, samples, seed)):
        permuted_in = apply_symbol_map(db, perm)
        lhs = f(permuted_in)
        rhs = apply_symbol_map(output, perm)
        if not are_isomorphic(lhs, rhs, fixed=frozenset(permuted_in.symbols())):
            report._note("generic", f"value permutation #{k} not respected")
            break

    # (ii) permutation invariance: row/column order of the input is moot.
    # The first sample is a deterministic full reversal (never a no-op on
    # non-trivial tables); the rest are random shuffles.
    shuffle_seeds: list[int | None] = [None] + [seed + k + 1 for k in range(samples - 1)]
    for k, shuffle_seed in enumerate(shuffle_seeds):
        shuffled = shuffle_database(db, seed=shuffle_seed)
        if not are_isomorphic(f(shuffled), output, fixed=base_symbols):
            report._note("permutation_invariant", f"shuffle #{k} changed the result")
            break

    # (iii) symbol growth.
    if check_growth and not symbols_grow(db, output):
        report._note("symbols_grow", "output lost input symbols")

    # (iv) determinacy: two runs differ only in the choice of new values.
    second = f(db)
    if not are_isomorphic(second, output, fixed=base_symbols):
        report._note("determinate", "two runs are not |D|-isomorphic")

    # (v) constructivity: every automorphism of D extends to one of D'.
    from .isomorphism import find_isomorphism

    auts = automorphisms(db)
    if len(auts) > max_automorphisms:
        auts = auts[:max_automorphisms]
    output_symbols = frozenset(output.symbols())
    for phi in auts:
        # ψ must agree with φ on every shared symbol — including the
        # symbols φ fixes, which ψ therefore must fix too.
        shared_map = {k: v for k, v in phi.items() if k in output_symbols}
        if any(v not in output_symbols for v in shared_map.values()):
            report._note(
                "constructive", f"automorphism {phi} maps outside the output symbols"
            )
            break
        extension = find_isomorphism(output, output, partial=shared_map)
        if extension is None:
            report._note(
                "constructive", f"automorphism {phi} does not extend to the output"
            )
            break

    return report
