"""Tabular algebra program optimization (the paper's announced future work).

"Query (and program) optimization is an important issue."  The compilers
(Theorems 4.1/4.5, GOOD) emit long chains of reserved temporaries; these
passes clean them up without changing the program's *outputs*:

* **idempotent-pair collapsing** — ``DEDUP`` of a ``DEDUP`` reads the
  original source, and ``TRANSPOSE`` of a ``TRANSPOSE`` becomes an
  identity copy of it (the ``collapse-idempotent`` rule);
* **dead-statement elimination** — drop statements whose writes never
  reach the given outputs (loop bodies stay conservative: anything read
  inside a loop, or steering its condition, stays live).

Both are entry points into the rewrite framework of
:mod:`repro.engine.optimizer` — one rule registry, one While-recursing
rule pass, one statement footprint — imported on first use because the
engine depends on this package.  They never touch statements with
wildcard arguments, whose footprint is data-dependent.
"""

from __future__ import annotations

from typing import Iterable

from .statements import Program

__all__ = ["eliminate_dead_statements", "collapse_idempotent_pairs", "optimize"]


def eliminate_dead_statements(program: Program, outputs: Iterable[object]) -> Program:
    """Drop statements whose targets never reach ``outputs``."""
    from ...engine import optimizer

    return optimizer.eliminate_dead_statements(program, outputs)


def collapse_idempotent_pairs(program: Program) -> Program:
    """Rewrite idempotent and involutive chains to skip the intermediate.

    ``T ← DEDUP(S); U ← DEDUP(T)`` becomes ``T ← DEDUP(S); U ← DEDUP(S)``
    and ``T ← TRANSPOSE(S); U ← TRANSPOSE(T)`` becomes
    ``T ← TRANSPOSE(S); U ← RENAME ⊥ ⊥ (S)``.  The intermediate statement
    is kept; a subsequent dead-statement pass removes it when nothing
    reads it.
    """
    from ...engine import optimizer

    return optimizer.collapse_idempotent_pairs(program)


def optimize(program: Program, outputs: Iterable[object]) -> Program:
    """The standard pipeline: collapse chains, then drop dead statements."""
    return eliminate_dead_statements(collapse_idempotent_pairs(program), outputs)
