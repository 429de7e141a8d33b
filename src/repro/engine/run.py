"""The backend switch: run a program on the naive or vectorized engine.

``run_program(program, db, engine="vector")`` is the library entry point
(``Program.run(engine=...)`` delegates here).  The vector path plans the
program (product/select fusion), then executes it inside an
:func:`~repro.engine.runtime.engine_scope`, so the operation registry
routes each invocation through the kernel catalogue with per-invocation
fallback to the naive operations.
:func:`~repro.runtime.checkpoint.run_hardened`, and with it
``repro run --engine``, does not come through here: it plans the program
and enters the engine scope itself.

``optimize=True`` additionally runs the program through the cost-based
optimizer (:mod:`repro.engine.optimizer`) before execution — on either
backend — using ``stats`` (or the active estimation scope's stats
snapshot) to drive join ordering.
"""

from __future__ import annotations

from ..core import EvaluationError, FreshValueSource, TabularDatabase
from .optimizer import optimize_program, plan_program
from .runtime import VectorEngine, engine_scope

__all__ = ["ENGINES", "run_program"]

#: The recognised values of the ``engine=`` switch.
ENGINES = ("naive", "vector")


def run_program(
    program,
    db: TabularDatabase,
    *,
    engine: str | None = "naive",
    fresh: FreshValueSource | None = None,
    max_while_iterations: int = 10_000,
    backend: VectorEngine | None = None,
    optimize: bool = False,
    stats=None,
) -> TabularDatabase:
    """Run ``program`` on ``db`` under the selected backend.

    ``engine=None`` or ``"naive"`` is the plain interpreter,
    ``"vector"`` plans the program and dispatches through the kernels.
    Pass a ``backend`` to inspect its ``stats`` afterwards (a fresh one
    is created per run otherwise, keeping the interner's id space
    bounded to the run).  ``optimize=True`` applies the cost-based
    rewrite rules first; ``stats`` is a
    :class:`~repro.obs.stats.DatabaseStats` snapshot for join ordering
    (defaults to the active estimation scope's snapshot, if any).
    """
    if optimize:
        from ..obs import estimator as _est

        if stats is None and _est.EST.active and _est.EST.estimator is not None:
            stats = _est.EST.estimator.stats
        program = optimize_program(program, stats).program
    if engine in (None, "naive"):
        return program.run(
            db, fresh=fresh, max_while_iterations=max_while_iterations
        )
    if engine != "vector":
        raise EvaluationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    planned = plan_program(program)
    with engine_scope(backend):
        return planned.run(
            db, fresh=fresh, max_while_iterations=max_while_iterations
        )
