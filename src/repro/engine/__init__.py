"""The vectorized execution backend (docs/ENGINE.md).

Layout:

* :mod:`repro.engine.runtime` — the global ``ENGINE`` switch, the
  ``VectorEngine`` backend object, and the ``engine_scope()`` context
  manager consulted by the operation registry;
* :mod:`repro.engine.interning` — symbol ↔ integer-id interning and the
  :class:`IdTable` id-column table representation;
* :mod:`repro.engine.kernels` — the hash-based kernel catalogue;
* :mod:`repro.engine.optimizer` — the one rewrite framework: the rule
  registry and the While-recursing pass applying it, behind
  ``optimize_program`` (cost-based), ``plan_program`` (the vector plan:
  product/select fusion alone) and the program optimizer of
  :mod:`repro.algebra.programs.optimize`;
* :mod:`repro.engine.run` — ``run_program(..., engine="vector")``;
* :mod:`repro.engine.report` — kernel/fallback attribution reporting.

Only :mod:`~repro.engine.runtime` is imported eagerly: the operation
registry imports this package while the algebra package is still
initialising, so everything that depends on the algebra (optimizer,
run) is exposed lazily via module ``__getattr__``.
"""

from .runtime import ENGINE, FALLBACK_REASONS, VectorEngine, engine_scope

__all__ = [
    "ENGINE",
    "ENGINES",
    "FALLBACK_REASONS",
    "VectorEngine",
    "engine_scope",
    "plan_program",
    "count_fusions",
    "run_program",
    "fallback_report",
    "report_text",
    "optimize_program",
    "OptimizationResult",
    "PlanCache",
    "PLAN_CACHE",
    "OPTIMIZER_STATS",
    "RULES",
    "RULE_ORDER",
    "ChainJoin",
    "SelectUnion",
]

_LAZY = {
    "run_program": ("repro.engine.run", "run_program"),
    "ENGINES": ("repro.engine.run", "ENGINES"),
    "plan_program": ("repro.engine.optimizer", "plan_program"),
    "count_fusions": ("repro.engine.optimizer", "count_fusions"),
    "fallback_report": ("repro.engine.report", "fallback_report"),
    "report_text": ("repro.engine.report", "report_text"),
    "optimize_program": ("repro.engine.optimizer", "optimize_program"),
    "OptimizationResult": ("repro.engine.optimizer", "OptimizationResult"),
    "PlanCache": ("repro.engine.optimizer", "PlanCache"),
    "PLAN_CACHE": ("repro.engine.optimizer", "PLAN_CACHE"),
    "OPTIMIZER_STATS": ("repro.engine.optimizer", "OPTIMIZER_STATS"),
    "RULES": ("repro.engine.optimizer", "RULES"),
    "RULE_ORDER": ("repro.engine.optimizer", "RULE_ORDER"),
    "ChainJoin": ("repro.engine.optimizer", "ChainJoin"),
    "SelectUnion": ("repro.engine.optimizer", "SelectUnion"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
