"""The global engine switch and the ``engine_scope()`` scope.

Mirrors :mod:`repro.obs.runtime`: one module-level singleton,
:data:`ENGINE`, is consulted by the operation registry's raw dispatch.
When ``ENGINE.active`` is False — the default — every invocation runs
the naive operation after a single attribute check::

    from repro.engine.runtime import VectorEngine, engine_scope

    with engine_scope(VectorEngine()) as backend:
        out = program.run(db)
    print(backend.stats)        # fallbacks per operation and reason

Under a scope the naive operation still runs; the backend only counts
each invocation as a fallback, attributed to a reason.  Scopes nest and
restore the previous state on exit, exactly like ``observation()`` and
``governed()``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..obs import events as _ev

__all__ = ["ENGINE", "VectorEngine", "engine_scope", "FALLBACK_REASONS"]

#: The machine-readable vocabulary of fallback reasons.  Every naive
#: fallback under an engine scope is tagged with exactly one of these
#: (``repro engine-report`` attributes 100% of fallbacks to a reason):
#:
#: * ``no_kernel``       — no vectorized kernel is registered for the op
#:   (``KERNELS`` is empty, so every single-result table op);
#: * ``needs_fresh``     — tagging ops mint fresh values, naive-only;
#: * ``multi_result``    — the op returns several tables, naive-only;
#: * ``aggregate``       — COLLAPSE-style ops consume all tables of a
#:   name at once, naive-only.
FALLBACK_REASONS = (
    "no_kernel",
    "needs_fresh",
    "multi_result",
    "aggregate",
)


class _EngineState:
    """The mutable global: one attribute check guards the raw dispatch."""

    __slots__ = ("active", "backend")

    def __init__(self):
        self.active = False
        self.backend: VectorEngine | None = None


#: The process-wide engine state consulted by ``OpSpec._invoke_raw``.
ENGINE = _EngineState()


class VectorEngine:
    """The vector backend's record of one scope: fallbacks by op and reason.

    The registry runs the naive operation for every invocation under the
    scope and calls :meth:`note_fallback` once for each, so ``stats``
    splits the scope's invocations by op and by reason for reporting.
    """

    __slots__ = ("stats",)

    def __init__(self):
        self.stats: dict[str, int] = {"fallbacks": 0}

    def note_fallback(self, name: str, reason: str) -> None:
        """Count one naive fallback, attributed to a machine-readable reason.

        Called by the op registry for every invocation under the scope,
        so ``stats`` accounts for *every* naive execution and the engine
        report can attribute 100% of fallbacks.
        """
        self.stats["fallbacks"] += 1
        self.stats[f"fallback:{name}"] = self.stats.get(f"fallback:{name}", 0) + 1
        key = f"reason:{name}:{reason}"
        self.stats[key] = self.stats.get(key, 0) + 1
        if _ev.EVT.active:
            _ev.emit("engine_fallback", op=name, reason=reason)


@contextmanager
def engine_scope(backend: VectorEngine | None = None) -> Iterator[VectorEngine]:
    """Record every registry dispatch in ``backend`` inside the block."""
    if backend is None:
        backend = VectorEngine()
    previous = (ENGINE.active, ENGINE.backend)
    ENGINE.active, ENGINE.backend = True, backend
    try:
        yield backend
    finally:
        ENGINE.active, ENGINE.backend = previous
