"""The global engine switch and the ``engine_scope()`` scope.

Mirrors :mod:`repro.obs.runtime`: one module-level singleton,
:data:`ENGINE`, is consulted by the operation registry's raw dispatch.
When ``ENGINE.active`` is False — the default — every invocation falls
through to the naive operation after a single attribute check, so the
vectorized backend costs nothing unless switched on::

    from repro.engine.runtime import VectorEngine, engine_scope

    with engine_scope(VectorEngine()) as backend:
        out = program.run(db)
    print(backend.stats)        # kernel hits / fallbacks per operation

Scopes nest and restore the previous state on exit, exactly like
``observation()`` and ``governed()``.  The backend holds the symbol
interner, so tables interned by one kernel stay interned for the next —
entering a fresh scope per program run keeps the id space bounded.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping, Sequence

from ..obs import events as _ev
from ..obs import runtime as _obs

__all__ = ["ENGINE", "VectorEngine", "engine_scope", "FALLBACK_REASONS"]

#: The machine-readable vocabulary of fallback reasons.  Every naive
#: fallback under an engine scope is tagged with exactly one of these
#: (``repro engine-report`` attributes 100% of fallbacks to a reason):
#:
#: * ``no_kernel``       — no vectorized kernel is registered for the op;
#: * ``lineage_active``  — a lineage scope is live and kernels cannot
#:   thread per-cell provenance;
#: * ``kernel_declined`` — the kernel inspected the inputs and declined;
#: * ``needs_fresh``     — tagging ops mint fresh values, naive-only;
#: * ``multi_result``    — the op returns several tables, naive-only;
#: * ``aggregate``       — COLLAPSE-style ops consume all tables of a
#:   name at once, naive-only.
FALLBACK_REASONS = (
    "no_kernel",
    "lineage_active",
    "kernel_declined",
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
    """The vectorized backend: an interner plus a kernel catalogue.

    ``dispatch`` is the single entry point: given a registered operation
    name, the argument tables, and the already-evaluated keyword
    arguments, it either returns the result table computed by a
    hash-based kernel over interned integer ids, or ``None`` to signal
    that the naive operation must run instead (no kernel, an active
    lineage scope, or a kernel that declines the inputs).

    The decision is *per invocation*, so a single program can mix
    vectorized SELECTs with naive GROUPs statement by statement; the
    ``stats`` counters record the split for EXPLAIN-style reporting.
    """

    __slots__ = ("interner", "kernels", "stats")

    def __init__(self):
        from .interning import SymbolInterner
        from .kernels import KERNELS

        self.interner = SymbolInterner()
        self.kernels = KERNELS
        self.stats: dict[str, int] = {"kernel_calls": 0, "fallbacks": 0}

    def note_fallback(self, name: str, reason: str) -> None:
        """Count one naive fallback, attributed to a machine-readable reason.

        Called by :meth:`dispatch` for its own declines and by the op
        registry for the invocations it never offers to the backend
        (tagging, multi-result, and aggregate ops), so ``stats`` accounts
        for *every* naive execution under the scope — the engine report
        can attribute 100% of fallbacks, not just the dispatched ones.
        """
        self.stats["fallbacks"] += 1
        self.stats[f"fallback:{name}"] = self.stats.get(f"fallback:{name}", 0) + 1
        key = f"reason:{name}:{reason}"
        self.stats[key] = self.stats.get(key, 0) + 1
        if _ev.EVT.active:
            _ev.emit("engine_fallback", op=name, reason=reason)

    def dispatch(self, name: str, tables: Sequence, arguments: Mapping[str, object]):
        """A result :class:`~repro.core.table.Table`, or None to fall back.

        Lineage-active runs always fall back: the kernels rebuild rows
        from interned ids, which cannot thread per-cell provenance the
        way the naive operations do.
        """
        kernel = self.kernels.get(name)
        if kernel is None:
            self.note_fallback(name, "no_kernel")
            return None
        if _obs.OBS.lineage is not None:
            self.note_fallback(name, "lineage_active")
            return None
        result = kernel(self.interner, tables, arguments)
        if result is None:
            self.note_fallback(name, "kernel_declined")
            return None
        self.stats["kernel_calls"] += 1
        self.stats[f"kernel:{name}"] = self.stats.get(f"kernel:{name}", 0) + 1
        if _ev.EVT.active:
            _ev.emit("engine_dispatch", op=name, rows_in=sum(t.height for t in tables))
        return result


@contextmanager
def engine_scope(backend: VectorEngine | None = None) -> Iterator[VectorEngine]:
    """Route registry dispatch through ``backend`` inside the block."""
    if backend is None:
        backend = VectorEngine()
    previous = (ENGINE.active, ENGINE.backend)
    ENGINE.active, ENGINE.backend = True, backend
    try:
        yield backend
    finally:
        ENGINE.active, ENGINE.backend = previous
