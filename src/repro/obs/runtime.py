"""The ``observation()`` scope and the lineage slot.

Every instrumented site — the operation registry, the interpreters, the
compilers, the OLAP/n-dim bridges, the governor — publishes on the one
event feed (:mod:`repro.obs.events`), guarded by ``EVT.active``; with
the feed off each falls through after a single attribute check, and
tracing code never runs: this is the "strict no-op" contract the
zero-overhead tests pin down.

:func:`observation` is the way to switch collection on::

    from repro.obs import observation

    with observation() as obs:
        program.run(db)
    print(obs.explain())        # nested span tree + per-op metrics table
    data = obs.to_json()        # same report as plain data

Entering the scope switches the event feed on and installs a fresh
:class:`~repro.obs.trace.Tracer` as its observer, which builds every
span from the events; the metrics are a fold over the finished spans.
The previous state is restored on exit, so scopes nest: an inner
``observation()`` shadows the outer one and the outer resumes
untouched.  The scope is process-global; threads spawned *inside* it
record into the same tracer (each with its own span stack).

:data:`OBS` holds the one thing the feed does not: the active
:func:`~repro.obs.lineage.lineage` scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from . import events as _ev
from .metrics import MetricsRegistry
from .trace import Span, Tracer

__all__ = ["OBS", "Observation", "counts_provenance", "observation"]


class _ObsState:
    """The mutable global holding the active lineage scope."""

    __slots__ = ("lineage",)

    def __init__(self):
        #: The active :class:`repro.obs.lineage.Lineage` scope, or None.
        #: Independent of the event feed — provenance can run without
        #: tracing and vice versa; both default off.
        self.lineage = None


#: The process-wide lineage state consulted by the provenance-aware ops.
OBS = _ObsState()


def counts_provenance() -> bool:
    """Whether provenance counts ride along on the feed.

    The op spans' ``prov_cells_in``/``prov_cells_out``, a statement's
    ``prov_cells`` and a loop's ``prov_frontier`` each scan the tables,
    so they are computed only while an ``observation()`` collects inside
    a :func:`~repro.obs.lineage.lineage` scope — the one rule every
    site follows.
    """
    return _ev.EVT.observer is not None and OBS.lineage is not None


class Observation:
    """What one ``observation()`` scope collected."""

    __slots__ = ("tracer",)

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    @property
    def spans(self) -> tuple[Span, ...]:
        """Completed top-level spans."""
        return self.tracer.roots

    @property
    def metrics(self) -> MetricsRegistry:
        """Per-op metrics and counters, folded from the completed spans."""
        return MetricsRegistry.from_spans(self.spans)

    def explain(self, timings: bool = True) -> str:
        """The EXPLAIN report: span tree plus metrics tables.

        ``timings=False`` suppresses wall-clock figures, making the text
        deterministic (used by the golden-output tests).
        """
        from .explain import explain_text

        return explain_text(self, timings=timings)

    def to_json(self) -> dict:
        """The same report as JSON-serializable data."""
        from .explain import explain_json

        return explain_json(self)

    def __repr__(self) -> str:
        return f"Observation({len(self.spans)} root spans)"


@contextmanager
def observation(memory: bool = False) -> Iterator[Observation]:
    """Enable collection for the duration of the ``with`` block.

    ``memory=True`` asks the tracer to record per-span peak allocations;
    it only takes effect while ``tracemalloc`` is tracing (the
    :func:`repro.obs.profile.profile` scope manages that for you).
    """
    obs = Observation(Tracer(memory=memory))
    evt = _ev.EVT
    previous = (evt.active, evt.observer)
    evt.observer = obs.tracer
    evt.active = True
    try:
        yield obs
    finally:
        evt.active, evt.observer = previous
