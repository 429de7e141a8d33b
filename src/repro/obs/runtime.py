"""The global observation switch and the ``observation()`` scope.

The engine's instrumentation points (the operation registry, the
interpreter, the compilers, the OLAP/n-dim bridges) all consult one
module-level singleton, :data:`OBS`.  When ``OBS.active`` is False —
the default — every instrumented call site falls through after a single
attribute check, and tracing/metrics code never runs; this is the
"strict no-op" contract the zero-overhead tests pin down.

:func:`observation` is the way to switch collection on::

    from repro.obs import observation

    with observation() as obs:
        program.run(db)
    print(obs.explain())        # nested span tree + per-op metrics table
    data = obs.to_json()        # same report as plain data

Entering the scope installs a fresh :class:`~repro.obs.trace.Tracer`,
switches the event feed on and hands every event to the tracer's
collector, which builds the op spans; the metrics are a fold over the
finished spans.  The previous state is restored on exit, so scopes nest:
an inner ``observation()`` shadows the outer one and the outer resumes
untouched.  The scope is process-global; threads spawned *inside* it
record into the same tracer (each with its own span stack).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from . import events as _ev
from .metrics import MetricsRegistry
from .trace import NULL_SPAN, Span, Tracer

__all__ = ["OBS", "Observation", "observation", "span"]


class _ObsState:
    """The mutable global: one attribute check guards every hot path."""

    __slots__ = ("active", "tracer", "lineage")

    def __init__(self):
        self.active = False
        self.tracer: Tracer | None = None
        #: The active :class:`repro.obs.lineage.Lineage` scope, or None.
        #: Independent of ``active`` — provenance can run without tracing
        #: and vice versa; both default off.
        self.lineage = None


#: The process-wide observation state consulted by all instrumentation.
OBS = _ObsState()


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
    previous = (OBS.active, OBS.tracer, evt.active, evt.observer)
    OBS.tracer, evt.observer = obs.tracer, obs.tracer.collect
    OBS.active = evt.active = True
    try:
        yield obs
    finally:
        OBS.active, OBS.tracer, evt.active, evt.observer = previous


def span(name: str, **attributes):
    """A span under the active tracer, or the shared no-op span.

    The one-line guard used by the OLAP and n-dim bridges::

        with _span("bridge.cube_to_ndtable", arity=cube.arity):
            ...
    """
    if OBS.active:
        return OBS.tracer.span(name, **attributes)
    return NULL_SPAN
