"""Profiling on top of observation: self-time hotspots, wall-time
histograms, and per-span peak memory.

:func:`profile` is an :func:`~repro.obs.runtime.observation` scope that
additionally switches on ``tracemalloc`` (so every span records its peak
allocation as ``mem_peak_kb``) and hands back a :class:`Profile` that
post-processes the collected span trees:

* **hotspots** — top-k operations by *self time* (a span's duration
  minus its children's), the attribution a flame graph would give;
* **histograms** — per-operation wall-time distributions over
  logarithmic buckets, so a bimodal operation is visible where a mean
  would hide it;
* **memory** — per-operation maximum ``mem_peak_kb``.

Typical use::

    from repro.obs.profile import profile

    with profile() as prof:
        program.run(db)
    print(prof.report())

``python -m repro profile <example>`` wraps exactly this, with optional
Chrome-trace / JSON-lines exports (see :mod:`repro.obs.export`).
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from .runtime import Observation, observation
from .trace import Span

__all__ = ["Hotspot", "Profile", "profile"]

#: Histogram bucket upper bounds, milliseconds (the last bucket is open).
HISTOGRAM_EDGES_MS = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 1000.0)


@dataclass(frozen=True)
class Hotspot:
    """Aggregated profile of one span name."""

    name: str
    calls: int
    self_ms: float
    total_ms: float
    mem_peak_kb: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "self_ms": round(self.self_ms, 6),
            "total_ms": round(self.total_ms, 6),
            "mem_peak_kb": round(self.mem_peak_kb, 3),
        }


def _self_seconds(span: Span) -> float:
    """A span's duration minus the time attributed to its children."""
    return max(0.0, span.duration - sum(child.duration for child in span.children))


class Profile:
    """Post-processed view of one profiling run's span trees."""

    __slots__ = ("observation",)

    def __init__(self, obs: Observation):
        self.observation = obs

    # -- aggregation ----------------------------------------------------

    def _spans(self) -> Iterator[Span]:
        for root in self.observation.spans:
            yield from root.walk()

    def hotspots(self, k: int = 10) -> list[Hotspot]:
        """Top-``k`` span names by accumulated self time."""
        acc: dict[str, list[float]] = {}
        for span in self._spans():
            entry = acc.setdefault(span.name, [0.0, 0.0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += _self_seconds(span)
            entry[2] += span.duration
            entry[3] = max(entry[3], float(span.attributes.get("mem_peak_kb", 0.0)))
        spots = [
            Hotspot(name, int(calls), self_s * 1e3, total_s * 1e3, mem_kb)
            for name, (calls, self_s, total_s, mem_kb) in acc.items()
        ]
        spots.sort(key=lambda h: (-h.self_ms, h.name))
        return spots[: max(0, k)]

    def histogram(self) -> dict[str, list[int]]:
        """Per-name wall-time histograms over :data:`HISTOGRAM_EDGES_MS`.

        Each value has ``len(HISTOGRAM_EDGES_MS) + 1`` buckets; the last
        catches everything beyond the final edge.
        """
        out: dict[str, list[int]] = {}
        for span in self._spans():
            buckets = out.setdefault(span.name, [0] * (len(HISTOGRAM_EDGES_MS) + 1))
            ms = span.duration * 1e3
            for index, edge in enumerate(HISTOGRAM_EDGES_MS):
                if ms <= edge:
                    buckets[index] += 1
                    break
            else:
                buckets[-1] += 1
        return out

    def total_ms(self) -> float:
        """Wall time summed over the root spans."""
        return sum(root.duration for root in self.observation.spans) * 1e3

    # -- rendering ------------------------------------------------------

    def report(self, k: int = 10, timings: bool = True) -> str:
        """The text profile: hotspot table, histograms, total time.

        ``timings=False`` keeps only structural facts (names, calls,
        bucket counts stripped), for deterministic tests.
        """
        spots = self.hotspots(k)
        if not spots:
            return "(nothing profiled)"
        lines = [f"top {len(spots)} by self time" if timings else f"top {len(spots)} spans"]
        name_width = max(len(spot.name) for spot in spots)
        for spot in spots:
            line = f"  {spot.name:<{name_width}}  calls={spot.calls}"
            if timings:
                line += f"  self={spot.self_ms:.3f}ms  total={spot.total_ms:.3f}ms"
                if spot.mem_peak_kb:
                    line += f"  peak_mem={spot.mem_peak_kb:.1f}KiB"
            lines.append(line)
        if timings:
            lines.append("")
            lines.append("wall-time histogram (ms buckets)")
            histogram = self.histogram()
            shown = {spot.name for spot in spots}
            edges = [f"≤{edge:g}" for edge in HISTOGRAM_EDGES_MS] + ["more"]
            for name in sorted(histogram):
                if name not in shown:
                    continue
                cells = [
                    f"{label}:{count}"
                    for label, count in zip(edges, histogram[name])
                    if count
                ]
                lines.append(f"  {name:<{name_width}}  " + "  ".join(cells))
            lines.append("")
            lines.append(f"total traced wall time: {self.total_ms():.3f}ms")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The profile as JSON-serializable data (plus the raw report)."""
        return {
            "hotspots": [spot.as_dict() for spot in self.hotspots(k=1_000_000)],
            "histogram_edges_ms": list(HISTOGRAM_EDGES_MS),
            "histograms": self.histogram(),
            "total_ms": round(self.total_ms(), 6),
        }

    def __repr__(self) -> str:
        return f"Profile({len(self.observation.spans)} root spans)"


@contextmanager
def profile(memory: bool = True) -> Iterator[Profile]:
    """An observation scope with profiling extras switched on.

    ``memory=True`` starts ``tracemalloc`` for the duration (unless it
    is already tracing, in which case the caller keeps ownership) so
    spans carry ``mem_peak_kb``; note that tracing *itself* slows
    allocation-heavy code — profile timings are for attribution, the
    benchmarks are for absolute numbers.
    """
    started_tracing = False
    if memory and not tracemalloc.is_tracing():
        tracemalloc.start()
        started_tracing = True
    try:
        with observation(memory=memory) as obs:
            yield Profile(obs)
    finally:
        if started_tracing:
            tracemalloc.stop()
