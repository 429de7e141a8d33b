"""Per-layer time attribution for the traced pass.

:class:`LayerTrace` wraps the public functions of each layer from outside
the program while it is entered and restores them on exit, so untraced
rounds run the unmodified code.  Every binding of a wrapped function is
replaced: module globals that re-export it (``repro.engine.run.plan_program``
next to ``repro.engine.planner.plan_program``), class attributes, the
``OPERATIONS`` specs and the ``KERNELS`` table.

A span's self time is its duration minus the time covered by its child
spans; a request's ``other`` time is its wall time not covered by any span.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

#: Top-level modules whose globals may hold a binding of a wrapped function.
BINDING_PACKAGES = ("repro", "workloads")

#: Layers in pipeline order.
LAYERS = (
    "parse",
    "compile",
    "analyze",
    "optimize",
    "plan",
    "interp",
    "dispatch",
    "chainjoin",
    "op_naive",
    "kernel",
    "checkpoint",
    "ledger",
    "supervisor",
    "bridge",
)

#: The registered TA operations and vector kernels when this benchmark was
#: defined; each gets a named self-time metric.  An op or kernel added later
#: still counts toward its layer's total.
OPS = (
    "UNION", "DIFFERENCE", "INTERSECTION", "PRODUCT", "RENAME", "PROJECT",
    "SELECT", "SELECTCONST", "GROUP", "MERGE", "SPLIT", "COLLAPSE",
    "TRANSPOSE", "SWITCH", "CLEANUP", "PURGE", "TUPLENEW", "SETNEW",
    "PRODUCTSELECT", "CLASSICALUNION", "NATURALJOIN", "DEDUP", "DEDUPCOLUMNS",
    "DROPNULLROWS", "CONSTCOLUMN", "GROUPCOMPACT", "MERGECOMPACT",
    "COLLAPSECOMPACT",
)  # fmt: skip
KERNEL_OPS = (
    "UNION", "DIFFERENCE", "INTERSECTION", "PRODUCT", "PRODUCTSELECT",
    "SELECT", "SELECTCONST", "PROJECT", "RENAME", "TRANSPOSE", "CLEANUP",
    "PURGE", "DEDUP", "DEDUPCOLUMNS", "CLASSICALUNION", "DROPNULLROWS",
    "CONSTCOLUMN",
)  # fmt: skip

#: (layer, module, function) — module-level functions.
FUNCTIONS = (
    ("parse", "repro.algebra.programs.parser", "parse_program"),
    ("parse", "repro.schemalog.parser", "parse_schemalog"),
    ("parse", "repro.schemasql.parser", "parse_schemasql"),
    ("compile", "repro.relational.compile_ta", "compile_program"),
    ("compile", "repro.schemalog.compile_ta", "compile_to_ta"),
    ("compile", "repro.schemasql.compile_ta", "compile_to_ta"),
    ("compile", "repro.good.compile_ta", "compile_to_ta"),
    ("analyze", "repro.obs.stats", "analyze_database"),
    ("optimize", "repro.engine.optimizer", "optimize_program"),
    ("plan", "repro.engine.planner", "plan_program"),
    ("interp", "repro.engine.run", "run_program"),
    ("interp", "repro.runtime.checkpoint", "run_hardened"),
    ("checkpoint", "repro.runtime.checkpoint", "save_checkpoint"),
    ("bridge", "repro.olap.bridge", "relation_table_to_cube"),
    ("bridge", "repro.olap.bridge", "cube_to_grouped_table"),
    ("bridge", "repro.olap.bridge", "cube_to_database"),
    ("bridge", "repro.ndim.bridge", "cube_to_ndtable"),
    ("bridge", "repro.ndim.bridge", "ndtable_to_cube"),
)

#: (layer, module, class, method).  ``OpSpec.invoke`` is handled apart: it
#: is ``dispatch`` except for ChainJoin's pseudo-op, which is ``chainjoin``.
METHODS = (
    ("interp", "repro.algebra.programs.statements", "Program", "run"),
    ("chainjoin", "repro.engine.optimizer", "ChainJoin", "execute"),
    ("chainjoin", "repro.engine.optimizer", "SelectUnion", "execute"),
    ("ledger", "repro.obs.ledger", "RunLedger", "__init__"),
    ("ledger", "repro.obs.ledger", "RunLedger", "record"),
    ("ledger", "repro.obs.ledger", "RunLedger", "record_start"),
    ("ledger", "repro.obs.ledger", "RunLedger", "record_orphan"),
    ("ledger", "repro.obs.ledger", "RunLedger", "record_breaker"),
    ("ledger", "repro.obs.ledger", "RunRecorder", "finish"),
    ("supervisor", "repro.runtime.supervisor", "Supervisor", "__init__"),
    ("supervisor", "repro.runtime.supervisor", "Supervisor", "submit"),
)

#: Per-request counters besides self time and calls.
COUNTERS = (
    ("kernel.fallbacks", "count", "lower"),
    ("kernel.hit_ratio", "ratio", "higher"),
    ("optimize.rewrites", "count", "higher"),
    ("plan.fusions", "count", "higher"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("ledger.bytes", "bytes", "lower"),
    ("supervisor.attempts", "count", "lower"),
)


def metric_catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_ms", "ms", "lower"))
        out.append((f"{layer}.calls", "count", "higher" if layer == "kernel" else "lower"))
    out.append(("other.self_ms", "ms", "lower"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    out.extend(COUNTERS)
    out.extend((f"op_naive.{op}.self_ms", "ms", "lower") for op in OPS)
    out.extend((f"kernel.{op}.self_ms", "ms", "lower") for op in KERNEL_OPS)
    return out


class LayerTrace:
    """Install layer wrappers on ``__enter__``; restore them on ``__exit__``.

    Totals accumulate across requests: call :meth:`begin` before each
    request and read :meth:`covered_s` after it.
    """

    def __init__(self):
        #: (layer, op or None) -> self seconds / calls
        self.self_s: dict[tuple, float] = defaultdict(float)
        self.calls: dict[tuple, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        #: Programs handed to the planner, for counting fusions afterwards.
        self.planned: list = []
        self._stack = [0.0]
        self._undo: list[tuple] = []

    # -- per request -----------------------------------------------------

    def begin(self) -> None:
        self._stack[:] = [0.0]

    def covered_s(self) -> float:
        """Seconds of the last request spent inside some span."""
        return self._stack[0]

    # -- wrappers --------------------------------------------------------

    def _span(self, key: tuple, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                self_s[key] += elapsed - child
                calls[key] += 1

        return traced

    def _after(self, fn, hook):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(result, args)
            return result

        return counted

    # -- installing ------------------------------------------------------

    def _set(self, owner, name, value) -> None:
        self._undo.append((setattr, owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind(self, original, replacement) -> None:
        """Replace every module-global binding of ``original``.

        Scans the package and this benchmark's workload module, whose
        requests call the layers.
        """
        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] not in BINDING_PACKAGES:
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, replacement)

    def __enter__(self) -> "LayerTrace":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _install(self) -> None:
        counters = self.counters
        hooks = {
            "optimize_program": lambda result, _a: counters.__setitem__(
                "optimize.rewrites", counters["optimize.rewrites"] + len(result.applied)
            ),
            "plan_program": lambda _r, args: self.planned.append(args[0]),
            "submit": lambda run, _a: counters.__setitem__(
                "supervisor.attempts", counters["supervisor.attempts"] + len(run.attempts)
            ),
        }

        def sized(save):
            def save_checkpoint(*args, **kwargs):
                path = save(*args, **kwargs)
                counters["checkpoint.bytes"] += os.path.getsize(path)
                return path

            return save_checkpoint

        for layer, module_name, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), name)
            inner = sized(original) if name == "save_checkpoint" else original
            wrapper = self._span((layer, None), inner)
            if name in hooks:
                wrapper = self._after(wrapper, hooks[name])
            self._rebind(original, wrapper)

        for layer, module_name, cls_name, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            wrapper = self._span((layer, None), vars(cls)[name])
            if name in hooks:
                wrapper = self._after(wrapper, hooks[name])
            self._set(cls, name, wrapper)

        from repro.algebra.programs.registry import OPERATIONS, OpSpec
        from repro.engine.kernels import KERNELS
        from repro.engine.optimizer import CHAINJOIN_OP
        from repro.engine.runtime import VectorEngine

        invoke = vars(OpSpec)["invoke"]
        dispatch = self._span(("dispatch", None), invoke)
        chainjoin = self._span(("chainjoin", None), invoke)

        def traced_invoke(spec, tables, arguments, fresh):
            if spec.name == CHAINJOIN_OP:
                return chainjoin(spec, tables, arguments, fresh)
            return dispatch(spec, tables, arguments, fresh)

        self._set(OpSpec, "invoke", traced_invoke)

        # OpSpec is a frozen dataclass: swap ``function`` past its guard.
        for op, spec in OPERATIONS.items():
            original = spec.function
            self._undo.append((object.__setattr__, spec, "function", original))
            object.__setattr__(spec, "function", self._span(("op_naive", op), original))

        def hit(result, _args):
            if result is not None:
                counters["kernel.hits"] += 1

        for op in list(KERNELS):
            self._undo.append((dict.__setitem__, KERNELS, op, KERNELS[op]))
            KERNELS[op] = self._after(self._span(("kernel", op), KERNELS[op]), hit)

        note_fallback = vars(VectorEngine)["note_fallback"]

        def counted_fallback(engine, name, reason):
            counters["kernel.fallbacks"] += 1
            return note_fallback(engine, name, reason)

        self._set(VectorEngine, "note_fallback", counted_fallback)

    def _restore(self) -> None:
        while self._undo:
            setter, owner, name, original = self._undo.pop()
            setter(owner, name, original)

    # -- results ---------------------------------------------------------

    def metrics(self, requests: int, wall_s: float, covered_s: float) -> dict[str, float]:
        """Per-request values of every per-layer metric but the overhead.

        ``wall_s`` and ``covered_s`` are summed over the ``requests``
        traced requests.
        """
        from repro.engine.planner import count_fusions

        per = 1.0 / requests
        values: dict[str, float] = {}
        layer_s: dict[str, float] = defaultdict(float)
        layer_calls: dict[str, int] = defaultdict(int)
        for (layer, op), seconds in self.self_s.items():
            layer_s[layer] += seconds
            layer_calls[layer] += self.calls[(layer, op)]
        for layer in LAYERS:
            values[f"{layer}.self_ms"] = layer_s[layer] * 1e3 * per
            values[f"{layer}.calls"] = layer_calls[layer] * per
        values["other.self_ms"] = (wall_s - covered_s) * 1e3 * per
        hits, fallbacks = self.counters["kernel.hits"], self.counters["kernel.fallbacks"]
        values["kernel.fallbacks"] = fallbacks * per
        values["kernel.hit_ratio"] = hits / (hits + fallbacks) if hits + fallbacks else 0.0
        values["optimize.rewrites"] = self.counters["optimize.rewrites"] * per
        values["plan.fusions"] = sum(count_fusions(p) for p in self.planned) * per
        for name in ("checkpoint.bytes", "ledger.bytes", "supervisor.attempts"):
            values[name] = self.counters[name] * per
        for op in OPS:
            values[f"op_naive.{op}.self_ms"] = self.self_s.get(("op_naive", op), 0.0) * 1e3 * per
        for op in KERNEL_OPS:
            values[f"kernel.{op}.self_ms"] = self.self_s.get(("kernel", op), 0.0) * 1e3 * per
        return values
