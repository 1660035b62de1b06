"""Span recording around the public entry points of each ``repro`` layer.

The program has no tracing of its own, so the benchmark wraps the layers'
public functions and methods from the outside (:func:`install`) and keeps
the spans in memory.  Each span records its name, layer, thread, parent
span, start and end (``time.monotonic_ns``, which is one system-wide clock,
so spans from the job-service process and the client line up) and a few
work counters read from the layer's own public results.

Nothing here runs at import time; :func:`install` must be called after
``repro`` is importable and before the workload starts.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
import weakref
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Layers below the API.  Time an op spends outside spans of these layers
#: is "unattributed" (executor bookkeeping, planning, gaps between calls).
WORK_LAYERS = (
    "circuits",
    "lowered",
    "faults",
    "analysis",
    "core",
    "faultsim",
    "patterns",
    "wrp",
    "serialize",
    "store",
    "service",
)


class Tracer:
    """In-memory span store; thread-safe for the GIL-serialised appends."""

    def __init__(self, id_base: int = 0) -> None:
        # Processes that merge their spans use disjoint ``id_base`` values.
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(id_base + 1)
        self._local = threading.local()
        self.pid = os.getpid()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Dict[str, Any]:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else 0,
            "name": name,
            "layer": layer,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "start": time.monotonic_ns(),
            "end": 0,
            "args": {},
        }
        stack.append(span)
        return span

    def close(self, span: Dict[str, Any], keep: bool = True) -> None:
        span["end"] = time.monotonic_ns()
        self._stack().pop()
        if keep:
            self.spans.append(span)

    def active(self, name: str) -> bool:
        return any(span["name"] == name for span in self._stack())

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[Dict[str, Any]]:
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


def _wrapper(
    tracer: Tracer,
    fn: Callable,
    name: str,
    layer: str,
    counters: Optional[Callable[..., Dict[str, Any]]] = None,
) -> Callable:
    """``fn`` inside a span; a re-entrant call of the same name is not split."""

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if tracer.active(name):
            return fn(*args, **kwargs)
        span = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
            if counters is not None:
                span["args"].update(counters(result, *args, **kwargs))
            return result
        finally:
            tracer.close(span)

    return traced


def _patch_function(module_name: str, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace a function in its module and wherever it was imported by name."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = make(original)
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _patch_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(cls, attr, make(getattr(cls, attr)))


def _first_cone_query(tracer: Tracer, fn: Callable) -> Callable:
    """Span only the first cone query of each lowering (it builds the cone data)."""
    seen: "weakref.WeakSet" = weakref.WeakSet()
    inner = _wrapper(tracer, fn, "lowered.cone", "lowered")

    @functools.wraps(fn)
    def traced(self: Any, *args: Any, **kwargs: Any) -> Any:
        if self in seen or tracer.active("lowered.cone"):
            return fn(self, *args, **kwargs)
        seen.add(self)
        return inner(self, *args, **kwargs)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark measures."""
    import repro  # noqa: F401  (imports the modules that hold patched names)
    from repro.analysis.compiled import BatchedCopEstimator
    from repro.circuits.sources import CircuitSource
    from repro.core.optimizer import WeightOptimizer
    from repro.faultsim.parallel import ParallelFaultSimulator
    from repro.lowered import LoweredCircuit, compile_count
    from repro.patterns.bilbo import SelfTestSession
    from repro.patterns.weighted import WeightedPatternGenerator
    from repro.pipeline.session import PipelineReport
    from repro.service.jobs import JobService
    from repro.simulation.compiled import CompiledCircuit
    from repro.store.base import ArtifactStore

    def span(name: str, layer: str, counters=None):
        return lambda fn: _wrapper(tracer, fn, name, layer, counters)

    def lowering(fn: Callable) -> Callable:
        # compile_lowered is called for every engine lookup; only the calls
        # that actually lowered (compile_count() moved) become spans.
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open("lowered.lower", "lowered")
            before = compile_count()
            try:
                return fn(*args, **kwargs)
            finally:
                span["args"]["lowerings"] = compile_count() - before
                tracer.close(span, keep=span["args"]["lowerings"] > 0)

        return traced

    def run_stats(result: Any, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        stats = result.stats
        return {
            "faults_simulated": stats.faults_simulated,
            "faults_dropped": stats.faults_dropped,
        }

    def kernel_work(result: Any, engine: Any, faults: Any, good: Any, n_words: int,
                    valid_mask: Any = None) -> Dict[str, Any]:
        if valid_mask is None:
            patterns = 64 * int(n_words)
        else:
            patterns = sum(bin(int(word)).count("1") for word in valid_mask)
        cone = sum(int(engine.fault_cone(fault).size) for fault in faults)
        return {"pairs": len(faults) * patterns, "cone_gate_patterns": cone * patterns}

    _patch_method(CircuitSource, "build", span("circuits.build", "circuits"))
    _patch_function("repro.lowered.cache", "compile_lowered", lowering)
    for attr in ("cone_gates", "fault_cone"):
        _patch_method(LoweredCircuit, attr, lambda fn: _first_cone_query(tracer, fn))
    _patch_function(
        "repro.faults.collapse",
        "collapsed_fault_list",
        span("faults.collapse", "faults", lambda r, *a, **k: {"n_faults": len(r)}),
    )
    _patch_method(
        BatchedCopEstimator, "detection_probabilities_batch", span("analysis.cop", "analysis")
    )
    _patch_function("repro.analysis.redundancy", "remove_redundant", span("analysis.redundancy", "analysis"))
    _patch_method(
        WeightOptimizer, "optimize", span("core.optimize", "core", lambda r, *a, **k: {"sweeps": r.sweeps})
    )
    _patch_function("repro.faultsim.coverage", "random_pattern_coverage", span("faultsim.coverage", "faultsim"))
    _patch_method(ParallelFaultSimulator, "__init__", span("faultsim.init", "faultsim"))
    _patch_method(ParallelFaultSimulator, "run_stream", span("faultsim.run", "faultsim", run_stats))
    _patch_method(CompiledCircuit, "fault_batch_detection", span("faultsim.kernel", "faultsim", kernel_work))
    _patch_method(WeightedPatternGenerator, "generate", span("patterns.generate", "patterns"))
    _patch_method(
        SelfTestSession,
        "__init__",
        span("patterns.selftest", "patterns", lambda r, s, *a, **k: {"patterns": int(s.n_patterns)}),
    )
    _patch_method(SelfTestSession, "run", span("patterns.selftest", "patterns"))
    _patch_function(
        "repro.wrp.multiset", "build_weight_sets", span("wrp.build", "wrp", lambda r, *a, **k: {"n_sets": r.k})
    )
    _patch_function("repro.wrp.session", "run_multi_weight_session", span("wrp.playback", "wrp"))
    _patch_function("repro.api.plan", "build_plan", span("api.plan", "api"))
    _patch_function("repro.api.executor", "execute_spec", span("api.execute", "api"))
    _patch_method(PipelineReport, "to_dict", span("serialize.report_encode", "serialize"))
    _patch_method(ArtifactStore, "load", span("store.load", "store"))
    _patch_method(ArtifactStore, "put", span("store.put", "store"))
    _patch_method(JobService, "submit", span("service.submit", "service"))
