"""Content-addressed compilation cache for the lowered-circuit IR.

:func:`compile_lowered` is the single entry point every engine goes through
to obtain a :class:`~repro.lowered.ir.LoweredCircuit`.  Caching happens at
two levels:

* **per instance** — the artifact is pinned on the circuit object, so
  repeated compiles of the same (immutable) instance are attribute lookups;
* **process-wide, content-addressed** — a weak-value map keyed by
  :meth:`Circuit.structural_hash`, so structurally identical rebuilds (same
  gates and wiring, regardless of net names or instance identity) share one
  lowering and therefore one set of compiled engines.  Entries are weak:
  once every circuit pinning a lowering is garbage-collected the artifact
  (engines, cone bitsets and all) is released too, exactly like the old
  per-instance caches.  A small strong LRU of the most recently used
  artifacts (:data:`_MAX_ENTRIES`) additionally keeps hot lowerings alive
  across transient rebuilds without retaining every structure ever compiled.

:func:`compile_count` counts actual lowerings performed, which is what
:func:`repro.api.execute_spec` (the report's ``lowerings`` field) and the CI
compile-reuse smoke check use to assert that a pipeline run lowers its
circuit exactly once across all of its stages.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict

from ..circuit.netlist import Circuit
from .ir import LoweredCircuit

__all__ = [
    "compile_lowered",
    "compile_count",
    "clear_lowered_cache",
    "lowered_cache_info",
]

#: Number of recently used lowerings kept alive by a strong reference even
#: when no circuit instance pins them (LRU eviction).  Everything else lives
#: only as long as some circuit (or engine user) references it.
_MAX_ENTRIES = 16

_CACHE: "weakref.WeakValueDictionary[str, LoweredCircuit]" = weakref.WeakValueDictionary()
_RECENT: "OrderedDict[str, LoweredCircuit]" = OrderedDict()
_STATS: Dict[str, int] = {"compile_events": 0, "hits": 0, "evictions": 0}
#: Guards the three structures above: the job service compiles from worker
#: threads.  Held across a lowering, so concurrent compiles of one structure
#: lower it once.
_LOCK = threading.RLock()


def _touch(key: str, lowered: LoweredCircuit) -> None:
    """Mark ``key`` most-recently-used in the strong LRU (lock held)."""
    _RECENT[key] = lowered
    _RECENT.move_to_end(key)
    while len(_RECENT) > _MAX_ENTRIES:
        _RECENT.popitem(last=False)
        _STATS["evictions"] += 1


def compile_lowered(circuit: Circuit) -> LoweredCircuit:
    """Lower ``circuit`` (cached per instance and per structural hash).

    Circuits are immutable by convention, so the lowering — including its
    lazily grown fan-out cone caches and the domain engines hung off it — is
    shared by every consumer of the same structure.  As a guard against
    in-place mutation, a cached artifact whose gate count no longer matches
    the circuit is discarded and the circuit is re-lowered.
    """
    lowered = getattr(circuit, "_lowered_ir", None)
    if lowered is not None and lowered.n_gates == circuit.n_gates:
        return lowered
    key = circuit.structural_hash()
    with _LOCK:
        lowered = _CACHE.get(key)
        if lowered is not None and lowered.n_gates != circuit.n_gates:
            lowered = None  # stale digest memo on a mutated circuit
        if lowered is None:
            lowered = LoweredCircuit(circuit)
            _STATS["compile_events"] += 1
            _CACHE[key] = lowered
        else:
            _STATS["hits"] += 1
        _touch(key, lowered)
    circuit._lowered_ir = lowered
    return lowered


def compile_count() -> int:
    """Number of actual lowerings performed since process start (or clear).

    Cache hits (instance-level or content-addressed) do not increment this;
    the pipeline façade snapshots it around each stage to prove that one
    lowering serves the whole analyze → optimize → quantize → fault-simulate
    run.
    """
    return _STATS["compile_events"]


def lowered_cache_info() -> Dict[str, int]:
    """Cache statistics: live entries, strong LRU size/capacity, counters."""
    with _LOCK:
        return {
            "size": len(_CACHE),
            "strong_size": len(_RECENT),
            "max_size": _MAX_ENTRIES,
            "compile_events": _STATS["compile_events"],
            "hits": _STATS["hits"],
            "evictions": _STATS["evictions"],
        }


def clear_lowered_cache() -> None:
    """Drop every cached lowering and reset the statistics (for tests).

    Instance-pinned artifacts survive (they belong to their circuits); only
    the process-wide content cache and the strong LRU are cleared.
    """
    with _LOCK:
        _CACHE.clear()
        _RECENT.clear()
        _STATS["compile_events"] = 0
        _STATS["hits"] = 0
        _STATS["evictions"] = 0
