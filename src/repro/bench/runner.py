"""Measurement substrate of the benchmark harness.

A :class:`BenchRunner` accumulates one :class:`~repro.bench.artifacts.BenchResult`
while an area runs: timed sections with repeat/warmup control (best-of-N wall
time, the idiom all the standalone benches used, and an interleaved form for
the two sides of a gated ratio), exact counters (e.g.
``repro.lowered.compile_count()`` deltas via :meth:`BenchRunner.compile_delta`),
directional metrics, and peak-RSS sampling stamped at finish time together
with a host/interpreter fingerprint in ``meta``.
"""

from __future__ import annotations

import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .artifacts import BenchResult

__all__ = ["Measurement", "BenchRunner", "best_of", "interleaved_best_of", "peak_rss_bytes"]


def peak_rss_bytes() -> Optional[int]:
    """Peak resident-set size of this process in bytes (None if unavailable).

    On Linux this is ``VmHWM`` from ``/proc/self/status``, the high-water
    mark of the address space since the process was started (exec'd).
    Elsewhere it is ``resource.getrusage``'s ``ru_maxrss`` (KiB on Linux,
    bytes on macOS, normalized to bytes); Linux carries that one across
    exec, so a freshly started child would read its parent's pages too.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform.system() == "Darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024


@dataclass(frozen=True)
class Measurement:
    """Timing of one benchmark section."""

    name: str
    best_seconds: float
    mean_seconds: float
    repeats: int
    value: Any  #: return value of the measured callable (last repeat)


def best_of(
    fn: Callable[[], Any], repeats: int = 3, warmup: int = 0, name: str = "section"
) -> Measurement:
    """Run ``fn`` ``warmup + repeats`` times; keep the best repeat wall time.

    Warmup runs are executed but not timed (they absorb one-time costs the
    caller wants *outside* the measurement — e.g. kernel-compile caches).
    Taking the minimum over repeats filters scheduler noise on shared
    runners, matching the previous per-script best-of loops.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    value = None
    for _ in range(warmup):
        value = fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - start)
    return Measurement(
        name=name,
        best_seconds=min(times),
        mean_seconds=sum(times) / len(times),
        repeats=repeats,
        value=value,
    )


def interleaved_best_of(
    fns: Mapping[str, Callable[[], Any]], min_seconds: float, repeats: int = 3
) -> Dict[str, Measurement]:
    """Best-of timings of several sections, run in alternation.

    Each round runs every section once, in order; rounds go on until every
    section has run ``repeats`` times and for ``min_seconds`` of wall time
    in total.  A ratio of two sections then compares minima taken under the
    same machine load, and a section of a few milliseconds gets as many
    samples as it needs for a stable minimum.  The first round is timed too:
    one-time costs stay inside the first sample, as with :func:`best_of`.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    times: Dict[str, list] = {name: [] for name in fns}
    values: Dict[str, Any] = {}
    while any(len(t) < repeats or sum(t) < min_seconds for t in times.values()):
        for name, fn in fns.items():
            if len(times[name]) >= repeats and sum(times[name]) >= min_seconds:
                continue
            start = time.perf_counter()
            values[name] = fn()
            times[name].append(time.perf_counter() - start)
    return {
        name: Measurement(
            name=name,
            best_seconds=min(t),
            mean_seconds=sum(t) / len(t),
            repeats=len(t),
            value=values[name],
        )
        for name, t in times.items()
    }


class BenchRunner:
    """Collects workload facts, timings, counters and metrics for one area run."""

    def __init__(self, area: str, quick: bool = False, repeats: int = 3, warmup: int = 0):
        self.area = area
        self.quick = bool(quick)
        self.repeats = repeats
        self.warmup = warmup
        self._workload: Dict[str, Any] = {}
        self._metrics: Dict[str, float] = {}
        self._counters: Dict[str, int] = {}
        self._timing: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def workload(self, **facts: Any) -> None:
        """Record workload parameters (circuit, budgets, sizes)."""
        self._workload.update(facts)

    def metric(self, name: str, value: float) -> None:
        """Record one directional metric (classified by the regression gate)."""
        self._metrics[name] = value

    def counter(self, name: str, value: int) -> None:
        """Record one exact integer invariant (gated with zero tolerance)."""
        self._counters[name] = value

    def timing(self, name: str, seconds: float) -> None:
        """Record one volatile wall time (tracked, never gated)."""
        self._timing[name] = seconds

    def measure(
        self,
        name: str,
        fn: Callable[[], Any],
        repeats: Optional[int] = None,
        warmup: Optional[int] = None,
    ) -> Measurement:
        """Time ``fn`` best-of-N and record it as ``<name>_seconds``."""
        measurement = best_of(
            fn,
            repeats=self.repeats if repeats is None else repeats,
            warmup=self.warmup if warmup is None else warmup,
            name=name,
        )
        self.timing(f"{name}_seconds", measurement.best_seconds)
        return measurement

    def measure_interleaved(
        self, fns: Mapping[str, Callable[[], Any]], min_seconds: float
    ) -> Dict[str, Measurement]:
        """Time ``fns`` by :func:`interleaved_best_of`; record each as ``<name>_seconds``."""
        measurements = interleaved_best_of(fns, min_seconds, repeats=self.repeats)
        for name, measurement in measurements.items():
            self.timing(f"{name}_seconds", measurement.best_seconds)
        return measurements

    @contextmanager
    def timed(self, name: str):
        """Context manager timing one section as ``<name>_seconds`` (1 shot)."""
        start = time.perf_counter()
        yield
        self.timing(f"{name}_seconds", time.perf_counter() - start)

    @contextmanager
    def compile_delta(self, name: str = "lowerings"):
        """Record the ``repro.lowered.compile_count()`` delta over a section."""
        from ..lowered import compile_count

        before = compile_count()
        yield
        self.counter(name, compile_count() - before)

    # ------------------------------------------------------------------ #
    # Finish
    # ------------------------------------------------------------------ #
    def result(self, speedup: Optional[Tuple[str, str]] = None) -> BenchResult:
        """Freeze the run into a :class:`BenchResult`.

        Args:
            speedup: optional ``(baseline, candidate)`` pair of section names
                previously timed via :meth:`measure`; records the ratio of
                their best wall times as the ``speedup`` metric.
        """
        if speedup is not None:
            baseline, candidate = speedup
            self.metric(
                "speedup",
                self._timing[f"{baseline}_seconds"] / self._timing[f"{candidate}_seconds"],
            )
        import numpy

        from ..analysis import native

        return BenchResult(
            area=self.area,
            quick=self.quick,
            workload=dict(self._workload),
            metrics=dict(self._metrics),
            counters=dict(self._counters),
            timing=dict(self._timing),
            peak_rss_bytes=peak_rss_bytes(),
            meta={
                "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "python": platform.python_version(),
                "platform": platform.platform(),
                "numpy": numpy.__version__,
                "cop_tier": native.tier(),
            },
        )
