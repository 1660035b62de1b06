"""Benchmark harness: schema'd results, committed perf trajectories, CI gates.

Layers (leaf to top):

* :mod:`repro.bench.artifacts` — :class:`BenchResult` / :class:`BenchTrajectory`,
  the ``schema_version``'d JSON artifacts committed as ``BENCH_<area>.json``;
* :mod:`repro.bench.runner` — :class:`BenchRunner`, timed sections with
  repeat/warmup control, peak-RSS sampling and compile-count deltas;
* :mod:`repro.bench.compare` — :class:`MetricPolicy` tolerances and the
  regression classification against the last committed point;
* :mod:`repro.bench.registry` / :mod:`repro.bench.areas` — the benchmark
  areas, every one gated in CI against its committed trajectory;
* :mod:`repro.bench.cli` — ``python -m repro bench``.
"""

from .artifacts import (
    BenchResult,
    BenchTrajectory,
    load_trajectory,
    save_trajectory,
    trajectory_path,
)
from .compare import Comparison, MetricDelta, MetricPolicy, compare_results, format_comparison
from .registry import BenchArea, area_names, get_area, register_area
from .runner import BenchRunner, Measurement, best_of, peak_rss_bytes

__all__ = [
    "BenchResult",
    "BenchTrajectory",
    "trajectory_path",
    "load_trajectory",
    "save_trajectory",
    "MetricPolicy",
    "MetricDelta",
    "Comparison",
    "compare_results",
    "format_comparison",
    "BenchArea",
    "register_area",
    "get_area",
    "area_names",
    "BenchRunner",
    "Measurement",
    "best_of",
    "peak_rss_bytes",
]
