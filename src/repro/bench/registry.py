"""Benchmark-area registry.

A :class:`BenchArea` packages one measurable area of the system: a ``run``
callable producing a :class:`~repro.bench.artifacts.BenchResult` and the
per-metric :class:`~repro.bench.compare.MetricPolicy` map its regression
gate uses.  Every area carries a committed ``BENCH_<area>.json`` trajectory
at the repo root and runs by default in ``python -m repro bench`` / CI.

Area modules live in :mod:`repro.bench.areas` and register themselves on
import; :func:`get_area` / :func:`area_names` load them lazily so importing
:mod:`repro.bench` stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping

from .artifacts import BenchResult
from .compare import MetricPolicy

__all__ = ["BenchArea", "register_area", "get_area", "area_names"]

_REGISTRY: Dict[str, "BenchArea"] = {}


@dataclass(frozen=True)
class BenchArea:
    """One registered benchmark area."""

    name: str
    title: str
    run: Callable[[bool], BenchResult]  #: ``run(quick)`` -> result
    policies: Mapping[str, MetricPolicy] = field(default_factory=dict)


def register_area(area: BenchArea) -> BenchArea:
    """Register one area (module-import side effect of ``repro.bench.areas``)."""
    if area.name in _REGISTRY:
        raise ValueError(f"benchmark area {area.name!r} is already registered")
    _REGISTRY[area.name] = area
    return area


def _load_areas() -> None:
    from . import areas  # noqa: F401  (import side effect registers areas)


def get_area(name: str) -> BenchArea:
    """Look up one area by name (raises KeyError with the known names)."""
    _load_areas()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark area {name!r}; known areas: {sorted(_REGISTRY)}"
        ) from None


def area_names() -> List[str]:
    """All registered area names, sorted."""
    _load_areas()
    return sorted(_REGISTRY)
