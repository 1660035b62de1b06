"""Schema'd benchmark artifacts: :class:`BenchResult` and :class:`BenchTrajectory`.

Every benchmark area emits one :class:`BenchResult` per run — a frozen,
JSON-round-trippable record built on the same ``kind`` + ``schema_version``
envelope as the job-spec artifacts (:mod:`repro.api.serialize`), loadable
through :func:`repro.api.load_artifact`.  A :class:`BenchTrajectory` is the
committed history of one area: the ``BENCH_<area>.json`` file at the repo
root that CI gates regressions against (see :mod:`repro.bench.compare`).

Field groups of a result:

* ``workload`` — what was measured (circuit, pattern counts, budgets).
  Stable across machines; two points are only comparable when their
  workloads agree (the ``quick`` flag splits CI-smoke points from full
  local points).
* ``metrics`` — the directional numbers the regression gate classifies
  (speedups, coverages, throughputs).
* ``counters`` — exact integer invariants (compile counts, test lengths,
  signatures); any drift is a behavioural change, not noise.
* ``timing`` / ``peak_rss_bytes`` / ``meta`` — volatile per-run facts
  (wall times, RSS, host fingerprint).  :meth:`BenchResult.canonical_dict`
  scrubs them, exactly like ``PipelineReport.canonical_dict`` scrubs its
  ``seconds`` fields, so round-trip equality tests stay machine-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..api.serialize import SchemaError, artifact, wire

__all__ = [
    "BenchResult",
    "BenchTrajectory",
    "MAX_TRAJECTORY_POINTS",
    "trajectory_path",
    "load_trajectory",
    "save_trajectory",
]

#: Committed trajectories keep a bounded history so ``BENCH_*.json`` files
#: stay reviewable diffs; older points fall off the front.
MAX_TRAJECTORY_POINTS = 50

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _check_scalar_mapping(name: str, mapping: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a JSON-scalar mapping (str keys, scalar values)."""
    checked: Dict[str, Any] = {}
    for key, value in mapping.items():
        if not isinstance(key, str):
            raise ValueError(f"{name} keys must be str, got {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise ValueError(
                f"{name}[{key!r}] must be a JSON scalar, got {type(value).__name__}"
            )
        checked[key] = value
    return checked


def _check_number_mapping(
    name: str, mapping: Mapping[str, Any], integral: bool = False
) -> Dict[str, Any]:
    checked: Dict[str, Any] = {}
    for key, value in mapping.items():
        if not isinstance(key, str):
            raise ValueError(f"{name} keys must be str, got {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name}[{key!r}] must be a number, got {value!r}")
        if integral:
            if not isinstance(value, int):
                raise ValueError(f"{name}[{key!r}] must be an int, got {value!r}")
            checked[key] = int(value)
        else:
            checked[key] = float(value) if not isinstance(value, int) else value
    return checked


@artifact("bench_result")
@dataclass(frozen=True)
class BenchResult:
    """One benchmark run of one area — the schema'd JSON result artifact."""

    area: str
    quick: bool
    workload: Dict[str, Any] = wire(default_factory=dict, required=True)
    metrics: Dict[str, float] = wire(default_factory=dict, required=True)
    counters: Dict[str, int] = wire(default_factory=dict, required=True)
    timing: Dict[str, float] = wire(default_factory=dict, required=True)
    peak_rss_bytes: Optional[int] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.area, str) or not self.area:
            raise ValueError(f"area must be a non-empty str, got {self.area!r}")
        if not isinstance(self.quick, bool):
            raise ValueError(f"quick must be a bool, got {self.quick!r}")
        object.__setattr__(self, "workload", _check_scalar_mapping("workload", self.workload))
        object.__setattr__(self, "metrics", _check_number_mapping("metrics", self.metrics))
        object.__setattr__(
            self, "counters", _check_number_mapping("counters", self.counters, integral=True)
        )
        object.__setattr__(self, "timing", _check_number_mapping("timing", self.timing))
        if self.peak_rss_bytes is not None and (
            isinstance(self.peak_rss_bytes, bool) or not isinstance(self.peak_rss_bytes, int)
        ):
            raise ValueError(f"peak_rss_bytes must be an int, got {self.peak_rss_bytes!r}")
        object.__setattr__(self, "meta", _check_scalar_mapping("meta", self.meta))

    def canonical_dict(self) -> Dict[str, Any]:
        """The artifact dict minus volatile fields (timings, RSS, host meta).

        Two runs of the same workload on any machine that produce the same
        metrics and counters have equal canonical dicts; the round-trip
        tests compare exactly this.
        """
        data = self.to_dict()
        for volatile in ("timing", "peak_rss_bytes", "meta"):
            data.pop(volatile, None)
        return data


@artifact("bench_trajectory")
@dataclass(frozen=True)
class BenchTrajectory:
    """The committed perf history of one area (``BENCH_<area>.json``)."""

    area: str
    points: Tuple[BenchResult, ...] = wire(default=(), required=True)

    def __post_init__(self):
        if not isinstance(self.area, str) or not self.area:
            raise ValueError(f"area must be a non-empty str, got {self.area!r}")
        points = tuple(self.points)
        for point in points:
            if not isinstance(point, BenchResult):
                raise ValueError(f"points must be BenchResult, got {type(point).__name__}")
            if point.area != self.area:
                raise ValueError(
                    f"trajectory for {self.area!r} cannot hold a point of "
                    f"area {point.area!r}"
                )
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)

    def baseline_for(self, quick: bool) -> Optional[BenchResult]:
        """The most recent committed point of the same mode, if any.

        Quick (CI-smoke) and full points measure different workloads, so a
        candidate result is only ever compared against the last point whose
        ``quick`` flag matches.
        """
        for point in reversed(self.points):
            if point.quick == quick:
                return point
        return None

    def with_point(
        self, result: BenchResult, max_points: int = MAX_TRAJECTORY_POINTS
    ) -> "BenchTrajectory":
        """A new trajectory with ``result`` appended (history trimmed)."""
        if result.area != self.area:
            raise ValueError(
                f"cannot append a {result.area!r} result to the "
                f"{self.area!r} trajectory"
            )
        points = (*self.points, result)[-max_points:]
        return BenchTrajectory(area=self.area, points=points)


# --------------------------------------------------------------------------- #
# Trajectory files
# --------------------------------------------------------------------------- #
def trajectory_path(area: str, root: Union[str, Path]) -> Path:
    """The committed trajectory file for ``area`` under ``root``."""
    return Path(root) / f"BENCH_{area}.json"


def load_trajectory(path: Union[str, Path]) -> BenchTrajectory:
    """Read one ``BENCH_<area>.json`` file (raises SchemaError on bad data)."""
    import json

    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return BenchTrajectory.from_dict(data)


def save_trajectory(trajectory: BenchTrajectory, path: Union[str, Path]) -> None:
    """Write one ``BENCH_<area>.json`` file (stable formatting, diff-friendly)."""
    import json

    Path(path).write_text(json.dumps(trajectory.to_dict(), indent=2) + "\n")
