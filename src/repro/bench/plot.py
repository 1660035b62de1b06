"""Render committed ``BENCH_*.json`` perf trajectories as plot artifacts.

One image per area: small multiples, one panel per metric, with the quick-
and full-mode series drawn separately (their workloads differ, so mixing
them in one line would fabricate jumps).  The output is a dependency-free
hand-written SVG, so rendering never adds a dependency to the bench gate.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .artifacts import BenchTrajectory

__all__ = ["render_trajectory", "render_all"]

#: (label, color) per mode.
_MODES: Tuple[Tuple[str, str], ...] = (("full", "#1f77b4"), ("quick", "#ff7f0e"))


def _series(trajectory: BenchTrajectory) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """``metric -> mode -> [(point index, value), ...]`` in first-seen order.

    Counters ride along with metrics — a trajectory plot is about evolution,
    and deterministic counters evolving (gate counts, test lengths) is
    exactly what a reviewer wants to see.  Point indices stay global so
    quick/full series of one metric share the x axis.
    """
    series: Dict[str, Dict[str, List[Tuple[int, float]]]] = {}
    for index, point in enumerate(trajectory.points):
        mode = "quick" if point.quick else "full"
        for name, value in list(point.metrics.items()) + list(point.counters.items()):
            series.setdefault(name, {}).setdefault(mode, []).append(
                (index, float(value))
            )
    return series


def _fmt(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:.4g}"


def _render_svg(trajectory: BenchTrajectory, series, path: Path) -> None:
    """Dependency-free small-multiples SVG (one panel row per metric)."""
    panel_w, panel_h, pad, label_w = 520, 56, 10, 230
    names = list(series)
    width = label_w + panel_w + 2 * pad
    height = pad + 24 + len(names) * (panel_h + pad) + pad
    n_points = max(len(trajectory.points), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{pad}" y="{pad + 12}" font-family="monospace" font-size="14" '
        f'font-weight="bold">{trajectory.area} — {n_points} committed point(s)</text>',
    ]
    for row, name in enumerate(names):
        top = pad + 24 + row * (panel_h + pad)
        values = [v for points in series[name].values() for _, v in points]
        lo, hi = min(values), max(values)
        span = (hi - lo) or 1.0
        parts.append(
            f'<text x="{pad}" y="{top + panel_h / 2}" font-family="monospace" '
            f'font-size="11">{name}</text>'
        )
        parts.append(
            f'<rect x="{label_w}" y="{top}" width="{panel_w}" height="{panel_h}" '
            f'fill="#f7f7f7" stroke="#cccccc"/>'
        )
        for mode, color in _MODES:
            points = series[name].get(mode)
            if not points:
                continue
            coords = []
            for index, value in points:
                x = label_w + (
                    panel_w / 2
                    if n_points == 1
                    else index * panel_w / (n_points - 1)
                )
                y = top + panel_h - 6 - (value - lo) / span * (panel_h - 12)
                coords.append(f"{x:.1f},{y:.1f}")
            if len(coords) == 1:
                x, y = coords[0].split(",")
                parts.append(
                    f'<circle cx="{x}" cy="{y}" r="3" fill="{color}"/>'
                )
            else:
                parts.append(
                    f'<polyline points="{" ".join(coords)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
        parts.append(
            f'<text x="{label_w + panel_w - 6}" y="{top + 12}" '
            f'font-family="monospace" font-size="9" fill="#666666" '
            f'text-anchor="end">last {_fmt(values[-1])} '
            f"[{_fmt(lo)}, {_fmt(hi)}]</text>"
        )
    legend = "  ".join(f"{label}={color}" for label, color in _MODES)
    parts.append(
        f'<text x="{pad}" y="{height - 4}" font-family="monospace" '
        f'font-size="9" fill="#666666">{legend}</text>'
    )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def render_trajectory(trajectory: BenchTrajectory, out_dir: Path) -> Optional[Path]:
    """Render one area trajectory into ``out_dir``; None when it has no points."""
    series = _series(trajectory)
    if not series:
        return None
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"bench_{trajectory.area}.svg"
    _render_svg(trajectory, series, path)
    return path


def render_all(trajectories: Sequence[BenchTrajectory], out_dir: Path) -> List[Path]:
    """Render every trajectory; returns the written paths."""
    paths = []
    for trajectory in trajectories:
        path = render_trajectory(trajectory, out_dir)
        if path is not None:
            paths.append(path)
    return paths
