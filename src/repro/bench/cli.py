"""``python -m repro bench`` — run benchmark areas and gate the perf trajectory.

Subforms::

    python -m repro bench [AREA ...] [--quick] [--check] [--update]
                          [--json-dir DIR] [--root PATH]
    python -m repro bench list
    python -m repro bench report [--root PATH] [--points N]

Without areas, every registered area runs (each has a committed
``BENCH_<area>.json`` trajectory at the repo root; ``bench list`` names
them), each in a freshly started interpreter, so its peak RSS is its own.
Every run is compared against the last committed point of the same mode
(quick vs. full) and the per-metric delta table is printed.

* ``--check``  — exit non-zero on any gated regression (or on a missing
  baseline for an area).  This is the CI gate.
* ``--update`` — append the new point to ``BENCH_<area>.json`` (the PR
  author's workflow: run with ``--update``, commit the file).
* ``--json-dir`` — additionally write the candidate trajectory files to a
  directory (CI uploads these as artifacts without touching the repo).
* ``report``   — render the per-PR delta table from the committed
  trajectories (last point vs. its predecessor).

Examples::

    python -m repro bench --quick --check            # what CI runs
    python -m repro bench substrate bist --update    # refresh two baselines
    python -m repro bench report
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import List, Optional, Sequence

from .artifacts import (
    BenchResult,
    BenchTrajectory,
    load_trajectory,
    save_trajectory,
    trajectory_path,
)
from .compare import Comparison, compare_results, format_comparison
from .registry import area_names, get_area

__all__ = ["main", "default_root"]


def default_root() -> Path:
    """Directory holding the committed ``BENCH_*.json`` trajectories.

    Walks up from the current directory to the first ancestor containing a
    trajectory file (so the command works from anywhere inside a checkout);
    falls back to the current directory.
    """
    current = Path.cwd().resolve()
    for candidate in (current, *current.parents):
        if any(candidate.glob("BENCH_*.json")):
            return candidate
    return Path.cwd()


def _load_or_empty(area_name: str, root: Path) -> BenchTrajectory:
    path = trajectory_path(area_name, root)
    if path.exists():
        return load_trajectory(path)
    return BenchTrajectory(area=area_name)


def _run_one(
    area_name: str,
    quick: bool,
    root: Path,
    update: bool,
    json_dir: Optional[Path],
) -> Comparison:
    area = get_area(area_name)
    print(f"== {area_name}: {area.title}", flush=True)
    # A freshly started interpreter per area (spawn, not fork), so peak RSS
    # and process-wide caches belong to this area alone.
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as pool:
        result = pool.submit(area.run, quick).result()
    _print_result(result)

    trajectory = _load_or_empty(area_name, root)
    baseline = trajectory.baseline_for(quick)
    comparison = compare_results(result, baseline, area.policies)
    print(format_comparison(comparison))

    candidate = trajectory.with_point(result)
    if update:
        path = trajectory_path(area_name, root)
        save_trajectory(candidate, path)
        print(f"updated {path} ({len(candidate)} point(s))")
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
        path = trajectory_path(area_name, json_dir)
        save_trajectory(candidate, path)
        print(f"wrote candidate {path}")
    print()
    return comparison


def _print_result(result: BenchResult) -> None:
    workload = ", ".join(f"{key}={value}" for key, value in result.workload.items())
    print(f"workload: {workload}")
    for name, seconds in result.timing.items():
        print(f"  {name:<28} {seconds:10.3f} s")
    if result.peak_rss_bytes is not None:
        print(f"  {'peak_rss':<28} {result.peak_rss_bytes / 2**20:10.1f} MiB")


def _cmd_run(args: argparse.Namespace) -> int:
    names = args.areas or area_names()
    root = Path(args.root) if args.root else default_root()
    json_dir = Path(args.json_dir) if args.json_dir else None
    failures: List[str] = []
    for name in names:
        comparison = _run_one(name, args.quick, root, args.update, json_dir)
        for delta in comparison.failures():
            failures.append(f"{name}: {delta.name} {delta.status} ({delta.note or 'gated'})")
        if args.check and comparison.baseline_missing and not args.update:
            failures.append(
                f"{name}: no committed baseline point for this mode in "
                f"{trajectory_path(name, root)} — run with --update and commit it"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if args.check else 0
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for name in area_names():
        print(f"{name:<24} {get_area(name).title}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    root = Path(args.root) if args.root else default_root()
    paths = sorted(root.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json trajectories under {root}", file=sys.stderr)
        return 2
    if args.plot_dir:
        from .plot import render_all

        trajectories = [load_trajectory(path) for path in paths]
        for plot_path in render_all(trajectories, Path(args.plot_dir)):
            print(f"wrote plot {plot_path}")
        print()
    for path in paths:
        trajectory = load_trajectory(path)
        try:
            policies = get_area(trajectory.area).policies
        except KeyError:
            policies = {}
        print(f"== {trajectory.area} ({path.name}, {len(trajectory)} point(s))")
        points = trajectory.points[-args.points :]
        for point in points:
            recorded = point.meta.get("recorded_at", "?")
            mode = "quick" if point.quick else "full"
            headline = ", ".join(
                f"{name}={value:.4g}" for name, value in list(point.metrics.items())[:3]
            )
            print(f"  {recorded}  [{mode:<5}] {headline}")
        last = trajectory.points[-1]
        previous = BenchTrajectory(
            area=trajectory.area, points=trajectory.points[:-1]
        ).baseline_for(last.quick)
        if previous is not None:
            print(format_comparison(compare_results(last, previous, policies)))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument(
        "areas",
        nargs="*",
        help="benchmark areas to run (default: every area; "
        "see 'python -m repro bench list')",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-smoke workloads (smaller budgets)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on gated regressions vs. the committed trajectory",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="append the new point to BENCH_<area>.json (commit the result)",
    )
    parser.add_argument(
        "--json-dir",
        metavar="DIR",
        help="also write candidate trajectory JSONs to this directory",
    )
    parser.add_argument(
        "--root",
        metavar="PATH",
        help="directory of the committed BENCH_*.json files "
        "(default: nearest ancestor holding one)",
    )
    parser.add_argument(
        "--points",
        type=int,
        default=5,
        help="history points to show per area in 'report' (default: %(default)s)",
    )
    parser.add_argument(
        "--plot-dir",
        metavar="DIR",
        help="in 'report': also render the committed trajectories as plot "
        "artifacts (one image per area) into this directory",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.areas and args.areas[0] == "list":
        return _cmd_list(args)
    if args.areas and args.areas[0] == "report":
        return _cmd_report(args)
    try:
        for name in args.areas:
            get_area(name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    return _cmd_run(args)
