"""Bench area ``session`` — pipeline compile-reuse contract + API round trips.

Runs the full paper pipeline (analyze → optimize → quantize → fault-simulate)
for several registry circuits as in-process specs
(``execute_spec(PipelineSpec(circuit=<Circuit>, key=...), store=...)``) and
verifies the compile-reuse contract of the lowered-circuit IR:

* each circuit is lowered **exactly once** across all pipeline stages,
* a repeated run through the same store performs **zero** additional
  lowerings,
* a fresh, structurally identical rebuild also performs zero lowerings
  (the content-addressed cache keyed by ``Circuit.structural_hash``), and
* every ``PipelineReport`` and ``PipelineSpec`` survives its JSON round
  trip exactly (the artifact seam the CLI and batch executor rely on).

The lowering counts and round-trip failures are exact gated counters; the
deterministic per-circuit test lengths and coverages gate behavioural drift.
"""

from __future__ import annotations

import json

from ...api import FaultSimConfig, OptimizeConfig, PipelineSpec, execute_spec
from ...circuits import build_circuit
from ...lowered import compile_count, compile_lowered
from ...pipeline import PipelineReport
from ...store import MemoryStore
from ..artifacts import BenchResult
from ..compare import RSS_POLICY, MetricPolicy
from ..registry import BenchArea, register_area
from ..runner import BenchRunner

#: Default workload: the two smallest substituted ISCAS-class circuits (fast
#: enough for CI).
DEFAULT_KEYS = ("c432", "c499")

_QUICK = dict(n_patterns=512, max_sweeps=2)
_FULL = dict(n_patterns=4_000, max_sweeps=8)


def area_spec(key: str, n_patterns: int, max_sweeps: int) -> PipelineSpec:
    """The spec the area runs for one registry circuit, embedded inline."""
    return PipelineSpec(
        circuit=build_circuit(key),
        key=key,
        optimize=OptimizeConfig(max_sweeps=max_sweeps),
        fault_sim=FaultSimConfig(n_patterns=n_patterns),
    )


def run_bench(quick: bool = False, keys=DEFAULT_KEYS) -> BenchResult:
    """Run the pipeline twice (plus a rebuilt lowering) and audit lowerings."""
    budget = _QUICK if quick else _FULL
    n_patterns, max_sweeps = budget["n_patterns"], budget["max_sweeps"]
    keys = list(keys)

    runner = BenchRunner("session", quick=quick)
    runner.workload(
        circuits=",".join(keys), n_patterns=n_patterns, max_sweeps=max_sweeps
    )

    specs = [area_spec(key, n_patterns, max_sweeps) for key in keys]
    store = MemoryStore()
    before = compile_count()
    with runner.timed("first_run"):
        reports = [execute_spec(spec, store=store) for spec in specs]
    runner.counter("first_run_lowerings", compile_count() - before)

    # Job-spec API round trips: report → JSON → report and spec → JSON →
    # spec must be exact (the seam the CLI artifacts and run_jobs use).
    roundtrip_failures = 0
    for report in reports:
        wire = json.loads(json.dumps(report.to_dict()))
        if PipelineReport.from_dict(wire).canonical_dict() != report.canonical_dict():
            roundtrip_failures += 1
    for spec in specs:
        if PipelineSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) != spec:
            roundtrip_failures += 1
    runner.counter("roundtrip_failures", roundtrip_failures)

    before_second = compile_count()
    with runner.timed("second_run"):
        for spec in specs:
            execute_spec(spec, store=store)
    runner.counter("second_run_lowerings", compile_count() - before_second)

    # Fresh (isomorphic) circuit instances: the content-addressed cache must
    # serve every lowering.
    before_rebuilt = compile_count()
    for key in keys:
        compile_lowered(build_circuit(key))
    runner.counter("rebuilt_session_lowerings", compile_count() - before_rebuilt)

    excess = 0
    for report in reports:
        runner.counter(f"{report.key}_conventional_length", report.conventional_length)
        runner.counter(f"{report.key}_optimized_length", report.optimized_length)
        runner.metric(f"{report.key}_optimized_coverage", report.optimized_coverage)
        excess += max(0, report.lowerings - 1)
    runner.counter("excess_lowerings_per_circuit", excess)
    return runner.result()


def check_reuse(result: BenchResult) -> list:
    """The compile-reuse invariants as a list of violations (empty = pass)."""
    failures = []
    n = len(result.workload["circuits"].split(","))
    if result.counters["first_run_lowerings"] > n:
        failures.append(
            f"first run lowered {result.counters['first_run_lowerings']} times "
            f"for {n} circuits (expected at most one lowering per circuit)"
        )
    for name, message in (
        ("roundtrip_failures", "JSON round trips drifted"),
        ("second_run_lowerings", "repeated run re-lowered circuits"),
        ("rebuilt_session_lowerings", "isomorphic rebuild re-lowered circuits"),
        ("excess_lowerings_per_circuit", "a circuit lowered more than once"),
    ):
        if result.counters[name] != 0:
            failures.append(f"{name}={result.counters[name]}: {message}")
    return failures


def _run_checked(quick: bool = False) -> BenchResult:
    result = run_bench(quick=quick)
    failures = check_reuse(result)
    if failures:
        raise AssertionError("; ".join(failures))
    return result


AREA = register_area(
    BenchArea(
        name="session",
        title="in-process pipeline specs: compile reuse + artifact round trips",
        run=_run_checked,
        policies={
            "c432_optimized_coverage": MetricPolicy(direction="higher", abs_tol=1e-9),
            "c499_optimized_coverage": MetricPolicy(direction="higher", abs_tol=1e-9),
            "peak_rss_bytes": RSS_POLICY,
        },
    )
)
