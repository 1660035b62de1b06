"""Bench area ``service`` — the zero-recompute contract of the artifact store.

Exercises the spec → plan → execute → persist stack end to end and gates
the ROADMAP's north-star claim — *a million identical requests cost one
compilation and one run* — as exact counters:

* **cold batch**: M distinct specs (seed variants) through
  :func:`repro.api.run_jobs` over a fresh disk store — every spec executes
  (``cold_executions == M``), nothing hits;
* **warm batch**: the first spec resubmitted N times through the same
  store — **zero** pipeline executions, **zero** lowerings, N report-level
  store hits, and every served report bit-identical
  (:meth:`~repro.pipeline.session.PipelineReport.canonical_dict`) to the
  cold run;
* **service burst**: N concurrent HTTP-layer submissions of one new spec
  into a live :class:`repro.service.JobService` — exactly one execution,
  N−1 in-flight dedups, and a follow-up submission served from the store
  with an identical artifact.

All counters are gated exactly (any drift fails CI); the phase timings are
tracked but never gated.
"""

from __future__ import annotations

import asyncio
import tempfile

from ...api import PipelineSpec, run_jobs
from ...api.executor import execution_count
from ...api.jobs import iter_jobs
from ...api.spec import FaultSimConfig, OptimizeConfig
from ...lowered import compile_count
from ...store import DiskStore
from ..artifacts import BenchResult
from ..compare import RSS_POLICY
from ..registry import BenchArea, register_area
from ..runner import BenchRunner

#: Distinct cold specs (seed variants) and identical warm resubmissions.
N_DISTINCT = 3
N_RESUBMITS = 5

_QUICK = dict(n_patterns=256, max_sweeps=2)
_FULL = dict(n_patterns=2_000, max_sweeps=4)


def _spec(seed: int, budget: dict) -> PipelineSpec:
    return PipelineSpec(
        circuit="s1",
        seed=seed,
        optimize=OptimizeConfig(max_sweeps=budget["max_sweeps"]),
        fault_sim=FaultSimConfig(n_patterns=budget["n_patterns"]),
    )


async def _service_burst(spec: PipelineSpec, runner: BenchRunner) -> None:
    """N concurrent submissions of one spec: one execution, N-1 dedups."""
    from ...service import JobService

    service = JobService(parallelism=1)
    spec_dict = spec.to_dict()
    with runner.timed("service_burst"):
        jobs = [service.submit(spec_dict) for _ in range(N_RESUBMITS)]
        job = jobs[0][0]
        await job.wait_done()
    dispositions = [disposition for _, disposition in jobs]
    runner.counter("service_executed", service.counters["executed"])
    runner.counter(
        "service_inflight_dedup", dispositions.count("inflight")
    )
    resubmit_job, disposition = service.submit(spec_dict)
    runner.counter(
        "service_store_hits", int(disposition == "hit" and resubmit_job.cached)
    )
    runner.counter(
        "service_report_drift",
        int(resubmit_job.artifact != job.artifact or job.artifact is None),
    )
    await service.shutdown(grace=5.0)


def run_bench(quick: bool = False) -> BenchResult:
    budget = _QUICK if quick else _FULL
    runner = BenchRunner("service", quick=quick)
    runner.workload(
        circuits="s1",
        n_patterns=budget["n_patterns"],
        max_sweeps=budget["max_sweeps"],
        n_distinct=N_DISTINCT,
        n_resubmits=N_RESUBMITS,
    )

    specs = [_spec(1987 + i, budget) for i in range(N_DISTINCT)]
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        store = DiskStore(root)

        executions = execution_count()
        with runner.timed("cold_batch"):
            cold_reports = run_jobs(specs, store=store)
        runner.counter("cold_executions", execution_count() - executions)
        runner.counter("cold_store_report_hits", 0)  # fresh store: by definition

        executions = execution_count()
        lowerings = compile_count()
        store_hits = 0
        drift = 0
        with runner.timed("warm_batch"):
            for result in iter_jobs([specs[0]] * N_RESUBMITS, store=store):
                store_hits += int(result.store_hit)
                drift += int(
                    result.report.canonical_dict() != cold_reports[0].canonical_dict()
                )
        runner.counter("warm_executions", execution_count() - executions)
        runner.counter("warm_lowerings", compile_count() - lowerings)
        runner.counter("warm_store_hits", store_hits)
        runner.counter("warm_report_drift", drift)

    asyncio.run(_service_burst(_spec(4242, budget), runner))
    return runner.result()


def check_zero_recompute(result: BenchResult) -> list:
    """The zero-recompute invariants as a list of violations (empty = pass)."""
    failures = []
    expectations = {
        "cold_executions": N_DISTINCT,
        "warm_executions": 0,
        "warm_lowerings": 0,
        "warm_store_hits": N_RESUBMITS,
        "warm_report_drift": 0,
        "service_executed": 1,
        "service_inflight_dedup": N_RESUBMITS - 1,
        "service_store_hits": 1,
        "service_report_drift": 0,
    }
    for name, expected in expectations.items():
        got = result.counters[name]
        if got != expected:
            failures.append(f"{name}={got} (expected {expected})")
    return failures


def _run_checked(quick: bool = False) -> BenchResult:
    result = run_bench(quick=quick)
    failures = check_zero_recompute(result)
    if failures:
        raise AssertionError("; ".join(failures))
    return result


AREA = register_area(
    BenchArea(
        name="service",
        title="artifact store + job service: zero-recompute resubmission",
        run=_run_checked,
        policies={"peak_rss_bytes": RSS_POLICY},
    )
)
