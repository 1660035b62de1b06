"""Execute one declarative pipeline spec and produce its result artifact.

:func:`execute_spec` is the *execute* layer of the spec → plan → execute →
persist stack, and the only execution path behind every public face of the
pipeline: in-process calls (``execute_spec(PipelineSpec(...), store=...)``),
the batch executor (:func:`repro.api.run_jobs`), the CLI and the job service
(:mod:`repro.service`).

The spec is the whole input.  :func:`~repro.api.plan.build_plan` turns it
into the pipeline's row list — the circuit, the fault list (collapsed, then
redundancy-filtered per ``analysis.drop_redundant``), the lowering and one
row per stage artifact — so an artifact persisted under a row's store key is
always the artifact a fresh run of the same spec would compute.

When a store is attached, the executor first consults the plan's **report
key** — a hit short-circuits the whole run: zero stages execute, zero
circuits are lowered, and the artifact is the previously persisted report,
bit-identical under
:meth:`~repro.pipeline.session.PipelineReport.canonical_dict`.  On a miss
one resolver, ``need``, walks the rows: each row is loaded from its store
key when it has one, else computed by its library call and persisted; that
resolver is the single place that counts stage hits and runs and reports
progress.  Every randomized row seeds from ``spec.stage_seed(...)``, so a
spec executed serially, in a pool worker, on another machine, or
reassembled from store artifacts produces an identical canonical dict.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..core.testlength import required_test_length
from .plan import DEFAULT_N_PATTERNS, build_plan, resolve_n_patterns
from .spec import PipelineSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline.session import PipelineReport
    from ..store import ArtifactStore

__all__ = [
    "DEFAULT_N_PATTERNS",
    "execute_spec",
    "execution_count",
    "executor_stats",
    "resolve_n_patterns",
]

#: Process-wide execution counters.  ``executions`` counts cold
#: :func:`execute_spec` runs (report-level store hits do NOT count);
#: ``stage_runs``/``stage_hits`` count stages computed vs. served from a
#: store.  The ``service`` bench area gates on deltas of these to prove
#: that identical resubmissions execute zero stages.
#: The job service runs specs on worker threads, so every update goes
#: through :func:`_count` under :data:`_STATS_LOCK`.
_STATS: Dict[str, int] = {"executions": 0, "stage_runs": 0, "stage_hits": 0}
_STATS_LOCK = threading.Lock()


def _count(name: str) -> None:
    with _STATS_LOCK:
        _STATS[name] += 1


def execution_count() -> int:
    """Cold pipeline executions in this process (store hits excluded)."""
    return _STATS["executions"]


def executor_stats() -> Dict[str, int]:
    """Copy of the process-wide execution/stage counters."""
    with _STATS_LOCK:
        return dict(_STATS)


def execute_spec(
    spec: PipelineSpec,
    store: Optional["ArtifactStore"] = None,
    on_stage: Optional[Callable[[str], None]] = None,
) -> "PipelineReport":
    """Run every stage a spec declares and return the result artifact.

    Args:
        spec: the declarative job description — the whole input.
        store: optional content-addressed artifact store (anything
            :func:`repro.store.open_store` accepts).  A report-level hit
            returns the persisted artifact without executing any stage;
            otherwise stage artifacts are consulted/persisted individually
            and the finished report is written back.
        on_stage: optional progress callback, called with the stage name
            after each executed stage (the job service streams these).
    """
    from ..pipeline.session import PipelineReport
    from ..store import open_store

    store = open_store(store)
    plan = build_plan(spec)

    if store is not None:
        cached = store.load(plan.report_key)
        if isinstance(cached, PipelineReport):
            return cached

    _count("executions")
    start = time.perf_counter()
    rows = {row.output: row for row in plan.rows}
    artifacts: Dict[str, Any] = {}

    def need(output: str) -> Any:
        """A row's artifact, resolved once: load, else compute and put."""
        if output in artifacts:
            return artifacts[output]
        row = rows[output]
        keyed = store is not None and row.store_key is not None
        cached = store.load(row.store_key) if keyed else None
        if keyed and isinstance(cached, row.artifact_type):
            _count("stage_hits")
            value = cached
        else:
            value = row.compute(need)
            if keyed:
                store.put(row.store_key, value.to_dict())
            if row.name is not None:
                _count("stage_runs")
                if on_stage is not None:
                    on_stage(row.name)
        artifacts[output] = value
        return value

    for row in plan.rows:
        if row.name is not None:
            need(row.output)

    circuit = need("circuit")
    optimization = artifacts.get("optimize")
    conventional = artifacts.get("conventional")
    optimized = artifacts.get("optimized")
    report = PipelineReport(
        key=spec.label,
        circuit_name=circuit.name,
        n_gates=circuit.n_gates,
        n_inputs=circuit.n_inputs,
        faults=need("faults"),
        input_names=[circuit.net_name(net) for net in circuit.inputs],
        seed=spec.seed,
        conventional_length=required_test_length(
            artifacts["analysis"], spec.analysis.confidence
        ).test_length,
        optimized_length=None if optimization is None else optimization.test_length,
        weights=None if optimization is None else optimization.weights,
        quantized_weights=artifacts.get("quantize"),
        n_patterns=plan.n_patterns,
        conventional_coverage=(
            None if conventional is None else 100.0 * conventional.fault_coverage
        ),
        optimized_coverage=(
            None if optimized is None else 100.0 * optimized.fault_coverage
        ),
        optimization=optimization,
        conventional_experiment=conventional,
        optimized_experiment=optimized,
        self_test=artifacts.get("self_test"),
        self_test_fault=artifacts.get("self_test_fault"),
        multi_weight=artifacts.get("multi_weight"),
        lowerings=need("lowering"),
        seconds=time.perf_counter() - start,
    )
    if store is not None:
        store.put(plan.report_key, report.to_dict())
    return report

