"""Execute one declarative pipeline spec and produce its result artifact.

:func:`execute_spec` is the *execute* layer of the spec → plan → execute →
persist stack, and the only execution path behind every public face of the
pipeline: the batch executor (:func:`repro.api.run_jobs`), the job service
(:mod:`repro.service`) and the convenience layer
(:meth:`repro.pipeline.Session.run`, which translates its state into a spec
and passes its store).

The spec is the whole input.  The executor builds the circuit, the fault
list (collapsed, then redundancy-filtered per ``analysis.drop_redundant``),
the estimator and the lowering from the spec alone, so an artifact persisted
under one of the plan's store keys is always the artifact a fresh run of
the same spec would compute.

Execution follows the :class:`~repro.api.plan.ExecutionPlan` emitted by
:func:`~repro.api.plan.build_plan`.  When a store is attached, the executor
first consults the plan's **report key** — a hit short-circuits the whole
run: zero stages execute, zero circuits are lowered, and the artifact is
the previously persisted report, bit-identical under
:meth:`~repro.pipeline.session.PipelineReport.canonical_dict`.  On a miss it
runs one table of :class:`Stage` rows through one loop: each row is loaded
from its store key when it has one, else computed by a direct library call
and persisted; that loop is the single place that counts stage hits and
runs and reports progress.  Artifacts pass between stages in one dict.
Every randomized stage seeds from ``spec.stage_seed(...)``, so a spec
executed serially, in a pool worker, on another machine, or reassembled
from store artifacts produces an identical canonical dict.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

import numpy as np

from ..analysis.compiled import BatchedCopEstimator
from ..analysis.detection import CopDetectionEstimator, DetectionProbabilityEstimator
from ..analysis.redundancy import remove_redundant
from ..circuit.netlist import Circuit
from ..core.optimizer import OptimizationResult, WeightOptimizer
from ..core.quantize import quantize_to_lfsr_grid
from ..core.testlength import required_test_length
from ..faults.collapse import collapsed_fault_list
from ..faults.model import Fault
from ..faultsim.coverage import CoverageExperiment, random_pattern_coverage
from ..lowered import compile_count, compile_lowered
from ..patterns.bilbo import SelfTestSession
from ..wrp import (
    MultiWeightReport,
    MultiWeightSet,
    build_weight_sets,
    run_multi_weight_session,
)
from .plan import DEFAULT_N_PATTERNS, ExecutionPlan, build_plan, resolve_n_patterns
from .spec import PipelineSpec, QuantizeConfig

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


@dataclass(frozen=True)
class Stage:
    """One row of the executor's stage table.

    Attributes:
        name: the progress name passed to ``on_stage`` and counted in
            ``stage_runs`` when the row is computed.  ``None`` marks a
            helper row: it is resolved only when a later row needs it and
            reports no progress of its own.
        output: the artifact's name in the run's artifact dict.
        store_key: the plan's store key the artifact is loaded from and
            persisted under; ``None`` for rows cheap enough to recompute.
        artifact_type: the class a stored artifact must decode to.
        compute: builds the artifact; receives ``need(output)``, which
            returns (resolving on first use) another row's artifact.
    """

    name: Optional[str]
    output: str
    store_key: Optional[str]
    artifact_type: Optional[type]
    compute: Callable[[Callable[[str], Any]], Any]


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
    circuit = spec.build_circuit()
    faults = collapsed_fault_list(circuit)
    if spec.analysis.drop_redundant:
        faults = remove_redundant(circuit, faults)
    before = compile_count()
    compile_lowered(circuit)
    lowerings = compile_count() - before
    estimator: DetectionProbabilityEstimator = (
        CopDetectionEstimator()
        if spec.analysis.estimator == "scalar"
        else BatchedCopEstimator()
    )

    stages = {
        stage.output: stage
        for stage in _stage_table(spec, plan, circuit, faults, estimator)
    }
    artifacts: Dict[str, Any] = {}

    def need(output: str) -> Any:
        """A row's artifact, resolved once: load, else compute and put."""
        if output in artifacts:
            return artifacts[output]
        stage = stages[output]
        keyed = store is not None and stage.store_key is not None
        cached = store.load(stage.store_key) if keyed else None
        if keyed and isinstance(cached, stage.artifact_type):
            _count("stage_hits")
            value = cached
        else:
            value = stage.compute(need)
            if keyed:
                store.put(stage.store_key, value.to_dict())
            if stage.name is not None:
                _count("stage_runs")
                if on_stage is not None:
                    on_stage(stage.name)
        artifacts[output] = value
        return value

    for stage in stages.values():
        if stage.name is not None:
            need(stage.output)

    optimization = artifacts.get("optimize")
    conventional = artifacts.get("conventional")
    optimized = artifacts.get("optimized")
    report = PipelineReport(
        key=plan.label,
        circuit_name=circuit.name,
        n_gates=circuit.n_gates,
        n_inputs=circuit.n_inputs,
        n_faults=len(faults),
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
        lowerings=lowerings,
        seconds=time.perf_counter() - start,
    )
    if store is not None:
        store.put(plan.report_key, report.to_dict())
    return report


def _stage_table(
    spec: PipelineSpec,
    plan: ExecutionPlan,
    circuit: Circuit,
    faults: List[Fault],
    estimator: DetectionProbabilityEstimator,
) -> List[Stage]:
    """The rows a spec declares, in execution order.

    Each ``compute`` is a direct library call parameterized by the spec's
    stage configs and the plan's derived seeds.
    """
    confidence = spec.analysis.confidence
    rows = [
        Stage(
            "analysis",
            "analysis",
            None,
            None,
            lambda need: estimator.detection_probabilities(
                circuit, faults, [0.5] * circuit.n_inputs
            ),
        )
    ]

    optimize = spec.optimize
    if optimize is not None:
        # Shared by the single-set optimum and every per-cluster optimizer.
        optimizer = dict(
            estimator=estimator,
            confidence=confidence,
            bounds=(float(optimize.bounds[0]), float(optimize.bounds[1])),
            alpha=optimize.alpha,
            max_sweeps=optimize.max_sweeps,
        )
        # The optimize artifact embeds the grid of the quantize config (or
        # the default grid when the spec quantizes nothing).
        step = (spec.quantize or QuantizeConfig()).step
        rows.append(
            Stage(
                "optimize",
                "optimize",
                plan.stage("optimize").store_keys["result"],
                OptimizationResult,
                lambda need: WeightOptimizer(
                    circuit, faults=faults, **optimizer
                ).optimize(quantization_step=step),
            )
        )

    quantize = spec.quantize
    if quantize is not None:

        def quantized(need: Callable[[str], Any]) -> np.ndarray:
            if quantize.lfsr_resolution is not None:
                return quantize_to_lfsr_grid(
                    need("optimize").weights, resolution=quantize.lfsr_resolution
                )
            return need("optimize").quantized_weights

        rows.append(Stage("quantize", "quantize", None, None, quantized))

    fault_sim = spec.fault_sim
    if fault_sim is not None:
        fault_sim_plan = plan.stage("fault_sim")

        def coverage(weights: Optional[str]) -> Callable[[Callable[[str], Any]], Any]:
            return lambda need: random_pattern_coverage(
                circuit,
                plan.n_patterns,
                weights=None if weights is None else need(weights),
                faults=faults,
                seed=fault_sim_plan.seed,
                batch_size=fault_sim.batch_size,
                fault_group=fault_sim.fault_group,
                target_coverage=fault_sim.target_coverage,
                partition_size=fault_sim.partition_size,
            )

        for output, weights in (("conventional", None), ("optimized", "quantize")):
            if output in fault_sim_plan.store_keys:
                rows.append(
                    Stage(
                        "fault_sim",
                        output,
                        fault_sim_plan.store_keys[output],
                        CoverageExperiment,
                        coverage(weights),
                    )
                )

    self_test = spec.self_test
    if self_test is not None:

        def hardest_fault(need: Callable[[str], Any]) -> Optional[Fault]:
            if not (self_test.inject_hardest and faults):
                return None
            return faults[int(np.argmin(need("analysis")))]

        rows.append(Stage(None, "self_test_fault", None, None, hardest_fault))
        rows.append(
            Stage(
                "self_test",
                "self_test",
                None,
                None,
                lambda need: SelfTestSession(
                    circuit,
                    self_test.n_patterns,
                    weights=need("quantize") if self_test.weighted else None,
                    use_lfsr=self_test.use_lfsr,
                    misr_width=self_test.misr_width,
                    misr_taps=self_test.misr_taps,
                    seed=plan.stage("self_test").seed,
                ).run(need("self_test_fault")),
            )
        )

    multi_weight = spec.multi_weight
    if multi_weight is not None:
        multi_plan = plan.stage("multi_weight")
        # A spec without a fault-sim stage still sizes the multi-weight
        # coverage run's partitions, through its analysis config.
        partition_size = (
            fault_sim.partition_size
            if fault_sim is not None
            else spec.analysis.partition_size
        )
        rows.append(
            Stage(
                None,
                "weight_sets",
                multi_plan.store_keys["weight_sets"],
                MultiWeightSet,
                lambda need: build_weight_sets(
                    circuit,
                    faults=faults,
                    k=multi_weight.k,
                    quantization_step=step,
                    cluster_seed=spec.stage_seed("cluster"),
                    session_seed=multi_plan.seed,
                    budget=multi_weight.budget,
                    base_result=need("optimize"),
                    **optimizer,
                ),
            )
        )
        rows.append(
            Stage(
                "multi_weight",
                "multi_weight",
                multi_plan.store_keys["result"],
                MultiWeightReport,
                lambda need: run_multi_weight_session(
                    circuit,
                    need("weight_sets"),
                    faults=faults,
                    target_coverage=multi_weight.target_coverage,
                    scan_chains=multi_weight.scan_chains,
                    partition_size=partition_size,
                    # The spec's one signature register.
                    misr_width=None if self_test is None else self_test.misr_width,
                    misr_taps=None if self_test is None else self_test.misr_taps,
                ),
            )
        )
    return rows
