"""Execute one declarative pipeline spec and produce its result artifact.

:func:`execute_spec` is the *execute* layer of the spec → plan → execute →
persist stack, and the single execution path behind every public face of
the pipeline:

* the batch executor (:func:`repro.api.run_jobs`) ships
  :class:`~repro.api.spec.PipelineSpec` dicts to worker processes, each of
  which calls :func:`execute_spec` on a fresh session;
* the convenience layer (:class:`repro.pipeline.Session`) builds the spec
  from its kwargs and calls :func:`execute_spec` with *itself* as the
  caching execution context, so repeated in-process runs reuse lowerings,
  analyses, optimizations and coverage experiments;
* the job service (:mod:`repro.service`) executes cold submissions here and
  serves warm ones straight from the store.

Execution follows the :class:`~repro.api.plan.ExecutionPlan` emitted by
:func:`~repro.api.plan.build_plan`.  When a store is attached, the executor
first consults the plan's **report key** — a hit short-circuits the whole
run: zero stages execute, zero circuits are lowered, and the artifact is
the previously persisted report, bit-identical under
:meth:`~repro.pipeline.session.PipelineReport.canonical_dict`.  On a cold
run the expensive stages (optimization, each coverage experiment) consult
their own stage keys before computing and persist what they did compute,
so partially-warm stores still save work.  Either way the result is
deterministic in the spec alone: every randomized stage seeds from
``spec.stage_seed(...)``, so a spec executed serially, in a pool worker, on
another machine, or reassembled from store artifacts produces an identical
canonical dict.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

from ..core.optimizer import OptimizationResult
from ..core.quantize import quantize_to_lfsr_grid
from ..faultsim.coverage import CoverageExperiment
from .plan import DEFAULT_N_PATTERNS, build_plan, resolve_n_patterns
from .spec import PipelineSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline.session import PipelineReport, Session
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


def _stage_done(on_stage: Optional[Callable[[str], None]], name: str) -> None:
    _count("stage_runs")
    if on_stage is not None:
        on_stage(name)


def execute_spec(
    spec: PipelineSpec,
    session: Optional["Session"] = None,
    store: Optional["ArtifactStore"] = None,
    on_stage: Optional[Callable[[str], None]] = None,
) -> "PipelineReport":
    """Run every stage a spec declares and return the result artifact.

    Args:
        spec: the declarative job description.
        session: optional caching execution context.  ``None`` builds a
            fresh :class:`~repro.pipeline.Session` from the spec's configs
            (the batch-worker path); passing an existing session reuses its
            cached artifacts (the convenience-layer path — the session's
            configs are expected to match the spec's, which
            :meth:`Session.spec` guarantees).
        store: optional content-addressed artifact store (anything
            :func:`repro.store.open_store` accepts).  A report-level hit
            returns the persisted artifact without executing any stage;
            otherwise stage artifacts are consulted/persisted individually
            and the finished report is written back.
        on_stage: optional progress callback, called with the stage name
            after each executed stage (the job service streams these).
    """
    from ..pipeline.session import PipelineReport, Session
    from ..store import open_store

    store = open_store(store)
    plan = build_plan(spec)

    if store is not None:
        cached = store.load(plan.report_key)
        if isinstance(cached, PipelineReport):
            return cached

    _count("executions")
    if session is None:
        session = Session.from_spec(spec)
    key = plan.label
    start = time.perf_counter()
    if not session.has(key):
        session.add(spec.build_circuit(), key=key)
    session.lowered(key)
    circuit = session.circuit(key)
    faults = session.faults(key)

    # Stage 1: analysis (always on).
    conventional_length = session.required_length(
        key, confidence=spec.analysis.confidence
    )
    _stage_done(on_stage, "analysis")

    # Stage 2: optimization (store-cached; deterministic, so the entry is
    # shared across specs that differ only in seed/label/fault-sim budget).
    optimization = None
    optimize_hit = False
    if spec.optimize is not None:
        optimize_key = plan.stage("optimize").store_keys["result"]
        if store is not None:
            cached = store.load(optimize_key)
            if isinstance(cached, OptimizationResult):
                optimization = cached
                optimize_hit = True
                _count("stage_hits")
        if optimization is None:
            optimization = session.optimize(key, max_sweeps=spec.optimize.max_sweeps)
            if store is not None:
                store.put(optimize_key, optimization.to_dict())
            _stage_done(on_stage, "optimize")

    # Stage 3: quantization (pure arithmetic on the optimization artifact).
    quantized = None
    if spec.quantize is not None:
        if spec.quantize.lfsr_resolution is not None:
            quantized = quantize_to_lfsr_grid(
                optimization.weights, resolution=spec.quantize.lfsr_resolution
            )
        elif optimize_hit:
            # The stored artifact embeds the grid of exactly this spec's
            # quantize config (it participates in the optimize stage key).
            quantized = optimization.quantized_weights
        else:
            quantized = session.quantized_weights(key, step=spec.quantize.step)
        _stage_done(on_stage, "quantize")

    # Stage 4: fault-simulated validation (conventional, then optimized).
    n_patterns = plan.n_patterns
    conventional_experiment = None
    optimized_experiment = None
    if spec.fault_sim is not None:
        config = spec.fault_sim
        stage = plan.stage("fault_sim")
        fault_sim_seed = stage.seed
        conventional_experiment = _coverage_experiment(
            store, stage.store_keys["conventional"]
        )
        if conventional_experiment is None:
            conventional_experiment = session.fault_simulate(
                key,
                n_patterns,
                seed=fault_sim_seed,
                batch_size=config.batch_size,
                fault_group=config.fault_group,
                target_coverage=config.target_coverage,
                partition_size=config.partition_size,
            )
            if store is not None:
                store.put(
                    stage.store_keys["conventional"], conventional_experiment.to_dict()
                )
            _stage_done(on_stage, "fault_sim")
        if quantized is not None:
            optimized_experiment = _coverage_experiment(
                store, stage.store_keys["optimized"]
            )
            if optimized_experiment is None:
                optimized_experiment = session.fault_simulate(
                    key,
                    n_patterns,
                    weights=quantized,
                    seed=fault_sim_seed,
                    batch_size=config.batch_size,
                    fault_group=config.fault_group,
                    target_coverage=config.target_coverage,
                    partition_size=config.partition_size,
                )
                if store is not None:
                    store.put(
                        stage.store_keys["optimized"], optimized_experiment.to_dict()
                    )
                _stage_done(on_stage, "fault_sim")

    # Stage 5: self test (BILBO / signature analysis).
    self_test_report = None
    if spec.self_test is not None:
        config = spec.self_test
        fault = None
        if config.inject_hardest and faults:
            probabilities = session.detection_probabilities(key)
            fault = faults[int(np.argmin(probabilities))]
        self_test_report = session.self_test(
            key,
            config.n_patterns,
            weights=quantized if config.weighted else None,
            use_lfsr=config.use_lfsr,
            misr_width=config.misr_width,
            misr_taps=config.misr_taps,
            seed=plan.stage("self_test").seed,
            fault=fault,
        )
        _stage_done(on_stage, "self_test")

    # Stage 6 (optional): multi-weight-set BIST (clustered weight sets,
    # reseeded multi-polynomial LFSRs, scheduled playback).
    multi_weight_report = None
    if spec.multi_weight is not None:
        from ..wrp import MultiWeightReport, MultiWeightSet

        config = spec.multi_weight
        stage = plan.stage("multi_weight")
        if store is not None:
            cached = store.load(stage.store_keys["result"])
            if isinstance(cached, MultiWeightReport):
                multi_weight_report = cached
                _count("stage_hits")
        if multi_weight_report is None:
            weight_sets = None
            if store is not None:
                cached = store.load(stage.store_keys["weight_sets"])
                if isinstance(cached, MultiWeightSet):
                    weight_sets = cached
                    _count("stage_hits")
            if weight_sets is None:
                weight_sets = session.build_weight_sets(
                    key,
                    k=config.k,
                    budget=config.budget,
                    cluster_seed=spec.stage_seed("cluster"),
                    session_seed=stage.seed,
                )
                if store is not None:
                    store.put(stage.store_keys["weight_sets"], weight_sets.to_dict())
            multi_weight_report = session.multi_weight_self_test(
                key,
                weight_sets=weight_sets,
                scan_chains=config.scan_chains,
                target_coverage=config.target_coverage,
            )
            if store is not None:
                store.put(stage.store_keys["result"], multi_weight_report.to_dict())
            _stage_done(on_stage, "multi_weight")

    report = PipelineReport(
        key=key,
        circuit_name=circuit.name,
        n_gates=circuit.n_gates,
        n_inputs=circuit.n_inputs,
        n_faults=len(faults),
        input_names=[circuit.net_name(net) for net in circuit.inputs],
        seed=spec.seed,
        conventional_length=conventional_length,
        optimized_length=None if optimization is None else optimization.test_length,
        weights=None if optimization is None else optimization.weights,
        quantized_weights=quantized,
        n_patterns=n_patterns,
        conventional_coverage=(
            None
            if conventional_experiment is None
            else 100.0 * conventional_experiment.fault_coverage
        ),
        optimized_coverage=(
            None
            if optimized_experiment is None
            else 100.0 * optimized_experiment.fault_coverage
        ),
        optimization=optimization,
        conventional_experiment=conventional_experiment,
        optimized_experiment=optimized_experiment,
        self_test=self_test_report,
        self_test_fault=fault if spec.self_test is not None else None,
        multi_weight=multi_weight_report,
        lowerings=session.lowerings(key),
        seconds=time.perf_counter() - start,
    )
    if store is not None:
        store.put(plan.report_key, report.to_dict())
    return report


def _coverage_experiment(
    store: Optional["ArtifactStore"], store_key: str
) -> Optional[CoverageExperiment]:
    """A stored coverage experiment, or ``None`` (counts a stage hit)."""
    if store is None:
        return None
    cached = store.load(store_key)
    if isinstance(cached, CoverageExperiment):
        _count("stage_hits")
        return cached
    return None
