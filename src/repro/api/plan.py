"""The planning layer: the pipeline's dependency graph, written once.

The execution stack is **spec → plan → execute → persist**.  This module is
the second layer.  :func:`pipeline_rows` turns a declarative
:class:`~repro.api.spec.PipelineSpec` into the ordered list of
:class:`Row` objects, one per artifact: the helper rows ``circuit``,
``faults`` (collapsed, then redundancy-filtered) and ``lowering``, then one
row per stage artifact.  Each row names its dependencies, its derived seed,
its store key and the library call that computes it from upstream rows
(``compute(need)``).  :func:`build_plan` projects that list into an
:class:`ExecutionPlan` (stages, seeds, store keys), and
:func:`~repro.api.executor.execute_spec` resolves the same rows.

Planning is pure: no circuit is built, no kernel is lowered, no RNG is
drawn; the compute closures reach the circuit only through
``need("circuit")`` at execution time.  ``build_plan(spec)`` is a
deterministic function of the spec's canonical content, so the same spec
planned in the CLI process, a pool worker, or the job service yields
byte-identical store keys — which is what makes cross-process cache hits
sound.

Key derivation
--------------
A keyed row's store key is ``<namespace>/<sha256 hex>``, the digest
:func:`~repro.api.serialize.content_hash` of its dependency dict: the
stage name, the spec fields the artifact depends on, and the dependency
dicts of the upstream keyed rows it consumes (nested, as ``"weights"``).

* ``pipeline_report/<spec_hash>`` — the whole-pipeline artifact; keyed by
  the spec itself.
* ``stage_optimize/<digest>`` — the optimization artifact.  Depends on the
  circuit ref, the analysis config, the optimize config **and the quantize
  config** (an :class:`~repro.core.optimize.OptimizationResult` embeds
  ``quantized_weights`` computed at the spec's quantization step), but
  *not* on the root seed, the label or the fault-sim budget — optimization
  is deterministic, so two specs differing only in seed share this entry.
* ``stage_fault_sim/<digest>`` — one key per fault-simulation result
  (conventional, and weighted when the quantize stage runs).  Depends on
  the circuit, analysis config, fault-sim config, resolved pattern budget
  and the *derived* stage seed (which already encodes root seed + label);
  the weighted variant additionally depends on the weight provenance
  (optimize + quantize configs).
* ``stage_multi_weight/<digest>`` — the weight sets.  Depends on what
  :func:`~repro.wrp.build_weight_sets` reads: the circuit, analysis config,
  weight provenance, ``multi_weight.k`` and ``multi_weight.budget``, and the
  two derived seeds.
* ``stage_multi_weight_report/<digest>`` — the multi-weight report.  Its
  dependency dict is the weight sets' dict plus what only the playback
  reads: ``multi_weight.target_coverage`` and ``scan_chains``, and the
  signature register only when the spec sets it.  A spec that changes only
  playback fields reuses the stored sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..analysis.compiled import BatchedCopEstimator
from ..analysis.redundancy import remove_redundant
from ..core.optimizer import OptimizationResult, WeightOptimizer
from ..core.quantize import quantize_to_lfsr_grid
from ..faults.collapse import collapsed_fault_list
from ..faults.model import Fault, FaultTable
from ..faultsim.coverage import random_pattern_coverage
from ..faultsim.parallel import FaultSimResult
from ..lowered import compile_count, compile_lowered
from ..patterns.bilbo import SelfTestSession
from ..wrp import (
    MultiWeightReport,
    MultiWeightSet,
    build_weight_sets,
    run_multi_weight_session,
)
from .serialize import content_hash
from .spec import STAGE_NAMES, PipelineSpec, QuantizeConfig

__all__ = [
    "DEFAULT_N_PATTERNS",
    "PLAN_STAGE_NAMES",
    "ExecutionPlan",
    "Row",
    "StagePlan",
    "build_plan",
    "pipeline_rows",
    "report_store_key",
    "resolve_n_patterns",
]

#: Fallback fault-simulation pattern budget when neither the spec nor the
#: benchmark registry names one (file, generator and inline sources).
DEFAULT_N_PATTERNS = 4_000

#: Stage names a plan may carry: the paper's five stages plus the optional
#: multi-weight-set extension stage.
PLAN_STAGE_NAMES = STAGE_NAMES + ("multi_weight",)


def resolve_n_patterns(spec: PipelineSpec) -> int:
    """The fault-simulation pattern budget of a spec.

    Explicit ``spec.fault_sim.n_patterns`` wins; a ``builtin`` circuit
    source falls back to its paper pattern budget (Tables 2/4); every other
    source (file, generator, inline) uses :data:`DEFAULT_N_PATTERNS`.
    """
    if spec.fault_sim is not None and spec.fault_sim.n_patterns is not None:
        return spec.fault_sim.n_patterns
    source = spec.source
    if source.kind == "builtin":
        from ..circuits.registry import get_entry

        entry = get_entry(source.key)
        if entry is not None and entry.paper_pattern_count:
            return entry.paper_pattern_count
    return DEFAULT_N_PATTERNS


def report_store_key(spec_hash: str) -> str:
    """The store key of a spec's whole-pipeline :class:`PipelineReport`."""
    return f"pipeline_report/{spec_hash}"


Need = Callable[[str], Any]


@dataclass(frozen=True)
class Row:
    """One node of the pipeline's dependency graph.

    Attributes:
        output: the artifact's name; ``need(output)`` resolves it.
        compute: builds the artifact by a direct library call; receives
            ``need``, which returns (resolving on first use) another row's
            artifact.
        name: the progress name passed to ``on_stage`` and counted in
            ``stage_runs`` when the row is computed.  ``None`` marks a
            helper row: it is resolved only when a later row needs it and
            reports no progress of its own.
        stage / variant: the plan stage the row belongs to (by default its
            progress name), and its store key's name within that stage.
        namespace: the store namespace; ``None`` for rows cheap enough to
            recompute, which have no store key.
        deps: what a keyed artifact depends on — the stage, spec fields and
            upstream rows' dependency dicts.
        seed: the derived working seed of a randomized row.
        artifact_type: the class a stored artifact must decode to.
        store_key: ``<namespace>/<content_hash(deps)>``, or ``None``.
    """

    output: str
    compute: Callable[[Need], Any] = field(repr=False)
    name: Optional[str] = None
    stage: Optional[str] = None
    variant: Optional[str] = None
    namespace: Optional[str] = None
    deps: Optional[Mapping[str, Any]] = None
    seed: Optional[int] = None
    artifact_type: Optional[type] = None
    store_key: Optional[str] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.stage is None:
            object.__setattr__(self, "stage", self.name)
        if self.namespace is not None:
            key = f"{self.namespace}/{content_hash(dict(self.deps))}"
            object.__setattr__(self, "store_key", key)


@dataclass(frozen=True)
class StagePlan:
    """One pipeline stage, fully resolved.

    Attributes:
        name: the stage (one of :data:`PLAN_STAGE_NAMES`).
        seed: the derived working seed, for the randomized stages
            (``fault_sim``, ``self_test``, ``multi_weight``); ``None`` for
            the deterministic ones.
        store_keys: the stage's content-addressed cache keys, by variant —
            ``{"result": ...}`` for optimize, ``{"conventional": ...,
            "optimized": ...}`` for fault sim, ``{"weight_sets": ...,
            "result": ...}`` for multi-weight, empty for stages that are
            not stage-cached (cheap arithmetic, or covered only by the
            report-level key).
    """

    name: str
    seed: Optional[int] = None
    store_keys: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ExecutionPlan:
    """A spec's row list and its projection, resolved ahead of execution.

    Attributes:
        spec_hash: the spec's content hash — the dedup identity.
        n_patterns: resolved fault-sim pattern budget (``None`` when the
            fault-sim stage is skipped).
        stages: one :class:`StagePlan` per *declared* stage, in execution
            order.
        report_key: store key of the whole-pipeline report artifact.
        rows: the :func:`pipeline_rows` the plan projects, which the
            executor resolves.
    """

    spec_hash: str
    n_patterns: Optional[int]
    stages: Tuple[StagePlan, ...]
    report_key: str
    rows: Tuple[Row, ...] = field(repr=False, compare=False)

    def stage(self, name: str) -> Optional[StagePlan]:
        """The plan of one stage, or ``None`` when the spec skips it."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        if name not in PLAN_STAGE_NAMES:
            raise ValueError(
                f"unknown stage {name!r}; expected one of {PLAN_STAGE_NAMES}"
            )
        return None

    def store_keys(self) -> Dict[str, str]:
        """Every store key the plan may touch, flattened for introspection.

        Maps ``"report"`` and ``"<stage>.<variant>"`` to their keys — the
        shape tests compare a store's keys against.
        """
        keys = {"report": self.report_key}
        for stage in self.stages:
            for variant, key in stage.store_keys.items():
                keys[f"{stage.name}.{variant}"] = key
        return keys


def build_plan(spec: PipelineSpec) -> ExecutionPlan:
    """Resolve a spec into an :class:`ExecutionPlan` (pure; runs nothing)."""
    rows = pipeline_rows(spec)
    seeds: Dict[str, int] = {}
    keys: Dict[str, Dict[str, str]] = {}
    for row in rows:
        if row.stage is None:
            continue
        stage_keys = keys.setdefault(row.stage, {})
        if row.store_key is not None:
            stage_keys[row.variant] = row.store_key
        if row.seed is not None:
            seeds[row.stage] = row.seed
    spec_hash = spec.spec_hash()
    return ExecutionPlan(
        spec_hash=spec_hash,
        n_patterns=next(
            (row.deps["n_patterns"] for row in rows if row.stage == "fault_sim"), None
        ),
        stages=tuple(
            StagePlan(name, seeds.get(name), stage_keys)
            for name, stage_keys in keys.items()
        ),
        report_key=report_store_key(spec_hash),
        rows=rows,
    )


def pipeline_rows(spec: PipelineSpec) -> Tuple[Row, ...]:
    """The rows a spec declares, in execution order (pure; runs nothing).

    Each ``compute`` is a direct library call parameterized by the spec's
    stage configs and derived seeds.
    """
    estimator = BatchedCopEstimator()
    analysis = spec.analysis
    # The spec fields every keyed artifact depends on.
    base = {"circuit": spec.circuit, "analysis": analysis.to_dict()}

    def fault_list(need: Need) -> FaultTable:
        faults = collapsed_fault_list(need("circuit"))
        if analysis.drop_redundant:
            # The redundancy check runs the batched COP kernel: lower first,
            # so the report's count holds the lowering this run paid for.
            need("lowering")
            faults = remove_redundant(need("circuit"), faults)
        return faults

    def lowerings(need: Need) -> int:
        before = compile_count()
        compile_lowered(need("circuit"))
        return compile_count() - before

    def baseline(need: Need) -> np.ndarray:
        circuit, faults = need("circuit"), need("faults")
        # Lower before the first kernel runs, so the report's count holds
        # the lowering this run paid for.
        need("lowering")
        return estimator.detection_probabilities(
            circuit, faults, [0.5] * circuit.n_inputs
        )

    rows: List[Row] = [
        Row("circuit", lambda need: spec.build_circuit()),
        Row("faults", fault_list),
        Row("lowering", lowerings),
        Row("analysis", baseline, name="analysis"),
    ]

    optimize, quantize = spec.optimize, spec.quantize
    optimize_deps: Optional[Dict[str, Any]] = None
    if optimize is not None:
        # Shared by the single-set optimum and every per-cluster optimizer.
        optimizer = dict(
            estimator=estimator,
            confidence=analysis.confidence,
            bounds=(float(optimize.bounds[0]), float(optimize.bounds[1])),
            alpha=optimize.alpha,
            max_sweeps=optimize.max_sweeps,
        )
        # The optimize artifact embeds the grid of the quantize config (or
        # the default grid when the spec quantizes nothing), so that config
        # is a dependency; seed and label are not (no RNG is drawn).
        step = (quantize or QuantizeConfig()).step
        optimize_deps = {
            "stage": "optimize",
            **base,
            "optimize": optimize.to_dict(),
            "quantize": None if quantize is None else quantize.to_dict(),
        }
        rows.append(
            Row(
                "optimize",
                lambda need: WeightOptimizer(
                    need("circuit"), faults=need("faults"), **optimizer
                ).optimize(quantization_step=step),
                name="optimize",
                variant="result",
                namespace="stage_optimize",
                deps=optimize_deps,
                artifact_type=OptimizationResult,
            )
        )

    if quantize is not None:

        def quantized(need: Need) -> np.ndarray:
            if quantize.lfsr_resolution is not None:
                return quantize_to_lfsr_grid(
                    need("optimize").weights, resolution=quantize.lfsr_resolution
                )
            return need("optimize").quantized_weights

        rows.append(Row("quantize", quantized, name="quantize"))

    fault_sim = spec.fault_sim
    if fault_sim is not None:
        seed = spec.stage_seed("fault_sim")
        n_patterns = resolve_n_patterns(spec)
        sim_deps = {
            "stage": "fault_sim",
            **base,
            "fault_sim": fault_sim.to_dict(),
            "n_patterns": n_patterns,
            "seed": seed,
        }

        def coverage(weights: Optional[str]) -> Callable[[Need], Any]:
            return lambda need: random_pattern_coverage(
                need("circuit"),
                n_patterns,
                weights=None if weights is None else need(weights),
                faults=need("faults"),
                seed=seed,
                target_coverage=fault_sim.target_coverage,
            )

        legs = [("conventional", None, None)]
        if quantize is not None:
            legs.append(("optimized", "quantize", optimize_deps))
        for output, weights, weights_deps in legs:
            rows.append(
                Row(
                    output,
                    coverage(weights),
                    name="fault_sim",
                    variant=output,
                    namespace="stage_fault_sim",
                    deps={**sim_deps, "weights": weights_deps},
                    seed=seed,
                    artifact_type=FaultSimResult,
                )
            )

    self_test = spec.self_test
    if self_test is not None:
        self_test_seed = spec.stage_seed("self_test")

        def hardest_fault(need: Need) -> Optional[Fault]:
            faults = need("faults")
            if not (self_test.inject_hardest and faults):
                return None
            return faults[int(np.argmin(need("analysis")))]

        rows.append(Row("self_test_fault", hardest_fault))
        rows.append(
            Row(
                "self_test",
                lambda need: SelfTestSession(
                    need("circuit"),
                    self_test.n_patterns,
                    weights=need("quantize") if self_test.weighted else None,
                    use_lfsr=self_test.use_lfsr,
                    misr_width=self_test.misr_width,
                    misr_taps=self_test.misr_taps,
                    seed=self_test_seed,
                ).run(need("self_test_fault")),
                name="self_test",
                seed=self_test_seed,
            )
        )

    multi_weight = spec.multi_weight
    if multi_weight is not None:
        cluster_seed = spec.stage_seed("cluster")
        session_seed = spec.stage_seed("multi_weight")
        # One signature register per spec: the self-test MISR override.
        misr_width = None if self_test is None else self_test.misr_width
        misr_taps = None if self_test is None else self_test.misr_taps
        # The weight sets depend on everything that shapes the clusters and
        # per-cluster optima.  The report adds what only the playback reads:
        # its stop target and delivery, and the session's register only when
        # set.
        weight_deps = {
            "stage": "multi_weight",
            **base,
            "weights": optimize_deps,
            "multi_weight": {"k": multi_weight.k, "budget": multi_weight.budget},
            "cluster_seed": cluster_seed,
            "session_seed": session_seed,
        }
        multi_deps = {
            **weight_deps,
            "target_coverage": multi_weight.target_coverage,
            "scan_chains": multi_weight.scan_chains,
        }
        if misr_width is not None or misr_taps is not None:
            multi_deps["misr"] = {
                "width": misr_width,
                "taps": None if misr_taps is None else list(misr_taps),
            }
        rows.append(
            Row(
                "weight_sets",
                lambda need: build_weight_sets(
                    need("circuit"),
                    faults=need("faults"),
                    k=multi_weight.k,
                    quantization_step=step,
                    cluster_seed=cluster_seed,
                    session_seed=session_seed,
                    budget=multi_weight.budget,
                    base_result=need("optimize"),
                    **optimizer,
                ),
                stage="multi_weight",
                variant="weight_sets",
                namespace="stage_multi_weight",
                deps=weight_deps,
                artifact_type=MultiWeightSet,
            )
        )
        rows.append(
            Row(
                "multi_weight",
                lambda need: run_multi_weight_session(
                    need("circuit"),
                    need("weight_sets"),
                    faults=need("faults"),
                    target_coverage=multi_weight.target_coverage,
                    scan_chains=multi_weight.scan_chains,
                    misr_width=misr_width,
                    misr_taps=misr_taps,
                ),
                name="multi_weight",
                variant="result",
                namespace="stage_multi_weight_report",
                deps=multi_deps,
                seed=session_seed,
                artifact_type=MultiWeightReport,
            )
        )
    return tuple(rows)
