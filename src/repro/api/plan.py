"""The planning layer: resolve a spec into an executable, cacheable plan.

The execution stack is **spec → plan → execute → persist**.  This module is
the second layer: :func:`build_plan` takes a declarative
:class:`~repro.api.spec.PipelineSpec` and — *without running anything* —
resolves every decision the executor would otherwise make on the fly:

* the normalized circuit reference and artifact label;
* the fault-simulation pattern budget (:func:`resolve_n_patterns`);
* the derived per-stage seeds (:meth:`PipelineSpec.stage_seed`);
* the content-addressed **store keys** — one per cacheable unit of work —
  that the execute layer consults in :mod:`repro.store` before computing
  and writes back after.

Planning is pure: no circuit is built, no kernel is lowered, no RNG is
drawn.  ``build_plan(spec)`` is a deterministic function of the spec's
canonical content, so the same spec planned in the CLI process, a pool
worker, or the job service yields byte-identical store keys — which is what
makes cross-process cache hits sound.

Key derivation
--------------
Every store key is ``<namespace>/<sha256 hex>`` where the digest is
:func:`~repro.api.serialize.content_hash` over a dict naming the stage and
*everything its artifact depends on*:

* ``pipeline_report/<spec_hash>`` — the whole-pipeline artifact; keyed by
  the spec itself.
* ``stage_optimize/<digest>`` — the optimization artifact.  Depends on the
  circuit ref, the analysis config, the optimize config **and the quantize
  config** (an :class:`~repro.core.optimize.OptimizationResult` embeds
  ``quantized_weights`` computed at the session's quantization step), but
  *not* on the root seed, the label or the fault-sim budget — optimization
  is deterministic, so two specs differing only in seed share this entry.
* ``stage_fault_sim/<digest>`` — one key per coverage experiment
  (conventional, and weighted when the quantize stage runs).  Depends on
  the circuit, analysis config, fault-sim config, resolved pattern budget
  and the *derived* stage seed (which already encodes root seed + label);
  the weighted variant additionally depends on the weight provenance
  (optimize + quantize configs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from .serialize import content_hash
from .spec import STAGE_NAMES, PipelineSpec

__all__ = [
    "DEFAULT_N_PATTERNS",
    "PLAN_STAGE_NAMES",
    "ExecutionPlan",
    "StagePlan",
    "build_plan",
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


def _stage_key(namespace: str, deps: Mapping[str, Any]) -> str:
    """A content-addressed store key from a stage's dependency dict."""
    return f"{namespace}/{content_hash(dict(deps))}"


@dataclass(frozen=True)
class StagePlan:
    """One pipeline stage, fully resolved.

    Attributes:
        name: the stage (one of :data:`~repro.api.spec.STAGE_NAMES`).
        config: the stage config's wire dict (``analysis_config``, ...).
        seed: the derived working seed, for the randomized stages
            (``fault_sim``, ``self_test``); ``None`` for the deterministic
            ones.
        store_keys: the stage's content-addressed cache keys, by variant —
            ``{"result": ...}`` for optimize, ``{"conventional": ...,
            "optimized": ...}`` for fault sim, empty for stages that are
            not stage-cached (cheap arithmetic, or covered only by the
            report-level key).
    """

    name: str
    config: Mapping[str, Any]
    seed: Optional[int] = None
    store_keys: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything the execute layer needs, resolved ahead of execution.

    Attributes:
        spec: the planned spec (normalized, immutable).
        spec_hash: its content hash — the dedup identity.
        label: the artifact label (``spec.label``).
        circuit: the normalized circuit reference (registry key or dict).
        n_patterns: resolved fault-sim pattern budget (``None`` when the
            fault-sim stage is skipped).
        stages: one :class:`StagePlan` per *declared* stage, in execution
            order.
        report_key: store key of the whole-pipeline report artifact.
    """

    spec: PipelineSpec
    spec_hash: str
    label: str
    circuit: Any
    n_patterns: Optional[int]
    stages: Tuple[StagePlan, ...]
    report_key: str

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
        shape served by the job service's ``/statsz`` and handy in tests.
        """
        keys = {"report": self.report_key}
        for stage in self.stages:
            for variant, key in stage.store_keys.items():
                keys[f"{stage.name}.{variant}"] = key
        return keys


def build_plan(spec: PipelineSpec) -> ExecutionPlan:
    """Resolve a spec into an :class:`ExecutionPlan` (pure; runs nothing)."""
    spec_hash = spec.spec_hash()
    circuit_ref = spec.circuit
    n_patterns = None if spec.fault_sim is None else resolve_n_patterns(spec)

    stages = [StagePlan(name="analysis", config=spec.analysis.to_dict())]

    optimize_deps: Optional[Dict[str, Any]] = None
    if spec.optimize is not None:
        # Optimization is deterministic (coordinate descent, no RNG), so the
        # key deliberately omits seed and label: every spec that agrees on
        # circuit + analysis + optimize + quantize configs shares one entry.
        # The quantize config participates because the cached
        # OptimizationResult embeds quantized_weights at that step.
        optimize_deps = {
            "stage": "optimize",
            "circuit": circuit_ref,
            "analysis": spec.analysis.to_dict(),
            "optimize": spec.optimize.to_dict(),
            "quantize": None if spec.quantize is None else spec.quantize.to_dict(),
        }
        stages.append(
            StagePlan(
                name="optimize",
                config=spec.optimize.to_dict(),
                store_keys={"result": _stage_key("stage_optimize", optimize_deps)},
            )
        )

    if spec.quantize is not None:
        # Pure arithmetic on the optimize artifact — nothing worth a store
        # round trip of its own.
        stages.append(StagePlan(name="quantize", config=spec.quantize.to_dict()))

    if spec.fault_sim is not None:
        seed = spec.stage_seed("fault_sim")
        base_deps: Dict[str, Any] = {
            "stage": "fault_sim",
            "circuit": circuit_ref,
            "analysis": spec.analysis.to_dict(),
            "fault_sim": spec.fault_sim.to_dict(),
            "n_patterns": n_patterns,
            "seed": seed,
        }
        store_keys = {
            "conventional": _stage_key(
                "stage_fault_sim", {**base_deps, "weights": None}
            )
        }
        if spec.quantize is not None:
            store_keys["optimized"] = _stage_key(
                "stage_fault_sim", {**base_deps, "weights": optimize_deps}
            )
        stages.append(
            StagePlan(
                name="fault_sim",
                config=spec.fault_sim.to_dict(),
                seed=seed,
                store_keys=store_keys,
            )
        )

    if spec.self_test is not None:
        stages.append(
            StagePlan(
                name="self_test",
                config=spec.self_test.to_dict(),
                seed=spec.stage_seed("self_test"),
            )
        )

    if spec.multi_weight is not None:
        # The weight-set artifact depends on everything that shapes the
        # clusters and the per-cluster optima: the circuit, the analysis
        # config (estimator/confidence), the weight provenance (optimize +
        # quantize configs), the multi-weight config and the two derived
        # seeds (clustering, per-set LFSR reseeds).  The report additionally
        # reflects the session's coverage run, whose knobs all live in the
        # same config — so both keys share one dependency dict.  The spec's
        # one signature register joins them only when it is overridden.
        session_seed = spec.stage_seed("multi_weight")
        multi_deps = {
            "stage": "multi_weight",
            "circuit": circuit_ref,
            "analysis": spec.analysis.to_dict(),
            "weights": optimize_deps,
            "multi_weight": spec.multi_weight.to_dict(),
            "cluster_seed": spec.stage_seed("cluster"),
            "session_seed": session_seed,
        }
        self_test = spec.self_test
        if self_test is not None and (
            self_test.misr_width is not None or self_test.misr_taps is not None
        ):
            taps = self_test.misr_taps
            multi_deps["misr"] = {
                "width": self_test.misr_width,
                "taps": None if taps is None else list(taps),
            }
        stages.append(
            StagePlan(
                name="multi_weight",
                config=spec.multi_weight.to_dict(),
                seed=session_seed,
                store_keys={
                    "weight_sets": _stage_key("stage_multi_weight", multi_deps),
                    "result": _stage_key("stage_multi_weight_report", multi_deps),
                },
            )
        )

    return ExecutionPlan(
        spec=spec,
        spec_hash=spec_hash,
        label=spec.label,
        circuit=circuit_ref,
        n_patterns=n_patterns,
        stages=tuple(stages),
        report_key=report_store_key(spec_hash),
    )
