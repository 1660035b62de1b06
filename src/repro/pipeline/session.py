"""The pipeline's result artifact: :class:`PipelineReport`.

The paper's workflow is one pipeline — testability analysis (COP), input
probability optimization, quantization to a realisable weight grid,
fault-simulated validation, and finally the weighted-random *self test* of
section 5.2 (LFSR weighting network + MISR signature).  Its declarative
description is :class:`repro.api.spec.PipelineSpec`, its only execution
path is :func:`repro.api.executor.execute_spec`, and a :class:`PipelineReport`
is what one run returns (and what an artifact store persists under the
plan's report key).

Single stages are direct library calls: :class:`~repro.core.WeightOptimizer`,
:func:`~repro.faultsim.random_pattern_coverage`,
:class:`~repro.patterns.SelfTestSession`, :func:`~repro.wrp.build_weight_sets`
and :func:`~repro.wrp.run_multi_weight_session`.

Typical use::

    from repro import FaultSimConfig, PipelineSpec, execute_spec, s1_comparator

    spec = PipelineSpec(
        circuit=s1_comparator(width=12), fault_sim=FaultSimConfig(n_patterns=4_000)
    )
    report = execute_spec(spec)           # store=... to persist and reuse
    print(report.summary())
    print(json.dumps(report.to_dict()))   # JSON artifact, exact round trip
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..api.serialize import scrub_volatile, tagged_dict, untag
from ..core.optimizer import OptimizationResult
from ..faults.model import Fault, FaultTable
from ..faultsim.coverage import CoverageExperiment
from ..patterns.bilbo import SelfTestReport
from ..wrp import MultiWeightReport

__all__ = ["PipelineReport"]


@dataclass
class PipelineReport:
    """Outcome of one pipeline job — the JSON-serializable result artifact.

    Stages a spec skipped leave their fields ``None`` (an analysis-only job
    reports only the workload numbers and ``conventional_length``).

    Attributes:
        key: job label (the spec's :attr:`~repro.api.spec.PipelineSpec.label`).
        circuit_name: name of the circuit under test.
        n_gates / n_inputs / n_faults: workload size.
        input_names: primary input net names, in circuit input order (what
            the appendix listings and weight exports key on).
        seed: root seed the stage seeds were derived from.
        conventional_length: required test length of the equiprobable test.
        optimized_length: required test length after optimization.
        weights / quantized_weights: optimized input probabilities (raw and
            snapped to the realisable grid).
        n_patterns: pattern budget of the fault-simulated validation.
        conventional_coverage / optimized_coverage: fault coverage (percent)
            of ``n_patterns`` conventional / optimized random patterns.
        optimization: the underlying optimization result.
        conventional_experiment / optimized_experiment: the full coverage
            experiments (per-fault first-detection indices), from which
            coverage curves and undetected-fault counts derive.
        self_test: report of the BIST stage, when the spec requested it.
        self_test_fault: the fault injected into the self-test run (``None``
            for a clean run); with an injection, ``self_test.passed`` False
            means the signature exposed the fault.
        multi_weight: report of the multi-weight-set BIST stage
            (:class:`repro.wrp.MultiWeightReport`), when the spec declared
            it; serialized only when present, so artifacts of specs without
            the stage keep their historical wire form.
        lowerings: lowering compilations attributed to this circuit — 1 for a
            fresh circuit, 0 when the content-addressed cache already held
            the structure.
        seconds: wall-clock time of the run (volatile; excluded from
            :meth:`canonical_dict`).
    """

    key: str
    circuit_name: str
    n_gates: int
    n_inputs: int
    n_faults: int
    input_names: List[str] = field(default_factory=list)
    seed: int = 0
    conventional_length: Optional[int] = None
    optimized_length: Optional[int] = None
    weights: Optional[np.ndarray] = None
    quantized_weights: Optional[np.ndarray] = None
    n_patterns: Optional[int] = None
    conventional_coverage: Optional[float] = None
    optimized_coverage: Optional[float] = None
    optimization: Optional[OptimizationResult] = None
    conventional_experiment: Optional[CoverageExperiment] = None
    optimized_experiment: Optional[CoverageExperiment] = None
    self_test: Optional[SelfTestReport] = None
    self_test_fault: Optional[Fault] = None
    multi_weight: Optional[MultiWeightReport] = None
    lowerings: int = 0
    seconds: float = 0.0

    @property
    def improvement_factor(self) -> float:
        """How many times shorter the optimized test is (≥ 1 when it helps)."""
        if self.conventional_length is None or self.optimized_length is None:
            return float("nan")
        if self.optimized_length <= 0:
            return float("inf")
        return self.conventional_length / self.optimized_length

    def summary(self) -> str:
        """One-paragraph human-readable report (skipped stages elided)."""
        parts = []
        if self.conventional_length is not None:
            parts.append(f"conventional N ≈ {self.conventional_length:,}")
        if self.optimized_length is not None:
            parts.append(
                f"optimized N ≈ {self.optimized_length:,} "
                f"(x{self.improvement_factor:,.0f})"
            )
        if self.conventional_coverage is not None:
            line = (
                f"with {self.n_patterns:,} patterns "
                f"coverage {self.conventional_coverage:.1f}%"
            )
            if self.optimized_coverage is not None:
                line += f" → {self.optimized_coverage:.1f}%"
            parts.append(line)
        if self.self_test is not None:
            if self.self_test_fault is not None:
                verdict = (
                    "injected fault detected"
                    if not self.self_test.passed
                    else "injected fault MISSED"
                )
            else:
                verdict = "pass" if self.self_test.passed else "FAIL"
            parts.append(
                f"self-test signature 0x{self.self_test.signature:x} ({verdict})"
            )
        if self.multi_weight is not None:
            sets = self.multi_weight.weight_sets
            parts.append(
                f"multi-weight k={sets.k} length {sets.multi_set_length:,} "
                f"vs single {sets.single_set_length:,}"
            )
        parts.append(
            f"({self.lowerings} lowering{'s' if self.lowerings != 1 else ''})"
        )
        return f"{self.circuit_name}: " + ", ".join(parts)

    # ------------------------------------------------------------------ #
    # Serialization (job-spec API artifact)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable artifact dict (exact round trip)."""
        from ..api.serialize import encode_optional_array

        payload = tagged_dict(
            "pipeline_report",
            {
                "key": self.key,
                "circuit_name": self.circuit_name,
                "n_gates": int(self.n_gates),
                "n_inputs": int(self.n_inputs),
                "n_faults": int(self.n_faults),
                "input_names": list(self.input_names),
                "seed": int(self.seed),
                "conventional_length": _opt_int(self.conventional_length),
                "optimized_length": _opt_int(self.optimized_length),
                "weights": encode_optional_array(self.weights),
                "quantized_weights": encode_optional_array(self.quantized_weights),
                "n_patterns": _opt_int(self.n_patterns),
                "conventional_coverage": _opt_float(self.conventional_coverage),
                "optimized_coverage": _opt_float(self.optimized_coverage),
                "optimization": _opt_dict(self.optimization),
                "conventional_experiment": _opt_dict(self.conventional_experiment),
                "optimized_experiment": _opt_dict(self.optimized_experiment),
                "self_test": _opt_dict(self.self_test),
                "self_test_fault": (
                    None
                    if self.self_test_fault is None
                    else FaultTable.of([self.self_test_fault]).to_lists()[0]
                ),
                "lowerings": int(self.lowerings),
                "seconds": float(self.seconds),
            },
        )
        if self.multi_weight is not None:
            payload["multi_weight"] = self.multi_weight.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PipelineReport":
        """Rebuild a report from :meth:`to_dict` output (validated).

        Rejects unknown ``schema_version`` values and unknown fields with
        :class:`repro.api.serialize.SchemaError`.
        """
        from ..api.serialize import decode_optional_array

        payload = untag(
            data,
            "pipeline_report",
            required=(
                "key",
                "circuit_name",
                "n_gates",
                "n_inputs",
                "n_faults",
                "input_names",
                "seed",
            ),
            optional=(
                "conventional_length",
                "optimized_length",
                "weights",
                "quantized_weights",
                "n_patterns",
                "conventional_coverage",
                "optimized_coverage",
                "optimization",
                "conventional_experiment",
                "optimized_experiment",
                "self_test",
                "self_test_fault",
                "multi_weight",
                "lowerings",
                "seconds",
            ),
        )
        optimization = payload["optimization"]
        conventional_experiment = payload["conventional_experiment"]
        optimized_experiment = payload["optimized_experiment"]
        self_test = payload["self_test"]
        return cls(
            key=str(payload["key"]),
            circuit_name=str(payload["circuit_name"]),
            n_gates=int(payload["n_gates"]),
            n_inputs=int(payload["n_inputs"]),
            n_faults=int(payload["n_faults"]),
            input_names=[str(n) for n in payload["input_names"]],
            seed=int(payload["seed"]),
            conventional_length=_opt_int(payload["conventional_length"]),
            optimized_length=_opt_int(payload["optimized_length"]),
            weights=decode_optional_array(payload["weights"]),
            quantized_weights=decode_optional_array(payload["quantized_weights"]),
            n_patterns=_opt_int(payload["n_patterns"]),
            conventional_coverage=_opt_float(payload["conventional_coverage"]),
            optimized_coverage=_opt_float(payload["optimized_coverage"]),
            optimization=(
                None if optimization is None else OptimizationResult.from_dict(optimization)
            ),
            conventional_experiment=(
                None
                if conventional_experiment is None
                else CoverageExperiment.from_dict(conventional_experiment)
            ),
            optimized_experiment=(
                None
                if optimized_experiment is None
                else CoverageExperiment.from_dict(optimized_experiment)
            ),
            self_test=None if self_test is None else SelfTestReport.from_dict(self_test),
            self_test_fault=(
                None
                if payload["self_test_fault"] is None
                else FaultTable.from_lists([payload["self_test_fault"]])[0]
            ),
            multi_weight=(
                None
                if payload["multi_weight"] is None
                else MultiWeightReport.from_dict(payload["multi_weight"])
            ),
            lowerings=int(payload["lowerings"] or 0),
            seconds=float(payload["seconds"] or 0.0),
        )

    def canonical_dict(self) -> Dict[str, Any]:
        """The artifact dict minus volatile fields (timings, compile counts).

        Two runs of the same spec — serial or parallel, same or different
        process — must produce equal canonical dicts; the batch-executor
        tests assert exactly that.
        """
        return scrub_volatile(self.to_dict())


def _opt_int(value: Optional[int]) -> Optional[int]:
    return None if value is None else int(value)


def _opt_float(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(value)


def _opt_dict(value) -> Optional[Dict[str, Any]]:
    return None if value is None else value.to_dict()
