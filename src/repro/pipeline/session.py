"""The pipeline's result artifact: :class:`PipelineReport`.

The paper's workflow is one pipeline — testability analysis (COP), input
probability optimization, quantization to a realisable weight grid,
fault-simulated validation, and finally the weighted-random *self test* of
section 5.2 (LFSR weighting network + MISR signature).  Its declarative
description is :class:`repro.api.spec.PipelineSpec`, its only execution
path is :func:`repro.api.executor.execute_spec`, and a :class:`PipelineReport`
is what one run returns (and what an artifact store persists under the
plan's report key).  The report states its fault list once, as ``faults``;
each fault-simulation result in it (both legs and the multi-weight
coverage) is a first-detection array indexed by that list.

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

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..api.serialize import artifact, scrub_volatile, wire
from ..core.optimizer import OptimizationResult
from ..faults.model import FAULT_TABLE_WIRE, FAULT_WIRE, Fault, FaultTable
from ..faultsim.parallel import FaultSimResult
from ..patterns.bilbo import SelfTestReport
from ..wrp import MultiWeightReport

__all__ = ["PipelineReport", "ReportBatch"]


@artifact("pipeline_report")
@dataclass
class PipelineReport:
    """Outcome of one pipeline job — the JSON-serializable result artifact.

    Stages a spec skipped leave their fields ``None`` (an analysis-only job
    reports only the workload numbers and ``conventional_length``).

    Attributes:
        key: job label (the spec's :attr:`~repro.api.spec.PipelineSpec.label`).
        circuit_name: name of the circuit under test.
        n_gates / n_inputs: workload size.
        faults: the fault list every fault-simulation result indexes (the
            collapsed, redundancy-filtered list of the ``faults`` row),
            written once as ``[net, stuck_value, gate]`` triples; its length
            is :attr:`n_faults`.
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
        conventional_experiment / optimized_experiment: the fault
            simulations of the two random tests, one first-detection index
            per fault of :attr:`faults`, from which coverage curves and
            undetected-fault counts derive.
        self_test: report of the BIST stage, when the spec requested it.
        self_test_fault: the fault injected into the self-test run (``None``
            for a clean run); with an injection, ``self_test.passed`` False
            means the signature exposed the fault.
        lowerings: lowering compilations attributed to this circuit — 1 for a
            fresh circuit, 0 when the content-addressed cache already held
            the structure.
        seconds: wall-clock time of the run (volatile; excluded from
            :meth:`canonical_dict`).
        multi_weight: report of the multi-weight-set BIST stage
            (:class:`repro.wrp.MultiWeightReport`), when the spec declared
            it; serialized only when present, so artifacts of specs without
            the stage keep their historical wire form.

    Every embedded first-detection array (both legs and the multi-weight
    coverage) has one entry per fault of :attr:`faults`; a report, built or
    read, that breaks this raises.
    """

    key: str
    circuit_name: str
    n_gates: int
    n_inputs: int
    faults: FaultTable = wire(codec=FAULT_TABLE_WIRE)
    input_names: List[str] = wire(default_factory=list, required=True)
    seed: int = wire(default=0, required=True)
    conventional_length: Optional[int] = None
    optimized_length: Optional[int] = None
    weights: Optional[np.ndarray] = None
    quantized_weights: Optional[np.ndarray] = None
    n_patterns: Optional[int] = None
    conventional_coverage: Optional[float] = None
    optimized_coverage: Optional[float] = None
    optimization: Optional[OptimizationResult] = None
    conventional_experiment: Optional[FaultSimResult] = None
    optimized_experiment: Optional[FaultSimResult] = None
    self_test: Optional[SelfTestReport] = None
    self_test_fault: Optional[Fault] = wire(default=None, codec=FAULT_WIRE)
    lowerings: int = 0
    seconds: float = 0.0
    multi_weight: Optional[MultiWeightReport] = wire(default=None, omit_none=True)

    def __post_init__(self) -> None:
        multi = None if self.multi_weight is None else self.multi_weight.coverage.result
        legs = zip(
            ("conventional_experiment", "optimized_experiment", "multi_weight.coverage.result"),
            (self.conventional_experiment, self.optimized_experiment, multi),
        )
        for name, leg in legs:
            n_entries = None if leg is None else len(leg.first_detection)
            if n_entries not in (None, self.n_faults):
                raise ValueError(f"{name} has {n_entries} first detections, not {self.n_faults}")

    @property
    def n_faults(self) -> int:
        return len(self.faults)

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

    def canonical_dict(self) -> Dict[str, Any]:
        """The artifact dict minus volatile fields (timings, compile counts).

        Two runs of the same spec — serial or parallel, same or different
        process — must produce equal canonical dicts; the batch-executor
        tests assert exactly that.
        """
        return scrub_volatile(self.to_dict())


@artifact("report_batch")
@dataclass
class ReportBatch:
    """Several pipeline reports in one file (``python -m repro run``/``sweep``
    with more than one job)."""

    reports: List[PipelineReport]
