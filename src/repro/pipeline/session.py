"""The pipeline façade: circuit registration, spec translation and a store.

The paper's workflow is one pipeline — testability analysis (COP), input
probability optimization, quantization to a realisable weight grid,
fault-simulated validation, and finally the weighted-random *self test* of
section 5.2 (LFSR weighting network + MISR signature).  Its declarative
description is :class:`repro.api.spec.PipelineSpec` and its only execution
path is :func:`repro.api.executor.execute_spec`.

:class:`Session` is the in-process **convenience layer** over that path.
It does three things:

* **registration** — circuits under keys, with their fault lists
  (collapsed, redundancy-filtered by default) and lowerings
  (:meth:`Session.lowerings` / :attr:`Session.total_lowerings` expose the
  compile counter so callers and the CI smoke check can assert reuse);
* **spec translation** — the loose constructor kwargs become typed stage
  configs (:meth:`Session.spec`);
* **run** — :meth:`Session.run` is ``execute_spec(session.spec(key, ...),
  store=session.store)``.  The store is the only cache.

Single stages are direct library calls: :class:`~repro.core.WeightOptimizer`,
:func:`~repro.faultsim.random_pattern_coverage`,
:class:`~repro.patterns.SelfTestSession`, :func:`~repro.wrp.build_weight_sets`
and :func:`~repro.wrp.run_multi_weight_session`.

Seed semantics: the session's ``seed`` is a *root* seed.  Randomized stages
derive per-stage, per-circuit working seeds from it via
:func:`repro.api.spec.derive_seed` (``SeedSequence``-based), so the
fault-simulation and self-test stages of one circuit — and the same stages
of different circuits — never share a pattern stream, yet every run is
reproducible from the one root value.

Typical use::

    from repro import Session, s1_comparator

    session = Session(confidence=0.999)
    session.add(s1_comparator(width=12), key="s1")
    report = session.run("s1", n_patterns=4_000)
    print(report.summary())
    print(json.dumps(report.to_dict()))   # JSON artifact, exact round trip
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..analysis.redundancy import remove_redundant
from ..api.executor import execute_spec
from ..api.serialize import scrub_volatile, tagged_dict, untag
from ..api.spec import (
    ESTIMATOR_NAMES,
    AnalysisConfig,
    FaultSimConfig,
    MultiWeightConfig,
    OptimizeConfig,
    PipelineSpec,
    QuantizeConfig,
    SelfTestConfig,
)
from ..circuit.netlist import Circuit
from ..core.optimizer import OptimizationResult
from ..faults.collapse import collapsed_fault_list
from ..faults.model import Fault
from ..faultsim.coverage import CoverageExperiment
from ..lowered import LoweredCircuit, compile_count, compile_lowered
from ..patterns.bilbo import SelfTestReport
from ..store import MemoryStore, open_store
from ..wrp import MultiWeightReport

__all__ = ["Session", "PipelineReport"]


@dataclass
class PipelineReport:
    """Outcome of one pipeline job — the JSON-serializable result artifact.

    Stages a spec skipped leave their fields ``None`` (an analysis-only job
    reports only the workload numbers and ``conventional_length``).

    Attributes:
        key: job label (session key / spec label).
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
                    None if self.self_test_fault is None else self.self_test_fault.to_list()
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
                else Fault.from_list(payload["self_test_fault"])
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


@dataclass
class _Entry:
    """Per-circuit registration state tracked by a :class:`Session`."""

    circuit: Circuit
    faults: List[Fault]
    lowered: Optional[LoweredCircuit] = None
    lowerings: int = 0


class Session:
    """Registration, spec translation and a store over :func:`execute_spec`.

    A session registers circuits under keys, translates its loose
    constructor kwargs into the typed stage configs of a
    :class:`repro.api.PipelineSpec` (:meth:`spec`), and runs that spec
    through :func:`repro.api.execute_spec` against its store (:meth:`run`).
    It holds no artifacts of its own: every state of a session can be
    written as a spec, and the store — the user's, or a private
    :class:`~repro.store.MemoryStore` — is the only cache, keyed by the
    plan's store keys.  Single stages are library calls
    (:class:`~repro.core.WeightOptimizer`,
    :func:`~repro.faultsim.random_pattern_coverage`,
    :class:`~repro.patterns.SelfTestSession`, ...).

    Args:
        confidence: required probability of detecting every modelled fault
            (shared by the test-length computations and the optimizer).
        estimator: detection-probability estimator by spec name —
            ``"batched"`` (the compiled COP engine, default) or
            ``"scalar"`` (the reference implementation).
        max_sweeps: coordinate-descent sweep budget of the optimizer.
        alpha: optimizer convergence threshold (relative improvement).
        bounds: allowed interval for each input probability.
        seed: *root* seed; the fault-simulation and self-test stages derive
            per-stage, per-circuit seeds from it
            (:func:`repro.api.spec.derive_seed`).
        quantization_step: grid the optimized weights are snapped to.
        drop_redundant: remove faults proven/estimated undetectable from the
            fault list (the paper's coverage convention).
        partition_size: PPSFP fault partition size for the fault-simulation
            stage (``None`` = one partition spanning all active faults).
        store: optional content-addressed artifact store — anything
            :func:`repro.store.open_store` accepts (an
            :class:`~repro.store.ArtifactStore`, a directory path, or a
            ``worker_ref`` dict).  ``None`` keeps a private in-memory store,
            so repeated runs of one spec cost one store read.
    """

    def __init__(
        self,
        confidence: float = 0.999,
        estimator: str = "batched",
        max_sweeps: int = 8,
        alpha: float = 0.01,
        bounds: Tuple[float, float] = (0.05, 0.95),
        seed: int = 1987,
        quantization_step: float = 0.05,
        drop_redundant: bool = True,
        partition_size: Optional[int] = None,
        store: Optional[Any] = None,
    ):
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must lie strictly between 0 and 1")
        if estimator not in ESTIMATOR_NAMES:
            raise ValueError(
                f"unknown estimator {estimator!r}; a session names one of "
                f"{ESTIMATOR_NAMES}"
            )
        self.confidence = confidence
        self.estimator = estimator
        self.max_sweeps = max_sweeps
        self.alpha = alpha
        self.bounds = bounds
        self.seed = seed
        self.quantization_step = quantization_step
        self.drop_redundant = drop_redundant
        self.partition_size = partition_size
        self.store = open_store(store) or MemoryStore()
        self._entries: Dict[str, _Entry] = {}

    # ------------------------------------------------------------------ #
    # Spec translation (the declarative face)
    # ------------------------------------------------------------------ #
    def analysis_config(self) -> AnalysisConfig:
        return AnalysisConfig(
            confidence=self.confidence,
            drop_redundant=self.drop_redundant,
            estimator=self.estimator,
        )

    def optimize_config(self) -> OptimizeConfig:
        return OptimizeConfig(
            max_sweeps=self.max_sweeps,
            alpha=self.alpha,
            bounds=(float(self.bounds[0]), float(self.bounds[1])),
        )

    def quantize_config(self) -> QuantizeConfig:
        return QuantizeConfig(step=self.quantization_step)

    def spec(
        self,
        key: str,
        n_patterns: Optional[int] = None,
        circuit_ref: Optional[str] = None,
        self_test: Optional[SelfTestConfig] = None,
        multi_weight: Optional[MultiWeightConfig] = None,
    ) -> PipelineSpec:
        """The declarative :class:`PipelineSpec` that :meth:`run` executes.

        Args:
            key: registered circuit key (becomes the spec label).
            n_patterns: fault-simulation pattern budget.  ``None`` defers to
                the executor's resolution: the paper budget for a registry
                ``circuit_ref``, 4000 for an inline netlist (the default
                embedding — the session does not guess a registry entry from
                the key).
            circuit_ref: optional registry key to reference instead of
                embedding the inline netlist dict (smaller spec, same
                structure — the caller asserts the equivalence).
            self_test: optional BIST stage config to append.
            multi_weight: optional multi-weight-set stage config to append.
        """
        entry = self._entry(key)
        circuit: Union[str, Dict[str, Any]] = (
            circuit_ref if circuit_ref is not None else entry.circuit.to_dict()
        )
        return PipelineSpec(
            circuit=circuit,
            key=key,
            seed=self.seed,
            analysis=self.analysis_config(),
            optimize=self.optimize_config(),
            quantize=self.quantize_config(),
            fault_sim=FaultSimConfig(
                n_patterns=n_patterns,
                partition_size=self.partition_size,
            ),
            self_test=self_test,
            multi_weight=multi_weight,
        )

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def add(self, circuit: Circuit, key: Optional[str] = None) -> str:
        """Register a circuit and return its session key.

        Re-adding the same instance — or any *structurally identical*
        circuit (equal :meth:`~repro.circuit.netlist.Circuit.structural_hash`,
        e.g. a fresh rebuild of the same netlist) — under an existing key is
        a no-op that keeps the existing entry.  A genuinely different
        structure under the same key is an error.
        """
        key = key if key is not None else circuit.name
        existing = self._entries.get(key)
        if existing is not None:
            if not (
                existing.circuit is circuit
                or existing.circuit.structural_hash() == circuit.structural_hash()
            ):
                raise ValueError(
                    f"session already holds a structurally different circuit "
                    f"under key {key!r}"
                )
            return key
        faults = collapsed_fault_list(circuit)
        if self.drop_redundant:
            faults = remove_redundant(circuit, faults)
        self._entries[key] = _Entry(circuit=circuit, faults=faults)
        return key

    def has(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> List[str]:
        """Registered circuit keys, in registration order."""
        return list(self._entries)

    def _entry(self, key: str) -> _Entry:
        try:
            return self._entries[key]
        except KeyError as exc:
            raise KeyError(
                f"no circuit registered under key {key!r}; call Session.add first"
            ) from exc

    def circuit(self, key: str) -> Circuit:
        return self._entry(key).circuit

    def faults(self, key: str) -> List[Fault]:
        """The fault list :meth:`run` simulates (collapsed, and
        redundancy-filtered when ``drop_redundant``)."""
        return self._entry(key).faults

    def lowered(self, key: str) -> LoweredCircuit:
        """The circuit's lowered IR, compiling it on first use.

        The compile goes through the content-addressed process cache, so the
        per-circuit :meth:`lowerings` count is 1 for a structure first seen
        here and 0 when another instance already populated the cache.
        """
        entry = self._entry(key)
        if entry.lowered is None:
            before = compile_count()
            entry.lowered = compile_lowered(entry.circuit)
            entry.lowerings += compile_count() - before
        return entry.lowered

    def lowerings(self, key: str) -> int:
        """Lowering compilations performed on behalf of ``key`` so far."""
        return self._entry(key).lowerings

    @property
    def total_lowerings(self) -> int:
        """Lowering compilations performed across all registered circuits.

        After any number of runs this is at most the number of distinct
        circuit structures in the session — the compile-reuse invariant the
        CI smoke check asserts.
        """
        return sum(entry.lowerings for entry in self._entries.values())

    # ------------------------------------------------------------------ #
    # The full pipeline
    # ------------------------------------------------------------------ #
    def run(
        self,
        key: Optional[str] = None,
        n_patterns: int = 4_000,
        self_test: Optional[SelfTestConfig] = None,
        multi_weight: Optional[MultiWeightConfig] = None,
    ) -> Union[PipelineReport, List[PipelineReport]]:
        """Run analyze → optimize → quantize → fault-simulate [→ self-test].

        Executes :meth:`spec` with :func:`repro.api.execute_spec` against the
        session's store, so a repeated run is one store read.

        Args:
            key: a single registered circuit, or ``None`` to run the pipeline
                over every registered circuit (returning a list of reports).
            n_patterns: pattern budget of the fault-simulated validation.
            self_test: optional BIST stage config to append to the run.
            multi_weight: optional multi-weight-set stage config to append.
        """
        if key is None:
            return [
                self.run(
                    k,
                    n_patterns=n_patterns,
                    self_test=self_test,
                    multi_weight=multi_weight,
                )
                for k in self.keys()
            ]
        spec = self.spec(
            key, n_patterns=n_patterns, self_test=self_test, multi_weight=multi_weight
        )
        before = compile_count()
        report = execute_spec(spec, store=self.store)
        self._entry(key).lowerings += compile_count() - before
        return report
