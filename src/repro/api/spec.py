"""Declarative job specs: typed per-stage configs and the pipeline spec.

The paper's PROTEST workflow is a batch pipeline — analyze → optimize →
quantize → fault-simulate → self-test.  A :class:`PipelineSpec` describes one
such job *declaratively*: a circuit reference (benchmark-registry name or an
inline netlist dict), one frozen config dataclass per stage, and a single
root seed from which every stage derives its own, non-correlated seed.
Specs are plain data — they validate on construction, round-trip through
JSON exactly (:meth:`PipelineSpec.to_dict` / :meth:`PipelineSpec.from_dict`)
and carry no process state, so they can be stored, diffed, shipped to worker
processes (:func:`repro.api.run_jobs`) or fed to ``python -m repro``.

Stage presence is expressed by the config being present: ``optimize=None``
means "analysis only", ``self_test=SelfTestConfig(...)`` appends the BIST
stage.  Later stages consume earlier ones, so the spec enforces the chain
(quantize needs optimize; a weighted self test needs quantized weights).

Seed semantics
--------------
``seed`` is the job's *root* seed.  Each randomized stage of each circuit
draws its working seed via :func:`derive_seed`, which builds a child
:class:`numpy.random.SeedSequence` keyed by the stage name and the circuit
label (the same parent/child derivation as ``SeedSequence.spawn``, with a
stable name-derived spawn key instead of a call-order-dependent counter).
Consequences:

* batch runs are **reproducible** — the same spec always yields the same
  patterns, serial or parallel, whatever the execution order;
* stages are **non-correlated** — the fault-simulation stage and the
  self-test stage of one circuit no longer share a pattern stream, and two
  circuits in one sweep never reuse each other's patterns, even though the
  whole batch is described by one root seed.

Wire constants
--------------
No spec field selects how a result is computed.  The kernel tier is chosen
by the process alone: the native C kernels when a compiler is found, else
the numpy kernels of :mod:`repro.simulation.compiled` and
:mod:`repro.analysis.compiled`, with byte-identical results.  Every spec
runs one COP engine (:class:`~repro.analysis.compiled.BatchedCopEstimator`)
and one fault-simulation shape, whose detections no batch size, fault
grouping or partition size can change.  The configs once named a kernel
backend, a scalar or batched estimator and those three fault-simulation
knobs; their wire dicts still carry each removed field at its old default
(:data:`WIRE_CONSTANTS`), so spec hashes and stage store keys are
unchanged.  Reading drops them; it also accepts
``"backend": "numpy"`` and any boolean ``allow_fallback``, and any other
value, such as ``"backend": "numba"`` or ``"estimator": "scalar"``, raises
:class:`~repro.api.serialize.SchemaError`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..circuit.netlist import Circuit
from ..patterns.bilbo import MAX_SCHEDULE_PATTERNS
from .serialize import ARTIFACT_TYPES, SchemaError, artifact, tagged_dict, untag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuits.sources import CircuitSource

__all__ = [
    "AnalysisConfig",
    "OptimizeConfig",
    "QuantizeConfig",
    "FaultSimConfig",
    "SelfTestConfig",
    "MultiWeightConfig",
    "PipelineSpec",
    "derive_seed",
    "STAGE_NAMES",
    "SEED_NAMESPACES",
]

#: Names of the paper's pipeline stages, in execution order.  The optional
#: multi-weight-set stage (:class:`MultiWeightConfig`) is an extension stage
#: appended after these when a spec declares it.
STAGE_NAMES = ("analysis", "optimize", "quantize", "fault_sim", "self_test")

#: Namespace of :func:`derive_seed`'s ``stage`` argument: the pipeline stages
#: plus non-stage consumers (the synthetic netlist generator) and the
#: multi-weight-set stage's two seed consumers (fault clustering, per-set
#: LFSR reseeds).  APPEND ONLY — the index feeds the spawn key, so reordering
#: or inserting entries would silently change every previously derived seed.
SEED_NAMESPACES = STAGE_NAMES + ("generate", "cluster", "multi_weight")

#: Wire constants of removed spec choices: field name -> (the value every
#: config writes, the values a read accepts, the error for any other value).
#: The configs that carry them (:func:`_constants`) still emit them, so the
#: spec hash and every stage store key stay byte-identical.
WIRE_CONSTANTS: Dict[str, Tuple[Any, Tuple[Any, ...], str]] = {
    "backend": (
        None,
        (None, "numpy"),
        "backend {!r} was removed; every spec runs the native kernels when "
        "a C compiler is found and the numpy kernels otherwise",
    ),
    "allow_fallback": (False, (False, True), "allow_fallback must be a bool, got {!r}"),
    "estimator": (
        "batched",
        ("batched",),
        "estimator {!r} was removed; the estimator switch is gone and every "
        "spec runs the batched COP engine",
    ),
    "batch_size": (
        2048,
        (2048,),
        "batch_size {!r} was removed; fault simulation ramps its batches up "
        "to 2048 patterns, and no batch size changes a detection",
    ),
    "fault_group": (
        None,
        (None,),
        "fault_group {!r} was removed; fault simulation groups faults by one "
        "fixed column budget, and no grouping changes a detection",
    ),
    "partition_size": (
        None,
        (None,),
        "partition_size {!r} was removed; fault simulation runs the whole "
        "active fault set at once, and no partition size changes a detection",
    ),
}


def _constants(*names: str) -> Dict[str, Tuple[Any, Tuple[Any, ...], str]]:
    """The :data:`WIRE_CONSTANTS` entries a config's wire form carries.

    A read accepts each absent or ``null``, or holding one of its accepted
    values (compared with their types, so ``1`` is not ``True``); anything
    else is a typed error.
    """
    return {name: WIRE_CONSTANTS[name] for name in names}


# --------------------------------------------------------------------------- #
# Seed derivation
# --------------------------------------------------------------------------- #
def derive_seed(root_seed: int, stage: str, label: str = "") -> int:
    """Deterministic per-stage, per-circuit seed from one root seed.

    Builds the child ``SeedSequence(root_seed, spawn_key=...)`` whose spawn
    key encodes ``stage`` (by its index in :data:`STAGE_NAMES`) and ``label``
    (by a stable blake2b digest), then draws one 64-bit state word.  This is
    exactly the parent/child construction of
    :meth:`numpy.random.SeedSequence.spawn`, made order-independent: the
    derived seed depends only on ``(root_seed, stage, label)``, never on how
    many other stages or circuits were seeded before.
    """
    if not isinstance(root_seed, int) or isinstance(root_seed, bool) or root_seed < 0:
        raise ValueError(f"root seed must be a non-negative int, got {root_seed!r}")
    try:
        stage_index = SEED_NAMESPACES.index(stage)
    except ValueError as exc:
        raise ValueError(
            f"unknown stage {stage!r}; expected one of {SEED_NAMESPACES}"
        ) from exc
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    label_words = tuple(
        int.from_bytes(digest[i : i + 4], "little") for i in (0, 4)
    )
    sequence = np.random.SeedSequence(
        entropy=root_seed, spawn_key=(stage_index, *label_words)
    )
    seed = int(sequence.generate_state(1, np.uint64)[0])
    if seed & 0xFFFFFFFF == 0:
        # Guard the (2^-32) corner: LFSR-backed generators mask the seed to
        # the register width and reject an all-zero state.
        seed |= 1
    return seed


# --------------------------------------------------------------------------- #
# Config validation shared by the stage dataclasses
# --------------------------------------------------------------------------- #
def _check_positive_int(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ValueError(f"{name} must be a positive int, got {value!r}")


def _check_schedule_length(name: str, value: int) -> None:
    _check_positive_int(name, value)
    if value > MAX_SCHEDULE_PATTERNS:
        raise ValueError(
            f"{name} must be at most MAX_SCHEDULE_PATTERNS = "
            f"{MAX_SCHEDULE_PATTERNS:,}, got {value:,}"
        )


def _check_bool(name: str, value: bool) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_fraction(name: str, value: float, open_interval: bool = True) -> None:
    ok = _is_number(value)
    if ok:
        ok = 0.0 < float(value) < 1.0 if open_interval else 0.0 <= float(value) <= 1.0
    if not ok:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")


# --------------------------------------------------------------------------- #
# Per-stage configs
# --------------------------------------------------------------------------- #
@artifact("analysis_config", constants=_constants("backend", "allow_fallback", "estimator"))
@dataclass(frozen=True)
class AnalysisConfig:
    """Stage 1 — testability analysis (COP detection probabilities).

    Every spec estimates detection probabilities with the batched COP
    engine (:class:`~repro.analysis.compiled.BatchedCopEstimator`); the
    scalar :class:`~repro.analysis.detection.CopDetectionEstimator` is its
    differential reference, called directly by tests and benchmarks.

    Attributes:
        confidence: required probability of detecting every modelled fault;
            shared by the test-length computation and the optimizer.
        drop_redundant: exclude faults proven/estimated undetectable from the
            fault list (the paper's coverage convention).
    """

    confidence: float = 0.999
    drop_redundant: bool = True

    def __post_init__(self) -> None:
        _check_fraction("confidence", self.confidence)
        _check_bool("drop_redundant", self.drop_redundant)


@artifact("optimize_config")
@dataclass(frozen=True)
class OptimizeConfig:
    """Stage 2 — input-probability optimization (ANALYSIS/PREPARE/OPTIMIZE).

    Attributes:
        max_sweeps: coordinate-descent sweep budget.
        alpha: relative-improvement convergence threshold.
        bounds: allowed interval for each input probability (Lemma 2 keeps
            it away from 0 and 1).
    """

    max_sweeps: int = 8
    alpha: float = 0.01
    bounds: Tuple[float, float] = (0.05, 0.95)

    def __post_init__(self) -> None:
        _check_positive_int("max_sweeps", self.max_sweeps)
        _check_fraction("alpha", self.alpha)
        if isinstance(self.bounds, list):
            object.__setattr__(self, "bounds", tuple(self.bounds))
        if not (
            isinstance(self.bounds, tuple)
            and len(self.bounds) == 2
            and all(_is_number(bound) for bound in self.bounds)
            and 0.0 <= float(self.bounds[0]) < float(self.bounds[1]) <= 1.0
        ):
            raise ValueError(f"bounds must satisfy 0 <= low < high <= 1, got {self.bounds!r}")


@artifact("quantize_config")
@dataclass(frozen=True)
class QuantizeConfig:
    """Stage 3 — snapping the optimized weights to a realisable grid.

    Attributes:
        step: decimal grid step (the paper's appendix uses 0.05).
        lfsr_resolution: if set, quantize to the ``k / 2**resolution`` grid
            of an LFSR weighting network instead of the decimal grid.
    """

    step: float = 0.05
    lfsr_resolution: Optional[int] = None

    def __post_init__(self) -> None:
        _check_fraction("step", self.step)
        if self.lfsr_resolution is not None and not (
            isinstance(self.lfsr_resolution, int)
            and not isinstance(self.lfsr_resolution, bool)
            and 1 <= self.lfsr_resolution <= 16
        ):
            raise ValueError(
                f"lfsr_resolution must be an int in [1, 16], got {self.lfsr_resolution!r}"
            )


@artifact(
    "fault_sim_config",
    constants=_constants(
        "backend", "allow_fallback", "batch_size", "fault_group", "partition_size"
    ),
)
@dataclass(frozen=True)
class FaultSimConfig:
    """Stage 4 — fault-simulated validation of (weighted) random patterns.

    Attributes:
        n_patterns: pattern budget (an upper bound when ``target_coverage``
            is set).  ``None`` falls back to the circuit's paper budget when
            the spec references a registry circuit, else 4000.
        target_coverage: optional coverage fraction at which to stop early.
    """

    n_patterns: Optional[int] = None
    target_coverage: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_patterns is not None:
            _check_positive_int("n_patterns", self.n_patterns)
        if self.target_coverage is not None:
            _check_fraction("target_coverage", self.target_coverage, open_interval=False)


@artifact("self_test_config")
@dataclass(frozen=True)
class SelfTestConfig:
    """Stage 5 — BILBO-style self test (LFSR weighting network + MISR).

    Attributes:
        n_patterns: self-test length N, at most
            :data:`~repro.patterns.bilbo.MAX_SCHEDULE_PATTERNS`.
        use_lfsr: draw patterns from the hardware-realistic LFSR weighting
            network instead of the software PRNG.
        weighted: apply the quantized optimized weights (requires the
            quantize stage); ``False`` runs a conventional equiprobable
            session.
        misr_width / misr_taps: signature-register override for circuits
            with more primary outputs than the largest tabulated width.
        inject_hardest: additionally re-run the session with the hardest
            fault (lowest baseline detection probability) injected and
            report that signature, demonstrating end-to-end detection.
    """

    n_patterns: int = 2_000
    use_lfsr: bool = True
    weighted: bool = True
    misr_width: Optional[int] = None
    misr_taps: Optional[Tuple[int, ...]] = None
    inject_hardest: bool = False

    def __post_init__(self) -> None:
        _check_schedule_length("n_patterns", self.n_patterns)
        for name in ("use_lfsr", "weighted", "inject_hardest"):
            _check_bool(name, getattr(self, name))
        if self.misr_taps is not None:
            object.__setattr__(self, "misr_taps", tuple(int(t) for t in self.misr_taps))
        if self.misr_width is not None:
            _check_positive_int("misr_width", self.misr_width)


@artifact("multi_weight_config")
@dataclass(frozen=True)
class MultiWeightConfig:
    """Optional stage 6 — multi-weight-set BIST (:mod:`repro.wrp`).

    Clusters the fault list by detection-profile similarity around the
    single-set optimum, optimizes one weight set per cluster, and plays the
    sets in sequence through reseeded multi-polynomial LFSRs
    (:func:`repro.wrp.run_multi_weight_session`), into the spec's one MISR:
    ``self_test.misr_width`` / ``misr_taps`` apply here too.  Requires the
    quantize stage (the sets specialize the quantized single-set optimum).

    Attributes:
        k: requested number of weight sets (fault clusters); ``1`` degenerates
            bit-identically to the single-set self test.
        budget: optional total pattern budget apportioned across the sets
            (:func:`repro.wrp.allocate_budget`), at most
            :data:`~repro.patterns.bilbo.MAX_SCHEDULE_PATTERNS`; ``None``
            budgets each set its jointly normalized share, and a schedule
            that then exceeds the cap fails at playback.
        scan_chains: if set, deliver patterns STUMPS-style through this many
            parallel scan chains (:class:`repro.wrp.StumpsPatternGenerator`)
            instead of a direct parallel load — the >64-input architecture.
        target_coverage: optional fault-coverage fraction at which the
            session's coverage run stops early.
    """

    k: int = 4
    budget: Optional[int] = None
    scan_chains: Optional[int] = None
    target_coverage: Optional[float] = None

    def __post_init__(self) -> None:
        _check_positive_int("k", self.k)
        if self.budget is not None:
            _check_schedule_length("budget", self.budget)
        if self.scan_chains is not None:
            _check_positive_int("scan_chains", self.scan_chains)
        if self.target_coverage is not None:
            _check_fraction("target_coverage", self.target_coverage, open_interval=False)


# --------------------------------------------------------------------------- #
# The pipeline spec
# --------------------------------------------------------------------------- #
_SPEC_STAGE_TYPES = {
    "analysis": AnalysisConfig,
    "optimize": OptimizeConfig,
    "quantize": QuantizeConfig,
    "fault_sim": FaultSimConfig,
    "self_test": SelfTestConfig,
    "multi_weight": MultiWeightConfig,
}


@dataclass(frozen=True)
class PipelineSpec:
    """One declarative pipeline job: a circuit plus its stage configs.

    Attributes:
        circuit: circuit reference — any form accepted by
            :meth:`repro.circuits.sources.CircuitSource.from_ref`: a
            benchmark-registry key (``"s1"``, ``"c6288"``, ...), an inline
            netlist dict (:meth:`repro.circuit.netlist.Circuit.to_dict`), a
            source dict (``{"kind": "file"|"generator"|..., ...}``), a
            :class:`~repro.circuits.sources.CircuitSource` or a
            :class:`~repro.circuit.netlist.Circuit`.  Rich objects are
            normalized to the JSON wire form on construction.
        key: label of the job's artifacts; defaults to the source's label
            (registry key, netlist name, file stem or generator name).
        seed: root seed; every randomized stage derives its own seed via
            :func:`derive_seed` (see the module docstring for the
            semantics).
        analysis: always-on analysis stage config.
        optimize / quantize / fault_sim / self_test: optional stage configs;
            ``None`` skips the stage (and everything that needs it).
        multi_weight: optional multi-weight-set BIST stage
            (:class:`MultiWeightConfig`); serialized only when present so
            existing spec hashes are unaffected.
    """

    circuit: Union[str, Mapping]
    key: Optional[str] = None
    seed: int = 1987
    analysis: AnalysisConfig = AnalysisConfig()
    optimize: Optional[OptimizeConfig] = OptimizeConfig()
    quantize: Optional[QuantizeConfig] = QuantizeConfig()
    fault_sim: Optional[FaultSimConfig] = FaultSimConfig()
    self_test: Optional[SelfTestConfig] = None
    multi_weight: Optional[MultiWeightConfig] = None

    def __post_init__(self) -> None:
        from ..circuits.sources import CircuitSource

        # Decoding checks the ref whole (an inline netlist as a circuit), once.
        source = CircuitSource.from_ref(self.circuit)
        object.__setattr__(self, "circuit", source.to_ref())
        object.__setattr__(self, "_source", source)
        if self.key is not None and not isinstance(self.key, str):
            raise ValueError(f"key must be a str or None, got {self.key!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")
        for name, config_type in _SPEC_STAGE_TYPES.items():
            value = getattr(self, name)
            if value is not None and not isinstance(value, config_type):
                raise ValueError(
                    f"{name} must be a {config_type.__name__} or None, "
                    f"got {type(value).__name__}"
                )
        if self.quantize is not None and self.optimize is None:
            raise ValueError("the quantize stage requires the optimize stage")
        if self.self_test is not None and self.self_test.weighted and self.quantize is None:
            raise ValueError("a weighted self test requires the quantize stage")
        if self.multi_weight is not None and self.quantize is None:
            raise ValueError("the multi_weight stage requires the quantize stage")

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would crash on an inline
        # netlist dict; hash the canonical wire form instead so specs work
        # as set members / dict keys (dedup in batch drivers) either way.
        return hash(self.spec_hash())

    def canonical_dict(self) -> Dict[str, Any]:
        """The spec's canonical content — what :meth:`spec_hash` digests.

        Specs are purely declarative (no timings, compile counts or other
        volatile fields), so this is simply :meth:`to_dict`; the method
        exists so specs and reports share one canonicalization vocabulary.
        """
        return self.to_dict()

    def spec_hash(self) -> str:
        """Stable sha256 content hash of the spec (hex digest).

        The digest is taken over the canonical JSON text of
        :meth:`canonical_dict` (sorted keys, no whitespace), so it depends
        only on the declarative content: the normalized circuit ref, the
        key, the root seed and the stage configs.  Two equal specs — built
        in different processes, loaded from different files, on different
        machines — always hash identically, which makes this the dedup and
        cache identity of the content-addressed artifact store and the job
        service (``repro.store`` / ``repro.service``).

        Note: a ``{"kind": "file", "path": ...}`` circuit ref hashes by its
        *path* string, not the file bytes — use the self-contained ``text``
        form when the store must be robust against files changing on disk.
        """
        from .serialize import content_hash

        return content_hash(self.canonical_dict())

    # ------------------------------------------------------------------ #
    @property
    def source(self) -> "CircuitSource":
        """The typed circuit source behind the wire-form :attr:`circuit` ref."""
        return self._source

    @property
    def label(self) -> str:
        """The artifact label: explicit key, or the circuit source's label."""
        if self.key is not None:
            return self.key
        return self.source.label

    def build_circuit(self) -> Circuit:
        """Materialize the referenced circuit (registry, file, inline or generated)."""
        return self.source.build()

    def stage_seed(self, stage: str) -> int:
        """The derived seed of one stage of this job (see :func:`derive_seed`)."""
        return derive_seed(self.seed, stage, self.label)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable spec dict (validated exact round trip)."""
        circuit: Union[str, Dict[str, Any]]
        if isinstance(self.circuit, str):
            circuit = self.circuit
        else:
            circuit = dict(self.circuit)
        payload: Dict[str, Any] = {
            "circuit": circuit,
            "key": self.key,
            "seed": self.seed,
            "analysis": self.analysis.to_dict(),
            "optimize": None if self.optimize is None else self.optimize.to_dict(),
            "quantize": None if self.quantize is None else self.quantize.to_dict(),
            "fault_sim": None if self.fault_sim is None else self.fault_sim.to_dict(),
            "self_test": None if self.self_test is None else self.self_test.to_dict(),
        }
        if self.multi_weight is not None:
            # Written only when declared: a spec without the extension stage
            # keeps its historical wire form (and spec hash) byte-identical.
            payload["multi_weight"] = self.multi_weight.to_dict()
        return tagged_dict("pipeline_spec", payload)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineSpec":
        """Rebuild a spec, rejecting unknown versions and fields."""
        payload = untag(
            data,
            "pipeline_spec",
            required=("circuit", "seed"),
            optional=(
                "key",
                "analysis",
                "optimize",
                "quantize",
                "fault_sim",
                "self_test",
                "multi_weight",
            ),
        )
        kwargs: Dict[str, Any] = {
            "circuit": payload["circuit"],
            "key": payload["key"],
            "seed": payload["seed"],
        }
        for name, config_type in _SPEC_STAGE_TYPES.items():
            value = payload[name]
            if name == "analysis":
                kwargs[name] = (
                    AnalysisConfig() if value is None else AnalysisConfig.from_dict(value)
                )
            elif name not in data:
                # Absent field: keep the constructor's stage default (a
                # hand-written minimal spec runs the same pipeline as
                # PipelineSpec(circuit=...)).  An explicit null skips the
                # stage — to_dict always writes every field, so round trips
                # are unaffected.
                continue
            else:
                kwargs[name] = None if value is None else config_type.from_dict(value)
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise SchemaError(f"invalid pipeline_spec payload: {exc}") from exc


# The spec keeps its own codec (absent and null stages read differently);
# load_artifact reads it through the one registry all the same.
ARTIFACT_TYPES["pipeline_spec"] = PipelineSpec
