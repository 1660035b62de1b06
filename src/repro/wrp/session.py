"""Multi-weight-set self-test session: sequenced playback and scheduling.

:class:`MultiSetSelfTestSession` is the architecture-level counterpart of the
single-set :class:`repro.patterns.bilbo.SelfTestSession`: it plays a
:class:`~repro.wrp.multiset.MultiWeightSet`'s weight sets *in sequence*
through the compiled LFSR/weighting/MISR kernels.  Each set owns its pattern
budget, its LFSR polynomial and its reseed; one signature register compacts
the responses of the whole schedule, so the final signature is exactly what
the hardware would hold after the last set — and for ``k = 1`` with the
default set-0 polynomial it is bit-identical to the single-set session.

Two playback modes:

* **parallel load** (default) — every input gets its weighted bit directly
  from the weighting network, as in the paper's BILBO module;
* **STUMPS scan delivery** (``scan_chains=n``) — bits are shifted serially
  through ``n`` scan chains (:class:`repro.wrp.scan.StumpsPatternGenerator`),
  the delivery that scales past the 64-bit register-width limit.

:meth:`MultiSetSelfTestSession.coverage` is the *scheduler*: it streams every
set's patterns through one fault-parallel simulator with fault dropping
across set boundaries, records how many patterns each set actually applied,
and stops early — mid-set and across sets — once a target coverage is
reached.  The merged result is one :class:`repro.faultsim.parallel.FaultSimResult`
over the concatenated pattern stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..faultsim.parallel import FaultSimResult, ParallelFaultSimulator
from ..patterns.compiled import CompiledLfsrWeightedPatternGenerator, CompiledMISR
from ..patterns.misr import MISR, default_misr_width
from ..simulation.compiled import CompiledCircuit, compile_circuit
from ..simulation.logicsim import pack_patterns, unpack_values
from .multiset import MultiWeightSet, WeightSetEntry
from .scan import StumpsPatternGenerator

__all__ = [
    "MultiSetSelfTestSession",
    "MultiSetSelfTestReport",
    "MultiSetCoverage",
    "MultiWeightReport",
    "run_multi_weight_session",
]


@dataclass
class MultiSetSelfTestReport:
    """Outcome of one multi-set self-test playback."""

    circuit_name: str
    n_sets: int
    per_set_patterns: Tuple[int, ...]
    n_patterns: int
    signature: int
    golden_signature: int
    scan_chains: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.signature == self.golden_signature

    def to_dict(self) -> Dict:
        from ..api.serialize import tagged_dict

        return tagged_dict(
            "multi_set_self_test_report",
            {
                "circuit_name": self.circuit_name,
                "n_sets": int(self.n_sets),
                "per_set_patterns": [int(n) for n in self.per_set_patterns],
                "n_patterns": int(self.n_patterns),
                "signature": int(self.signature),
                "golden_signature": int(self.golden_signature),
                "scan_chains": None if self.scan_chains is None else int(self.scan_chains),
            },
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "MultiSetSelfTestReport":
        from ..api.serialize import untag

        payload = untag(
            data,
            "multi_set_self_test_report",
            required=(
                "circuit_name",
                "n_sets",
                "per_set_patterns",
                "n_patterns",
                "signature",
                "golden_signature",
                "scan_chains",
            ),
        )
        scan_chains = payload["scan_chains"]
        return cls(
            circuit_name=str(payload["circuit_name"]),
            n_sets=int(payload["n_sets"]),
            per_set_patterns=tuple(int(n) for n in payload["per_set_patterns"]),
            n_patterns=int(payload["n_patterns"]),
            signature=int(payload["signature"]),
            golden_signature=int(payload["golden_signature"]),
            scan_chains=None if scan_chains is None else int(scan_chains),
        )


@dataclass
class MultiSetCoverage:
    """Fault coverage of a sequenced multi-set schedule.

    Attributes:
        result: merged fault-simulation result over the concatenated pattern
            stream of all sets (first-detection indices are stream-global).
        applied: patterns actually applied per set — short of the budget when
            the coverage target stopped the schedule early.
        target_coverage: the early-stop target, if any.
    """

    result: FaultSimResult
    applied: Tuple[int, ...]
    target_coverage: Optional[float]

    @property
    def coverage(self) -> float:
        return self.result.coverage_at(self.result.n_patterns)

    @property
    def n_patterns(self) -> int:
        return int(self.result.n_patterns)

    def to_dict(self) -> Dict:
        from ..api.serialize import tagged_dict

        return tagged_dict(
            "multi_set_coverage",
            {
                "result": self.result.to_dict(),
                "applied": [int(n) for n in self.applied],
                "target_coverage": (
                    None if self.target_coverage is None else float(self.target_coverage)
                ),
            },
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "MultiSetCoverage":
        from ..api.serialize import untag

        payload = untag(
            data,
            "multi_set_coverage",
            required=("result", "applied", "target_coverage"),
        )
        target = payload["target_coverage"]
        return cls(
            result=FaultSimResult.from_dict(payload["result"]),
            applied=tuple(int(n) for n in payload["applied"]),
            target_coverage=None if target is None else float(target),
        )


class MultiSetSelfTestSession:
    """Play a multi-weight-set schedule through the compiled BIST substrate.

    Args:
        circuit: circuit under test.
        weight_sets: a :class:`MultiWeightSet` artifact or a bare sequence of
            :class:`WeightSetEntry`.
        scan_chains: ``None`` for parallel load; an integer switches every
            set's pattern source to STUMPS scan delivery through that many
            chains.
        misr_width / misr_taps: signature-register override, as in the
            single-set session.
    """

    def __init__(
        self,
        circuit: Circuit,
        weight_sets: Union[MultiWeightSet, Sequence[WeightSetEntry]],
        scan_chains: Optional[int] = None,
        misr_width: Optional[int] = None,
        misr_taps: Optional[Sequence[int]] = None,
    ):
        self.circuit = circuit
        if isinstance(weight_sets, MultiWeightSet):
            if weight_sets.n_inputs != circuit.n_inputs:
                raise ValueError(
                    f"weight sets were built for {weight_sets.n_inputs} inputs, "
                    f"circuit has {circuit.n_inputs}"
                )
            entries = list(weight_sets.sets)
        else:
            entries = list(weight_sets)
        if not entries:
            raise ValueError("at least one weight set is required")
        for entry in entries:
            if len(entry.quantized_weights) != circuit.n_inputs:
                raise ValueError(
                    f"weight set {entry.index} has {len(entry.quantized_weights)} "
                    f"weights; circuit has {circuit.n_inputs} inputs"
                )
        if scan_chains is not None and scan_chains < 1:
            raise ValueError(f"scan_chains must be positive, got {scan_chains!r}")
        self.entries = entries
        self.scan_chains = scan_chains
        if misr_width is None:
            misr_width = default_misr_width(circuit.n_outputs)
        self.misr_width = misr_width
        self.misr_taps = tuple(misr_taps) if misr_taps is not None else None
        self._engine: CompiledCircuit = compile_circuit(circuit)
        self._patterns: Optional[List[np.ndarray]] = None
        self._good_values: Optional[List[np.ndarray]] = None
        self._golden: Optional[int] = None

    # ------------------------------------------------------------------ #
    @property
    def n_sets(self) -> int:
        return len(self.entries)

    @property
    def n_patterns(self) -> int:
        """Total scheduled patterns across all sets."""
        return int(sum(entry.n_patterns for entry in self.entries))

    def _make_generator(self, entry: WeightSetEntry):
        if self.scan_chains is not None:
            return StumpsPatternGenerator(
                entry.quantized_weights,
                n_chains=self.scan_chains,
                lfsr_width=entry.lfsr_width,
                lfsr_taps=entry.lfsr_taps,
                seed=entry.lfsr_seed,
            )
        return CompiledLfsrWeightedPatternGenerator(
            entry.quantized_weights,
            lfsr_width=entry.lfsr_width,
            lfsr_taps=entry.lfsr_taps,
            seed=entry.lfsr_seed,
        )

    def _fresh_misr(self) -> Union[CompiledMISR, MISR]:
        if self.misr_width <= 64:
            return CompiledMISR(self.misr_width, taps=self.misr_taps)
        return MISR(self.misr_width, taps=self.misr_taps)

    def patterns(self) -> List[np.ndarray]:
        """The (cached) per-set pattern matrices of the schedule."""
        if self._patterns is None:
            self._patterns = [
                self._make_generator(entry).generate(entry.n_patterns)
                for entry in self.entries
            ]
        return self._patterns

    def _good_net_values(self) -> List[np.ndarray]:
        if self._good_values is None:
            self._good_values = [
                self._engine.simulate_words(pack_patterns(matrix))
                for matrix in self.patterns()
            ]
        return self._good_values

    def _responses(self, set_index: int, fault: Optional[Fault]) -> np.ndarray:
        good = self._good_net_values()[set_index]
        n_patterns = self.entries[set_index].n_patterns
        if fault is None:
            return unpack_values(good[self._engine.outputs], n_patterns)
        n_words = good.shape[1]
        out_words = self._engine.fault_output_words([fault], good, n_words)[:, 0, :]
        return unpack_values(out_words, n_patterns)

    def _signature(self, fault: Optional[Fault]) -> int:
        # One register spans the whole schedule: compact continues the state
        # across sets, so the result equals compacting the concatenation.
        misr = self._fresh_misr()
        signature = 0
        for set_index in range(self.n_sets):
            signature = misr.compact(self._responses(set_index, fault))
        return int(signature)

    def golden_signature(self) -> int:
        """Signature of the fault-free circuit over the whole schedule."""
        if self._golden is None:
            self._golden = self._signature(None)
        return self._golden

    def run(self, fault: Optional[Fault] = None) -> MultiSetSelfTestReport:
        """Execute the schedule, optionally with a fault injected."""
        golden = self.golden_signature()
        signature = golden if fault is None else self._signature(fault)
        return MultiSetSelfTestReport(
            circuit_name=self.circuit.name,
            n_sets=self.n_sets,
            per_set_patterns=tuple(int(e.n_patterns) for e in self.entries),
            n_patterns=self.n_patterns,
            signature=signature,
            golden_signature=golden,
            scan_chains=self.scan_chains,
        )

    # ------------------------------------------------------------------ #
    def coverage(
        self,
        faults: Optional[Sequence[Fault]] = None,
        target_coverage: Optional[float] = None,
        partition_size: Optional[int] = None,
        fault_group: Optional[int] = None,
        batch_size: int = 2048,
        chunk: int = 4096,
    ) -> MultiSetCoverage:
        """Fault-simulate the schedule with streamed early stop.

        The sets' pattern streams are chained into one fault-parallel
        simulation: detected faults are dropped across set boundaries (a
        later set never re-simulates what an earlier set already caught) and
        the stream stops — possibly mid-set — once ``target_coverage`` is
        reached.  Per-set applied-pattern counts are recorded in
        :attr:`MultiSetCoverage.applied`.
        """
        simulator = ParallelFaultSimulator(
            self.circuit,
            faults=faults,
            fault_group=fault_group,
            partition_size=partition_size,
        )
        applied = [0] * self.n_sets

        def chained_chunks():
            for set_index, entry in enumerate(self.entries):
                generator = self._make_generator(entry)
                for matrix in generator.generate_stream(entry.n_patterns, chunk):
                    applied[set_index] += matrix.shape[0]
                    yield matrix

        result = simulator.run_stream(
            chained_chunks(),
            batch_size=batch_size,
            target_coverage=target_coverage,
        )
        return MultiSetCoverage(
            result=result,
            applied=tuple(applied),
            target_coverage=target_coverage,
        )


@dataclass
class MultiWeightReport:
    """Everything the multi-weight stage produced for one circuit.

    Attributes:
        circuit_name: circuit under test.
        weight_sets: the optimized :class:`MultiWeightSet` schedule.
        coverage: the scheduled fault-simulation outcome.
        self_test: the compiled MISR playback of the schedule.
        scan_chains: STUMPS chain count (``None`` = parallel load).
        cpu_seconds: wall-clock cost (volatile; scrubbed from hashes).
    """

    circuit_name: str
    weight_sets: MultiWeightSet
    coverage: MultiSetCoverage
    self_test: MultiSetSelfTestReport
    scan_chains: Optional[int] = None
    cpu_seconds: float = 0.0

    @property
    def single_set_length(self) -> int:
        return self.weight_sets.single_set_length

    @property
    def multi_set_length(self) -> int:
        return self.weight_sets.multi_set_length

    def summary(self) -> str:
        reduction = (
            self.single_set_length / self.multi_set_length
            if self.multi_set_length
            else float("inf")
        )
        return (
            f"{self.circuit_name}: k={self.weight_sets.k} "
            f"multi-set length {self.multi_set_length} vs single-set "
            f"{self.single_set_length} ({reduction:.2f}x), "
            f"coverage {self.coverage.coverage:.4f} after "
            f"{self.coverage.n_patterns} patterns"
        )

    def to_dict(self) -> Dict:
        from ..api.serialize import tagged_dict

        return tagged_dict(
            "multi_weight_report",
            {
                "circuit_name": self.circuit_name,
                "weight_sets": self.weight_sets.to_dict(),
                "coverage": self.coverage.to_dict(),
                "self_test": self.self_test.to_dict(),
                "scan_chains": None if self.scan_chains is None else int(self.scan_chains),
                "cpu_seconds": float(self.cpu_seconds),
            },
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "MultiWeightReport":
        from ..api.serialize import untag

        payload = untag(
            data,
            "multi_weight_report",
            required=(
                "circuit_name",
                "weight_sets",
                "coverage",
                "self_test",
                "scan_chains",
            ),
            optional=("cpu_seconds",),
        )
        scan_chains = payload["scan_chains"]
        cpu_seconds = payload["cpu_seconds"]
        return cls(
            circuit_name=str(payload["circuit_name"]),
            weight_sets=MultiWeightSet.from_dict(payload["weight_sets"]),
            coverage=MultiSetCoverage.from_dict(payload["coverage"]),
            self_test=MultiSetSelfTestReport.from_dict(payload["self_test"]),
            scan_chains=None if scan_chains is None else int(scan_chains),
            cpu_seconds=0.0 if cpu_seconds is None else float(cpu_seconds),
        )


def run_multi_weight_session(
    circuit: Circuit,
    weight_sets: MultiWeightSet,
    faults: Optional[Sequence[Fault]] = None,
    target_coverage: Optional[float] = None,
    scan_chains: Optional[int] = None,
    partition_size: Optional[int] = None,
    misr_width: Optional[int] = None,
    misr_taps: Optional[Sequence[int]] = None,
) -> MultiWeightReport:
    """Convenience: schedule + playback + coverage as one report artifact."""
    start = time.perf_counter()
    session = MultiSetSelfTestSession(
        circuit,
        weight_sets,
        scan_chains=scan_chains,
        misr_width=misr_width,
        misr_taps=misr_taps,
    )
    coverage = session.coverage(
        faults=faults,
        target_coverage=target_coverage,
        partition_size=partition_size,
    )
    self_test = session.run()
    return MultiWeightReport(
        circuit_name=circuit.name,
        weight_sets=weight_sets,
        coverage=coverage,
        self_test=self_test,
        scan_chains=scan_chains,
        cpu_seconds=time.perf_counter() - start,
    )
