"""Multi-weight-set self-test playback and its report artifacts.

:func:`run_multi_weight_session` plays a
:class:`~repro.wrp.multiset.MultiWeightSet`'s weight sets *in sequence* on
the one self-test engine,
:meth:`repro.patterns.bilbo.SelfTestSession.from_sources`.  Each set owns its
pattern budget, LFSR polynomial and reseed; one signature register compacts
the whole schedule, so the signature is what the hardware holds after the
last set — and for ``k = 1`` it is bit-identical to the single-set session.
Sets load in parallel from the weighting network (the paper's BILBO module)
or, with ``scan_chains=n``, shift through ``n`` STUMPS scan chains
(:class:`repro.wrp.scan.StumpsPatternGenerator`), the delivery that scales
past the 64-bit register-width limit.  The coverage run drops detected
faults across set boundaries and stops early — mid-set and across sets —
once a target coverage is reached.  Playback is streamed: the session holds
one chunk of at most 4096 patterns at a time, and the report's ``self_test``
is the ordinary :class:`~repro.patterns.bilbo.SelfTestReport` of the whole
schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..api.serialize import artifact, wire
from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..faultsim.parallel import FaultSimResult
from ..patterns.bilbo import SelfTestReport, SelfTestSession
from ..patterns.compiled import CompiledLfsrWeightedPatternGenerator
from .multiset import MultiWeightSet
from .scan import StumpsPatternGenerator

__all__ = [
    "MultiSetCoverage",
    "MultiWeightReport",
    "run_multi_weight_session",
]


@artifact("multi_set_coverage")
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


@artifact("multi_weight_report")
@dataclass
class MultiWeightReport:
    """Everything the multi-weight stage produced for one circuit.

    Attributes:
        circuit_name: circuit under test.
        weight_sets: the optimized :class:`MultiWeightSet` schedule.
        coverage: the scheduled fault-simulation outcome.
        self_test: the signature-register playback of the whole schedule
            (per-set lengths are the weight sets' ``n_patterns``).
        scan_chains: STUMPS chain count (``None`` = parallel load).
        cpu_seconds: wall-clock cost (volatile; scrubbed from hashes).
    """

    circuit_name: str
    weight_sets: MultiWeightSet
    coverage: MultiSetCoverage
    self_test: SelfTestReport
    scan_chains: Optional[int] = wire(default=None, required=True)
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


def _pattern_sources(
    circuit: Circuit,
    weight_sets: MultiWeightSet,
    scan_chains: Optional[int],
) -> List[Tuple[object, int]]:
    """Each set's ``(generator, n_patterns)`` source, in play order: its
    reseeded LFSR weighting network, or STUMPS delivery via ``scan_chains``."""
    if weight_sets.n_inputs != circuit.n_inputs:
        raise ValueError(
            f"weight sets were built for {weight_sets.n_inputs} inputs, "
            f"circuit has {circuit.n_inputs}"
        )
    if not weight_sets.sets:
        raise ValueError("at least one weight set is required")
    for entry in weight_sets.sets:
        if len(entry.quantized_weights) != circuit.n_inputs:
            raise ValueError(
                f"weight set {entry.index} has {len(entry.quantized_weights)} "
                f"weights; circuit has {circuit.n_inputs} inputs"
            )
    if scan_chains is not None and scan_chains < 1:
        raise ValueError(f"scan_chains must be positive, got {scan_chains!r}")
    make = (
        CompiledLfsrWeightedPatternGenerator
        if scan_chains is None
        else partial(StumpsPatternGenerator, n_chains=scan_chains)
    )
    return [
        (
            make(
                entry.quantized_weights,
                lfsr_width=entry.lfsr_width,
                lfsr_taps=entry.lfsr_taps,
                seed=entry.lfsr_seed,
            ),
            int(entry.n_patterns),
        )
        for entry in weight_sets.sets
    ]


def run_multi_weight_session(
    circuit: Circuit,
    weight_sets: MultiWeightSet,
    faults: Optional[Sequence[Fault]] = None,
    target_coverage: Optional[float] = None,
    scan_chains: Optional[int] = None,
    misr_width: Optional[int] = None,
    misr_taps: Optional[Sequence[int]] = None,
) -> MultiWeightReport:
    """Play a multi-weight schedule on one
    :meth:`~repro.patterns.bilbo.SelfTestSession.from_sources` session.

    One streamed pass generates each pattern once and feeds it to the
    signature register (``misr_width`` / ``misr_taps`` override it, as in the
    single-set session) and to the coverage run; once ``target_coverage``
    stops the coverage run, the rest of the schedule only goes into the
    register.  A schedule longer than
    :data:`~repro.patterns.bilbo.MAX_SCHEDULE_PATTERNS` raises
    :class:`~repro.api.serialize.SchemaError` before any pattern is played.
    """
    start = time.perf_counter()
    session = SelfTestSession.from_sources(
        circuit,
        _pattern_sources(circuit, weight_sets, scan_chains),
        misr_width=misr_width,
        misr_taps=misr_taps,
    )
    result, applied = session.coverage(faults=faults, target_coverage=target_coverage)
    return MultiWeightReport(
        circuit_name=circuit.name,
        weight_sets=weight_sets,
        coverage=MultiSetCoverage(
            result=result,
            applied=applied,
            target_coverage=None if target_coverage is None else float(target_coverage),
        ),
        # The coverage pass already compacted the whole schedule.
        self_test=session.run(),
        scan_chains=scan_chains,
        cpu_seconds=time.perf_counter() - start,
    )
