"""Fault-coverage experiments on random pattern streams.

Small convenience layer over :class:`~repro.faultsim.parallel.ParallelFaultSimulator`
used by the Table 2 / Table 4 benches (coverage at a fixed pattern count), by
the Figure 2 bench (coverage as a function of the pattern count) and by the
``fault_sim`` stage of :func:`repro.api.execute_spec`.  Every call reuses
the circuit's cached lowering (:mod:`repro.lowered`) through the compiled
engine — repeated coverage runs never re-lower the netlist.

:func:`random_pattern_coverage` *streams* pattern chunks from the generator
(:meth:`~repro.patterns.weighted.WeightedPatternGenerator.generate_stream`)
instead of materializing the full ``(n_patterns, n_inputs)`` matrix: only one
chunk lives in memory at a time, detection results are identical to the
materialized path (chunking never affects per-pattern detection, and the
chunked PRNG stream equals the one-shot draw), and an optional
``target_coverage`` stops the stream as soon as the requested coverage is
reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..patterns.weighted import WeightedPatternGenerator
from .parallel import FaultSimResult, ParallelFaultSimulator

__all__ = ["CoverageExperiment", "random_pattern_coverage"]


@dataclass
class CoverageExperiment:
    """Fault coverage of a random test with given input probabilities.

    Attributes:
        circuit_name: name of the circuit under test.
        n_patterns: number of applied random patterns.
        result: the underlying fault-simulation result.
        weights: per-input probabilities used to generate the patterns.
    """

    circuit_name: str
    n_patterns: int
    result: FaultSimResult
    weights: Sequence[float]

    @property
    def fault_coverage(self) -> float:
        return self.result.fault_coverage

    @property
    def fault_coverage_percent(self) -> float:
        return 100.0 * self.result.fault_coverage

    def to_dict(self) -> dict:
        """JSON-serializable artifact dict (job-spec API)."""
        from ..api.serialize import tagged_dict

        return tagged_dict(
            "coverage_experiment",
            {
                "circuit_name": self.circuit_name,
                "n_patterns": int(self.n_patterns),
                "result": self.result.to_dict(),
                "weights": [float(w) for w in self.weights],
            },
        )

    @classmethod
    def from_dict(cls, data: dict) -> "CoverageExperiment":
        """Rebuild an experiment from :meth:`to_dict` output (validated)."""
        from ..api.serialize import untag

        payload = untag(
            data,
            "coverage_experiment",
            required=("circuit_name", "n_patterns", "result", "weights"),
        )
        return cls(
            circuit_name=str(payload["circuit_name"]),
            n_patterns=int(payload["n_patterns"]),
            result=FaultSimResult.from_dict(payload["result"]),
            weights=[float(w) for w in payload["weights"]],
        )


def random_pattern_coverage(
    circuit: Circuit,
    n_patterns: int,
    weights: Optional[Sequence[float]] = None,
    faults: Optional[Sequence[Fault]] = None,
    seed: int = 1987,
    batch_size: int = 2048,
    fault_group: Optional[int] = None,
    chunk_size: int = 4096,
    target_coverage: Optional[float] = None,
    partition_size: Optional[int] = None,
) -> CoverageExperiment:
    """Fault-simulate up to ``n_patterns`` weighted random patterns, streamed.

    Patterns are generated and simulated chunk by chunk — the full pattern
    matrix is never materialized.  Coverage and first-detection indices are
    identical to simulating one ``(n_patterns, n_inputs)`` matrix.

    Args:
        circuit: circuit under test.
        n_patterns: number of random patterns to apply (an upper bound when
            ``target_coverage`` is set).
        weights: per-input probability of generating a 1; defaults to the
            conventional equiprobable test (all 0.5).
        faults: fault list; defaults to the collapsed stuck-at list.
        seed: RNG seed (kept fixed so tables are reproducible).
        batch_size: bit-parallel batch size.
        fault_group: faults simulated simultaneously per group (``None`` =
            adaptive, see :class:`ParallelFaultSimulator`).
        chunk_size: patterns generated (and held in memory) per stream chunk.
        target_coverage: optional fault-coverage fraction at which to stop
            the stream early; the returned experiment's ``n_patterns`` then
            reflects the patterns actually applied.
        partition_size: PPSFP fault partition size (see
            :class:`ParallelFaultSimulator`); detection results are
            invariant under this choice.
    """
    if weights is None:
        weights = [0.5] * circuit.n_inputs
    generator = WeightedPatternGenerator(weights, seed=seed)
    simulator = ParallelFaultSimulator(
        circuit,
        faults,
        fault_group=fault_group,
        partition_size=partition_size,
    )
    result = simulator.run_stream(
        generator.generate_stream(n_patterns, chunk=chunk_size),
        batch_size=batch_size,
        target_coverage=target_coverage,
    )
    return CoverageExperiment(circuit.name, result.n_patterns, result, list(weights))
