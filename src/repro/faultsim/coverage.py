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

from typing import Optional, Sequence

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..patterns.weighted import WeightedPatternGenerator
from .parallel import FaultSimResult, ParallelFaultSimulator

__all__ = ["random_pattern_coverage"]


def random_pattern_coverage(
    circuit: Circuit,
    n_patterns: int,
    weights: Optional[Sequence[float]] = None,
    faults: Optional[Sequence[Fault]] = None,
    seed: int = 1987,
    chunk_size: int = 4096,
    target_coverage: Optional[float] = None,
) -> FaultSimResult:
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
        chunk_size: patterns generated (and held in memory) per stream chunk.
        target_coverage: optional fault-coverage fraction at which to stop
            the stream early; the result's ``n_patterns`` then reflects the
            patterns actually applied.

    Returns:
        the :class:`~repro.faultsim.parallel.FaultSimResult`, whose
        ``first_detection`` follows the order of ``faults``.
    """
    if weights is None:
        weights = [0.5] * circuit.n_inputs
    generator = WeightedPatternGenerator(weights, seed=seed)
    return ParallelFaultSimulator(circuit, faults).run_stream(
        generator.generate_stream(n_patterns, chunk=chunk_size),
        target_coverage=target_coverage,
    )
