"""The slow fault-simulation reference: a gate-by-gate walk in netlist order.

Everything here is interpreted Python over ``uint64`` pattern words, one
:func:`~repro.circuit.gates.eval_words` call per gate.  It shares no kernel,
level schedule or injection code with the compiled engine
(:mod:`repro.simulation.compiled`) it checks:

* :func:`reference_words` is the one reference simulator.  It computes every
  net's good values, or the values with one stem or branch stuck-at fault
  injected.
* :class:`LegacyParallelFaultSimulator` is the original parallel-pattern
  *single*-fault-propagation simulator.  It takes its good values from
  :func:`reference_words` and, per live fault, re-simulates the transitive
  fan-out cone with a Python loop over the cone gates and a dict of diverged
  nets.

It is kept for three purposes:

* the ``substrate`` bench area (:mod:`repro.bench.areas.substrate`)
  measures the compiled engine's speedup against the cone loop,
* the equivalence tests use both as the compiled engine's independent logic
  and fault-detection references, and
* :mod:`repro.analysis.exact` enumerates signal and detection probabilities
  with :func:`reference_words` and the per-pattern
  :meth:`~LegacyParallelFaultSimulator.detection_words`.

It should not be used on hot paths.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.gates import eval_words
from ..circuit.netlist import Circuit
from ..faults.collapse import collapsed_fault_list
from ..faults.model import Fault, FaultTable
from ..simulation.logicsim import WORD_BITS, pack_patterns
from .parallel import FaultSimResult, _valid_mask

__all__ = ["LegacyParallelFaultSimulator", "reference_words"]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _first_set_bit(words: np.ndarray) -> int:
    """Index of the first set bit in a little-endian word array."""
    for wi, word in enumerate(words):
        value = int(word)
        if value:
            return wi * WORD_BITS + (value & -value).bit_length() - 1
    raise ValueError("no bit set")


def reference_words(
    circuit: Circuit, words: np.ndarray, fault: Optional[Fault] = None
) -> np.ndarray:
    """Every net's pattern words from one ``eval_words`` call per gate, in
    netlist order, optionally with one stuck-at fault injected.

    Args:
        circuit: the netlist (its gates are in topological order).
        words: ``uint64`` input words ``(n_inputs, n_words)`` in
            :attr:`Circuit.inputs` order.
        fault: a stem fault forces its net; a branch fault forces only the
            reading pins of its gate.

    Returns:
        ``uint64`` array ``(n_nets, n_words)``.
    """
    n_words = words.shape[1]
    values = np.zeros((circuit.n_nets, n_words), dtype=np.uint64)
    values[list(circuit.inputs)] = words
    stuck = None
    if fault is not None:
        stuck = np.full(n_words, _ALL_ONES if fault.stuck_value else 0, dtype=np.uint64)
        if fault.is_stem:
            values[fault.net] = stuck
    for index, gate in enumerate(circuit.gates):
        operands = [
            stuck
            if fault is not None and fault.gate == index and src == fault.net
            else values[src]
            for src in gate.inputs
        ]
        values[gate.output] = eval_words(gate.gate_type, operands, n_words)
        if fault is not None and fault.is_stem and gate.output == fault.net:
            values[gate.output] = stuck
    return values


class LegacyParallelFaultSimulator:
    """Parallel-pattern single-fault-propagation fault simulator (baseline)."""

    def __init__(self, circuit: Circuit, faults: Optional[Sequence[Fault]] = None):
        self.circuit = circuit
        self.faults = list(faults if faults is not None else collapsed_fault_list(circuit))
        self._cone_cache: Dict[Tuple[int, Optional[int]], List[int]] = {}

    # ------------------------------------------------------------------ #
    # Cone handling
    # ------------------------------------------------------------------ #
    def _cone(self, fault: Fault) -> List[int]:
        """Gate indices to resimulate for a fault, in topological order."""
        key = (fault.net, fault.gate)
        cone = self._cone_cache.get(key)
        if cone is None:
            if fault.is_stem:
                cone = self.circuit.transitive_fanout_gates(fault.net)
            else:
                gate = self.circuit.gates[fault.gate]
                downstream = self.circuit.transitive_fanout_gates(gate.output)
                cone = sorted(set([fault.gate] + downstream))
            self._cone_cache[key] = cone
        return cone

    # ------------------------------------------------------------------ #
    # Detection of one fault against one batch
    # ------------------------------------------------------------------ #
    def detection_words(
        self, fault: Fault, good: np.ndarray, n_words: int
    ) -> np.ndarray:
        """Bit mask of patterns (within the batch) detecting ``fault``."""
        circuit = self.circuit
        stuck = (
            np.full(n_words, _ALL_ONES, dtype=np.uint64)
            if fault.stuck_value
            else np.zeros(n_words, dtype=np.uint64)
        )
        faulty: Dict[int, np.ndarray] = {}
        if fault.is_stem:
            if np.array_equal(good[fault.net], stuck):
                return np.zeros(n_words, dtype=np.uint64)
            faulty[fault.net] = stuck

        for gi in self._cone(fault):
            gate = circuit.gates[gi]
            operands = []
            for src in gate.inputs:
                if fault.is_branch and gi == fault.gate and src == fault.net:
                    operands.append(stuck)
                else:
                    operands.append(faulty.get(src, good[src]))
            value = eval_words(gate.gate_type, operands, n_words)
            if np.array_equal(value, good[gate.output]):
                # No divergence on this net; keep reading the good value so the
                # faulty dictionary stays small.
                faulty.pop(gate.output, None)
            else:
                faulty[gate.output] = value

        detection = np.zeros(n_words, dtype=np.uint64)
        for out in circuit.outputs:
            if out in faulty:
                detection |= faulty[out] ^ good[out]
            elif fault.is_stem and out == fault.net:
                detection |= stuck ^ good[out]
        return detection

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #
    def run(
        self,
        patterns: np.ndarray,
        drop_detected: bool = True,
        batch_size: int = 2048,
    ) -> FaultSimResult:
        """Fault-simulate a pattern matrix (same contract as the compiled engine)."""
        patterns = np.asarray(patterns, dtype=bool)
        n_patterns = patterns.shape[0]
        live = list(range(len(self.faults)))
        first_detection = np.full(len(self.faults), -1, dtype=np.int64)

        for start in range(0, n_patterns, batch_size):
            if not live:
                break
            batch = patterns[start : start + batch_size]
            batch_len = batch.shape[0]
            n_words = (batch_len + WORD_BITS - 1) // WORD_BITS
            good = reference_words(self.circuit, pack_patterns(batch))
            mask = _valid_mask(batch_len, n_words)
            still_live: List[int] = []
            for fi in live:
                detection = self.detection_words(self.faults[fi], good, n_words) & mask
                if detection.any():
                    if first_detection[fi] < 0:
                        first_detection[fi] = start + _first_set_bit(detection)
                    if not drop_detected:
                        still_live.append(fi)
                else:
                    still_live.append(fi)
            live = still_live
        return FaultSimResult(FaultTable.of(self.faults), first_detection, n_patterns)

    def detection_counts(
        self, patterns: np.ndarray, batch_size: int = 2048
    ) -> np.ndarray:
        """Number of patterns detecting each fault (no fault dropping)."""
        patterns = np.asarray(patterns, dtype=bool)
        n_patterns = patterns.shape[0]
        counts = np.zeros(len(self.faults), dtype=np.int64)
        for start in range(0, n_patterns, batch_size):
            batch = patterns[start : start + batch_size]
            batch_len = batch.shape[0]
            n_words = (batch_len + WORD_BITS - 1) // WORD_BITS
            good = reference_words(self.circuit, pack_patterns(batch))
            mask = _valid_mask(batch_len, n_words)
            for fi, fault in enumerate(self.faults):
                detection = self.detection_words(fault, good, n_words) & mask
                counts[fi] += int(np.unpackbits(detection.view(np.uint8)).sum())
        return counts
