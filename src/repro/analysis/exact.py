"""Exact signal and detection probabilities by weighted enumeration.

Parker and McCluskey solved the exact signal-probability problem for general
networks, but the procedure is exponential (the paper, section 1).  For small
circuits — and for the small cones the test suite uses to validate the COP
estimator — exact values can be computed by enumerating the input space of the
relevant support and weighting every minterm with its probability under ``X``.

The enumeration is an exhaustive pattern matrix, 64 minterms per word,
simulated chunk by chunk with the word-parallel references: good values by
:class:`~repro.simulation.logicsim.LogicSimulator`, per-pattern detection
words by :class:`~repro.faultsim.legacy.LegacyParallelFaultSimulator`.  Memory
stays bounded by the chunk size even at :data:`MAX_EXACT_INPUTS` inputs.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..faultsim.legacy import LegacyParallelFaultSimulator
from ..simulation.logicsim import WORD_BITS, LogicSimulator, unpack_values
from .signal_prob import input_probability_vector

__all__ = [
    "exact_signal_probability",
    "exact_detection_probability",
    "ExactDetectionEstimator",
    "MAX_EXACT_INPUTS",
]

#: Refuse exact enumeration beyond this many support inputs.
MAX_EXACT_INPUTS = 22

#: Words (64 minterms each) simulated per enumeration chunk.
_CHUNK_WORDS = 1024

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Word ``j`` holds minterm bit ``j`` of the 64 codes packed in one word.
_LANE_WORDS = tuple(
    np.uint64(sum(1 << b for b in range(WORD_BITS) if (b >> j) & 1)) for j in range(6)
)


def _check_size(n_support: int) -> None:
    if n_support > MAX_EXACT_INPUTS:
        raise ValueError(
            f"exact enumeration over {n_support} inputs refused "
            f"(limit {MAX_EXACT_INPUTS}); use an estimator instead"
        )


def _minterm_chunks(
    circuit: Circuit, support: Sequence[int], vector: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(input_words, weights)`` covering every assignment of ``support``.

    Minterm ``m`` sets support input ``j`` to bit ``j`` of ``m``; inputs
    outside the support stay 0.  ``weights[m]`` is the minterm's probability
    under ``vector``; its length is the chunk's number of real minterms (the
    pad bits of a short last word carry no weight).
    """
    rows = [circuit.inputs.index(pi) for pi in support]
    n_minterms = 1 << len(rows)
    n_words = -(-n_minterms // WORD_BITS)
    for first in range(0, n_words, _CHUNK_WORDS):
        word_index = np.arange(first, min(n_words, first + _CHUNK_WORDS), dtype=np.uint64)
        words = np.zeros((circuit.n_inputs, word_index.size), dtype=np.uint64)
        codes = np.arange(
            first * WORD_BITS, min(n_minterms, (first + word_index.size) * WORD_BITS)
        )
        weights = np.ones(codes.size)
        for j, row in enumerate(rows):
            if j < len(_LANE_WORDS):
                words[row] = _LANE_WORDS[j]
            else:
                high = (word_index >> np.uint64(j - len(_LANE_WORDS))) & np.uint64(1)
                words[row] = high * _ALL_ONES
            p = vector[row]
            weights *= np.where((codes >> j) & 1, p, 1.0 - p)
        yield words, weights


def exact_signal_probability(
    circuit: Circuit,
    net: int | str,
    input_probs: Sequence[float] | float = 0.5,
) -> float:
    """Exact probability that ``net`` carries a 1 under ``X``.

    Only the support inputs of the net are enumerated, so circuits may be large
    as long as the individual cone is small.
    """
    if isinstance(net, str):
        net = circuit.net_index(net)
    vector = input_probability_vector(circuit, input_probs)
    support = circuit.support_inputs(net)
    _check_size(len(support))
    simulator = LogicSimulator(circuit)
    total = 0.0
    for words, weights in _minterm_chunks(circuit, support, vector):
        ones = unpack_values(simulator.simulate_words(words)[net], weights.size)
        total += float(weights[ones].sum())
    return total


def _exact_detection_probabilities(
    circuit: Circuit, faults: Sequence[Fault], input_probs
) -> np.ndarray:
    _check_size(circuit.n_inputs)
    vector = input_probability_vector(circuit, input_probs)
    simulator = LogicSimulator(circuit)
    legacy = LegacyParallelFaultSimulator(circuit, faults)
    totals = np.zeros(len(faults))
    for words, weights in _minterm_chunks(circuit, circuit.inputs, vector):
        good = simulator.simulate_words(words)
        for index, fault in enumerate(faults):
            detected = unpack_values(
                legacy.detection_words(fault, good, words.shape[1]), weights.size
            )
            totals[index] += float(weights[detected].sum())
    return totals


def exact_detection_probability(
    circuit: Circuit,
    fault: Fault,
    input_probs: Sequence[float] | float = 0.5,
) -> float:
    """Exact detection probability of a single stuck-at fault under ``X``.

    Enumerates the full primary-input space, so only intended for circuits with
    at most :data:`MAX_EXACT_INPUTS` inputs (reference values in tests,
    redundancy proofs for small blocks).
    """
    return float(_exact_detection_probabilities(circuit, [fault], input_probs)[0])


class ExactDetectionEstimator:
    """Exact estimator conforming to the
    :class:`~repro.analysis.detection.DetectionProbabilityEstimator` protocol.

    Exponential in the number of primary inputs; use only on small circuits
    (reference results, unit tests, redundancy proofs).
    """

    def detection_probabilities(
        self,
        circuit: Circuit,
        faults: Sequence[Fault],
        input_probs: Sequence[float],
    ) -> np.ndarray:
        return _exact_detection_probabilities(circuit, list(faults), input_probs)
