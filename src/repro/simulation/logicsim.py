"""Bit-parallel true-value logic simulation.

Random-pattern experiments need to evaluate thousands of patterns per circuit
(Tables 2 and 4 of the paper use 4 000 and 12 000 patterns).  The simulator in
this module packs 64 patterns into each ``numpy.uint64`` word and evaluates
the netlist through the compiled structure-of-arrays engine
(:mod:`repro.simulation.compiled`): gates are grouped into vectorized
per-level kernels instead of being interpreted one at a time.  The same
substrate drives the fault-parallel simulator in :mod:`repro.faultsim`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..circuit.netlist import Circuit
from .compiled import compile_circuit

__all__ = ["LogicSimulator", "pack_patterns", "unpack_values", "WORD_BITS"]

WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def pack_patterns(patterns: np.ndarray) -> np.ndarray:
    """Pack a boolean pattern matrix into ``uint64`` words.

    Args:
        patterns: boolean array of shape ``(n_patterns, n_signals)``; row ``p``
            is one input pattern.

    Returns:
        ``uint64`` array of shape ``(n_signals, n_words)`` where bit ``p % 64``
        of word ``p // 64`` of row ``s`` is pattern ``p``'s value for signal
        ``s``.
    """
    patterns = np.asarray(patterns, dtype=bool)
    if patterns.ndim != 2:
        raise ValueError("patterns must be a 2-D (n_patterns, n_signals) array")
    n_patterns, n_signals = patterns.shape
    n_words = (n_patterns + WORD_BITS - 1) // WORD_BITS
    padded = np.zeros((n_words * WORD_BITS, n_signals), dtype=bool)
    padded[:n_patterns] = patterns
    # Reshape to (n_words, 64, n_signals) then pack the 64 axis.
    cube = padded.reshape(n_words, WORD_BITS, n_signals)
    weights = (np.uint64(1) << np.arange(WORD_BITS, dtype=np.uint64))[None, :, None]
    words = (cube.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)
    return np.ascontiguousarray(words.T)


def unpack_values(words: np.ndarray, n_patterns: int) -> np.ndarray:
    """Inverse of :func:`pack_patterns` for a single signal row or a matrix.

    Args:
        words: ``uint64`` array of shape ``(n_words,)`` or ``(n_signals, n_words)``.
        n_patterns: number of valid patterns (trailing pad bits are dropped).

    Returns:
        boolean array of shape ``(n_patterns,)`` or ``(n_patterns, n_signals)``.
    """
    words = np.asarray(words, dtype=np.uint64)
    single = words.ndim == 1
    if single:
        words = words[None, :]
    n_signals, n_words = words.shape
    bits = np.zeros((n_signals, n_words * WORD_BITS), dtype=bool)
    for b in range(WORD_BITS):
        bits[:, b::WORD_BITS] = (words >> np.uint64(b)) & np.uint64(1)
    bits = bits[:, :n_patterns]
    return bits[0] if single else bits.T


def _tail_mask(n_patterns: int, n_words: int) -> np.ndarray:
    """Mask with ones only at valid pattern positions (pads the last word)."""
    mask = np.full(n_words, _ALL_ONES, dtype=np.uint64)
    remainder = n_patterns % WORD_BITS
    if remainder:
        mask[-1] = (np.uint64(1) << np.uint64(remainder)) - np.uint64(1)
    return mask


class LogicSimulator:
    """Levelized bit-parallel simulator for a fixed circuit.

    The simulator is stateless with respect to patterns: every call evaluates
    the full circuit for the supplied input words and returns the values of all
    nets, so downstream users (fault simulation, STAFAN counting) can reuse the
    intermediate values.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._engine = compile_circuit(circuit)

    # ------------------------------------------------------------------ #
    def simulate_words(self, input_words: np.ndarray) -> np.ndarray:
        """Simulate pre-packed input words.

        Args:
            input_words: ``uint64`` array of shape ``(n_inputs, n_words)``, one
                row per primary input in :attr:`Circuit.inputs` order.

        Returns:
            ``uint64`` array of shape ``(n_nets, n_words)`` with the value of
            every net for every pattern.
        """
        input_words = np.asarray(input_words, dtype=np.uint64)
        if input_words.ndim != 2 or input_words.shape[0] != self.circuit.n_inputs:
            raise ValueError(
                f"expected {self.circuit.n_inputs} input rows, got "
                f"{input_words.shape[0] if input_words.ndim == 2 else input_words.shape}"
            )
        return self._engine.simulate_words(input_words)

    def simulate_patterns(self, patterns: np.ndarray) -> np.ndarray:
        """Simulate a boolean pattern matrix and return primary output values.

        Args:
            patterns: boolean array ``(n_patterns, n_inputs)``.

        Returns:
            boolean array ``(n_patterns, n_outputs)``.
        """
        patterns = np.asarray(patterns, dtype=bool)
        n_patterns = patterns.shape[0]
        values = self.simulate_words(pack_patterns(patterns))
        outputs = values[list(self.circuit.outputs)]
        return unpack_values(outputs, n_patterns)

    def simulate_pattern(self, pattern: Sequence[bool]) -> np.ndarray:
        """Simulate a single pattern and return the output vector."""
        return self.simulate_patterns(np.asarray([pattern], dtype=bool))[0]

    # ------------------------------------------------------------------ #
    def signal_ones_count(
        self, values: np.ndarray, n_patterns: int, nets: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Count, per net, how many of the first ``n_patterns`` patterns set it to 1.

        This is the raw statistic used by the STAFAN-style estimator.
        """
        n_words = values.shape[1]
        mask = _tail_mask(n_patterns, n_words)
        selected = values if nets is None else values[list(nets)]
        masked = selected & mask[None, :]
        # np.unpackbits only works on uint8; view the words as bytes.
        as_bytes = masked.view(np.uint8)
        return np.unpackbits(as_bytes, axis=1).sum(axis=1)
