"""Multiple-input signature register (MISR) for test response compaction.

Self test does not compare every output pattern against a stored reference;
the responses are compacted into a signature by a MISR and only the final
signature is compared.  This module provides a standard type-2 (internal XOR)
MISR, the scalar reference of :class:`repro.patterns.compiled.CompiledMISR`;
:meth:`repro.patterns.SelfTestSession.golden_signature` computes a circuit's
fault-free signature.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .lfsr import PRIMITIVE_TAPS

__all__ = ["MISR", "default_misr_width", "resolve_misr_taps"]

#: Largest register width with a tabulated primitive polynomial.
MAX_TABULATED_WIDTH = max(PRIMITIVE_TAPS)


def resolve_misr_taps(width: int, taps: Sequence[int] | None) -> tuple:
    """Validate a MISR width/taps combination and normalize the taps.

    Shared by the scalar :class:`MISR` and the vectorized
    :class:`repro.patterns.compiled.CompiledMISR`, so the two classes can
    never diverge on tap defaulting or validation.
    """
    if width < 2:
        raise ValueError("MISR width must be at least 2")
    if taps is None:
        if width not in PRIMITIVE_TAPS:
            raise ValueError(
                f"no primitive polynomial tabulated for width {width}; pass taps"
            )
        taps = PRIMITIVE_TAPS[width]
    taps = tuple(sorted(set(taps), reverse=True))
    if any(t < 1 or t > width for t in taps):
        raise ValueError(f"tap positions must lie in 1..{width}: {taps}")
    return taps


def default_misr_width(n_outputs: int) -> int:
    """Smallest tabulated MISR width holding ``n_outputs`` parallel inputs.

    Raises:
        ValueError: when ``n_outputs`` exceeds the largest tabulated width
            (currently 64) — pass an explicit ``misr_width`` together with
            the ``taps`` of a primitive polynomial of that width instead of
            relying on the table.
    """
    needed = max(2, n_outputs)
    for width in sorted(PRIMITIVE_TAPS):
        if width >= needed:
            return width
    raise ValueError(
        f"circuit has {n_outputs} primary outputs but the largest tabulated "
        f"MISR width is {MAX_TABULATED_WIDTH}; pass an explicit misr_width "
        "(with the taps of a primitive polynomial of that width) to compact "
        "wider responses — in a pipeline spec, self_test.misr_width and "
        "self_test.misr_taps, which set the register of every stage"
    )


class MISR:
    """Multiple-input signature register with a primitive feedback polynomial.

    This is the scalar (per-pattern) reference; the vectorized implementation
    is :class:`repro.patterns.compiled.CompiledMISR` (bit-identical for the
    same width/taps/seed, limited to widths up to 64).

    Args:
        width: register width; must be at least the number of parallel inputs
            compacted per cycle.
        taps: optional 1-based feedback taps; defaults to the primitive
            polynomial tabulated for ``width``.
        seed: initial register contents.
    """

    def __init__(self, width: int, taps: Sequence[int] | None = None, seed: int = 0):
        self.width = width
        self.taps = resolve_misr_taps(width, taps)
        self._mask = (1 << width) - 1
        self.state = seed & self._mask
        self._initial_state = self.state

    def reset(self) -> None:
        self.state = self._initial_state

    def compact_word(self, response_bits: int) -> int:
        """Shift one response word (an integer of up to ``width`` bits) in."""
        feedback = 0
        for tap in self.taps:
            feedback ^= (self.state >> (tap - 1)) & 1
        self.state = (((self.state << 1) | feedback) ^ response_bits) & self._mask
        return self.state

    def compact(self, responses: np.ndarray) -> int:
        """Compact a boolean response matrix ``(n_patterns, n_outputs)``.

        Returns the final signature.
        """
        responses = np.asarray(responses, dtype=bool)
        if responses.ndim != 2:
            raise ValueError("responses must be 2-D (n_patterns, n_outputs)")
        if responses.shape[1] > self.width:
            raise ValueError(
                f"MISR of width {self.width} cannot compact "
                f"{responses.shape[1]} parallel outputs"
            )
        for row in responses:
            word = 0
            for bit_index, bit in enumerate(row):
                if bit:
                    word |= 1 << bit_index
            self.compact_word(word)
        return self.state

    @property
    def signature(self) -> int:
        return self.state
