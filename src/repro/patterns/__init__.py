"""Pattern generation and BIST infrastructure (LFSR, MISR, BILBO, weighting).

The scalar classes (:class:`LFSR`, :class:`MISR`,
:class:`LfsrWeightedPatternGenerator`) are the per-bit reference
implementations; the vectorized block substrate in
:mod:`repro.patterns.compiled` (:class:`CompiledLFSR`, :class:`CompiledMISR`,
:class:`CompiledLfsrWeightedPatternGenerator`) is bit-identical to them and
is what :class:`SelfTestSession`, the one self-test engine, runs on.
"""

from .lfsr import LFSR, PRIMITIVE_TAPS, max_sequence_length
from .misr import MISR, default_misr_width, golden_signature
from .compiled import (
    CompiledLFSR,
    CompiledLfsrWeightedPatternGenerator,
    CompiledMISR,
    pack_response_words,
)
from .bilbo import SelfTestReport, SelfTestSession
from .weighted import (
    LfsrWeightedPatternGenerator,
    WeightedPatternGenerator,
    equiprobable_weights,
    lfsr_thresholds,
    validate_weights,
)

__all__ = [
    "LFSR",
    "PRIMITIVE_TAPS",
    "max_sequence_length",
    "MISR",
    "default_misr_width",
    "golden_signature",
    "CompiledLFSR",
    "CompiledMISR",
    "CompiledLfsrWeightedPatternGenerator",
    "pack_response_words",
    "SelfTestReport",
    "SelfTestSession",
    "WeightedPatternGenerator",
    "LfsrWeightedPatternGenerator",
    "equiprobable_weights",
    "lfsr_thresholds",
    "validate_weights",
]
