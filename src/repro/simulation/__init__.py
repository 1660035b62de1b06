"""True-value simulation: the compiled bit-parallel engine behind
:class:`LogicSimulator`."""

from .compiled import CompiledCircuit, compile_circuit
from .logicsim import WORD_BITS, LogicSimulator, pack_patterns, unpack_values

__all__ = [
    "WORD_BITS",
    "CompiledCircuit",
    "compile_circuit",
    "LogicSimulator",
    "pack_patterns",
    "unpack_values",
]
