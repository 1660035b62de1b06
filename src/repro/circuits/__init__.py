"""Benchmark circuit generators (the paper's evaluation workloads).

Besides the fixed registry circuits this package hosts the circuit *source*
abstraction (:mod:`repro.circuits.sources` — builtin | file | inline |
generator refs behind :class:`~repro.api.spec.PipelineSpec`) and the seeded
synthetic netlist generator (:mod:`repro.circuits.generator`).
"""

from .alu import alu_circuit
from .comparator import comparator_circuit, s1_comparator, sn7485_slice
from .divider import divider_circuit, s2_divider
from .ecc import ecc_decoder_circuit, hamming_parameters
from .generator import DEFAULT_GATE_MIX, GeneratorSpec, generate_circuit
from .multiplier import array_multiplier_circuit
from .resistant import c2670_like, c7552_like, resistant_circuit
from .registry import (
    BenchmarkCircuit,
    build_circuit,
    circuit_keys,
    hard_suite,
    paper_suite,
)
from .sources import SOURCE_KINDS, CircuitSource, normalize_circuit_ref

__all__ = [
    "alu_circuit",
    "comparator_circuit",
    "s1_comparator",
    "sn7485_slice",
    "divider_circuit",
    "s2_divider",
    "ecc_decoder_circuit",
    "hamming_parameters",
    "array_multiplier_circuit",
    "resistant_circuit",
    "c2670_like",
    "c7552_like",
    "BenchmarkCircuit",
    "build_circuit",
    "circuit_keys",
    "hard_suite",
    "paper_suite",
    "CircuitSource",
    "SOURCE_KINDS",
    "normalize_circuit_ref",
    "GeneratorSpec",
    "generate_circuit",
    "DEFAULT_GATE_MIX",
]
