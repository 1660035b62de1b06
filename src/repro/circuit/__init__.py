"""Gate-level combinational circuit substrate.

Public surface:

* :class:`~repro.circuit.gates.GateType` — supported gate functions.
* :class:`~repro.circuit.netlist.Circuit` / :class:`~repro.circuit.netlist.Gate`
  — the immutable netlist representation.
* :class:`~repro.circuit.builder.CircuitBuilder` — fluent construction API.
* :func:`~repro.circuit.bench.parse_bench` / :func:`~repro.circuit.bench.write_bench`
  — ISCAS ``.bench`` interchange.
* :func:`~repro.circuit.analysis.circuit_stats` — structural statistics.
* :mod:`repro.circuit.library` — adders, subtractors and reduction trees used
  by the benchmark circuit generators.
"""

from .gates import GateType, eval_bool, eval_probability, eval_words
from .netlist import Circuit, CircuitError, Gate
from .builder import CircuitBuilder
from .bench import parse_bench, parse_bench_file, write_bench, write_bench_file
from .analysis import CircuitStats, circuit_stats, has_reconvergent_fanout
from .transforms import expand_xor, has_parity_gates, is_canonical_order, renumber_canonical

__all__ = [
    "expand_xor",
    "has_parity_gates",
    "is_canonical_order",
    "renumber_canonical",
    "GateType",
    "Gate",
    "Circuit",
    "CircuitError",
    "CircuitBuilder",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "write_bench_file",
    "CircuitStats",
    "circuit_stats",
    "has_reconvergent_fanout",
    "eval_bool",
    "eval_probability",
    "eval_words",
]
