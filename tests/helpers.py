"""Shared helpers for the test suite: tiny reference circuits and utilities."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.api import FaultSimConfig, MultiWeightConfig, OptimizeConfig, PipelineSpec
from repro.circuit import Circuit, CircuitBuilder, GateType
from repro.circuit.builder import CircuitBuilder as _Builder
from repro.faultsim.legacy import reference_words  # noqa: F401  (the tests' logic oracle)
from repro.simulation import LogicSimulator, pack_patterns, unpack_values

#: The classic ISCAS c17 benchmark netlist (6 NAND gates), used as a literal
#: parsing fixture and as a small well-known circuit for exact computations.
C17_BENCH = """
# c17 benchmark
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""


def half_adder_circuit() -> Circuit:
    """2-input half adder (sum, carry)."""
    builder = CircuitBuilder("half_adder")
    a = builder.input("a")
    b = builder.input("b")
    builder.output(builder.xor(a, b), "sum")
    builder.output(builder.and_(a, b), "carry")
    return builder.build()


def mux_circuit() -> Circuit:
    """2:1 multiplexer — contains reconvergent fan-out on the select input."""
    builder = CircuitBuilder("mux2")
    select = builder.input("sel")
    d0 = builder.input("d0")
    d1 = builder.input("d1")
    builder.output(builder.mux(select, d0, d1), "y")
    return builder.build()


def and_or_tree_circuit() -> Circuit:
    """Small fan-out-free two-level circuit: y = (a AND b) OR (c AND d)."""
    builder = CircuitBuilder("and_or_tree")
    a, b, c, d = (builder.input(n) for n in "abcd")
    builder.output(builder.or_(builder.and_(a, b), builder.and_(c, d)), "y")
    return builder.build()


def redundant_circuit() -> Circuit:
    """Circuit with a structurally redundant section: y = a OR (a AND b).

    The AND gate never influences the output (absorption), so its stuck-at-0
    fault and the stuck-at faults on the ``b`` branch are undetectable.
    """
    builder = CircuitBuilder("redundant_absorption")
    a = builder.input("a")
    b = builder.input("b")
    inner = builder.and_(a, b, name="inner")
    builder.output(builder.or_(a, inner), "y")
    return builder.build()


def random_circuit(
    rng: np.random.Generator,
    n_inputs: int = 5,
    n_gates: int = 12,
) -> Circuit:
    """Random connected combinational circuit (for differential testing)."""
    builder = _Builder(f"random_{rng.integers(1 << 30)}")
    signals: List[int] = [builder.input(f"i{k}") for k in range(n_inputs)]
    two_input = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR, GateType.XOR, GateType.XNOR]
    for _ in range(n_gates):
        gate_type = two_input[int(rng.integers(len(two_input)))]
        if rng.random() < 0.15:
            src = signals[int(rng.integers(len(signals)))]
            signals.append(builder.not_(src))
            continue
        a = signals[int(rng.integers(len(signals)))]
        b = signals[int(rng.integers(len(signals)))]
        signals.append(builder.gate(gate_type, [a, b]))
    # The most recently created signals become outputs so everything upstream
    # stays (mostly) observable.
    for k, signal in enumerate(signals[-3:]):
        builder.output(signal, f"o{k}")
    return builder.build()


def over_cap_multi_weight_spec():
    """An s1 spec whose unbudgeted two-set schedule (21,569,662 + 7,835
    patterns, from a two-sweep single-set optimum) exceeds
    ``MAX_SCHEDULE_PATTERNS``; the rows before playback take well under a
    second."""
    return PipelineSpec(
        circuit="s1",
        optimize=OptimizeConfig(max_sweeps=2),
        fault_sim=FaultSimConfig(n_patterns=128),
        multi_weight=MultiWeightConfig(k=2),
    )


def legacy_result_dict(result: dict, faults: list) -> dict:
    """A ``fault_sim_result`` wire dict in its earlier shape.

    That shape embedded the fault list as ``[net, stuck_value, gate]``
    triples and wrote detections as ``[fault_index, pattern_index]`` pairs
    into it; the current one holds only the dense ``first_detection`` array.
    A dict already in the earlier shape is returned as is.
    """
    if "faults" in result:
        return result
    first = result["first_detection"]["data"]
    pairs = [[index, pattern] for index, pattern in enumerate(first) if pattern >= 0]
    return {**result, "faults": faults, "first_detection": pairs}


def legacy_coverage_dict(coverage: dict, faults: list) -> dict:
    """A ``multi_set_coverage`` wire dict in its earlier shape."""
    return {**coverage, "result": legacy_result_dict(coverage["result"], faults)}


def legacy_report_dict(report: dict) -> dict:
    """A ``pipeline_report`` wire dict in its earlier shape.

    The current report states its fault list once, as ``faults``.  The
    earlier one wrote ``n_faults`` instead, wrapped each fault-simulation leg
    in a ``coverage_experiment`` (circuit name, pattern count, result, input
    weights) and embedded the list in every result.  Mapping a new report
    back lets the digests recorded from the earlier shape keep pinning what
    a run computes.  A dict already in the earlier shape is returned as is.
    """
    if "faults" not in report:
        return report
    faults = report["faults"]
    data = {key: value for key, value in report.items() if key != "faults"}
    data["n_faults"] = len(faults)
    quantized = report.get("quantized_weights")
    weights = {
        "conventional_experiment": [0.5] * report["n_inputs"],
        "optimized_experiment": None if quantized is None else quantized["data"],
    }
    for leg, leg_weights in weights.items():
        result = data.get(leg)
        if result is not None:
            data[leg] = {
                "kind": "coverage_experiment",
                "schema_version": result["schema_version"],
                "circuit_name": report["circuit_name"],
                "n_patterns": result["n_patterns"],
                "result": legacy_result_dict(result, faults),
                "weights": leg_weights,
            }
    multi = data.get("multi_weight")
    if multi is not None:
        data["multi_weight"] = {**multi, "coverage": legacy_coverage_dict(multi["coverage"], faults)}
    return data


def played_patterns(session) -> np.ndarray:
    """Every pattern a self-test session plays, its chunks concatenated."""
    return np.concatenate(list(session.pattern_chunks()))


def all_patterns(n_inputs: int) -> np.ndarray:
    """All 2^n input patterns as a boolean matrix (LSB-first bit order)."""
    codes = np.arange(1 << n_inputs, dtype=np.uint32)
    return ((codes[:, None] >> np.arange(n_inputs)[None, :]) & 1).astype(bool)


def reference_outputs(circuit: Circuit, patterns: np.ndarray, fault=None) -> np.ndarray:
    """``(n_patterns, n_outputs)`` output values by the reference walk."""
    values = reference_words(circuit, pack_patterns(patterns), fault)
    return unpack_values(values[list(circuit.outputs)], patterns.shape[0])


def named_outputs(circuit: Circuit, assignment) -> dict:
    """Primary-output values by name for one pattern given by input name."""
    pattern = [bool(assignment[circuit.net_name(net)]) for net in circuit.inputs]
    values = LogicSimulator(circuit).simulate_pattern(pattern)
    return {circuit.net_name(out): bool(v) for out, v in zip(circuit.outputs, values)}


def truth_table(circuit: Circuit) -> np.ndarray:
    """Output values for every input pattern, in :func:`all_patterns` order."""
    return LogicSimulator(circuit).simulate_patterns(all_patterns(circuit.n_inputs))


def bits_to_int(bits) -> int:
    """Little-endian bit vector -> integer."""
    return int(sum((1 << i) for i, bit in enumerate(bits) if bit))


def int_to_bits(value: int, width: int) -> Tuple[bool, ...]:
    """Integer -> little-endian bit vector of the given width."""
    return tuple(bool((value >> i) & 1) for i in range(width))
