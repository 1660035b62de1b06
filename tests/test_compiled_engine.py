"""Equivalence tests for the compiled structure-of-arrays engine.

The compiled engine (:mod:`repro.simulation.compiled`) must be *exact*: for
every net, pattern and fault it has to agree with

* an independent gate-by-gate ``eval_words`` pass in netlist order, with and
  without one injected fault (:func:`tests.helpers.reference_words`),
* the per-fault interpreted baseline
  (:class:`repro.faultsim.legacy.LegacyParallelFaultSimulator`), which is an
  independent implementation of the same detection semantics.

The checks run on C17, a 4-bit ALU, a carry-select block with constant
gates and randomized netlists (property-style over many seeds), covering
stem and branch faults, fault dropping, first-detection indices and
detection counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder, parse_bench
from repro.circuit.library import ripple_carry_adder
from repro.circuits import alu_circuit
from repro.faults import collapsed_fault_list, full_fault_list
from repro.faultsim import LegacyParallelFaultSimulator, ParallelFaultSimulator
from repro.patterns import WeightedPatternGenerator
from repro.simulation import LogicSimulator, compile_circuit, pack_patterns
from repro.simulation.compiled import first_detection_indices, popcount_words

from .helpers import (
    C17_BENCH,
    all_patterns,
    random_circuit,
    reference_outputs,
    reference_words,
)


def carry_select_block(width=3):
    """``a + b + cin`` computed for both carries from CONST0/CONST1 carry-ins
    and selected by ``cin``: every output depends on both constant gates."""
    builder = CircuitBuilder(f"carry_select_block{width}")
    a = builder.input_bus("a", width)
    b = builder.input_bus("b", width)
    cin = builder.input("cin")
    sums0, carry0 = ripple_carry_adder(builder, a, b, builder.const0())
    sums1, carry1 = ripple_carry_adder(builder, a, b, builder.const1())
    builder.output_bus("s", [builder.mux(cin, s0, s1) for s0, s1 in zip(sums0, sums1)])
    builder.output(builder.mux(cin, carry0, carry1), "cout")
    return builder.build()


def reference_circuits():
    """NAND (c17), AND/OR/XOR/NOT/NOR/XNOR (the ALU) and CONST0/CONST1."""
    return [
        parse_bench(C17_BENCH, name="c17"),
        alu_circuit(width=4),
        carry_select_block(),
    ]


def random_patterns(circuit, n_patterns, seed=5):
    rng = np.random.default_rng(seed)
    return rng.random((n_patterns, circuit.n_inputs)) < 0.5


def reference_detections(circuit, fault, patterns):
    """Per pattern: does ``fault`` change some primary output?"""
    good = reference_outputs(circuit, patterns)
    return (reference_outputs(circuit, patterns, fault) != good).any(axis=1)


class TestCompiledLogicSimulation:
    @pytest.mark.parametrize("circuit", reference_circuits(), ids=lambda c: c.name)
    def test_matches_reference(self, circuit):
        patterns = random_patterns(circuit, 130)
        outputs = LogicSimulator(circuit).simulate_patterns(patterns)
        assert np.array_equal(outputs, reference_outputs(circuit, patterns))

    def test_carry_select_block_adds(self):
        width = 3
        circuit = carry_select_block(width)
        assert [circuit.net_name(net) for net in circuit.outputs] == ["s0", "s1", "s2", "cout"]
        patterns = all_patterns(circuit.n_inputs)  # bit i of the row index is input i
        codes = np.arange(len(patterns))
        a, b, cin = codes & 0b111, (codes >> width) & 0b111, codes >> (2 * width)
        outputs = reference_outputs(circuit, patterns).astype(int)
        assert np.array_equal(outputs @ (1 << np.arange(width + 1)), a + b + cin)

    def test_matches_reference_on_random_netlists(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            circuit = random_circuit(rng, n_inputs=5, n_gates=14)
            patterns = all_patterns(circuit.n_inputs)
            outputs = LogicSimulator(circuit).simulate_patterns(patterns)
            assert np.array_equal(outputs, reference_outputs(circuit, patterns))

    def test_every_net_matches_not_only_outputs(self):
        circuit = parse_bench(C17_BENCH, name="c17")
        patterns = all_patterns(circuit.n_inputs)
        words = pack_patterns(patterns)
        actual = compile_circuit(circuit).simulate_words(words)
        assert np.array_equal(actual, reference_words(circuit, words))


class TestCompiledFaultDetection:
    @pytest.mark.parametrize("circuit", reference_circuits(), ids=lambda c: c.name)
    def test_first_detection_matches_reference(self, circuit):
        faults = collapsed_fault_list(circuit)
        patterns = random_patterns(circuit, 96, seed=7)
        result = ParallelFaultSimulator(circuit, faults).run(patterns)
        for fi, fault in enumerate(faults):
            detected = np.flatnonzero(reference_detections(circuit, fault, patterns))
            expected = int(detected[0]) if detected.size else -1
            assert result.first_detection[fi] == expected, fault

    @pytest.mark.parametrize("circuit", reference_circuits(), ids=lambda c: c.name)
    def test_detection_counts_match_reference(self, circuit):
        # Branch faults included: full (uncollapsed) list exercises pin injection.
        faults = list(full_fault_list(circuit))[::3]
        patterns = random_patterns(circuit, 64, seed=11)
        counts = ParallelFaultSimulator(circuit, faults).detection_counts(patterns)
        for fi, fault in enumerate(faults):
            expected = int(reference_detections(circuit, fault, patterns).sum())
            assert counts[fi] == expected, fault

    def test_matches_legacy_engine_with_weighted_patterns(self):
        circuit = carry_select_block()
        faults = collapsed_fault_list(circuit)
        generator = WeightedPatternGenerator([0.7] * circuit.n_inputs, seed=42)
        patterns = generator.generate(500)
        compiled = ParallelFaultSimulator(circuit, faults).run(patterns, batch_size=128)
        legacy = LegacyParallelFaultSimulator(circuit, faults).run(
            patterns, batch_size=128
        )
        assert np.array_equal(compiled.first_detection, legacy.first_detection)
        assert compiled.fault_coverage == legacy.fault_coverage

    def test_matches_legacy_engine_without_dropping(self):
        circuit = alu_circuit(width=4)
        faults = full_fault_list(circuit)
        patterns = random_patterns(circuit, 200, seed=3)
        compiled = ParallelFaultSimulator(circuit, faults).detection_counts(patterns)
        legacy = LegacyParallelFaultSimulator(circuit, faults).detection_counts(patterns)
        assert np.array_equal(compiled, legacy)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_random_netlists_match_legacy(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, n_inputs=4, n_gates=10)
        faults = full_fault_list(circuit)
        patterns = all_patterns(circuit.n_inputs)
        compiled = ParallelFaultSimulator(circuit, faults).run(
            patterns, drop_detected=False
        )
        legacy = LegacyParallelFaultSimulator(circuit, faults).run(
            patterns, drop_detected=False
        )
        assert np.array_equal(compiled.first_detection, legacy.first_detection)

    @pytest.mark.parametrize(
        "engine", [ParallelFaultSimulator, LegacyParallelFaultSimulator]
    )
    def test_no_dropping_keeps_global_first_detection(self, engine):
        # Regression: with drop_detected=False a fault stays live after its
        # first detection; later batches must not overwrite the index.
        circuit = parse_bench(C17_BENCH, name="c17")
        faults = collapsed_fault_list(circuit)
        patterns = random_patterns(circuit, 64, seed=21)
        dropped = engine(circuit, faults).run(patterns, batch_size=8)
        kept = engine(circuit, faults).run(
            patterns, drop_detected=False, batch_size=8
        )
        assert np.array_equal(kept.first_detection, dropped.first_detection)


class TestCompiledStructures:
    def test_cones_match_netlist_transitive_fanout(self):
        rng = np.random.default_rng(17)
        circuit = random_circuit(rng, n_inputs=5, n_gates=20)
        engine = compile_circuit(circuit)
        for net in range(circuit.n_nets):
            expected = np.asarray(circuit.transitive_fanout_gates(net), dtype=np.int32)
            assert np.array_equal(engine.cone_gates(net), expected), net

    def test_engine_is_cached_per_circuit_instance(self):
        circuit = parse_bench(C17_BENCH, name="c17")
        assert compile_circuit(circuit) is compile_circuit(circuit)

    def test_first_detection_indices_helper(self):
        words = np.zeros((4, 3), dtype=np.uint64)
        words[1, 0] = np.uint64(1) << np.uint64(13)
        words[2, 2] = np.uint64(1) << np.uint64(63)
        words[3, 1] = np.uint64(0b1010)
        assert list(first_detection_indices(words)) == [-1, 13, 2 * 64 + 63, 64 + 1]

    def test_popcount_words_helper(self):
        words = np.asarray(
            [[0, 0], [0xFFFFFFFFFFFFFFFF, 1], [0b1011, 0]], dtype=np.uint64
        )
        assert list(popcount_words(words)) == [0, 65, 3]
