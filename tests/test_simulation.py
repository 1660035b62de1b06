"""Tests for true-value simulation: packing, bit-parallel vs. the reference pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import parse_bench
from repro.simulation import LogicSimulator, pack_patterns, unpack_values

from .helpers import C17_BENCH, all_patterns, half_adder_circuit, random_circuit, reference_words


def reference_outputs(circuit, patterns):
    values = reference_words(circuit, pack_patterns(patterns))
    return unpack_values(values[list(circuit.outputs)], patterns.shape[0])


class TestPacking:
    @given(
        n_patterns=st.integers(1, 200),
        n_signals=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40)
    def test_pack_unpack_roundtrip(self, n_patterns, n_signals, seed):
        rng = np.random.default_rng(seed)
        patterns = rng.random((n_patterns, n_signals)) < 0.5
        words = pack_patterns(patterns)
        assert words.shape == (n_signals, (n_patterns + 63) // 64)
        recovered = unpack_values(words, n_patterns)
        assert np.array_equal(recovered, patterns)

    def test_pack_rejects_1d_input(self):
        with pytest.raises(ValueError):
            pack_patterns(np.zeros(8, dtype=bool))

    def test_unpack_single_row(self):
        patterns = np.array([[True], [False], [True]])
        words = pack_patterns(patterns)
        row = unpack_values(words[0], 3)
        assert list(row) == [True, False, True]


class TestLogicSimulator:
    def test_half_adder_exhaustive(self):
        circuit = half_adder_circuit()
        simulator = LogicSimulator(circuit)
        patterns = all_patterns(2)
        outputs = simulator.simulate_patterns(patterns)
        for pattern, (s, c) in zip(patterns, outputs):
            a, b = pattern
            assert s == (a ^ b)
            assert c == (a and b)

    def test_matches_reference_on_c17(self):
        circuit = parse_bench(C17_BENCH, name="c17")
        simulator = LogicSimulator(circuit)
        patterns = all_patterns(circuit.n_inputs)
        outputs = simulator.simulate_patterns(patterns)
        assert np.array_equal(outputs, reference_outputs(circuit, patterns))

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_on_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, n_inputs=5, n_gates=14)
        simulator = LogicSimulator(circuit)
        patterns = all_patterns(circuit.n_inputs)
        outputs = simulator.simulate_patterns(patterns)
        assert np.array_equal(outputs, reference_outputs(circuit, patterns))

    def test_wrong_input_row_count_rejected(self):
        circuit = half_adder_circuit()
        simulator = LogicSimulator(circuit)
        with pytest.raises(ValueError, match="expected 2 input rows"):
            simulator.simulate_words(np.zeros((3, 1), dtype=np.uint64))

    def test_single_pattern_helper(self):
        circuit = half_adder_circuit()
        out = LogicSimulator(circuit).simulate_pattern([True, True])
        assert list(out) == [False, True]

    def test_signal_ones_count(self):
        circuit = half_adder_circuit()
        simulator = LogicSimulator(circuit)
        patterns = all_patterns(2)
        values = simulator.simulate_words(pack_patterns(patterns))
        ones = simulator.signal_ones_count(values, patterns.shape[0])
        sum_net = circuit.net_index("sum")
        carry_net = circuit.net_index("carry")
        assert ones[sum_net] == 2
        assert ones[carry_net] == 1

