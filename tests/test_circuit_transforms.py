"""Tests for netlist transformations (XOR expansion)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder, GateType, expand_xor, has_parity_gates
from repro.circuits import ecc_decoder_circuit

from .helpers import half_adder_circuit, random_circuit, truth_table


class TestExpandXor:
    def test_no_parity_gates_returns_same_object(self):
        builder = CircuitBuilder("plain")
        a = builder.input("a")
        b = builder.input("b")
        builder.output(builder.and_(a, b), "y")
        circuit = builder.build()
        assert expand_xor(circuit) is circuit

    def test_parity_gate_detection(self):
        assert has_parity_gates(half_adder_circuit())

    def test_expanded_circuit_has_no_parity_gates(self):
        expanded = expand_xor(half_adder_circuit())
        assert not has_parity_gates(expanded)
        assert expanded.name.endswith("_xorfree")

    def test_function_preserved_half_adder(self):
        original = half_adder_circuit()
        expanded = expand_xor(original)
        assert np.array_equal(truth_table(original), truth_table(expanded))

    def test_original_net_ids_preserved(self):
        original = half_adder_circuit()
        expanded = expand_xor(original)
        assert expanded.inputs == original.inputs
        assert expanded.outputs == original.outputs
        for net in range(original.n_nets):
            assert expanded.net_name(net) == original.net_name(net)
        assert expanded.n_nets > original.n_nets

    def test_wide_xor_and_xnor(self):
        builder = CircuitBuilder("wide_parity")
        bus = builder.input_bus("x", 4)
        builder.output(builder.xor(*bus), "odd")
        builder.output(builder.xnor(*bus), "even")
        original = builder.build()
        expanded = expand_xor(original)
        assert np.array_equal(truth_table(original), truth_table(expanded))

    def test_single_input_parity_gates(self):
        builder = CircuitBuilder("degenerate")
        a = builder.input("a")
        builder.output(builder.gate(GateType.XOR, [a]), "same")
        builder.output(builder.gate(GateType.XNOR, [a]), "inverted")
        original = builder.build()
        expanded = expand_xor(original)
        assert np.array_equal(truth_table(original), truth_table(expanded))

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_function_preserved_on_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        original = random_circuit(rng, n_inputs=5, n_gates=12)
        expanded = expand_xor(original)
        assert np.array_equal(truth_table(original), truth_table(expanded))

    def test_expansion_grows_gate_count_like_c1355_vs_c499(self):
        original = ecc_decoder_circuit(data_width=16)
        expanded = expand_xor(original)
        assert expanded.n_gates > 1.5 * original.n_gates
        assert expanded.n_inputs == original.n_inputs
