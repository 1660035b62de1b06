"""Tests for the Circuit data structure: validation, queries, cones, ordering."""

import pytest

from repro.circuit import Circuit, CircuitBuilder, CircuitError, GateType
from repro.circuit.netlist import Gate, topologically_sort_gates

from .helpers import and_or_tree_circuit, half_adder_circuit, mux_circuit


class TestValidation:
    def test_valid_circuit_passes(self):
        circuit = half_adder_circuit()
        circuit.validate()  # must not raise

    def test_duplicate_driver_rejected(self):
        with pytest.raises(CircuitError, match="more than one driver"):
            Circuit(
                name="bad",
                net_names=["a", "b", "y"],
                inputs=(0, 1),
                outputs=(2,),
                gates=[Gate(GateType.AND, 2, (0, 1)), Gate(GateType.OR, 2, (0, 1))],
            )

    def test_use_before_definition_rejected(self):
        with pytest.raises(CircuitError, match="before it is driven"):
            Circuit(
                name="bad",
                net_names=["a", "y", "z"],
                inputs=(0,),
                outputs=(1,),
                gates=[Gate(GateType.BUF, 1, (2,)), Gate(GateType.BUF, 2, (0,))],
            )

    def test_undriven_output_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(
                name="bad",
                net_names=["a", "y"],
                inputs=(0,),
                outputs=(1,),
                gates=[],
            )

    def test_duplicate_net_name_rejected(self):
        with pytest.raises(CircuitError, match="duplicate net name"):
            Circuit(
                name="bad",
                net_names=["a", "a"],
                inputs=(0, 1),
                outputs=(0,),
                gates=[],
            )

    def test_duplicate_primary_input_rejected(self):
        with pytest.raises(CircuitError, match="duplicate primary input"):
            Circuit(
                name="bad",
                net_names=["a"],
                inputs=(0, 0),
                outputs=(0,),
                gates=[],
            )


class TestQueries:
    def test_counts(self):
        circuit = half_adder_circuit()
        assert circuit.n_inputs == 2
        assert circuit.n_outputs == 2
        assert circuit.n_gates == 2
        assert circuit.n_nets == 4

    def test_net_name_lookup_roundtrip(self):
        circuit = half_adder_circuit()
        for net in range(circuit.n_nets):
            name = circuit.net_name(net)
            assert circuit.net_index(name) == net

    def test_missing_net_name(self):
        circuit = half_adder_circuit()
        with pytest.raises(KeyError):
            circuit.net_index("does_not_exist")
        assert not circuit.has_net("does_not_exist")

    def test_driver_of_primary_input_is_none(self):
        circuit = half_adder_circuit()
        assert circuit.driver_of(circuit.inputs[0]) is None

    def test_driver_of_gate_output(self):
        circuit = half_adder_circuit()
        sum_net = circuit.net_index("sum")
        gate = circuit.driver_of(sum_net)
        assert gate is not None and gate.gate_type is GateType.XOR

    def test_is_primary_input(self):
        circuit = half_adder_circuit()
        assert circuit.inputs[0] in circuit.inputs
        assert circuit.net_index("sum") not in circuit.inputs

    def test_levels_and_depth(self):
        circuit = and_or_tree_circuit()
        levels = circuit.levels()
        assert levels[circuit.inputs[0]] == 0
        assert circuit.depth == 2

    def test_summary_mentions_counts(self):
        circuit = half_adder_circuit()
        text = circuit.summary()
        assert "2 inputs" in text and "2 gates" in text


class TestConesAndFanout:
    def test_fanout_of_select_in_mux(self):
        circuit = mux_circuit()
        select = circuit.net_index("sel")
        # select feeds the inverter and one AND gate directly.
        assert len(circuit.fanout_gates(select)) == 2

    def test_transitive_fanout_reaches_output(self):
        circuit = mux_circuit()
        select = circuit.net_index("sel")
        cone = circuit.transitive_fanout_gates(select)
        output_driver = circuit.driver_index(circuit.outputs[0])
        assert output_driver in cone

    def test_transitive_fanout_of_output_net_is_empty(self):
        circuit = half_adder_circuit()
        assert circuit.transitive_fanout_gates(circuit.outputs[0]) == []

    def test_transitive_fanin_contains_inputs(self):
        circuit = and_or_tree_circuit()
        cone = circuit.transitive_fanin_nets(circuit.outputs[0])
        for pi in circuit.inputs:
            assert pi in cone

    def test_support_inputs_partial(self):
        builder = CircuitBuilder("partial")
        a = builder.input("a")
        b = builder.input("b")
        c = builder.input("c")
        builder.output(builder.and_(a, b), "y")
        builder.output(builder.buf(c), "z")
        circuit = builder.build()
        support = circuit.support_inputs(circuit.net_index("y"))
        assert support == [a, b]

    def test_gate_type_counts(self):
        circuit = half_adder_circuit()
        counts = circuit.gate_type_counts()
        assert counts[GateType.XOR] == 1
        assert counts[GateType.AND] == 1


class TestTopologicalSort:
    def test_sorts_reversed_gate_list(self):
        circuit = and_or_tree_circuit()
        shuffled = list(reversed(circuit.gates))
        ordered = topologically_sort_gates(circuit.n_nets, circuit.inputs, shuffled)
        rebuilt = Circuit(
            name="resorted",
            net_names=list(circuit.net_names),
            inputs=circuit.inputs,
            outputs=circuit.outputs,
            gates=ordered,
        )
        rebuilt.validate()

    def test_cycle_detected(self):
        gates = [Gate(GateType.BUF, 1, (2,)), Gate(GateType.BUF, 2, (1,))]
        with pytest.raises(CircuitError, match="cycle|undriven"):
            topologically_sort_gates(3, (0,), gates)

    def test_double_driver_detected(self):
        gates = [Gate(GateType.BUF, 1, (0,)), Gate(GateType.NOT, 1, (0,))]
        with pytest.raises(CircuitError, match="more than one driver"):
            topologically_sort_gates(2, (0,), gates)
