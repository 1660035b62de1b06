"""Tests for the CircuitBuilder fluent construction API."""

import pytest

from repro.circuit import CircuitBuilder, CircuitError, GateType

from .helpers import named_outputs


class TestSignals:
    def test_input_bus_naming(self):
        builder = CircuitBuilder("bus")
        bus = builder.input_bus("a", 4)
        builder.output(builder.or_(*bus), "y")
        circuit = builder.build()
        assert [circuit.net_name(n) for n in circuit.inputs] == ["a0", "a1", "a2", "a3"]

    def test_inputs_from_names(self):
        builder = CircuitBuilder("named")
        nets = builder.inputs(["x", "y"])
        builder.output(builder.and_(*nets), "z")
        circuit = builder.build()
        assert circuit.net_name(circuit.inputs[1]) == "y"

    def test_duplicate_name_rejected(self):
        builder = CircuitBuilder("dup")
        builder.input("a")
        with pytest.raises(CircuitError, match="already used"):
            builder.input("a")

    def test_unknown_signal_handle_rejected(self):
        builder = CircuitBuilder("bad_handle")
        builder.input("a")
        with pytest.raises(CircuitError, match="unknown signal"):
            builder.not_(42)

    def test_output_renaming_inserts_buffer(self):
        builder = CircuitBuilder("rename")
        a = builder.input("a")
        b = builder.input("b")
        y = builder.and_(a, b, name="internal")
        builder.output(y, "result")
        circuit = builder.build()
        out = circuit.outputs[0]
        assert circuit.net_name(out) == "result"
        assert circuit.driver_of(out).gate_type is GateType.BUF

    def test_output_bus(self):
        builder = CircuitBuilder("obus")
        a = builder.input("a")
        builder.output_bus("o", [builder.buf(a), builder.not_(a)])
        circuit = builder.build()
        assert [circuit.net_name(n) for n in circuit.outputs] == ["o0", "o1"]


class TestGateHelpers:
    def test_variadic_and_flattening(self):
        builder = CircuitBuilder("flat")
        bus = builder.input_bus("a", 3)
        y = builder.and_(bus)  # list accepted directly
        builder.output(y, "y")
        circuit = builder.build()
        assert circuit.driver_of(circuit.net_index("y")).arity >= 1

    def test_mux_semantics(self):
        builder = CircuitBuilder("mux")
        sel = builder.input("sel")
        d0 = builder.input("d0")
        d1 = builder.input("d1")
        builder.output(builder.mux(sel, d0, d1), "y")
        circuit = builder.build()
        assert named_outputs(circuit, {"sel": False, "d0": True, "d1": False})["y"] is True
        assert named_outputs(circuit, {"sel": True, "d0": True, "d1": False})["y"] is False
        assert named_outputs(circuit, {"sel": True, "d0": False, "d1": True})["y"] is True

    def test_constants(self):
        builder = CircuitBuilder("const")
        a = builder.input("a")
        builder.output(builder.and_(a, builder.const1()), "keep")
        builder.output(builder.or_(a, builder.const0()), "keep2")
        circuit = builder.build()
        result = named_outputs(circuit, {"a": True})
        assert result["keep"] is True and result["keep2"] is True

    def test_auto_names_are_unique(self):
        builder = CircuitBuilder("auto")
        a = builder.input()
        b = builder.input()
        builder.output(builder.xor(a, b))
        circuit = builder.build()
        assert len(set(circuit.net_names)) == circuit.n_nets


class TestBuildErrors:
    def test_no_inputs_rejected(self):
        builder = CircuitBuilder("empty")
        with pytest.raises(CircuitError, match="no primary inputs"):
            builder.build()

    def test_no_outputs_rejected(self):
        builder = CircuitBuilder("no_out")
        builder.input("a")
        with pytest.raises(CircuitError, match="no primary outputs"):
            builder.build()

    def test_built_circuit_is_topologically_valid(self):
        builder = CircuitBuilder("topo")
        a = builder.input("a")
        prev = a
        for _ in range(10):
            prev = builder.not_(prev)
        builder.output(prev, "y")
        circuit = builder.build()
        circuit.validate()
        assert circuit.depth == 10
