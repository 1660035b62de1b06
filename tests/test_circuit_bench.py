"""Tests for .bench parsing and writing."""

import random

import numpy as np
import pytest

from repro.circuit import GateType, parse_bench, write_bench
from repro.circuit.bench import BenchParseError, parse_bench_file, write_bench_file
from repro.circuit.builder import CircuitBuilder
from repro.circuits import paper_suite, s1_comparator

from .helpers import C17_BENCH, half_adder_circuit, named_outputs, truth_table


class TestParsing:
    def test_c17_structure(self):
        circuit = parse_bench(C17_BENCH, name="c17")
        assert circuit.n_inputs == 5
        assert circuit.n_outputs == 2
        assert circuit.n_gates == 6
        assert all(g.gate_type is GateType.NAND for g in circuit.gates)

    def test_c17_function_spot_check(self):
        circuit = parse_bench(C17_BENCH, name="c17")
        # G22 = NAND(NAND(G1,G3), NAND(G2, NAND(G3,G6)))
        out = named_outputs(
            circuit, {"G1": True, "G2": False, "G3": True, "G6": False, "G7": False}
        )
        assert out["G22"] is True

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nINPUT(a)\n# mid comment\nOUTPUT(y)\ny = NOT(a) # trailing\n"
        circuit = parse_bench(text)
        assert circuit.n_gates == 1

    def test_out_of_order_gates_are_sorted(self):
        text = """
        INPUT(a)
        INPUT(b)
        OUTPUT(y)
        y = AND(t, b)
        t = NOT(a)
        """
        circuit = parse_bench(text)
        circuit.validate()
        assert named_outputs(circuit, {"a": False, "b": True})["y"] is True

    def test_gate_alias_inv_and_buff(self):
        text = "INPUT(a)\nOUTPUT(y)\nt = BUFF(a)\ny = INV(t)\n"
        circuit = parse_bench(text)
        assert circuit.driver_of(circuit.net_index("y")).gate_type is GateType.NOT

    def test_missing_inputs_rejected(self):
        with pytest.raises(BenchParseError, match="no INPUT"):
            parse_bench("OUTPUT(y)\ny = NOT(y)\n")

    def test_missing_outputs_rejected(self):
        with pytest.raises(BenchParseError, match="no OUTPUT"):
            parse_bench("INPUT(a)\nt = NOT(a)\n")

    def test_unknown_gate_rejected(self):
        with pytest.raises(BenchParseError, match="unknown gate type"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = FOO(a)\n")

    def test_undriven_output_rejected(self):
        with pytest.raises(BenchParseError, match="never driven"):
            parse_bench("INPUT(a)\nOUTPUT(z)\ny = NOT(a)\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(BenchParseError, match="cannot parse"):
            parse_bench("INPUT(a)\nOUTPUT(y)\nthis is not a netlist line\ny = NOT(a)\n")

    def test_cyclic_netlist_rejected(self):
        text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n"
        with pytest.raises(BenchParseError):
            parse_bench(text)


class TestRoundTrip:
    def test_half_adder_roundtrip_function_preserved(self):
        original = half_adder_circuit()
        rebuilt = parse_bench(write_bench(original), name="half_adder_rt")
        assert np.array_equal(truth_table(original), truth_table(rebuilt))

    def test_c17_roundtrip(self):
        original = parse_bench(C17_BENCH, name="c17")
        rebuilt = parse_bench(write_bench(original), name="c17_rt")
        assert np.array_equal(truth_table(original), truth_table(rebuilt))

    def test_generated_circuit_roundtrip_structure(self):
        original = s1_comparator(width=6)
        rebuilt = parse_bench(write_bench(original), name="s1_rt")
        assert rebuilt.n_inputs == original.n_inputs
        assert rebuilt.n_outputs == original.n_outputs

    def test_file_roundtrip(self, tmp_path):
        original = half_adder_circuit()
        path = tmp_path / "ha.bench"
        write_bench_file(original, path)
        rebuilt = parse_bench_file(path)
        assert rebuilt.name == "ha"
        assert rebuilt.n_gates == original.n_gates

    def test_topological_file_order_is_preserved(self):
        # Two independent gates: a re-sorting parser (Kahn with a LIFO stack)
        # would reverse them; file order must survive when already topological.
        text = "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nx = NOT(a)\ny = NOT(b)\n"
        circuit = parse_bench(text)
        assert [circuit.net_name(g.output) for g in circuit.gates] == ["x", "y"]


class TestBenchFixes:
    """Regression tests for the PR 7 bench-format bug fixes."""

    def _const_with_collision(self, const_type):
        # A net literally named "c0_not" next to a CONST gate "c0": the old
        # writer emitted a second driver for "c0_not" and the reparse failed
        # with "net 'c0_not' has more than one driver".
        builder = CircuitBuilder("collide")
        a = builder.input("a")
        c0 = builder.gate(const_type, (), name="c0")
        shadow = builder.gate(GateType.NOT, (a,), name="c0_not")
        builder.output(builder.gate(GateType.OR, (c0, shadow), name="y"))
        return builder.build()

    @pytest.mark.parametrize("const_type", [GateType.CONST0, GateType.CONST1])
    def test_const_helper_names_dodge_collisions(self, const_type):
        original = self._const_with_collision(const_type)
        rebuilt = parse_bench(write_bench(original))
        # One extra NOT+binary-gate pair replaces the constant gate.
        assert rebuilt.n_gates == original.n_gates + 1
        expected = const_type is GateType.CONST1
        for a in (False, True):
            assert named_outputs(rebuilt, {"a": a})["y"] == (expected or not a)

    def test_const_helper_dodges_synthesised_net_names(self):
        # Unnamed nets render as "n<id>"; helper names must not collide with
        # those either.
        builder = CircuitBuilder("anon")
        a = builder.input("a")
        c1 = builder.gate(GateType.CONST1, (), name=None)
        builder.output(builder.gate(GateType.AND, (a, c1), name="y"))
        original = builder.build()
        rebuilt = parse_bench(write_bench(original))
        for a in (False, True):
            assert named_outputs(rebuilt, {"a": a})["y"] is a

    def test_sequential_dff_is_full_scan_converted(self):
        circuit = parse_bench(
            "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = NAND(a, q)\ny = NOT(q)\n"
        )
        names = circuit.net_name
        assert [names(n) for n in circuit.inputs] == ["a", "q"]
        assert [names(n) for n in circuit.outputs] == ["y", "d"]
        assert len(circuit.gates) == 2

    def test_sequential_latch_gets_clear_error(self):
        with pytest.raises(BenchParseError) as excinfo:
            parse_bench("INPUT(a)\nOUTPUT(q)\nq = LATCH(a)\n")
        message = str(excinfo.value)
        assert "sequential element 'LATCH' is not supported" in message
        assert "combinational" in message
        for gate_name in ("AND", "NAND", "XOR", "CONST0"):
            assert gate_name in message

    def test_dff_conflicting_drivers_rejected(self):
        with pytest.raises(BenchParseError, match="also driven by a gate"):
            parse_bench("INPUT(a)\nOUTPUT(q)\nq = NOT(a)\nq = DFF(a)\n")
        with pytest.raises(BenchParseError, match="also declared INPUT"):
            parse_bench("INPUT(a)\nOUTPUT(a)\na = DFF(a)\n")
        with pytest.raises(BenchParseError, match="two flip-flops"):
            parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\nq = DFF(a)\n")

    def test_unknown_token_error_unchanged(self):
        with pytest.raises(BenchParseError, match="unknown gate type token: 'FROB'"):
            parse_bench("INPUT(a)\nOUTPUT(q)\nq = FROB(a)\n")

    def test_parse_bench_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "broken.bench"
        path.write_text("INPUT(a)\nOUTPUT(q)\nq = FROB(a)\n")
        with pytest.raises(BenchParseError) as excinfo:
            parse_bench_file(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "line 3" in message


class TestRegistryRoundTrip:
    """write_bench -> parse_bench over every registry circuit.

    Const-free circuits (all in canonical net order, c1355 by explicit
    renumbering) round-trip with an identical structural hash.  The three
    const-bearing circuits (s2, c2670, c7552) undergo the *documented*
    structural change — each CONST gate becomes a two-gate constant
    structure — so their reparse gains exactly one gate per constant and
    computes the same function.
    """

    @pytest.mark.parametrize("entry", paper_suite(), ids=lambda e: e.key)
    def test_roundtrip(self, entry):
        original = entry.instantiate()
        rebuilt = parse_bench(write_bench(original))
        n_consts = sum(
            1
            for gate in original.gates
            if gate.gate_type in (GateType.CONST0, GateType.CONST1)
        )
        if n_consts == 0:
            assert rebuilt.structural_hash() == original.structural_hash()
            return
        assert rebuilt.n_gates == original.n_gates + n_consts
        input_names = [original.net_name(net) for net in original.inputs]
        rng = random.Random(entry.key)
        for _ in range(4):
            assignment = {name: rng.random() < 0.5 for name in input_names}
            assert named_outputs(rebuilt, assignment) == named_outputs(
                original, assignment
            )
