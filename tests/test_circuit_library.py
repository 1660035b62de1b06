"""Functional tests of the datapath building blocks (validated against Python ints)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder
from repro.circuit import GateType
from repro.circuit.library import (
    and_tree,
    full_adder,
    half_adder,
    or_tree,
    parity_tree,
    ripple_borrow_subtractor,
    ripple_carry_adder,
)
from repro.simulation import LogicSimulator

from .helpers import all_patterns, bits_to_int, int_to_bits


def _evaluate_outputs(builder, output_signals, input_values):
    for index, signal in enumerate(output_signals):
        builder.output(signal, f"__out{index}")
    circuit = builder.build()
    return [bool(v) for v in LogicSimulator(circuit).simulate_pattern(input_values)]


WIDTH = 5


def test_half_adder_truth_table():
    for a, b in all_patterns(2).tolist():
        builder = CircuitBuilder("ha")
        s, c = half_adder(builder, builder.input("a"), builder.input("b"))
        assert _evaluate_outputs(builder, [s, c], [a, b]) == [a ^ b, a and b]


def test_full_adder_truth_table():
    for a, b, cin in all_patterns(3).tolist():
        builder = CircuitBuilder("fa")
        s, cout = full_adder(builder, builder.input("a"), builder.input("b"), builder.input("cin"))
        total = int(a) + int(b) + int(cin)
        assert _evaluate_outputs(builder, [s, cout], [a, b, cin]) == [bool(total & 1), total >= 2]


def test_adder_without_carry_in_starts_from_constant_zero():
    width = 3
    for pattern in all_patterns(2 * width).tolist():
        builder = CircuitBuilder("adder_no_cin")
        a_bus = builder.input_bus("a", width)
        b_bus = builder.input_bus("b", width)
        sums, cout = ripple_carry_adder(builder, a_bus, b_bus)
        outputs = _evaluate_outputs(builder, sums + [cout], pattern)
        a, b = bits_to_int(pattern[:width]), bits_to_int(pattern[width:])
        assert bits_to_int(outputs) == a + b
    circuit = builder.build()
    assert GateType.CONST0 in {gate.gate_type for gate in circuit.gates}


def test_single_signal_tree_is_the_signal_itself():
    builders = [CircuitBuilder("one_leaf"), CircuitBuilder("plain")]
    leaves = [builder.input("a") for builder in builders]
    tree, plain = builders
    a = leaves[0]
    assert parity_tree(tree, [a]) == and_tree(tree, [a]) == or_tree(tree, [a]) == a
    for builder, leaf in zip(builders, leaves):
        builder.output(leaf, "y")
    assert tree.build().n_gates == plain.build().n_gates


@given(
    a=st.integers(0, 2**WIDTH - 1),
    b=st.integers(0, 2**WIDTH - 1),
    carry=st.booleans(),
)
@settings(max_examples=60)
def test_ripple_carry_adder_matches_integer_addition(a, b, carry):
    builder = CircuitBuilder("adder")
    a_bus = builder.input_bus("a", WIDTH)
    b_bus = builder.input_bus("b", WIDTH)
    cin = builder.input("cin")
    sums, cout = ripple_carry_adder(builder, a_bus, b_bus, cin)
    outputs = _evaluate_outputs(
        builder, sums + [cout], list(int_to_bits(a, WIDTH)) + list(int_to_bits(b, WIDTH)) + [carry]
    )
    total = a + b + int(carry)
    assert bits_to_int(outputs[:WIDTH]) == total % (1 << WIDTH)
    assert outputs[WIDTH] == bool(total >> WIDTH)


@given(a=st.integers(0, 2**WIDTH - 1), b=st.integers(0, 2**WIDTH - 1))
@settings(max_examples=60)
def test_subtractor_matches_integer_subtraction(a, b):
    builder = CircuitBuilder("sub")
    a_bus = builder.input_bus("a", WIDTH)
    b_bus = builder.input_bus("b", WIDTH)
    diff, borrow = ripple_borrow_subtractor(builder, a_bus, b_bus)
    outputs = _evaluate_outputs(
        builder, diff + [borrow], list(int_to_bits(a, WIDTH)) + list(int_to_bits(b, WIDTH))
    )
    assert bits_to_int(outputs[:WIDTH]) == (a - b) % (1 << WIDTH)
    assert outputs[WIDTH] == (a < b)


@given(bits=st.lists(st.booleans(), min_size=1, max_size=9))
@settings(max_examples=60)
def test_reduction_trees(bits):
    builder = CircuitBuilder("trees")
    bus = builder.input_bus("x", len(bits))
    signals = [parity_tree(builder, bus), and_tree(builder, bus), or_tree(builder, bus)]
    parity, all_true, any_true = _evaluate_outputs(builder, signals, bits)
    assert parity == (sum(bits) % 2 == 1)
    assert all_true == all(bits)
    assert any_true == any(bits)


def test_mismatched_widths_rejected():
    builder = CircuitBuilder("bad")
    a = builder.input_bus("a", 3)
    b = builder.input_bus("b", 2)
    with pytest.raises(ValueError):
        ripple_carry_adder(builder, a, b)
    with pytest.raises(ValueError):
        ripple_borrow_subtractor(builder, a, b)


def test_empty_tree_rejected():
    builder = CircuitBuilder("empty_tree")
    builder.input("a")
    with pytest.raises(ValueError):
        and_tree(builder, [])
