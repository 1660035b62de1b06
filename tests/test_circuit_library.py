"""Functional tests of the datapath building blocks (validated against Python ints)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder
from repro.circuit.library import (
    and_tree,
    decoder,
    equality_comparator,
    magnitude_comparator,
    mux_tree,
    or_tree,
    parity_tree,
    ripple_borrow_subtractor,
    ripple_carry_adder,
)
from repro.simulation import LogicSimulator

from .helpers import bits_to_int, int_to_bits


def _evaluate_outputs(builder, output_signals, input_values):
    for index, signal in enumerate(output_signals):
        builder.output(signal, f"__out{index}")
    circuit = builder.build()
    return [bool(v) for v in LogicSimulator(circuit).simulate_pattern(input_values)]


WIDTH = 5


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


@given(a=st.integers(0, 2**WIDTH - 1), b=st.integers(0, 2**WIDTH - 1))
@settings(max_examples=60)
def test_magnitude_comparator_matches_integer_comparison(a, b):
    builder = CircuitBuilder("cmp")
    a_bus = builder.input_bus("a", WIDTH)
    b_bus = builder.input_bus("b", WIDTH)
    gt, eq, lt = magnitude_comparator(builder, a_bus, b_bus)
    outputs = _evaluate_outputs(
        builder, [gt, eq, lt], list(int_to_bits(a, WIDTH)) + list(int_to_bits(b, WIDTH))
    )
    assert outputs == [a > b, a == b, a < b]


@given(a=st.integers(0, 2**WIDTH - 1), b=st.integers(0, 2**WIDTH - 1))
@settings(max_examples=40)
def test_equality_comparator(a, b):
    builder = CircuitBuilder("eq")
    a_bus = builder.input_bus("a", WIDTH)
    b_bus = builder.input_bus("b", WIDTH)
    eq = equality_comparator(builder, a_bus, b_bus)
    outputs = _evaluate_outputs(
        builder, [eq], list(int_to_bits(a, WIDTH)) + list(int_to_bits(b, WIDTH))
    )
    assert outputs[0] == (a == b)


@given(value=st.integers(0, 7), enable=st.booleans())
@settings(max_examples=32)
def test_decoder_is_one_hot(value, enable):
    builder = CircuitBuilder("dec")
    select = builder.input_bus("s", 3)
    en = builder.input("en")
    outputs = decoder(builder, select, enable=en)
    results = _evaluate_outputs(builder, outputs, list(int_to_bits(value, 3)) + [enable])
    if enable:
        assert results.count(True) == 1
        assert results.index(True) == value
    else:
        assert not any(results)


@given(value=st.integers(0, 15), select=st.integers(0, 3))
@settings(max_examples=32)
def test_mux_tree_selects_requested_bit(value, select):
    builder = CircuitBuilder("muxtree")
    data = builder.input_bus("d", 4)
    sel = builder.input_bus("s", 2)
    y = mux_tree(builder, sel, data)
    outputs = _evaluate_outputs(
        builder, [y], list(int_to_bits(value, 4)) + list(int_to_bits(select, 2))
    )
    assert outputs[0] == bool((value >> select) & 1)


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
        magnitude_comparator(builder, a, b)


def test_mux_tree_width_check():
    builder = CircuitBuilder("bad_mux")
    data = builder.input_bus("d", 3)
    sel = builder.input_bus("s", 2)
    with pytest.raises(ValueError):
        mux_tree(builder, sel, data)


def test_empty_tree_rejected():
    builder = CircuitBuilder("empty_tree")
    builder.input("a")
    with pytest.raises(ValueError):
        and_tree(builder, [])
