"""Functional tests of the benchmark circuit generators.

Every generator is checked against a Python-integer reference model so the
workloads used in the paper reproduction are known to compute what they claim
(a comparator really compares, the divider really divides, ...).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    alu_circuit,
    array_multiplier_circuit,
    comparator_circuit,
    divider_circuit,
    ecc_decoder_circuit,
    resistant_circuit,
    s1_comparator,
    s2_divider,
)
from repro.circuits.ecc import hamming_parameters
from repro.simulation import LogicSimulator

from .helpers import bits_to_int, named_outputs


def _named_inputs(prefix, value, width):
    return {f"{prefix}{i}": bool((value >> i) & 1) for i in range(width)}


class TestComparator:
    WIDTH = 10

    @given(a=st.integers(0, 2**WIDTH - 1), b=st.integers(0, 2**WIDTH - 1))
    @settings(max_examples=50)
    def test_matches_integer_comparison(self, a, b):
        circuit = comparator_circuit(width=self.WIDTH)
        assignment = {**_named_inputs("a", a, self.WIDTH), **_named_inputs("b", b, self.WIDTH)}
        out = named_outputs(circuit, assignment)
        assert out["a_gt_b"] == (a > b)
        assert out["a_eq_b"] == (a == b)
        assert out["a_lt_b"] == (a < b)

    def test_exactly_one_output_active(self):
        circuit = comparator_circuit(width=6)
        rng = np.random.default_rng(0)
        simulator = LogicSimulator(circuit)
        patterns = rng.random((200, circuit.n_inputs)) < 0.5
        outputs = simulator.simulate_patterns(patterns)
        assert np.all(outputs.sum(axis=1) == 1)

    def test_s1_default_is_24_bits(self):
        circuit = s1_comparator()
        assert circuit.n_inputs == 48
        assert circuit.n_outputs == 3

    def test_width_not_multiple_of_slice(self):
        circuit = comparator_circuit(width=7, slice_width=4)
        out = named_outputs(
            circuit, {**_named_inputs("a", 100, 7), **_named_inputs("b", 99, 7)}
        )
        assert out["a_gt_b"] is True

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            comparator_circuit(width=0)


class TestDivider:
    WIDTH = 6

    @given(
        dividend=st.integers(0, 2**WIDTH - 1),
        divisor=st.integers(1, 2**WIDTH - 1),
    )
    @settings(max_examples=50)
    def test_matches_integer_division(self, dividend, divisor):
        circuit = divider_circuit(width=self.WIDTH)
        assignment = {
            **_named_inputs("n", dividend, self.WIDTH),
            **_named_inputs("d", divisor, self.WIDTH),
        }
        out = named_outputs(circuit, assignment)
        quotient = bits_to_int([out[f"q{i}"] for i in range(self.WIDTH)])
        remainder = bits_to_int([out[f"r{i}"] for i in range(self.WIDTH)])
        assert quotient == dividend // divisor
        assert remainder == dividend % divisor
        assert out["div_by_zero"] is False

    def test_division_by_zero_flagged(self):
        circuit = divider_circuit(width=4)
        out = named_outputs(circuit, {**_named_inputs("n", 9, 4), **_named_inputs("d", 0, 4)})
        assert out["div_by_zero"] is True

    def test_s2_default_width(self):
        circuit = s2_divider()
        assert circuit.n_inputs == 32  # 16-bit dividend + 16-bit divisor

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            divider_circuit(width=1)


class TestMultiplier:
    WIDTH = 5

    @given(a=st.integers(0, 2**WIDTH - 1), b=st.integers(0, 2**WIDTH - 1))
    @settings(max_examples=40)
    def test_matches_integer_multiplication(self, a, b):
        circuit = array_multiplier_circuit(width=self.WIDTH)
        out = named_outputs(
            circuit, {**_named_inputs("a", a, self.WIDTH), **_named_inputs("b", b, self.WIDTH)}
        )
        product = bits_to_int([out[f"p{i}"] for i in range(2 * self.WIDTH)])
        assert product == a * b

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            array_multiplier_circuit(width=1)


class TestAlu:
    WIDTH = 6

    @given(
        a=st.integers(0, 2**WIDTH - 1),
        b=st.integers(0, 2**WIDTH - 1),
        op=st.integers(0, 3),
        carry=st.booleans(),
    )
    @settings(max_examples=60)
    def test_all_operations(self, a, b, op, carry):
        circuit = alu_circuit(width=self.WIDTH)
        assignment = {
            **_named_inputs("a", a, self.WIDTH),
            **_named_inputs("b", b, self.WIDTH),
            "sel0": bool(op & 1),
            "sel1": bool(op & 2),
            "cin": carry,
        }
        out = named_outputs(circuit, assignment)
        mask = (1 << self.WIDTH) - 1
        expected = {
            0: a & b,
            1: a | b,
            2: a ^ b,
            3: (a + b + int(carry)) & mask,
        }[op]
        result = bits_to_int([out[f"f{i}"] for i in range(self.WIDTH)])
        assert result == expected
        assert out["zero"] == (expected == 0)
        assert out["a_eq_b"] == (a == b)

    def test_eq_flag_optional(self):
        circuit = alu_circuit(width=4, with_eq_flag=False)
        assert not circuit.has_net("a_eq_b")


class TestEcc:
    def test_hamming_parameters(self):
        assert hamming_parameters(4) == 3
        assert hamming_parameters(16) == 5
        assert hamming_parameters(32) == 6

    @given(data=st.integers(0, 2**8 - 1), error_position=st.integers(-1, 12))
    @settings(max_examples=60)
    def test_single_error_correction(self, data, error_position):
        """Any single-bit error in data or check bits is corrected (8-bit code)."""
        width = 8
        check_width = hamming_parameters(width)
        circuit = ecc_decoder_circuit(data_width=width)

        # Build a consistent code word: compute check bits by simulating the
        # syndrome of the unmodified data with all-zero check bits, which for a
        # Hamming code equals the expected check bits.
        base = {**_named_inputs("d", data, width), **_named_inputs("c", 0, check_width)}
        # The syndrome with zero check bits equals the correct check word.
        syndrome_probe = named_outputs(circuit, base)
        del syndrome_probe  # outputs do not expose the syndrome directly
        check = _reference_hamming_check_bits(data, width, check_width)
        assignment = {**_named_inputs("d", data, width), **_named_inputs("c", check, check_width)}

        total_positions = width + check_width
        if 0 <= error_position < total_positions:
            # Flip one received bit (data bits first, then check bits).
            if error_position < width:
                key = f"d{error_position}"
            else:
                key = f"c{error_position - width}"
            assignment[key] = not assignment[key]

        out = named_outputs(circuit, assignment)
        corrected = bits_to_int([out[f"o{i}"] for i in range(width)])
        assert corrected == data
        if 0 <= error_position < total_positions:
            assert out["error"] is True
        else:
            assert out["error"] is False


def _reference_hamming_check_bits(data: int, width: int, check_width: int) -> int:
    """Reference computation of the Hamming check bits (same position layout
    as the generator: power-of-two positions carry check bits)."""
    positions = {}
    data_index = 0
    for position in range(1, width + check_width + 1):
        if position & (position - 1) == 0:
            continue
        positions[position] = bool((data >> data_index) & 1)
        data_index += 1
    check = 0
    for k in range(check_width):
        parity = False
        for position, bit in positions.items():
            if (position >> k) & 1:
                parity ^= bit
        if parity:
            check |= 1 << k
    return check


class TestResistant:
    def test_structure_scales_with_blocks(self):
        one = resistant_circuit(width=8, n_blocks=1)
        two = resistant_circuit(width=8, n_blocks=2)
        assert two.n_inputs > one.n_inputs
        assert two.n_gates > one.n_gates

    def test_hard_detector_fires_only_on_match(self):
        circuit = resistant_circuit(width=6, n_blocks=1)
        # Equal buses + the magic opcode (alternating 1/0 on the control bus).
        control_width = max(4, 6 // 4)
        assignment = {
            **_named_inputs("blk0_a", 0b101010, 6),
            **_named_inputs("blk0_b", 0b101010, 6),
            **{f"blk0_ctl{i}": (i % 2 == 0) for i in range(control_width)},
        }
        out = named_outputs(circuit, assignment)
        assert out["blk0_o0"] is True  # gated equality fires
        # Break the opcode: detector must go silent.
        assignment[f"blk0_ctl0"] = False
        out = named_outputs(circuit, assignment)
        assert out["blk0_o0"] is False

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            resistant_circuit(width=2)
        with pytest.raises(ValueError):
            resistant_circuit(width=8, n_blocks=0)
