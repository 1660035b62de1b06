"""Tests for LFSR / MISR / BILBO and weighted pattern generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import comparator_circuit
from repro.faults import Fault
from repro.patterns import (
    LFSR,
    MISR,
    LfsrWeightedPatternGenerator,
    SelfTestSession,
    WeightedPatternGenerator,
    equiprobable_weights,
    max_sequence_length,
    validate_weights,
)
from repro.faultsim import random_pattern_coverage

from .helpers import half_adder_circuit, played_patterns, reference_outputs


class TestLFSR:
    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 8, 10, 12])
    def test_tabulated_polynomials_are_maximal_length(self, width):
        lfsr = LFSR(width)
        assert lfsr.period(limit=(1 << width)) == max_sequence_length(width)

    def test_state_never_zero(self):
        lfsr = LFSR(6, seed=1)
        states = lfsr.states(200)
        assert 0 not in states

    def test_reset_reproduces_stream(self):
        lfsr = LFSR(16, seed=0xACE1)
        first = lfsr.bits(100)
        lfsr.reset()
        assert lfsr.bits(100) == first

    def test_patterns_shape_and_determinism(self):
        lfsr = LFSR(24)
        patterns = lfsr.patterns(10, 8)
        assert patterns.shape == (10, 8)
        lfsr.reset()
        assert np.array_equal(lfsr.patterns(10, 8), patterns)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            LFSR(8, seed=0)

    def test_untabulated_width_needs_explicit_taps(self):
        with pytest.raises(ValueError):
            LFSR(27)
        lfsr = LFSR(27, taps=(27, 26, 25, 22))
        assert lfsr.width == 27

    def test_invalid_taps_rejected(self):
        with pytest.raises(ValueError):
            LFSR(8, taps=(9,))

    def test_bits_are_roughly_balanced(self):
        lfsr = LFSR(20)
        bits = lfsr.bits(4000)
        ones = sum(bits)
        assert 1800 < ones < 2200


class TestWeightedGenerator:
    def test_validate_weights(self):
        assert validate_weights([0.5, 0.2]).shape == (2,)
        with pytest.raises(ValueError):
            validate_weights([])
        with pytest.raises(ValueError):
            validate_weights([1.2])

    def test_equiprobable_helper(self):
        assert equiprobable_weights(3) == [0.5, 0.5, 0.5]

    def test_shape_and_reproducibility(self):
        generator = WeightedPatternGenerator([0.2, 0.8], seed=7)
        first = generator.generate(100)
        assert first.shape == (100, 2)
        generator.reset()
        assert np.array_equal(generator.generate(100), first)

    def test_empirical_frequencies_match_weights(self):
        weights = [0.1, 0.5, 0.9]
        generator = WeightedPatternGenerator(weights, seed=123)
        patterns = generator.generate(20_000)
        frequencies = patterns.mean(axis=0)
        assert np.allclose(frequencies, weights, atol=0.02)

    def test_degenerate_weights_zero_and_one(self):
        generator = WeightedPatternGenerator([0.0, 1.0], seed=1)
        patterns = generator.generate(500)
        assert not patterns[:, 0].any()
        assert patterns[:, 1].all()

    def test_stream_chunks_cover_request(self):
        generator = WeightedPatternGenerator([0.5], seed=5)
        chunks = list(generator.generate_stream(1000, chunk=256))
        assert sum(chunk.shape[0] for chunk in chunks) == 1000

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            WeightedPatternGenerator([0.5]).generate(-1)

    @given(weight=st.sampled_from([0.05, 0.25, 0.5, 0.8, 0.95]))
    @settings(max_examples=10, deadline=None)
    def test_lfsr_weighted_frequencies(self, weight):
        generator = LfsrWeightedPatternGenerator([weight], resolution=5, seed=97)
        patterns = generator.generate(4000)
        frequency = patterns.mean()
        realized = generator.realized_weights()[0]
        assert abs(realized - weight) <= 1.0 / 32 + 1e-12
        assert abs(frequency - realized) < 0.05

    def test_lfsr_weighted_resolution_validation(self):
        with pytest.raises(ValueError):
            LfsrWeightedPatternGenerator([0.5], resolution=0)


class TestMISR:
    def test_signature_deterministic(self):
        responses = np.array([[True, False], [False, True], [True, True]])
        assert MISR(8).compact(responses) == MISR(8).compact(responses)

    def test_signature_sensitive_to_single_bit_change(self):
        rng = np.random.default_rng(3)
        responses = rng.random((50, 4)) < 0.5
        reference = MISR(16).compact(responses)
        flipped = responses.copy()
        flipped[17, 2] = not flipped[17, 2]
        assert MISR(16).compact(flipped) != reference

    def test_width_must_hold_outputs(self):
        with pytest.raises(ValueError):
            MISR(2).compact(np.zeros((4, 3), dtype=bool))

    def test_golden_signature_matches_session(self):
        circuit = half_adder_circuit()
        session = SelfTestSession(circuit, n_patterns=64, seed=11)
        responses = reference_outputs(circuit, played_patterns(session))
        assert session.golden_signature() == MISR(session.misr_width).compact(responses)


class TestSelfTest:
    def test_fault_free_session_passes(self):
        circuit = comparator_circuit(width=4)
        session = SelfTestSession(circuit, n_patterns=128, seed=5)
        report = session.run()
        assert report.passed
        assert report.n_patterns == 128

    def test_injected_fault_changes_signature(self):
        circuit = comparator_circuit(width=4)
        session = SelfTestSession(circuit, n_patterns=256, seed=5)
        eq_output = circuit.net_index("a_eq_b")
        report = session.run(fault=Fault(eq_output, True))
        assert not report.passed

    def test_weight_length_validated(self):
        circuit = half_adder_circuit()
        with pytest.raises(ValueError):
            SelfTestSession(circuit, 10, weights=[0.5])

    def test_lfsr_backed_session_runs(self):
        circuit = half_adder_circuit()
        session = SelfTestSession(circuit, 64, weights=[0.75, 0.25], use_lfsr=True, seed=3)
        assert session.run().passed

    def test_weighted_patterns_detect_resistant_fault_sooner(self):
        """The headline BIST claim on a small comparator: a fault on the
        equality chain escapes a short equiprobable session but is caught by a
        session of the same length with equality-friendly weights."""
        circuit = comparator_circuit(width=12)
        eq_net = circuit.net_index("a_eq_b")
        fault = Fault(eq_net, False)  # a_eq_b stuck-at-0: needs A == B
        n_patterns = 200
        weights = [0.9] * circuit.n_inputs

        def detects(weights):
            return random_pattern_coverage(
                circuit, n_patterns, weights, faults=[fault], seed=3
            ).result.first_detection[0] >= 0

        assert not detects(None)
        assert detects(weights)
