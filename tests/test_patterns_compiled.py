"""Differential tests: compiled BIST substrate vs. the scalar reference classes.

The compiled substrate (:mod:`repro.patterns.compiled`) must be **bit
identical** to the scalar LFSR / weighting network / MISR for the same
widths, taps and seeds — on synthetic streams and on all twelve registry
circuits — and :class:`repro.patterns.SelfTestSession` must produce its
faulty responses from the compiled fault-simulation engine, never from the
per-pattern interpreted loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder
from repro.circuits import comparator_circuit
from repro.circuits.registry import paper_suite
from repro.faults import collapsed_fault_list
from repro.patterns import (
    LFSR,
    MISR,
    CompiledLFSR,
    CompiledLfsrWeightedPatternGenerator,
    CompiledMISR,
    LfsrWeightedPatternGenerator,
    SelfTestSession,
    default_misr_width,
    pack_response_words,
)

from .helpers import half_adder_circuit, played_patterns, reference_outputs

#: Circuits are instantiated once per module; the registry builds are pure.
_SUITE = {entry.key: entry.instantiate() for entry in paper_suite()}


# --------------------------------------------------------------------------- #
# LFSR
# --------------------------------------------------------------------------- #
class TestCompiledLFSR:
    @pytest.mark.parametrize("width", [2, 3, 5, 8, 12, 16, 24, 32, 48, 64])
    def test_bit_stream_matches_scalar(self, width):
        scalar = LFSR(width)
        compiled = CompiledLFSR(width)
        assert np.array_equal(
            np.asarray(scalar.bits(500), dtype=np.uint8), compiled.bit_block(500)
        )
        assert scalar.state == compiled.state

    def test_stream_continues_across_blocks(self):
        scalar = LFSR(16, seed=0xACE1)
        compiled = CompiledLFSR(16, seed=0xACE1, lanes=29)
        for count in (1, 7, 64, 300, 29):
            assert np.array_equal(
                np.asarray(scalar.bits(count), dtype=np.uint8),
                compiled.bit_block(count),
            ), count
            assert scalar.state == compiled.state

    def test_explicit_taps_match_scalar(self):
        taps = (27, 26, 25, 22)
        scalar = LFSR(27, taps=taps, seed=123)
        compiled = CompiledLFSR(27, taps=taps, seed=123)
        assert np.array_equal(
            np.asarray(scalar.bits(400), dtype=np.uint8), compiled.bit_block(400)
        )

    def test_patterns_match_scalar(self):
        scalar = LFSR(24)
        compiled = CompiledLFSR(24, lanes=13)
        assert np.array_equal(scalar.patterns(17, 9), compiled.patterns(17, 9))

    def test_reset_reproduces_block(self):
        compiled = CompiledLFSR(20, seed=77)
        first = compiled.bit_block(333)
        compiled.reset()
        assert np.array_equal(compiled.bit_block(333), first)

    def test_scalar_step_interoperates_with_blocks(self):
        scalar = LFSR(12, seed=9)
        compiled = CompiledLFSR(12, seed=9)
        assert [compiled.step() for _ in range(5)] == scalar.bits(5)
        assert np.array_equal(
            np.asarray(scalar.bits(100), dtype=np.uint8), compiled.bit_block(100)
        )

    def test_validation_mirrors_scalar(self):
        with pytest.raises(ValueError):
            CompiledLFSR(8, seed=0)
        with pytest.raises(ValueError):
            CompiledLFSR(27)  # untabulated width needs explicit taps
        with pytest.raises(ValueError):
            CompiledLFSR(8, taps=(9,))
        with pytest.raises(ValueError):
            CompiledLFSR(1)
        with pytest.raises(ValueError):
            CompiledLFSR(80)  # beyond uint64 state packing

    def test_empty_and_negative_counts(self):
        compiled = CompiledLFSR(8)
        assert compiled.bit_block(0).size == 0
        with pytest.raises(ValueError):
            compiled.bit_block(-1)

    @given(seed=st.integers(1, (1 << 32) - 1), lanes=st.integers(1, 100))
    @settings(max_examples=20, deadline=None)
    def test_lane_count_never_changes_the_stream(self, seed, lanes):
        reference = CompiledLFSR(32, seed=seed).bit_block(257)
        assert np.array_equal(
            CompiledLFSR(32, seed=seed, lanes=lanes).bit_block(257), reference
        )


# --------------------------------------------------------------------------- #
# Weighting network
# --------------------------------------------------------------------------- #
class TestCompiledWeightedGenerator:
    @pytest.mark.parametrize("key", sorted(_SUITE))
    def test_patterns_match_scalar_on_registry_circuits(self, key):
        circuit = _SUITE[key]
        rng = np.random.default_rng(hash(key) & 0xFFFF)
        weights = rng.integers(1, 32, circuit.n_inputs) / 32.0
        scalar = LfsrWeightedPatternGenerator(weights, seed=1987)
        compiled = CompiledLfsrWeightedPatternGenerator(weights, seed=1987)
        assert np.array_equal(scalar.generate(64), compiled.generate(64))
        # The stream continues identically across generate calls.
        assert np.array_equal(scalar.generate(16), compiled.generate(16))

    def test_generate_stream_covers_request(self):
        compiled = CompiledLfsrWeightedPatternGenerator([0.5, 0.25], seed=5)
        chunks = list(compiled.generate_stream(300, chunk=128))
        assert sum(chunk.shape[0] for chunk in chunks) == 300
        compiled.reset()
        assert np.array_equal(np.vstack(chunks), compiled.generate(300))

    def test_scalar_generator_has_the_same_stream_api(self):
        """The scalar reference is drop-in interchangeable with the compiled
        generator: same generate_stream/reset surface, identical chunks."""
        scalar = LfsrWeightedPatternGenerator([0.5, 0.25], seed=5)
        compiled = CompiledLfsrWeightedPatternGenerator([0.5, 0.25], seed=5)
        for a, b in zip(
            scalar.generate_stream(300, chunk=128),
            compiled.generate_stream(300, chunk=128),
        ):
            assert np.array_equal(a, b)
        scalar.reset()
        compiled.reset()
        assert np.array_equal(scalar.generate(40), compiled.generate(40))

    def test_endpoint_weights_clamped_to_interior_grid(self):
        """A weight quantizing to 0 or 2**resolution would pin the input to a
        constant and make its stuck-at fault untestable (paper Lemma 2)."""
        for cls in (LfsrWeightedPatternGenerator, CompiledLfsrWeightedPatternGenerator):
            generator = cls([0.0, 0.009, 0.991, 1.0], resolution=5)
            assert generator.thresholds.tolist() == [1, 1, 31, 31]
            realized = generator.realized_weights()
            assert np.all(realized >= 1.0 / 32)
            assert np.all(realized <= 31.0 / 32)

    def test_clamped_weights_match_lfsr_grid_quantization(self):
        from repro.core import quantize_to_lfsr_grid

        weights = [0.0, 0.01, 0.5, 0.99, 1.0]
        generator = LfsrWeightedPatternGenerator(weights, resolution=5)
        np.testing.assert_array_equal(
            generator.realized_weights(),
            quantize_to_lfsr_grid(weights, resolution=5, keep_interior=True),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            CompiledLfsrWeightedPatternGenerator([0.5], resolution=0)
        with pytest.raises(ValueError):
            CompiledLfsrWeightedPatternGenerator([1.5])
        with pytest.raises(ValueError):
            CompiledLfsrWeightedPatternGenerator([0.5]).generate(-1)


# --------------------------------------------------------------------------- #
# MISR
# --------------------------------------------------------------------------- #
class TestCompiledMISR:
    @pytest.mark.parametrize("width,n_outputs", [(2, 2), (4, 3), (8, 8), (16, 11), (32, 32), (48, 33), (64, 64)])
    def test_signature_matches_scalar(self, width, n_outputs):
        rng = np.random.default_rng(width * 100 + n_outputs)
        responses = rng.random((501, n_outputs)) < 0.5
        for seed in (0, 1, 0x5A5A):
            assert MISR(width, seed=seed).compact(responses) == CompiledMISR(
                width, seed=seed
            ).compact(responses)

    def test_long_streams_exercise_the_blocked_fold(self):
        """Streams longer than the lane cap take the block > 1 path of
        compact_words (sequential lane fold + block-scaled tree spans);
        signatures must stay bit-identical to the scalar register there."""
        from repro.patterns.compiled import _MISR_LANES

        rng = np.random.default_rng(42)
        for rows in (_MISR_LANES + 1, 2 * _MISR_LANES, 3 * _MISR_LANES + 7):
            responses = rng.random((rows, 8)) < 0.5
            assert MISR(16, seed=3).compact(responses) == CompiledMISR(
                16, seed=3
            ).compact(responses), rows

    def test_state_continues_across_compact_calls(self):
        rng = np.random.default_rng(3)
        scalar, compiled = MISR(16), CompiledMISR(16)
        for rows in (1, 2, 63, 64, 65, 200):
            responses = rng.random((rows, 5)) < 0.5
            assert scalar.compact(responses) == compiled.compact(responses)
            assert scalar.signature == compiled.signature

    def test_explicit_taps_match_scalar(self):
        rng = np.random.default_rng(9)
        responses = rng.random((100, 4)) < 0.5
        taps = (8, 4, 3, 2)
        assert MISR(8, taps=taps).compact(responses) == CompiledMISR(
            8, taps=taps
        ).compact(responses)

    def test_empty_response_matrix_is_identity(self):
        compiled = CompiledMISR(8, seed=0x42)
        assert compiled.compact(np.zeros((0, 3), dtype=bool)) == 0x42

    def test_width_must_hold_outputs(self):
        with pytest.raises(ValueError):
            CompiledMISR(2).compact(np.zeros((4, 3), dtype=bool))

    def test_pack_response_words_is_little_endian(self):
        responses = np.array([[True, False, True], [False, True, False]])
        assert pack_response_words(responses).tolist() == [0b101, 0b010]
        with pytest.raises(ValueError):
            pack_response_words(np.zeros((2, 65), dtype=bool))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            CompiledMISR(1)
        with pytest.raises(ValueError):
            CompiledMISR(80)

    def test_out_of_range_taps_rejected_by_both_classes(self):
        """The scalar and compiled registers share one tap resolver — a tap
        beyond the register width is an error, never a silently degenerate
        (non-primitive) feedback polynomial."""
        for cls in (MISR, CompiledMISR):
            with pytest.raises(ValueError, match="1..8"):
                cls(8, taps=(9, 3))


# --------------------------------------------------------------------------- #
# Golden signatures and the self-test session on the registry suite
# --------------------------------------------------------------------------- #
class TestGoldenSignatures:
    @pytest.mark.parametrize("key", sorted(_SUITE))
    def test_golden_signature_matches_scalar_misr(self, key):
        """End-to-end: the session's compiled simulation, word packing and
        compiled MISR equal the scalar per-bit compaction of the reference
        walk's responses."""
        circuit = _SUITE[key]
        session = SelfTestSession(circuit, n_patterns=96, seed=11)
        responses = reference_outputs(circuit, played_patterns(session))
        width = default_misr_width(circuit.n_outputs)
        assert session.golden_signature() == MISR(width).compact(responses)

    def test_width_overflow_raises_clear_error(self):
        builder = CircuitBuilder("wide")
        a = builder.input("a")
        for k in range(65):
            builder.output(builder.not_(a, name=f"n{k}"), f"o{k}")
        circuit = builder.build()
        assert circuit.n_outputs == 65
        with pytest.raises(ValueError, match="64"):
            default_misr_width(circuit.n_outputs)
        with pytest.raises(ValueError, match="misr_width"):
            SelfTestSession(circuit, n_patterns=4)
        # The escape hatch: explicit width + taps of a primitive polynomial.
        session = SelfTestSession(
            circuit, n_patterns=4, misr_width=65, misr_taps=(65, 47)
        )
        assert session.run().passed


class TestSelfTestSessionCompiled:
    def test_faulty_signatures_match_reference(self):
        # Longer than one 4096-row chunk: the faulty register runs on across
        # the chunk boundary of the streamed pass.
        circuit = comparator_circuit(width=4)
        session = SelfTestSession(circuit, n_patterns=5000, seed=5)
        patterns = played_patterns(session)
        for fault in list(collapsed_fault_list(circuit))[::9]:
            expected = MISR(session.misr_width).compact(
                reference_outputs(circuit, patterns, fault)
            )
            assert session.run(fault).signature == expected, fault.describe(circuit)

    def test_each_faulty_run_is_one_pass(self, monkeypatch):
        from repro.simulation.compiled import CompiledCircuit

        calls = {"count": 0}
        original = CompiledCircuit.simulate_words

        def counting(self, words):
            calls["count"] += 1
            return original(self, words)

        monkeypatch.setattr(CompiledCircuit, "simulate_words", counting)
        circuit = comparator_circuit(width=4)
        faults = collapsed_fault_list(circuit)
        session = SelfTestSession(circuit, n_patterns=64, seed=5)
        session.run(fault=faults[0])
        session.run(fault=faults[1])
        session.run()
        assert session.golden_signature() == session.run().golden_signature
        # The first faulty pass also yields the golden signature, the second
        # replays the stream once more, and fault-free runs replay nothing.
        assert calls["count"] == 2

    def test_lfsr_session_uses_compiled_generator(self):
        circuit = half_adder_circuit()
        session = SelfTestSession(
            circuit, 64, weights=[0.75, 0.25], use_lfsr=True, seed=3
        )
        scalar = LfsrWeightedPatternGenerator([0.75, 0.25], seed=3)
        (generator, n_patterns), = session.sources
        assert n_patterns == 64
        assert isinstance(generator, CompiledLfsrWeightedPatternGenerator)
        assert np.array_equal(played_patterns(session), scalar.generate(64))
        assert session.run().passed

    def test_injected_fault_detected_on_divider_class_circuit(self):
        circuit = _SUITE["s2"]
        faults = collapsed_fault_list(circuit)
        session = SelfTestSession(circuit, n_patterns=128, seed=7)
        report = session.run(fault=faults[3])
        assert report.golden_signature == session.golden_signature()
        assert isinstance(report.signature, int)
