"""Tests for fault simulation: compiled vs. legacy reference, dropping, coverage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import parse_bench
from repro.circuits import comparator_circuit
from repro.faults import Fault, FaultTable, collapsed_fault_list, full_fault_list
from repro.faultsim import (
    FaultSimResult,
    LegacyParallelFaultSimulator,
    ParallelFaultSimulator,
    random_pattern_coverage,
)

from .helpers import C17_BENCH, all_patterns, half_adder_circuit, random_circuit


def legacy_counts(circuit, faults, patterns):
    """Detecting-pattern count per fault by the per-fault legacy reference."""
    return LegacyParallelFaultSimulator(circuit, faults).detection_counts(
        np.asarray(patterns, dtype=bool)
    )


class TestLegacyReference:
    def test_stem_fault_changes_output(self):
        circuit = half_adder_circuit()
        carry = circuit.net_index("carry")
        fault = Fault(carry, False)  # carry stuck-at-0
        assert list(legacy_counts(circuit, [fault], [[True, True]])) == [1]
        assert list(legacy_counts(circuit, [fault], [[True, False]])) == [0]

    def test_input_stuck_at(self):
        circuit = half_adder_circuit()
        a = circuit.inputs[0]
        fault = Fault(a, True)  # a stuck-at-1
        assert list(legacy_counts(circuit, [fault], [[False, True]])) == [1]
        assert list(legacy_counts(circuit, [fault], [[True, True]])) == [0]

    def test_branch_fault_differs_from_stem(self):
        circuit = half_adder_circuit()
        a = circuit.inputs[0]
        and_gate = next(
            gi for gi, g in enumerate(circuit.gates) if g.gate_type.name == "AND"
        )
        faults = [Fault(a, True), Fault(a, True, gate=and_gate)]
        # The stem flips sum on both a=0 patterns; the AND branch only
        # reaches carry, and only when b=1.
        assert list(legacy_counts(circuit, faults, all_patterns(2))) == [2, 1]

    def test_detecting_pattern_count(self):
        circuit = half_adder_circuit()
        carry = circuit.net_index("carry")
        count = legacy_counts(circuit, [Fault(carry, True)], all_patterns(2))
        assert list(count) == [3]  # carry s-a-1 detected by every pattern except (1,1)


class TestParallelSimulator:
    def test_matches_legacy_on_c17_exhaustively(self):
        circuit = parse_bench(C17_BENCH, name="c17")
        faults = full_fault_list(circuit)
        patterns = all_patterns(circuit.n_inputs)
        counts = ParallelFaultSimulator(circuit, faults).detection_counts(patterns)
        assert np.array_equal(counts, legacy_counts(circuit, faults, patterns))

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_matches_legacy_on_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, n_inputs=4, n_gates=10)
        faults = list(collapsed_fault_list(circuit))[:20]
        patterns = all_patterns(circuit.n_inputs)
        counts = ParallelFaultSimulator(circuit, faults).detection_counts(patterns)
        assert np.array_equal(counts, legacy_counts(circuit, faults, patterns))

    def test_first_detection_index_is_earliest(self):
        circuit = half_adder_circuit()
        carry = circuit.net_index("carry")
        fault = Fault(carry, True)
        # Patterns: (1,1) does not detect carry s-a-1; (0,1) does.
        patterns = np.array([[True, True], [False, True], [False, False]])
        result = ParallelFaultSimulator(circuit, [fault]).run(patterns)
        assert result.first_detection.tolist() == [1]

    def test_detection_independent_of_batch_size(self):
        circuit = comparator_circuit(width=6)
        faults = collapsed_fault_list(circuit)
        rng = np.random.default_rng(5)
        patterns = rng.random((300, circuit.n_inputs)) < 0.5
        small = ParallelFaultSimulator(circuit, faults).run(patterns, batch_size=64)
        large = ParallelFaultSimulator(circuit, faults).run(patterns, batch_size=4096)
        assert np.array_equal(small.first_detection, large.first_detection)

    def test_drop_detected_false_keeps_faults(self):
        circuit = half_adder_circuit()
        faults = collapsed_fault_list(circuit)
        patterns = all_patterns(2)
        with_drop = ParallelFaultSimulator(circuit, faults).run(patterns, drop_detected=True)
        without_drop = ParallelFaultSimulator(circuit, faults).run(patterns, drop_detected=False)
        assert np.array_equal(with_drop.first_detection, without_drop.first_detection)

    def test_undetectable_fault_reported_undetected(self):
        # y = a OR (a AND b): the AND output stuck-at-0 is redundant.
        from .helpers import redundant_circuit

        circuit = redundant_circuit()
        inner = circuit.net_index("inner")
        fault = Fault(inner, False)
        result = ParallelFaultSimulator(circuit, [fault]).run(all_patterns(2))
        assert result.n_undetected == 1
        assert list(FaultTable.of([fault]).take(result.first_detection < 0)) == [fault]
        assert result.fault_coverage == 0.0

    def test_output_stem_fault_detected(self):
        circuit = half_adder_circuit()
        out = circuit.outputs[0]
        fault = Fault(out, True)
        result = ParallelFaultSimulator(circuit, [fault]).run(all_patterns(2))
        assert result.first_detection[0] >= 0

    def test_single_pattern_run(self):
        circuit = half_adder_circuit()
        fault = Fault(circuit.net_index("carry"), False)
        simulator = ParallelFaultSimulator(circuit, [fault])
        assert simulator.run(np.array([[True, True]])).first_detection[0] >= 0
        assert simulator.run(np.array([[False, False]])).first_detection[0] < 0


class TestFaultSimResult:
    def _result(self):
        circuit = comparator_circuit(width=4)
        rng = np.random.default_rng(11)
        patterns = rng.random((256, circuit.n_inputs)) < 0.5
        return ParallelFaultSimulator(circuit).run(patterns)

    def test_coverage_between_zero_and_one(self):
        result = self._result()
        assert 0.0 < result.fault_coverage <= 1.0
        n_faults = len(collapsed_fault_list(comparator_circuit(width=4)))
        n_detected = int((result.first_detection >= 0).sum())
        assert len(result.first_detection) == n_faults
        assert n_detected + result.n_undetected == n_faults
        assert result.fault_coverage == n_detected / n_faults

    def test_coverage_at_is_monotone(self):
        result = self._result()
        values = [result.coverage_at(n) for n in (1, 4, 16, 64, 256)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(result.fault_coverage)


class TestRandomPatternCoverage:
    def test_random_pattern_coverage_defaults_to_equiprobable(self):
        circuit = comparator_circuit(width=4)
        experiment = random_pattern_coverage(circuit, 512, seed=3)
        assert isinstance(experiment, FaultSimResult)
        weighted = random_pattern_coverage(circuit, 512, [0.5] * circuit.n_inputs, seed=3)
        assert experiment == weighted
        assert 0.5 < experiment.fault_coverage <= 1.0

    def test_weighted_coverage_not_worse_on_comparator(self):
        circuit = comparator_circuit(width=6)
        base = random_pattern_coverage(circuit, 512, seed=3)
        # Push operand bit pairs toward equality: helps the eq chain.
        weights = [0.85] * circuit.n_inputs
        weighted = random_pattern_coverage(circuit, 512, weights=weights, seed=3)
        assert weighted.fault_coverage >= base.fault_coverage - 0.02

    def test_coverage_at_last_pattern_is_final_coverage(self):
        circuit = comparator_circuit(width=4)
        experiment = random_pattern_coverage(circuit, 300, seed=9)
        assert experiment.n_patterns == 300
        assert experiment.coverage_at(300) == pytest.approx(experiment.fault_coverage)
        assert experiment.coverage_at(299) <= experiment.fault_coverage

    def test_reproducible_with_same_seed(self):
        circuit = comparator_circuit(width=4)
        first = random_pattern_coverage(circuit, 256, seed=21)
        second = random_pattern_coverage(circuit, 256, seed=21)
        assert np.array_equal(first.first_detection, second.first_detection)


class TestStreamingCoverage:
    """The streamed coverage path must be indistinguishable from materializing
    the full pattern matrix, and the early stop must honour its target."""

    def test_chunked_generator_stream_equals_one_shot_draw(self):
        from repro.patterns import WeightedPatternGenerator

        generator = WeightedPatternGenerator([0.3, 0.5, 0.9], seed=17)
        one_shot = generator.generate(1000)
        generator.reset()
        chunked = np.vstack(list(generator.generate_stream(1000, chunk=173)))
        assert np.array_equal(one_shot, chunked)

    def test_non_positive_chunk_rejected(self):
        from repro.patterns import WeightedPatternGenerator

        generator = WeightedPatternGenerator([0.5], seed=1)
        with pytest.raises(ValueError):
            list(generator.generate_stream(100, chunk=0))
        circuit = half_adder_circuit()
        with pytest.raises(ValueError):
            random_pattern_coverage(circuit, 100, chunk_size=0)

    @pytest.mark.parametrize("chunk_size", [37, 256, 4096])
    def test_stream_matches_materialized_run(self, chunk_size):
        from repro.patterns import WeightedPatternGenerator

        circuit = comparator_circuit(width=6)
        faults = collapsed_fault_list(circuit)
        generator = WeightedPatternGenerator([0.5] * circuit.n_inputs, seed=21)
        patterns = generator.generate(600)
        materialized = ParallelFaultSimulator(circuit, faults).run(
            patterns, batch_size=128
        )
        generator.reset()
        streamed = ParallelFaultSimulator(circuit, faults).run_stream(
            generator.generate_stream(600, chunk=chunk_size), batch_size=128
        )
        assert np.array_equal(streamed.first_detection, materialized.first_detection)
        assert streamed.n_patterns == materialized.n_patterns == 600

    @pytest.mark.parametrize("chunk_size", [100, 2048])
    def test_random_pattern_coverage_identical_across_chunk_sizes(self, chunk_size):
        circuit = comparator_circuit(width=6)
        baseline = random_pattern_coverage(circuit, 512, seed=3)
        chunked = random_pattern_coverage(circuit, 512, seed=3, chunk_size=chunk_size)
        assert np.array_equal(chunked.first_detection, baseline.first_detection)
        assert chunked.fault_coverage == baseline.fault_coverage
        assert chunked.n_patterns == baseline.n_patterns == 512

    def test_full_stream_consumed_even_after_all_faults_detected(self):
        # Every fault of the half adder is detected by the first four
        # patterns; without an explicit target the stream must still be
        # consumed so n_patterns matches the materialized path.
        circuit = half_adder_circuit()
        experiment = random_pattern_coverage(circuit, 512, seed=1, chunk_size=64)
        assert experiment.fault_coverage == 1.0
        assert experiment.n_patterns == 512

    def test_target_coverage_stops_early(self):
        circuit = comparator_circuit(width=6)
        full = random_pattern_coverage(circuit, 2048, seed=3, chunk_size=128)
        assert full.fault_coverage > 0.8
        early = random_pattern_coverage(
            circuit, 2048, seed=3, chunk_size=128, target_coverage=0.8
        )
        assert early.fault_coverage >= 0.8
        assert early.n_patterns < full.n_patterns
        assert early.n_patterns % 128 == 0  # stops at a chunk boundary
        # The patterns that were applied saw identical detection indices.
        detected = early.first_detection >= 0
        assert np.array_equal(early.first_detection[detected], full.first_detection[detected])

    def test_unreachable_target_consumes_whole_stream(self):
        from .helpers import redundant_circuit

        circuit = redundant_circuit()
        faults = collapsed_fault_list(circuit)
        experiment = random_pattern_coverage(
            circuit, 256, faults=faults, seed=5, chunk_size=64, target_coverage=1.0
        )
        assert experiment.fault_coverage < 1.0
        assert experiment.n_patterns == 256

    def test_target_reached_in_first_chunk(self):
        circuit = half_adder_circuit()
        experiment = random_pattern_coverage(
            circuit, 4096, seed=1, chunk_size=32, target_coverage=1.0
        )
        assert experiment.fault_coverage == 1.0
        assert experiment.n_patterns == 32
