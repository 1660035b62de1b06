"""End-to-end integration tests: the full optimize -> simulate -> verify flow.

These tests exercise the same pipeline as the paper's evaluation (analysis,
optimization, weighted pattern generation, fault simulation) on scaled-down
circuits, asserting the *qualitative* results the paper reports: weighting
raises fault coverage and shrinks the required test length on random-pattern
resistant circuits, and a BIST session built from the optimized weights
catches the faults a conventional session misses.
"""

import numpy as np
import pytest

from repro import (
    CopDetectionEstimator,
    WeightOptimizer,
    collapsed_fault_list,
    random_pattern_coverage,
    required_test_length,
)
from repro.analysis import remove_redundant
from repro.circuits import comparator_circuit, divider_circuit, resistant_circuit
from repro.patterns import WeightedPatternGenerator
from repro.faultsim import ParallelFaultSimulator


@pytest.fixture(scope="module")
def comparator_setup():
    circuit = comparator_circuit(width=12)
    faults = collapsed_fault_list(circuit)
    result = WeightOptimizer(circuit, faults=faults, confidence=0.999, max_sweeps=8).optimize()
    return circuit, faults, result


class TestComparatorEndToEnd:
    def test_optimization_shrinks_estimated_test_length(self, comparator_setup):
        _, _, result = comparator_setup
        assert result.improvement_factor > 20

    def test_optimized_coverage_beats_conventional(self, comparator_setup):
        circuit, faults, result = comparator_setup
        n_patterns = 3_000
        conventional = random_pattern_coverage(circuit, n_patterns, faults=faults, seed=1987)
        optimized = random_pattern_coverage(
            circuit, n_patterns, weights=result.quantized_weights, faults=faults, seed=1987
        )
        assert optimized.fault_coverage > conventional.fault_coverage
        assert optimized.fault_coverage > 0.97
        assert conventional.fault_coverage < 0.97

    def test_estimated_length_is_consistent_with_simulation(self, comparator_setup):
        """Applying roughly the estimated optimized test length must give very
        high simulated coverage (the estimate is meant to be conservative)."""
        circuit, faults, result = comparator_setup
        budget = min(int(result.test_length), 20_000)
        coverage = random_pattern_coverage(
            circuit, budget, weights=result.quantized_weights, faults=faults, seed=7
        )
        assert coverage.fault_coverage > 0.98

    def test_weight_map_round_trips_into_generator(self, comparator_setup):
        circuit, _, result = comparator_setup
        ordered = [result.weight_map[circuit.net_name(net)] for net in circuit.inputs]
        generator = WeightedPatternGenerator(ordered, seed=3)
        patterns = generator.generate(2_000)
        frequencies = patterns.mean(axis=0)
        assert np.allclose(frequencies, ordered, atol=0.06)


class TestResistantCircuitEndToEnd:
    def test_hard_faults_become_detectable(self):
        circuit = resistant_circuit(width=10, n_blocks=1)
        faults = remove_redundant(circuit, collapsed_fault_list(circuit))
        estimator = CopDetectionEstimator()
        before = estimator.detection_probabilities(circuit, faults, [0.5] * circuit.n_inputs)
        result = WeightOptimizer(circuit, faults=faults, max_sweeps=6).optimize()
        after = estimator.detection_probabilities(circuit, faults, result.weights)
        # The hardest fault's detection probability improves by a large factor.
        assert after[np.argmin(before)] > 10 * before.min()
        assert required_test_length(after).test_length < required_test_length(before).test_length

    def test_simulated_detection_of_the_hardest_fault(self):
        circuit = resistant_circuit(width=10, n_blocks=1)
        faults = remove_redundant(circuit, collapsed_fault_list(circuit))
        estimator = CopDetectionEstimator()
        probs = estimator.detection_probabilities(circuit, faults, [0.5] * circuit.n_inputs)
        hardest = faults[int(np.argmin(probs))]
        result = WeightOptimizer(circuit, faults=faults, max_sweeps=6).optimize()
        generator = WeightedPatternGenerator(result.quantized_weights, seed=11)
        sim = ParallelFaultSimulator(circuit, [hardest])
        outcome = sim.run(generator.generate(4_000))
        assert outcome.first_detection[0] >= 0


class TestDividerEndToEnd:
    def test_divider_optimization_improves_coverage(self):
        circuit = divider_circuit(width=6)
        faults = collapsed_fault_list(circuit)
        result = WeightOptimizer(circuit, faults=faults, max_sweeps=6).optimize()
        n_patterns = 1_500
        conventional = random_pattern_coverage(circuit, n_patterns, faults=faults, seed=5)
        optimized = random_pattern_coverage(
            circuit, n_patterns, weights=result.quantized_weights, faults=faults, seed=5
        )
        assert result.test_length <= result.initial_test_length
        assert optimized.fault_coverage >= conventional.fault_coverage - 0.01
