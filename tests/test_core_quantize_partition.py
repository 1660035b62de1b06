"""Tests for weight quantization and the multi-distribution extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder
from repro.circuit.library import and_tree
from repro.analysis import CopDetectionEstimator
from repro.circuits import s1_comparator
from repro.core import (
    optimize_input_probabilities,
    quantization_error,
    quantize_to_lfsr_grid,
    quantize_weights,
    required_test_length,
)
from repro.faults import collapsed_fault_list
from repro.wrp import build_weight_sets


class TestQuantizeWeights:
    def test_snaps_to_decimal_grid(self):
        snapped = quantize_weights([0.512, 0.338, 0.07], step=0.05)
        assert np.allclose(snapped, [0.5, 0.35, 0.05])

    def test_clips_to_bounds(self):
        snapped = quantize_weights([0.001, 0.999], step=0.05, bounds=(0.05, 0.95))
        assert np.allclose(snapped, [0.05, 0.95])

    @given(weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
    @settings(max_examples=80)
    def test_error_bounded_by_half_step_inside_bounds(self, weights):
        snapped = quantize_weights(weights, step=0.05, bounds=(0.0, 1.0))
        assert quantization_error(weights, snapped) <= 0.025 + 1e-12
        assert np.all(np.isclose(np.round(snapped / 0.05) * 0.05, snapped))

    def test_step_validation(self):
        with pytest.raises(ValueError):
            quantize_weights([0.5], step=0.0)
        with pytest.raises(ValueError):
            quantize_weights([0.5], step=0.05, bounds=(0.9, 0.1))

    def test_grid_values_are_exact_decimals(self):
        """Snapping must not leak binary FP drift: 7 * 0.05 alone is
        0.35000000000000003, but the appendix grid value is exactly 0.35."""
        snapped = quantize_weights([0.34, 0.36, 0.349, 0.351], step=0.05)
        assert snapped.tolist() == [0.35, 0.35, 0.35, 0.35]
        grid = {round(k * 0.05, 12) for k in range(1, 20)}
        weights = np.linspace(0.0, 1.0, 101)
        for value in quantize_weights(weights, step=0.05):
            assert value in grid, value

    def test_exactness_on_tenth_grid(self):
        snapped = quantize_weights([0.29, 0.31, 0.69], step=0.1, bounds=(0.1, 0.9))
        assert snapped.tolist() == [0.3, 0.3, 0.7]

    def test_non_decimal_steps_stay_on_the_binary_grid(self):
        """The decimal snap must not perturb grids whose points are not
        short decimals: for step = 1/3 the grid value is exactly 2 * step."""
        snapped = quantize_weights([0.6667], step=1.0 / 3.0, bounds=(0.0, 1.0))
        assert snapped[0] == 2.0 * (1.0 / 3.0)


class TestLfsrGrid:
    def test_grid_resolution(self):
        snapped = quantize_to_lfsr_grid([0.3, 0.62], resolution=3)
        assert np.allclose(snapped * 8, np.round(snapped * 8))

    def test_interior_is_preserved(self):
        snapped = quantize_to_lfsr_grid([0.0, 1.0], resolution=4)
        assert snapped[0] == pytest.approx(1.0 / 16)
        assert snapped[1] == pytest.approx(15.0 / 16)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            quantize_to_lfsr_grid([0.5], resolution=0)

    def test_quantization_error_length_check(self):
        with pytest.raises(ValueError):
            quantization_error([0.5], [0.5, 0.6])


class TestQuantizedOptimum:
    """The paper's 0.05 grid keeps the optimization on S1, and even the coarse
    1/8 LFSR grid beats the conventional test."""

    @pytest.fixture(scope="class")
    def lengths(self):
        circuit = s1_comparator(width=12)
        faults = collapsed_fault_list(circuit)
        result = optimize_input_probabilities(circuit, faults=faults, max_sweeps=8)
        grids = {
            "continuous": result.weights,
            "grid_0p05": quantize_weights(result.weights, step=0.05),
            "lfsr_1_8": quantize_to_lfsr_grid(result.weights, resolution=3),
            "conventional": [0.5] * circuit.n_inputs,
        }
        estimator = CopDetectionEstimator()
        return {
            label: required_test_length(
                estimator.detection_probabilities(circuit, faults, weights)
            ).test_length
            for label, weights in grids.items()
        }

    @pytest.mark.parametrize(
        "grid, reference, factor",
        [
            ("grid_0p05", "conventional", 0.1),
            ("grid_0p05", "continuous", 20.0),
            ("lfsr_1_8", "conventional", 1.0),
        ],
    )
    def test_grid_keeps_the_optimization(self, lengths, grid, reference, factor):
        assert lengths[grid] < factor * lengths[reference], lengths


def conflicting_detectors_circuit(width=10, either=False):
    """Two wide detectors demanding opposite values on the same bus — the
    section 5.3 pathological case (optionally with their XOR as a third
    output)."""
    builder = CircuitBuilder(f"conflict{width}")
    bus = builder.input_bus("x", width)
    all_ones = and_tree(builder, bus)
    all_zeros = and_tree(builder, [builder.not_(b) for b in bus])
    builder.output(all_ones, "all_ones")
    builder.output(all_zeros, "all_zeros")
    if either:
        builder.output(builder.xor(all_ones, all_zeros), "either")
    return builder.build()


class TestPartitioning:
    """:func:`repro.wrp.build_weight_sets` is the section 5.3 method."""

    @pytest.mark.parametrize(
        "width, either, max_sweeps", [(10, False, 5), (12, True, 6)]
    )
    def test_partitioned_beats_single_distribution_on_conflict(
        self, width, either, max_sweeps
    ):
        circuit = conflicting_detectors_circuit(width, either)
        faults = collapsed_fault_list(circuit)
        single = optimize_input_probabilities(circuit, faults=faults, max_sweeps=max_sweeps)
        sets = build_weight_sets(circuit, faults=faults, k=2, max_sweeps=max_sweeps)
        assert sets.k == 2
        assert sets.single_set_length == single.test_length
        assert sets.multi_set_length < single.test_length

    def test_sessions_cover_all_faults(self):
        circuit = conflicting_detectors_circuit(8)
        faults = collapsed_fault_list(circuit)
        sets = build_weight_sets(circuit, faults=faults, k=3, max_sweeps=3)
        covered = [i for entry in sets.sets for i in entry.fault_indices]
        covered += list(sets.redundant_indices)
        assert sorted(covered) == list(range(len(faults)))

    def test_single_session_when_one_distribution_suffices(self):
        """A circuit without conflicting hard faults does not benefit from
        more sets; they may still split it, but the schedule must not
        explode relative to the single-distribution test."""
        builder = CircuitBuilder("friendly")
        bus = builder.input_bus("x", 6)
        builder.output(and_tree(builder, bus), "y")
        sets = build_weight_sets(builder.build(), k=2, max_sweeps=3)
        assert sets.multi_set_length <= 3 * sets.single_set_length

    def test_session_lengths_positive(self):
        sets = build_weight_sets(conflicting_detectors_circuit(8), k=2, max_sweeps=3)
        for entry in sets.sets:
            assert entry.test_length >= 1
            assert len(entry.fault_indices) > 0
