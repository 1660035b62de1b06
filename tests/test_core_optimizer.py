"""Tests for the OPTIMIZE procedure (coordinate descent over input probabilities)."""

import numpy as np
import pytest

from repro.analysis import (
    BatchedCopEstimator,
    CopDetectionEstimator,
    MonteCarloDetectionEstimator,
    StafanDetectionEstimator,
)
from repro.circuit import CircuitBuilder
from repro.circuit.library import and_tree
from repro.circuits import c7552_like, comparator_circuit, resistant_circuit, s1_comparator
from repro.core import (
    WeightOptimizer,
    required_test_length,
)
from repro.faults import Fault, collapsed_fault_list

from .helpers import half_adder_circuit


def wide_and_circuit(width=8):
    """y = AND(x0..x{width-1}): the textbook random-pattern-resistant gate."""
    builder = CircuitBuilder(f"wide_and{width}")
    bus = builder.input_bus("x", width)
    builder.output(and_tree(builder, bus), "y")
    return builder.build()


class TestOptimizeWideAnd:
    def test_weights_pushed_high_but_not_to_one(self):
        """For a wide AND the optimum raises every input probability (to make
        the output-1 condition likely) but keeps it away from 1 so the
        stuck-at-1 input faults stay detectable (Lemma 2)."""
        circuit = wide_and_circuit(8)
        result = WeightOptimizer(circuit, confidence=0.999, max_sweeps=6).optimize()
        assert np.all(result.weights > 0.6)
        assert np.all(result.weights <= 0.95)
        assert result.test_length < result.initial_test_length

    def test_improvement_factor_consistent(self):
        circuit = wide_and_circuit(8)
        result = WeightOptimizer(circuit, max_sweeps=4).optimize()
        assert result.improvement_factor == pytest.approx(
            result.initial_test_length / result.test_length
        )


class TestOptimizeComparator:
    def test_test_length_shrinks_by_orders_of_magnitude(self):
        circuit = comparator_circuit(width=12)
        result = WeightOptimizer(circuit, confidence=0.999, max_sweeps=8).optimize()
        assert result.improvement_factor > 20
        # Verify the claim with an independent estimator evaluation.
        faults = collapsed_fault_list(circuit)
        probs = CopDetectionEstimator().detection_probabilities(
            circuit, faults, result.weights
        )
        recheck = required_test_length(probs, confidence=0.999)
        assert recheck.test_length <= result.test_length * 1.01

    def test_operand_pairs_drift_to_the_same_side(self):
        """The comparator's equality chain is helped when a_i and b_i agree, so
        the optimized weights of most bit pairs end up on the same side of 0.5."""
        width = 10
        circuit = comparator_circuit(width=width)
        result = WeightOptimizer(circuit, max_sweeps=8).optimize()
        a = result.weights[:width] - 0.5
        b = result.weights[width : 2 * width] - 0.5
        agreeing = int(np.sum(np.sign(a) == np.sign(b)))
        assert agreeing >= int(0.7 * width)


class TestOptimizerMechanics:
    def test_weights_respect_bounds_and_map(self):
        circuit = resistant_circuit(width=8, n_blocks=1)
        result = WeightOptimizer(circuit, bounds=(0.1, 0.9), max_sweeps=3).optimize()
        assert np.all(result.weights >= 0.1 - 1e-12)
        assert np.all(result.weights <= 0.9 + 1e-12)
        assert set(result.weight_map) == {
            circuit.net_name(net) for net in circuit.inputs
        }

    def test_quantized_weights_on_grid(self):
        circuit = wide_and_circuit(6)
        result = WeightOptimizer(circuit, max_sweeps=3).optimize()
        snapped = np.round(result.quantized_weights / 0.05) * 0.05
        assert np.allclose(snapped, result.quantized_weights)

    def test_history_starts_with_initial_length(self):
        circuit = wide_and_circuit(6)
        result = WeightOptimizer(circuit, max_sweeps=3).optimize()
        assert result.history[0] == result.initial_test_length
        assert len(result.history) == result.sweeps + 1
        assert result.test_length == min(result.history)

    def test_zero_sweeps_returns_initial_distribution(self):
        circuit = half_adder_circuit()
        optimizer = WeightOptimizer(circuit, max_sweeps=0)
        result = optimizer.optimize()
        assert result.sweeps == 0
        assert result.test_length == result.initial_test_length

    def test_disable_jitter_keeps_explicit_start(self):
        circuit = half_adder_circuit()
        optimizer = WeightOptimizer(circuit, max_sweeps=1)
        result = optimizer.optimize(initial_weights=[0.3, 0.7], jitter=0.0)
        # The reported initial length corresponds to the explicit start vector.
        probs = CopDetectionEstimator().detection_probabilities(
            circuit, optimizer.faults, np.array([0.3, 0.7])
        )
        assert result.initial_test_length == required_test_length(probs).test_length

    def test_restricted_fault_model_is_honoured(self):
        circuit = wide_and_circuit(6)
        faults = [Fault(net, stuck) for net in circuit.inputs for stuck in (False, True)]
        optimizer = WeightOptimizer(circuit, faults=faults, max_sweeps=2)
        result = optimizer.optimize()
        assert len(result.redundant_faults) == 0
        # Only input faults constrain the optimum; weights stay interior.
        assert np.all(result.weights < 0.96)

    def test_prepare_returns_cofactors(self):
        circuit = half_adder_circuit()
        optimizer = WeightOptimizer(circuit)
        weights = np.array([0.3, 0.6])
        p0, p1 = optimizer.prepare_sweep(weights, optimizer.faults)
        reference = CopDetectionEstimator()
        for i in range(circuit.n_inputs):
            for rows, value in ((p0, 0.0), (p1, 1.0)):
                pinned = weights.copy()
                pinned[i] = value
                direct = reference.detection_probabilities(circuit, optimizer.faults, pinned)
                assert np.allclose(rows[i], direct)

    @pytest.mark.parametrize("jitter", [0.1, 0.0])
    def test_estimator_calls_per_run(self, jitter):
        """One start batch (caller's and jittered distribution together),
        then one PREPARE and one candidate batch per sweep."""
        calls = []

        class CountingEstimator(BatchedCopEstimator):
            def detection_probabilities_batch(self, circuit, faults, weights, overrides=None):
                calls.append((np.asarray(weights).shape[0], len(faults)))
                return super().detection_probabilities_batch(
                    circuit, faults, weights, overrides
                )

        circuit = comparator_circuit(4)
        optimizer = WeightOptimizer(circuit, estimator=CountingEstimator(), max_sweeps=3)
        result = optimizer.optimize(jitter=jitter)
        assert len(calls) == 1 + 2 * result.sweeps
        assert calls[0] == (2 if jitter else 1, len(optimizer.faults))
        for prepare, candidates in zip(calls[1::2], calls[2::2]):
            assert prepare[0] == 2 * circuit.n_inputs
            assert prepare[1] < len(optimizer.faults)
            assert candidates == (
                len(optimizer.step_sizes) + optimizer.block_candidates,
                len(optimizer.faults),
            )

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            WeightOptimizer(half_adder_circuit(), confidence=1.0)

    def test_min_hard_fraction_validation(self):
        with pytest.raises(ValueError):
            WeightOptimizer(half_adder_circuit(), min_hard_fraction=2.0)

    @pytest.mark.parametrize(
        "estimator",
        [
            CopDetectionEstimator(),
            BatchedCopEstimator(),
            StafanDetectionEstimator(n_samples=1024),
            MonteCarloDetectionEstimator(n_samples=512, fixed_seed=True),
        ],
        ids=["cop_scalar", "cop_batched", "stafan", "montecarlo"],
    )
    def test_every_estimator_beats_the_conventional_test(self, estimator):
        circuit = s1_comparator(width=10)
        result = WeightOptimizer(
            circuit, faults=collapsed_fault_list(circuit), estimator=estimator, max_sweeps=4
        ).optimize()
        assert result.test_length < result.initial_test_length

    @pytest.mark.parametrize("min_fraction", [0.0, 0.1, 0.25, 0.5])
    def test_no_hard_fault_floor_lengthens_the_test(self, min_fraction):
        circuit = c7552_like(width=12, n_blocks=1)
        result = WeightOptimizer(
            circuit,
            faults=collapsed_fault_list(circuit),
            max_sweeps=6,
            min_hard_fraction=min_fraction,
            min_hard_faults=1,
        ).optimize()
        assert result.test_length <= result.initial_test_length

    def test_works_with_sampling_estimator(self):
        circuit = wide_and_circuit(5)
        estimator = MonteCarloDetectionEstimator(n_samples=512, fixed_seed=True)
        result = WeightOptimizer(circuit, estimator=estimator, max_sweeps=2).optimize()
        assert result.test_length <= result.initial_test_length
