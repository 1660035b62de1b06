"""Tests for observability propagation and detection-probability estimation."""

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.analysis import (
    CopDetectionEstimator,
    DetectionProbabilityEstimator,
    ExactDetectionEstimator,
    MonteCarloDetectionEstimator,
    StafanDetectionEstimator,
    detection_probabilities,
    exact_detection_probability,
    observabilities,
    proven_redundant,
    remove_redundant,
    signal_probabilities,
)
from repro.circuit import CircuitBuilder, parse_bench
from repro.circuits import s1_comparator
from repro.circuits.registry import build_circuit, circuit_keys
from repro.faults import Fault, collapsed_fault_list, full_fault_list

from .helpers import C17_BENCH, and_or_tree_circuit, half_adder_circuit, redundant_circuit


class TestObservability:
    def test_primary_output_fully_observable(self):
        circuit = half_adder_circuit()
        probs = signal_probabilities(circuit, 0.5)
        obs = observabilities(circuit, probs)
        for out in circuit.outputs:
            assert obs.net[out] == pytest.approx(1.0)

    def test_and_gate_side_input_rule(self):
        builder = CircuitBuilder("and2")
        a = builder.input("a")
        b = builder.input("b")
        builder.output(builder.and_(a, b), "y")
        circuit = builder.build()
        probs = signal_probabilities(circuit, [0.5, 0.25])
        obs = observabilities(circuit, probs)
        # a is observable only when b = 1.
        assert obs.net[a] == pytest.approx(0.25)
        assert obs.net[b] == pytest.approx(0.5)

    def test_or_gate_side_input_rule(self):
        builder = CircuitBuilder("or2")
        a = builder.input("a")
        b = builder.input("b")
        builder.output(builder.or_(a, b), "y")
        circuit = builder.build()
        probs = signal_probabilities(circuit, [0.5, 0.25])
        obs = observabilities(circuit, probs)
        assert obs.net[a] == pytest.approx(0.75)

    def test_xor_and_inverter_are_transparent(self):
        builder = CircuitBuilder("xor_chain")
        a = builder.input("a")
        b = builder.input("b")
        builder.output(builder.not_(builder.xor(a, b)), "y")
        circuit = builder.build()
        obs = observabilities(circuit, signal_probabilities(circuit, 0.5))
        assert obs.net[a] == pytest.approx(1.0)

    def test_fanout_stem_combines_branches(self):
        circuit = half_adder_circuit()
        probs = signal_probabilities(circuit, 0.5)
        obs = observabilities(circuit, probs)
        a = circuit.inputs[0]
        # Through XOR: observability 1; through AND: 0.5; combined >= max.
        assert obs.net[a] >= 1.0 - 1e-12

    def test_pin_observabilities_exposed(self):
        circuit = and_or_tree_circuit()
        obs = observabilities(circuit, signal_probabilities(circuit, 0.5))
        assert len(obs.pin) == sum(g.arity for g in circuit.gates)

    def test_shape_validation(self):
        circuit = half_adder_circuit()
        with pytest.raises(ValueError):
            observabilities(circuit, np.zeros(3))


class TestCopDetection:
    def test_matches_exact_on_fanout_free_circuit(self):
        circuit = and_or_tree_circuit()
        faults = full_fault_list(circuit, include_branches=False)
        estimated = detection_probabilities(circuit, faults, 0.5)
        for fault, value in zip(faults, estimated):
            exact = exact_detection_probability(circuit, fault, 0.5)
            assert value == pytest.approx(exact), fault.describe(circuit)

    def test_weighted_inputs_change_probabilities(self):
        circuit = and_or_tree_circuit()
        faults = [Fault(net, stuck) for net in circuit.inputs for stuck in (False, True)]
        balanced = detection_probabilities(circuit, faults, 0.5)
        skewed = detection_probabilities(circuit, faults, [0.9, 0.9, 0.1, 0.1])
        assert not np.allclose(balanced, skewed)

    def test_branch_fault_uses_pin_observability(self):
        circuit = half_adder_circuit()
        a = circuit.inputs[0]
        and_gate = next(gi for gi, g in enumerate(circuit.gates) if g.gate_type.name == "AND")
        xor_gate = next(gi for gi, g in enumerate(circuit.gates) if g.gate_type.name == "XOR")
        p_and = detection_probabilities(circuit, [Fault(a, False, gate=and_gate)], 0.5)[0]
        p_xor = detection_probabilities(circuit, [Fault(a, False, gate=xor_gate)], 0.5)[0]
        # Through the AND the side input must be 1 (prob 0.5); through the XOR
        # the effect always propagates.
        assert p_and == pytest.approx(0.25)
        assert p_xor == pytest.approx(0.5)

    def test_probabilities_lie_in_unit_interval(self):
        circuit = parse_bench(C17_BENCH, name="c17")
        faults = collapsed_fault_list(circuit)
        values = detection_probabilities(circuit, faults, 0.5)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_clamp_floor_applies_only_to_nonzero(self):
        circuit = redundant_circuit()
        faults = full_fault_list(circuit)
        estimator = CopDetectionEstimator(clamp=1e-3)
        values = estimator.detection_probabilities(circuit, faults, [0.5, 0.5])
        nonzero = values[values > 0]
        assert np.all(nonzero >= 1e-3)

    def test_clamp_validation(self):
        with pytest.raises(ValueError):
            CopDetectionEstimator(clamp=1.5)

    def test_protocol_conformance(self):
        assert isinstance(CopDetectionEstimator(), DetectionProbabilityEstimator)
        assert isinstance(MonteCarloDetectionEstimator(), DetectionProbabilityEstimator)
        assert isinstance(StafanDetectionEstimator(), DetectionProbabilityEstimator)
        assert isinstance(ExactDetectionEstimator(), DetectionProbabilityEstimator)


class TestSamplingEstimators:
    def test_montecarlo_close_to_exact_on_small_circuit(self):
        circuit = parse_bench(C17_BENCH, name="c17")
        faults = collapsed_fault_list(circuit)
        exact = ExactDetectionEstimator().detection_probabilities(
            circuit, faults, [0.5] * circuit.n_inputs
        )
        sampled = MonteCarloDetectionEstimator(n_samples=4096, fixed_seed=True).detection_probabilities(
            circuit, faults, [0.5] * circuit.n_inputs
        )
        assert np.max(np.abs(exact - sampled)) < 0.05

    def test_montecarlo_fixed_seed_is_deterministic(self):
        circuit = half_adder_circuit()
        faults = collapsed_fault_list(circuit)
        estimator = MonteCarloDetectionEstimator(n_samples=256, fixed_seed=True)
        first = estimator.detection_probabilities(circuit, faults, [0.5, 0.5])
        second = estimator.detection_probabilities(circuit, faults, [0.5, 0.5])
        assert np.array_equal(first, second)

    def test_montecarlo_validates_sample_count(self):
        with pytest.raises(ValueError):
            MonteCarloDetectionEstimator(n_samples=0)

    @pytest.mark.parametrize("name", ["cop", "stafan"])
    def test_estimator_ranks_faults_like_montecarlo(self, name):
        circuit = s1_comparator(width=8)
        faults = collapsed_fault_list(circuit)
        weights = [0.5] * circuit.n_inputs
        estimator = (
            CopDetectionEstimator() if name == "cop" else StafanDetectionEstimator(n_samples=4096)
        )
        reference = MonteCarloDetectionEstimator(
            n_samples=4096, fixed_seed=True
        ).detection_probabilities(circuit, faults, weights)
        estimate = estimator.detection_probabilities(circuit, faults, weights)
        ranks = [np.argsort(np.argsort(values)) for values in (estimate, reference)]
        assert np.corrcoef(*ranks)[0, 1] > 0.8

    def test_stafan_close_to_cop_on_tree(self):
        circuit = and_or_tree_circuit()
        faults = full_fault_list(circuit, include_branches=False)
        cop = CopDetectionEstimator().detection_probabilities(circuit, faults, [0.5] * 4)
        stafan = StafanDetectionEstimator(n_samples=8192, seed=5).detection_probabilities(
            circuit, faults, [0.5] * 4
        )
        assert np.max(np.abs(cop - stafan)) < 0.05


def constant_redundant_circuit():
    """Circuit with a structurally constant net: the COP-style estimate of the
    faults masked by the constant is exactly zero (the paper's redundancy
    criterion)."""
    builder = CircuitBuilder("const_redundant")
    a = builder.input("a")
    b = builder.input("b")
    zero = builder.const0(name="zero")
    inner = builder.and_(b, zero, name="inner")
    builder.output(builder.or_(a, inner), "y")
    return builder.build()


class TestRedundancy:
    def test_constant_masked_fault_estimated_and_proven(self):
        circuit = constant_redundant_circuit()
        inner_s_a_0 = Fault(circuit.net_index("inner"), False)
        # Estimated redundant: the filter removes it.
        assert list(remove_redundant(circuit, [inner_s_a_0])) == []
        assert proven_redundant(circuit, inner_s_a_0)

    def test_absorption_redundancy_needs_the_exact_check(self):
        """y = a OR (a AND b): the AND output stuck-at-0 is redundant, but the
        independence assumption hides it from the estimator — exactly the kind
        of residual redundancy the paper acknowledges PROTEST cannot prove."""
        circuit = redundant_circuit()
        inner_s_a_0 = Fault(circuit.net_index("inner"), False)
        assert list(remove_redundant(circuit, [inner_s_a_0])) == [inner_s_a_0]
        assert proven_redundant(circuit, inner_s_a_0)

    def test_detectable_fault_not_flagged(self):
        circuit = half_adder_circuit()
        fault = Fault(circuit.net_index("carry"), False)
        assert list(remove_redundant(circuit, [fault])) == [fault]
        assert not proven_redundant(circuit, fault)

    def test_remove_redundant_filters_list(self):
        circuit = constant_redundant_circuit()
        faults = full_fault_list(circuit)
        kept = remove_redundant(circuit, faults)
        assert len(kept) < len(faults)
        inner = circuit.net_index("inner")
        assert Fault(inner, False) not in kept

    def test_interior_probability_validation(self):
        with pytest.raises(ValueError):
            remove_redundant(half_adder_circuit(), [], interior_probability=1.0)

    @pytest.mark.parametrize("key", circuit_keys())
    def test_batched_zero_set_matches_scalar_reference(self, key):
        circuit = build_circuit(key)
        faults = collapsed_fault_list(circuit)
        scalar = CopDetectionEstimator().detection_probabilities(
            circuit, faults, [0.5] * circuit.n_inputs
        )
        expected = [fault for fault, p in zip(faults, scalar) if p != 0.0]
        assert list(remove_redundant(circuit, faults)) == expected

    def test_proven_redundant_refuses_large_circuits(self):
        from repro.circuits import s1_comparator

        with pytest.raises(ValueError):
            proven_redundant(s1_comparator(width=24), Fault(0, False))
