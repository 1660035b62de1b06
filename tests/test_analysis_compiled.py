"""Differential and property tests for the batched COP engine.

The batched engine (:mod:`repro.analysis.compiled`) must be *bit-identical* to
the scalar analysis path — :func:`repro.analysis.signal_prob.signal_probabilities`,
:func:`repro.analysis.observability.observabilities` and
:class:`repro.analysis.detection.CopDetectionEstimator` serve as the executable
specification.  The differential tests therefore assert exact equality (which
trivially implies the 1e-12 agreement the engine promises) on every registry
circuit and on randomized netlists; the property tests check the COP
invariants that hold regardless of implementation: override/pinning
equivalence, monotonicity on fan-out-free circuits, and detection
probabilities staying inside the unit interval.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    BatchDetectionProbabilityEstimator,
    BatchedCopEstimator,
    CopDetectionEstimator,
    DetectionProbabilityEstimator,
    batch_detection_probabilities,
    compile_cop,
    observabilities,
    signal_probabilities,
)
from repro.circuit import CircuitBuilder, GateType
from repro.circuits import paper_suite
from repro.faults import Fault, collapsed_fault_list, full_fault_list

from .helpers import random_circuit

#: Agreement the engine promises; the assertions below are stricter (exact).
ATOL = 1e-12


def registry_circuits():
    return [entry.instantiate() for entry in paper_suite()]


def random_tree_circuit(rng, n_inputs=6):
    """Random fan-out-free circuit: every signal is consumed at most once."""
    builder = CircuitBuilder(f"tree_{rng.integers(1 << 30)}")
    signals = [builder.input(f"i{k}") for k in range(n_inputs)]
    kinds = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR]
    while len(signals) > 1:
        if rng.random() < 0.2:
            src = signals.pop(int(rng.integers(len(signals))))
            signals.append(builder.gate(GateType.NOT, [src]))
            continue
        a = signals.pop(int(rng.integers(len(signals))))
        b = signals.pop(int(rng.integers(len(signals))))
        kind = kinds[int(rng.integers(len(kinds)))]
        signals.append(builder.gate(kind, [a, b]))
    builder.output(signals[0], "y")
    return builder.build()


class TestDifferentialSignalProbabilities:
    @pytest.mark.parametrize("circuit", registry_circuits(), ids=lambda c: c.name)
    def test_matches_scalar_on_registry_circuits(self, circuit):
        rng = np.random.default_rng(13)
        weights = rng.random((3, circuit.n_inputs))
        batch = compile_cop(circuit).signal_probabilities_batch(weights)
        for row in range(weights.shape[0]):
            expected = signal_probabilities(circuit, weights[row])
            assert np.array_equal(batch[row], expected), circuit.name
            assert np.max(np.abs(batch[row] - expected)) <= ATOL

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_scalar_on_random_netlists(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, n_inputs=5, n_gates=14)
        weights = rng.random((4, circuit.n_inputs))
        batch = compile_cop(circuit).signal_probabilities_batch(weights)
        for row in range(weights.shape[0]):
            assert np.array_equal(batch[row], signal_probabilities(circuit, weights[row]))

    def test_single_vector_promoted_to_one_row(self):
        circuit = registry_circuits()[2]
        weights = np.full(circuit.n_inputs, 0.3)
        batch = compile_cop(circuit).signal_probabilities_batch(weights)
        assert batch.shape == (1, circuit.n_nets)

    def test_weight_matrix_validation(self):
        circuit = registry_circuits()[2]
        engine = compile_cop(circuit)
        with pytest.raises(ValueError):
            engine.signal_probabilities_batch(np.zeros((2, circuit.n_inputs + 1)))
        with pytest.raises(ValueError):
            engine.signal_probabilities_batch(np.full((1, circuit.n_inputs), 1.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        """NaN compares false with both bounds; it must not reach the kernels
        (one NaN weight on c432 used to give 39 NaN net probabilities)."""
        circuit = registry_circuits()[2]
        engine = compile_cop(circuit)
        weights = np.full((2, circuit.n_inputs), 0.5)
        weights[1, 3] = bad
        for analyse in (engine.signal_probabilities_batch, engine.signal_probabilities_batch_numpy):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                analyse(weights)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            signal_probabilities(circuit, weights[1])


class TestDifferentialObservabilities:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_net_and_pin_observabilities_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, n_inputs=5, n_gates=12)
        engine = compile_cop(circuit)
        weights = rng.random((2, circuit.n_inputs))
        analysis = engine.analyze(weights)
        for row in range(weights.shape[0]):
            scalar = observabilities(circuit, analysis.probs[row])
            assert np.array_equal(analysis.net_obs[row], scalar.net)
            for (gate, position), value in scalar.pin.items():
                slot = engine.pin_slot_of(gate, position)
                assert analysis.pin_obs[row, slot] == value


class TestDifferentialDetection:
    @pytest.mark.parametrize("circuit", registry_circuits(), ids=lambda c: c.name)
    def test_matches_scalar_estimator_on_registry_circuits(self, circuit):
        rng = np.random.default_rng(29)
        faults = collapsed_fault_list(circuit)
        weights = rng.random((2, circuit.n_inputs))
        batch = BatchedCopEstimator().detection_probabilities_batch(
            circuit, faults, weights
        )
        scalar = CopDetectionEstimator()
        for row in range(weights.shape[0]):
            expected = scalar.detection_probabilities(circuit, faults, weights[row])
            assert np.array_equal(batch[row], expected), circuit.name
            assert np.max(np.abs(batch[row] - expected)) <= ATOL

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_scalar_estimator_on_random_netlists(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, n_inputs=4, n_gates=10)
        # The full list includes branch faults, exercising pin observabilities.
        faults = full_fault_list(circuit)
        weights = rng.random((3, circuit.n_inputs))
        batch = BatchedCopEstimator().detection_probabilities_batch(
            circuit, faults, weights
        )
        scalar = CopDetectionEstimator()
        for row in range(weights.shape[0]):
            assert np.array_equal(
                batch[row], scalar.detection_probabilities(circuit, faults, weights[row])
            )

    def test_clamp_matches_scalar(self):
        rng = np.random.default_rng(3)
        circuit = random_circuit(rng, n_inputs=5, n_gates=12)
        faults = full_fault_list(circuit)
        weights = rng.random((2, circuit.n_inputs))
        batch = BatchedCopEstimator(clamp=1e-3).detection_probabilities_batch(
            circuit, faults, weights
        )
        scalar = CopDetectionEstimator(clamp=1e-3)
        for row in range(weights.shape[0]):
            assert np.array_equal(
                batch[row], scalar.detection_probabilities(circuit, faults, weights[row])
            )

    def test_clamp_validation(self):
        with pytest.raises(ValueError):
            BatchedCopEstimator(clamp=1.0)

    def test_empty_fault_list(self):
        circuit = registry_circuits()[2]
        batch = BatchedCopEstimator().detection_probabilities_batch(
            circuit, [], np.full((2, circuit.n_inputs), 0.5)
        )
        assert batch.shape == (2, 0)

    def test_gate_free_circuit_matches_scalar(self):
        """A circuit whose outputs are wired straight to inputs has no gate
        input pins at all; the stem-only gather must not touch pin_obs."""
        builder = CircuitBuilder("wire")
        a = builder.input("a")
        b = builder.input("b")
        builder.output(a, "ya")
        builder.output(b, "yb")
        circuit = builder.build()
        faults = full_fault_list(circuit)
        weights = np.asarray([[0.3, 0.8], [0.5, 0.5]])
        batch = BatchedCopEstimator().detection_probabilities_batch(
            circuit, faults, weights
        )
        scalar = CopDetectionEstimator()
        for row in range(weights.shape[0]):
            assert np.array_equal(
                batch[row], scalar.detection_probabilities(circuit, faults, weights[row])
            )

    def test_protocol_conformance(self):
        batched = BatchedCopEstimator()
        assert isinstance(batched, DetectionProbabilityEstimator)
        assert isinstance(batched, BatchDetectionProbabilityEstimator)
        # The scalar reference intentionally has no batch entry point.
        assert not isinstance(CopDetectionEstimator(), BatchDetectionProbabilityEstimator)

    def test_scalar_fallback_driver_matches_batch(self):
        rng = np.random.default_rng(11)
        circuit = random_circuit(rng, n_inputs=4, n_gates=10)
        faults = collapsed_fault_list(circuit)
        weights = rng.random((3, circuit.n_inputs))
        overrides = [None, {circuit.inputs[0]: 0.0}, {circuit.inputs[1]: 1.0}]
        via_batch = batch_detection_probabilities(
            circuit, faults, weights, BatchedCopEstimator(), overrides
        )
        via_rows = batch_detection_probabilities(
            circuit, faults, weights, CopDetectionEstimator(), overrides
        )
        assert np.array_equal(via_batch, via_rows)


class TestCopProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_pinning_an_input_matches_the_override_path(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, n_inputs=5, n_gates=10)
        engine = compile_cop(circuit)
        weights = rng.random(circuit.n_inputs)
        column = int(rng.integers(circuit.n_inputs))
        net = circuit.inputs[column]
        value = float(rng.integers(2))  # pin to 0 or to 1
        pinned = weights.copy()
        pinned[column] = value
        direct = engine.signal_probabilities_batch(pinned[None, :])
        overridden = engine.signal_probabilities_batch(
            weights[None, :], overrides=[{net: value}]
        )
        assert np.array_equal(direct, overridden)
        # ... and both agree with the scalar override path.
        scalar = signal_probabilities(circuit, weights, overrides={net: value})
        assert np.array_equal(overridden[0], scalar)

    def test_override_rejected_on_driven_net(self):
        circuit = registry_circuits()[2]
        engine = compile_cop(circuit)
        driven = circuit.gates[0].output
        weights = np.full((1, circuit.n_inputs), 0.5)
        with pytest.raises(ValueError, match="primary inputs"):
            engine.signal_probabilities_batch(weights, overrides=[{driven: 0.5}])

    def test_override_row_count_must_match(self):
        circuit = registry_circuits()[2]
        engine = compile_cop(circuit)
        weights = np.full((2, circuit.n_inputs), 0.5)
        with pytest.raises(ValueError, match="one override mapping per row"):
            engine.signal_probabilities_batch(weights, overrides=[None])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_probabilities_monotone_in_weights_on_fanout_free_circuits(self, seed):
        """On a tree every net probability is affine in each input weight, so
        sampling one weight at three increasing values must be monotone."""
        rng = np.random.default_rng(seed)
        circuit = random_tree_circuit(rng, n_inputs=6)
        engine = compile_cop(circuit)
        base = rng.random(circuit.n_inputs)
        column = int(rng.integers(circuit.n_inputs))
        grid = np.array([0.1, 0.5, 0.9])
        rows = np.tile(base, (grid.size, 1))
        rows[:, column] = grid
        probs = engine.signal_probabilities_batch(rows)
        deltas = np.diff(probs, axis=0)
        monotone = np.all(deltas >= -ATOL, axis=0) | np.all(deltas <= ATOL, axis=0)
        assert np.all(monotone)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_detection_probabilities_lie_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, n_inputs=5, n_gates=14)
        faults = full_fault_list(circuit)
        weights = rng.random((4, circuit.n_inputs))
        batch = BatchedCopEstimator().detection_probabilities_batch(
            circuit, faults, weights
        )
        assert np.all(batch >= 0.0) and np.all(batch <= 1.0)

    def test_engine_is_cached_per_circuit_instance(self):
        circuit = registry_circuits()[0]
        assert compile_cop(circuit) is compile_cop(circuit)


def _reference_fault_plan(engine, faults):
    """Frozen copy of the original per-fault plan loop (first occurrence of
    the faulted net among the gate's inputs)."""
    lowered = engine.lowered
    nets = np.asarray([f.net for f in faults], dtype=np.int64)
    stuck = np.asarray([f.stuck_value for f in faults], dtype=bool)
    stem = np.asarray([f.is_stem for f in faults], dtype=bool)
    slots = np.zeros(len(faults), dtype=np.int64)
    for fi, fault in enumerate(faults):
        if fault.is_stem:
            continue
        position = int(np.flatnonzero(lowered.gate_inputs(fault.gate) == fault.net)[0])
        slots[fi] = lowered.pin_slot_of(fault.gate, position)
    return nets, stuck, stem, slots


def _shared_pin_circuit():
    """A gate reading one net on two pins, XOR/XNOR readers of a stem with
    fan-out, and primary inputs read directly by several gates."""
    builder = CircuitBuilder("shared_pins")
    a, b, c = builder.input("a"), builder.input("b"), builder.input("c")
    twice = builder.gate(GateType.AND, [b, a, a, c])
    parity = builder.gate(GateType.XOR, [a, twice, a])
    inverted = builder.gate(GateType.XNOR, [twice, b])
    merged = builder.gate(GateType.NOR, [parity, inverted, twice, c])
    builder.output(merged, "y")
    builder.output(parity, "p")
    return builder.build()


class TestFaultPlan:
    def _assert_plan_matches(self, circuit, faults):
        engine = compile_cop(circuit)
        engine._fault_plans.clear()
        plan = engine._fault_plan(faults)
        reference = _reference_fault_plan(engine, faults)
        for got, want in zip(plan, reference):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_shared_pins_xor_readers_and_input_stems(self):
        circuit = _shared_pin_circuit()
        faults = full_fault_list(circuit)
        assert any(f.is_branch for f in faults)
        self._assert_plan_matches(circuit, faults)
        # Reordered and partial lists (the hard-fault subsets of a sweep).
        rng = np.random.default_rng(0)
        for _ in range(5):
            subset = [faults[i] for i in rng.permutation(len(faults))[: len(faults) // 2]]
            self._assert_plan_matches(circuit, subset)

    def test_duplicate_pin_is_faulted_on_its_first_occurrence(self):
        circuit = _shared_pin_circuit()
        engine = compile_cop(circuit)
        a = circuit.inputs[0]
        gate = next(
            gi for gi, g in enumerate(circuit.gates) if list(g.inputs).count(a) == 2
        )
        faults = [Fault(a, True, gate=gate), Fault(a, False)]
        _, _, stem, slots = engine._fault_plan(faults)
        assert list(stem) == [False, True]
        assert slots[0] == engine.pin_slot_of(gate, list(circuit.gates[gate].inputs).index(a))

    @pytest.mark.parametrize("circuit", registry_circuits(), ids=lambda c: c.name)
    def test_registry_circuits(self, circuit):
        self._assert_plan_matches(circuit, full_fault_list(circuit))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_netlists(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, n_inputs=5, n_gates=14)
        faults = full_fault_list(circuit)
        order = rng.permutation(len(faults))
        self._assert_plan_matches(circuit, [faults[i] for i in order])

    def test_branch_fault_on_a_net_the_gate_does_not_read(self):
        circuit = _shared_pin_circuit()
        engine = compile_cop(circuit)
        c = circuit.inputs[2]
        gate = next(gi for gi, g in enumerate(circuit.gates) if c not in g.inputs)
        with pytest.raises(ValueError):
            engine._fault_plan([Fault(c, False, gate=gate)])
