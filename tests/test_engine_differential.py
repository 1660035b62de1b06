"""Differential suite: the numpy kernels against independent references.

There is one kernel path (``simulation.compiled.compile_circuit`` for logic
and fault simulation, ``analysis.compiled.compile_cop`` for COP analysis).
On every registry circuit and on seeded synthetic netlists its word-domain
logic values, fault-detection words and float64 COP probabilities must equal
an independent implementation *exactly*:

* logic values: a gate-by-gate ``eval_words`` pass in netlist order
  (:func:`tests.helpers.reference_words`);
* detection words: the per-fault cone walk of
  :class:`~repro.faultsim.legacy.LegacyParallelFaultSimulator`;
* COP: the scalar :func:`~repro.analysis.signal_prob.signal_probabilities`,
  :func:`~repro.analysis.observability.observabilities` and
  :class:`~repro.analysis.detection.CopDetectionEstimator`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.analysis import (
    CopDetectionEstimator,
    compile_cop,
    observabilities,
    signal_probabilities,
)
from repro.circuits.generator import GeneratorSpec, generate_circuit
from repro.circuits.registry import build_circuit, circuit_keys
from repro.faults import collapsed_fault_list, full_fault_list
from repro.faultsim.legacy import LegacyParallelFaultSimulator
from repro.simulation import pack_patterns
from repro.simulation.compiled import compile_circuit

from .helpers import reference_words

#: Seeded synthetic netlists: mixed fan-in, depth and size.
SYNTH_SPECS = (
    GeneratorSpec(n_inputs=8, n_gates=40, depth=6, seed=101, name="synth40"),
    GeneratorSpec(n_inputs=6, n_gates=25, depth=5, min_fanin=1, max_fanin=3, seed=404, name="synth25"),
    GeneratorSpec(n_inputs=12, n_gates=120, depth=10, seed=202, name="synth120"),
    GeneratorSpec(n_inputs=10, n_gates=80, depth=8, max_fanin=5, seed=505, name="synth80"),
    GeneratorSpec(n_inputs=16, n_gates=300, depth=12, seed=303, name="synth300"),
    GeneratorSpec(n_inputs=20, n_gates=500, depth=14, seed=606, name="synth500"),
)

DIFFERENTIAL_LABELS = tuple(circuit_keys()) + tuple(s.name for s in SYNTH_SPECS)


@lru_cache(maxsize=None)
def _circuit(label):
    for spec in SYNTH_SPECS:
        if spec.name == label:
            return generate_circuit(spec)
    return build_circuit(label)


def _packed_patterns(circuit, n_patterns, seed=5):
    rng = np.random.default_rng(seed)
    patterns = rng.random((n_patterns, circuit.n_inputs)) < 0.5
    return pack_patterns(patterns)


def _strided(faults, limit):
    if len(faults) <= limit:
        return list(faults)
    return list(faults[:: max(1, len(faults) // limit)])


def _budget(circuit):
    """(n_patterns, fault limit) scaled down for the big ISCAS circuits.

    Every pattern count leaves a partial last word.
    """
    if circuit.n_gates > 2000:
        return 96, 64
    if circuit.n_gates > 500:
        return 128 + 9, 96
    return 130, 120


@pytest.mark.parametrize("label", DIFFERENTIAL_LABELS)
class TestDifferential:
    def test_logic_simulation_matches_reference(self, label):
        circuit = _circuit(label)
        n_patterns, _ = _budget(circuit)
        words = _packed_patterns(circuit, n_patterns)
        actual = compile_circuit(circuit).simulate_words(words)
        assert np.array_equal(actual, reference_words(circuit, words))

    def test_fault_detection_matches_legacy(self, label):
        circuit = _circuit(label)
        n_patterns, limit = _budget(circuit)
        words = _packed_patterns(circuit, n_patterns, seed=7)
        engine = compile_circuit(circuit)
        good = engine.simulate_words(words)
        n_words = words.shape[1]
        legacy = LegacyParallelFaultSimulator(circuit, faults=[])
        # The full (uncollapsed) list exercises branch-fault pin injection.
        for faults in (
            _strided(collapsed_fault_list(circuit), limit),
            _strided(full_fault_list(circuit), limit),
        ):
            actual = engine.fault_batch_detection(faults, good, n_words)
            expected = np.array(
                [legacy.detection_words(fault, good, n_words) for fault in faults]
            )
            assert np.array_equal(actual, expected)
            assert actual.any()

    def test_cop_analysis_matches_scalar(self, label):
        circuit = _circuit(label)
        engine = compile_cop(circuit)
        rng = np.random.default_rng(11)
        weights = rng.uniform(0.05, 0.95, size=(3, circuit.n_inputs))
        # One row pins an input: the PREPARE cofactor path must match too.
        pinned = circuit.inputs[0]
        overrides = [None, {pinned: 1.0}, None]
        probs = engine.signal_probabilities_batch(weights, overrides)
        net_obs, pin_obs = engine.observabilities_batch(probs)
        for row in range(weights.shape[0]):
            vector = weights[row].copy()
            if overrides[row] is not None:
                vector[0] = overrides[row][pinned]
            expected = signal_probabilities(circuit, vector)
            assert np.array_equal(probs[row], expected)
            scalar = observabilities(circuit, expected)
            assert np.array_equal(net_obs[row], scalar.net)
            for (gate, position), value in scalar.pin.items():
                assert pin_obs[row, engine.pin_slot_of(gate, position)] == value

    def test_detection_probabilities_match_scalar(self, label):
        circuit = _circuit(label)
        engine = compile_cop(circuit)
        _, limit = _budget(circuit)
        faults = _strided(full_fault_list(circuit), limit)
        rng = np.random.default_rng(13)
        weights = rng.uniform(0.05, 0.95, size=(2, circuit.n_inputs))
        actual = engine.detection_probabilities_batch(faults, engine.analyze(weights))
        scalar = CopDetectionEstimator()
        for row in range(weights.shape[0]):
            expected = scalar.detection_probabilities(circuit, faults, weights[row])
            assert np.array_equal(actual[row], expected)
