"""The native word-domain tier: bit-identity with the numpy kernels and the reference.

:class:`~repro.simulation.compiled.CompiledCircuit` runs good-machine
simulation and fault propagation in C whenever
:func:`repro.analysis.native.library` loads, and keeps its numpy kernels as
the named reference (``simulate_words_numpy``,
``fault_batch_detection_numpy``, ``fault_output_words_numpy``).  Both tiers
must agree byte for byte with each other and with the independent
gate-by-gate walk :func:`repro.faultsim.legacy.reference_words`.  Without a
C compiler on ``PATH`` the dispatching methods run the numpy kernels and
these tests check the reference against the walk.
"""

from __future__ import annotations

import logging
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import native
from repro.circuit import CircuitBuilder, GateType
from repro.circuits.registry import build_circuit, circuit_keys
from repro.faults import Fault, collapsed_fault_list, full_fault_list
from repro.faultsim import ParallelFaultSimulator
from repro.faultsim.legacy import reference_words
from repro.faultsim.parallel import _valid_mask
from repro.lowered import compile_lowered
from repro.patterns.bilbo import SelfTestSession
from repro.simulation import pack_patterns
from repro.simulation.compiled import CompiledCircuit, compile_circuit

from .test_analysis_native import netlists


def _words(circuit, n_patterns, seed=5):
    rng = np.random.default_rng(seed)
    return pack_patterns(rng.random((n_patterns, circuit.n_inputs)) < 0.5)


def _oracle(circuit, words, faults, mask=None):
    """Detection and faulty output words of every fault, from the walk."""
    good = reference_words(circuit, words)
    outputs = list(circuit.outputs)
    n_words = words.shape[1]
    detection = np.zeros((len(faults), n_words), dtype=np.uint64)
    out_words = np.zeros((len(outputs), len(faults), n_words), dtype=np.uint64)
    for i, fault in enumerate(faults):
        faulty = reference_words(circuit, words, fault)[outputs]
        out_words[:, i, :] = faulty
        if outputs:
            detection[i] = np.bitwise_or.reduce(faulty ^ good[outputs], axis=0)
    if mask is not None:
        detection &= mask[None, :]
    return good, detection, out_words


def assert_tiers_match_reference(circuit, faults, n_patterns, seed=5):
    """Both tiers of every word kernel equal the walk byte for byte."""
    engine = compile_circuit(circuit)
    words = _words(circuit, n_patterns, seed)
    n_words = words.shape[1]
    mask = _valid_mask(n_patterns, n_words)
    want_good, want_detection, want_out = _oracle(circuit, words, faults, mask)

    good = engine.simulate_words(words)
    assert good.tobytes() == want_good.tobytes()
    assert engine.simulate_words_numpy(words).tobytes() == want_good.tobytes()
    for kernel in (engine.fault_batch_detection, engine.fault_batch_detection_numpy):
        got = kernel(faults, good, n_words, valid_mask=mask)
        assert got.dtype == np.uint64 and got.shape == (len(faults), n_words)
        assert got.tobytes() == want_detection.tobytes()
    for kernel in (engine.fault_output_words, engine.fault_output_words_numpy):
        got = kernel(faults, good, n_words)
        assert got.dtype == np.uint64 and got.shape == want_out.shape
        assert got.tobytes() == want_out.tobytes()
    return want_detection


def _strided(faults, limit):
    return list(faults)[:: max(1, len(faults) // limit)][:limit]


def test_tier_follows_the_compiler():
    expected = "numpy" if native.find_compiler() is None else "native"
    assert compile_circuit(build_circuit("c432")).tier == expected
    assert compile_circuit(build_circuit("c432")).numpy_reference().tier == "numpy"


@pytest.mark.parametrize("key", circuit_keys())
def test_registry_circuits(key):
    circuit = build_circuit(key)
    limit = 24 if circuit.n_gates > 2000 else 48
    faults = _strided(collapsed_fault_list(circuit), limit) + _strided(
        [f for f in full_fault_list(circuit) if f.is_branch], limit
    )
    detection = assert_tiers_match_reference(circuit, faults, 64 + 37)
    assert detection.any()


@settings(max_examples=80, deadline=None)
@given(circuit=netlists(), n_patterns=st.integers(1, 200), seed=st.integers(0, 99))
def test_hypothesis_netlists(circuit, n_patterns, seed):
    assert_tiers_match_reference(circuit, full_fault_list(circuit), n_patterns, seed)


def _corner_circuit():
    """Constants, XOR/XNOR, a gate reading one net on three pins, an output
    that is also read, and a net no reader can observe through."""
    builder = CircuitBuilder("corners")
    a, b, c = (builder.input(name) for name in "abc")
    zero = builder.gate(GateType.CONST0, [])
    one = builder.gate(GateType.CONST1, [])
    x = builder.gate(GateType.XOR, [a, b, one])
    xn = builder.gate(GateType.XNOR, [x, c, zero])
    triple = builder.gate(GateType.NAND, [a, a, a])
    dead = builder.gate(GateType.AND, [b, zero])  # always 0: b's effect dies here
    builder.output(x, "x")  # a primary output that also feeds xn
    builder.output(xn, "xn")
    builder.output(builder.gate(GateType.OR, [triple, dead, c]), "y")
    return builder.build()


class TestCorners:
    def test_every_fault_of_the_corner_circuit(self):
        circuit = _corner_circuit()
        assert_tiers_match_reference(circuit, full_fault_list(circuit), 8)

    def test_stem_fault_on_a_primary_output(self):
        circuit = _corner_circuit()
        x = circuit.outputs[0]
        faults = [Fault(x, False), Fault(x, True)]
        detection = assert_tiers_match_reference(circuit, faults, 64)
        assert detection.all()  # x is observed directly wherever excited

    def test_gate_reading_the_faulty_net_on_several_pins(self):
        circuit = _corner_circuit()
        a = circuit.inputs[0]
        (gate,) = [
            gi for gi, g in enumerate(circuit.gates) if list(g.inputs) == [a, a, a]
        ]
        faults = [Fault(a, False, gate), Fault(a, True, gate)]
        assert_tiers_match_reference(circuit, faults, 64)

    def test_constant_nets(self):
        circuit = _corner_circuit()
        constants = [
            g.output
            for g in circuit.gates
            if g.gate_type in (GateType.CONST0, GateType.CONST1)
        ]
        faults = [Fault(net, value) for net in constants for value in (False, True)]
        assert_tiers_match_reference(circuit, faults, 64)

    def test_fault_whose_effect_dies_at_its_site(self):
        circuit = _corner_circuit()
        b = circuit.inputs[1]
        (dead,) = [
            gi for gi, g in enumerate(circuit.gates) if g.gate_type is GateType.AND
        ]
        faults = [Fault(b, False, dead), Fault(b, True, dead)]
        detection = assert_tiers_match_reference(circuit, faults, 64)
        assert not detection.any()

    @pytest.mark.parametrize("n_patterns", [1, 5, 63])
    def test_one_partial_word(self, n_patterns):
        circuit = build_circuit("c880")
        faults = _strided(full_fault_list(circuit), 40)
        assert_tiers_match_reference(circuit, faults, n_patterns)

    def test_empty_fault_list(self):
        engine = compile_circuit(build_circuit("c432"))
        good = engine.simulate_words(_words(engine.circuit, 70))
        assert engine.fault_batch_detection([], good, 2).shape == (0, 2)
        assert engine.fault_output_words([], good, 2).shape == (engine.outputs.size, 0, 2)

    def test_branch_fault_on_a_gate_not_reading_its_net_has_no_effect(self):
        circuit = _corner_circuit()
        zero_gate = next(
            gi for gi, g in enumerate(circuit.gates) if g.gate_type is GateType.CONST0
        )
        a = circuit.inputs[0]
        faults = [Fault(a, True, zero_gate), Fault(a, False, 0)]
        detection = assert_tiers_match_reference(circuit, faults, 64)
        assert not detection[0].any()

    def test_fault_outside_the_circuit_is_refused(self):
        engine = compile_circuit(build_circuit("c432"))
        if engine.tier != "native":
            pytest.skip("no C compiler on PATH")
        good = engine.simulate_words(_words(engine.circuit, 70))
        for fault in (Fault(engine.n_nets, True), Fault(0, True, engine.n_gates)):
            with pytest.raises(IndexError):
                engine.fault_batch_detection([fault], good, 2)

    def test_good_values_of_the_wrong_shape_are_refused(self):
        engine = compile_circuit(build_circuit("c432"))
        if engine.tier != "native":
            pytest.skip("no C compiler on PATH")
        good = engine.simulate_words(_words(engine.circuit, 70))
        fault = collapsed_fault_list(engine.circuit)[0]
        with pytest.raises(ValueError, match="shape"):
            engine.fault_batch_detection([fault], good, 1)


@pytest.mark.parametrize("key", ["c880", "s1"])
def test_fault_output_words_under_the_self_test(key):
    """The self test's faulty signatures are the same on both tiers."""
    circuit = build_circuit(key)
    faults = _strided(collapsed_fault_list(circuit), 12)
    sessions = [SelfTestSession(circuit, 700, seed=3) for _ in range(2)]
    sessions[1]._engine = sessions[1]._engine.numpy_reference()
    reports = [[session.run(fault) for fault in faults] for session in sessions]
    assert reports[0] == reports[1]
    assert any(not report.passed for report in reports[0])


def test_simulator_runs_identically_on_both_tiers():
    """Batch ramp, prefilter, groups: results and counters agree."""
    circuit = build_circuit("c1908")
    patterns = np.random.default_rng(4).random((3000, circuit.n_inputs)) < 0.5
    results = []
    for reference in (False, True):
        simulator = ParallelFaultSimulator(circuit)
        if reference:
            simulator._engine = simulator._engine.numpy_reference()
        results.append(simulator.run(patterns, batch_size=1024))
    assert results[0] == results[1]
    assert results[0].stats == results[1].stats


def test_two_threads_simulating_one_circuit_agree():
    circuit = build_circuit("s1")
    engine = compile_circuit(circuit)
    faults = full_fault_list(circuit)
    words = [_words(circuit, 1000, seed) for seed in (1, 2)]
    expected = [
        engine.fault_batch_detection_numpy(faults, engine.simulate_words_numpy(w), w.shape[1])
        for w in words
    ]
    start = threading.Barrier(2, timeout=60)
    results = {}

    def work(index):
        start.wait()
        for _ in range(5):
            good = engine.simulate_words(words[index])
            results.setdefault(index, []).append(
                engine.fault_batch_detection(faults, good, words[index].shape[1])
            )

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for index in range(2):
        assert len(results[index]) == 5
        for got in results[index]:
            assert got.tobytes() == expected[index].tobytes()


def test_no_compiler_warns_once_and_gives_identical_results(monkeypatch, caplog):
    circuit = build_circuit("c1355")
    lowered = compile_lowered(circuit)
    faults = full_fault_list(circuit)
    words = _words(circuit, 200)
    native_engine = compile_circuit(circuit)
    good = native_engine.simulate_words(words)
    want = native_engine.fault_batch_detection(faults, good, words.shape[1])
    want_out = native_engine.fault_output_words(faults.take(slice(30)), good, words.shape[1])

    monkeypatch.setattr(native, "_library", native._UNSET)
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        engines = [CompiledCircuit(lowered), CompiledCircuit(lowered)]
    warnings = [
        r for r in caplog.records if r.name == native.__name__ and r.levelno == logging.WARNING
    ]
    assert len(warnings) == 1
    assert [engine.tier for engine in engines] == ["numpy", "numpy"]
    fallback = engines[0]
    assert fallback.simulate_words(words).tobytes() == good.tobytes()
    assert fallback.fault_batch_detection(faults, good, words.shape[1]).tobytes() == want.tobytes()
    out = fallback.fault_output_words(faults.take(slice(30)), good, words.shape[1])
    assert out.tobytes() == want_out.tobytes()
