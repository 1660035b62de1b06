"""Fault dropping before the propagation kernel: batch ramp and site prefilter.

:meth:`ParallelFaultSimulator.run_stream` ramps its batches from one
64-pattern word up to ``batch_size`` and, before grouping, removes from each
batch every fault whose effect provably dies at its site.  Both are pure work
reductions, so the first-detection maps must stay exactly those of the
independent per-fault baseline (:class:`LegacyParallelFaultSimulator`) and of
the gate-by-gate reference pass (:func:`tests.helpers.reference_words`), and
a pruned fault must
always have an all-zero row in the dense kernel's detection matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder, GateType
from repro.circuits import build_circuit
from repro.circuits.registry import paper_suite
from repro.faults import Fault, collapsed_fault_list, full_fault_list
from repro.faultsim import (
    FaultSimStats,
    LegacyParallelFaultSimulator,
    ParallelFaultSimulator,
)
from repro.faultsim.parallel import _valid_mask
from repro.patterns import WeightedPatternGenerator
from repro.simulation import pack_patterns, unpack_values

from .helpers import random_circuit, reference_words

REGISTRY = [entry.key for entry in paper_suite()]
BATCH_SIZES = (64, 256, 2048)


def _strided(faults, limit):
    return list(faults)[:: max(1, len(faults) // limit)][:limit]


def _weighted_patterns(circuit, n_patterns, seed):
    rng = np.random.default_rng(seed)
    weights = list(np.round(rng.uniform(0.05, 0.95, circuit.n_inputs) * 20) / 20)
    return WeightedPatternGenerator(weights, seed=seed).generate(n_patterns)


def _reference_first_detection(circuit, faults, patterns):
    """First detecting pattern per fault (-1: none), by the gate-by-gate
    reference pass."""
    words = pack_patterns(patterns)
    outputs = list(circuit.outputs)
    good = reference_words(circuit, words)[outputs]
    firsts = np.full(len(faults), -1, dtype=np.int64)
    for fi, fault in enumerate(faults):
        diff = np.bitwise_or.reduce(reference_words(circuit, words, fault)[outputs] ^ good)
        detected = np.flatnonzero(unpack_values(diff, len(patterns)))
        if detected.size:
            firsts[fi] = int(detected[0])
    return firsts


def _batch_widths(sim, monkeypatch):
    """Record the pattern count of every batch ``sim`` simulates."""
    widths = []
    original = sim._engine.simulate_words

    def spy(words):
        widths.append(int(words.shape[1]))
        return original(words)

    monkeypatch.setattr(sim._engine, "simulate_words", spy)
    return widths


def _kernel_calls(sim, monkeypatch):
    """Record ``(n_faults, n_words)`` of every propagation-kernel call."""
    calls = []
    original = sim._engine.fault_batch_detection

    def spy(faults, good, n_words, valid_mask=None):
        calls.append((len(faults), int(n_words)))
        return original(faults, good, n_words, valid_mask=valid_mask)

    monkeypatch.setattr(sim._engine, "fault_batch_detection", spy)
    return calls


# --------------------------------------------------------------------------- #
# Differential: registry circuits
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("key", REGISTRY)
def test_registry_matches_legacy_at_every_batch_size(key):
    circuit = build_circuit(key)
    faults = _strided(collapsed_fault_list(circuit), 120)
    patterns = _weighted_patterns(circuit, 700, seed=3)  # partial last word
    expected = LegacyParallelFaultSimulator(circuit, faults).run(patterns)
    sim = ParallelFaultSimulator(circuit, faults)
    for batch_size in BATCH_SIZES:
        result = sim.run(patterns, batch_size=batch_size)
        assert np.array_equal(result.first_detection, expected.first_detection), batch_size
        assert result.n_patterns == expected.n_patterns


@pytest.mark.parametrize("key", REGISTRY)
def test_registry_matches_reference(key):
    circuit = build_circuit(key)
    faults = _strided(collapsed_fault_list(circuit), 6)
    patterns = _weighted_patterns(circuit, 70, seed=4)  # partial last word
    expected = _reference_first_detection(circuit, faults, patterns)
    for batch_size in BATCH_SIZES:
        result = ParallelFaultSimulator(circuit, faults).run(
            patterns, batch_size=batch_size
        )
        assert np.array_equal(result.first_detection, expected)


# --------------------------------------------------------------------------- #
# Differential: generated netlists under every execution knob
# --------------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_gates=st.integers(4, 24),
    n_patterns=st.integers(1, 200),
    batch_size=st.sampled_from(BATCH_SIZES),
    chunk=st.integers(1, 400),
    drop_detected=st.booleans(),
)
def test_generated_netlists_match_references(
    seed, n_gates, n_patterns, batch_size, chunk, drop_detected
):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n_inputs=5, n_gates=n_gates)
    faults = full_fault_list(circuit)
    patterns = rng.random((n_patterns, circuit.n_inputs)) < rng.uniform(0.1, 0.9)
    expected = LegacyParallelFaultSimulator(circuit, faults).run(patterns)
    assert np.array_equal(
        expected.first_detection, _reference_first_detection(circuit, faults, patterns)
    )
    sim = ParallelFaultSimulator(circuit, faults)
    chunks = [patterns[start : start + chunk] for start in range(0, n_patterns, chunk)]
    result = sim.run_stream(
        chunks, drop_detected=drop_detected, batch_size=batch_size
    )
    assert np.array_equal(result.first_detection, expected.first_detection)
    assert result.n_patterns == n_patterns
    stats = result.stats
    assert stats.faults_simulated == sum(stats.active_sizes)
    assert stats.faults_pruned <= stats.faults_simulated


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), target=st.floats(0.05, 1.0))
def test_target_coverage_stops_on_the_same_chunk(seed, target):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n_inputs=6, n_gates=20)
    patterns = rng.random((640, circuit.n_inputs)) < 0.5
    faults = collapsed_fault_list(circuit)
    chunks = [patterns[start : start + 96] for start in range(0, 640, 96)]
    result = ParallelFaultSimulator(circuit, faults).run_stream(
        chunks, batch_size=256, target_coverage=target
    )
    # The chunk-by-chunk reference: stop after the first chunk whose
    # cumulative coverage reaches the target.
    full = LegacyParallelFaultSimulator(circuit, faults).run(patterns)
    applied = 0
    for chunk in chunks:
        applied += chunk.shape[0]
        if full.coverage_at(applied) >= target:
            break
    assert result.n_patterns == applied
    assert np.array_equal(
        result.first_detection,
        np.where(full.first_detection < applied, full.first_detection, -1),
    )


# --------------------------------------------------------------------------- #
# The batch ramp
# --------------------------------------------------------------------------- #
def _hard_circuit():
    """A circuit whose fault list always keeps a live (undetectable) fault."""
    builder = CircuitBuilder("absorb")
    a, b, c = (builder.input(name) for name in "abc")
    inner = builder.and_(a, b)
    builder.output(builder.or_(a, inner), "y")  # inner s-a-0 is redundant
    builder.output(builder.xor(b, c), "z")
    return builder.build()


class TestBatchRamp:
    def test_ramp_doubles_from_one_word(self, monkeypatch):
        circuit = _hard_circuit()
        sim = ParallelFaultSimulator(circuit)
        widths = _batch_widths(sim, monkeypatch)
        patterns = np.random.default_rng(1).random((5000, 3)) < 0.5
        sim.run(patterns, batch_size=2048)
        assert widths == [1, 2, 4, 8, 16, 32, 16]  # 5000 = 4032 + 968

    def test_ramp_carries_across_chunks_and_ends_each_chunk(self, monkeypatch):
        circuit = _hard_circuit()
        sim = ParallelFaultSimulator(circuit)
        widths = _batch_widths(sim, monkeypatch)
        patterns = np.random.default_rng(2).random((8192, 3)) < 0.5
        result = sim.run_stream([patterns[:4096], patterns[4096:]], batch_size=2048)
        # The 4096-pattern chunk ends in a short 64-pattern tail; the next
        # chunk continues at full width.
        assert widths == [1, 2, 4, 8, 16, 32, 1, 32, 32]
        assert result.stats.n_batches == 9
        expected = LegacyParallelFaultSimulator(circuit).run(patterns)
        assert np.array_equal(result.first_detection, expected.first_detection)

    def test_no_ramp_without_dropping(self, monkeypatch):
        circuit = _hard_circuit()
        sim = ParallelFaultSimulator(circuit)
        widths = _batch_widths(sim, monkeypatch)
        patterns = np.random.default_rng(3).random((1000, 3)) < 0.5
        sim.run(patterns, batch_size=256, drop_detected=False)
        assert widths == [4, 4, 4, 4]

    def test_small_batch_size_caps_the_ramp(self, monkeypatch):
        circuit = _hard_circuit()
        sim = ParallelFaultSimulator(circuit)
        widths = _batch_widths(sim, monkeypatch)
        patterns = np.random.default_rng(4).random((300, 3)) < 0.5
        sim.run(patterns, batch_size=100)
        assert widths == [1, 2, 2, 1]  # 64 + 100 + 100 + 36 patterns

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            ParallelFaultSimulator(_hard_circuit()).run(
                np.zeros((4, 3), dtype=bool), batch_size=0
            )


# --------------------------------------------------------------------------- #
# The site-activity prefilter
# --------------------------------------------------------------------------- #
def _assert_exact_prefilter(circuit, faults, patterns):
    """Pruned faults have all-zero dense rows; returns the live mask."""
    sim = ParallelFaultSimulator(circuit, faults)
    n_words = (len(patterns) + 63) // 64
    good = sim._engine.simulate_words(pack_patterns(patterns))
    mask = _valid_mask(len(patterns), n_words)
    indices = np.arange(len(faults), dtype=np.int64)
    live = sim._activity.live(indices, good, mask)
    dense = sim._engine.fault_batch_detection(faults, good, n_words, valid_mask=mask)
    assert not dense[~live].any()
    return live


def _shared_reader_circuit():
    """Net ``s`` read by AND, OR, XOR, XNOR and a gate on two pins.

    ``dead`` is read by nothing and is no primary output.
    """
    builder = CircuitBuilder("shared_reader")
    a, b, c = (builder.input(name) for name in "abc")
    s = builder.nand(a, b, name="s")
    builder.output(builder.and_(s, c), "y_and")
    builder.output(builder.or_(s, c), "y_or")
    builder.output(builder.xor(s, c), "y_xor")
    builder.output(builder.xnor(c, s), "y_xnor")
    builder.output(builder.gate(GateType.AND, [s, s]), "y_twice")
    builder.output(builder.gate(GateType.XOR, [s, s]), "y_zero")
    builder.gate(GateType.OR, [a, c], name="dead")
    builder.output(s)
    return builder.build()


def _branch(circuit, net, gate_output, stuck):
    gate = next(
        gi for gi, g in enumerate(circuit.gates)
        if g.output == circuit.net_index(gate_output)
    )
    return Fault(net, stuck, gate=gate)


class TestSitePrefilter:
    def test_stem_fault_on_primary_output_is_live_when_excited(self):
        circuit = _shared_reader_circuit()
        s = circuit.net_index("s")
        faults = [Fault(s, False), Fault(s, True)]
        # a=b=1 makes s=0: s-a-1 is excited (and observed at s_out),
        # s-a-0 is not.
        patterns = np.ones((10, 3), dtype=bool)
        assert list(_assert_exact_prefilter(circuit, faults, patterns)) == [False, True]

    def test_stem_fault_on_primary_output_without_readers(self):
        builder = CircuitBuilder("po_only")
        a, b = builder.input("a"), builder.input("b")
        builder.output(builder.and_(a, b), "y")
        circuit = builder.build()
        y = circuit.net_index("y")
        faults = [Fault(y, False), Fault(y, True)]
        patterns = np.zeros((70, 2), dtype=bool)  # y=0 throughout
        assert list(_assert_exact_prefilter(circuit, faults, patterns)) == [False, True]

    def test_primary_input_stem_faults(self):
        circuit = _shared_reader_circuit()
        c = circuit.net_index("c")
        faults = [Fault(c, False), Fault(c, True)]
        # c stuck at its own value is never excited; the other one reaches
        # the readers and stays live.
        patterns = np.zeros((64, 3), dtype=bool)
        assert list(_assert_exact_prefilter(circuit, faults, patterns)) == [False, True]

    def test_net_without_readers_is_always_pruned(self):
        circuit = _shared_reader_circuit()
        dead = circuit.net_index("dead")
        faults = [Fault(dead, False), Fault(dead, True)]
        patterns = np.random.default_rng(5).random((200, 3)) < 0.5
        assert not _assert_exact_prefilter(circuit, faults, patterns).any()
        result = ParallelFaultSimulator(circuit, faults).run(patterns)
        assert np.all(result.first_detection == -1)
        assert result.stats.faults_pruned == result.stats.faults_simulated
        assert result.stats.fault_words == 0

    def test_gate_reading_the_net_on_two_pins(self):
        circuit = _shared_reader_circuit()
        s = circuit.net_index("s")
        twice = _branch(circuit, s, "y_twice", True)
        zero = _branch(circuit, s, "y_zero", True)
        patterns = np.ones((64, 3), dtype=bool)  # s=0, so s-a-1 is excited
        live = _assert_exact_prefilter(circuit, [twice, zero], patterns)
        # AND(s, s) passes the effect; XOR(s, s) is 0 whatever s is.
        assert list(live) == [True, False]

    def test_xor_and_xnor_readers_always_pass_an_excited_effect(self):
        circuit = _shared_reader_circuit()
        s = circuit.net_index("s")
        faults = [
            _branch(circuit, s, "y_xor", True),
            _branch(circuit, s, "y_xnor", True),
            _branch(circuit, s, "y_and", True),
        ]
        # s=0 (a=b=1), c=0: the AND reader blocks, XOR/XNOR pass.
        patterns = np.tile(np.asarray([True, True, False]), (64, 1))
        assert list(_assert_exact_prefilter(circuit, faults, patterns)) == [True, True, False]

    def test_mixed_op_branch_group_is_exact(self):
        circuit = _shared_reader_circuit()
        s = circuit.net_index("s")
        outputs = ["y_xor", "y_and", "y_twice", "y_or", "y_xnor", "y_zero"]
        # Interleaved ops in fault order: the table must sort them by op.
        faults = [
            _branch(circuit, s, out, stuck) for stuck in (True, False) for out in outputs
        ]
        rng = np.random.default_rng(6)
        for n_patterns in (1, 63, 64, 130):
            patterns = rng.random((n_patterns, 3)) < 0.5
            _assert_exact_prefilter(circuit, faults, patterns)
        patterns = rng.random((130, 3)) < 0.5
        result = ParallelFaultSimulator(circuit, faults).run(patterns, batch_size=64)
        expected = _reference_first_detection(circuit, faults, patterns)
        assert np.array_equal(result.first_detection, expected)

    @pytest.mark.parametrize("key", REGISTRY)
    def test_registry_pruned_rows_are_zero(self, key):
        circuit = build_circuit(key)
        faults = collapsed_fault_list(circuit)
        patterns = _weighted_patterns(circuit, 200, seed=7)
        live = _assert_exact_prefilter(circuit, faults, patterns)
        assert live.any()
        if key == "s2":  # the hard-fault circuit prunes a large share
            assert live.sum() < 0.9 * len(faults)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), n_patterns=st.integers(1, 200))
    def test_generated_pruned_rows_are_zero(self, seed, n_patterns):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, n_inputs=4, n_gates=16)
        patterns = rng.random((n_patterns, circuit.n_inputs)) < rng.uniform(0.05, 0.95)
        _assert_exact_prefilter(circuit, full_fault_list(circuit), patterns)


# --------------------------------------------------------------------------- #
# Column budget and work counters
# --------------------------------------------------------------------------- #
class TestWorkCounters:
    def _run(self, monkeypatch):
        circuit = build_circuit("s1")
        sim = ParallelFaultSimulator(circuit)
        calls = _kernel_calls(sim, monkeypatch)
        patterns = _weighted_patterns(circuit, 3000, seed=8)
        return sim.run(patterns, batch_size=2048), calls

    def test_fault_words_and_pruned_are_exact(self, monkeypatch):
        result, calls = self._run(monkeypatch)
        stats = result.stats
        assert stats.fault_words == sum(n * words for n, words in calls)
        sent = sum(n for n, _ in calls)
        assert stats.faults_simulated == stats.faults_pruned + sent
        assert stats.faults_pruned > 0

    def test_groups_fill_one_column_budget(self, monkeypatch):
        result, calls = self._run(monkeypatch)
        assert all(n * words <= 2048 for n, words in calls)
        # A one-word batch packs its whole active set into one group.
        assert [words for _, words in calls[:2]] == [1, 2]

    def test_detection_counts_match_legacy(self):
        circuit = build_circuit("c432")
        faults = collapsed_fault_list(circuit)
        patterns = _weighted_patterns(circuit, 300, seed=9)
        counts = ParallelFaultSimulator(circuit, faults).detection_counts(
            patterns, batch_size=128
        )
        expected = LegacyParallelFaultSimulator(circuit, faults).detection_counts(
            patterns
        )
        assert np.array_equal(counts, expected)

    def test_stats_without_new_counters_still_load(self):
        stats = FaultSimStats(
            n_batches=2,
            faults_simulated=10,
            faults_dropped=3,
            active_sizes=(6, 4),
            fault_words=7,
            faults_pruned=2,
        )
        payload = stats.to_dict()
        assert FaultSimStats.from_dict(payload) == stats
        del payload["fault_words"], payload["faults_pruned"]
        old = FaultSimStats.from_dict(payload)
        assert (old.fault_words, old.faults_pruned) == (0, 0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("backend", "numpy"),
            ("backend", "numba"),
            ("backend", "mixed"),
            ("partition_size", None),
            ("partition_size", 4),
        ],
    )
    def test_stats_with_removed_fields_still_load(self, name, value):
        """Stored blobs from when a kernel backend or a partition size was
        selectable keep loading; the field is dropped."""
        stats = FaultSimStats(
            n_batches=1,
            faults_simulated=5,
            faults_dropped=5,
            active_sizes=(5,),
        )
        payload = {**stats.to_dict(), name: value}
        assert FaultSimStats.from_dict(payload) == stats
        assert name not in stats.to_dict()


# --------------------------------------------------------------------------- #
# Fault dropping: counters
# --------------------------------------------------------------------------- #
class TestFaultSimStats:
    def _run(self):
        circuit = build_circuit("s1")
        rng = np.random.default_rng(17)
        patterns = rng.random((700, circuit.n_inputs)) < 0.5
        return ParallelFaultSimulator(circuit).run(patterns, batch_size=128)

    def test_counters_are_consistent(self):
        result = self._run()
        stats = result.stats
        assert stats.n_batches == len(stats.active_sizes)
        assert stats.faults_simulated == sum(stats.active_sizes)
        # Dropping shrinks the active set monotonically across batches.
        assert list(stats.active_sizes) == sorted(stats.active_sizes, reverse=True)
        assert stats.faults_dropped == int((result.first_detection >= 0).sum())
        assert stats.faults_dropped > 0

    def test_no_dropping_keeps_active_set_full(self):
        circuit = build_circuit("s1")
        rng = np.random.default_rng(17)
        patterns = rng.random((700, circuit.n_inputs)) < 0.5
        sim = ParallelFaultSimulator(circuit)
        result = sim.run(patterns, batch_size=128, drop_detected=False)
        stats = result.stats
        n_faults = len(result.faults)
        assert stats.faults_dropped == 0
        assert set(stats.active_sizes) == {n_faults}
        assert stats.faults_simulated == stats.n_batches * n_faults

    def test_dropping_reduces_simulated_faults(self):
        with_drop = self._run().stats
        without = FaultSimStats(
            n_batches=with_drop.n_batches,
            faults_simulated=with_drop.n_batches * max(with_drop.active_sizes),
            faults_dropped=0,
            active_sizes=(),
        )
        assert with_drop.faults_simulated < without.faults_simulated

    def test_stats_serialization_round_trip(self):
        result = self._run()
        payload = result.to_dict()
        from repro.faultsim import FaultSimResult

        restored = FaultSimResult.from_dict(payload)
        assert restored == result
        assert restored.stats == result.stats
        # Stats are excluded from result equality but faithfully serialized.
        assert restored.stats.active_sizes == result.stats.active_sizes


# --------------------------------------------------------------------------- #
# Property: run_stream results are invariant under the batch size
# --------------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    batch_size=st.sampled_from([64, 128, 256]),
)
def test_run_stream_invariant_under_execution_knobs(seed, batch_size):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n_inputs=5, n_gates=12)
    patterns = rng.random((300, circuit.n_inputs)) < 0.5
    baseline = ParallelFaultSimulator(circuit).run(patterns, batch_size=128)
    variant = ParallelFaultSimulator(circuit).run(patterns, batch_size=batch_size)
    assert variant == baseline
    points = [1, 10, 100, 300]
    assert [variant.coverage_at(n) for n in points] == [baseline.coverage_at(n) for n in points]
