"""Tests for the multi-weight-set BIST subsystem (:mod:`repro.wrp`).

Property tests (hypothesis) cover the clustering contract — determinism per
seed and exact cover of the fault list — the budget apportionment, the joint
schedule and STUMPS scan delivery; exact tests pin the k=1 degenerate case bit-identical to the single-set session and the
artifact round trips.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .helpers import C17_BENCH, played_patterns
from repro.api import (
    MultiWeightConfig,
    PipelineSpec,
    build_plan,
    load_artifact,
)
from repro.api.serialize import SchemaError
from repro.circuit.bench import parse_bench
from repro.faults import collapsed_fault_list
from repro.patterns import (
    CompiledLfsrWeightedPatternGenerator,
    LfsrWeightedPatternGenerator,
)
from repro.patterns.bilbo import SelfTestSession
from repro.core import WeightOptimizer
from repro.wrp import (
    MultiWeightSet,
    StumpsPatternGenerator,
    allocate_budget,
    build_weight_sets,
    cluster_faults,
    joint_schedule,
    run_multi_weight_session,
)


@pytest.fixture(scope="module")
def c17():
    return parse_bench(C17_BENCH, name="c17")


@pytest.fixture(scope="module")
def c17_faults(c17):
    return collapsed_fault_list(c17)


@pytest.fixture(scope="module")
def c17_base(c17, c17_faults):
    """The single-set optimum the clusters are taken around."""
    return WeightOptimizer(c17, faults=c17_faults).optimize()


@pytest.fixture(scope="module")
def c17_sets(c17, c17_faults, c17_base):
    """A small k=3 multi-weight schedule reused across artifact tests."""
    return build_weight_sets(
        c17,
        faults=c17_faults,
        k=3,
        cluster_seed=11,
        session_seed=23,
        base_result=c17_base,
    )


# --------------------------------------------------------------------------- #
# Fault clustering
# --------------------------------------------------------------------------- #
class TestClustering:
    @settings(max_examples=15, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partition_is_deterministic_exact_cover(self, k, seed):
        circuit = parse_bench(C17_BENCH, name="c17")
        faults = collapsed_fault_list(circuit)
        weights = np.full(circuit.n_inputs, 0.5)
        first = cluster_faults(circuit, faults, weights, k, seed)
        second = cluster_faults(circuit, faults, weights, k, seed)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        # Exact cover: every fault index in exactly one cluster.
        flat = np.concatenate(first)
        assert sorted(flat.tolist()) == list(range(len(faults)))
        # Canonical order: members ascending, clusters by smallest member.
        for cluster in first:
            assert np.all(np.diff(cluster) > 0)
        heads = [int(cluster[0]) for cluster in first]
        assert heads == sorted(heads)
        assert 1 <= len(first) <= min(k, len(faults))

    def test_rejects_bad_arguments(self, c17, c17_faults):
        weights = np.full(c17.n_inputs, 0.5)
        with pytest.raises(ValueError, match="positive cluster count"):
            cluster_faults(c17, c17_faults, weights, 0, seed=1)
        with pytest.raises(ValueError, match="empty fault list"):
            cluster_faults(c17, [], weights, 2, seed=1)


# --------------------------------------------------------------------------- #
# Budget apportionment and the joint schedule
# --------------------------------------------------------------------------- #
class TestScheduling:
    @settings(max_examples=50, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8),
        budget=st.integers(min_value=1, max_value=10**6),
    )
    def test_allocate_budget_sums_exactly(self, lengths, budget):
        if budget < len(lengths):
            with pytest.raises(ValueError):
                allocate_budget(lengths, budget)
            return
        shares = allocate_budget(lengths, budget)
        assert sum(shares) == budget
        assert all(share >= 1 for share in shares)
        assert shares == allocate_budget(lengths, budget)

    @settings(max_examples=25, deadline=None)
    @given(
        n_sets=st.integers(min_value=1, max_value=4),
        n_faults=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_joint_schedule_is_feasible_and_deterministic(self, n_sets, n_faults, seed):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(1e-3, 0.5, size=(n_sets, n_faults))
        confidence = 0.999
        start = [1] * n_sets
        lengths = joint_schedule(probs, confidence, start)
        assert lengths == joint_schedule(probs, confidence, start)
        assert all(length >= 1 for length in lengths)
        # Feasibility: the cumulative exposure meets the NORMALIZE objective.
        threshold = -np.log(confidence)
        exposure = np.exp(-(np.asarray(lengths, dtype=float) @ probs)).sum()
        assert exposure <= threshold * (1.0 + 1e-9)

    def test_joint_schedule_single_set_matches_normalize(self):
        # One set, two faults at p = 0.5, confidence 0.999: the classic
        # NORMALIZE answer is 16 patterns.
        assert joint_schedule([[0.5, 0.5]], 0.999, [1]) == [16]


# --------------------------------------------------------------------------- #
# k=1 degenerate case: bit-identical to the single-set session
# --------------------------------------------------------------------------- #
class TestDegenerateEquivalence:
    def test_k1_matches_single_set_session(self, c17, c17_faults, c17_base):
        weight_sets = build_weight_sets(
            c17,
            faults=c17_faults,
            k=1,
            cluster_seed=1987,
            session_seed=1987,
            base_result=c17_base,
        )
        assert weight_sets.k == 1
        entry = weight_sets.sets[0]
        assert entry.test_length == int(c17_base.test_length)

        source = CompiledLfsrWeightedPatternGenerator(
            entry.quantized_weights,
            lfsr_width=entry.lfsr_width,
            lfsr_taps=entry.lfsr_taps,
            seed=entry.lfsr_seed,
        )
        multi = SelfTestSession.from_sources(c17, [(source, entry.n_patterns)])
        single = SelfTestSession(
            c17,
            entry.n_patterns,
            weights=entry.quantized_weights,
            use_lfsr=True,
            seed=1987,
        )
        assert multi.n_patterns == single.n_patterns
        np.testing.assert_array_equal(played_patterns(multi), played_patterns(single))
        assert multi.golden_signature() == single.golden_signature()
        report = multi.run(fault=c17_faults[0])
        reference = single.run(fault=c17_faults[0])
        assert report.signature == reference.signature
        assert report.passed == reference.passed

    def test_later_sets_are_reseeded(self, c17_sets):
        seeds = [entry.lfsr_seed for entry in c17_sets.sets]
        assert seeds[0] == c17_sets.session_seed
        assert len(set(seeds)) == len(seeds)


# --------------------------------------------------------------------------- #
# STUMPS scan delivery
# --------------------------------------------------------------------------- #
class TestStumps:
    @settings(max_examples=20, deadline=None)
    @given(
        n_chains=st.integers(min_value=1, max_value=12),
        n_patterns=st.integers(min_value=0, max_value=40),
        chunk=st.integers(min_value=1, max_value=17),
    )
    def test_stream_equals_generate(self, n_chains, n_patterns, chunk):
        weights = np.linspace(0.1, 0.9, 7)
        generator = StumpsPatternGenerator(weights, n_chains=n_chains, seed=5)
        full = generator.generate(n_patterns)
        generator.reset()
        streamed = list(generator.generate_stream(n_patterns, chunk))
        if n_patterns == 0:
            assert not streamed or sum(m.shape[0] for m in streamed) == 0
        else:
            np.testing.assert_array_equal(np.vstack(streamed), full)
        assert full.shape == (n_patterns, weights.size)

    def test_chain_count_is_capped_at_inputs(self):
        weights = np.full(3, 0.5)
        generator = StumpsPatternGenerator(weights, n_chains=64)
        assert generator.n_chains == 3
        assert generator.chain_length == 1

    def test_realized_weights_match_parallel_generator(self):
        weights = np.linspace(0.15, 0.85, 9)
        stumps = StumpsPatternGenerator(weights, n_chains=4)
        parallel = LfsrWeightedPatternGenerator(weights)
        np.testing.assert_array_equal(
            stumps.realized_weights(), parallel.realized_weights()
        )

    def test_session_supports_scan_delivery(self, c17, c17_faults, c17_sets):
        report = run_multi_weight_session(
            c17, c17_sets, faults=c17_faults, scan_chains=2
        )
        assert report.self_test.passed
        assert report.scan_chains == 2
        assert 0.0 < report.coverage.coverage <= 1.0

    def test_playback_rejects_malformed_schedules(self, c17, c17_sets):
        from dataclasses import replace

        from .helpers import half_adder_circuit

        with pytest.raises(ValueError, match="built for 5 inputs, circuit has 2"):
            run_multi_weight_session(half_adder_circuit(), c17_sets)
        with pytest.raises(ValueError, match="at least one weight set"):
            run_multi_weight_session(c17, replace(c17_sets, sets=[]))
        entry = c17_sets.sets[0]
        short = replace(entry, quantized_weights=entry.quantized_weights[:2])
        with pytest.raises(ValueError, match="weight set 0 has 2 weights"):
            run_multi_weight_session(c17, replace(c17_sets, sets=[short]))
        with pytest.raises(ValueError, match="scan_chains must be positive"):
            run_multi_weight_session(c17, c17_sets, scan_chains=0)


# --------------------------------------------------------------------------- #
# Artifact round trips and the spec/plan wiring
# --------------------------------------------------------------------------- #
class TestArtifacts:
    def test_multi_weight_set_round_trip(self, c17_sets):
        clone = MultiWeightSet.from_dict(c17_sets.to_dict())
        assert clone.to_dict() == c17_sets.to_dict()
        assert clone.k == c17_sets.k
        for mine, theirs in zip(c17_sets.sets, clone.sets):
            np.testing.assert_array_equal(mine.weights, theirs.weights)
            assert mine.lfsr_seed == theirs.lfsr_seed

    def test_report_round_trip_via_dispatcher(self, c17, c17_faults, c17_sets):
        report = run_multi_weight_session(c17, c17_sets, faults=c17_faults)
        clone = load_artifact(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert clone.single_set_length == report.single_set_length
        assert clone.self_test.passed

    def test_removed_multi_set_self_test_report_is_a_schema_error(
        self, c17, c17_faults, c17_sets
    ):
        """The deleted multi-set signature report, as older runs stored it,
        loads as a typed error, alone or inside a multi-weight report."""
        report = run_multi_weight_session(c17, c17_sets, faults=c17_faults)
        stored = {
            **report.self_test.to_dict(),
            "kind": "multi_set_self_test_report",
            "n_sets": c17_sets.k,
            "per_set_patterns": [entry.n_patterns for entry in c17_sets.sets],
            "scan_chains": None,
        }
        with pytest.raises(SchemaError, match="multi_set_self_test_report"):
            load_artifact(stored)
        outer = {**report.to_dict(), "self_test": stored}
        with pytest.raises(SchemaError, match="multi_set_self_test_report"):
            load_artifact(outer)

    def test_budget_is_apportioned(self, c17, c17_faults, c17_base):
        weight_sets = build_weight_sets(
            c17,
            faults=c17_faults,
            k=2,
            budget=50,
            cluster_seed=3,
            session_seed=3,
            base_result=c17_base,
        )
        assert sum(entry.n_patterns for entry in weight_sets.sets) == 50

    def test_spec_requires_quantize_stage(self):
        with pytest.raises(ValueError, match="requires the quantize stage"):
            PipelineSpec(
                circuit="c432", quantize=None, multi_weight=MultiWeightConfig(k=2)
            )
        with pytest.raises(ValueError, match="k"):
            MultiWeightConfig(k=0)

    def test_plan_carries_multi_weight_stage(self):
        spec = PipelineSpec(circuit="c432", multi_weight=MultiWeightConfig(k=2))
        plan = build_plan(spec)
        stage = plan.stage("multi_weight")
        assert stage is not None
        assert set(stage.store_keys) == {"weight_sets", "result"}
        assert stage.seed == spec.stage_seed("multi_weight")
        bare = build_plan(PipelineSpec(circuit="c432"))
        assert bare.stage("multi_weight") is None
        assert "multi_weight" not in PipelineSpec(circuit="c432").to_dict()
