"""Tests for the pipeline façade (:class:`repro.pipeline.Session`).

The two central claims: the session produces the same numbers as driving the
subsystems directly, and the lowered-circuit IR is compiled exactly once per
circuit across all pipeline stages (analyze → optimize → quantize →
fault-simulate), including repeated runs and isomorphic circuit rebuilds.
"""

import numpy as np
import pytest

from repro import PipelineReport, Session
from repro.analysis import (
    BatchedCopEstimator,
    CopDetectionEstimator,
    remove_redundant,
)
from repro.circuits import alu_circuit, s1_comparator
from repro.core import optimize_input_probabilities
from repro.faults import collapsed_fault_list
from repro.faultsim import random_pattern_coverage
from repro.lowered import compile_count


def _small_session(**kwargs):
    kwargs.setdefault("confidence", 0.999)
    kwargs.setdefault("max_sweeps", 2)
    return Session(**kwargs)


class TestRegistration:
    def test_add_defaults_key_to_circuit_name(self):
        session = _small_session()
        circuit = s1_comparator(width=4)
        key = session.add(circuit)
        assert key == circuit.name
        assert session.has(key)
        assert session.circuit(key) is circuit

    def test_re_adding_same_instance_is_idempotent(self):
        session = _small_session()
        circuit = s1_comparator(width=4)
        assert session.add(circuit, key="c") == session.add(circuit, key="c")
        assert session.keys() == ["c"]

    def test_re_adding_structurally_identical_circuit_is_noop(self):
        session = _small_session()
        original = s1_comparator(width=4)
        session.add(original, key="c")
        faults = session.faults("c")
        # A fresh, isomorphic rebuild under the same key is a no-op that
        # keeps the existing entry and its cached artifacts.
        assert session.add(s1_comparator(width=4), key="c") == "c"
        assert session.circuit("c") is original
        assert session.faults("c") is faults

    def test_conflicting_key_rejected(self):
        session = _small_session()
        session.add(s1_comparator(width=4), key="c")
        with pytest.raises(ValueError, match="structurally different"):
            session.add(alu_circuit(width=2), key="c")

    def test_re_adding_with_different_fault_list_rejected(self):
        session = _small_session()
        circuit = s1_comparator(width=4)
        session.add(circuit, key="c")
        subset = session.faults("c")[:3]
        with pytest.raises(ValueError, match="different fault list"):
            session.add(s1_comparator(width=4), key="c", faults=subset)
        # An identical explicit list stays a no-op.
        assert session.add(circuit, key="c", faults=session.faults("c")) == "c"

    def test_unknown_key_rejected(self):
        session = _small_session()
        with pytest.raises(KeyError):
            session.lowered("nope")

    def test_default_fault_list_excludes_redundancies(self):
        circuit = s1_comparator(width=4)
        session = _small_session()
        key = session.add(circuit)
        expected = remove_redundant(circuit, collapsed_fault_list(circuit))
        assert session.faults(key) == expected

    def test_explicit_fault_list_used_as_is(self):
        circuit = s1_comparator(width=4)
        faults = collapsed_fault_list(circuit)[:5]
        session = _small_session()
        key = session.add(circuit, faults=faults)
        assert session.faults(key) == faults


class TestCompileReuse:
    def test_one_lowering_across_all_stages(self):
        circuit = alu_circuit(width=2)
        session = _small_session()
        key = session.add(circuit)
        before = compile_count()
        session.detection_probabilities(key)          # analyze
        # First stage lowers (or hits the content cache if an isomorphic
        # instance was compiled earlier in the test run) ...
        delta = compile_count() - before
        assert delta <= 1
        session.required_length(key)                  # analyze (cached)
        session.optimize(key)                         # optimize
        session.quantized_weights(key)                # quantize
        session.fault_simulate(key, 128)              # validate
        session.fault_simulate(key, 128, weights=session.quantized_weights(key))
        # ... and every later stage reuses it: no further lowering.
        assert compile_count() == before + delta
        assert session.lowerings(key) == delta
        assert session.total_lowerings == delta

    def test_run_compiles_once_per_circuit(self):
        session = _small_session()
        session.add(alu_circuit(width=2), key="alu")
        session.add(s1_comparator(width=4), key="cmp")
        before = compile_count()
        reports = session.run(n_patterns=128)
        assert [r.key for r in reports] == ["alu", "cmp"]
        # At most one lowering per circuit (fewer when the content-addressed
        # cache already held a structure from an earlier isomorphic build).
        delta = compile_count() - before
        assert delta <= 2
        assert session.total_lowerings == delta
        # A second full run is served from the caches entirely.
        session.run(n_patterns=128)
        assert compile_count() == before + delta
        assert session.total_lowerings == delta

    def test_isomorphic_rebuild_hits_content_cache(self):
        first = _small_session()
        first.add(alu_circuit(width=2), key="alu")
        first.lowered("alu")
        second = _small_session()
        second.add(alu_circuit(width=2), key="alu")
        before = compile_count()
        second.lowered("alu")
        assert compile_count() == before
        assert second.lowerings("alu") == 0  # cache hit, not a compile


class TestStageEquivalence:
    def test_analysis_matches_direct_estimators(self):
        circuit = s1_comparator(width=4)
        session = _small_session()
        key = session.add(circuit)
        faults = session.faults(key)
        probs = session.detection_probabilities(key)
        scalar = CopDetectionEstimator().detection_probabilities(
            circuit, faults, [0.5] * circuit.n_inputs
        )
        np.testing.assert_array_equal(probs, scalar)
        assert session.detection_probabilities(key) is probs  # baseline cached

    def test_optimize_matches_direct_call(self):
        circuit = alu_circuit(width=2)
        faults = remove_redundant(circuit, collapsed_fault_list(circuit))
        session = _small_session()
        key = session.add(circuit)
        via_session = session.optimize(key)
        direct = optimize_input_probabilities(
            circuit, faults=faults, confidence=0.999, max_sweeps=2
        )
        assert via_session.history == direct.history
        np.testing.assert_array_equal(via_session.weights, direct.weights)

    def test_fault_simulate_matches_direct_call(self):
        circuit = s1_comparator(width=4)
        session = _small_session()
        key = session.add(circuit)
        via_session = session.fault_simulate(key, 256, seed=11)
        direct = random_pattern_coverage(
            circuit, 256, faults=session.faults(key), seed=11
        )
        assert via_session.result.first_detection == direct.result.first_detection
        # Identical workloads are served from the coverage cache.
        assert session.fault_simulate(key, 256, seed=11) is via_session

    def test_quantized_weights_with_custom_step(self):
        session = _small_session()
        key = session.add(alu_circuit(width=2))
        default_grid = session.quantized_weights(key)
        np.testing.assert_array_equal(
            default_grid, session.optimize(key).quantized_weights
        )
        coarse = session.quantized_weights(key, step=0.25)
        low, high = session.bounds
        on_grid = np.isclose(coarse, np.round(coarse / 0.25) * 0.25)
        at_bound = np.isclose(coarse, low) | np.isclose(coarse, high)
        assert np.all(on_grid | at_bound)
        assert np.all((coarse >= low) & (coarse <= high))

    def test_optimize_result_is_cached(self):
        session = _small_session()
        key = session.add(alu_circuit(width=2))
        first = session.optimize(key)
        assert session.optimize(key) is first

    def test_batched_and_scalar_estimator_sessions_agree(self):
        batched = _small_session(estimator=BatchedCopEstimator())
        scalar = _small_session(estimator=CopDetectionEstimator())
        circuit = alu_circuit(width=2)
        kb = batched.add(circuit, key="c")
        ks = scalar.add(alu_circuit(width=2), key="c")
        np.testing.assert_array_equal(
            batched.detection_probabilities(kb), scalar.detection_probabilities(ks)
        )
        assert batched.required_length(kb) == scalar.required_length(ks)


class TestSelfTestStage:
    def test_matches_direct_session(self):
        from repro import SelfTestSession

        circuit = s1_comparator(width=4)
        session = _small_session()
        key = session.add(circuit)
        fault = session.faults(key)[0]
        via_pipeline = session.self_test(key, 128, seed=7, fault=fault)
        direct = SelfTestSession(circuit, 128, seed=7).run(fault)
        assert via_pipeline == direct
        assert session.self_test(key, 128, seed=7).passed

    def test_session_cached_across_faults(self):
        session = _small_session()
        key = session.add(s1_comparator(width=4))
        bist = session.self_test_session(key, 64, seed=3)
        assert session.self_test_session(key, 64, seed=3) is bist
        # Different parameters get a fresh session.
        assert session.self_test_session(key, 64, seed=4) is not bist
        assert session.self_test_session(key, 64, seed=3, use_lfsr=True) is not bist

    def test_session_cache_is_lru_bounded(self):
        from repro.pipeline.session import _SELFTEST_CACHE_LIMIT

        session = _small_session()
        key = session.add(s1_comparator(width=4))
        first = session.self_test_session(key, 32, seed=0)
        for seed in range(1, _SELFTEST_CACHE_LIMIT + 1):
            session.self_test_session(key, 32, seed=seed)
        cache = session._entry(key).selftest_cache
        assert len(cache) == _SELFTEST_CACHE_LIMIT
        # The oldest entry (seed=0) was evicted; a repeat builds a new one.
        assert session.self_test_session(key, 32, seed=0) is not first
        # A cache hit refreshes recency instead of duplicating the entry.
        hit = session.self_test_session(key, 32, seed=5)
        assert session.self_test_session(key, 32, seed=5) is hit
        assert len(session._entry(key).selftest_cache) == _SELFTEST_CACHE_LIMIT

    def test_self_test_stage_reuses_the_lowering(self):
        from repro.lowered import compile_count

        circuit = alu_circuit(width=2)
        session = _small_session()
        key = session.add(circuit)
        session.detection_probabilities(key)
        before = compile_count()
        fault = session.faults(key)[0]
        session.self_test(key, 64)
        session.self_test(key, 64, fault=fault)
        session.self_test(key, 64, use_lfsr=True, weights=[0.75] * circuit.n_inputs)
        assert compile_count() == before

    def test_misr_taps_escape_hatch_for_wide_circuits(self):
        """A circuit with more outputs than the largest tabulated MISR width
        must be testable through the pipeline stage by passing an explicit
        width + taps, exactly as the ValueError message instructs."""
        from repro.circuit import CircuitBuilder

        builder = CircuitBuilder("wide")
        a = builder.input("a")
        for k in range(65):
            builder.output(builder.not_(a, name=f"n{k}"), f"o{k}")
        circuit = builder.build()
        session = _small_session()
        key = session.add(circuit, faults=[])
        with pytest.raises(ValueError, match="misr_width"):
            session.self_test(key, 8)
        report = session.self_test(key, 8, misr_width=65, misr_taps=(65, 47))
        assert report.passed

    def test_weighted_self_test_detects_fault_missed_by_plain(self):
        """Section 5.2 end to end through the pipeline: the quantized
        optimized weights expose a random-pattern-resistant fault that the
        equiprobable session of the same length misses."""
        from repro import Fault

        circuit = s1_comparator(width=12)
        session = _small_session(drop_redundant=False)
        key = session.add(circuit)
        eq_net = circuit.net_index("a_eq_b")
        fault = Fault(eq_net, False)  # needs A == B to be excited
        n_patterns = 200
        plain = session.self_test(key, n_patterns, seed=3, fault=fault)
        weighted = session.self_test(
            key, n_patterns, weights=[0.9] * circuit.n_inputs, seed=3, fault=fault
        )
        assert plain.passed  # fault missed: signature equals golden
        assert not weighted.passed  # fault detected

    def test_fault_simulate_target_coverage_cached_separately(self):
        session = _small_session()
        key = session.add(s1_comparator(width=4))
        full = session.fault_simulate(key, 512, seed=11)
        early = session.fault_simulate(key, 512, seed=11, target_coverage=0.5)
        assert early is not full
        assert early.fault_coverage >= 0.5
        assert early.n_patterns <= full.n_patterns
        assert session.fault_simulate(key, 512, seed=11, target_coverage=0.5) is early


class TestSpecDelegation:
    """Session is the convenience wrapper: specs out, executor underneath."""

    def test_spec_round_trips_and_matches_session_config(self):
        import json

        from repro.api import PipelineSpec

        session = _small_session(confidence=0.99, seed=11, quantization_step=0.1)
        key = session.add(alu_circuit(width=2))
        spec = session.spec(key, n_patterns=128)
        assert spec.label == key
        assert spec.seed == 11
        assert spec.analysis.confidence == 0.99
        assert spec.optimize.max_sweeps == 2
        assert spec.quantize.step == 0.1
        assert spec.fault_sim.n_patterns == 128
        assert PipelineSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_spec_with_registry_reference(self):
        from repro.circuits import build_circuit

        session = _small_session()
        session.add(build_circuit("c432"), key="c432")
        spec = session.spec("c432", circuit_ref="c432")
        assert spec.circuit == "c432"
        assert spec.build_circuit().structural_hash() == (
            session.circuit("c432").structural_hash()
        )

    def test_unrepresentable_estimator_rejected_in_spec(self):
        from repro.analysis import MonteCarloDetectionEstimator

        session = _small_session(estimator=MonteCarloDetectionEstimator(n_samples=8))
        session.add(alu_circuit(width=2), key="c")
        with pytest.raises(ValueError, match="spec name"):
            session.spec("c")

    def test_run_still_works_with_custom_estimator(self):
        """A session-only estimator override cannot be named in a spec, but
        run() (the in-process path) must keep using it."""
        from repro.analysis import MonteCarloDetectionEstimator

        session = _small_session(
            estimator=MonteCarloDetectionEstimator(n_samples=64, fixed_seed=True)
        )
        key = session.add(alu_circuit(width=2))
        report = session.run(key, n_patterns=64)
        assert report.optimization is session.optimize(key)
        # The lenient spec names the nearest declarative estimator.
        assert session.spec(key, strict=False).analysis.estimator == "batched"

    def test_derived_stage_seeds_are_per_stage_and_per_circuit(self):
        from repro.api import derive_seed

        session = _small_session(seed=1987)
        k1 = session.add(alu_circuit(width=2), key="one")
        k2 = session.add(s1_comparator(width=4), key="two")
        assert session.stage_seed("fault_sim", k1) == derive_seed(1987, "fault_sim", k1)
        assert session.stage_seed("fault_sim", k1) != session.stage_seed("fault_sim", k2)
        assert session.stage_seed("fault_sim", k1) != session.stage_seed("self_test", k1)

    def test_self_test_default_seed_is_derived(self):
        session = _small_session()
        key = session.add(s1_comparator(width=4))
        default = session.self_test_session(key, 64)
        explicit = session.self_test_session(
            key, 64, seed=session.stage_seed("self_test", key)
        )
        assert default is explicit  # same cache entry: same derived seed

    def test_run_report_round_trips_through_json(self):
        import json

        session = _small_session()
        key = session.add(alu_circuit(width=2))
        report = session.run(key, n_patterns=128)
        wire = json.loads(json.dumps(report.to_dict()))
        assert PipelineReport.from_dict(wire).canonical_dict() == report.canonical_dict()


class TestPipelineReport:
    def test_run_produces_consistent_report(self):
        session = _small_session()
        key = session.add(s1_comparator(width=4))
        report = session.run(key, n_patterns=256)
        assert isinstance(report, PipelineReport)
        assert report.key == key
        assert report.n_faults == len(session.faults(key))
        assert report.optimized_length <= report.conventional_length
        assert report.improvement_factor >= 1.0
        assert 0.0 <= report.conventional_coverage <= 100.0
        assert 0.0 <= report.optimized_coverage <= 100.0
        assert report.optimized_coverage >= report.conventional_coverage
        assert report.quantized_weights.shape == (session.circuit(key).n_inputs,)
        assert report.lowerings <= 1
        assert report.optimization is session.optimize(key)
        summary = report.summary()
        assert session.circuit(key).name in summary
