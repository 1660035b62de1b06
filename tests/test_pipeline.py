"""Tests for the pipeline façade (:class:`repro.pipeline.Session`).

A session registers circuits, translates its kwargs into a spec and runs
that spec through :func:`repro.api.execute_spec` against its store.  The
central claims: every session state is a spec (so the store it writes is
exactly what the spec computes), and the lowered-circuit IR is compiled
exactly once per circuit across all pipeline stages, including repeated
runs and isomorphic circuit rebuilds.
"""

import pytest

from repro import PipelineReport, SelfTestSession, Session
from repro.analysis import remove_redundant
from repro.api import PipelineSpec, build_plan, execute_spec, executor_stats
from repro.api.spec import MultiWeightConfig, SelfTestConfig
from repro.circuits import alu_circuit, s1_comparator
from repro.faults import collapsed_fault_list
from repro.lowered import compile_count


def _canonical(store, key):
    """A stored artifact without its volatile fields (timings, counts)."""
    from repro.api import scrub_volatile

    return scrub_volatile(store.get(key))


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

class TestCompileReuse:
    def test_one_lowering_across_all_stages(self):
        session = _small_session()
        key = session.add(alu_circuit(width=2))
        before = compile_count()
        report = session.run(
            key,
            n_patterns=128,
            self_test=SelfTestConfig(n_patterns=64, inject_hardest=True),
            multi_weight=MultiWeightConfig(k=2),
        )
        # Every stage consumed one lowering (none when the content-addressed
        # cache already held the structure from an earlier isomorphic build).
        delta = compile_count() - before
        assert delta <= 1
        assert report.lowerings == delta
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


class TestSelfTestStage:
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

        def spec(**misr):
            return PipelineSpec(
                circuit=circuit,
                optimize=None,
                quantize=None,
                fault_sim=None,
                self_test=SelfTestConfig(n_patterns=8, weighted=False, **misr),
            )

        with pytest.raises(ValueError, match="misr_width"):
            execute_spec(spec())
        report = execute_spec(spec(misr_width=65, misr_taps=(65, 47)))
        assert report.self_test.passed

    def test_multi_weight_stage_uses_the_self_test_misr_override(self):
        """A spec has one signature register: the self-test stage's MISR
        override also compacts the multi-weight schedule (and joins its store
        keys), so a wide circuit runs both stages."""
        from repro.circuit import CircuitBuilder
        from repro.wrp import run_multi_weight_session

        builder = CircuitBuilder("wide4")
        a, b, c, d = (builder.input(name) for name in "abcd")
        for k in range(65):
            gate = (builder.and_, builder.or_, builder.xor)[k % 3]
            builder.output(gate((a, b, c, d)[k % 4], (a, b, c, d)[(k + 1) % 4]), f"o{k}")
        circuit = builder.build()

        def spec(**misr):
            return PipelineSpec(
                circuit=circuit,
                fault_sim=None,
                self_test=SelfTestConfig(n_patterns=64, **misr),
                multi_weight=MultiWeightConfig(k=2),
            )

        with pytest.raises(ValueError, match=r"self_test\.misr_width"):
            execute_spec(spec())
        wide = spec(misr_width=65, misr_taps=(65, 47))
        report = execute_spec(wide)
        assert report.self_test.passed
        assert report.multi_weight.self_test.passed
        direct = run_multi_weight_session(
            circuit, report.multi_weight.weight_sets, misr_width=65, misr_taps=(65, 47)
        )
        assert report.multi_weight.self_test == direct.self_test
        plain_keys = build_plan(spec()).stage("multi_weight").store_keys
        wide_keys = build_plan(wide).stage("multi_weight").store_keys
        assert set(plain_keys) == set(wide_keys)
        assert all(plain_keys[name] != wide_keys[name] for name in plain_keys)

    def test_weighted_self_test_detects_fault_missed_by_plain(self):
        """Section 5.2 end to end: weights biased toward A == B expose a
        random-pattern-resistant fault that the equiprobable session of the
        same length misses."""
        from repro import Fault

        circuit = s1_comparator(width=12)
        fault = Fault(circuit.net_index("a_eq_b"), False)  # needs A == B
        n_patterns = 200
        plain = SelfTestSession(circuit, n_patterns, seed=3).run(fault)
        weighted = SelfTestSession(
            circuit, n_patterns, weights=[0.9] * circuit.n_inputs, seed=3
        ).run(fault)
        assert plain.passed  # fault missed: signature equals golden
        assert not weighted.passed  # fault detected


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

    def test_estimator_objects_rejected(self):
        """A session names its estimator the way a spec does; an object a
        spec cannot name is refused up front instead of executing outside
        every spec."""
        from repro.analysis import MonteCarloDetectionEstimator

        with pytest.raises(ValueError, match="estimator"):
            Session(estimator=MonteCarloDetectionEstimator(n_samples=8))
        with pytest.raises(ValueError, match="estimator"):
            Session(estimator="montecarlo")
        session = _small_session(estimator="scalar")
        session.add(alu_circuit(width=2), key="c")
        assert session.spec("c").analysis.estimator == "scalar"

    def test_derived_stage_seeds_are_per_stage_and_per_circuit(self):
        from repro.api import derive_seed

        session = _small_session(seed=1987)
        k1 = session.add(alu_circuit(width=2), key="one")
        k2 = session.add(s1_comparator(width=4), key="two")
        one, two = session.spec(k1), session.spec(k2)
        assert one.stage_seed("fault_sim") == derive_seed(1987, "fault_sim", k1)
        assert one.stage_seed("fault_sim") != two.stage_seed("fault_sim")
        assert one.stage_seed("fault_sim") != one.stage_seed("self_test")

    def test_run_is_execute_spec_on_the_session_store(self):
        session = _small_session()
        key = session.add(alu_circuit(width=2))
        report = session.run(key, n_patterns=128)
        spec = session.spec(key, n_patterns=128)
        assert report.canonical_dict() == execute_spec(spec).canonical_dict()
        stored = session.store.load(build_plan(spec).report_key)
        assert stored.canonical_dict() == report.canonical_dict()
        # A repeated run is a store read: no stage executes.
        before = executor_stats()
        again = session.run(key, n_patterns=128)
        assert executor_stats() == before
        assert again.canonical_dict() == report.canonical_dict()

    def test_session_store_holds_only_what_the_spec_computes(self, tmp_path):
        """Every artifact a session writes is the one a fresh execution of
        its spec writes, under the same keys — also after the session's
        configuration changes between runs — so session state a spec does
        not describe cannot poison the store."""
        from repro.circuits import build_circuit
        from repro.store import DiskStore, MemoryStore

        session = Session(max_sweeps=2, store=DiskStore(tmp_path / "store"))
        key = session.add(build_circuit("c432"), key="c432")
        stages = dict(
            n_patterns=256,
            self_test=SelfTestConfig(n_patterns=256, inject_hardest=True),
            multi_weight=MultiWeightConfig(k=2),
        )
        fresh = MemoryStore()
        for max_sweeps in (2, 3):
            session.max_sweeps = max_sweeps
            session.run(key, **stages)
            execute_spec(session.spec(key, **stages), store=fresh)

        assert sorted(session.store.keys()) == sorted(fresh.keys())
        for stored_key in fresh.keys():
            assert _canonical(session.store, stored_key) == _canonical(
                fresh, stored_key
            ), stored_key

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
        assert report.optimized_length == report.optimization.test_length
        summary = report.summary()
        assert session.circuit(key).name in summary
