"""Tests for the in-process pipeline front door.

A pipeline runs as ``execute_spec(PipelineSpec(...), store=...)``; the spec
takes an in-memory :class:`~repro.circuit.Circuit` as readily as a registry
key.  The central claims: a store holds exactly what the specs run against
it compute, and the lowered-circuit IR is compiled exactly once per circuit
across all pipeline stages, including repeated runs and isomorphic circuit
rebuilds.
"""

import pytest

from repro import PipelineReport, SelfTestSession
from repro.analysis import remove_redundant
from repro.api import PipelineSpec, build_plan, execute_spec, executor_stats
from repro.api.spec import FaultSimConfig, MultiWeightConfig, OptimizeConfig, SelfTestConfig
from repro.circuits import alu_circuit, s1_comparator
from repro.faults import collapsed_fault_list
from repro.lowered import compile_count, compile_lowered
from repro.store import MemoryStore


def _canonical(store, key):
    """A stored artifact without its volatile fields (timings, counts)."""
    from repro.api import scrub_volatile

    return scrub_volatile(store.get(key))


def _small_spec(circuit, n_patterns=128, max_sweeps=2, **fields):
    """A full pipeline spec on a small budget (2 sweeps by default)."""
    return PipelineSpec(
        circuit=circuit,
        optimize=OptimizeConfig(max_sweeps=max_sweeps),
        fault_sim=FaultSimConfig(n_patterns=n_patterns),
        **fields,
    )


class TestCompileReuse:
    def test_one_lowering_across_all_stages(self):
        spec = _small_spec(
            alu_circuit(width=2),
            self_test=SelfTestConfig(n_patterns=64, inject_hardest=True),
            multi_weight=MultiWeightConfig(k=2),
        )
        before = compile_count()
        report = execute_spec(spec)
        # Every stage consumed one lowering (none when the content-addressed
        # cache already held the structure from an earlier isomorphic build).
        delta = compile_count() - before
        assert delta <= 1
        assert report.lowerings == delta

    def test_run_compiles_once_per_circuit(self):
        specs = [
            _small_spec(alu_circuit(width=2), key="alu"),
            _small_spec(s1_comparator(width=4), key="cmp"),
        ]
        store = MemoryStore()
        before = compile_count()
        reports = [execute_spec(spec, store=store) for spec in specs]
        assert [r.key for r in reports] == ["alu", "cmp"]
        # At most one lowering per circuit (fewer when the content-addressed
        # cache already held a structure from an earlier isomorphic build).
        delta = compile_count() - before
        assert delta <= 2
        assert sum(r.lowerings for r in reports) == delta
        # A second full run through the same store is served from it entirely.
        for spec in specs:
            execute_spec(spec, store=store)
        assert compile_count() == before + delta

    def test_isomorphic_rebuild_hits_content_cache(self):
        compile_lowered(alu_circuit(width=2))
        before = compile_count()
        compile_lowered(alu_circuit(width=2))
        assert compile_count() == before  # cache hit, not a compile


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


class TestSpecRuns:
    """In-process runs are specs: what runs is what the spec describes."""

    def test_derived_stage_seeds_are_per_stage_and_per_circuit(self):
        from repro.api import derive_seed

        one = PipelineSpec(circuit=alu_circuit(width=2), key="one", seed=1987)
        two = PipelineSpec(circuit=s1_comparator(width=4), key="two", seed=1987)
        assert one.stage_seed("fault_sim") == derive_seed(1987, "fault_sim", "one")
        assert one.stage_seed("fault_sim") != two.stage_seed("fault_sim")
        assert one.stage_seed("fault_sim") != one.stage_seed("self_test")

    def test_repeated_run_on_a_store_is_a_store_read(self):
        spec = _small_spec(alu_circuit(width=2))
        store = MemoryStore()
        report = execute_spec(spec, store=store)
        assert report.canonical_dict() == execute_spec(spec).canonical_dict()
        stored = store.load(build_plan(spec).report_key)
        assert stored.canonical_dict() == report.canonical_dict()
        # A repeated run is a store read: no stage executes.
        before = executor_stats()
        again = execute_spec(spec, store=store)
        assert executor_stats() == before
        assert again.canonical_dict() == report.canonical_dict()

    def test_shared_store_holds_only_what_each_spec_computes(self, tmp_path):
        """Two c432 specs that differ only in ``max_sweeps``, run against one
        disk store, leave exactly the keys and artifacts that each spec
        writes into a fresh store of its own."""
        from repro.circuits import build_circuit
        from repro.store import DiskStore

        shared = DiskStore(tmp_path / "store")
        fresh_keys = set()
        for max_sweeps in (2, 3):
            spec = _small_spec(
                build_circuit("c432"),
                n_patterns=256,
                max_sweeps=max_sweeps,
                key="c432",
                self_test=SelfTestConfig(n_patterns=256, inject_hardest=True),
                multi_weight=MultiWeightConfig(k=2),
            )
            execute_spec(spec, store=shared)
            fresh = MemoryStore()
            execute_spec(spec, store=fresh)
            fresh_keys |= set(fresh.keys())
            for stored_key in fresh.keys():
                assert _canonical(shared, stored_key) == _canonical(
                    fresh, stored_key
                ), stored_key

        assert sorted(shared.keys()) == sorted(fresh_keys)

    def test_run_report_round_trips_through_json(self):
        import json

        report = execute_spec(_small_spec(alu_circuit(width=2)))
        wire = json.loads(json.dumps(report.to_dict()))
        assert PipelineReport.from_dict(wire).canonical_dict() == report.canonical_dict()


class TestPipelineReport:
    def test_run_produces_consistent_report(self):
        circuit = s1_comparator(width=4)
        report = execute_spec(_small_spec(circuit, n_patterns=256))
        assert isinstance(report, PipelineReport)
        assert report.key == circuit.name
        # The default fault list: collapsed, then redundancy-filtered.
        expected = remove_redundant(circuit, collapsed_fault_list(circuit))
        assert report.n_faults == len(expected)
        assert report.optimized_length <= report.conventional_length
        assert report.improvement_factor >= 1.0
        assert 0.0 <= report.conventional_coverage <= 100.0
        assert 0.0 <= report.optimized_coverage <= 100.0
        assert report.optimized_coverage >= report.conventional_coverage
        assert report.quantized_weights.shape == (circuit.n_inputs,)
        assert report.lowerings <= 1
        assert report.optimized_length == report.optimization.test_length
        summary = report.summary()
        assert circuit.name in summary
