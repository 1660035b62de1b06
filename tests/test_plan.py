"""Tests for the planning layer and the spec-hash stability contract.

Satellite: the golden hash vectors below pin ``spec_hash()`` for
registry/file/generator specs — any change to spec canonicalization that
perturbs them invalidates every existing artifact store and must be a
deliberate, schema-versioned decision, not drift.  The volatile-field tests
prove that timings, compile counts and stats never reach a content hash.
"""

import sys
from pathlib import Path

import pytest

from repro.api import (
    PipelineSpec,
    build_plan,
    content_hash,
    execute_spec,
    report_store_key,
    scrub_volatile,
)
from repro.api.plan import ExecutionPlan, StagePlan
from repro.api.serialize import SchemaError
from repro.api.spec import (
    AnalysisConfig,
    FaultSimConfig,
    MultiWeightConfig,
    OptimizeConfig,
    QuantizeConfig,
    SelfTestConfig,
)
from repro.store import MemoryStore, check_store_key

#: The committed ISCAS fixture; the file-spec golden hashes its *text* form,
#: so the vector breaks if either canonicalization or the fixture drifts.
C17_TEXT = (Path(__file__).parent.parent / "examples" / "c17.bench").read_text()

#: Golden spec-hash vectors.  Computed once from the canonical wire form;
#: committed so canonicalization drift is caught, not silently absorbed.
GOLDEN_HASHES = {
    "s1_default": (
        dict(circuit="s1"),
        "595716fb592f5d4a539ee6df2d2167f40eec0ddd472e17dfc2541e855b8a72b0",
    ),
    "s1_tuned": (
        dict(
            circuit="s1",
            seed=2024,
            optimize=OptimizeConfig(max_sweeps=2),
            fault_sim=FaultSimConfig(n_patterns=256),
        ),
        "e8e88a34ff00af722586952384a39933ea75702428a7bbfaafb7f4662065eeeb",
    ),
    "c17_file_text": (
        dict(circuit={"kind": "file", "text": C17_TEXT}),
        "176e1f912db387bd25a93c3b2c666adb8d41b3d3d2dff62f68095852165c8827",
    ),
    "generator": (
        dict(
            circuit={
                "kind": "generator",
                "n_inputs": 8,
                "n_gates": 64,
                "depth": 6,
                "seed": 7,
            }
        ),
        "c9b7149ec95ae00febbcc3ed85852400164e73b561ea2a7cc7e0889e4b8d3b26",
    ),
}


#: Golden ``build_plan(spec).store_keys()`` for the golden specs plus one
#: with ``self_test`` and ``multi_weight`` set.  The stage keys hash the
#: stage configs' wire form (``analysis.to_dict()``, ``fault_sim.to_dict()``),
#: so these pin every stored artifact's address, not only the report's.
_SELF_TEST_MULTI_WEIGHT = dict(
    circuit="s1",
    self_test=SelfTestConfig(n_patterns=256),
    multi_weight=MultiWeightConfig(k=2, budget=512),
)

GOLDEN_STORE_KEYS = {
    "s1_default": {
        "report": "pipeline_report/595716fb592f5d4a539ee6df2d2167f40eec0ddd472e17dfc2541e855b8a72b0",
        "optimize.result": "stage_optimize/73d97efb41d710d5ebb040db83ff965113e792e0904a0d65c7890c2a64920825",
        "fault_sim.conventional": "stage_fault_sim/91d87eea2be54f3ea4e4c2733c9348430c2eedac9f8a620d4b67a85d63a1922c",
        "fault_sim.optimized": "stage_fault_sim/533d38a764e4b34dbddf5c275974a51777b938acf28f2792b354497dbe158af0",
    },
    "s1_tuned": {
        "report": "pipeline_report/e8e88a34ff00af722586952384a39933ea75702428a7bbfaafb7f4662065eeeb",
        "optimize.result": "stage_optimize/10ac1141feeed90b16e818b635d979bdce7cf7befbc7c307af989319f549d416",
        "fault_sim.conventional": "stage_fault_sim/aea4067f0d7c5d5d07cad484325ffb5753fdb77ba8d910b7b4dc15d77ffe4edf",
        "fault_sim.optimized": "stage_fault_sim/e42df9826966ab0bfd57f13f28d0280a1eed04f18a2204f8461a3dde97bafc38",
    },
    "c17_file_text": {
        "report": "pipeline_report/176e1f912db387bd25a93c3b2c666adb8d41b3d3d2dff62f68095852165c8827",
        "optimize.result": "stage_optimize/2fef8f790e1b880b13c649fda7f1eede43d49f11bb668f24bdc08ce7fd738870",
        "fault_sim.conventional": "stage_fault_sim/fa354994b45d398683ec3d839b27d738f335b0685b9060a317074dd62739137b",
        "fault_sim.optimized": "stage_fault_sim/45d5e8370a6099f27fb35407816dd2a830c3243ff4c01f18398fe260d4526ffa",
    },
    "generator": {
        "report": "pipeline_report/c9b7149ec95ae00febbcc3ed85852400164e73b561ea2a7cc7e0889e4b8d3b26",
        "optimize.result": "stage_optimize/8da266709a75c65e60e8b9fda9f75ab8e1d1e5cc9a3174b70a24d62f07d7a7b3",
        "fault_sim.conventional": "stage_fault_sim/326e8c9f6467c65abe09dd7fd0812c7c66a149daeabdca52ae1778ab32df921c",
        "fault_sim.optimized": "stage_fault_sim/b77dbc27135e3584a7e44489892cfd17033ae432e8b33c66b741ec1cea594caf",
    },
    "self_test_multi_weight": {
        "report": "pipeline_report/2ef37615c513b079ba427bc1c59d2bfea4931db1373628e1e8edf318a240205c",
        "optimize.result": "stage_optimize/73d97efb41d710d5ebb040db83ff965113e792e0904a0d65c7890c2a64920825",
        "fault_sim.conventional": "stage_fault_sim/91d87eea2be54f3ea4e4c2733c9348430c2eedac9f8a620d4b67a85d63a1922c",
        "fault_sim.optimized": "stage_fault_sim/533d38a764e4b34dbddf5c275974a51777b938acf28f2792b354497dbe158af0",
        "multi_weight.weight_sets": "stage_multi_weight/5a302f924f71a9148b862b5c9610027a2fd58472a4388f199716eeddec08a1ef",
        "multi_weight.result": "stage_multi_weight_report/e44df2c6c5981e4cac68e32287d64eefa75a661f5a948b6b2a4128c8f4e41b97",
    },
}


def _golden_spec_kwargs(name):
    if name == "self_test_multi_weight":
        return _SELF_TEST_MULTI_WEIGHT
    return GOLDEN_HASHES[name][0]


class TestSpecHashGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_STORE_KEYS))
    def test_golden_store_keys(self, name):
        plan = build_plan(PipelineSpec(**_golden_spec_kwargs(name)))
        assert plan.store_keys() == GOLDEN_STORE_KEYS[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
    def test_golden_vector(self, name):
        kwargs, expected = GOLDEN_HASHES[name]
        assert PipelineSpec(**kwargs).spec_hash() == expected

    def test_hash_is_stable_across_round_trips(self):
        for kwargs, expected in GOLDEN_HASHES.values():
            spec = PipelineSpec(**kwargs)
            assert PipelineSpec.from_dict(spec.to_dict()).spec_hash() == expected

    def test_equal_specs_hash_equal_distinct_specs_differ(self):
        hashes = {PipelineSpec(**kwargs).spec_hash() for kwargs, _ in GOLDEN_HASHES.values()}
        assert len(hashes) == len(GOLDEN_HASHES)
        assert PipelineSpec(circuit="s1").spec_hash() == PipelineSpec(circuit="s1").spec_hash()
        assert (
            PipelineSpec(circuit="s1", seed=1).spec_hash()
            != PipelineSpec(circuit="s1", seed=2).spec_hash()
        )

    def test_python_hash_tracks_spec_hash(self):
        a, b = PipelineSpec(circuit="s1"), PipelineSpec(circuit="s1")
        assert hash(a) == hash(b)
        assert len({a, b}) == 1  # usable as a dedup set member


class TestVolatileScrubbing:
    """Volatile fields (timings, compile counts) never perturb a hash."""

    def test_report_hash_invariant_under_volatile_fields(self):
        spec = PipelineSpec(
            circuit="s1",
            optimize=OptimizeConfig(max_sweeps=2),
            fault_sim=FaultSimConfig(n_patterns=64),
        )
        report = execute_spec(spec)
        data = report.to_dict()
        baseline = content_hash(data)
        perturbed = dict(data)
        perturbed["seconds"] = 1e9
        perturbed["lowerings"] = 42
        assert content_hash(perturbed) == baseline
        # ... and canonical_dict equality agrees with the hash.
        from repro.pipeline import PipelineReport

        assert (
            PipelineReport.from_dict(perturbed).canonical_dict()
            == report.canonical_dict()
        )

    def test_scrub_only_touches_tagged_dicts(self):
        data = {
            "kind": "x",
            "seconds": 1.5,
            "weight_map": {"seconds": 0.25},  # a net literally named "seconds"
            "nested": [{"kind": "y", "cpu_seconds": 2.0, "value": 1}],
        }
        scrubbed = scrub_volatile(data)
        assert "seconds" not in scrubbed
        assert scrubbed["weight_map"] == {"seconds": 0.25}
        assert scrubbed["nested"] == [{"kind": "y", "value": 1}]

    def test_content_hash_ignores_key_order(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})


def spec_naming_backend(config, backend, allow_fallback=False):
    """A small s1 spec wire dict whose ``config`` stage names ``backend``."""
    data = PipelineSpec(
        circuit="s1",
        optimize=OptimizeConfig(max_sweeps=1),
        fault_sim=FaultSimConfig(n_patterns=64),
    ).to_dict()
    data[config] = {
        **data[config],
        "backend": backend,
        "allow_fallback": allow_fallback,
    }
    return data


class TestRemovedBackendWire:
    """The kernel-backend choice is gone; its two wire fields stay constant."""

    @pytest.mark.parametrize("config", [AnalysisConfig(), FaultSimConfig()])
    def test_configs_write_the_wire_constants(self, config):
        payload = config.to_dict()
        assert payload["backend"] is None
        assert payload["allow_fallback"] is False
        assert not hasattr(config, "backend")
        assert type(config).from_dict(payload) == config

    def test_payload_without_wire_fields_loads(self):
        payload = FaultSimConfig(n_patterns=100).to_dict()
        for key in ("backend", "allow_fallback", "partition_size"):
            del payload[key]
        assert FaultSimConfig.from_dict(payload) == FaultSimConfig(n_patterns=100)

    @pytest.mark.parametrize("config", ["analysis", "fault_sim"])
    @pytest.mark.parametrize("backend", ["numba", "cuda", 3])
    def test_other_backends_raise_schema_error(self, config, backend):
        with pytest.raises(SchemaError, match=f"backend {backend!r} was removed"):
            PipelineSpec.from_dict(spec_naming_backend(config, backend))

    @pytest.mark.parametrize("config", ["analysis", "fault_sim"])
    def test_non_bool_allow_fallback_raises_schema_error(self, config):
        with pytest.raises(SchemaError, match="allow_fallback"):
            PipelineSpec.from_dict(spec_naming_backend(config, None, "yes"))

    def test_numpy_backend_with_fallback_loads_and_runs(self):
        data = spec_naming_backend("analysis", "numpy", allow_fallback=True)
        data["fault_sim"] = {
            **data["fault_sim"],
            "backend": "numpy",
            "allow_fallback": True,
        }
        spec = PipelineSpec.from_dict(data)
        plain = PipelineSpec.from_dict(spec_naming_backend("analysis", None))
        assert spec == plain
        report = execute_spec(spec)
        assert report.canonical_dict() == execute_spec(plain).canonical_dict()
        assert report.optimized_coverage is not None


class TestBuildPlan:
    SPEC = dict(
        circuit="s1",
        optimize=OptimizeConfig(max_sweeps=2),
        fault_sim=FaultSimConfig(n_patterns=128),
    )

    def test_plan_is_pure_and_deterministic(self, monkeypatch):
        from repro.circuits.sources import CircuitSource
        from repro.faults import collapse
        from repro.lowered import compile_count

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(CircuitSource, "build", counted("build", CircuitSource.build))
        collapse_fn = collapse.collapsed_fault_list
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and vars(module).get("collapsed_fault_list") is collapse_fn:
                monkeypatch.setattr(
                    module, "collapsed_fault_list", counted("collapse", collapse_fn)
                )

        lowerings = compile_count()
        plan_a = build_plan(PipelineSpec(**self.SPEC))
        plan_b = build_plan(PipelineSpec(**self.SPEC))
        assert compile_count() == lowerings  # planned without lowering
        assert calls == []  # ... without building the circuit or its faults
        assert plan_a.store_keys() == plan_b.store_keys()
        assert isinstance(plan_a, ExecutionPlan)
        # The counters are live: executing the spec builds both.
        execute_spec(PipelineSpec(**self.SPEC))
        assert set(calls) == {"build", "collapse"}

    def test_stage_order_and_accessors(self):
        spec = PipelineSpec(
            circuit="s1", self_test=SelfTestConfig(n_patterns=64), **{
                k: v for k, v in self.SPEC.items() if k != "circuit"
            }
        )
        plan = build_plan(spec)
        assert [s.name for s in plan.stages] == [
            "analysis",
            "optimize",
            "quantize",
            "fault_sim",
            "self_test",
        ]
        assert isinstance(plan.stage("optimize"), StagePlan)
        assert plan.stage("self_test").seed == spec.stage_seed("self_test")
        with pytest.raises(ValueError, match="unknown stage"):
            plan.stage("mystery")

    def test_skipped_stages_are_absent(self):
        plan = build_plan(
            PipelineSpec(circuit="s1", optimize=None, quantize=None, fault_sim=None)
        )
        assert [s.name for s in plan.stages] == ["analysis"]
        assert plan.stage("fault_sim") is None
        assert plan.n_patterns is None

    def test_report_key_matches_spec_hash(self):
        spec = PipelineSpec(**self.SPEC)
        plan = build_plan(spec)
        assert plan.report_key == report_store_key(spec.spec_hash())
        assert plan.spec_hash == spec.spec_hash()

    def test_all_store_keys_are_valid(self):
        plan = build_plan(PipelineSpec(**self.SPEC))
        keys = plan.store_keys()
        assert set(keys) == {
            "report",
            "optimize.result",
            "fault_sim.conventional",
            "fault_sim.optimized",
        }
        for key in keys.values():
            check_store_key(key)

    def test_optimize_key_shared_across_seeds_and_labels(self):
        """Optimization is deterministic: the stage key must not depend on
        seed or label, so differently-seeded specs share the artifact."""
        key_a = build_plan(PipelineSpec(seed=1, **self.SPEC)).stage("optimize")
        key_b = build_plan(PipelineSpec(seed=2, **self.SPEC)).stage("optimize")
        key_c = build_plan(PipelineSpec(key="other", **self.SPEC)).stage("optimize")
        assert key_a.store_keys == key_b.store_keys == key_c.store_keys

    def test_optimize_key_depends_on_quantize_config(self):
        """The cached OptimizationResult embeds quantized_weights at the
        spec's quantization step, so the step participates in the key."""
        from repro.api.spec import QuantizeConfig

        base = build_plan(PipelineSpec(**self.SPEC)).stage("optimize")
        stepped = build_plan(
            PipelineSpec(quantize=QuantizeConfig(step=0.125), **self.SPEC)
        ).stage("optimize")
        assert base.store_keys != stepped.store_keys

    def test_fault_sim_key_depends_on_seed_and_budget(self):
        def fs_keys(**overrides):
            kwargs = {**self.SPEC, **overrides}
            return build_plan(PipelineSpec(**kwargs)).stage("fault_sim").store_keys

        base = fs_keys()
        assert fs_keys(seed=2) != base  # derived seed participates
        assert fs_keys(fault_sim=FaultSimConfig(n_patterns=256)) != base
        # The conventional and weighted experiments never collide.
        assert base["conventional"] != base["optimized"]

    def test_circuit_ref_participates(self):
        base = build_plan(PipelineSpec(**self.SPEC))
        other = build_plan(PipelineSpec(**{**self.SPEC, "circuit": "s2"}))
        assert base.stage("optimize").store_keys != other.stage("optimize").store_keys
        assert base.report_key != other.report_key


#: A small spec declaring every stage, and single-field perturbations of it.
_EVERY_STAGE = dict(
    circuit="s1",
    optimize=OptimizeConfig(max_sweeps=2),
    fault_sim=FaultSimConfig(n_patterns=128),
    self_test=SelfTestConfig(n_patterns=64, inject_hardest=True),
    multi_weight=MultiWeightConfig(k=2, budget=512),
)

_PERTURBATIONS = {
    "base": {},
    "seed": dict(seed=2),
    "n_patterns": dict(fault_sim=FaultSimConfig(n_patterns=256)),
    "analysis.partition_size": dict(analysis=AnalysisConfig(partition_size=7)),
    "fault_sim.partition_size": dict(
        fault_sim=FaultSimConfig(n_patterns=128, partition_size=7)
    ),
    "fault_sim.target_coverage": dict(
        fault_sim=FaultSimConfig(n_patterns=128, target_coverage=0.9)
    ),
    "lfsr_resolution": dict(quantize=QuantizeConfig(lfsr_resolution=4)),
    "step": dict(quantize=QuantizeConfig(step=0.1)),
    "misr_width": dict(
        self_test=SelfTestConfig(n_patterns=64, inject_hardest=True, misr_width=20)
    ),
    "k": dict(multi_weight=MultiWeightConfig(k=3, budget=512)),
    "budget": dict(multi_weight=MultiWeightConfig(k=2, budget=1024)),
    "multi_weight.target_coverage": dict(
        multi_weight=MultiWeightConfig(k=2, budget=512, target_coverage=0.9)
    ),
    "scan_chains": dict(multi_weight=MultiWeightConfig(k=2, budget=512, scan_chains=2)),
}


class TestStoreKeysSoundAndComplete:
    """Every store key names exactly one artifact, and the plan names every
    key a run writes."""

    @pytest.fixture(scope="class")
    def cold_runs(self):
        runs = {}
        for name, overrides in _PERTURBATIONS.items():
            spec = PipelineSpec(**{**_EVERY_STAGE, **overrides})
            store = MemoryStore()
            execute_spec(spec, store=store)
            runs[name] = (spec, store)
        return runs

    def test_a_shared_key_holds_one_payload(self, cold_runs):
        first = {}
        for name, (_, store) in cold_runs.items():
            for key in store.keys():
                if key.startswith("pipeline_report/"):
                    continue
                payload = scrub_volatile(store.get(key))
                owner, expected = first.setdefault(key, (name, payload))
                assert payload == expected, f"{key}: {owner} and {name} differ"
        # The perturbations do share stage artifacts (optimize at least).
        assert len(first) < sum(len(store.keys()) - 1 for _, store in cold_runs.values())

    def test_a_cold_run_writes_exactly_the_planned_keys(self, cold_runs):
        for name, (spec, store) in cold_runs.items():
            assert set(store.keys()) == set(build_plan(spec).store_keys().values()), name

    @pytest.mark.parametrize(
        "variant",
        [
            "misr_width",
            "fault_sim.partition_size",
            "multi_weight.target_coverage",
            "scan_chains",
        ],
    )
    def test_weight_sets_ignore_what_only_the_session_reads(self, variant, monkeypatch):
        """The MISR override, the coverage run's partition size and stop
        target and the scan delivery reach the multi-weight report, not the
        weight sets: a variant spec reuses the stored sets and still reports
        what a fresh run reports."""
        import repro.api.plan as plan_module

        store = MemoryStore()
        base = PipelineSpec(**_EVERY_STAGE)
        execute_spec(base, store=store)
        spec = PipelineSpec(**{**_EVERY_STAGE, **_PERTURBATIONS[variant]})
        keys = build_plan(spec).store_keys()
        assert keys["multi_weight.weight_sets"] in store.keys()
        assert keys["multi_weight.result"] not in store.keys()

        calls = []
        original = plan_module.build_weight_sets

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(plan_module, "build_weight_sets", counted)
        warm = execute_spec(spec, store=store)
        assert calls == []
        assert warm.canonical_dict() == execute_spec(spec).canonical_dict()
