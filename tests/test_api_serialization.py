"""Round-trip tests for the job-spec API's specs and result artifacts.

Contract under test: every config and every report type serializes to a
plain dict that survives ``json.dumps`` → ``json.loads`` → ``from_dict``
**exactly** (numpy arrays bit for bit, not approximately), and every decoder
rejects unknown ``schema_version`` values and unknown fields loudly.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AnalysisConfig,
    FaultSimConfig,
    MultiWeightConfig,
    OptimizeConfig,
    PipelineSpec,
    QuantizeConfig,
    SchemaError,
    SelfTestConfig,
    execute_spec,
    load_artifact,
    row_from_dict,
    row_to_dict,
)
from repro.api.artifacts import experiment_rows_dict, report_batch_dict
from repro.api.serialize import decode_array, encode_array
from repro.circuit import Circuit
from repro.circuits import alu_circuit, s1_comparator
from repro.core import WeightOptimizer
from repro.faults import Fault, FaultTable, collapsed_fault_list
from repro.faultsim import random_pattern_coverage
from repro.faultsim.coverage import CoverageExperiment
from repro.patterns import SelfTestSession
from repro.pipeline import PipelineReport


def json_roundtrip(data):
    """The exact wire format: through the JSON text representation."""
    return json.loads(json.dumps(data))


ALL_CONFIGS = [
    AnalysisConfig(),
    AnalysisConfig(confidence=0.9, drop_redundant=False),
    OptimizeConfig(),
    OptimizeConfig(max_sweeps=3, alpha=0.1, bounds=(0.1, 0.9)),
    QuantizeConfig(),
    QuantizeConfig(step=0.1, lfsr_resolution=5),
    FaultSimConfig(),
    FaultSimConfig(n_patterns=512, target_coverage=0.9),
    SelfTestConfig(),
    SelfTestConfig(
        n_patterns=64,
        use_lfsr=False,
        weighted=False,
        misr_width=65,
        misr_taps=(65, 47),
        inject_hardest=True,
    ),
]


class TestConfigRoundTrips:
    @pytest.mark.parametrize(
        "config", ALL_CONFIGS, ids=[f"{type(c).__name__}-{i}" for i, c in enumerate(ALL_CONFIGS)]
    )
    def test_json_roundtrip_is_exact(self, config):
        restored = type(config).from_dict(json_roundtrip(config.to_dict()))
        assert restored == config

    @pytest.mark.parametrize("config", ALL_CONFIGS[::2])
    def test_unknown_schema_version_rejected(self, config):
        data = config.to_dict()
        data["schema_version"] = 999
        with pytest.raises(SchemaError, match="schema_version"):
            type(config).from_dict(data)

    @pytest.mark.parametrize("config", ALL_CONFIGS[::2])
    def test_unknown_field_rejected(self, config):
        data = config.to_dict()
        data["definitely_not_a_field"] = 1
        with pytest.raises(SchemaError, match="unknown fields"):
            type(config).from_dict(data)

    def test_wrong_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            OptimizeConfig.from_dict(AnalysisConfig().to_dict())

    def test_invalid_values_rejected_at_construction(self):
        with pytest.raises(ValueError):
            AnalysisConfig(confidence=1.5)
        with pytest.raises(ValueError):
            OptimizeConfig(max_sweeps=0)
        with pytest.raises(ValueError):
            OptimizeConfig(bounds=(0.9, 0.1))
        with pytest.raises(ValueError):
            QuantizeConfig(lfsr_resolution=99)
        with pytest.raises(ValueError):
            FaultSimConfig(n_patterns=-1)
        with pytest.raises(ValueError):
            SelfTestConfig(n_patterns=0)
        # Schedule lengths are capped at MAX_SCHEDULE_PATTERNS = 2**20.
        SelfTestConfig(n_patterns=1 << 20)
        MultiWeightConfig(budget=1 << 20)
        with pytest.raises(ValueError, match="MAX_SCHEDULE_PATTERNS"):
            SelfTestConfig(n_patterns=(1 << 20) + 1)
        with pytest.raises(ValueError, match="MAX_SCHEDULE_PATTERNS"):
            MultiWeightConfig(budget=(1 << 20) + 1)


class TestSpecRoundTrips:
    def test_registry_reference_spec(self):
        spec = PipelineSpec(
            circuit="s1",
            seed=42,
            optimize=OptimizeConfig(max_sweeps=2),
            self_test=SelfTestConfig(n_patterns=128),
        )
        assert PipelineSpec.from_dict(json_roundtrip(spec.to_dict())) == spec

    def test_inline_netlist_spec(self):
        circuit = alu_circuit(width=2)
        spec = PipelineSpec(circuit=circuit.to_dict(), key="inline", fault_sim=None)
        restored = PipelineSpec.from_dict(json_roundtrip(spec.to_dict()))
        assert restored == spec
        assert restored.build_circuit().structural_hash() == circuit.structural_hash()

    def test_specs_are_hashable_for_dedup(self):
        inline = PipelineSpec(circuit=alu_circuit(width=2).to_dict(), fault_sim=None)
        rebuilt = PipelineSpec(circuit=alu_circuit(width=2).to_dict(), fault_sim=None)
        registry = PipelineSpec(circuit="s1")
        assert hash(inline) == hash(rebuilt) and inline == rebuilt
        assert len({inline, rebuilt, registry}) == 2

    def test_stage_chain_validation(self):
        with pytest.raises(ValueError, match="quantize"):
            PipelineSpec(circuit="s1", optimize=None, quantize=QuantizeConfig())
        with pytest.raises(ValueError, match="weighted self test"):
            PipelineSpec(
                circuit="s1",
                optimize=None,
                quantize=None,
                self_test=SelfTestConfig(weighted=True),
            )

    def test_bad_circuit_reference_rejected(self):
        with pytest.raises(ValueError):
            PipelineSpec(circuit="")
        with pytest.raises(ValueError):
            PipelineSpec(circuit={"name": "incomplete"})
        with pytest.raises(ValueError):
            PipelineSpec(circuit=42)

    def test_unknown_version_and_fields_rejected(self):
        data = PipelineSpec(circuit="s1").to_dict()
        with pytest.raises(SchemaError):
            PipelineSpec.from_dict({**data, "schema_version": 0})
        with pytest.raises(SchemaError):
            PipelineSpec.from_dict({**data, "surprise": True})

    def test_non_string_key_rejected(self):
        with pytest.raises(ValueError, match="key must be a str"):
            PipelineSpec(circuit="s1", key=5)
        data = PipelineSpec(circuit="s1").to_dict()
        with pytest.raises(SchemaError, match="key must be a str or None, got 5"):
            PipelineSpec.from_dict({**data, "key": 5})

    def test_scalar_estimator_raises_schema_error(self):
        """The estimator switch is gone: every spec runs the batched COP
        engine, and a payload naming the scalar one is a typed error."""
        data = PipelineSpec(circuit="s1").to_dict()
        data["analysis"] = {**data["analysis"], "estimator": "scalar"}
        with pytest.raises(SchemaError, match="estimator 'scalar' was removed"):
            PipelineSpec.from_dict(data)

    def test_batched_estimator_payload_round_trips(self):
        config = AnalysisConfig(confidence=0.99)
        payload = json_roundtrip(config.to_dict())
        assert payload["estimator"] == "batched"
        assert not hasattr(config, "estimator")
        assert AnalysisConfig.from_dict(payload) == config
        assert AnalysisConfig.from_dict(payload).to_dict() == payload

    def test_minimal_spec_dict_gets_constructor_stage_defaults(self):
        """A hand-written minimal spec runs the same pipeline as
        PipelineSpec(circuit=...): absent stage fields mean the default, an
        explicit null skips the stage."""
        minimal = PipelineSpec.from_dict(
            {"kind": "pipeline_spec", "schema_version": 1, "circuit": "s1", "seed": 3}
        )
        assert minimal == PipelineSpec(circuit="s1", seed=3)
        assert minimal.optimize is not None and minimal.fault_sim is not None
        skipped = PipelineSpec.from_dict(
            {
                "kind": "pipeline_spec",
                "schema_version": 1,
                "circuit": "s1",
                "seed": 3,
                "optimize": None,
                "quantize": None,
                "fault_sim": None,
            }
        )
        assert skipped.optimize is None and skipped.fault_sim is None


class TestCircuitDictRoundTrip:
    def test_exact_roundtrip(self):
        circuit = s1_comparator(width=6)
        restored = Circuit.from_dict(json_roundtrip(circuit.to_dict()))
        assert restored.name == circuit.name
        assert restored.net_names == circuit.net_names
        assert restored.inputs == circuit.inputs
        assert restored.outputs == circuit.outputs
        assert restored.gates == circuit.gates
        assert restored.structural_hash() == circuit.structural_hash()

    def test_missing_and_unknown_fields_rejected(self):
        data = alu_circuit(width=2).to_dict()
        incomplete = {k: v for k, v in data.items() if k != "gates"}
        with pytest.raises(ValueError, match="missing"):
            Circuit.from_dict(incomplete)
        with pytest.raises(ValueError, match="unknown"):
            Circuit.from_dict({**data, "extra": 1})

    def test_malformed_gate_entries_rejected(self):
        data = alu_circuit(width=2).to_dict()
        extra_element = dict(data)
        extra_element["gates"] = data["gates"][:-1] + [data["gates"][-1] + [[3]]]
        with pytest.raises(ValueError, match="gate entry"):
            Circuit.from_dict(extra_element)
        truncated = dict(data)
        truncated["gates"] = data["gates"][:-1] + [data["gates"][-1][:2]]
        with pytest.raises(ValueError, match="gate entry"):
            Circuit.from_dict(truncated)


class TestFaultEncoding:
    @pytest.mark.parametrize(
        "fault", [Fault(3, False), Fault(7, True, gate=2), Fault(0, True)]
    )
    def test_roundtrip(self, fault):
        wire = json_roundtrip(FaultTable.of([fault]).to_lists())
        assert FaultTable.from_lists(wire)[0] == fault

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            FaultTable.from_lists([[1, True]])


class TestResultArtifacts:
    @pytest.fixture(scope="class")
    def circuit(self):
        return alu_circuit(width=2)

    @pytest.fixture(scope="class")
    def optimization(self, circuit):
        return WeightOptimizer(circuit, confidence=0.99, max_sweeps=2).optimize()

    @pytest.fixture(scope="class")
    def coverage(self, circuit):
        return random_pattern_coverage(circuit, 192, seed=5)

    def test_optimization_result_exact(self, optimization):
        restored = type(optimization).from_dict(json_roundtrip(optimization.to_dict()))
        np.testing.assert_array_equal(restored.weights, optimization.weights)
        np.testing.assert_array_equal(
            restored.quantized_weights, optimization.quantized_weights
        )
        assert restored.weights.dtype == optimization.weights.dtype
        assert restored.history == optimization.history
        assert restored.weight_map == optimization.weight_map
        assert restored.redundant_faults == optimization.redundant_faults
        assert restored.cpu_seconds == optimization.cpu_seconds

    def test_coverage_experiment_exact(self, coverage):
        restored = CoverageExperiment.from_dict(json_roundtrip(coverage.to_dict()))
        assert restored == coverage
        assert np.array_equal(restored.result.first_detection, coverage.result.first_detection)

    def test_self_test_report_exact(self, circuit):
        session = SelfTestSession(circuit, 64, seed=9)
        fault = collapsed_fault_list(circuit)[0]
        report = session.run(fault)
        restored = type(report).from_dict(json_roundtrip(report.to_dict()))
        assert restored == report

    def test_pipeline_report_exact(self):
        spec = PipelineSpec(
            circuit="c432",
            seed=7,
            optimize=OptimizeConfig(max_sweeps=2),
            fault_sim=FaultSimConfig(n_patterns=192),
            self_test=SelfTestConfig(n_patterns=64, inject_hardest=True),
        )
        report = execute_spec(spec)
        restored = PipelineReport.from_dict(json_roundtrip(report.to_dict()))
        np.testing.assert_array_equal(restored.weights, report.weights)
        np.testing.assert_array_equal(
            restored.quantized_weights, report.quantized_weights
        )
        assert restored.conventional_length == report.conventional_length
        assert restored.optimization.history == report.optimization.history
        assert np.array_equal(
            restored.conventional_experiment.result.first_detection,
            report.conventional_experiment.result.first_detection,
        )
        assert restored.self_test == report.self_test
        assert restored.self_test_fault == report.self_test_fault
        assert restored.canonical_dict() == report.canonical_dict()

    def test_canonical_dict_scrubs_volatile_fields(self):
        spec = PipelineSpec(circuit="c432", fault_sim=None)
        report = execute_spec(spec)
        canonical = report.canonical_dict()
        assert "seconds" not in canonical
        assert "lowerings" not in canonical
        assert "cpu_seconds" not in canonical["optimization"]
        wire = report.to_dict()
        wire["seconds"] = 123.0
        assert PipelineReport.from_dict(wire).canonical_dict() == canonical

    def test_canonical_dict_only_scrubs_tagged_envelopes(self):
        """User data whose keys collide with volatile field names (e.g. a
        primary input net named 'seconds') must survive canonicalization."""
        from repro.circuit import CircuitBuilder

        builder = CircuitBuilder("oddly_named")
        a = builder.input("seconds")
        b = builder.input("lowerings")
        builder.output(builder.and_(a, b), "out")
        spec = PipelineSpec(
            circuit=builder.build().to_dict(),
            optimize=OptimizeConfig(max_sweeps=1),
            fault_sim=None,
        )
        canonical = execute_spec(spec).canonical_dict()
        assert set(canonical["optimization"]["weight_map"]) == {"seconds", "lowerings"}
        assert canonical["input_names"] == ["seconds", "lowerings"]

    def test_pipeline_report_rejects_unknown(self):
        spec = PipelineSpec(circuit="c432", fault_sim=None)
        data = execute_spec(spec).to_dict()
        with pytest.raises(SchemaError, match="schema_version"):
            PipelineReport.from_dict({**data, "schema_version": 2})
        with pytest.raises(SchemaError, match="unknown fields"):
            PipelineReport.from_dict({**data, "bogus": None})


class TestExperimentRows:
    def rows(self):
        from repro.experiments import (
            AppendixListing,
            Figure2Data,
            Table1Row,
            Table3Row,
            Table5Row,
        )

        return [
            Table1Row("s1", "S1", True, 10, 20, 500, 5.6e8),
            Table3Row("s2", "S2", 1000, 10, 100.0, 4, None),
            Table5Row("s1", "S1", 10, 4, 20, 1.5, 8, 300.0),
            Figure2Data("S1", [1, 10], [50.0, 80.0], [60.0, 99.0]),
            AppendixListing("s1", "S1", ["a", "b"], [0.5, 0.85]),
        ]

    def test_row_roundtrip(self):
        for row in self.rows():
            restored = row_from_dict(json_roundtrip(row_to_dict(row)))
            assert restored == row

    def test_experiment_rows_artifact(self):
        rows = self.rows()
        restored = load_artifact(json_roundtrip(experiment_rows_dict(rows)))
        assert restored == rows

    def test_speedup_row_roundtrip(self):
        from repro.experiments import Table5SpeedupRow

        row = Table5SpeedupRow("s2", "S2", 10, 4, 20, 2.0, 0.5, 2338, True, 3)
        assert row_from_dict(json_roundtrip(row_to_dict(row))) == row

    def test_speedup_row_without_sweeps_still_loads(self):
        """Rows serialized before ``sweeps`` existed load with ``None``."""
        from repro.experiments import Table5SpeedupRow

        row = Table5SpeedupRow("s2", "S2", 10, 4, 20, 2.0, 0.5, 2338, True, 3)
        old = row_to_dict(row)
        del old["sweeps"]
        restored = row_from_dict(json_roundtrip(old))
        assert restored.sweeps is None
        assert restored.test_length == 2338 and restored.histories_equal

    def test_row_missing_required_field_rejected(self):
        old = row_to_dict(self.rows()[0])
        del old["key"]
        with pytest.raises(SchemaError):
            row_from_dict(old)

    def test_unserializable_row_rejected(self):
        with pytest.raises(TypeError):
            row_to_dict(object())

    def test_removed_multi_weight_row_is_a_schema_error(self):
        """Rows of the deleted multi-weight experiment, as older runs stored
        them, load as a typed error, alone or inside ``experiment_rows``."""
        stored = {
            "kind": "multi_weight_row",
            "schema_version": 1,
            "key": "s1",
            "paper_name": "S1",
            "k": 4,
            "n_sets": 4,
            "single_set_length": 48697,
            "multi_set_length": 36757,
            "reduction_factor": 1.32,
            "set_lengths": [1, 2, 3, 4],
            "coverage": 1.0,
            "n_patterns": 36757,
        }
        with pytest.raises(SchemaError, match="multi_weight_row"):
            load_artifact(stored)
        rows = {"kind": "experiment_rows", "schema_version": 1, "rows": [stored]}
        with pytest.raises(SchemaError, match="multi_weight_row"):
            load_artifact(rows)


class TestLoadArtifactDispatch:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="unknown artifact kind"):
            load_artifact({"kind": "mystery", "schema_version": 1})
        with pytest.raises(SchemaError):
            load_artifact("not a dict")

    def test_dispatches_specs_configs_and_reports(self):
        spec = PipelineSpec(circuit="s1")
        assert load_artifact(json_roundtrip(spec.to_dict())) == spec
        config = FaultSimConfig(n_patterns=7)
        assert load_artifact(json_roundtrip(config.to_dict())) == config
        report = execute_spec(PipelineSpec(circuit="c432", fault_sim=None))
        batch = load_artifact(json_roundtrip(report_batch_dict([report])))
        assert len(batch) == 1
        assert batch[0].canonical_dict() == report.canonical_dict()


class TestArrayCodecProperties:
    @given(
        st.lists(
            st.floats(allow_nan=False, width=64), min_size=0, max_size=32
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_float64_arrays_roundtrip_bit_exact(self, values):
        array = np.asarray(values, dtype=np.float64)
        restored = decode_array(json_roundtrip(encode_array(array)))
        assert restored.dtype == array.dtype
        np.testing.assert_array_equal(restored, array)

    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_int64_arrays_roundtrip(self, values):
        array = np.asarray(values, dtype=np.int64)
        restored = decode_array(json_roundtrip(encode_array(array)))
        assert restored.dtype == array.dtype
        np.testing.assert_array_equal(restored, array)

    def test_bool_and_2d_arrays(self):
        array = np.array([[True, False], [False, True]])
        restored = decode_array(json_roundtrip(encode_array(array)))
        assert restored.dtype == np.bool_
        np.testing.assert_array_equal(restored, array)

    def test_malformed_encodings_rejected(self):
        with pytest.raises(SchemaError):
            decode_array({"dtype": "<f8", "data": []})
        with pytest.raises(SchemaError):
            decode_array({"__ndarray__": True, "dtype": "<f8", "data": [], "junk": 1})
        # A shape/data mismatch (truncated artifact) must fail as a schema
        # error too, not as a raw numpy reshape exception.
        with pytest.raises(SchemaError):
            decode_array(
                {"__ndarray__": True, "dtype": "<f8", "shape": [2, 3], "data": [1.0, 2.0]}
            )


def test_config_fields_match_spec_stage_types():
    """Guard: every config dataclass stays JSON-flat (no nested objects)."""
    for config in ALL_CONFIGS:
        for field in dataclasses.fields(config):
            value = getattr(config, field.name)
            assert isinstance(value, (int, float, str, bool, tuple, type(None)))
