"""Tests for the circuit source abstraction (:mod:`repro.circuits.sources`).

Covers ref parsing for all four source kinds (including both legacy plain
forms), label/build resolution, the ``PipelineSpec`` integration (wire round
trips, ``n_patterns`` fallback, worker-process bit identity) and the CLI
``--bench`` path.
"""

import json

import pytest

from repro.api import PipelineSpec, run_jobs
from repro.api.cli import main
from repro.api.executor import DEFAULT_N_PATTERNS, execute_spec, resolve_n_patterns
from repro.api.serialize import SchemaError
from repro.api.spec import FaultSimConfig, OptimizeConfig
from repro.circuit import Circuit, write_bench_file
from repro.circuits import (
    CircuitSource,
    GeneratorSpec,
    generate_circuit,
    normalize_circuit_ref,
)
from repro.pipeline import PipelineReport

from .helpers import C17_BENCH, half_adder_circuit

GEN_REF = {
    "kind": "generator",
    "n_inputs": 12,
    "n_gates": 80,
    "depth": 5,
    "seed": 7,
    "name": "gen80",
}


class TestFromRef:
    def test_plain_string_is_builtin(self):
        source = CircuitSource.from_ref("s1")
        assert source.kind == "builtin"
        assert source.label == "s1"
        assert source.to_ref() == "s1"
        assert source.build().n_inputs == 48

    def test_unknown_registry_key_is_rejected(self):
        for ref in ("c17", {"kind": "builtin", "key": "c17"}):
            with pytest.raises(ValueError, match="unknown benchmark circuit 'c17'; available: s1"):
                CircuitSource.from_ref(ref)
        with pytest.raises(SchemaError, match="unknown benchmark circuit"):
            PipelineSpec.from_dict({**PipelineSpec(circuit="s1").to_dict(), "circuit": "c17"})

    def test_registry_key_is_case_insensitive_and_keeps_its_spelling(self):
        source = CircuitSource.from_ref("S1")
        assert source.to_ref() == "S1"
        assert PipelineSpec(circuit="S1").to_dict()["circuit"] == "S1"
        assert source.build().n_inputs == 48

    def test_plain_netlist_dict_is_inline(self):
        netlist = half_adder_circuit().to_dict()
        source = CircuitSource.from_ref(netlist)
        assert source.kind == "inline"
        assert source.label == netlist["name"]
        assert source.to_ref() == netlist
        assert source.build().structural_hash() == half_adder_circuit().structural_hash()

    def test_circuit_object_is_inline(self):
        circuit = half_adder_circuit()
        source = CircuitSource.from_ref(circuit)
        assert source.kind == "inline"
        assert source.build().to_dict() == circuit.to_dict()

    def test_file_path_ref(self, tmp_path):
        path = tmp_path / "ha.bench"
        write_bench_file(half_adder_circuit(), path)
        source = CircuitSource.from_ref({"kind": "file", "path": str(path)})
        assert source.label == "ha"
        assert source.to_ref() == {"kind": "file", "path": str(path)}
        assert source.build().n_gates == half_adder_circuit().n_gates

    def test_file_text_ref(self):
        source = CircuitSource.from_ref(
            {"kind": "file", "text": C17_BENCH, "name": "c17"}
        )
        assert source.label == "c17"
        circuit = source.build()
        assert circuit.name == "c17"
        assert circuit.n_gates == 6

    def test_generator_ref(self):
        source = CircuitSource.from_ref(GEN_REF)
        assert source.kind == "generator"
        assert source.label == "gen80"
        assert source.to_ref()["n_gates"] == 80
        expected = generate_circuit(GeneratorSpec.from_dict({k: v for k, v in GEN_REF.items() if k != "kind"}))
        assert source.build().structural_hash() == expected.structural_hash()

    def test_explicit_builtin_dict(self):
        source = CircuitSource.from_ref({"kind": "builtin", "key": "c432"})
        assert source.to_ref() == "c432"  # canonical wire form is the plain key

    def test_explicit_inline_dict(self):
        netlist = half_adder_circuit().to_dict()
        source = CircuitSource.from_ref({"kind": "inline", "netlist": netlist})
        assert source.to_ref() == netlist

    def test_source_instances_pass_through(self):
        source = CircuitSource.builtin("s2")
        assert CircuitSource.from_ref(source) is source

    @pytest.mark.parametrize(
        "ref, match",
        [
            (42, "circuit must be"),
            ("", "non-empty key"),
            ({"kind": "nope"}, "unknown circuit source kind"),
            ({"kind": "builtin"}, "exactly a 'key'"),
            ({"kind": "builtin", "key": "s1", "extra": 1}, "exactly a 'key'"),
            ({"kind": "file"}, "exactly one of"),
            ({"kind": "file", "path": "a", "text": "b"}, "exactly one of"),
            ({"kind": "file", "path": "a", "name": "x"}, "no 'name'"),
            ({"kind": "file", "bogus": "a"}, "unknown fields"),
            ({"kind": "inline"}, "exactly a 'netlist'"),
            ({"kind": "inline", "netlist": {"name": "x"}}, "missing fields"),
            ({"kind": "generator", "n_inputs": 4}, "missing"),
            ({"name": "x"}, "missing fields"),  # legacy inline dict, truncated
        ],
    )
    def test_malformed_refs_rejected(self, ref, match):
        with pytest.raises(ValueError, match=match):
            CircuitSource.from_ref(ref)

    def test_normalize_returns_wire_forms(self):
        assert normalize_circuit_ref("s1") == "s1"
        # Generator refs normalize to the *full* parameter dict (defaults
        # spelled out, self-describing on the wire) and are idempotent.
        normalized = normalize_circuit_ref(GEN_REF)
        assert {key: normalized[key] for key in GEN_REF} == GEN_REF
        assert set(normalized) == set(GeneratorSpec(4, 8).to_dict()) | {"kind"}
        assert normalize_circuit_ref(normalized) == normalized
        circuit = half_adder_circuit()
        assert normalize_circuit_ref(circuit) == circuit.to_dict()


class TestSpecIntegration:
    def test_spec_accepts_all_source_kinds(self, tmp_path):
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        refs = [
            "c432",
            half_adder_circuit().to_dict(),
            {"kind": "file", "path": str(path)},
            {"kind": "file", "text": C17_BENCH, "name": "c17t"},
            GEN_REF,
        ]
        labels = ["c432", "half_adder", "c17", "c17t", "gen80"]
        for ref, label in zip(refs, labels):
            spec = PipelineSpec(circuit=ref, fault_sim=None)
            assert spec.label == label
            assert isinstance(spec.build_circuit(), Circuit)
            round_tripped = PipelineSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert round_tripped == spec

    def test_spec_normalizes_rich_objects(self):
        from_source = PipelineSpec(
            circuit=CircuitSource.generated(GeneratorSpec.from_dict(
                {k: v for k, v in GEN_REF.items() if k != "kind"}
            )),
            fault_sim=None,
        )
        from_wire = PipelineSpec(circuit=GEN_REF, fault_sim=None)
        assert from_source == from_wire
        assert from_source.circuit == normalize_circuit_ref(GEN_REF)

    def test_spec_rejects_malformed_source(self):
        with pytest.raises(ValueError, match="unknown circuit source kind"):
            PipelineSpec(circuit={"kind": "teleport"})
        with pytest.raises(SchemaError):
            spec_dict = PipelineSpec(circuit="s1").to_dict()
            spec_dict["circuit"] = {"kind": "teleport"}
            PipelineSpec.from_dict(spec_dict)

    def test_n_patterns_fallback_rule(self, tmp_path):
        # registry circuit -> its paper budget
        assert resolve_n_patterns(PipelineSpec(circuit="s1")) == 12_000
        # explicit spec value always wins
        explicit = PipelineSpec(circuit="s1", fault_sim=FaultSimConfig(n_patterns=64))
        assert resolve_n_patterns(explicit) == 64
        # file and generator sources -> the documented default
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        for ref in ({"kind": "file", "path": str(path)}, GEN_REF):
            assert resolve_n_patterns(PipelineSpec(circuit=ref)) == DEFAULT_N_PATTERNS

    def test_serial_and_parallel_runs_are_bit_identical(self, tmp_path):
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        stages = dict(
            optimize=OptimizeConfig(max_sweeps=2),
            fault_sim=FaultSimConfig(n_patterns=128),
        )
        specs = [
            PipelineSpec(circuit={"kind": "file", "path": str(path)}, **stages),
            PipelineSpec(circuit=GEN_REF, **stages),
        ]
        serial = [execute_spec(spec).canonical_dict() for spec in specs]
        parallel = [
            report.canonical_dict() for report in run_jobs(specs, parallelism=4)
        ]
        assert serial == parallel


class TestCliBenchFlag:
    def test_run_bench_file(self, tmp_path):
        path = tmp_path / "c17.bench"
        path.write_text(C17_BENCH)
        artifact = tmp_path / "c17.json"
        rc = main(
            [
                "run",
                "--bench",
                str(path),
                "--patterns",
                "128",
                "--max-sweeps",
                "2",
                "--json",
                str(artifact),
            ]
        )
        assert rc == 0
        report = PipelineReport.from_dict(json.loads(artifact.read_text()))
        assert report.key == "c17"
        assert report.n_patterns == 128

    def test_run_bench_missing_file_fails_fast(self, tmp_path, capsys):
        missing = tmp_path / "nope.bench"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--bench", str(missing)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {missing}: cannot use .bench file")
        assert "Traceback" not in err

    def test_run_bench_invalid_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.bench"
        bad.write_text("INPUT(a)\nOUTPUT(z)\nz = FOO(a, b\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--bench", str(bad)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: cannot use .bench file")
        assert "Traceback" not in err
