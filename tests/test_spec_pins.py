"""Pinned identities of the specs the quickstart and the ``session`` bench
area run, of a c432 spec that declares every stage, and of
``examples/synthetic_spec.json``.

Both build their specs in process from a :class:`~repro.circuit.Circuit`
(``PipelineSpec(circuit=<Circuit>, key=...)``).  The literal hashes below
were recorded from the original in-process pipeline façade, so any store
that holds artifacts of these runs keeps serving them: the spec hash, the
report key and the stage store keys must never drift.
"""

import json
from pathlib import Path

import pytest

from repro.api import PipelineSpec, build_plan
from repro.api.spec import (
    AnalysisConfig,
    FaultSimConfig,
    MultiWeightConfig,
    OptimizeConfig,
    SelfTestConfig,
)
from repro.circuits import build_circuit, s1_comparator


def quickstart_spec():
    """The quickstart: 12-bit S1 comparator, unfiltered faults, 4,000 patterns."""
    return PipelineSpec(
        circuit=s1_comparator(width=12),
        key="S1_comparator12",
        analysis=AnalysisConfig(confidence=0.999, drop_redundant=False),
        fault_sim=FaultSimConfig(n_patterns=4_000),
    )


def session_area_spec(key):
    """The quick ``session`` bench area: inline netlist, 512 patterns, 2 sweeps."""
    return PipelineSpec(
        circuit=build_circuit(key),
        key=key,
        seed=1987,
        analysis=AnalysisConfig(confidence=0.999),
        optimize=OptimizeConfig(max_sweeps=2),
        fault_sim=FaultSimConfig(n_patterns=512),
    )


def test_quickstart_spec_identity():
    spec = quickstart_spec()
    assert spec.spec_hash() == (
        "58b637478e29704a1d60c5121c8a78ae8b34a527b8f9c9f0b2cd3a13a31795c8"
    )
    plan = build_plan(spec)
    assert plan.stage("optimize").store_keys == {
        "result": "stage_optimize/"
        "85a7e6d3dfde9b4584ba077c09d6c20f109a8ddccdce7e70d18fc12e6b5a4cf9"
    }
    assert plan.stage("fault_sim").store_keys == {
        "conventional": "stage_fault_sim/"
        "2c0003c5c284b376c584f83bf073e91d9b04c3f6ceb812be7d63f82dbe64aae3",
        "optimized": "stage_fault_sim/"
        "db0ca271527fff8d4476ba08e3d9940055457d1832b839f39df7567eeafdf6b7",
    }


@pytest.mark.parametrize(
    "key, spec_hash, optimize_key",
    [
        (
            "c432",
            "7f473cddc13b5c34719f957b1ff9d5d6f5a96094079e6deaa444c97c47d190a9",
            "f56494d8b0b7e4c58569fc72db67493b0ca575d1a203c168e63bb7802b2112ed",
        ),
        (
            "c499",
            "1435970f3bc5c7c7a96574cbb09c7e10440d3be48216b3aa5daef5b71d94b2db",
            "8f058000655875b174d5c287aaab5b2661053a9c4b51e2b55556a39f42efb781",
        ),
    ],
)
def test_session_area_spec_identity(key, spec_hash, optimize_key):
    spec = session_area_spec(key)
    assert spec.spec_hash() == spec_hash
    plan = build_plan(spec)
    assert plan.report_key == f"pipeline_report/{spec_hash}"
    assert plan.stage("optimize").store_keys == {
        "result": f"stage_optimize/{optimize_key}"
    }


def every_stage_spec():
    """c432 with fault simulation, a self test and two weight sets."""
    return PipelineSpec(
        circuit="c432",
        fault_sim=FaultSimConfig(n_patterns=1024),
        self_test=SelfTestConfig(n_patterns=512),
        multi_weight=MultiWeightConfig(k=2, budget=1024),
    )


def test_every_stage_spec_identity():
    spec = every_stage_spec()
    spec_hash = "528ab9dd7fe0861eaa1b255416f8b04992a0fbead82ecd1b55ca04af200a4066"
    assert spec.spec_hash() == spec_hash
    # The wire form of the fault-sim config, fixed fields included.
    assert spec.to_dict()["fault_sim"] == {
        "kind": "fault_sim_config",
        "schema_version": 1,
        "backend": None,
        "allow_fallback": False,
        "n_patterns": 1024,
        "batch_size": 2048,
        "fault_group": None,
        "target_coverage": None,
        "partition_size": None,
    }
    plan = build_plan(spec)
    assert plan.store_keys() == {
        "report": f"pipeline_report/{spec_hash}",
        "optimize.result": "stage_optimize/"
        "6a3adaf81fcc8b82055f826f62290b838d2bd69445cb2ede19c38582e5d73e96",
        "fault_sim.conventional": "stage_fault_sim/"
        "e1b84e1adb64315560c9152987db2601c1e531148bcf293448f5b8796572aea9",
        "fault_sim.optimized": "stage_fault_sim/"
        "81fb7050bcd3d3c03c9b2835eb6eaa452392a9d59df66f34bab75bd2aecfcfa3",
        "multi_weight.weight_sets": "stage_multi_weight/"
        "d9b133b20585bc79da0960e0f653ef6df8e61cc9042ce2a6dc0055e088e14960",
        "multi_weight.result": "stage_multi_weight_report/"
        "bdd5b28815a548d7c5b17ede33a176d446e9087cbbf992da39cb7d316a5a1734",
    }
    # The self test is covered by the report key alone.
    assert plan.stage("self_test").store_keys == {}
    assert plan.stage("self_test").seed == 3834953025728122489


def test_synthetic_example_spec_identity():
    path = Path(__file__).resolve().parents[1] / "examples" / "synthetic_spec.json"
    spec = PipelineSpec.from_dict(json.loads(path.read_text()))
    assert spec.spec_hash() == (
        "51a6a784e36e653f81dff4a73235fd4bdc276d3e0491949d8b47f3aeddb14f65"
    )
