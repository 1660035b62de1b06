"""Pinned identities of the specs the quickstart and the ``session`` bench
area run.

Both build their specs in process from a :class:`~repro.circuit.Circuit`
(``PipelineSpec(circuit=<Circuit>, key=...)``).  The literal hashes below
were recorded from the original in-process pipeline façade, so any store
that holds artifacts of these runs keeps serving them: the spec hash, the
report key and the stage store keys must never drift.
"""

import pytest

from repro.api import PipelineSpec, build_plan
from repro.api.spec import AnalysisConfig, FaultSimConfig, OptimizeConfig
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
