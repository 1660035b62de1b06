"""Fuzzing of artifact decoding: :func:`load_artifact` on damaged wire dicts.

Every example starts from a valid wire dict of one registered artifact kind
and damages it once, at any depth: it drops a field or replaces one with
arbitrary JSON.  Decoding must then either raise
:class:`~repro.api.serialize.SchemaError` or give an artifact whose wire
form survives a JSON round trip exactly, within the example deadline.
"""

import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PipelineSpec, SchemaError, execute_spec, load_artifact
from repro.api.artifacts import experiment_rows_dict, report_batch_dict
from repro.api.serialize import ARTIFACT_TYPES, canonical_json
from repro.api.spec import (
    FaultSimConfig,
    MultiWeightConfig,
    OptimizeConfig,
    SelfTestConfig,
)
from repro.bench.artifacts import BenchResult, BenchTrajectory
from repro.circuits import alu_circuit
from repro.experiments import (
    AppendixListing,
    Figure2Data,
    Table1Row,
    Table2Row,
    Table3Row,
    Table4Row,
    Table5Row,
    Table5SpeedupRow,
)

from .test_artifact_pins import REQUIRED


def _bases():
    """One small valid wire dict of every registered kind."""
    report = execute_spec(
        PipelineSpec(
            circuit=alu_circuit(width=2),
            key="alu2",
            optimize=OptimizeConfig(max_sweeps=1),
            fault_sim=FaultSimConfig(n_patterns=64),
            self_test=SelfTestConfig(n_patterns=64, inject_hardest=True),
            multi_weight=MultiWeightConfig(
                k=2, budget=128, scan_chains=2, target_coverage=0.9
            ),
        )
    )
    wire = report.to_dict()
    report_spec = PipelineSpec(
        circuit="c432", multi_weight=MultiWeightConfig(k=2), self_test=SelfTestConfig()
    ).to_dict()
    multi = wire["multi_weight"]
    experiment = wire["optimized_experiment"]
    bench = BenchResult(
        area="bist",
        quick=True,
        workload={"circuit": "c432", "patterns": 512},
        metrics={"speedup": 2.5, "coverage": 1},
        counters={"signature": 77},
        timing={"seconds": 0.25},
        peak_rss_bytes=1 << 20,
        meta={"host": "x"},
    )
    rows = [
        Table1Row("s1", "S1", True, 10, 20, 500, 5.6e8),
        Table2Row("s1", "S1", 12000, 69.7, 191, 80.7),
        Table3Row("s2", "S2", 1000, 10, 100.0, 4, None),
        Table4Row("s1", "S1", 12000, 99.5, 3, None),
        Table5Row("s1", "S1", 10, 4, 20, 1.5, 8, 300.0),
        Table5SpeedupRow("s2", "S2", 10, 4, 20, 2.0, 0.5, 2338, True, None),
        Figure2Data("S1", [1, 10], [50.0, 80.0], [60.0, 99.0]),
        AppendixListing("s1", "S1", ["a", "b"], [0.5, 0.85]),
    ]
    bases = [
        wire,
        wire["optimization"],
        experiment,
        experiment["stats"],
        wire["self_test"],
        multi,
        multi["weight_sets"],
        multi["weight_sets"]["sets"][0],
        multi["coverage"],
        report_spec,
        bench.to_dict(),
        BenchTrajectory("bist", (bench,)).to_dict(),
        report_batch_dict([report]),
        experiment_rows_dict(rows),
        *(row.to_dict() for row in rows),
    ]
    for stage in ("analysis", "optimize", "quantize", "fault_sim", "self_test", "multi_weight"):
        bases.append(report_spec[stage])
    return bases


BASES = _bases()

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def _paths(data, prefix=()):
    """Every key and index path of a wire dict, nested dicts and lists included."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


def _copy(data):
    return json.loads(json.dumps(data))


def _decode(data):
    """``load_artifact``'s outcome: ``None`` for a SchemaError, else the artifact."""
    try:
        return load_artifact(data)
    except SchemaError:
        return None


def _assert_round_trips(obj):
    """The artifact's wire text survives a JSON round trip byte for byte."""
    wire = canonical_json(obj.to_dict())
    again = load_artifact(json.loads(wire))
    assert type(again) is type(obj)
    assert canonical_json(again.to_dict()) == wire


@st.composite
def damaged(draw):
    data = _copy(draw(st.sampled_from(BASES)))
    path = draw(st.sampled_from(sorted(_paths(data), key=repr)))
    if draw(st.booleans()):
        del _parent(data, path)[path[-1]]
    else:
        _parent(data, path)[path[-1]] = draw(JSON)
    return data


@settings(max_examples=400, deadline=timedelta(seconds=2))
@given(damaged())
def test_damaged_artifacts_decode_or_raise_schema_error(data):
    obj = _decode(data)
    if obj is not None:
        _assert_round_trips(obj)


def test_bases_cover_every_registered_kind():
    assert {base["kind"] for base in BASES} == set(ARTIFACT_TYPES) == set(REQUIRED)
    assert len(REQUIRED) == 28
    for base in BASES:
        _assert_round_trips(load_artifact(_copy(base)))


@pytest.mark.parametrize(
    "dtype, data",
    [
        ([], [0.5] * 7),  # a structured dtype with no fields (found by fuzzing)
        ("O", [0.5] * 7),
        ("<M8[s]", [0] * 7),
        ("<U3", ["a"] * 7),
        ("<i8", [2**70] * 7),
    ],
)
def test_malformed_arrays_found_by_fuzzing_raise_schema_error(dtype, data):
    base = _copy(next(base for base in BASES if base["kind"] == "optimization_result"))
    base["weights"] = {**base["weights"], "dtype": dtype, "data": data}
    assert _decode(base) is None


def _array(dtype, data):
    return {"__ndarray__": True, "dtype": dtype, "data": data}


@pytest.mark.parametrize(
    "kind, name, value",
    [
        ("pipeline_report", "faults", [[2**70, True, None]]),
        # Fault triples are not coerced: a string stuck value, a float net
        # or gate and a negative net are errors, not faults.
        ("optimization_result", "redundant_faults", [[3, "false", None]]),
        ("optimization_result", "redundant_faults", [[2.9, 0, 1.5]]),
        ("optimization_result", "redundant_faults", [[-1, True, None]]),
        ("pipeline_report", "self_test_fault", [3, "false", None]),
        ("fault_sim_result", "first_detection", [[0, 2**70]]),
        # A first detection lies in [-1, n_patterns) of a 1-D int64 array.
        ("fault_sim_result", "first_detection", _array("<i8", [10**6])),
        ("fault_sim_result", "first_detection", _array("<i8", [-2])),
        ("fault_sim_result", "first_detection", _array("<f8", [1.5])),
        ("fault_sim_result", "first_detection", _array("<i8", [[0]])),
        ("pipeline_report", "self_test_fault", [1, True]),
        ("pipeline_report", "lowerings", None),
        ("multi_weight_report", "scan_chains", True),
        ("experiment_rows", "rows", [{"kind": "pipeline_report", "schema_version": 1}]),
    ],
)
def test_malformed_fields_raise_schema_error(kind, name, value):
    base = _copy(next(base for base in BASES if base["kind"] == kind))
    base[name] = value
    assert _decode(base) is None


def _leg_first_detection(report, leg):
    if leg == "multi_weight":
        return report["multi_weight"]["coverage"]["result"]["first_detection"]
    return report[leg]["first_detection"]


@pytest.mark.parametrize(
    "leg", ["conventional_experiment", "optimized_experiment", "multi_weight"]
)
def test_leg_length_other_than_the_fault_list_is_a_schema_error(leg):
    base = _copy(BASES[0])
    assert base["kind"] == "pipeline_report"
    first = _leg_first_detection(base, leg)
    assert first["shape"] == [len(base["faults"])]
    first["data"], first["shape"] = first["data"][:-1], [len(first["data"]) - 1]
    with pytest.raises(SchemaError, match=leg.split("_")[0]):
        load_artifact(base)


def test_fault_list_shorter_than_the_legs_is_a_schema_error():
    base = _copy(BASES[0])
    base["faults"] = base["faults"][:-1]
    with pytest.raises(SchemaError, match="first detections"):
        load_artifact(base)
