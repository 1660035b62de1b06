"""Fuzzing of spec decoding: :meth:`PipelineSpec.from_dict` on damaged wire dicts.

Every example starts from a valid wire dict and damages it once: it drops a
field, replaces one with arbitrary JSON, or sets a removed fault-simulation
knob to a value other than its wire constant.  Decoding must then either
raise :class:`~repro.api.serialize.SchemaError` or give a spec whose wire
form survives a JSON round trip exactly, within the example deadline.
"""

import json
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PipelineSpec
from repro.api.serialize import SchemaError, canonical_json
from repro.api.spec import (
    AnalysisConfig,
    FaultSimConfig,
    MultiWeightConfig,
    OptimizeConfig,
    QuantizeConfig,
    SelfTestConfig,
)
from repro.circuit import parse_bench

from .helpers import C17_BENCH

_EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "synthetic_spec.json"

#: Valid wire dicts: every stage, defaults, analysis only, an inline netlist,
#: a ``.bench`` text source and the generator-source example file.
BASES = (
    PipelineSpec(
        circuit="c432",
        fault_sim=FaultSimConfig(n_patterns=1024, target_coverage=0.95),
        self_test=SelfTestConfig(n_patterns=512, misr_width=16, inject_hardest=True),
        multi_weight=MultiWeightConfig(k=2, budget=1024, scan_chains=4),
    ).to_dict(),
    PipelineSpec(circuit="s1").to_dict(),
    PipelineSpec(
        circuit="s2",
        analysis=AnalysisConfig(confidence=0.99, drop_redundant=False),
        optimize=None,
        quantize=None,
        fault_sim=None,
    ).to_dict(),
    PipelineSpec(
        circuit=parse_bench(C17_BENCH, name="c17"),
        optimize=OptimizeConfig(max_sweeps=2, bounds=(0.1, 0.9)),
        quantize=QuantizeConfig(lfsr_resolution=4),
        self_test=SelfTestConfig(n_patterns=64, weighted=False, use_lfsr=False),
    ).to_dict(),
    PipelineSpec(
        circuit={"kind": "file", "text": C17_BENCH, "name": "c17"}, key="c17", seed=3
    ).to_dict(),
    json.loads(_EXAMPLE.read_text()),
)

#: The removed fault-simulation knobs and the one value each may hold.
REMOVED_KNOBS = {"batch_size": 2048, "fault_group": None, "partition_size": None}

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
    """Every key path of a wire dict, nested dicts included."""
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


def _copy(data):
    return json.loads(json.dumps(data))


def _decode(data):
    """``from_dict``'s outcome: ``None`` for a SchemaError, else the spec."""
    try:
        return PipelineSpec.from_dict(data)
    except SchemaError:
        return None


def _assert_round_trips(spec):
    """The spec's wire text survives a JSON round trip byte for byte.

    Compared as canonical text, not as objects: an inline netlist is only
    checked when it is built, so it may carry a NaN, which never equals
    itself.
    """
    wire = canonical_json(spec.to_dict())
    again = PipelineSpec.from_dict(json.loads(wire))
    assert canonical_json(again.to_dict()) == wire
    assert again.spec_hash() == spec.spec_hash()


@st.composite
def damaged(draw):
    data = _copy(draw(st.sampled_from(BASES)))
    path = draw(st.sampled_from(sorted(_paths(data))))
    if draw(st.booleans()):
        del _parent(data, path)[path[-1]]
    else:
        _parent(data, path)[path[-1]] = draw(JSON)
    return data


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(damaged())
def test_damaged_specs_decode_or_raise_schema_error(data):
    spec = _decode(data)
    if spec is not None:
        _assert_round_trips(spec)


@pytest.mark.parametrize(
    "stage, name, value",
    [
        ("optimize", "bounds", {"0": 0.1, "1": 0.9}),
        ("optimize", "bounds", ["0.1", "0.9"]),
        ("analysis", "drop_redundant", float("inf")),
        ("analysis", "drop_redundant", 1),
        ("self_test", "use_lfsr", "yes"),
        ("self_test", "weighted", None),
        ("self_test", "inject_hardest", 0),
    ],
)
def test_malformed_values_found_by_fuzzing_raise_schema_error(stage, name, value):
    data = _copy(BASES[0])
    data[stage][name] = value
    assert _decode(data) is None


@settings(max_examples=100, deadline=timedelta(seconds=2))
@given(
    base=st.sampled_from(BASES),
    knob=st.sampled_from(sorted(REMOVED_KNOBS)),
    value=JSON,
)
def test_removed_knobs_with_other_values_raise_schema_error(base, knob, value):
    data = _copy(base)
    data["fault_sim"] = {**(data["fault_sim"] or FaultSimConfig().to_dict()), knob: value}
    accepted = REMOVED_KNOBS[knob]
    if value is None or (type(value) is type(accepted) and value == accepted):
        # Null and the constant itself both read as the constant.
        _assert_round_trips(PipelineSpec.from_dict(data))
        return
    with pytest.raises(SchemaError) as exc:
        PipelineSpec.from_dict(data)
    assert str(exc.value).startswith(f"{knob} ") and "was removed" in str(exc.value)


@settings(max_examples=50, deadline=timedelta(seconds=2))
@given(base=st.sampled_from(BASES), value=JSON)
def test_analysis_partition_size_is_an_unknown_field(base, value):
    data = _copy(base)
    data["analysis"] = {**data["analysis"], "partition_size": value}
    assert _decode(data) is None


def test_bases_are_valid():
    for base in BASES:
        _assert_round_trips(PipelineSpec.from_dict(base))
