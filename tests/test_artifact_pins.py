"""Pinned artifact wire forms beyond the pipeline reports.

:mod:`test_report_pins` fixes what a pipeline run writes; these fix the rest
of the artifact contract:

* the canonical text of an ``experiment_rows`` artifact from a small paper
  sweep (s1 with fault simulation, c432 and c499 analysis only);
* the canonical text of a c432 multi-weight report whose optional fields
  (``scan_chains``, ``target_coverage``) are set;
* every committed ``BENCH_*.json`` re-encodes to its file's exact text;
* for every artifact kind, which fields a reader requires: dropping a field
  is a :class:`~repro.api.serialize.SchemaError` exactly when it is in
  :data:`REQUIRED`, and any other field reads as its default.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import PipelineSpec, SchemaError, execute_spec, load_artifact
from repro.api.artifacts import experiment_rows_dict, report_batch_dict
from repro.api.serialize import canonical_json
from repro.api.spec import (
    FaultSimConfig,
    MultiWeightConfig,
    OptimizeConfig,
    SelfTestConfig,
)
from repro.experiments import Table5Row, Table5SpeedupRow
from repro.experiments.batch import (
    appendix_listings,
    figure2_data,
    suite_specs,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
)
from repro.faultsim import FaultSimStats

from .helpers import legacy_report_dict

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))

#: The fields a reader requires, per artifact kind (the envelope's ``kind``
#: and ``schema_version`` always).  Every other field may be absent.
REQUIRED = {
    "pipeline_report": {
        "key", "circuit_name", "n_gates", "n_inputs", "faults", "input_names", "seed",
    },
    "optimization_result": {
        "weights", "quantized_weights", "initial_test_length", "test_length",
        "history", "n_hard_faults", "sweeps", "redundant_faults", "cpu_seconds",
        "weight_map", "converged",
    },
    "fault_sim_result": {"first_detection", "n_patterns"},
    "fault_sim_stats": {"n_batches", "faults_simulated", "faults_dropped", "active_sizes"},
    "self_test_report": {"circuit_name", "n_patterns", "signature", "golden_signature"},
    "multi_weight_report": {"circuit_name", "weight_sets", "coverage", "self_test", "scan_chains"},
    "multi_weight_set": {
        "circuit_name", "n_inputs", "sets", "single_set_length", "redundant_indices",
        "confidence", "cluster_seed", "session_seed",
    },
    "weight_set_entry": {
        "index", "weights", "quantized_weights", "fault_indices", "test_length",
        "n_patterns", "lfsr_width", "lfsr_taps", "lfsr_seed",
    },
    "multi_set_coverage": {"result", "applied", "target_coverage"},
    "pipeline_spec": {"circuit", "seed"},
    "analysis_config": set(),
    "optimize_config": set(),
    "quantize_config": set(),
    "fault_sim_config": set(),
    "self_test_config": set(),
    "multi_weight_config": set(),
    "table1_row": {
        "key", "paper_name", "hard", "n_gates", "n_faults", "measured_length", "paper_length",
    },
    "table2_row": {
        "key", "paper_name", "n_patterns", "measured_coverage", "n_undetected",
        "paper_coverage",
    },
    "table3_row": {
        "key", "paper_name", "conventional_length", "optimized_length",
        "improvement_factor", "sweeps", "paper_optimized_length",
    },
    "table4_row": {
        "key", "paper_name", "n_patterns", "measured_coverage", "n_undetected",
        "paper_coverage",
    },
    "table5_row": {
        "key", "paper_name", "n_gates", "n_inputs", "n_faults", "measured_seconds",
        "sweeps", "paper_seconds",
    },
    "table5_speedup_row": {
        "key", "paper_name", "n_gates", "n_inputs", "n_faults", "scalar_seconds",
        "batched_seconds", "test_length", "histories_equal",
    },
    "figure2_data": {"circuit_name", "points", "conventional", "optimized"},
    "appendix_listing": {"circuit_key", "circuit_name", "input_names", "weights"},
    "bench_result": {"area", "quick", "workload", "metrics", "counters", "timing"},
    "bench_trajectory": {"area", "points"},
    "report_batch": {"reports"},
    "experiment_rows": {"rows"},
}


def _digest(data) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def multi_weight_spec():
    """c432, every stage, a STUMPS multi-weight stage with a coverage target."""
    return PipelineSpec(
        circuit="c432",
        optimize=OptimizeConfig(max_sweeps=2),
        fault_sim=FaultSimConfig(n_patterns=512),
        self_test=SelfTestConfig(n_patterns=256, inject_hardest=True),
        multi_weight=MultiWeightConfig(
            k=2, budget=1024, scan_chains=4, target_coverage=0.95
        ),
    )


def table_rows():
    """The rows ``python -m repro tables`` writes for s1, c432 and c499.

    Table 5 rows carry wall-clock seconds, so they are left out.
    """
    specs = [
        spec
        for spec in suite_specs(max_sweeps=2)
        if spec.circuit in ("s1", "c432", "c499")
    ]
    reports = [execute_spec(spec) for spec in specs]
    rows = []
    for build in (table1_rows, table2_rows, table3_rows, table4_rows):
        rows.extend(build(reports))
    rows.append(figure2_data(reports))
    rows.extend(appendix_listings(reports))
    return rows


@pytest.fixture(scope="module")
def report():
    return execute_spec(multi_weight_spec())


@pytest.fixture(scope="module")
def rows():
    return table_rows()


def test_experiment_rows_digest(rows):
    data = experiment_rows_dict(rows)
    assert [row["kind"] for row in data["rows"]] == [
        "table1_row", "table1_row", "table1_row", "table2_row", "table3_row",
        "table4_row", "figure2_data", "appendix_listing",
    ]
    assert _digest(data) == (
        "7858b5c16bb14e35bafb6c28275689d117281534237160979c197da612596586"
    )


def test_multi_weight_report_digest(report):
    data = report.canonical_dict()
    assert data["multi_weight"]["scan_chains"] == 4
    assert data["multi_weight"]["coverage"]["target_coverage"] == 0.95
    assert _digest(data) == (
        "ea25ec18ba773445eaeaabbf6207c20252c08bf3e4988dbc031125db67be7302"
    )
    # The same report mapped back to the shape with a fault list per leg.
    assert _digest(legacy_report_dict(data)) == (
        "0ccba7db96bdf6d165fefe6ee1f72c2cc0f001b307e5604af3ccd3d909929e3b"
    )


@pytest.mark.parametrize("path", BENCH_FILES, ids=[path.name for path in BENCH_FILES])
def test_bench_trajectory_re_encodes_to_its_file(path):
    text = path.read_text()
    trajectory = load_artifact(json.loads(text))
    assert json.dumps(trajectory.to_dict(), indent=2) + "\n" == text


@pytest.fixture(scope="module")
def samples(report, rows):
    """One valid wire dict of every artifact kind."""
    wire = report.to_dict()
    spec = multi_weight_spec().to_dict()
    multi = wire["multi_weight"]
    experiment = wire["conventional_experiment"]
    trajectory = json.loads(BENCH_FILES[0].read_text())
    extra_rows = [
        Table5Row("s1", "S1", 10, 4, 20, 1.5, 8, 300.0),
        Table5SpeedupRow("s2", "S2", 10, 4, 20, 2.0, 0.5, 2338, True, 3),
    ]
    found = {
        "pipeline_report": wire,
        "optimization_result": wire["optimization"],
        "fault_sim_result": experiment,
        "fault_sim_stats": experiment["stats"],
        "self_test_report": wire["self_test"],
        "multi_weight_report": multi,
        "multi_weight_set": multi["weight_sets"],
        "weight_set_entry": multi["weight_sets"]["sets"][0],
        "multi_set_coverage": multi["coverage"],
        "pipeline_spec": spec,
        "bench_trajectory": trajectory,
        "bench_result": trajectory["points"][-1],
        "report_batch": report_batch_dict([report]),
        "experiment_rows": experiment_rows_dict(rows),
    }
    for stage in ("analysis", "optimize", "quantize", "fault_sim", "self_test", "multi_weight"):
        found[spec[stage]["kind"]] = spec[stage]
    for row in experiment_rows_dict(rows + extra_rows)["rows"]:
        found.setdefault(row["kind"], row)
    return found


def _load(kind, data):
    # Fault-sim stats are read through the result that holds them.
    if kind == "fault_sim_stats":
        return FaultSimStats.from_dict(data)
    return load_artifact(data)


@pytest.mark.parametrize("kind", sorted(REQUIRED))
def test_dropping_a_field_fails_exactly_when_it_is_required(kind, samples):
    sample = json.loads(json.dumps(samples[kind]))
    assert sample["kind"] == kind
    _load(kind, sample)
    for name in sample:
        damaged = {key: value for key, value in sample.items() if key != name}
        if name in REQUIRED[kind] | {"kind", "schema_version"}:
            with pytest.raises(SchemaError):
                _load(kind, damaged)
        else:
            _load(kind, damaged)
