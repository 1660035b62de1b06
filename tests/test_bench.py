"""Benchmark-harness artifacts and regression classification.

Contracts under test, mirroring ``test_api_serialization.py``:

* :class:`~repro.bench.artifacts.BenchResult` / ``BenchTrajectory`` survive
  ``json.dumps`` → ``json.loads`` → ``from_dict`` exactly and reject bad
  envelopes (wrong kind, unknown schema_version, unknown/missing fields)
  loudly via :class:`~repro.api.SchemaError`;
* ``canonical_dict`` scrubs the volatile per-run fields (timings, RSS,
  host meta) so two runs with equal metrics/counters compare equal;
* :func:`~repro.api.load_artifact` dispatches both bench kinds;
* :func:`~repro.bench.compare.compare_results` classifies improvement /
  within-tolerance / regression / exact drift / hard floor / missing
  baseline, and only gated deltas fail.
"""

import json
import math

import pytest

from repro.api import SchemaError, load_artifact
from repro.bench import (
    BenchResult,
    BenchRunner,
    BenchTrajectory,
    MetricPolicy,
    best_of,
    compare_results,
    format_comparison,
    load_trajectory,
    save_trajectory,
    trajectory_path,
)
from repro.bench.compare import EXACT_COUNTER_POLICY, RSS_POLICY, classify


def json_roundtrip(data):
    """The exact wire format: through the JSON text representation."""
    return json.loads(json.dumps(data))


def make_result(**overrides):
    fields = dict(
        area="substrate",
        quick=True,
        workload={"circuit": "s2", "n_patterns": 256},
        metrics={"speedup": 12.5, "fault_coverage": 0.71875},
        counters={"n_faults": 96},
        timing={"compiled_seconds": 0.021, "legacy_seconds": 0.406},
        peak_rss_bytes=54 * 2**20,
        meta={"recorded_at": "2026-08-07T00:00:00Z", "python": "3.11.7"},
    )
    fields.update(overrides)
    return BenchResult(**fields)


# --------------------------------------------------------------------------- #
# BenchResult round trips and validation
# --------------------------------------------------------------------------- #
class TestBenchResultRoundTrip:
    def test_json_roundtrip_is_exact(self):
        result = make_result()
        restored = BenchResult.from_dict(json_roundtrip(result.to_dict()))
        assert restored == result

    def test_minimal_result_roundtrip(self):
        result = BenchResult(area="x", quick=False)
        restored = BenchResult.from_dict(json_roundtrip(result.to_dict()))
        assert restored == result
        assert restored.peak_rss_bytes is None

    def test_load_artifact_dispatches_bench_result(self):
        result = make_result()
        restored = load_artifact(json_roundtrip(result.to_dict()))
        assert isinstance(restored, BenchResult)
        assert restored == result

    def test_canonical_dict_scrubs_volatile_fields(self):
        """Two runs differing only in timings/RSS/host meta are canonically
        equal — the same contract PipelineReport.canonical_dict provides."""
        first = make_result()
        second = make_result(
            timing={"compiled_seconds": 0.9, "legacy_seconds": 9.9},
            peak_rss_bytes=2**30,
            meta={"recorded_at": "2031-01-01T00:00:00Z", "python": "3.14.0"},
        )
        assert first != second
        assert first.canonical_dict() == second.canonical_dict()
        for volatile in ("timing", "peak_rss_bytes", "meta"):
            assert volatile not in first.canonical_dict()

    def test_unknown_schema_version_rejected(self):
        data = make_result().to_dict()
        data["schema_version"] = 999
        with pytest.raises(SchemaError, match="schema_version"):
            BenchResult.from_dict(data)

    def test_wrong_kind_rejected(self):
        data = make_result().to_dict()
        data["kind"] = "pipeline_report"
        with pytest.raises(SchemaError, match="kind"):
            BenchResult.from_dict(data)

    def test_unknown_field_rejected(self):
        data = make_result().to_dict()
        data["speedup"] = 3.0
        with pytest.raises(SchemaError, match="unknown fields"):
            BenchResult.from_dict(data)

    def test_missing_required_field_rejected(self):
        data = make_result().to_dict()
        del data["metrics"]
        with pytest.raises(SchemaError, match="missing"):
            BenchResult.from_dict(data)

    def test_non_integer_counter_rejected(self):
        with pytest.raises(ValueError, match="int"):
            make_result(counters={"n_faults": 96.5})
        data = make_result().to_dict()
        data["counters"] = {"n_faults": 96.5}
        with pytest.raises(SchemaError):
            BenchResult.from_dict(data)

    def test_non_scalar_workload_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            make_result(workload={"keys": ["s1", "s2"]})


# --------------------------------------------------------------------------- #
# BenchTrajectory
# --------------------------------------------------------------------------- #
class TestBenchTrajectory:
    def test_json_roundtrip_is_exact(self):
        trajectory = BenchTrajectory(
            area="substrate", points=(make_result(), make_result(quick=False))
        )
        restored = BenchTrajectory.from_dict(json_roundtrip(trajectory.to_dict()))
        assert restored == trajectory

    def test_load_artifact_dispatches_bench_trajectory(self):
        trajectory = BenchTrajectory(area="substrate", points=(make_result(),))
        restored = load_artifact(json_roundtrip(trajectory.to_dict()))
        assert isinstance(restored, BenchTrajectory)
        assert restored == trajectory

    def test_area_mismatch_rejected(self):
        with pytest.raises(ValueError, match="area"):
            BenchTrajectory(area="bist", points=(make_result(),))
        trajectory = BenchTrajectory(area="substrate")
        with pytest.raises(ValueError, match="append"):
            trajectory.with_point(make_result(area="bist"))

    def test_baseline_for_matches_mode(self):
        quick_point = make_result(quick=True, metrics={"speedup": 10.0})
        full_point = make_result(quick=False, metrics={"speedup": 20.0})
        trajectory = BenchTrajectory(area="substrate", points=(quick_point, full_point))
        assert trajectory.baseline_for(quick=True) == quick_point
        assert trajectory.baseline_for(quick=False) == full_point
        assert BenchTrajectory(area="substrate").baseline_for(quick=True) is None

    def test_with_point_appends_and_trims(self):
        trajectory = BenchTrajectory(area="substrate")
        for i in range(5):
            trajectory = trajectory.with_point(
                make_result(counters={"n_faults": i}), max_points=3
            )
        assert len(trajectory) == 3
        assert [point.counters["n_faults"] for point in trajectory.points] == [2, 3, 4]

    def test_file_roundtrip(self, tmp_path):
        trajectory = BenchTrajectory(area="substrate", points=(make_result(),))
        path = trajectory_path("substrate", tmp_path)
        assert path.name == "BENCH_substrate.json"
        save_trajectory(trajectory, path)
        assert load_trajectory(path) == trajectory
        # Stable, diff-friendly formatting: indented, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert text.startswith('{\n  "kind": "bench_trajectory"')

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "BENCH_substrate.json"
        path.write_text("not json {")
        with pytest.raises(SchemaError, match="JSON"):
            load_trajectory(path)


# --------------------------------------------------------------------------- #
# Regression classification
# --------------------------------------------------------------------------- #
class TestClassify:
    def test_improvement(self):
        policy = MetricPolicy(direction="higher", rel_tol=0.1)
        delta = classify("speedup", 12.0, 10.0, policy)
        assert delta.status == "improved"
        assert not delta.failed

    def test_within_tolerance_is_ok(self):
        policy = MetricPolicy(direction="higher", rel_tol=0.1)
        delta = classify("speedup", 9.5, 10.0, policy)
        assert delta.status == "ok"
        assert not delta.failed

    def test_regression_beyond_tolerance_fails_when_gated(self):
        policy = MetricPolicy(direction="higher", rel_tol=0.1)
        delta = classify("speedup", 8.0, 10.0, policy)
        assert delta.status == "regressed"
        assert delta.failed

    def test_ungated_regression_does_not_fail(self):
        policy = MetricPolicy(direction="higher", rel_tol=0.1, gate=False)
        delta = classify("throughput", 1.0, 10.0, policy)
        assert delta.status == "regressed"
        assert not delta.failed

    def test_lower_is_better_direction(self):
        policy = MetricPolicy(direction="lower", rel_tol=0.1)
        assert classify("rss", 9.0, 10.0, policy).status == "improved"
        assert classify("rss", 12.0, 10.0, policy).status == "regressed"

    def test_exact_direction_flags_any_drift(self):
        assert classify("length", 662, 662, EXACT_COUNTER_POLICY).status == "ok"
        drifted = classify("length", 663, 662, EXACT_COUNTER_POLICY)
        assert drifted.status == "changed"
        assert drifted.failed

    def test_missing_baseline(self):
        policy = MetricPolicy(direction="higher", rel_tol=0.1)
        delta = classify("speedup", 12.0, None, policy)
        assert delta.status == "missing"
        assert not delta.failed  # missing baselines fail at the CLI layer

    def test_hard_floor_applies_without_baseline(self):
        """The legacy fixed --min-speedup gates survive as hard floors."""
        policy = MetricPolicy(direction="higher", rel_tol=0.4, floor=5.0)
        floored = classify("speedup", 3.0, None, policy)
        assert floored.status == "floored"
        assert floored.failed
        assert classify("speedup", 6.0, None, policy).status == "missing"
        # The floor also overrides an otherwise-tolerated drop.
        assert classify("speedup", 3.0, 5.0, policy).status == "floored"


class TestCompareResults:
    def test_all_within_tolerance_passes(self):
        baseline = make_result()
        candidate = make_result(metrics={"speedup": 12.0, "fault_coverage": 0.71875})
        comparison = compare_results(
            candidate,
            baseline,
            {"speedup": MetricPolicy(direction="higher", rel_tol=0.4)},
        )
        assert comparison.passed
        assert not comparison.baseline_missing
        statuses = {delta.name: delta.status for delta in comparison.deltas}
        assert statuses["speedup"] == "ok"
        assert statuses["n_faults"] == "ok"
        assert statuses["peak_rss_bytes"] == "ok"

    def test_gated_regression_fails(self):
        baseline = make_result()
        candidate = make_result(metrics={"speedup": 2.0, "fault_coverage": 0.71875})
        comparison = compare_results(
            candidate,
            baseline,
            {"speedup": MetricPolicy(direction="higher", rel_tol=0.4)},
        )
        assert not comparison.passed
        assert [delta.name for delta in comparison.failures()] == ["speedup"]

    def test_counter_drift_fails_by_default(self):
        baseline = make_result()
        candidate = make_result(counters={"n_faults": 97})
        comparison = compare_results(candidate, baseline, {})
        assert [delta.name for delta in comparison.failures()] == ["n_faults"]

    def test_disappeared_gated_metric_fails(self):
        """Silently dropping a gated number must not pass the gate."""
        baseline = make_result()
        candidate = make_result(counters={})
        comparison = compare_results(candidate, baseline, {})
        failures = {delta.name: delta for delta in comparison.failures()}
        assert "n_faults" in failures
        assert failures["n_faults"].status == "changed"
        assert math.isnan(failures["n_faults"].value)

    def test_missing_baseline_passes_at_this_layer(self):
        comparison = compare_results(make_result(), None, {})
        assert comparison.baseline_missing
        assert comparison.passed
        assert all(delta.status == "missing" for delta in comparison.deltas)

    def test_rss_tracked_but_not_gated(self):
        baseline = make_result()
        candidate = make_result(peak_rss_bytes=10 * baseline.peak_rss_bytes)
        comparison = compare_results(candidate, baseline, {})
        rss = next(d for d in comparison.deltas if d.name == "peak_rss_bytes")
        assert rss.status == "regressed"
        assert not rss.failed
        assert not RSS_POLICY.gate

    def test_format_comparison_mentions_every_metric(self):
        comparison = compare_results(make_result(), make_result(), {})
        text = format_comparison(comparison)
        for name in ("speedup", "fault_coverage", "n_faults", "peak_rss_bytes"):
            assert name in text


class TestMetricPolicyValidation:
    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            MetricPolicy(direction="sideways")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            MetricPolicy(rel_tol=-0.1)


# --------------------------------------------------------------------------- #
# BenchRunner
# --------------------------------------------------------------------------- #
class TestBenchRunner:
    def test_runner_builds_a_complete_result(self):
        runner = BenchRunner("demo", quick=True)
        runner.workload(circuit="s1", n_patterns=64)
        runner.metric("coverage", 0.5)
        runner.counter("test_length", 662)
        runner.timing("slow_seconds", 2.0)
        runner.timing("fast_seconds", 0.5)
        result = runner.result(speedup=("slow", "fast"))
        assert result.area == "demo" and result.quick is True
        assert result.metrics["speedup"] == pytest.approx(4.0)
        assert result.counters == {"test_length": 662}
        assert result.meta["recorded_at"].endswith("Z")
        assert result.meta["cop_tier"] in ("native", "numpy")
        # The result is a valid artifact end to end.
        assert load_artifact(json_roundtrip(result.to_dict())) == result

    def test_measure_records_best_time_and_value(self):
        runner = BenchRunner("demo", quick=True)
        calls = []
        measurement = runner.measure("section", lambda: calls.append(1) or 42, repeats=3)
        assert measurement.value == 42
        assert len(calls) == 3
        assert runner.result().timing["section_seconds"] == measurement.best_seconds

    def test_best_of_runs_warmup_untimed(self):
        calls = []
        measurement = best_of(lambda: calls.append(1), repeats=2, warmup=3)
        assert len(calls) == 5
        assert measurement.repeats == 2

    def test_interleaved_sections_alternate_until_each_reaches_min_seconds(self, monkeypatch):
        import time
        from types import SimpleNamespace

        from repro.bench import runner as runner_module

        # A fake clock that only a section advances, by exactly its duration
        # (binary fractions, so the sums are exact): the repeat counts then
        # do not depend on how precisely the machine sleeps.
        now = [0.0]
        clock = SimpleNamespace(
            perf_counter=lambda: now[0], strftime=time.strftime, gmtime=time.gmtime
        )
        monkeypatch.setattr(runner_module, "time", clock)
        runner = BenchRunner("demo", quick=True, repeats=2)
        order = []

        def section(name, seconds):
            def run():
                order.append(name)
                now[0] += seconds
                return name

            return run

        measured = runner.measure_interleaved(
            {"fast": section("fast", 2**-10), "slow": section("slow", 5 * 2**-8)},
            min_seconds=0.05,
        )
        assert order[:4] == ["fast", "slow", "fast", "slow"]
        assert measured["slow"].repeats == order.count("slow") >= 3
        assert measured["fast"].repeats == order.count("fast") > measured["slow"].repeats
        for name, measurement in measured.items():
            assert measurement.value == name
            assert measurement.repeats * measurement.mean_seconds >= 0.05
            assert runner.result().timing[f"{name}_seconds"] == measurement.best_seconds

    def test_compile_delta_counts_lowerings(self):
        from repro.circuits import build_circuit
        from repro.lowered import clear_lowered_cache, compile_lowered

        clear_lowered_cache()
        runner = BenchRunner("demo")
        with runner.compile_delta("first"):
            compile_lowered(build_circuit("c432"))
        with runner.compile_delta("cached"):
            compile_lowered(build_circuit("c432"))
        result = runner.result()
        assert result.counters["first"] == 1
        assert result.counters["cached"] == 0
