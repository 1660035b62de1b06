"""``python -m repro bench`` — CLI workflow and CI regression gate.

Uses a synthetic registered area whose numbers the tests control, so the
gate's behaviour is exercised without paying for a real optimization run:

* ``--update`` records the first trajectory point; a matching re-run with
  ``--check`` passes (exit 0);
* a synthetically slowed speedup / drifted counter makes ``--check`` exit
  non-zero — the acceptance criterion of the CI gate;
* a gated area without a committed baseline fails ``--check`` (so CI cannot
  silently pass before the first point is committed);
* the five committed ``BENCH_*.json`` files at the repo root stay loadable
  through :func:`repro.api.load_artifact` and carry both a quick-mode and a
  full-mode baseline;
* ``report --plot-dir`` renders every committed trajectory as an image
  (PNG when matplotlib is installed, dependency-free SVG otherwise).
"""

import json
from pathlib import Path

import pytest

from repro.api import load_artifact
from repro.bench import (
    BenchArea,
    BenchRunner,
    BenchTrajectory,
    MetricPolicy,
    gated_area_names,
    get_area,
)
from repro.bench.cli import main as bench_main
from repro.bench.registry import _REGISTRY

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Mutable knobs the synthetic area reads on every run — tests twist these
#: to simulate perf regressions and behavioural drift between invocations.
KNOBS = {"speedup": 10.0, "test_length": 662}


def _run_synthetic(quick: bool = False):
    runner = BenchRunner("synthetic", quick=quick)
    runner.workload(circuit="demo")
    runner.metric("speedup", KNOBS["speedup"])
    runner.counter("test_length", KNOBS["test_length"])
    runner.timing("demo_seconds", 0.001)
    return runner.result()


@pytest.fixture
def synthetic_area():
    """Register a controllable gated area; unregister on teardown."""
    area = BenchArea(
        name="synthetic",
        title="synthetic area for CLI tests",
        run=_run_synthetic,
        policies={"speedup": MetricPolicy(direction="higher", rel_tol=0.2, floor=2.0)},
        gated=True,
    )
    _REGISTRY[area.name] = area
    KNOBS.update(speedup=10.0, test_length=662)
    yield area
    _REGISTRY.pop(area.name, None)


class TestBenchCliGate:
    def test_update_then_check_passes(self, synthetic_area, tmp_path):
        root = str(tmp_path)
        assert bench_main(["synthetic", "--quick", "--update", "--root", root]) == 0
        assert (tmp_path / "BENCH_synthetic.json").exists()
        assert bench_main(["synthetic", "--quick", "--check", "--root", root]) == 0

    def test_slowed_result_fails_check(self, synthetic_area, tmp_path, capsys):
        """The acceptance criterion: a synthetic slowdown exits non-zero."""
        root = str(tmp_path)
        assert bench_main(["synthetic", "--quick", "--update", "--root", root]) == 0
        KNOBS["speedup"] = 5.0  # -50%, beyond the 20% tolerance
        assert bench_main(["synthetic", "--quick", "--check", "--root", root]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_tolerated_slowdown_passes_check(self, synthetic_area, tmp_path):
        root = str(tmp_path)
        assert bench_main(["synthetic", "--quick", "--update", "--root", root]) == 0
        KNOBS["speedup"] = 9.0  # -10%, within the 20% tolerance
        assert bench_main(["synthetic", "--quick", "--check", "--root", root]) == 0

    def test_counter_drift_fails_check(self, synthetic_area, tmp_path):
        root = str(tmp_path)
        assert bench_main(["synthetic", "--quick", "--update", "--root", root]) == 0
        KNOBS["test_length"] = 700  # deterministic invariant drifted
        assert bench_main(["synthetic", "--quick", "--check", "--root", root]) == 1

    def test_hard_floor_fails_even_on_update(self, synthetic_area, tmp_path):
        """The legacy --min-speedup backstop applies with no baseline at all."""
        KNOBS["speedup"] = 1.0  # below the floor of 2.0
        assert (
            bench_main(["synthetic", "--quick", "--check", "--update", "--root", str(tmp_path)])
            == 1
        )

    def test_missing_baseline_fails_check_for_gated_area(
        self, synthetic_area, tmp_path, capsys
    ):
        assert bench_main(["synthetic", "--quick", "--check", "--root", str(tmp_path)]) == 1
        assert "no committed baseline" in capsys.readouterr().err

    def test_missing_baseline_without_check_only_warns(self, synthetic_area, tmp_path):
        assert bench_main(["synthetic", "--quick", "--root", str(tmp_path)]) == 0

    def test_full_and_quick_baselines_are_independent(self, synthetic_area, tmp_path):
        root = str(tmp_path)
        assert bench_main(["synthetic", "--quick", "--update", "--root", root]) == 0
        # No *full* baseline exists yet, so a full-mode check still fails …
        assert bench_main(["synthetic", "--check", "--root", root]) == 1
        assert bench_main(["synthetic", "--update", "--root", root]) == 0
        # … and a full-mode regression does not hide behind the quick point.
        KNOBS["speedup"] = 5.0
        assert bench_main(["synthetic", "--check", "--root", root]) == 1

    def test_json_dir_writes_candidate_trajectory(self, synthetic_area, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        candidates = tmp_path / "candidates"
        assert (
            bench_main(
                ["synthetic", "--quick", "--json-dir", str(candidates), "--root", str(root)]
            )
            == 0
        )
        # The candidate is written aside; the committed root is untouched.
        candidate = load_artifact(
            json.loads((candidates / "BENCH_synthetic.json").read_text())
        )
        assert isinstance(candidate, BenchTrajectory)
        assert len(candidate) == 1
        assert not (root / "BENCH_synthetic.json").exists()

    def test_update_appends_to_history(self, synthetic_area, tmp_path):
        root = str(tmp_path)
        for speedup in (10.0, 11.0, 12.0):
            KNOBS["speedup"] = speedup
            assert bench_main(["synthetic", "--quick", "--update", "--root", root]) == 0
        trajectory = load_artifact(
            json.loads((tmp_path / "BENCH_synthetic.json").read_text())
        )
        assert [point.metrics["speedup"] for point in trajectory.points] == [10.0, 11.0, 12.0]

    def test_report_renders_history(self, synthetic_area, tmp_path, capsys):
        root = str(tmp_path)
        for speedup in (10.0, 12.0):
            KNOBS["speedup"] = speedup
            assert bench_main(["synthetic", "--quick", "--update", "--root", root]) == 0
        capsys.readouterr()
        assert bench_main(["report", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "synthetic" in out and "speedup" in out and "improved" in out


class TestBenchCliPlots:
    def test_report_plot_dir_renders_one_image_per_area(
        self, synthetic_area, tmp_path, capsys
    ):
        root = str(tmp_path / "root")
        Path(root).mkdir()
        for speedup in (10.0, 12.0):
            KNOBS["speedup"] = speedup
            assert bench_main(["synthetic", "--quick", "--update", "--root", root]) == 0
        plots = tmp_path / "plots"
        capsys.readouterr()
        assert bench_main(["report", "--root", root, "--plot-dir", str(plots)]) == 0
        assert "wrote plot" in capsys.readouterr().out
        images = sorted(plots.iterdir())
        assert len(images) == 1
        image = images[0]
        assert image.name.startswith("bench_synthetic.")
        if image.suffix == ".svg":
            import xml.dom.minidom

            xml.dom.minidom.parse(str(image))  # well-formed
            content = image.read_text()
            assert "speedup" in content and "test_length" in content

    def test_render_skips_empty_trajectory(self, tmp_path):
        from repro.bench.plot import render_trajectory

        assert render_trajectory(BenchTrajectory(area="empty"), tmp_path) is None

    def test_quick_and_full_series_are_split(self, synthetic_area, tmp_path):
        from repro.bench.plot import _series

        root = str(tmp_path)
        assert bench_main(["synthetic", "--quick", "--update", "--root", root]) == 0
        assert bench_main(["synthetic", "--update", "--root", root]) == 0
        trajectory = load_artifact(
            json.loads((tmp_path / "BENCH_synthetic.json").read_text())
        )
        series = _series(trajectory)
        assert set(series["speedup"]) == {"quick", "full"}


class TestBenchCliSurface:
    def test_unknown_area_exits_2(self, capsys):
        assert bench_main(["no_such_area"]) == 2
        assert "unknown benchmark area" in capsys.readouterr().err

    def test_list_shows_all_areas_with_gate_tags(self, capsys):
        assert bench_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("substrate", "table5", "session", "bist"):
            assert f"{name} " in out or f"{name}\n" in out
        assert "[gated]" in out and "[info ]" in out

    def test_repro_cli_dispatches_bench(self, capsys):
        from repro.api.cli import main as repro_main

        assert repro_main(["bench", "list"]) == 0
        assert "substrate" in capsys.readouterr().out


class TestCommittedTrajectories:
    """The five committed BENCH_*.json files are valid, loadable artifacts."""

    @pytest.mark.parametrize(
        "area_name", ["substrate", "table5", "session", "bist", "synth"]
    )
    def test_committed_trajectory_is_valid(self, area_name):
        path = REPO_ROOT / f"BENCH_{area_name}.json"
        assert path.exists(), f"{path} must be committed (python -m repro bench --update)"
        trajectory = load_artifact(json.loads(path.read_text()))
        assert isinstance(trajectory, BenchTrajectory)
        assert trajectory.area == area_name
        baseline = trajectory.baseline_for(quick=True)
        assert baseline is not None, "CI gates against a committed quick-mode point"
        full = trajectory.baseline_for(quick=False)
        assert full is not None, "acceptance runs gate against a full-mode point"
        # Volatile fields are present in the committed artifact but scrubbed
        # from the canonical form the round-trip tests compare.
        assert "timing" not in baseline.canonical_dict()

    def test_committed_synth_full_point_shows_partitioning_win(self):
        """The acceptance workload: on the 100k-gate netlist, PPSFP
        partitioning with inter-batch compaction beats re-simulating
        every fault, and the committed counters record the reduction."""
        trajectory = load_artifact(
            json.loads((REPO_ROOT / "BENCH_synth.json").read_text())
        )
        point = trajectory.baseline_for(quick=False)
        assert point.workload["generator_n_gates"] == 100_000
        assert point.metrics["partition_speedup"] > 1.0
        assert (
            point.counters["faults_simulated_partitioned"]
            < point.counters["faults_simulated_nodrop"]
        )

    @pytest.mark.parametrize("key", ["c432", "c499"])
    def test_session_area_runs_the_pinned_specs(self, key):
        """The ``session`` area's quick specs are the ones whose hashes and
        store keys ``tests/test_spec_pins.py`` pins."""
        from repro.bench.areas.session import _QUICK, DEFAULT_KEYS, area_spec
        from tests.test_spec_pins import session_area_spec

        assert key in DEFAULT_KEYS
        assert area_spec(key, **_QUICK) == session_area_spec(key)

    def test_every_gated_area_has_a_committed_trajectory(self):
        for name in gated_area_names():
            assert (REPO_ROOT / f"BENCH_{name}.json").exists()
            assert get_area(name).gated
