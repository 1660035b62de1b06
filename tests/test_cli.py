"""Tests for the ``python -m repro`` CLI (:mod:`repro.api.cli`).

Each command is driven in-process through ``main(argv)`` with small budgets;
the written JSON artifact files are validated by reloading them through
``PipelineReport.from_dict`` / ``load_artifact`` — the same check the CI
smoke job performs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import AnalysisConfig, PipelineSpec, execute_spec, load_artifact
from repro.api.cli import main
from repro.circuit import parse_bench
from repro.circuits import alu_circuit
from repro.pipeline import PipelineReport

from .helpers import C17_BENCH, over_cap_multi_weight_spec


def read_json(path):
    return json.loads(path.read_text())


class TestRunCommand:
    def test_single_circuit_writes_loadable_report(self, tmp_path, capsys):
        artifact = tmp_path / "c432.json"
        rc = main(
            [
                "run",
                "c432",
                "--patterns",
                "128",
                "--max-sweeps",
                "2",
                "--json",
                str(artifact),
            ]
        )
        assert rc == 0
        report = PipelineReport.from_dict(read_json(artifact))
        assert report.key == "c432"
        assert report.n_patterns == 128
        assert report.optimized_coverage is not None
        out = capsys.readouterr().out
        assert "[c432]" in out and "conventional N" in out

    def test_multiple_circuits_write_report_batch(self, tmp_path):
        artifact = tmp_path / "batch.json"
        rc = main(
            [
                "run",
                "c432",
                "c499",
                "--analysis-only",
                "--parallelism",
                "2",
                "--json",
                str(artifact),
            ]
        )
        assert rc == 0
        reports = load_artifact(read_json(artifact)).reports
        assert [r.key for r in reports] == ["c432", "c499"]
        assert all(r.optimization is None for r in reports)

    def test_spec_file_input(self, tmp_path):
        spec = PipelineSpec(
            circuit=alu_circuit(width=2).to_dict(),
            key="inline-job",
            optimize=None,
            quantize=None,
            fault_sim=None,
        )
        spec_path = tmp_path / "job.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        artifact = tmp_path / "out.json"
        rc = main(["run", "--spec", str(spec_path), "--json", str(artifact)])
        assert rc == 0
        report = PipelineReport.from_dict(read_json(artifact))
        assert report.key == "inline-job"

    def test_invalid_spec_file_exits_2_with_path(self, tmp_path, capsys):
        """Satellite: malformed/unknown-schema spec files exit 2 with a
        path-prefixed SchemaError message instead of a traceback."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "pipeline_spec", "schema_version": 99}))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--spec", str(bad)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:")
        assert "schema_version" in err

    def test_unreadable_spec_file_exits_2_with_path(self, tmp_path, capsys):
        bad = tmp_path / "nonsense.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--spec", str(bad)])
        assert excinfo.value.code == 2
        assert f"error: {bad}:" in capsys.readouterr().err

    def test_missing_spec_file_exits_2_with_path(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--spec", str(missing)])
        assert excinfo.value.code == 2
        assert f"error: {missing}:" in capsys.readouterr().err

    @pytest.mark.parametrize("config", ["analysis", "fault_sim"])
    def test_spec_naming_numba_exits_2_without_traceback(self, config, tmp_path, capsys):
        data = PipelineSpec(circuit="s1").to_dict()
        data[config] = {**data[config], "backend": "numba"}
        spec_path = tmp_path / "numba.json"
        spec_path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--spec", str(spec_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec_path}:")
        assert "backend 'numba' was removed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data.update(key=5), "key must be a str or None, got 5"),
            (
                lambda data: data["analysis"].update(estimator="scalar"),
                "estimator 'scalar' was removed",
            ),
            (
                lambda data: data["fault_sim"].update(partition_size=7),
                "partition_size 7 was removed",
            ),
            (
                lambda data: data["fault_sim"].update(batch_size=512),
                "batch_size 512 was removed",
            ),
            (
                lambda data: data.update(
                    circuit={**parse_bench(C17_BENCH, name="c17").to_dict(), "gates": 5}
                ),
                "netlist 'gates' must be a list, got int",
            ),
        ],
        ids=["int_key", "scalar_estimator", "partition_size", "batch_size", "inline_gates"],
    )
    def test_malformed_spec_exits_2_without_traceback(self, edit, message, tmp_path, capsys):
        data = PipelineSpec(circuit="s1").to_dict()
        edit(data)
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--spec", str(spec_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec_path}:")
        assert len(err.splitlines()) == 1
        assert message in err
        assert "Traceback" not in err

    def test_no_input_is_an_error(self, capsys):
        assert main(["run"]) == 2
        assert "no circuits" in capsys.readouterr().err

    def test_cli_artifact_matches_in_process_run(self, tmp_path):
        """Acceptance: the CLI artifact equals the in-process report of the
        same spec (same seed => identical lengths, weights, coverages)."""
        from repro.api import FaultSimConfig, OptimizeConfig, execute_spec

        artifact = tmp_path / "repro.json"
        rc = main(
            [
                "run",
                "c499",
                "--patterns",
                "128",
                "--max-sweeps",
                "2",
                "--seed",
                "7",
                "--json",
                str(artifact),
            ]
        )
        assert rc == 0
        from_cli = PipelineReport.from_dict(json.loads(artifact.read_text()))
        in_process = execute_spec(
            PipelineSpec(
                circuit="c499",
                seed=7,
                optimize=OptimizeConfig(max_sweeps=2),
                fault_sim=FaultSimConfig(n_patterns=128),
            )
        )
        assert from_cli.canonical_dict() == in_process.canonical_dict()


class TestSweepCommand:
    def test_sweep_selected_circuits(self, tmp_path):
        artifact = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep",
                "--circuits",
                "c432,c499",
                "--analysis-only",
                "--parallelism",
                "2",
                "--json",
                str(artifact),
            ]
        )
        assert rc == 0
        reports = load_artifact(read_json(artifact)).reports
        assert [r.key for r in reports] == ["c432", "c499"]


class TestSelftestCommand:
    def test_weighted_selftest_with_injection(self, tmp_path):
        artifact = tmp_path / "selftest.json"
        rc = main(
            [
                "selftest",
                "c432",
                "--patterns",
                "128",
                "--max-sweeps",
                "2",
                "--inject-hardest",
                "--json",
                str(artifact),
            ]
        )
        assert rc == 0  # injected fault detected
        report = PipelineReport.from_dict(read_json(artifact))
        assert report.self_test is not None
        assert report.self_test_fault is not None
        assert not report.self_test.passed

    def test_unweighted_clean_selftest_passes(self, tmp_path):
        rc = main(
            [
                "selftest",
                "c432",
                "--patterns",
                "64",
                "--unweighted",
                "--prng",
                "--json",
                str(tmp_path / "st.json"),
            ]
        )
        assert rc == 0
        report = PipelineReport.from_dict(read_json(tmp_path / "st.json"))
        assert report.self_test.passed
        assert report.optimization is None  # unweighted run skips optimize


class TestTablesCommand:
    def test_quick_tables_writes_loadable_rows(self, tmp_path, capsys):
        artifact = tmp_path / "rows.json"
        rc = main(
            [
                "tables",
                "--quick",
                "--max-sweeps",
                "1",
                "--parallelism",
                "2",
                "--json",
                str(artifact),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 3" in out and "Table 5" in out
        assert "Table 2" not in out  # fault-sim tables skipped in --quick
        rows = load_artifact(read_json(artifact)).rows
        kinds = {type(row).__name__ for row in rows}
        assert {"Table1Row", "Table3Row", "Table5Row", "AppendixListing"} <= kinds
        assert not any(type(row).__name__ == "Table2Row" for row in rows)

    def test_confidence_reaches_the_table1_lengths(self, tmp_path):
        artifact = tmp_path / "rows.json"
        rc = main(
            [
                "tables",
                "--quick",
                "--max-sweeps",
                "1",
                "--confidence",
                "0.9",
                "--json",
                str(artifact),
            ]
        )
        assert rc == 0
        rows = load_artifact(read_json(artifact)).rows
        s1 = next(
            row for row in rows if type(row).__name__ == "Table1Row" and row.key == "s1"
        )

        def s1_length(confidence):
            spec = PipelineSpec(
                circuit="s1",
                analysis=AnalysisConfig(confidence=confidence),
                optimize=None,
                quantize=None,
                fault_sim=None,
            )
            return execute_spec(spec).conventional_length

        assert s1.measured_length == s1_length(0.9)
        assert s1.measured_length < s1_length(0.999)

    def test_multi_weight_flags_are_not_tables_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--quick", "--multi-weight", "2"])
        assert exc.value.code == 2
        assert "--multi-weight" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "s1", "--seed", "-1"],
        ["run", "s1", "--confidence", "1.5"],
        ["tables", "--max-sweeps", "0"],
        ["selftest", "s1", "--patterns", "0"],
        ["selftest", "s1", "--patterns", str((1 << 20) + 1)],
        ["run", "--bench", "no-such-netlist.bench"],
        ["run", "c17"],
        ["sweep", "--circuits", "c17"],
        ["selftest", "c17"],
    ],
    ids=[
        "seed",
        "confidence",
        "max-sweeps",
        "selftest-patterns",
        "selftest-patterns-over-cap",
        "missing-bench-file",
        "unknown-key-run",
        "unknown-key-sweep",
        "unknown-key-selftest",
    ],
)
def test_out_of_range_values_exit_2_without_traceback(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_partition_size_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "s1", "--partition-size", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --partition-size" in capsys.readouterr().err


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_over_cap_schedule_exits_2_without_traceback(parallelism, tmp_path, capsys):
    """A spec that validates but whose multi-weight schedule exceeds
    MAX_SCHEDULE_PATTERNS stops with a usage error before playback, in
    process and from a pool worker."""
    path = tmp_path / "over_cap.json"
    path.write_text(json.dumps(over_cap_multi_weight_spec().to_dict()))
    assert main(["run", "--spec", str(path), "--parallelism", parallelism]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "MAX_SCHEDULE_PATTERNS" in err and "multi_weight.budget" in err
    # The advice names the one route the CLI offers to a budget.
    assert "--spec" in err and '"multi_weight": {"budget": N}' in err
    assert "Traceback" not in err


class TestStoreCli:
    def _run_stored(self, tmp_path, capsys):
        root = tmp_path / "store"
        rc = main(
            [
                "run",
                "s1",
                "--patterns",
                "64",
                "--max-sweeps",
                "1",
                "--store",
                str(root),
            ]
        )
        assert rc == 0
        return root, capsys.readouterr().out

    def test_run_store_second_run_is_a_hit(self, tmp_path, capsys):
        """Acceptance: `run --store` — the rerun is served from the store."""
        root, cold_out = self._run_stored(tmp_path, capsys)
        assert "(store hit)" not in cold_out

        from repro.api.executor import executor_stats
        from repro.lowered import compile_count

        before = executor_stats()
        lowerings = compile_count()
        _, warm_out = self._run_stored(tmp_path, capsys)
        assert "(store hit)" in warm_out
        assert executor_stats()["executions"] == before["executions"]
        assert executor_stats()["stage_runs"] == before["stage_runs"]
        assert compile_count() == lowerings

    def test_store_ls_get_gc(self, tmp_path, capsys):
        root, _ = self._run_stored(tmp_path, capsys)

        assert main(["store", "--store", str(root), "ls"]) == 0
        captured = capsys.readouterr()
        keys = captured.out.splitlines()
        report_keys = [k for k in keys if k.startswith("pipeline_report/")]
        assert len(report_keys) == 1
        assert "artifacts" in captured.err

        assert main(["store", "--store", str(root), "get", report_keys[0]]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert PipelineReport.from_dict(artifact).key == "s1"

        missing = "pipeline_report/" + "00" * 32
        assert main(["store", "--store", str(root), "get", missing]) == 1
        assert "no artifact" in capsys.readouterr().err

        assert main(["store", "--store", str(root), "gc", "--max-entries", "1"]) == 0
        assert "evicted" in capsys.readouterr().out
        assert main(["store", "--store", str(root), "ls"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1


def test_store_get_into_a_closed_pipe_exits_quietly(tmp_path):
    """A reader that stops early (``| head -c 100``) ends the command quietly:
    no traceback on stderr, the 128 + SIGPIPE status."""
    from repro.store import open_store

    key = "pipeline_report/" + "ab" * 32
    # Larger than any pipe buffer, so the writer meets the closed pipe.
    open_store(str(tmp_path)).put(key, {"kind": "blob", "text": "x" * 1_000_000})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "store", "--store", str(tmp_path), "get", key],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""
