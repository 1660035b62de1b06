"""Tests for the parallel batch executor and the spec execution path.

The acceptance contract: ``run_jobs`` over the full benchmark registry with
``parallelism=4`` returns results **bit-identical** to the serial path
(compared via ``PipelineReport.canonical_dict``, which excludes only
wall-clock/process-local fields), and every worker compiles each distinct
circuit structure at most once (asserted via the per-worker compile
counters streamed back with the results).
"""

import sys
import threading

import numpy as np
import pytest

from repro.api import (
    AnalysisConfig,
    FaultSimConfig,
    OptimizeConfig,
    PipelineSpec,
    QuantizeConfig,
    SelfTestConfig,
    derive_seed,
    execute_spec,
    iter_jobs,
    resolve_n_patterns,
    run_jobs,
)
from repro.circuits import alu_circuit, circuit_keys
from repro.pipeline import PipelineReport


def canonical(reports):
    return [report.canonical_dict() for report in reports]


class TestDeriveSeed:
    def test_deterministic_and_stage_circuit_separated(self):
        assert derive_seed(1987, "fault_sim", "s1") == derive_seed(1987, "fault_sim", "s1")
        seeds = {
            derive_seed(1987, stage, label)
            for stage in ("fault_sim", "self_test", "analysis")
            for label in ("s1", "s2", "c7552")
        }
        assert len(seeds) == 9  # no collisions across stages x circuits
        assert derive_seed(1987, "fault_sim", "s1") != derive_seed(1988, "fault_sim", "s1")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="stage"):
            derive_seed(1, "not_a_stage", "s1")
        with pytest.raises(ValueError, match="seed"):
            derive_seed(-1, "fault_sim", "s1")

    def test_seed_is_safe_for_lfsr_generators(self):
        # Low 32 bits never all-zero (LFSR states are masked and must be != 0).
        for label in map(str, range(200)):
            assert derive_seed(0, "self_test", label) & 0xFFFFFFFF != 0


class TestExecuteSpec:
    def test_analysis_only_report_has_no_later_stages(self):
        report = execute_spec(
            PipelineSpec(circuit="c432", optimize=None, quantize=None, fault_sim=None)
        )
        assert report.conventional_length is not None
        assert report.optimization is None
        assert report.quantized_weights is None
        assert report.conventional_experiment is None
        assert report.self_test is None
        assert report.input_names and len(report.input_names) == report.n_inputs

    def test_registry_budget_resolution(self):
        assert resolve_n_patterns(PipelineSpec(circuit="s1")) == 12_000
        assert resolve_n_patterns(PipelineSpec(circuit="c7552")) == 4_000
        assert (
            resolve_n_patterns(
                PipelineSpec(circuit="s1", fault_sim=FaultSimConfig(n_patterns=64))
            )
            == 64
        )
        inline = PipelineSpec(circuit=alu_circuit(width=2).to_dict())
        assert resolve_n_patterns(inline) == 4_000

    def test_stage_rows_are_the_library_calls(self):
        """Each stage of a run equals the direct library call the spec's
        configs and derived seeds describe."""
        from repro.analysis import CopDetectionEstimator, remove_redundant
        from repro.core import WeightOptimizer, required_test_length
        from repro.faults import collapsed_fault_list
        from repro.faultsim import random_pattern_coverage
        from repro.patterns import SelfTestSession

        circuit = alu_circuit(width=2)
        spec = PipelineSpec(
            circuit=circuit,
            optimize=OptimizeConfig(max_sweeps=2),
            fault_sim=FaultSimConfig(n_patterns=256),
            self_test=SelfTestConfig(n_patterns=128),
        )
        report = execute_spec(spec)
        faults = remove_redundant(circuit, collapsed_fault_list(circuit))
        assert report.faults == faults and report.n_faults == len(faults)
        probs = CopDetectionEstimator().detection_probabilities(
            circuit, faults, [0.5] * circuit.n_inputs
        )
        assert report.conventional_length == required_test_length(probs).test_length
        direct = WeightOptimizer(circuit, faults=faults, max_sweeps=2).optimize()
        assert report.optimization.history == direct.history
        np.testing.assert_array_equal(report.optimization.weights, direct.weights)
        np.testing.assert_array_equal(report.quantized_weights, direct.quantized_weights)
        seed = spec.stage_seed("fault_sim")
        for experiment, weights in (
            (report.conventional_experiment, None),
            (report.optimized_experiment, direct.quantized_weights),
        ):
            expected = random_pattern_coverage(
                circuit, 256, weights=weights, faults=faults, seed=seed
            )
            assert experiment == expected
        assert report.self_test == SelfTestSession(
            circuit,
            128,
            weights=direct.quantized_weights,
            use_lfsr=True,
            seed=spec.stage_seed("self_test"),
        ).run()

    def test_lfsr_resolution_quantizes_onto_the_lfsr_grid(self):
        from repro.core import quantize_to_lfsr_grid

        report = execute_spec(
            PipelineSpec(
                circuit=alu_circuit(width=2),
                optimize=OptimizeConfig(max_sweeps=2),
                quantize=QuantizeConfig(lfsr_resolution=5),
                fault_sim=None,
            )
        )
        np.testing.assert_array_equal(
            report.quantized_weights,
            quantize_to_lfsr_grid(report.optimization.weights, resolution=5),
        )

    def test_drop_redundant_selects_the_fault_list(self):
        from repro.analysis import remove_redundant
        from repro.circuits import s2_divider
        from repro.faults import collapsed_fault_list

        circuit = s2_divider(width=3)

        def n_faults(drop_redundant):
            return execute_spec(
                PipelineSpec(
                    circuit=circuit,
                    analysis=AnalysisConfig(drop_redundant=drop_redundant),
                    optimize=None,
                    quantize=None,
                    fault_sim=None,
                )
            ).n_faults

        collapsed = collapsed_fault_list(circuit)
        assert n_faults(False) == len(collapsed)
        assert n_faults(True) == len(remove_redundant(circuit, collapsed))
        assert n_faults(True) < n_faults(False)

    def test_self_test_stage_weighted_lfsr(self):
        spec = PipelineSpec(
            circuit="c432",
            optimize=OptimizeConfig(max_sweeps=2),
            fault_sim=None,
            self_test=SelfTestConfig(n_patterns=64, inject_hardest=True),
        )
        report = execute_spec(spec)
        assert report.self_test is not None
        assert report.self_test_fault is not None
        assert not report.self_test.passed  # injected hardest fault detected


class TestRunJobs:
    def test_empty_batch(self):
        assert run_jobs([]) == []

    def test_rejects_non_specs(self):
        with pytest.raises(TypeError):
            list(iter_jobs([{"circuit": "s1"}]))

    def test_full_registry_parallel_is_bit_identical_to_serial(self):
        """Acceptance: full registry, parallelism=4, bit-identical results,
        at most one compilation per distinct structure per worker."""
        specs = [
            PipelineSpec(circuit=key, optimize=None, quantize=None, fault_sim=None)
            for key in circuit_keys()
        ]
        serial = run_jobs(specs, parallelism=1)
        results = list(iter_jobs(specs, parallelism=4))
        assert sorted(r.index for r in results) == list(range(len(specs)))
        parallel = [None] * len(specs)
        jobs_per_worker = {}
        compiles_per_worker = {}
        for result in results:
            parallel[result.index] = result.report
            jobs_per_worker[result.worker_pid] = (
                jobs_per_worker.get(result.worker_pid, 0) + 1
            )
            compiles_per_worker[result.worker_pid] = max(
                compiles_per_worker.get(result.worker_pid, 0), result.worker_compiles
            )
        # All 12 registry circuits are structurally distinct, so "at most one
        # compilation per distinct structure per worker" means a worker never
        # lowers more often than the number of jobs it executed.
        for pid, compiles in compiles_per_worker.items():
            assert compiles <= jobs_per_worker[pid]
        assert canonical(serial) == canonical(parallel)
        assert [r.key for r in parallel] == circuit_keys()

    def test_full_pipeline_parallel_bit_identical(self):
        specs = [
            PipelineSpec(
                circuit=key,
                optimize=OptimizeConfig(max_sweeps=2),
                fault_sim=FaultSimConfig(n_patterns=192),
                self_test=SelfTestConfig(n_patterns=64, inject_hardest=True),
            )
            for key in ("c432", "c499")
        ]
        serial = run_jobs(specs, parallelism=None)
        parallel = run_jobs(specs, parallelism=2)
        assert canonical(serial) == canonical(parallel)
        for report in parallel:
            assert isinstance(report, PipelineReport)
            assert report.optimized_coverage is not None
            assert report.self_test is not None

    def test_same_structure_compiled_once_per_worker(self):
        """Several jobs over one structure: a single worker lowers it once."""
        circuit = alu_circuit(width=2).to_dict()
        specs = [
            PipelineSpec(
                circuit=circuit,
                key=f"job{i}",
                seed=i,
                optimize=None,
                quantize=None,
                fault_sim=FaultSimConfig(n_patterns=64),
            )
            for i in range(4)
        ]
        results = list(iter_jobs(specs, parallelism=1))
        # Serial in-process: 4 jobs, 1 distinct structure => at most one
        # compile in total (zero when an earlier test already cached it).
        assert results[-1].worker_compiles <= 1
        # Same contract through the pool: each worker executes several jobs
        # over the one structure and must lower it at most once.
        pooled = list(iter_jobs(specs, parallelism=2))
        assert max(result.worker_compiles for result in pooled) <= 1
        assert canonical([r.report for r in sorted(pooled, key=lambda r: r.index)]) == (
            canonical([r.report for r in sorted(results, key=lambda r: r.index)])
        )

    def test_job_failure_is_reported_with_label(self):
        circuit = {"kind": "file", "path": "no_such_circuit.bench"}
        specs = [PipelineSpec(circuit=circuit, fault_sim=None)]
        with pytest.raises(FileNotFoundError):
            run_jobs(specs, parallelism=1)
        with pytest.raises(RuntimeError, match="no_such_circuit"):
            run_jobs(specs, parallelism=2)


class TestSeedPlumbing:
    def test_distinct_stage_seeds_in_one_spec(self):
        spec = PipelineSpec(circuit="s1", seed=1987)
        assert spec.stage_seed("fault_sim") != spec.stage_seed("self_test")

    def test_batch_circuits_get_uncorrelated_fault_sim_seeds(self):
        specs = [
            PipelineSpec(circuit=key, seed=1987, optimize=None, quantize=None)
            for key in ("c432", "c499", "c880")
        ]
        seeds = [spec.stage_seed("fault_sim") for spec in specs]
        assert len(set(seeds)) == len(seeds)

    def test_root_seed_changes_all_stage_streams(self):
        a = execute_spec(
            PipelineSpec(
                circuit="c432",
                seed=1,
                optimize=None,
                quantize=None,
                fault_sim=FaultSimConfig(n_patterns=128),
            )
        )
        b = execute_spec(
            PipelineSpec(
                circuit="c432",
                seed=2,
                optimize=None,
                quantize=None,
                fault_sim=FaultSimConfig(n_patterns=128),
            )
        )
        assert not np.array_equal(
            a.conventional_experiment.first_detection,
            b.conventional_experiment.first_detection,
        )


class TestReportQuantities:
    def test_weights_identical_between_serial_and_parallel(self):
        spec = PipelineSpec(
            circuit="c432",
            optimize=OptimizeConfig(max_sweeps=2),
            fault_sim=FaultSimConfig(n_patterns=128),
        )
        serial = execute_spec(spec)
        (parallel,) = run_jobs([spec], parallelism=2)
        np.testing.assert_array_equal(serial.weights, parallel.weights)
        np.testing.assert_array_equal(
            serial.quantized_weights, parallel.quantized_weights
        )
        assert serial.conventional_length == parallel.conventional_length
        assert serial.optimization.history == parallel.optimization.history


class TestKeyboardInterrupt:
    """Regression (satellite): Ctrl-C mid-pool must cancel pending futures
    and shut the pool down without waiting, not silently drain the batch."""

    def _interrupt_batch(self, monkeypatch):
        from repro.api import jobs as jobs_module

        shutdown_calls = []

        class FakeFuture:
            def cancel(self):
                return True

        class FakePool:
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, fn, *args):
                return FakeFuture()

            def shutdown(self, wait=True, cancel_futures=False):
                shutdown_calls.append({"wait": wait, "cancel_futures": cancel_futures})

        def interrupted_wait(pending, return_when=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(jobs_module, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(jobs_module, "wait", interrupted_wait)
        specs = [
            PipelineSpec(circuit=key, optimize=None, quantize=None, fault_sim=None)
            for key in ("s1", "s2")
        ]
        with pytest.raises(KeyboardInterrupt):
            list(iter_jobs(specs, parallelism=2))
        return shutdown_calls

    def test_interrupt_cancels_pending_and_propagates(self, monkeypatch):
        calls = self._interrupt_batch(monkeypatch)
        assert calls == [{"wait": False, "cancel_futures": True}]

    def test_cli_run_reports_exit_130(self, monkeypatch, capsys):
        from repro.api import cli as cli_module

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "_execute_batch", interrupted)
        assert cli_module.main(["run", "s1"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_failed_job_still_shuts_pool_down(self, monkeypatch):
        from repro.api import jobs as jobs_module

        shutdown_calls = []
        real_pool = jobs_module.ProcessPoolExecutor

        class RecordingPool(real_pool):
            def shutdown(self, wait=True, cancel_futures=False):
                shutdown_calls.append({"wait": wait, "cancel_futures": cancel_futures})
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(jobs_module, "ProcessPoolExecutor", RecordingPool)
        good = PipelineSpec(circuit="s1", optimize=None, quantize=None, fault_sim=None)
        bad = PipelineSpec(
            circuit={"kind": "file", "path": "/nonexistent/void.bench"},
            optimize=None,
            quantize=None,
            fault_sim=None,
        )
        with pytest.raises(RuntimeError, match="failed"):
            list(iter_jobs([good, bad], parallelism=2))
        assert shutdown_calls and shutdown_calls[0]["cancel_futures"]


class TestJobsStore:
    SPEC = dict(
        circuit="s1",
        optimize=OptimizeConfig(max_sweeps=2),
        fault_sim=FaultSimConfig(n_patterns=128),
    )

    def test_parallel_batch_shares_disk_store(self, tmp_path):
        from repro.store import DiskStore

        store = DiskStore(tmp_path / "store")
        specs = [PipelineSpec(seed=seed, **self.SPEC) for seed in (1, 2)]
        cold = {
            result.index: result
            for result in iter_jobs(specs, parallelism=2, store=store)
        }
        assert not any(result.store_hit for result in cold.values())

        warm = {
            result.index: result
            for result in iter_jobs(specs, parallelism=2, store=store)
        }
        assert all(result.store_hit for result in warm.values())
        for index in cold:
            assert (
                warm[index].report.canonical_dict()
                == cold[index].report.canonical_dict()
            )

    def test_serial_path_accepts_memory_store(self):
        from repro.store import MemoryStore

        store = MemoryStore()
        spec = PipelineSpec(**self.SPEC)
        (first,) = list(iter_jobs([spec], store=store))
        (second,) = list(iter_jobs([spec], store=store))
        assert not first.store_hit and second.store_hit
        assert second.report.canonical_dict() == first.report.canonical_dict()

    def test_memory_store_with_pool_is_an_error(self):
        from repro.store import MemoryStore, StoreError

        with pytest.raises(StoreError, match="cannot be shared"):
            list(
                iter_jobs(
                    [PipelineSpec(**self.SPEC)], parallelism=2, store=MemoryStore()
                )
            )

    def test_store_accepts_path_string(self, tmp_path):
        spec = PipelineSpec(**self.SPEC)
        run_jobs([spec], store=str(tmp_path / "store"))
        (result,) = list(iter_jobs([spec], store=str(tmp_path / "store")))
        assert result.store_hit


def test_concurrent_executions_count_exactly():
    from repro.api.executor import executor_stats

    spec = PipelineSpec(circuit="c432", optimize=None, quantize=None, fault_sim=None)
    before = executor_stats()
    execute_spec(spec)
    per_run = executor_stats()["stage_runs"] - before["stage_runs"]
    n_threads, per_thread = 8, 4
    barrier = threading.Barrier(n_threads)

    def work():
        barrier.wait()
        for _ in range(per_thread):
            execute_spec(spec)

    before = executor_stats()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # make lost updates likely if unlocked
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    after = executor_stats()
    runs = n_threads * per_thread
    assert after["executions"] - before["executions"] == runs
    assert after["stage_runs"] - before["stage_runs"] == runs * per_run
