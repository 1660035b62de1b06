"""Bench area ``substrate`` — compiled fault-simulation engine vs. legacy.

The quantity that decides whether the Table 2/4 experiments are feasible:
(collapsed) faults x patterns per second of the fault simulator with
dropping.  Times the compiled engine (:mod:`repro.simulation.compiled`)
against the preserved per-fault baseline
(:class:`repro.faultsim.legacy.LegacyParallelFaultSimulator`) on the same
workload and cross-checks that both engines detect exactly the same faults
at the same pattern indices — the bench doubles as an equivalence test.
The run fails if the patterns cover :data:`MIN_FAULT_COVERAGE` or less of
the sampled faults (a broken engine or workload, not a slow one).

When the native tier loads (:mod:`repro.analysis.native`), the compiled
simulation is also timed on one prebuilt circuit, once on the native
kernels and once on the engine's numpy reference kernels, which must give
the same result and counters; ``native_speedup`` is the numpy time over
the native time (building the circuit, which the two engine timings
above include, would hide the kernels' ratio).  The two sides of each
ratio run in alternation until each has run for :data:`MIN_SECONDS`, so a
ratio compares minima taken under the same machine load, and runs of a
few milliseconds get enough samples.
"""

from __future__ import annotations

from ...analysis import native
from ...circuits import build_circuit
from ...faults import collapsed_fault_list
from ...faultsim import LegacyParallelFaultSimulator, ParallelFaultSimulator
from ...patterns import WeightedPatternGenerator
from ..artifacts import BenchResult
from ..compare import RSS_POLICY, MetricPolicy
from ..registry import BenchArea, register_area
from ..runner import BenchRunner

#: Largest circuit of the registry (by gate count); the acceptance workload.
LARGEST_CIRCUIT_KEY = "s2"

#: Floor on the workload's fault coverage.
MIN_FAULT_COVERAGE = 0.5

#: Wall time each timed side is repeated for, at least.
MIN_SECONDS = 0.5

_QUICK = dict(n_faults=96, n_patterns=256, batch_size=256)
_FULL = dict(n_faults=256, n_patterns=1024, batch_size=1024)


def run_bench(
    quick: bool = False,
    circuit_key: str = LARGEST_CIRCUIT_KEY,
    seed: int = 3,
    repeats: int = 3,
) -> BenchResult:
    """Time compiled vs. legacy fault simulation on the same workload.

    Both engines see a fresh circuit instance per repetition, so one-time
    costs (kernel compilation, cone precomputation) stay inside the measured
    wall time, exactly as the retired standalone script measured them.
    """
    workload = _QUICK if quick else _FULL
    n_faults, n_patterns, batch_size = (
        workload["n_faults"],
        workload["n_patterns"],
        workload["batch_size"],
    )
    entry = build_circuit(circuit_key)
    faults_all = collapsed_fault_list(entry)
    # An evenly strided subset keeps the legacy run affordable while sampling
    # fault sites across the whole depth range of the circuit.
    stride = max(1, len(faults_all) // n_faults)
    faults = faults_all.take(slice(0, stride * n_faults, stride))
    generator = WeightedPatternGenerator([0.5] * entry.n_inputs, seed=seed)
    patterns = generator.generate(n_patterns)

    runner = BenchRunner("substrate", quick=quick, repeats=repeats)
    runner.workload(
        circuit=circuit_key,
        n_gates=entry.n_gates,
        n_faults=len(faults),
        n_patterns=n_patterns,
        batch_size=batch_size,
    )

    def compiled_run(circuit, numpy_reference: bool = False):
        simulator = ParallelFaultSimulator(circuit, faults)
        if numpy_reference:
            simulator._engine = simulator._engine.numpy_reference()
        return simulator.run(patterns, batch_size=batch_size)

    engines = runner.measure_interleaved(
        {
            "compiled": lambda: compiled_run(build_circuit(circuit_key)),
            "legacy": lambda: LegacyParallelFaultSimulator(
                build_circuit(circuit_key), faults
            ).run(patterns, batch_size=batch_size),
        },
        MIN_SECONDS,
    )
    compiled, legacy = engines["compiled"], engines["legacy"]
    if native.library() is not None:
        tiers = runner.measure_interleaved(
            {
                "native": lambda: compiled_run(entry),
                "numpy": lambda: compiled_run(entry, numpy_reference=True),
            },
            MIN_SECONDS,
        )
        native_tier, numpy_tier = tiers["native"], tiers["numpy"]
        for run in (native_tier, numpy_tier):
            if run.value != compiled.value or run.value.stats != compiled.value.stats:
                raise AssertionError("the native fault tier drifted from the numpy reference")
        runner.metric("native_speedup", numpy_tier.best_seconds / native_tier.best_seconds)

    if compiled.value != legacy.value:
        raise AssertionError(
            "compiled and legacy engines disagree on first-detection indices"
        )
    if compiled.value.fault_coverage <= MIN_FAULT_COVERAGE:
        raise AssertionError(
            f"fault coverage {compiled.value.fault_coverage:.3f} is not above "
            f"{MIN_FAULT_COVERAGE}"
        )

    pairs = len(faults) * n_patterns
    runner.metric("fault_coverage", compiled.value.fault_coverage)
    runner.metric("compiled_pairs_per_second", pairs / compiled.best_seconds)
    runner.metric("legacy_pairs_per_second", pairs / legacy.best_seconds)

    return runner.result(speedup=("legacy", "compiled"))


AREA = register_area(
    BenchArea(
        name="substrate",
        title="fault-simulation substrate: compiled vs. legacy engine",
        run=run_bench,
        policies={
            # Speedup ratios are machine-portable; the floor keeps the old
            # fixed --min-speedup 5 CI gate as a backstop.
            "speedup": MetricPolicy(direction="higher", rel_tol=0.4, floor=5.0),
            # Numpy reference vs. native C fault kernels on the same run;
            # the floor catches a native tier that stopped paying off.
            "native_speedup": MetricPolicy(direction="higher", rel_tol=0.5, floor=2.0),
            # Detection counts are integer-exact for a fixed seed.
            "fault_coverage": MetricPolicy(direction="higher", abs_tol=1e-9),
            "peak_rss_bytes": RSS_POLICY,
        },
    )
)
