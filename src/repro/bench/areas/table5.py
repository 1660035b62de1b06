"""Bench area ``table5`` — weight-optimization CPU time, scalar vs. batched COP.

Runs the paper's Table 5 workload (the ANALYSIS/PREPARE/OPTIMIZE procedure on
the starred circuits) as two direct :class:`~repro.core.WeightOptimizer`
runs per circuit (:func:`repro.experiments.run_table5_speedup`), one with the
scalar reference estimator and one with the batched COP engine
(:mod:`repro.analysis.compiled`) every spec runs.  The two engines are the
same mathematical specification compiled two ways, so the test-length
histories must be bit-identical; the speedup of the batched engine is the
gated metric; the optimized test lengths and the sweep counts are exact
counters.  An optimization that takes more than
:data:`MAX_OPTIMIZE_SECONDS` fails the run.
"""

from __future__ import annotations

from ...experiments import run_table5_speedup
from ..artifacts import BenchResult
from ..compare import RSS_POLICY, MetricPolicy
from ..registry import BenchArea, register_area
from ..runner import BenchRunner

#: Largest circuit of the registry (by gate count); the acceptance workload.
LARGEST_CIRCUIT_KEY = "s2"

#: Laptop-scale budget for one batched optimization (the paper needed
#: 300-2000 s on a ~2.5 MIPS machine).
MAX_OPTIMIZE_SECONDS = 300.0


def run_bench(quick: bool = False) -> BenchResult:
    """Time scalar vs. batched optimization (quick = largest circuit only)."""
    keys = [LARGEST_CIRCUIT_KEY] if quick else None
    runner = BenchRunner("table5", quick=quick, repeats=1)
    with runner.timed("total"):
        rows = run_table5_speedup(keys=keys)
    if not rows:
        raise RuntimeError(f"no hard circuit matches {keys!r}")

    for row in rows:
        if not row.histories_equal:
            raise AssertionError(
                f"{row.paper_name}: the batched COP engine drifted from the "
                "scalar reference (test-length histories differ)"
            )
        if row.batched_seconds >= MAX_OPTIMIZE_SECONDS:
            raise AssertionError(
                f"optimizing {row.paper_name} took {row.batched_seconds:.1f}s, "
                "far beyond the expected laptop-scale budget"
            )
        runner.timing(f"{row.key}_scalar_seconds", row.scalar_seconds)
        runner.timing(f"{row.key}_batched_seconds", row.batched_seconds)
        runner.metric(f"{row.key}_speedup", row.speedup)
        runner.counter(f"{row.key}_test_length", row.test_length)
        runner.counter(f"{row.key}_n_faults", row.n_faults)
        runner.counter(f"{row.key}_sweeps", row.sweeps)

    largest = max(rows, key=lambda row: row.n_gates)
    runner.workload(
        circuits=",".join(row.key for row in rows),
        largest=largest.key,
        n_gates=largest.n_gates,
        n_inputs=largest.n_inputs,
    )
    runner.metric("speedup", largest.speedup)
    return runner.result()


AREA = register_area(
    BenchArea(
        name="table5",
        title="weight-optimizer end to end: scalar vs. batched COP estimator",
        run=run_bench,
        policies={
            # The floor keeps the old fixed --min-speedup 3 CI gate.
            "speedup": MetricPolicy(direction="higher", rel_tol=0.4, floor=3.0),
            # Per-circuit speedups are tracked but only the largest gates.
            "s1_speedup": MetricPolicy(direction="higher", gate=False),
            "s2_speedup": MetricPolicy(direction="higher", gate=False),
            "c2670_speedup": MetricPolicy(direction="higher", gate=False),
            "c7552_speedup": MetricPolicy(direction="higher", gate=False),
            "peak_rss_bytes": RSS_POLICY,
        },
        gated=True,
    )
)
