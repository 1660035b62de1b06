"""Bench area ``mws`` — multi-weight-set BIST schedule on the hardest circuit.

Runs the full multi-weight pipeline (fault clustering → per-cluster weight
optimization → joint schedule normalization → reseeded multi-LFSR playback)
on ``s1``, the circuit where conflicting input-weight demands make a single
weight set most expensive.  The committed counters pin the single-set and
multi-set scheduled test lengths and the playback MISR signature exactly —
any drift in the clustering, the optimizer, the joint schedule or the
LFSR/MISR kernels trips the trajectory gate.  The gated ``length_reduction``
metric asserts the subsystem keeps beating the paper's single-set optimum.
The run itself fails when the schedule does not have ``k`` sets, is not
shorter than the single set, or the fault-free playback does not pass its
self test.
"""

from __future__ import annotations

from ...analysis.redundancy import remove_redundant
from ...circuits import build_circuit
from ...core.optimizer import WeightOptimizer
from ...faults.collapse import collapsed_fault_list
from ...wrp import build_weight_sets, run_multi_weight_session
from ..artifacts import BenchResult
from ..compare import RSS_POLICY, MetricPolicy
from ..registry import BenchArea, register_area
from ..runner import BenchRunner

#: The hard circuit with the strongest multi-set win (1.3x at k=4).
CIRCUIT_KEY = "s1"

SEED = 1987
FULL_K = 4
QUICK_K = 2


def run_bench(quick: bool = False, repeats: int = 3) -> BenchResult:
    """Time and pin one multi-weight build + playback on ``s1``.

    The quick workload clusters into two sets instead of four (half the
    per-cluster optimizations); both variants are fully deterministic under
    the fixed seed, so every counter is committed exactly.
    """
    k = QUICK_K if quick else FULL_K
    circuit = build_circuit(CIRCUIT_KEY)

    runner = BenchRunner("mws", quick=quick, repeats=repeats)
    runner.workload(
        circuit=CIRCUIT_KEY,
        n_inputs=circuit.n_inputs,
        k=k,
        seed=SEED,
    )

    # The single-set optimization is the shared baseline of both sides and
    # of Table 3 — set it up outside the timed region.
    faults = remove_redundant(circuit, collapsed_fault_list(circuit))
    base = WeightOptimizer(circuit, faults=faults).optimize()

    build = runner.measure(
        "build",
        lambda: build_weight_sets(
            circuit,
            faults=faults,
            k=k,
            cluster_seed=SEED,
            session_seed=SEED,
            base_result=base,
        ),
    )
    weight_sets = build.value
    playback = runner.measure(
        "playback",
        lambda: run_multi_weight_session(circuit, weight_sets, faults=faults),
    )
    report = playback.value

    single = int(weight_sets.single_set_length)
    multi = int(weight_sets.multi_set_length)
    if weight_sets.k != k:
        raise AssertionError(f"asked for {k} weight sets, built {weight_sets.k}")
    if multi >= single:
        raise AssertionError(
            f"multi-set schedule ({multi:,}) is not shorter than the single set "
            f"({single:,})"
        )
    if not report.self_test.passed:
        raise AssertionError("fault-free multi-set playback failed its self test")
    runner.counter("single_set_length", single)
    runner.counter("multi_set_length", multi)
    runner.counter("n_sets", weight_sets.k)
    runner.counter("signature", int(report.self_test.signature))
    runner.metric("length_reduction", single / multi if multi else float("inf"))
    runner.metric(
        "playback_patterns_per_second",
        report.coverage.n_patterns / playback.best_seconds,
    )
    return runner.result()


AREA = register_area(
    BenchArea(
        name="mws",
        title="Multi-weight-set BIST: clustered schedule vs single-set optimum",
        run=run_bench,
        policies={
            # The schedule must keep beating the single-set optimum; the
            # committed value is ~1.3 (full) / whatever k=2 yields (quick),
            # so gate on staying above parity with margin.
            "length_reduction": MetricPolicy(
                direction="higher", rel_tol=0.05, floor=1.01
            ),
            "peak_rss_bytes": RSS_POLICY,
        },
    )
)
