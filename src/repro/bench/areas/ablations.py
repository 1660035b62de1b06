"""Bench areas for the design-space ablations (estimators, hard-fault subset,
partitioning, quantization grid).

Each area measures one design choice and checks the claim it stands for,
raising :class:`AssertionError` when the claim fails:

* ``ablation_estimators`` — every estimator backend finds a distribution
  that beats the conventional test; the batched COP engine equals the
  scalar reference; COP and STAFAN rank faults like the Monte-Carlo sample
  (rank correlation above :data:`MIN_RANK_CORRELATION`);
* ``ablation_hard_faults`` — no hard-fault floor lengthens the test;
* ``ablation_partitioning`` — on the conflicting-detectors circuit, two or
  more weight sets beat the single compromise distribution;
* ``ablation_quantization`` — the paper's 0.05 grid keeps the optimization
  (far below the conventional length, within 20x of the continuous optimum)
  and even the coarse 1/8 grid beats the conventional test.

The areas are informational (``gated=False``): no committed trajectory.
"""

from __future__ import annotations

import numpy as np

from ...analysis import (
    BatchedCopEstimator,
    CopDetectionEstimator,
    MonteCarloDetectionEstimator,
    StafanDetectionEstimator,
)
from ...circuit import CircuitBuilder
from ...circuit.library import and_tree
from ...circuits import c7552_like, s1_comparator
from ...core import (
    WeightOptimizer,
    optimize_input_probabilities,
    optimize_partitioned,
    quantize_to_lfsr_grid,
    quantize_weights,
    required_test_length,
)
from ...faults import collapsed_fault_list
from ..artifacts import BenchResult
from ..registry import BenchArea, register_area
from ..runner import BenchRunner

ESTIMATOR_WIDTH = 10
AGREEMENT_WIDTH = 8
MIN_RANK_CORRELATION = 0.8
QUANTIZATION_WIDTH = 12
HARD_FAULT_FRACTIONS = (0.0, 0.1, 0.25, 0.5)


# --------------------------------------------------------------------------- #
# Measurement helpers
# --------------------------------------------------------------------------- #
def optimize_with_estimator(estimator, width: int = ESTIMATOR_WIDTH):
    """Optimize S1 with one detection-probability estimator backend."""
    circuit = s1_comparator(width=width)
    faults = collapsed_fault_list(circuit)
    optimizer = WeightOptimizer(
        circuit, faults=faults, estimator=estimator, max_sweeps=4
    )
    return optimizer.optimize()


def _rank_correlation(a, b) -> float:
    ranks_a = np.argsort(np.argsort(a)).astype(float)
    ranks_b = np.argsort(np.argsort(b)).astype(float)
    return float(np.corrcoef(ranks_a, ranks_b)[0, 1])


def estimator_agreement():
    """Rank correlation of COP and STAFAN with a Monte-Carlo sample on S1.

    Also checks that the batched COP engine equals the scalar reference at
    the conventional distribution.
    """
    circuit = s1_comparator(width=AGREEMENT_WIDTH)
    faults = collapsed_fault_list(circuit)
    weights = [0.5] * circuit.n_inputs
    reference = MonteCarloDetectionEstimator(
        n_samples=4096, fixed_seed=True
    ).detection_probabilities(circuit, faults, weights)
    cop = CopDetectionEstimator().detection_probabilities(circuit, faults, weights)
    batched = BatchedCopEstimator().detection_probabilities(circuit, faults, weights)
    if not np.array_equal(cop, batched):
        raise AssertionError("batched COP must equal the scalar reference")
    stafan = StafanDetectionEstimator(n_samples=4096).detection_probabilities(
        circuit, faults, weights
    )
    return {
        "cop": _rank_correlation(cop, reference),
        "stafan": _rank_correlation(stafan, reference),
    }


def optimize_with_hard_fraction(min_fraction: float):
    """Optimize the c7552-like circuit with a floor on the hard-fault subset."""
    circuit = c7552_like(width=12, n_blocks=1)
    faults = collapsed_fault_list(circuit)
    optimizer = WeightOptimizer(
        circuit,
        faults=faults,
        max_sweeps=6,
        min_hard_fraction=min_fraction,
        min_hard_faults=1,
    )
    return optimizer.optimize()


def conflicting_detectors_circuit(width: int = 12):
    """Two wide AND detectors over the same bus, one on true, one on inverted
    literals: their hardest faults need Hamming-distant test sets (the paper's
    section 5.3 condition)."""
    builder = CircuitBuilder(f"conflicting_detectors{width}")
    bus = builder.input_bus("x", width)
    all_ones = and_tree(builder, bus)
    all_zeros = and_tree(builder, [builder.not_(b) for b in bus])
    builder.output(all_ones, "all_ones")
    builder.output(all_zeros, "all_zeros")
    builder.output(builder.xor(all_ones, all_zeros), "either")
    return builder.build()


def compare_partitioning(width: int = 12):
    """Single-distribution optimum vs. the partitioned (two weight set) test."""
    circuit = conflicting_detectors_circuit(width)
    faults = collapsed_fault_list(circuit)
    single = optimize_input_probabilities(circuit, faults=faults, max_sweeps=6)
    partitioned = optimize_partitioned(
        circuit, faults=faults, max_sessions=2, max_sweeps=6
    )
    return single, partitioned


def lengths_per_grid(width: int = QUANTIZATION_WIDTH):
    """Required test length of the optimized weights per quantization grid."""
    circuit = s1_comparator(width=width)
    faults = collapsed_fault_list(circuit)
    estimator = CopDetectionEstimator()
    result = optimize_input_probabilities(circuit, faults=faults, max_sweeps=8)

    grids = {
        "continuous": result.weights,
        "grid_0p05": quantize_weights(result.weights, step=0.05),
        "lfsr_1_32": quantize_to_lfsr_grid(result.weights, resolution=5),
        "lfsr_1_8": quantize_to_lfsr_grid(result.weights, resolution=3),
        "conventional": [0.5] * circuit.n_inputs,
    }
    lengths = {}
    for label, weights in grids.items():
        probs = estimator.detection_probabilities(circuit, faults, weights)
        lengths[label] = required_test_length(probs).test_length
    return lengths


# --------------------------------------------------------------------------- #
# Areas
# --------------------------------------------------------------------------- #
def _run_estimators(quick: bool = False) -> BenchResult:
    runner = BenchRunner("ablation_estimators", quick=quick)
    runner.workload(circuit="s1", width=ESTIMATOR_WIDTH, max_sweeps=4)
    backends = [
        ("cop_scalar", CopDetectionEstimator()),
        ("cop_batched", BatchedCopEstimator()),
        ("stafan", StafanDetectionEstimator(n_samples=1024)),
        ("montecarlo", MonteCarloDetectionEstimator(n_samples=512, fixed_seed=True)),
    ]
    if quick:
        backends = [entry for entry in backends if entry[0] != "cop_scalar"]
    for name, estimator in backends:
        measurement = runner.measure(
            name, lambda est=estimator: optimize_with_estimator(est), repeats=1
        )
        result = measurement.value
        runner.counter(f"{name}_optimized_length", result.test_length)
        if result.test_length >= result.initial_test_length:
            raise AssertionError(
                f"{name}: optimized length {result.test_length:,} does not beat "
                f"the conventional {result.initial_test_length:,}"
            )
    agreement = runner.measure("agreement", estimator_agreement, repeats=1)
    for name, correlation in agreement.value.items():
        runner.metric(f"{name}_rank_correlation", correlation)
        if correlation <= MIN_RANK_CORRELATION:
            raise AssertionError(
                f"{name} ranks faults unlike the Monte-Carlo sample "
                f"(rank correlation {correlation:.3f} <= {MIN_RANK_CORRELATION})"
            )
    return runner.result()


def _run_hard_faults(quick: bool = False) -> BenchResult:
    fractions = HARD_FAULT_FRACTIONS[::2] if quick else HARD_FAULT_FRACTIONS
    runner = BenchRunner("ablation_hard_faults", quick=quick)
    runner.workload(
        circuit="c7552_like_w12b1", fractions=",".join(f"{f:g}" for f in fractions)
    )
    for fraction in fractions:
        label = f"floor_{str(fraction).replace('.', 'p')}"
        measurement = runner.measure(
            label, lambda f=fraction: optimize_with_hard_fraction(f), repeats=1
        )
        result = measurement.value
        runner.counter(f"{label}_optimized_length", result.test_length)
        if result.test_length > result.initial_test_length:
            raise AssertionError(
                f"{label}: optimization lengthened the test "
                f"({result.initial_test_length:,} -> {result.test_length:,})"
            )
    return runner.result()


def _run_partitioning(quick: bool = False) -> BenchResult:
    runner = BenchRunner("ablation_partitioning", quick=quick)
    width = 10 if quick else 12
    runner.workload(circuit=f"conflicting_detectors{width}", max_sessions=2)
    measurement = runner.measure("compare", lambda: compare_partitioning(width), repeats=1)
    single, partitioned = measurement.value
    runner.counter("single_test_length", single.test_length)
    runner.counter("partitioned_test_length", partitioned.total_test_length)
    runner.counter("n_sessions", partitioned.n_sessions)
    runner.metric(
        "partitioning_gain", single.test_length / max(1, partitioned.total_test_length)
    )
    if partitioned.n_sessions < 2:
        raise AssertionError(
            f"partitioning kept {partitioned.n_sessions} weight set(s) on a "
            "circuit whose detectors need conflicting distributions"
        )
    if partitioned.total_test_length >= single.test_length:
        raise AssertionError(
            f"partitioned test ({partitioned.total_test_length:,}) is not shorter "
            f"than the single distribution ({single.test_length:,})"
        )
    return runner.result()


def _run_quantization(quick: bool = False) -> BenchResult:
    runner = BenchRunner("ablation_quantization", quick=quick)
    runner.workload(circuit="s1", width=QUANTIZATION_WIDTH)
    measurement = runner.measure("grids", lengths_per_grid, repeats=1)
    lengths = measurement.value
    for label, length in lengths.items():
        runner.counter(f"{label}_length", length)
    # The paper's 0.05 grid must not destroy the optimization; the coarse
    # 1/8 grid may be worse but must still beat the conventional test.
    for claim, holds in (
        ("0.05 grid >= conventional / 10", lengths["grid_0p05"] < lengths["conventional"] / 10),
        ("0.05 grid >= 20 x continuous", lengths["grid_0p05"] < 20 * lengths["continuous"]),
        ("1/8 grid >= conventional", lengths["lfsr_1_8"] < lengths["conventional"]),
    ):
        if not holds:
            raise AssertionError(f"quantization: {claim} ({lengths})")
    return runner.result()


for _name, _title, _run in (
    ("ablation_estimators", "Ablation: detection-probability estimator backends", _run_estimators),
    ("ablation_hard_faults", "Ablation: hard-fault subset floor", _run_hard_faults),
    ("ablation_partitioning", "Ablation: partitioned weight sets", _run_partitioning),
    ("ablation_quantization", "Ablation: weight quantization grid", _run_quantization),
):
    register_area(BenchArea(name=_name, title=_title, run=_run))
