#!/usr/bin/env python3
"""Optimizing the combinational divider (the paper's circuit S2).

The second headline circuit of the paper is the combinational part of a
divider: long borrow chains and data-dependent restore multiplexers give it an
estimated equiprobable test length of 2·10¹¹ (Table 1).  This example runs the
whole analysis on a scaled-down divider and additionally demonstrates two
library features beyond the quickstart:

* comparing the analytic (COP) estimator with a Monte-Carlo estimate obtained
  by fault simulation, and
* the section 5.3 extension — partitioning the fault set and computing one
  weight set per partition (:func:`repro.wrp.build_weight_sets`) — including
  when it pays off.

Run with ``python examples/divider_optimization.py``.
"""

from __future__ import annotations

import numpy as np

from repro import (
    MonteCarloDetectionEstimator,
    WeightOptimizer,
    collapsed_fault_list,
    required_test_length,
    s2_divider,
)
from repro.analysis import BatchedCopEstimator, remove_redundant
from repro.wrp import build_weight_sets


def main(width: int = 8) -> None:
    # The circuit's lowering is compiled once; the analytic estimate, the
    # optimization and the Monte-Carlo fault simulation below all run on
    # engines derived from that one artifact.
    circuit = s2_divider(width=width)
    faults = remove_redundant(circuit, collapsed_fault_list(circuit))
    print(f"Circuit under test : {circuit.summary()}")
    print(f"Collapsed faults   : {len(faults)}")

    # --- Estimator comparison: analytic vs. sampled ------------------------
    equiprobable = [0.5] * circuit.n_inputs
    analytic = BatchedCopEstimator().detection_probabilities(circuit, faults, equiprobable)
    sampled = MonteCarloDetectionEstimator(n_samples=2048, fixed_seed=True).detection_probabilities(
        circuit, faults, equiprobable
    )
    correlation = np.corrcoef(analytic, sampled)[0, 1]
    print(f"COP vs Monte-Carlo : correlation {correlation:.3f} over {len(faults)} faults")
    print(f"Hardest fault      : p = {analytic.min():.2e} (analytic), "
          f"{sampled[np.argmin(analytic)]:.2e} (sampled)")

    # --- Single optimized distribution --------------------------------------
    conventional_length = required_test_length(analytic, 0.999).test_length
    single = WeightOptimizer(circuit, faults=faults, confidence=0.999).optimize()
    print(f"Conventional test  : ~{conventional_length:,} patterns")
    print(f"Optimized test     : ~{single.test_length:,} patterns "
          f"({single.improvement_factor:,.0f}x shorter)")
    print("Dividend weights   :",
          np.array2string(single.quantized_weights[:width], precision=2, separator=", "))
    print("Divisor weights    :",
          np.array2string(single.quantized_weights[width:], precision=2, separator=", "))

    # --- Section 5.3 extension: partitioned weight sets ----------------------
    weight_sets = build_weight_sets(
        circuit, faults=faults, k=2, confidence=0.999, base_result=single
    )
    print(f"Partitioned test   : {weight_sets.k} weight sets, "
          f"total ~{weight_sets.multi_set_length:,} patterns "
          f"(single distribution needs ~{weight_sets.single_set_length:,})")
    for entry in weight_sets.sets:
        print(f"  set {entry.index + 1}: {len(entry.fault_indices)} target faults, "
              f"~{entry.test_length:,} patterns")


if __name__ == "__main__":
    main()
