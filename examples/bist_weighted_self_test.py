#!/usr/bin/env python3
"""Weighted-random built-in self test (BIST) end to end.

Section 5.2 of the paper: the main application of optimized input
probabilities is self test — an on-chip LFSR generates the (weighted) patterns
and a signature register compacts the responses; only the final signature is
compared against the fault-free value.

This example models that flow for the S1 comparator with direct library
calls; the self test runs on the compiled BIST substrate (block LFSR,
vectorized weighting network and MISR):

1. optimize the input probabilities,
2. quantize them to the grid realisable by a 5-bit LFSR weighting network,
3. run a BILBO-style self-test session and record the golden signature,
4. inject the hardest stuck-at fault and show that the weighted session's
   signature differs (fault detected) while a much longer unweighted session
   misses the fault entirely.

The same flow is one declarative spec stage: ``SelfTestConfig`` with
``inject_hardest=True`` and ``QuantizeConfig(lfsr_resolution=5)``.

Run with ``python examples/bist_weighted_self_test.py``.
"""

from __future__ import annotations

import numpy as np

from repro import SelfTestSession, WeightOptimizer, collapsed_fault_list, s1_comparator
from repro.analysis import BatchedCopEstimator
from repro.core import quantize_to_lfsr_grid
from repro.faultsim import random_pattern_coverage


def main(width: int = 10, n_patterns: int = 2_000) -> None:
    # Every engine below (COP analysis, optimizer, self test) shares one
    # compiled lowering of the circuit.
    circuit = s1_comparator(width=width)
    faults = collapsed_fault_list(circuit)
    print(f"Circuit under test    : {circuit.summary()}")

    # Find the hardest fault under conventional random patterns.
    probs = BatchedCopEstimator().detection_probabilities(
        circuit, faults, [0.5] * circuit.n_inputs
    )
    hardest = faults[int(np.argmin(probs))]
    print(f"Hardest fault         : {hardest.describe(circuit)} "
          f"(detection probability {probs.min():.2e} under equiprobable patterns)")

    # Optimize and map the weights onto a hardware weighting network grid.
    result = WeightOptimizer(circuit, faults=faults).optimize()
    lfsr_weights = quantize_to_lfsr_grid(result.weights, resolution=5)
    print(f"Optimized test length : ~{result.test_length:,} patterns")
    print("Realised LFSR weights :",
          np.array2string(np.asarray(lfsr_weights), precision=3, separator=", "))

    # Golden signature of the weighted self-test session (computed once; the
    # fault injection below reuses it).
    session = SelfTestSession(
        circuit, n_patterns, weights=lfsr_weights, use_lfsr=True, seed=42
    )
    golden = session.golden_signature()
    print(f"Golden signature      : 0x{golden:08x} ({n_patterns:,} weighted patterns)")

    # The weighted session exposes the hardest fault ...
    report = session.run(hardest)
    print(f"Weighted self test    : signature 0x{report.signature:08x} -> "
          f"{'FAULT DETECTED' if not report.passed else 'fault missed'}")

    # ... while an unweighted session of the same length misses it.
    # (Signature aliasing aside, a session detects a fault exactly when the
    # fault simulator sees a differing response to one of its patterns.)
    plain = random_pattern_coverage(circuit, n_patterns, faults=[hardest], seed=42)
    detected_plain = plain.first_detection[0] >= 0
    print(f"Unweighted self test  : {n_patterns:,} equiprobable patterns -> "
          f"{'fault detected' if detected_plain else 'FAULT MISSED'}")


if __name__ == "__main__":
    main()
