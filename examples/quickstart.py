#!/usr/bin/env python3
"""Quickstart: optimize the input probabilities of a random-pattern-resistant circuit.

This walks through the complete flow of the library on the paper's flagship
example, a cascaded magnitude comparator (S1): one declarative
:class:`repro.PipelineSpec` names the circuit and the stage settings, and
:func:`repro.execute_spec` runs every stage over one shared compiled
lowering of the circuit and returns a report that answers

1. how many *equiprobable* random patterns a self test would need,
2. the optimized input probabilities (the paper's contribution),
3. the new test length, and
4. the improvement verified by fault simulation.

Run with ``python examples/quickstart.py``.  A 12-bit comparator is used so the
script finishes in a few seconds; pass a width as the first argument to scale
up (the paper's S1 is 24 bits wide).
"""

from __future__ import annotations

import sys

import numpy as np

from repro import AnalysisConfig, FaultSimConfig, PipelineSpec, execute_spec, s1_comparator


def main(width: int = 12, n_patterns: int = 4_000) -> None:
    circuit = s1_comparator(width=width)
    print(f"Circuit under test : {circuit.summary()}")
    spec = PipelineSpec(
        circuit=circuit,
        key=circuit.name,
        analysis=AnalysisConfig(confidence=0.999, drop_redundant=False),
        fault_sim=FaultSimConfig(n_patterns=n_patterns),
    )
    report = execute_spec(spec)
    print(f"Collapsed faults   : {report.n_faults}")

    # --- Step 1: how bad is the conventional (equiprobable) random test? ----
    print(f"Conventional test  : ~{report.conventional_length:,} patterns needed")

    # --- Step 2: optimize the input probabilities ---------------------------
    result = report.optimization
    print(f"Optimized test     : ~{result.test_length:,} patterns needed "
          f"({result.improvement_factor:,.0f}x shorter, {result.sweeps} sweeps, "
          f"{result.cpu_seconds:.1f} s)")
    print("Optimized weights  :",
          np.array2string(report.quantized_weights, precision=2, separator=", "))

    # --- Step 3: verify by fault simulation ---------------------------------
    before, after = report.conventional_experiment, report.optimized_experiment
    print(f"Fault coverage with {n_patterns:,} patterns:")
    print(f"  conventional     : {report.conventional_coverage:5.1f} % "
          f"({before.n_undetected} faults missed)")
    print(f"  optimized        : {report.optimized_coverage:5.1f} % "
          f"({after.n_undetected} faults missed)")

    # Every stage above consumed one shared lowered-circuit artifact.
    print(f"Circuit lowerings  : {report.lowerings} (compiled once, reused)")


if __name__ == "__main__":
    main(width=int(sys.argv[1]) if len(sys.argv) > 1 else 12)
