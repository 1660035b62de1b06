#!/usr/bin/env python3
"""Working with external netlists: .bench import, analysis report, weight export.

Downstream users typically have their own gate-level netlists.  This example
shows the interchange workflow:

1. write one of the generated circuits out in the ISCAS ``.bench`` format
   (stand-in for "a netlist you got from somewhere else"),
2. read it back with the parser,
3. print a testability report (structure, signal-probability bounds from the
   cutting algorithm, hardest faults),
4. optimize the input probabilities and export them as a simple
   ``name probability`` file a test engineer could feed to a pattern generator,
5. run the same ``.bench`` file — and a seeded synthetic netlist — through the
   declarative job-spec API via circuit sources (``{"kind": "file", ...}`` /
   ``{"kind": "generator", ...}`` refs), which is how external netlists reach
   ``python -m repro run`` and the parallel batch executor.

Run with ``python examples/netlist_workflow.py``.  Files are written to a
temporary directory and their paths are printed.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    PipelineSpec,
    WeightOptimizer,
    collapsed_fault_list,
    execute_spec,
    parse_bench,
    resistant_circuit,
    write_bench,
)
from repro.api.spec import FaultSimConfig
from repro.analysis import BatchedCopEstimator, probability_bounds, remove_redundant
from repro.circuit import circuit_stats


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_netlist_"))

    # --- 1. export / 2. import ----------------------------------------------
    original = resistant_circuit(width=10, n_blocks=1)
    bench_path = workdir / f"{original.name}.bench"
    bench_path.write_text(write_bench(original))
    circuit = parse_bench(bench_path.read_text(), name=original.name)
    print(f"Round-tripped netlist : {circuit.summary()}")
    print(f"Bench file            : {bench_path}")

    # --- 3. testability report ----------------------------------------------
    stats = circuit_stats(circuit)
    print("Structure             :", stats.as_dict())

    lower, upper = probability_bounds(circuit, 0.5)
    widest = int(np.argmax(upper - lower))
    print(f"Widest probability gap: net {circuit.net_name(widest)!r} "
          f"[{lower[widest]:.3f}, {upper[widest]:.3f}] "
          "(reconvergent fan-out makes the exact value expensive)")

    # The collapsed, redundancy-filtered fault list; the analysis and the
    # optimization share one compiled lowering of the circuit.
    faults = remove_redundant(circuit, collapsed_fault_list(circuit))
    probs = BatchedCopEstimator().detection_probabilities(
        circuit, faults, [0.5] * circuit.n_inputs
    )
    order = np.argsort(probs)
    print("Hardest faults under equiprobable patterns:")
    for index in order[:5]:
        print(f"  {faults[index].describe(circuit):40s} p = {probs[index]:.2e}")

    # --- 4. optimize and export weights --------------------------------------
    result = WeightOptimizer(circuit, faults=faults, confidence=0.999).optimize()
    weights_path = workdir / f"{original.name}.weights"
    with weights_path.open("w") as handle:
        for name, weight in sorted(result.weight_map.items()):
            handle.write(f"{name} {weight:.2f}\n")
    print(f"Optimized test length : ~{result.test_length:,} patterns "
          f"(was ~{result.initial_test_length:,})")
    print(f"Weight file           : {weights_path}")

    # --- 5. the same netlist through the job-spec API -------------------------
    # A file circuit source makes the .bench file a first-class spec input:
    # the spec (and its JSON form) can be shipped to run_jobs workers or fed
    # to `python -m repro run --bench <file>`.
    file_spec = PipelineSpec(
        circuit={"kind": "file", "path": str(bench_path)},
        fault_sim=FaultSimConfig(n_patterns=512),
    )
    report = execute_spec(file_spec)
    print(f"File-source pipeline  : {report.summary()}")

    # A generator source describes a seeded synthetic netlist entirely inside
    # the spec — deterministic per seed, no file needed.
    synth_spec = PipelineSpec(
        circuit={
            "kind": "generator",
            "n_inputs": 24,
            "n_gates": 600,
            "depth": 10,
            "seed": 11,
            "name": "synth600",
        },
        fault_sim=FaultSimConfig(n_patterns=512),
    )
    report = execute_spec(synth_spec)
    print(f"Generated pipeline    : {report.summary()}")


if __name__ == "__main__":
    main()
