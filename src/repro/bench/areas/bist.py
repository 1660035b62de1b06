"""Bench area ``bist`` — compiled vs. scalar LFSR weighting + MISR compaction.

Times the vectorized GF(2) block substrate (:mod:`repro.patterns.compiled`)
against the scalar per-bit classes on one full BIST pass (weighted pattern
stream + signature compaction) and cross-checks that both sides produce
bit-identical patterns and signatures — the signature is committed as an
exact counter, so any behavioural drift of the LFSR/MISR kernels trips the
trajectory gate even if both sides drift together.
"""

from __future__ import annotations

import numpy as np

from ...circuits import build_circuit
from ...patterns import (
    MISR,
    CompiledLfsrWeightedPatternGenerator,
    CompiledMISR,
    LfsrWeightedPatternGenerator,
    default_misr_width,
)
from ...simulation import LogicSimulator
from ..artifacts import BenchResult
from ..compare import RSS_POLICY, MetricPolicy
from ..registry import BenchArea, register_area
from ..runner import BenchRunner

#: Largest circuit of the registry (by gate count); the acceptance workload.
LARGEST_CIRCUIT_KEY = "s2"

SEED = 1987
RESOLUTION = 5


def workload_weights(n_inputs: int, seed: int = 7) -> np.ndarray:
    """A deterministic non-trivial weight vector on the LFSR grid."""
    rng = np.random.default_rng(seed)
    return rng.integers(1, 32, n_inputs) / 32.0


def _bist_pass(generator_cls, misr_cls, weights, width, n_patterns, responses):
    """One full BIST pattern-generation + compaction pass."""
    generator = generator_cls(weights, resolution=RESOLUTION, seed=SEED)
    patterns = generator.generate(n_patterns)
    signature = misr_cls(width).compact(responses)
    return patterns, signature


def run_bench(
    quick: bool = False, circuit_key: str = LARGEST_CIRCUIT_KEY, repeats: int = 3
) -> BenchResult:
    """Time compiled vs. scalar BIST pattern generation + MISR compaction.

    The circuit responses are simulated once (identical for both sides) and
    the timed region covers exactly what the compiled substrate replaced.
    The quick workload stays large enough that the measured speedup sits
    well above the gate even on noisy shared runners (the compiled cost is
    nearly flat in the pattern count, the scalar cost linear).
    """
    n_patterns = 1024 if quick else 4096
    circuit = build_circuit(circuit_key)
    weights = workload_weights(circuit.n_inputs)
    width = default_misr_width(circuit.n_outputs)
    reference = CompiledLfsrWeightedPatternGenerator(
        weights, resolution=RESOLUTION, seed=SEED
    ).generate(n_patterns)
    responses = LogicSimulator(circuit).simulate_patterns(reference)

    runner = BenchRunner("bist", quick=quick, repeats=repeats)
    runner.workload(
        circuit=circuit_key,
        n_inputs=circuit.n_inputs,
        n_outputs=circuit.n_outputs,
        n_patterns=n_patterns,
        resolution=RESOLUTION,
        misr_width=width,
    )

    compiled = runner.measure(
        "compiled",
        lambda: _bist_pass(
            CompiledLfsrWeightedPatternGenerator,
            CompiledMISR,
            weights,
            width,
            n_patterns,
            responses,
        ),
    )
    scalar = runner.measure(
        "scalar",
        lambda: _bist_pass(
            LfsrWeightedPatternGenerator, MISR, weights, width, n_patterns, responses
        ),
    )

    compiled_patterns, compiled_signature = compiled.value
    scalar_patterns, scalar_signature = scalar.value
    if compiled_patterns.shape != (n_patterns, circuit.n_inputs):
        raise AssertionError(
            f"weighting network emitted shape {compiled_patterns.shape}, "
            f"expected {(n_patterns, circuit.n_inputs)}"
        )
    if not np.array_equal(compiled_patterns, scalar_patterns):
        raise AssertionError("compiled and scalar weighting networks disagree")
    if compiled_signature != scalar_signature:
        raise AssertionError("compiled and scalar MISR signatures disagree")

    runner.counter("signature", int(compiled_signature))
    runner.metric("compiled_patterns_per_second", n_patterns / compiled.best_seconds)
    runner.metric("scalar_patterns_per_second", n_patterns / scalar.best_seconds)
    return runner.result(speedup=("scalar", "compiled"))


AREA = register_area(
    BenchArea(
        name="bist",
        title="BIST substrate: compiled vs. scalar LFSR weighting + MISR",
        run=run_bench,
        policies={
            # The floor keeps the old fixed --min-speedup 10 CI gate.
            "speedup": MetricPolicy(direction="higher", rel_tol=0.4, floor=10.0),
            "peak_rss_bytes": RSS_POLICY,
        },
    )
)
