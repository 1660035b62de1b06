"""repro — weighted (optimized-probability) random test generation.

Reproduction of Hans-Joachim Wunderlich, *On Computing Optimized Input
Probabilities for Random Tests*, DAC 1987.

The package is organised by subsystem:

* :mod:`repro.circuit` — gate-level netlists, builder, ``.bench`` I/O.
* :mod:`repro.circuits` — benchmark circuit generators (S1 comparator, divider,
  ISCAS-like workloads), the circuit source abstraction (builtin | file |
  inline | generator refs) and the seeded synthetic netlist generator.
* :mod:`repro.simulation` — bit-parallel true-value simulation.
* :mod:`repro.faults` / :mod:`repro.faultsim` — stuck-at fault model, fault
  collapsing and fault simulation.
* :mod:`repro.analysis` — signal probabilities, observabilities and detection
  probability estimation (PROTEST's role).
* :mod:`repro.core` — the paper's contribution: the test-length computation
  (SORT/NORMALIZE) and the per-input probability optimization.
* :mod:`repro.lowered` — the shared lowered-circuit IR every compiled engine
  consumes, with content-addressed cached compilation.
* :mod:`repro.patterns` — LFSR/MISR/BILBO and weighted pattern generation.
* :mod:`repro.api` — the job-spec API: declarative :class:`PipelineSpec`
  (typed stage configs, JSON round trips), :func:`execute_spec`, the
  parallel :func:`run_jobs` batch executor and the artifact loader behind
  the ``python -m repro`` CLI.
* :mod:`repro.pipeline` — :class:`PipelineReport`, the result artifact of
  one :func:`execute_spec` run.
* :mod:`repro.experiments` — runners that regenerate every table and figure.

Typical use — a registry key or an in-memory circuit, one front door::

    from repro import PipelineSpec, execute_spec, s1_comparator

    report = execute_spec(PipelineSpec(circuit="s1"))
    report = execute_spec(PipelineSpec(circuit=s1_comparator(width=12)))
    print(report.summary())
"""

from .circuit import Circuit, CircuitBuilder, GateType, parse_bench, write_bench
from .circuits import (
    CircuitSource,
    GeneratorSpec,
    alu_circuit,
    array_multiplier_circuit,
    build_circuit,
    comparator_circuit,
    divider_circuit,
    ecc_decoder_circuit,
    generate_circuit,
    hard_suite,
    paper_suite,
    resistant_circuit,
    s1_comparator,
    s2_divider,
)
from .faults import Fault, collapsed_fault_list, full_fault_list
from .faultsim import ParallelFaultSimulator, random_pattern_coverage
from .analysis import (
    CopDetectionEstimator,
    MonteCarloDetectionEstimator,
    StafanDetectionEstimator,
    detection_probabilities,
    signal_probabilities,
)
from .core import (
    OptimizationResult,
    WeightOptimizer,
    quantize_weights,
    required_test_length,
)
from .lowered import LoweredCircuit, compile_lowered
from .patterns import (
    LFSR,
    MISR,
    CompiledLFSR,
    CompiledLfsrWeightedPatternGenerator,
    CompiledMISR,
    LfsrWeightedPatternGenerator,
    SelfTestSession,
    WeightedPatternGenerator,
)
from .api import (
    AnalysisConfig,
    FaultSimConfig,
    MultiWeightConfig,
    OptimizeConfig,
    PipelineSpec,
    QuantizeConfig,
    SchemaError,
    SelfTestConfig,
    derive_seed,
    execute_spec,
    iter_jobs,
    load_artifact,
    run_jobs,
)
from .pipeline import PipelineReport

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "Circuit",
    "CircuitBuilder",
    "GateType",
    "parse_bench",
    "write_bench",
    "s1_comparator",
    "s2_divider",
    "comparator_circuit",
    "divider_circuit",
    "alu_circuit",
    "array_multiplier_circuit",
    "ecc_decoder_circuit",
    "resistant_circuit",
    "build_circuit",
    "paper_suite",
    "hard_suite",
    "CircuitSource",
    "GeneratorSpec",
    "generate_circuit",
    "Fault",
    "full_fault_list",
    "collapsed_fault_list",
    "ParallelFaultSimulator",
    "random_pattern_coverage",
    "signal_probabilities",
    "detection_probabilities",
    "CopDetectionEstimator",
    "MonteCarloDetectionEstimator",
    "StafanDetectionEstimator",
    "OptimizationResult",
    "WeightOptimizer",
    "quantize_weights",
    "required_test_length",
    "LFSR",
    "MISR",
    "CompiledLFSR",
    "CompiledMISR",
    "CompiledLfsrWeightedPatternGenerator",
    "WeightedPatternGenerator",
    "LfsrWeightedPatternGenerator",
    "SelfTestSession",
    "LoweredCircuit",
    "compile_lowered",
    "AnalysisConfig",
    "OptimizeConfig",
    "QuantizeConfig",
    "FaultSimConfig",
    "SelfTestConfig",
    "MultiWeightConfig",
    "PipelineSpec",
    "SchemaError",
    "derive_seed",
    "execute_spec",
    "run_jobs",
    "iter_jobs",
    "load_artifact",
    "PipelineReport",
]
