"""Testability analysis: signal probabilities, observabilities and detection
probability estimation (the role PROTEST plays in the paper).

Two implementations of the COP analysis pipeline live here:

* the **scalar reference path** — :func:`signal_probabilities` (forward),
  :func:`observabilities` (backward) and :class:`CopDetectionEstimator`
  (activation x observability per fault), one Python-level walk per weight
  vector; and
* the **batched compiled engine** — :class:`~repro.analysis.compiled.CompiledCop`
  lowers the circuit once into per-level float kernels and evaluates signal
  probabilities, pin observabilities and per-fault detection probabilities for
  a whole ``(B, n_inputs)`` batch of weight vectors in one vectorized pass,
  with per-row input pinning for the optimizer's PREPARE cofactors.
  :class:`BatchedCopEstimator` wraps it behind the estimator protocols and is
  the default estimator of :class:`repro.core.optimizer.WeightOptimizer`.
  Its level loops run in C (:mod:`repro.analysis.native`) whenever a C
  compiler is available, and on its numpy kernels otherwise.

The two paths are bit-identical (the differential tests assert equality, not
closeness), so the scalar path serves as the executable specification of the
compiled engine.  Estimators remain pluggable through
:class:`DetectionProbabilityEstimator`; batch-capable ones additionally
conform to :class:`BatchDetectionProbabilityEstimator` and are detected by
:func:`batch_detection_probabilities`, which drives any scalar estimator row
by row as a fallback.

Exact values come from :mod:`repro.analysis.exact`, which enumerates an
exhaustive pattern matrix (at most 22 inputs) through the word-parallel
simulation references; the tests use it as the oracle for the estimators.
The product path (the ``faults`` and ``analysis`` rows of a spec) calls only
the batched engine.
"""

from .signal_prob import input_probability_vector, signal_probabilities, signal_probability
from .observability import ObservabilityResult, observabilities
from .detection import (
    BatchDetectionProbabilityEstimator,
    CopDetectionEstimator,
    DetectionProbabilityEstimator,
    batch_detection_probabilities,
    cofactor_batch,
    detection_probabilities,
)
from .compiled import (
    BatchedCopEstimator,
    BatchedCopResult,
    CompiledCop,
    compile_cop,
)
from .exact import (
    ExactDetectionEstimator,
    exact_detection_probability,
    exact_signal_probability,
)
from .cutting import bounds_for_net, probability_bounds
from .stafan import StafanDetectionEstimator, measured_signal_probabilities
from .montecarlo import MonteCarloDetectionEstimator
from .redundancy import estimated_redundant_faults, proven_redundant, remove_redundant

__all__ = [
    "input_probability_vector",
    "signal_probabilities",
    "signal_probability",
    "ObservabilityResult",
    "observabilities",
    "DetectionProbabilityEstimator",
    "BatchDetectionProbabilityEstimator",
    "CopDetectionEstimator",
    "detection_probabilities",
    "batch_detection_probabilities",
    "cofactor_batch",
    "BatchedCopEstimator",
    "BatchedCopResult",
    "CompiledCop",
    "compile_cop",
    "ExactDetectionEstimator",
    "exact_signal_probability",
    "exact_detection_probability",
    "probability_bounds",
    "bounds_for_net",
    "StafanDetectionEstimator",
    "measured_signal_probabilities",
    "MonteCarloDetectionEstimator",
    "estimated_redundant_faults",
    "proven_redundant",
    "remove_redundant",
]
