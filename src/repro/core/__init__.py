"""The paper's contribution: computing optimized input probabilities.

* :mod:`repro.core.objective` — the objective function ``J_N(X)`` and the
  confidence / test-length relationship (formulas (1), (8)-(10)).
* :mod:`repro.core.testlength` — SORT and NORMALIZE (required test length and
  the hard-fault subset).
* :mod:`repro.core.minimize` — per-coordinate Newton minimization (formula (15)).
* :mod:`repro.core.optimizer` — the full OPTIMIZE coordinate-descent procedure.
* :mod:`repro.core.quantize` — snapping weights to realisable grids.
"""

from .objective import (
    confidence_from_objective,
    log_test_confidence,
    objective_from_confidence,
    objective_terms,
    objective_value,
    test_confidence,
)
from .testlength import MAX_TEST_LENGTH, NormalizeResult, normalize, required_test_length, sort_faults
from .minimize import (
    MinimizeResult,
    coordinate_objective,
    minimize_coordinate,
    minimize_coordinates,
)
from .optimizer import OptimizationResult, WeightOptimizer, optimize_input_probabilities
from .quantize import quantization_error, quantize_to_lfsr_grid, quantize_weights

__all__ = [
    "test_confidence",
    "log_test_confidence",
    "objective_value",
    "objective_terms",
    "confidence_from_objective",
    "objective_from_confidence",
    "MAX_TEST_LENGTH",
    "NormalizeResult",
    "normalize",
    "required_test_length",
    "sort_faults",
    "MinimizeResult",
    "minimize_coordinate",
    "minimize_coordinates",
    "coordinate_objective",
    "OptimizationResult",
    "WeightOptimizer",
    "optimize_input_probabilities",
    "quantize_weights",
    "quantize_to_lfsr_grid",
    "quantization_error",
]
