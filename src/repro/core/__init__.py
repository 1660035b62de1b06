"""The paper's contribution: computing optimized input probabilities.

* :mod:`repro.core.testlength` — SORT and NORMALIZE (required test length and
  the hard-fault subset under the objective ``J_N(X) = Σ exp(-N p_f)``,
  formulas (8)-(10)).
* :mod:`repro.core.minimize` — per-coordinate Newton minimization (formula (15)).
* :mod:`repro.core.optimizer` — the full OPTIMIZE coordinate-descent procedure.
* :mod:`repro.core.quantize` — snapping weights to realisable grids.
"""

from .testlength import (
    MAX_TEST_LENGTH,
    NormalizeResult,
    normalize,
    objective_from_confidence,
    required_test_length,
    sort_faults,
)
from .minimize import (
    MinimizeResult,
    coordinate_objective,
    minimize_coordinate,
    minimize_coordinates,
)
from .optimizer import OptimizationResult, WeightOptimizer
from .quantize import quantize_to_lfsr_grid, quantize_weights

__all__ = [
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
    "quantize_weights",
    "quantize_to_lfsr_grid",
]
