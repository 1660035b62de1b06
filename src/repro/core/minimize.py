"""Per-coordinate minimization of the objective (paper section 3.2 / formula 15).

Lemma 1: every detection probability is affine in each single input
probability, ``p_f(X, y|i) = p_f(X,0|i) + y * (p_f(X,1|i) - p_f(X,0|i))``.
Lemma 3: therefore ``J_N(X, y|i)`` is strictly convex in ``y`` and has exactly
one minimum in ``[0, 1]``, reachable by the Newton iteration of formula (15):

    ``y := y - J'_N(y) / J''_N(y)``

The minimiser here works purely on the two pre-computed cofactor vectors
``p0 = p_f(X,0|i)`` and ``p1 = p_f(X,1|i)`` (the PREPARE output), so — as the
paper points out in observation (2) — its cost is independent of the circuit
size.  A bisection safeguard keeps the iteration inside the allowed interval
even when terms underflow.

Two entry points share that iteration:

* :func:`minimize_coordinate` minimises one coordinate; it is the slow
  reference.
* :func:`minimize_coordinates` minimises every coordinate of a sweep at once,
  one row of the cofactor matrices per input.  Each row is a lane with its own
  bracket and its own stopping tests (gradient sign at the bounds, ``|J'| <=
  tol``, bracket width); a lane that passes one is frozen and drops out of the
  arrays, so every row takes exactly the steps the scalar path takes and ends
  on the same float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

#: Convergence tolerance on the bracket width and on the scaled gradient.
TOLERANCE = 1e-6
#: Safety cap on Newton/bisection steps per coordinate.
MAX_ITERATIONS = 60

__all__ = [
    "MinimizeResult",
    "minimize_coordinate",
    "minimize_coordinates",
    "coordinate_objective",
]


@dataclass
class MinimizeResult:
    """Result of one per-coordinate minimization.

    Attributes:
        y: the minimizing input probability.
        objective: (scaled) objective value at ``y`` — only comparable between
            evaluations with the same ``p0``/``p1``/``n_patterns``.
        iterations: Newton/bisection steps performed.
        converged: True if the first-order optimality tolerance was met or the
            minimum lies at (the clamped) boundary.
    """

    y: float
    objective: float
    iterations: int
    converged: bool


def coordinate_objective(
    p0: np.ndarray, p1: np.ndarray, n_patterns: float, y: float
) -> float:
    """``J_N`` restricted to one coordinate (un-scaled; may underflow to 0)."""
    probs = p0 + y * (p1 - p0)
    with np.errstate(under="ignore"):
        return float(np.exp(-n_patterns * probs).sum())


def _derivatives(
    p0: np.ndarray,
    delta: np.ndarray,
    n_patterns: float,
    y: float,
) -> Tuple[float, float, float]:
    """Scaled objective and its first two derivatives with respect to ``y``.

    All three are multiplied by ``exp(n_patterns * min_f p_f(y))``, i.e. the
    hardest fault's term is rescaled to exactly 1 at the current point.  The
    common positive factor does not change the sign of the derivatives or the
    location of the minimum, but it keeps the Newton step well conditioned for
    any test length ``N`` (the raw terms all underflow once ``N`` is large).
    """
    probs = p0 + y * delta
    shift = float(probs.min())
    exponent = -n_patterns * (probs - shift)
    with np.errstate(under="ignore"):
        terms = np.exp(exponent)
    value = float(terms.sum())
    first = float((-n_patterns * delta * terms).sum())
    second = float(((n_patterns * delta) ** 2 * terms).sum())
    return value, first, second


def minimize_coordinate(
    p0: Sequence[float],
    p1: Sequence[float],
    n_patterns: float,
    bounds: Tuple[float, float] = (0.01, 0.99),
    initial: float | None = None,
    tolerance: float = TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
) -> MinimizeResult:
    """Minimise ``J_N`` along one input probability (MINIMIZE of section 4).

    Args:
        p0: detection probabilities of the (hard) faults with the input pinned
            to 0, i.e. ``p_f(X, 0|i)``.
        p1: the same with the input pinned to 1, ``p_f(X, 1|i)``.
        n_patterns: the current test length ``N``.
        bounds: allowed interval for the probability.  The paper's Lemma 2
            shows the optimum is strictly inside ``(0, 1)`` when the fault
            model contains the primary-input stuck-at faults; the default
            interval additionally keeps weights realisable by a weighting
            network.
        initial: starting point (defaults to the interval midpoint).
        tolerance: convergence tolerance on the step size and on the scaled
            gradient.
        max_iterations: safety cap on iterations.
    """
    p0 = np.asarray(list(p0), dtype=float)
    p1 = np.asarray(list(p1), dtype=float)
    if p0.shape != p1.shape:
        raise ValueError("p0 and p1 must have the same length")
    if p0.size == 0:
        midpoint = 0.5 * (bounds[0] + bounds[1])
        return MinimizeResult(midpoint, 0.0, 0, True)
    low, high = bounds
    if not 0.0 <= low < high <= 1.0:
        raise ValueError("bounds must satisfy 0 <= low < high <= 1")
    delta = p1 - p0
    if not np.any(delta):
        # The coordinate does not influence any hard fault; keep the midpoint.
        midpoint = initial if initial is not None else 0.5 * (low + high)
        value = coordinate_objective(p0, p1, n_patterns, midpoint)
        return MinimizeResult(float(np.clip(midpoint, low, high)), value, 0, True)

    # J is strictly convex, so J' is increasing: the minimum is at the lower
    # bound if J' is already non-negative there, at the upper bound if J' is
    # still non-positive there, and otherwise at the unique interior root of
    # J', which a safeguarded Newton/bisection finds.
    _, gradient_low, _ = _derivatives(p0, delta, n_patterns, low)
    if gradient_low >= 0.0:
        return MinimizeResult(low, coordinate_objective(p0, p1, n_patterns, low), 1, True)
    _, gradient_high, _ = _derivatives(p0, delta, n_patterns, high)
    if gradient_high <= 0.0:
        return MinimizeResult(high, coordinate_objective(p0, p1, n_patterns, high), 1, True)

    bracket_low, bracket_high = low, high
    y = float(initial) if initial is not None else 0.5 * (low + high)
    y = float(np.clip(y, low, high))
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        _, gradient, curvature = _derivatives(p0, delta, n_patterns, y)
        if abs(gradient) <= tolerance or (bracket_high - bracket_low) <= tolerance:
            converged = True
            break
        if gradient < 0.0:
            bracket_low = y
        else:
            bracket_high = y
        candidate = y - gradient / curvature if curvature > 0.0 else None
        bracket_width = bracket_high - bracket_low
        if (
            candidate is None
            or not (bracket_low < candidate < bracket_high)
            or abs(candidate - y) < 0.05 * bracket_width
        ):
            # Newton is stalling (one dominant exponential far from the root)
            # or left the bracket: fall back to bisection, which halves the
            # bracket and keeps global convergence guaranteed.
            candidate = 0.5 * (bracket_low + bracket_high)
        y = candidate
    else:
        converged = (bracket_high - bracket_low) <= 10 * tolerance

    y = float(np.clip(y, low, high))
    value = coordinate_objective(p0, p1, n_patterns, y)
    return MinimizeResult(y, value, iterations, converged)


def _row_derivatives(
    p0: np.ndarray, delta: np.ndarray, n_patterns: float, y: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """First and second scaled derivatives of :func:`_derivatives`, per row.

    The same float operations in the same order as the scalar helper: the
    row sums run along the contiguous last axis, which numpy reduces with the
    same pairwise summation as a 1-D ``sum``.
    """
    probs = p0 + y[:, None] * delta
    shift = probs.min(axis=1, keepdims=True)
    exponent = -n_patterns * (probs - shift)
    with np.errstate(under="ignore"):
        terms = np.exp(exponent)
    first = (-n_patterns * delta * terms).sum(axis=1)
    second = ((n_patterns * delta) ** 2 * terms).sum(axis=1)
    return first, second


def minimize_coordinates(
    p0: np.ndarray,
    p1: np.ndarray,
    n_patterns: float,
    bounds: Tuple[float, float] = (0.01, 0.99),
    initial: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """MINIMIZE for every coordinate at once.

    Row ``i`` of the result equals
    ``minimize_coordinate(p0[i], p1[i], n_patterns, bounds, initial[i]).y``
    bit for bit, with the default :data:`TOLERANCE` and
    :data:`MAX_ITERATIONS`.

    Args:
        p0: ``(n_inputs, n_faults)`` cofactors ``p_f(X, 0|i)``, one row per
            input.
        p1: the same shape, ``p_f(X, 1|i)``.
        n_patterns: the current test length ``N`` (shared by every row).
        bounds: allowed interval for every probability.
        initial: per-row starting points (default: the interval midpoint).

    Returns:
        The minimizing probability of every row.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if p0.ndim != 2 or p0.shape != p1.shape:
        raise ValueError("p0 and p1 must be matrices of the same shape")
    n_rows, n_faults = p0.shape
    low, high = bounds
    if n_faults == 0:
        return np.full(n_rows, 0.5 * (bounds[0] + bounds[1]))
    if not 0.0 <= low < high <= 1.0:
        raise ValueError("bounds must satisfy 0 <= low < high <= 1")
    if initial is None:
        y = np.full(n_rows, 0.5 * (low + high))
    else:
        y = np.array(initial, dtype=float).reshape(n_rows)
    y = np.clip(y, low, high)

    # Rows with no sensitive fault keep their (clipped) start; the others
    # first test the gradient sign at both bounds, like the scalar path.
    delta = p1 - p0
    rows = np.flatnonzero(delta.any(axis=1))
    gradient_low, _ = _row_derivatives(
        p0[rows], delta[rows], n_patterns, np.full(rows.size, float(low))
    )
    at_low = gradient_low >= 0.0
    y[rows[at_low]] = low
    rows = rows[~at_low]
    gradient_high, _ = _row_derivatives(
        p0[rows], delta[rows], n_patterns, np.full(rows.size, float(high))
    )
    at_high = gradient_high <= 0.0
    y[rows[at_high]] = high
    rows = rows[~at_high]

    # Safeguarded Newton/bisection on the interior rows; ``rows`` holds the
    # lanes still iterating and shrinks as each one meets its own test.
    bracket_low = np.full(n_rows, float(low))
    bracket_high = np.full(n_rows, float(high))
    for _ in range(MAX_ITERATIONS):
        if rows.size == 0:
            break
        point = y[rows]
        gradient, curvature = _row_derivatives(
            p0[rows], delta[rows], n_patterns, point
        )
        lower, upper = bracket_low[rows], bracket_high[rows]
        moving = ~((np.abs(gradient) <= TOLERANCE) | ((upper - lower) <= TOLERANCE))
        rows, point = rows[moving], point[moving]
        gradient, curvature = gradient[moving], curvature[moving]
        descending = gradient < 0.0
        lower = np.where(descending, point, lower[moving])
        upper = np.where(descending, upper[moving], point)
        with np.errstate(divide="ignore", invalid="ignore"):
            candidate = point - gradient / curvature
        newton = (
            (curvature > 0.0)
            & (lower < candidate)
            & (candidate < upper)
            & ~(np.abs(candidate - point) < 0.05 * (upper - lower))
        )
        bracket_low[rows] = lower
        bracket_high[rows] = upper
        y[rows] = np.where(newton, candidate, 0.5 * (lower + upper))
    return np.clip(y, low, high)
