"""Test-length computation and hard-fault selection (SORT / NORMALIZE).

Section 4 of the paper: given the current detection probabilities, the
procedure SORT orders the fault list by increasing probability (removing known
redundancies) and NORMALIZE determines

* the minimum number ``N`` of random patterns such that the objective
  ``J_N = Σ exp(-N p_f)`` drops below the threshold ``Q`` derived from the
  required confidence, and
* the number ``nf`` of *relevant* (hardest) faults — observation (1): faults
  with comfortably higher detection probabilities contribute nothing
  numerically to the objective, so the per-input optimization only needs to
  look at the hard subset.

NORMALIZE searches ``M`` by exponential growth followed by binary search.  Each
probe sums only the ``z`` leading terms that are not yet negligible at ``M``:
the paper's lower bound ``l(z, M)``, so the sums never run over the full fault
list.  The paper's upper bound ``u(z, M) = l(z, M) + (n - z) exp(-M p_z)`` is
never below ``l``.  So ``u <= Q`` can only confirm a probe that ``l <= Q``
already accepts, and ``u > Q`` cannot overturn it: ``u`` decides no probe and
is not computed.  What ``u <= Q`` would add is a certificate that the *full*
``J_M`` is below ``Q``; the search does not use one, and the returned
:attr:`NormalizeResult.objective` is the full sum at the final ``N``.

The optimizer ranks its step candidates by test length alone, so it calls
:func:`normalize` on each candidate's sorted positive probabilities and runs
:func:`sort_faults`, which reorders the fault objects, only on the accepted
candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .objective import objective_from_confidence

__all__ = ["NormalizeResult", "sort_faults", "normalize", "required_test_length"]

#: A fault whose objective term is below this fraction of the threshold Q
#: divided by the fault count is considered numerically irrelevant.
_RELEVANCE_FRACTION = 1e-6

#: Hard cap on the returned test length (prevents unbounded searches when a
#: fault is effectively undetectable); roughly "more patterns than any BIST
#: session could ever apply".
MAX_TEST_LENGTH = 10**15


@dataclass
class NormalizeResult:
    """Outcome of NORMALIZE.

    Attributes:
        test_length: minimum N with ``J_N <= Q`` (capped at
            :data:`MAX_TEST_LENGTH`).
        n_hard_faults: the paper's ``nf`` — how many of the hardest faults
            still contribute numerically to the objective at ``N``.
        objective: the objective value ``J_N`` actually achieved at ``N``.
        threshold: the threshold ``Q`` that was targeted.
        capped: True if the search hit :data:`MAX_TEST_LENGTH` (some fault is
            essentially undetectable under the current distribution).
    """

    test_length: int
    n_hard_faults: int
    objective: float
    threshold: float
    capped: bool = False


def _as_float_array(values: Sequence[float]) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return np.asarray(values, dtype=float)
    return np.asarray(list(values), dtype=float)


def sort_faults(
    faults: Sequence, detection_probs: Sequence[float]
) -> Tuple[List, np.ndarray, List]:
    """SORT: order faults by increasing detection probability.

    Faults with probability exactly zero are treated as (estimated) redundant
    and separated out, mirroring "all known redundancies are removed".

    Returns:
        ``(sorted_faults, sorted_probs, redundant_faults)``.
    """
    probs = _as_float_array(detection_probs)
    if len(faults) != probs.size:
        raise ValueError("faults and detection probabilities differ in length")
    order = np.argsort(probs, kind="stable")
    sorted_probs = probs[order]
    detectable_mask = sorted_probs > 0.0
    kept_faults = [faults[i] for i in order[detectable_mask].tolist()]
    redundant = [faults[i] for i in order[~detectable_mask].tolist()]
    return kept_faults, sorted_probs[detectable_mask], redundant


def normalize(
    sorted_probs: Sequence[float],
    confidence: float = 0.999,
) -> NormalizeResult:
    """NORMALIZE: minimum test length and hard-fault count for a confidence.

    Args:
        sorted_probs: detection probabilities sorted ascending, all > 0
            (produced by :func:`sort_faults`).
        confidence: required probability that every fault is detected.
    """
    probs = _as_float_array(sorted_probs)
    threshold = objective_from_confidence(confidence)
    if probs.size == 0:
        return NormalizeResult(1, 0, 0.0, threshold)
    if np.any(probs <= 0.0):
        raise ValueError("normalize requires strictly positive probabilities; "
                         "remove redundant faults first (sort_faults does this)")
    if np.any(np.diff(probs) < 0.0):
        raise ValueError("probabilities must be sorted ascending")

    # z(N): the leading (hardest) faults whose terms are not yet negligible,
    # exp(-N p) > cutoff  <=>  p < ln(1/cutoff) / N.  A probe is l(z, N) <= Q
    # (the module docstring says why u(z, N) is not needed).
    cutoff = max(threshold, 1e-300) * _RELEVANCE_FRACTION / probs.size
    log_inv_cutoff = np.log(1.0 / cutoff)

    def below(n: int) -> bool:
        limit = log_inv_cutoff / max(n, 1.0)
        z = max(int(probs.searchsorted(limit, side="right")), 1)
        return float(np.exp(-n * probs[:z]).sum()) <= threshold

    with np.errstate(under="ignore"):
        # Exponential search for an upper bracket, then binary search for the
        # smallest integer N with J_N <= Q.
        low, high = 1, 1
        capped = False
        while not below(high):
            if high >= MAX_TEST_LENGTH:
                capped = True
                break
            low = high
            high = min(high * 4, MAX_TEST_LENGTH)
        if capped:
            n_final = MAX_TEST_LENGTH
        else:
            while low < high:
                mid = (low + high) // 2
                if below(mid):
                    high = mid
                else:
                    low = mid + 1
            n_final = high
        terms = np.exp(-float(n_final) * probs)
    objective = float(terms.sum())
    n_hard = int(np.count_nonzero(terms > cutoff))
    n_hard = max(n_hard, 1)
    return NormalizeResult(n_final, n_hard, objective, threshold, capped)


def required_test_length(
    detection_probs: Sequence[float], confidence: float = 0.999
) -> NormalizeResult:
    """Convenience: SORT (dropping zeros) followed by NORMALIZE."""
    probs = _as_float_array(detection_probs)
    positive = np.sort(probs[probs > 0.0])
    return normalize(positive, confidence)
