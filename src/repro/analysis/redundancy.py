"""Redundancy identification.

The paper (discussion of Table 2) notes that "an estimation with the exact
value 0 or 1 of a signal probability by PROTEST is a proof (not an
estimation!) of redundancy", and that the fault coverage it reports excludes
faults proven undetectable.  The optimizer likewise removes "all known
redundancies" in its SORT step.

Two levels of redundancy identification are provided:

* :func:`estimated_redundant_faults` — the PROTEST-style criterion: a fault
  whose estimated detection probability is exactly zero for an interior
  probability tuple (no input pinned to 0 or 1) can only be undetectable,
  because the COP product is zero only if activation or observability is
  structurally impossible under the independence assumption at that point.
  This is a strong heuristic but, unlike the paper's exact-0/1 criterion on
  *signal* probabilities, estimation artefacts can misclassify; callers who
  need proof should use the exact check below.
* :func:`proven_redundant` — exhaustive proof over the primary-input space
  (only for circuits small enough to enumerate).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from .compiled import BatchedCopEstimator
from .exact import MAX_EXACT_INPUTS, exact_detection_probability

__all__ = ["estimated_redundant_faults", "proven_redundant", "remove_redundant"]


def estimated_redundant_faults(
    circuit: Circuit,
    faults: Sequence[Fault],
    interior_probability: float = 0.5,
) -> List[Fault]:
    """Faults whose estimated detection probability is exactly zero.

    The input probabilities are forced to an interior value (default 0.5) so a
    zero can only come from the structure of the circuit, not from an input
    pinned to 0 or 1.  The batched COP engine evaluates it; its values are
    bit-identical to the scalar :class:`~repro.analysis.detection.CopDetectionEstimator`.
    """
    if not 0.0 < interior_probability < 1.0:
        raise ValueError("interior_probability must lie strictly between 0 and 1")
    probs = BatchedCopEstimator().detection_probabilities(
        circuit, list(faults), np.full(circuit.n_inputs, interior_probability)
    )
    return [fault for fault, p in zip(faults, probs) if p == 0.0]


def proven_redundant(circuit: Circuit, fault: Fault) -> bool:
    """Exhaustively prove that no input pattern detects ``fault``.

    Raises ``ValueError`` for circuits with more than
    :data:`~repro.analysis.exact.MAX_EXACT_INPUTS` primary inputs.
    """
    if circuit.n_inputs > MAX_EXACT_INPUTS:
        raise ValueError(
            f"cannot prove redundancy by enumeration for {circuit.n_inputs} inputs"
        )
    return exact_detection_probability(circuit, fault, 0.5) == 0.0


def remove_redundant(
    circuit: Circuit, faults: Sequence[Fault], interior_probability: float = 0.5
) -> List[Fault]:
    """Return ``faults`` with the estimated-redundant ones removed.

    This mirrors the paper's reporting convention: coverage and test lengths
    are computed "only with respect to those faults which are not proven to be
    undetectable due to redundancy".
    """
    redundant = set(estimated_redundant_faults(circuit, faults, interior_probability))
    return [fault for fault in faults if fault not in redundant]
