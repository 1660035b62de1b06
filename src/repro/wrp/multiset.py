"""Per-cluster weight-set optimization and the ``MultiWeightSet`` artifact.

:func:`build_weight_sets` is the multi-weight-set counterpart of the paper's
single OPTIMIZE run: partition the fault list by detection-profile similarity
(:mod:`repro.wrp.clustering`), run the existing
:class:`repro.core.optimizer.WeightOptimizer` once per cluster with that
cluster as its faults-of-interest, and pack the per-cluster optima — together
with each set's LFSR polynomial, seed and pattern budget — into a
:class:`MultiWeightSet` artifact that round-trips through JSON like every
other artifact of the job-spec API.

Reseeded multi-polynomial LFSRs: set ``i`` draws its patterns from a
primitive polynomial of width ``SET_POLYNOMIAL_WIDTHS[i % 5]`` with its own
derived seed.  Set 0 keeps the width-32 default polynomial and the session
seed, so a ``k = 1`` schedule plays *bit-identically* to the single-set
:class:`repro.patterns.bilbo.SelfTestSession` — the anchor the equivalence
tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.compiled import BatchedCopEstimator
from ..analysis.detection import batch_detection_probabilities
from ..circuit.netlist import Circuit
from ..core.optimizer import OptimizationResult, WeightOptimizer
from ..core.testlength import MAX_TEST_LENGTH, objective_from_confidence
from ..faults.collapse import collapsed_fault_list
from ..faults.model import Fault, FaultTable
from ..patterns.lfsr import PRIMITIVE_TAPS
from .clustering import cluster_faults, detection_profiles

__all__ = [
    "SET_POLYNOMIAL_WIDTHS",
    "WeightSetEntry",
    "MultiWeightSet",
    "build_weight_sets",
    "allocate_budget",
    "joint_schedule",
]

#: LFSR widths cycled through by successive weight sets — each width selects a
#: different tabulated primitive polynomial, so consecutive sets differ in
#: both polynomial and seed (the "multi-polynomial/reseeded" architecture).
#: Width 32 comes first: set 0 must match the single-set self-test hardware.
SET_POLYNOMIAL_WIDTHS = (32, 28, 48, 24, 64)


def set_seed(session_seed: int, index: int) -> int:
    """The reseed of weight set ``index`` (set 0 keeps the session seed).

    Later sets draw a fresh 64-bit word from a child
    :class:`numpy.random.SeedSequence` keyed by the set index — the same
    order-independent parent/child derivation as
    :func:`repro.api.spec.derive_seed`, including the guard against a state
    whose low register bits are all zero.
    """
    if index == 0:
        return session_seed
    sequence = np.random.SeedSequence(entropy=session_seed, spawn_key=(index,))
    seed = int(sequence.generate_state(1, np.uint64)[0])
    if seed & 0xFFFFFFFF == 0:
        seed |= 1
    return seed


def allocate_budget(lengths: Sequence[int], budget: int) -> List[int]:
    """Split a total pattern budget across sets, proportional to need.

    Largest-remainder apportionment over the per-set required test lengths:
    deterministic, sums exactly to ``budget`` and gives every set at least
    one pattern (so a set is never silently skipped), provided
    ``budget >= len(lengths)``.
    """
    n_sets = len(lengths)
    if n_sets == 0:
        raise ValueError("cannot allocate a budget over zero sets")
    if budget < n_sets:
        raise ValueError(
            f"budget {budget} cannot give each of {n_sets} sets a pattern"
        )
    total = float(sum(max(0, length) for length in lengths))
    if total <= 0.0:
        shares = [budget / n_sets] * n_sets
    else:
        shares = [budget * max(0, length) / total for length in lengths]
    floors = [max(1, int(share)) for share in shares]
    remainder = budget - sum(floors)
    if remainder > 0:
        # Hand out the missing patterns by descending fractional part,
        # breaking ties by set index.
        order = sorted(
            range(n_sets), key=lambda i: (-(shares[i] - int(shares[i])), i)
        )
        for step in range(remainder):
            floors[order[step % n_sets]] += 1
    elif remainder < 0:
        # The max(1, ...) floors overshot a tiny budget; take the excess back
        # from the largest allocations.
        for _ in range(-remainder):
            biggest = max(range(n_sets), key=lambda i: (floors[i], -i))
            if floors[biggest] > 1:
                floors[biggest] -= 1
    return floors


def joint_schedule(
    probs: np.ndarray,
    confidence: float,
    start_lengths: Sequence[int],
) -> List[int]:
    """Minimum per-set lengths whose *cumulative* exposure meets a confidence.

    The single-set NORMALIZE bounds ``J_N = Σ_f exp(-N p_f) <= Q``.  When a
    session plays several weight sets in sequence the per-fault exposure is
    additive in the exponent, so the schedule objective is::

        J(N_1, ..., N_k) = Σ_f exp(-Σ_s N_s p_{f,s}) <= Q

    — every pattern a set plays counts against *every* fault, not only the
    cluster the set was optimized for.  This is exactly where the multi-set
    architecture beats the naive per-cluster sum: a set tuned for one
    cluster's hard faults still sweeps up the easy remainder of the others.

    Starting from a feasible schedule (the per-cluster requirements, doubled
    until globally feasible), each set is shaved to its minimal integer length
    by cyclic binary search.  The objective is convex in the schedule, every
    pass is monotone non-increasing, and the result is deterministic.

    Args:
        probs: ``(n_sets, n_faults)`` detection probabilities of every fault
            under each set's weights.
        confidence: required probability that every fault is detected by the
            full schedule.
        start_lengths: per-set warm-start lengths (each cluster's own
            single-set requirement).
    """
    matrix = np.asarray(probs, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a (n_sets, n_faults) matrix, got {matrix.shape}")
    n_sets = matrix.shape[0]
    if n_sets != len(start_lengths):
        raise ValueError(
            f"expected {n_sets} start lengths, got {len(start_lengths)}"
        )
    if n_sets == 0:
        raise ValueError("cannot schedule zero weight sets")
    threshold = objective_from_confidence(confidence)

    def objective(lengths: np.ndarray) -> float:
        with np.errstate(under="ignore"):
            return float(np.exp(-(lengths @ matrix)).sum())

    lengths = np.array(
        [min(max(1, int(length)), MAX_TEST_LENGTH) for length in start_lengths],
        dtype=float,
    )
    if matrix.shape[1] == 0:
        return [1] * n_sets
    # Per-cluster feasibility does not imply joint feasibility (k clusters at
    # threshold Q each can sum to k*Q); double until the schedule is feasible.
    while objective(lengths) > threshold:
        if lengths.max() >= MAX_TEST_LENGTH:
            # Some fault is essentially undetectable under every set; report
            # the capped schedule like NORMALIZE reports a capped length.
            break
        lengths = np.minimum(lengths * 2.0, MAX_TEST_LENGTH)

    for _ in range(32):
        changed = False
        for s in range(n_sets):
            low, high = 1, int(lengths[s])
            while low < high:
                mid = (low + high) // 2
                trial = lengths.copy()
                trial[s] = mid
                if objective(trial) <= threshold:
                    high = mid
                else:
                    low = mid + 1
            if high < int(lengths[s]):
                lengths[s] = high
                changed = True
        if not changed:
            break
    return [int(length) for length in lengths]


# --------------------------------------------------------------------------- #
# Artifacts
# --------------------------------------------------------------------------- #
@dataclass
class WeightSetEntry:
    """One weight set: a cluster's optimum plus its LFSR and budget.

    Attributes:
        index: position of the set in the session schedule.
        weights: the cluster's optimized input probabilities.
        quantized_weights: the same weights on the realisable grid (what the
            session's weighting network applies).
        fault_indices: indices into the session fault list of the cluster
            this set was optimized for.
        test_length: this set's share of the jointly normalized schedule —
            the patterns it must play so the *cumulative* exposure of all
            sets detects every fault at the optimizer's confidence (see
            :func:`joint_schedule`).
        n_patterns: the session budget of this set (how long it plays).
        lfsr_width / lfsr_taps / lfsr_seed: the set's pattern-source LFSR —
            per-set polynomial and seed (leap-ahead tables are shared
            process-wide per (width, taps) as always).
    """

    index: int
    weights: np.ndarray
    quantized_weights: np.ndarray
    fault_indices: Tuple[int, ...]
    test_length: int
    n_patterns: int
    lfsr_width: int
    lfsr_taps: Tuple[int, ...]
    lfsr_seed: int

    def to_dict(self) -> Dict:
        from ..api.serialize import encode_array, tagged_dict

        return tagged_dict(
            "weight_set_entry",
            {
                "index": int(self.index),
                "weights": encode_array(np.asarray(self.weights, dtype=float)),
                "quantized_weights": encode_array(
                    np.asarray(self.quantized_weights, dtype=float)
                ),
                "fault_indices": [int(i) for i in self.fault_indices],
                "test_length": int(self.test_length),
                "n_patterns": int(self.n_patterns),
                "lfsr_width": int(self.lfsr_width),
                "lfsr_taps": [int(t) for t in self.lfsr_taps],
                "lfsr_seed": int(self.lfsr_seed),
            },
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "WeightSetEntry":
        from ..api.serialize import decode_array, untag

        payload = untag(
            data,
            "weight_set_entry",
            required=(
                "index",
                "weights",
                "quantized_weights",
                "fault_indices",
                "test_length",
                "n_patterns",
                "lfsr_width",
                "lfsr_taps",
                "lfsr_seed",
            ),
        )
        return cls(
            index=int(payload["index"]),
            weights=decode_array(payload["weights"]),
            quantized_weights=decode_array(payload["quantized_weights"]),
            fault_indices=tuple(int(i) for i in payload["fault_indices"]),
            test_length=int(payload["test_length"]),
            n_patterns=int(payload["n_patterns"]),
            lfsr_width=int(payload["lfsr_width"]),
            lfsr_taps=tuple(int(t) for t in payload["lfsr_taps"]),
            lfsr_seed=int(payload["lfsr_seed"]),
        )


@dataclass
class MultiWeightSet:
    """A schedule of per-cluster weight sets for one circuit.

    Attributes:
        circuit_name: name of the circuit the sets were optimized for.
        n_inputs: primary-input count (shape check on load).
        sets: the weight sets, in session play order.
        single_set_length: the single-set baseline test length the clusters
            were split from (the paper's Table 3 quantity).
        redundant_indices: fault indices excluded from clustering because
            their whole detection profile is zero (estimated redundant).
        confidence: detection confidence the per-set lengths are quoted at.
        cluster_seed: seed of the detection-profile clustering.
        session_seed: root of the per-set LFSR reseeds (see :func:`set_seed`).
    """

    circuit_name: str
    n_inputs: int
    sets: List[WeightSetEntry]
    single_set_length: int
    redundant_indices: Tuple[int, ...]
    confidence: float
    cluster_seed: int
    session_seed: int

    @property
    def k(self) -> int:
        return len(self.sets)

    @property
    def multi_set_length(self) -> int:
        """Patterns required when every set plays its required length."""
        return int(sum(entry.test_length for entry in self.sets))

    @property
    def total_budget(self) -> int:
        return int(sum(entry.n_patterns for entry in self.sets))

    def to_dict(self) -> Dict:
        from ..api.serialize import tagged_dict

        return tagged_dict(
            "multi_weight_set",
            {
                "circuit_name": self.circuit_name,
                "n_inputs": int(self.n_inputs),
                "sets": [entry.to_dict() for entry in self.sets],
                "single_set_length": int(self.single_set_length),
                "redundant_indices": [int(i) for i in self.redundant_indices],
                "confidence": float(self.confidence),
                "cluster_seed": int(self.cluster_seed),
                "session_seed": int(self.session_seed),
            },
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "MultiWeightSet":
        from ..api.serialize import untag

        payload = untag(
            data,
            "multi_weight_set",
            required=(
                "circuit_name",
                "n_inputs",
                "sets",
                "single_set_length",
                "redundant_indices",
                "confidence",
                "cluster_seed",
                "session_seed",
            ),
        )
        return cls(
            circuit_name=str(payload["circuit_name"]),
            n_inputs=int(payload["n_inputs"]),
            sets=[WeightSetEntry.from_dict(entry) for entry in payload["sets"]],
            single_set_length=int(payload["single_set_length"]),
            redundant_indices=tuple(int(i) for i in payload["redundant_indices"]),
            confidence=float(payload["confidence"]),
            cluster_seed=int(payload["cluster_seed"]),
            session_seed=int(payload["session_seed"]),
        )


# --------------------------------------------------------------------------- #
# Construction
# --------------------------------------------------------------------------- #
def _entry_lfsr(index: int, session_seed: int) -> Tuple[int, Tuple[int, ...], int]:
    width = SET_POLYNOMIAL_WIDTHS[index % len(SET_POLYNOMIAL_WIDTHS)]
    return width, PRIMITIVE_TAPS[width], set_seed(session_seed, index)


def build_weight_sets(
    circuit: Circuit,
    faults: Optional[Sequence[Fault]] = None,
    k: int = 4,
    *,
    estimator=None,
    confidence: float = 0.999,
    bounds: Tuple[float, float] = (0.05, 0.95),
    alpha: float = 0.01,
    max_sweeps: int = 8,
    quantization_step: float = 0.05,
    cluster_seed: int = 1987,
    session_seed: int = 1987,
    budget: Optional[int] = None,
    base_result: Optional[OptimizationResult] = None,
) -> MultiWeightSet:
    """Cluster the fault list and optimize one weight set per cluster.

    Args:
        circuit: circuit under test.
        faults: fault list (defaults to the collapsed stuck-at list).
        k: requested cluster count; ``k = 1`` reuses the single-set optimum
            verbatim (the bit-identical degenerate case).
        estimator: detection-probability estimator shared by the baseline
            run, the profiles and every per-cluster optimizer.
        confidence / bounds / alpha / max_sweeps / quantization_step: the
            existing :class:`WeightOptimizer` parameters, applied per
            cluster.
        cluster_seed: seed of the detection-profile clustering.
        session_seed: root seed of the per-set LFSR reseeds.
        budget: optional total pattern budget, apportioned across sets by
            :func:`allocate_budget`; ``None`` budgets each set its own
            required test length.
        base_result: optionally a precomputed single-set optimum (the
            executor passes the cached optimize-stage artifact); ``None``
            runs the baseline optimization here.
    """
    fault_list = FaultTable.of(faults if faults is not None else collapsed_fault_list(circuit))
    if estimator is None:
        estimator = BatchedCopEstimator()
    if base_result is None:
        base_result = WeightOptimizer(
            circuit,
            faults=fault_list,
            estimator=estimator,
            confidence=confidence,
            bounds=bounds,
            alpha=alpha,
            max_sweeps=max_sweeps,
        ).optimize(quantization_step=quantization_step)
    base_weights = np.asarray(base_result.weights, dtype=float)

    if k < 1:
        raise ValueError(f"k must be a positive cluster count, got {k!r}")
    if min(k, len(fault_list)) == 1:
        clusters = [np.arange(len(fault_list), dtype=np.int64)]
        redundant: Tuple[int, ...] = ()
        results = [base_result]
        lengths = [int(base_result.test_length)]
    else:
        profiles = detection_profiles(circuit, fault_list, base_weights, estimator)
        detectable = np.flatnonzero(profiles[:, 0] > 0.0)
        if detectable.size == 0:
            raise ValueError(
                "every fault has estimated detection probability zero under "
                "the single-set optimum; the circuit or fault list is degenerate"
            )
        redundant = tuple(
            int(i) for i in np.flatnonzero(profiles[:, 0] == 0.0)
        )
        sub_faults = fault_list.take(detectable)
        sub_clusters = cluster_faults(
            circuit,
            sub_faults,
            base_weights,
            k,
            cluster_seed,
            estimator,
            profiles=profiles[detectable],
        )
        clusters = [detectable[c] for c in sub_clusters]
        # Warm-start every per-cluster descent from the single-set optimum:
        # the optimizer keeps the best distribution *seen*, and the caller's
        # start is always a candidate, so a cluster's set can never require
        # more patterns for its faults than the baseline weights already do —
        # specialization only narrows from there.
        results = [
            WeightOptimizer(
                circuit,
                faults=fault_list.take(cluster),
                estimator=estimator,
                confidence=confidence,
                bounds=bounds,
                alpha=alpha,
                max_sweeps=max_sweeps,
            ).optimize(
                initial_weights=base_weights,
                quantization_step=quantization_step,
            )
            for cluster in clusters
        ]
        # Normalize the schedule *jointly*: every set's patterns expose every
        # fault, so the per-set lengths shrink well below the per-cluster
        # requirements they warm-start from.
        set_weights = np.stack(
            [np.asarray(result.weights, dtype=float) for result in results]
        )
        joint_probs = batch_detection_probabilities(
            circuit, sub_faults, set_weights, estimator
        )
        lengths = joint_schedule(
            joint_probs, confidence, [int(result.test_length) for result in results]
        )

    if budget is None:
        budgets = [max(1, length) for length in lengths]
    else:
        budgets = allocate_budget(lengths, budget)

    entries = []
    for index, (cluster, result) in enumerate(zip(clusters, results)):
        width, taps, seed = _entry_lfsr(index, session_seed)
        entries.append(
            WeightSetEntry(
                index=index,
                weights=np.asarray(result.weights, dtype=float),
                quantized_weights=np.asarray(result.quantized_weights, dtype=float),
                fault_indices=tuple(int(i) for i in cluster),
                test_length=int(lengths[index]),
                n_patterns=int(budgets[index]),
                lfsr_width=width,
                lfsr_taps=taps,
                lfsr_seed=seed,
            )
        )
    return MultiWeightSet(
        circuit_name=circuit.name,
        n_inputs=circuit.n_inputs,
        sets=entries,
        single_set_length=int(base_result.test_length),
        redundant_indices=redundant,
        confidence=float(confidence),
        cluster_seed=int(cluster_seed),
        session_seed=int(session_seed),
    )
