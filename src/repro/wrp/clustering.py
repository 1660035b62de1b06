"""Detection-profile fault clustering for multi-weight-set BIST.

The paper optimizes *one* input-probability vector per circuit, which is its
known weakness: circuits with conflicting input-weight demands (the
c2670-class) cannot satisfy every hard fault with a single distribution.  The
PROTEST lineage's direct follow-up is to partition the fault list into
clusters of faults with *similar* weight demands and optimize one weight set
per cluster.

The similarity signal used here is the **detection profile**: for every fault
the vector of COP detection probabilities under the single-set optimum *and*
under all of its ``2 x n_inputs`` input cofactors (input ``i`` pinned to 0 and
to 1) — exactly the PREPARE batch the optimizer already submits per sweep
(:func:`repro.analysis.detection.cofactor_batch`), so one batched analysis
yields the whole ``(2n + 1, n_faults)`` matrix.  Two faults whose detection
probabilities react the same way to pinning each input want the same weights;
faults that react oppositely belong in different clusters.

Profiles are compared in log space (detection probabilities of hard faults
span orders of magnitude) by a deterministic, seeded k-means: k-means++
initialization from a :class:`numpy.random.Generator`, Lloyd iterations with
first-index tie breaking, empty clusters repaired by stealing the globally
worst-assigned point.  The result is a canonical exact cover of the fault
list — deterministic per seed, because the batched COP engine is
bit-identical to the scalar reference estimator.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..analysis.compiled import BatchedCopEstimator
from ..analysis.detection import batch_detection_probabilities, cofactor_batch
from ..circuit.netlist import Circuit
from ..faults.model import Fault

__all__ = ["detection_profiles", "cluster_faults"]

#: Floor applied before the log transform; probabilities below this are
#: indistinguishable from redundant for clustering purposes.
_PROFILE_FLOOR = 1e-12

#: Lloyd iteration cap; small profile spaces converge in a handful of steps.
_MAX_ITERATIONS = 50


def detection_profiles(
    circuit: Circuit,
    faults: Sequence[Fault],
    weights: np.ndarray,
    estimator=None,
) -> np.ndarray:
    """Per-fault detection-probability profiles ``(n_faults, 2n + 1)``.

    Row ``f`` holds fault ``f``'s detection probability under the base
    ``weights`` (column 0) and under every input cofactor (columns
    ``2i + 1`` / ``2i + 2``: input ``i`` pinned to 0 / 1), computed as one
    batched analysis.
    """
    if estimator is None:
        estimator = BatchedCopEstimator()
    base = np.asarray(weights, dtype=float)
    if base.ndim != 1 or base.size != circuit.n_inputs:
        raise ValueError(
            f"expected {circuit.n_inputs} base weights, got shape {base.shape}"
        )
    batch, overrides = cofactor_batch(circuit, base)
    batch = np.vstack([base[None, :], batch])
    overrides = [None, *overrides]
    rows = batch_detection_probabilities(
        circuit, faults, batch, estimator, overrides
    )
    return np.ascontiguousarray(rows.T)


def _kmeans_pp_init(
    features: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread the initial centroids over the profile space."""
    n = features.shape[0]
    centroids = np.empty((k, features.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centroids[0] = features[first]
    # Squared distance of every point to its nearest chosen centroid.
    closest = np.square(features - centroids[0]).sum(axis=1)
    for i in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            # All remaining points coincide with a centroid; any choice works.
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=closest / total))
        centroids[i] = features[choice]
        closest = np.minimum(
            closest, np.square(features - centroids[i]).sum(axis=1)
        )
    return centroids


def _assign(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment; ``argmin`` breaks ties by first index."""
    # ||f - c||^2 expanded via the Gram matrix keeps the working set at
    # (n_faults, k) instead of materializing (n_faults, k, dims).
    sq_f = np.square(features).sum(axis=1)[:, None]
    sq_c = np.square(centroids).sum(axis=1)[None, :]
    distances = sq_f + sq_c - 2.0 * (features @ centroids.T)
    return distances.argmin(axis=1)


def cluster_faults(
    circuit: Circuit,
    faults: Sequence[Fault],
    weights: np.ndarray,
    k: int,
    seed: int,
    estimator=None,
    profiles: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Partition ``faults`` into at most ``k`` detection-profile clusters.

    Returns a list of index arrays into ``faults`` — a canonical exact cover:
    every fault index appears in exactly one cluster, members are ascending,
    and clusters are ordered by their smallest member, so the output is
    independent of the (seed-dependent) internal centroid labelling.

    Args:
        circuit: circuit under test.
        faults: fault list to partition (typically the collapsed list with
            redundancies dropped).
        weights: the single-set optimum the profiles are taken around.
        k: requested number of clusters (effectively capped at
            ``len(faults)``).
        seed: seed of the k-means++ initialization; the partition is a pure
            function of ``(faults, weights, k, seed)``.
        estimator: detection-probability estimator (defaults to the batched
            COP engine, bit-identical to the scalar reference, so the
            partition never depends on which of the two computed it).
        profiles: optionally a precomputed :func:`detection_profiles` matrix.
    """
    if k < 1:
        raise ValueError(f"k must be a positive cluster count, got {k!r}")
    n_faults = len(faults)
    if n_faults == 0:
        raise ValueError("cannot cluster an empty fault list")
    k = min(k, n_faults)
    if k == 1:
        return [np.arange(n_faults, dtype=np.int64)]

    if profiles is None:
        profiles = detection_profiles(circuit, faults, weights, estimator)
    features = np.log10(np.maximum(np.asarray(profiles, dtype=float), _PROFILE_FLOOR))

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(features, k, rng)
    labels = _assign(features, centroids)
    for _ in range(_MAX_ITERATIONS):
        for c in range(k):
            members = labels == c
            if members.any():
                centroids[c] = features[members].mean(axis=0)
            else:
                # Empty cluster: steal the point farthest from its centroid.
                distances = np.square(features - centroids[labels]).sum(axis=1)
                worst = int(distances.argmax())
                labels[worst] = c
                centroids[c] = features[worst]
        new_labels = _assign(features, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    clusters = [
        np.flatnonzero(labels == c).astype(np.int64) for c in range(k)
    ]
    clusters = [c for c in clusters if c.size]
    clusters.sort(key=lambda c: int(c[0]))
    return clusters
