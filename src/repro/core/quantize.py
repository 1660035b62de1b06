"""Weight quantization.

The optimized input probabilities listed in the paper's appendix are all
multiples of 0.05 inside ``[0.05, 0.95]`` — PROTEST reports weights on a coarse
grid because a BIST weighting network can only realise a small set of
probabilities.  This module snaps continuous optimizer output to such grids,
both the paper's decimal 0.05 grid and the power-of-two grids (``k/2**r``)
realised by an LFSR-based weighting network.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["quantize_weights", "quantize_to_lfsr_grid"]


def quantize_weights(
    weights: Sequence[float],
    step: float = 0.05,
    bounds: Tuple[float, float] = (0.05, 0.95),
) -> np.ndarray:
    """Snap weights to the nearest multiple of ``step`` within ``bounds``.

    With the defaults this reproduces the appendix format of the paper: every
    probability is one of 0.05, 0.10, ..., 0.95.

    Weights are snapped through *integer grid indices* and re-rounded to the
    decimal grid, so the result compares exactly equal to the literal
    appendix values: ``7 * 0.05`` alone is ``0.35000000000000003`` in binary
    floating point, while this function returns exactly ``0.35``.
    """
    if step <= 0.0 or step > 1.0:
        raise ValueError("step must lie in (0, 1]")
    low, high = bounds
    if not 0.0 <= low < high <= 1.0:
        raise ValueError("bounds must satisfy 0 <= low < high <= 1")
    array = np.asarray(list(weights), dtype=float)
    indices = np.round(array / step)
    raw = indices * step
    # Snap each grid value to its 12-decimal rendering only when that
    # rendering is within float noise of index * step — this kills the
    # binary representation error of decimal steps (7 * 0.05) without
    # perturbing grids whose points are not short decimals (step = 1/3).
    rounded = np.round(raw, 12)
    decimalish = np.abs(rounded - raw) <= 16.0 * np.spacing(np.abs(raw))
    snapped = np.where(decimalish, rounded, raw)
    return np.clip(snapped, low, high)


def quantize_to_lfsr_grid(
    weights: Sequence[float],
    resolution: int = 5,
    keep_interior: bool = True,
) -> np.ndarray:
    """Snap weights to the grid realised by a ``resolution``-bit weighting network.

    The achievable probabilities are ``k / 2**resolution``; with
    ``keep_interior`` the endpoints 0 and 1 are avoided (a weight of exactly 0
    or 1 would make the corresponding input stuck-at fault untestable,
    Lemma 2 of the paper).
    """
    if not 1 <= resolution <= 16:
        raise ValueError("resolution must be between 1 and 16 bits")
    scale = float(1 << resolution)
    array = np.asarray(list(weights), dtype=float)
    snapped = np.rint(array * scale) / scale
    if keep_interior:
        snapped = np.clip(snapped, 1.0 / scale, 1.0 - 1.0 / scale)
    return snapped
