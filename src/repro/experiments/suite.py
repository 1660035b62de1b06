"""Shared experiment configuration of the paper reproduction.

Every table, figure and listing is computed from one declarative sweep
(:func:`repro.experiments.batch.suite_specs`) with these settings, so the
same confidence target, sweep budget and root seed feed all of them.
"""

from __future__ import annotations

__all__ = ["CONFIDENCE", "OPTIMIZER_SWEEPS", "EXPERIMENT_SEED"]

#: Confidence target used for every test-length computation (probability that
#: every modelled fault is detected).
CONFIDENCE = 0.999

#: Coordinate-descent sweeps used by the experiment optimizations.
OPTIMIZER_SWEEPS = 8

#: Root seed of the experiment specs (kept fixed so the tables are
#: reproducible; stage seeds derive from it).
EXPERIMENT_SEED = 1987
