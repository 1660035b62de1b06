"""Weighted-random-pattern BIST *architecture* subsystem.

The paper optimizes one weight set per circuit; this package layers the
PROTEST lineage's architecture extensions on top of the existing optimizer
and compiled pattern kernels:

* :mod:`~repro.wrp.clustering` — detection-profile fault clustering;
* :mod:`~repro.wrp.multiset` — per-cluster weight-set optimization and the
  JSON-round-trippable :class:`MultiWeightSet` artifact, with per-set
  (polynomial, seed, budget) reseeded multi-polynomial LFSRs;
* :mod:`~repro.wrp.scan` — STUMPS-style scan delivery (the >64-input case);
* :mod:`~repro.wrp.session` — :func:`run_multi_weight_session`, playing the
  sets in sequence on :meth:`repro.patterns.SelfTestSession.from_sources`
  with per-set budgets and streamed early stop on a coverage target.

Wired into the job-spec API as the ``multi_weight`` stage
(:class:`repro.api.spec.MultiWeightConfig`), which the executor runs as
:func:`build_weight_sets` around the optimize-stage artifact followed by
:func:`run_multi_weight_session`, and exposed by the CLI via
``--multi-weight`` / ``--scan-chains``.
"""

from .clustering import cluster_faults, detection_profiles
from .multiset import (
    SET_POLYNOMIAL_WIDTHS,
    MultiWeightSet,
    WeightSetEntry,
    allocate_budget,
    build_weight_sets,
    joint_schedule,
)
from .scan import StumpsPatternGenerator
from .session import (
    MultiSetCoverage,
    MultiSetSelfTestReport,
    MultiWeightReport,
    run_multi_weight_session,
)

__all__ = [
    "cluster_faults",
    "detection_profiles",
    "SET_POLYNOMIAL_WIDTHS",
    "MultiWeightSet",
    "WeightSetEntry",
    "allocate_budget",
    "build_weight_sets",
    "joint_schedule",
    "StumpsPatternGenerator",
    "MultiSetCoverage",
    "MultiSetSelfTestReport",
    "MultiWeightReport",
    "run_multi_weight_session",
]
