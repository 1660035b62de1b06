"""The pipeline's result artifact.

:class:`PipelineReport` is the per-circuit outcome of
:func:`~repro.api.execute_spec`, the only way a
:class:`~repro.api.PipelineSpec` runs; a :class:`ReportBatch` holds several.
"""

from .session import PipelineReport, ReportBatch

__all__ = ["PipelineReport", "ReportBatch"]
