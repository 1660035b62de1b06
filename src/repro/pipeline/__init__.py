"""The pipeline's result artifact.

:class:`PipelineReport` is the per-circuit outcome of
:func:`~repro.api.execute_spec`, the only way a
:class:`~repro.api.PipelineSpec` runs.
"""

from .session import PipelineReport

__all__ = ["PipelineReport"]
