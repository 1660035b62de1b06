"""Pipeline façade: circuit registration, spec translation and a store.

:class:`Session` registers circuits, translates its kwargs into a
:class:`~repro.api.PipelineSpec` and runs it with
:func:`~repro.api.execute_spec` against its store; :class:`PipelineReport`
is the per-circuit outcome.
"""

from .session import PipelineReport, Session

__all__ = ["Session", "PipelineReport"]
