"""Artifact loading: one registry lookup over every serializable type.

Every spec and result artifact in the job-spec API is a tagged dict
(``kind`` + ``schema_version``) written and read by the one codec of
:mod:`repro.api.serialize`: a class declares itself with
``@artifact("<kind>")`` and lands in
:data:`~repro.api.serialize.ARTIFACT_TYPES`.

* :func:`load_artifact` rebuilds any artifact dict — a ``PipelineReport``,
  a ``FaultSimResult``, a ``PipelineSpec``, a table row, a
  ``BenchResult``/``BenchTrajectory``, ... — as
  ``ARTIFACT_TYPES[kind].from_dict(data)``;
* :func:`report_batch_dict` and :func:`experiment_rows_dict` write the two
  multi-artifact files of the CLI: a
  :class:`~repro.pipeline.ReportBatch` of several reports (``python -m
  repro run``/``sweep`` with more than one job) and an
  :class:`~repro.experiments.ExperimentRows` of table rows (``python -m
  repro tables --json``), which load back as those types.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Mapping

from ..pipeline.session import PipelineReport, ReportBatch
from .serialize import ARTIFACT_TYPES, SCHEMA_VERSION, SchemaError

__all__ = ["load_artifact", "report_batch_dict", "experiment_rows_dict"]

#: The modules that declare the artifact kinds (imported by the first load,
#: so that ``import repro`` stays free of the bench and table modules).
_DECLARING_MODULES = (
    "repro.api.spec",
    "repro.pipeline.session",
    "repro.experiments.batch",
    "repro.bench.artifacts",
)


def report_batch_dict(reports: List[PipelineReport]) -> Dict[str, Any]:
    """The ``report_batch`` artifact dict of several reports."""
    return ReportBatch(list(reports)).to_dict()


def experiment_rows_dict(rows: List[Any]) -> Dict[str, Any]:
    """The ``experiment_rows`` artifact dict of table rows."""
    from ..experiments.batch import ExperimentRows

    return ExperimentRows(list(rows)).to_dict()


def load_artifact(data: Mapping[str, Any]) -> Any:
    """Rebuild any job-spec artifact dict into its typed object.

    Looks the ``kind`` tag up in
    :data:`~repro.api.serialize.ARTIFACT_TYPES`; raises
    :class:`~repro.api.serialize.SchemaError` for unknown kinds, unsupported
    ``schema_version`` values and any payload its decoder cannot read — a
    decoder's ``ValueError``, ``TypeError``, ``KeyError`` or ``IndexError``
    on a wrongly typed field is re-raised as a ``SchemaError``, so a store
    treats the blob as a miss instead of failing every read of it.
    """
    if not isinstance(data, Mapping):
        raise SchemaError(f"artifact dict expected, got {type(data).__name__}")
    for module in _DECLARING_MODULES:
        importlib.import_module(module)
    kind = data.get("kind")
    artifact_type = ARTIFACT_TYPES.get(kind) if isinstance(kind, str) else None
    if artifact_type is None:
        raise SchemaError(
            f"unknown artifact kind {kind!r} "
            f"(schema_version {data.get('schema_version', SCHEMA_VERSION)!r})"
        )
    try:
        return artifact_type.from_dict(data)
    except SchemaError:
        raise
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise SchemaError(f"invalid {kind} payload: {exc}") from exc
