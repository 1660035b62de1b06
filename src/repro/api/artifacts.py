"""Artifact loading: one dispatcher over every serializable result type.

Every spec and result artifact in the job-spec API is a tagged dict
(``kind`` + ``schema_version``, see :mod:`repro.api.serialize`).  This
module maps the tags back to their types:

* :func:`load_artifact` rebuilds any artifact dict (a ``PipelineReport``, a
  ``CoverageExperiment``, a ``PipelineSpec``, an experiment table row, a
  ``report_batch`` file written by the CLI, a ``BenchResult`` /
  ``BenchTrajectory`` from the benchmark harness, ...);
* :func:`row_to_dict` / :func:`row_from_dict` serialize the flat experiment
  table-row dataclasses (Tables 1–5, the Figure 2 curves and the appendix
  listings) so ``python -m repro tables --json`` emits loadable rows.

Imports of the heavier subsystems are deferred into the functions so the
dispatcher itself stays cycle-free (the pipeline imports the spec layer).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping

from .serialize import SCHEMA_VERSION, SchemaError, tagged_dict, untag

__all__ = [
    "load_artifact",
    "row_to_dict",
    "row_from_dict",
    "report_batch_dict",
    "experiment_rows_dict",
]


def _row_types() -> Dict[str, type]:
    from ..experiments.appendix import AppendixListing
    from ..experiments.figure2 import Figure2Data
    from ..experiments.table1 import Table1Row
    from ..experiments.table2 import Table2Row
    from ..experiments.table3 import Table3Row
    from ..experiments.table4 import Table4Row
    from ..experiments.table5 import Table5Row, Table5SpeedupRow

    return {
        "table1_row": Table1Row,
        "table2_row": Table2Row,
        "table3_row": Table3Row,
        "table4_row": Table4Row,
        "table5_row": Table5Row,
        "table5_speedup_row": Table5SpeedupRow,
        "figure2_data": Figure2Data,
        "appendix_listing": AppendixListing,
    }


def row_to_dict(row: Any) -> Dict[str, Any]:
    """Serialize one experiment table row (flat dataclass) to a tagged dict."""
    kinds = {cls: kind for kind, cls in _row_types().items()}
    kind = kinds.get(type(row))
    if kind is None:
        raise TypeError(f"{type(row).__name__} is not a serializable experiment row")
    return tagged_dict(kind, dataclasses.asdict(row))


def _has_default(field: dataclasses.Field) -> bool:
    return (
        field.default is not dataclasses.MISSING
        or field.default_factory is not dataclasses.MISSING
    )


def row_from_dict(data: Mapping[str, Any]) -> Any:
    """Rebuild an experiment table row from :func:`row_to_dict` output."""
    kind = data.get("kind") if isinstance(data, Mapping) else None
    row_type = _row_types().get(kind)
    if row_type is None:
        raise SchemaError(f"unknown experiment row kind {kind!r}")
    # A field with a default may be missing from rows written before it was
    # added; the dataclass default then applies.
    row_fields = dataclasses.fields(row_type)
    required = [field.name for field in row_fields if not _has_default(field)]
    optional = [field.name for field in row_fields if _has_default(field)]
    payload = untag(data, kind, required=required, optional=optional)
    kwargs = {name: value for name, value in payload.items() if name in data}
    try:
        return row_type(**kwargs)
    except TypeError as exc:
        raise SchemaError(f"invalid {kind} payload: {exc}") from exc


def report_batch_dict(reports: List[Any]) -> Dict[str, Any]:
    """Wrap several ``PipelineReport`` artifacts in one ``report_batch`` dict
    (the format ``python -m repro run``/``sweep`` write for multi-job runs)."""
    return tagged_dict(
        "report_batch", {"reports": [report.to_dict() for report in reports]}
    )


def experiment_rows_dict(rows: List[Any]) -> Dict[str, Any]:
    """Wrap experiment table rows in one ``experiment_rows`` artifact dict
    (the format ``python -m repro tables --json`` writes)."""
    return tagged_dict("experiment_rows", {"rows": [row_to_dict(row) for row in rows]})


def load_artifact(data: Mapping[str, Any]) -> Any:
    """Rebuild any job-spec artifact dict into its typed object.

    Dispatches on the ``kind`` tag; raises
    :class:`~repro.api.serialize.SchemaError` for unknown kinds, unsupported
    ``schema_version`` values and any payload its decoder cannot read — a
    decoder's ``ValueError``, ``TypeError``, ``KeyError`` or ``IndexError``
    on a wrongly typed field is re-raised as a ``SchemaError``, so a store
    treats the blob as a miss instead of failing every read of it.
    """
    try:
        return _decode(data)
    except SchemaError:
        raise
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        kind = data.get("kind") if isinstance(data, Mapping) else None
        raise SchemaError(f"invalid {kind} payload: {exc}") from exc


def _decode(data: Mapping[str, Any]) -> Any:
    """The :func:`load_artifact` dispatcher, without its error translation."""
    if not isinstance(data, Mapping):
        raise SchemaError(f"artifact dict expected, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "pipeline_report":
        from ..pipeline.session import PipelineReport

        return PipelineReport.from_dict(data)
    if kind == "report_batch":
        from ..pipeline.session import PipelineReport

        payload = untag(data, "report_batch", required=("reports",))
        return [PipelineReport.from_dict(entry) for entry in payload["reports"]]
    if kind == "pipeline_spec":
        from .spec import PipelineSpec

        return PipelineSpec.from_dict(data)
    if kind == "coverage_experiment":
        from ..faultsim.coverage import CoverageExperiment

        return CoverageExperiment.from_dict(data)
    if kind == "fault_sim_result":
        from ..faultsim.parallel import FaultSimResult

        return FaultSimResult.from_dict(data)
    if kind == "optimization_result":
        from ..core.optimizer import OptimizationResult

        return OptimizationResult.from_dict(data)
    if kind == "self_test_report":
        from ..patterns.bilbo import SelfTestReport

        return SelfTestReport.from_dict(data)
    if kind in (
        "weight_set_entry",
        "multi_weight_set",
        "multi_set_self_test_report",
        "multi_set_coverage",
        "multi_weight_report",
    ):
        from .. import wrp

        wrp_types = {
            "weight_set_entry": wrp.WeightSetEntry,
            "multi_weight_set": wrp.MultiWeightSet,
            "multi_set_self_test_report": wrp.MultiSetSelfTestReport,
            "multi_set_coverage": wrp.MultiSetCoverage,
            "multi_weight_report": wrp.MultiWeightReport,
        }
        return wrp_types[kind].from_dict(data)
    if kind in (
        "analysis_config",
        "optimize_config",
        "quantize_config",
        "fault_sim_config",
        "self_test_config",
        "multi_weight_config",
    ):
        from . import spec as spec_module

        config_types = {
            "analysis_config": spec_module.AnalysisConfig,
            "optimize_config": spec_module.OptimizeConfig,
            "quantize_config": spec_module.QuantizeConfig,
            "fault_sim_config": spec_module.FaultSimConfig,
            "self_test_config": spec_module.SelfTestConfig,
            "multi_weight_config": spec_module.MultiWeightConfig,
        }
        return config_types[kind].from_dict(data)
    if kind == "bench_result":
        from ..bench.artifacts import BenchResult

        return BenchResult.from_dict(data)
    if kind == "bench_trajectory":
        from ..bench.artifacts import BenchTrajectory

        return BenchTrajectory.from_dict(data)
    if kind == "experiment_rows":
        payload = untag(data, "experiment_rows", required=("rows",))
        return [row_from_dict(entry) for entry in payload["rows"]]
    if kind in _row_types():
        return row_from_dict(data)
    raise SchemaError(
        f"unknown artifact kind {kind!r} "
        f"(schema_version {data.get('schema_version', SCHEMA_VERSION)!r})"
    )
