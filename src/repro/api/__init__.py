"""The job-spec API: declarative specs in, schema'd artifacts out.

The public seam of the reproduction, decoupling *description* from
*execution*:

* :mod:`repro.api.spec` — frozen per-stage configs
  (:class:`AnalysisConfig`, :class:`OptimizeConfig`, :class:`QuantizeConfig`,
  :class:`FaultSimConfig`, :class:`SelfTestConfig`) composed into a
  :class:`PipelineSpec` (circuit reference + root seed with deterministic
  per-stage seed derivation), all with validated JSON round trips;
* :mod:`repro.api.plan` — :func:`build_plan` resolves a spec into a pure
  :class:`ExecutionPlan`: circuit ref, per-stage seeds and the
  content-addressed store keys the execute layer caches by;
* :mod:`repro.api.executor` — :func:`execute_spec` runs one spec (consulting
  an optional :mod:`repro.store` artifact store first) and produces a
  :class:`~repro.pipeline.session.PipelineReport` artifact;
* :mod:`repro.api.jobs` — :func:`run_jobs` / :func:`iter_jobs` fan a spec
  batch out over a process pool (per-worker compile caches, streamed
  results, bit-identical to the serial path);
* :mod:`repro.api.artifacts` — :func:`load_artifact` rebuilds any artifact
  dict written by the executor or the ``python -m repro`` CLI;
* :mod:`repro.api.serialize` — the shared wire format
  (:data:`SCHEMA_VERSION`, :class:`SchemaError`, exact numpy round trips).

The spec is the only input, and ``execute_spec(PipelineSpec(...),
store=...)`` is the only way to run a pipeline in process; a spec takes a
registry key, a source dict or an in-memory
:class:`~repro.circuit.netlist.Circuit`.
"""

from .artifacts import load_artifact, report_batch_dict, row_from_dict, row_to_dict
from .executor import execute_spec, execution_count, executor_stats, resolve_n_patterns
from .jobs import JobResult, iter_jobs, run_jobs
from .plan import ExecutionPlan, StagePlan, build_plan, report_store_key
from .serialize import (
    SCHEMA_VERSION,
    SchemaError,
    canonical_json,
    content_hash,
    scrub_volatile,
)
from .spec import (
    SEED_NAMESPACES,
    STAGE_NAMES,
    AnalysisConfig,
    FaultSimConfig,
    MultiWeightConfig,
    OptimizeConfig,
    PipelineSpec,
    QuantizeConfig,
    SelfTestConfig,
    derive_seed,
)

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "STAGE_NAMES",
    "SEED_NAMESPACES",
    "AnalysisConfig",
    "OptimizeConfig",
    "QuantizeConfig",
    "FaultSimConfig",
    "SelfTestConfig",
    "MultiWeightConfig",
    "PipelineSpec",
    "derive_seed",
    "execute_spec",
    "execution_count",
    "executor_stats",
    "resolve_n_patterns",
    "ExecutionPlan",
    "StagePlan",
    "build_plan",
    "report_store_key",
    "canonical_json",
    "content_hash",
    "scrub_volatile",
    "JobResult",
    "run_jobs",
    "iter_jobs",
    "load_artifact",
    "report_batch_dict",
    "row_to_dict",
    "row_from_dict",
]
