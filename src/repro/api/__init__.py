"""The job-spec API: declarative specs in, schema'd artifacts out.

The public seam of the reproduction, decoupling *description* from
*execution*:

* :mod:`repro.api.spec` — frozen per-stage configs
  (:class:`AnalysisConfig`, :class:`OptimizeConfig`, :class:`QuantizeConfig`,
  :class:`FaultSimConfig`, :class:`SelfTestConfig`) composed into a
  :class:`PipelineSpec` (circuit reference + root seed with deterministic
  per-stage seed derivation), all with validated JSON round trips;
* :mod:`repro.api.plan` — the pipeline's dependency graph, written once:
  :func:`~repro.api.plan.pipeline_rows` turns a spec into rows (circuit,
  faults, lowering, then one per stage artifact, each with its seed, store
  key and compute call), and :func:`build_plan` projects them into a pure
  :class:`ExecutionPlan` of per-stage seeds and store keys;
* :mod:`repro.api.executor` — :func:`execute_spec` resolves those rows
  (consulting an optional :mod:`repro.store` artifact store first) and
  produces a :class:`~repro.pipeline.session.PipelineReport` artifact;
* :mod:`repro.api.jobs` — :func:`run_jobs` / :func:`iter_jobs` fan a spec
  batch out over a process pool (per-worker compile caches, streamed
  results, bit-identical to the serial path);
* :mod:`repro.api.artifacts` — :func:`load_artifact` rebuilds any artifact
  dict written by the executor or the ``python -m repro`` CLI;
* :mod:`repro.api.serialize` — the shared wire format and the one artifact
  codec (:data:`SCHEMA_VERSION`, :class:`SchemaError`, ``@artifact``, exact
  numpy round trips).

The names below load their module at first use, so the result dataclasses
across the package can import :mod:`repro.api.serialize` (a leaf) while
this package is still being imported.

The spec is the only input, and ``execute_spec(PipelineSpec(...),
store=...)`` is the only way to run a pipeline in process; a spec takes a
registry key, a source dict or an in-memory
:class:`~repro.circuit.netlist.Circuit`.
"""

import importlib

_EXPORTS = {
    "artifacts": ("load_artifact", "report_batch_dict"),
    "executor": ("execute_spec", "execution_count", "executor_stats", "resolve_n_patterns"),
    "jobs": ("JobResult", "iter_jobs", "run_jobs"),
    "plan": ("ExecutionPlan", "StagePlan", "build_plan", "report_store_key"),
    "serialize": (
        "SCHEMA_VERSION",
        "SchemaError",
        "canonical_json",
        "content_hash",
        "scrub_volatile",
    ),
    "spec": (
        "SEED_NAMESPACES",
        "STAGE_NAMES",
        "AnalysisConfig",
        "FaultSimConfig",
        "MultiWeightConfig",
        "OptimizeConfig",
        "PipelineSpec",
        "QuantizeConfig",
        "SelfTestConfig",
        "derive_seed",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
