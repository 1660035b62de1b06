"""The parallel batch executor: fan a spec batch out over worker processes.

:func:`run_jobs` executes a batch of :class:`~repro.api.spec.PipelineSpec`
jobs on a :class:`concurrent.futures.ProcessPoolExecutor`:

* specs cross the process boundary as their validated ``to_dict`` form and
  results come back as ``PipelineReport`` artifact dicts — nothing but the
  JSON wire format is ever pickled, so the pool exercises exactly the same
  round trip as the CLI artifact files;
* every worker process keeps its own **content-addressed compile cache**
  (:mod:`repro.lowered` is process-global), so a worker that executes
  several jobs over the same circuit structure lowers it **once** — the
  per-worker compile counter is reported back with every result and the
  test suite asserts the at-most-once-per-worker contract;
* an optional **artifact store** (:mod:`repro.store`) is shared by the whole
  batch: the serial path passes the store object straight into
  :func:`~repro.api.executor.execute_spec`; the parallel path ships the
  store's :meth:`~repro.store.ArtifactStore.worker_ref` to each worker,
  which reopens the same on-disk store — so a spec any process has executed
  before is served without running a single stage (``JobResult.store_hit``);
* results are **streamed as they finish** via :func:`iter_jobs`
  (completion order); :func:`run_jobs` collects them back into spec order.

Determinism: :func:`~repro.api.executor.execute_spec` seeds every stage from
the spec alone, so ``run_jobs(specs, parallelism=4)`` is bit-identical
(per :meth:`PipelineReport.canonical_dict`) to the serial
``[execute_spec(s) for s in specs]`` path, whatever the scheduling order.

Interruption: a ``KeyboardInterrupt`` (or any other ``BaseException``)
while the pool is draining cancels every pending future and shuts the pool
down without waiting, then propagates — Ctrl-C stops a batch promptly
instead of silently finishing it.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from .executor import execute_spec, execution_count
from .serialize import SchemaError
from .spec import PipelineSpec

__all__ = ["JobResult", "run_jobs", "iter_jobs"]

#: Compile-counter baseline of the current worker process.  With the
#: ``fork`` start method a worker inherits the parent's process-global
#: counter (and its content-addressed cache); the baseline makes the
#: reported per-worker compile counts start at zero either way.
_WORKER_BASELINE = 0


@dataclass
class JobResult:
    """One finished job, streamed back from the pool.

    Attributes:
        index: position of the job's spec in the submitted batch.
        spec: the executed spec.
        report: the decoded result artifact.
        worker_pid: process id of the worker that ran the job.
        worker_compiles: lowerings performed by that worker so far (since
            its baseline) — the compile-once-per-structure-per-worker
            contract bounds this by the number of distinct structures the
            worker has seen.
        seconds: wall-clock execution time of the job in the worker.
        store_hit: the report was served from the artifact store without
            executing any stage (always ``False`` when no store is
            attached).
    """

    index: int
    spec: PipelineSpec
    report: "object"
    worker_pid: int
    worker_compiles: int
    seconds: float
    store_hit: bool = False


def _worker_init() -> None:
    global _WORKER_BASELINE
    from ..lowered import compile_count

    _WORKER_BASELINE = compile_count()


def _run_job(index: int, spec_dict: Dict, store_ref: Optional[Any] = None) -> Dict:
    """Worker entry point: decode the spec, execute, encode the report.

    ``store_ref`` is a :meth:`~repro.store.ArtifactStore.worker_ref` dict in
    a pool worker, or the parent's live store object on the serial path —
    :func:`repro.store.open_store` resolves either.  The payload lists the
    stage names the executor emitted, in order (empty for a store hit).
    """
    from ..lowered import compile_count
    from ..store import open_store

    spec = PipelineSpec.from_dict(spec_dict)
    store = open_store(store_ref)
    start = time.perf_counter()
    executions = execution_count()
    stages: List[str] = []
    report = execute_spec(spec, store=store, on_stage=stages.append)
    return {
        "index": index,
        "report": report.to_dict(),
        "stages": stages,
        "worker_pid": os.getpid(),
        "worker_compiles": compile_count() - _WORKER_BASELINE,
        "seconds": time.perf_counter() - start,
        "store_hit": store is not None and execution_count() == executions,
    }


def _decode_result(payload: Dict, spec: PipelineSpec) -> JobResult:
    from ..pipeline.session import PipelineReport

    return JobResult(
        index=payload["index"],
        spec=spec,
        report=PipelineReport.from_dict(payload["report"]),
        worker_pid=payload["worker_pid"],
        worker_compiles=payload["worker_compiles"],
        seconds=payload["seconds"],
        store_hit=bool(payload.get("store_hit", False)),
    )


def iter_jobs(
    specs: Sequence[PipelineSpec],
    parallelism: Optional[int] = None,
    store: Optional[Any] = None,
) -> Iterator[JobResult]:
    """Execute a spec batch, yielding :class:`JobResult` as each finishes.

    ``parallelism <= 1`` (or ``None``) runs the batch serially in-process —
    same wire format, same derived seeds, no pool — which is also the
    reference path the parallel results are tested against.

    ``store`` attaches a content-addressed artifact store (anything
    :func:`repro.store.open_store` accepts).  The parallel path needs a
    store that can cross the process boundary (a disk store); an in-memory
    store combined with ``parallelism > 1`` raises instead of silently
    splitting the cache per worker.
    """
    from ..store import StoreError, open_store

    specs = list(specs)
    for spec in specs:
        if not isinstance(spec, PipelineSpec):
            raise TypeError(f"expected PipelineSpec, got {type(spec).__name__}")
    store_obj = open_store(store)
    if parallelism is None or parallelism <= 1:
        from ..lowered import compile_count

        baseline = compile_count()
        for index, spec in enumerate(specs):
            # open_store passes an already-open store object straight
            # through, so the serial path shares the caller's store handle
            # (memory stores included) while exercising the same wire
            # round trip as a pool worker.
            payload = _run_job(index, spec.to_dict(), store_obj)
            payload["worker_compiles"] = compile_count() - baseline
            yield _decode_result(payload, spec)
        return

    store_ref = None
    if store_obj is not None:
        store_ref = store_obj.worker_ref()
        if store_ref is None:
            raise StoreError(
                f"{type(store_obj).__name__} cannot be shared with worker "
                "processes; use a disk store (run --store DIR) or parallelism=1"
            )

    pool = ProcessPoolExecutor(max_workers=parallelism, initializer=_worker_init)
    try:
        pending = {
            pool.submit(_run_job, index, spec.to_dict(), store_ref): index
            for index, spec in enumerate(specs)
        }
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                try:
                    payload = future.result()
                except Exception as exc:
                    # A spec error stays typed, as on the serial path.
                    wrapper = SchemaError if isinstance(exc, SchemaError) else RuntimeError
                    raise wrapper(
                        f"pipeline job {specs[index].label!r} "
                        f"(batch index {index}) failed: {exc}"
                    ) from exc
                yield _decode_result(payload, specs[index])
    except BaseException:
        # KeyboardInterrupt (or a failed job, or a cancelled generator):
        # cancel everything still queued and do NOT wait for the running
        # futures — a Ctrl-C must stop the batch promptly, not silently
        # drain it to completion the way `with ProcessPoolExecutor` would.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    else:
        pool.shutdown()


def run_jobs(
    specs: Sequence[PipelineSpec],
    parallelism: Optional[int] = None,
    store: Optional[Any] = None,
) -> List["object"]:
    """Execute a spec batch and return the reports **in spec order**.

    The parallel path (``parallelism > 1``) fans the batch out over a
    process pool with per-worker compile caches; see the module docstring
    for the determinism, compile-reuse and store-sharing contracts.  Use
    :func:`iter_jobs` to consume results in completion order instead.
    """
    specs = list(specs)
    reports: List[object] = [None] * len(specs)
    for result in iter_jobs(specs, parallelism=parallelism, store=store):
        reports[result.index] = result.report
    return reports
