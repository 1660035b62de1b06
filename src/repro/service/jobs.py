"""The job service core: spec submissions in, deduplicated execution out.

:class:`JobService` is the asyncio heart of ``python -m repro serve``.  It
accepts :class:`~repro.api.spec.PipelineSpec` dicts, keys every submission
by :meth:`~repro.api.spec.PipelineSpec.spec_hash`, and guarantees that at
any moment **at most one execution per spec hash is in flight**:

* a hash whose report already sits in the artifact store is answered
  immediately from the store (a *hit* — zero stages, zero lowerings);
* a hash currently queued or running absorbs the new submission into the
  existing job (*in-flight dedup* — the submission count is tracked, the
  work is not repeated);
* a cold hash becomes a new job executed on the service's worker pool via
  :func:`~repro.api.executor.execute_spec` with the store attached, so the
  finished report (and the expensive stage artifacts) are persisted for
  every later submission, restart, or batch run sharing the store.

Jobs move through ``queued → running → done | failed`` and publish stage
progress; watchers long-poll (:meth:`JobService.wait_for`) or stream change
events (:meth:`Job.wait_change`).  The pool is a thread pool by default
(any store works); ``use_processes=True`` fans out over a process pool
instead, which needs a store that can cross the process boundary (a disk
store); its jobs publish their stages when the worker returns, not live.
:meth:`JobService.shutdown` drains gracefully: no new submissions,
a grace period for running jobs, then cancellation.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from ..api.executor import execute_spec
from ..api.jobs import _run_job, _worker_init
from ..api.plan import report_store_key
from ..api.spec import PipelineSpec
from ..pipeline.session import PipelineReport
from ..store import MemoryStore, StoreError, open_store

__all__ = ["Job", "JobService", "ServiceClosed", "JOB_STATUSES"]

#: Lifecycle states of a service job.
JOB_STATUSES = ("queued", "running", "done", "failed")


class ServiceClosed(RuntimeError):
    """Raised for submissions after shutdown has begun."""


@dataclass
class Job:
    """One deduplicated unit of service work (identity = spec hash).

    Attributes:
        spec_hash: the spec's content hash — the job id and dedup key.
        label: the spec's artifact label (circuit key).
        status: ``queued`` / ``running`` / ``done`` / ``failed``.
        cached: the result was served from the store without executing.
        submissions: how many submissions this job absorbed.
        created / started / finished: UNIX timestamps of the transitions
            (``None`` until they happen).
        stage: the most recently completed pipeline stage.
        stages_run: stages executed so far (0 for a cached job).
        error: failure message when ``status == "failed"``.
        artifact: the finished ``pipeline_report`` dict (terminal jobs).
    """

    spec_hash: str
    label: str
    status: str = "queued"
    cached: bool = False
    submissions: int = 1
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    stage: Optional[str] = None
    stages_run: int = 0
    error: Optional[str] = None
    artifact: Optional[Dict[str, Any]] = None
    version: int = 0
    _done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)
    _changed: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed")

    def to_dict(self, with_artifact: bool = False) -> Dict[str, Any]:
        """JSON-safe job view (the HTTP wire form)."""
        data: Dict[str, Any] = {
            "id": self.spec_hash,
            "label": self.label,
            "status": self.status,
            "cached": self.cached,
            "submissions": self.submissions,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "stage": self.stage,
            "stages_run": self.stages_run,
            "error": self.error,
        }
        if with_artifact:
            data["artifact"] = self.artifact
        return data

    def notify(self) -> None:
        """Publish a state change to every watcher."""
        self.version += 1
        changed, self._changed = self._changed, asyncio.Event()
        changed.set()
        if self.terminal:
            self._done.set()

    async def wait_done(self, timeout: Optional[float] = None) -> bool:
        """Await the terminal transition; ``False`` on timeout."""
        if timeout is None:
            await self._done.wait()
            return True
        try:
            await asyncio.wait_for(asyncio.shield(self._done.wait()), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def wait_change(
        self, seen_version: int, timeout: Optional[float] = None
    ) -> bool:
        """Await any change after ``seen_version``; ``False`` on timeout.

        The event-stream endpoint drives this in a loop: snapshot, send,
        wait for the version to move on.
        """
        if self.version > seen_version or self.terminal:
            return True
        event = self._changed
        if timeout is None:
            await event.wait()
            return True
        try:
            await asyncio.wait_for(asyncio.shield(event.wait()), timeout)
            return True
        except asyncio.TimeoutError:
            return False


class JobService:
    """Deduplicating pipeline-execution service over an artifact store.

    Args:
        store: anything :func:`repro.store.open_store` accepts; ``None``
            uses a fresh in-memory store (results survive for the process
            lifetime only).
        parallelism: concurrent cold executions (worker pool width).
        use_processes: execute in worker *processes* instead of threads.
            ``None`` picks processes automatically when ``parallelism > 1``
            and the store supports cross-process sharing.
        keep_jobs: finished jobs retained for status queries (oldest
            terminal jobs beyond this are forgotten; their artifacts stay
            in the store).
    """

    def __init__(
        self,
        store: Optional[Any] = None,
        parallelism: int = 1,
        use_processes: Optional[bool] = None,
        keep_jobs: int = 256,
    ) -> None:
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        if keep_jobs < 1:
            raise ValueError(f"keep_jobs must be >= 1, got {keep_jobs}")
        self.store = open_store(store) or MemoryStore()
        self.parallelism = parallelism
        self._store_ref = self.store.worker_ref()
        if use_processes is None:
            use_processes = parallelism > 1 and self._store_ref is not None
        if use_processes and self._store_ref is None:
            raise StoreError(
                f"{type(self.store).__name__} cannot be shared with worker "
                "processes; use a disk store or use_processes=False"
            )
        self.use_processes = use_processes
        self.keep_jobs = keep_jobs
        self.started_at = time.time()
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "deduped_inflight": 0,
            "store_hits": 0,
            "executed": 0,
            "failed": 0,
        }
        self._jobs: Dict[str, Job] = {}
        self._tasks: Dict[str, asyncio.Task] = {}
        self._pool: Optional[Any] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, spec_dict: Dict[str, Any]) -> Tuple[Job, str]:
        """Submit one spec dict; returns ``(job, disposition)``.

        Dispositions: ``"hit"`` (served from the store, job already
        terminal), ``"inflight"`` (absorbed into a queued/running job) or
        ``"queued"`` (a new cold job was scheduled).  Raises
        :class:`~repro.api.serialize.SchemaError` for malformed specs and
        :class:`ServiceClosed` after shutdown has begun.
        """
        if self._closed:
            raise ServiceClosed("service is shutting down")
        spec = PipelineSpec.from_dict(spec_dict)
        spec_hash = spec.spec_hash()
        self.counters["submitted"] += 1

        job = self._jobs.get(spec_hash)
        if job is not None and not job.terminal:
            job.submissions += 1
            self.counters["deduped_inflight"] += 1
            job.notify()
            return job, "inflight"

        report = self.store.load(report_store_key(spec_hash))
        if isinstance(report, PipelineReport):
            self.counters["store_hits"] += 1
            now = time.time()
            job = Job(
                spec_hash=spec_hash,
                label=spec.label,
                status="done",
                cached=True,
                created=now,
                started=now,
                finished=now,
                artifact=report.to_dict(),
            )
            self._jobs[spec_hash] = job
            job.notify()
            self._trim_history()
            return job, "hit"

        job = Job(spec_hash=spec_hash, label=spec.label, created=time.time())
        self._jobs[spec_hash] = job
        self._tasks[spec_hash] = asyncio.create_task(self._execute(spec, job))
        self._trim_history()
        return job, "queued"

    def _trim_history(self) -> None:
        terminal = [h for h, job in self._jobs.items() if job.terminal]
        for spec_hash in terminal[: max(0, len(terminal) - self.keep_jobs)]:
            del self._jobs[spec_hash]

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _executor(self) -> Any:
        if self._pool is None:
            if self.use_processes:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.parallelism, initializer=_worker_init
                )
            else:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.parallelism,
                    thread_name_prefix="repro-service",
                )
        return self._pool

    async def _execute(self, spec: PipelineSpec, job: Job) -> None:
        loop = asyncio.get_running_loop()
        job.status = "running"
        job.started = time.time()
        job.notify()

        def on_stage(name: str) -> None:
            loop.call_soon_threadsafe(self._record_stage, job, name)

        try:
            if self.use_processes:
                payload = await loop.run_in_executor(
                    self._executor(),
                    partial(_run_job, 0, spec.to_dict(), self._store_ref),
                )
                # Stages ran in another process: replay their names now.
                for name in payload["stages"]:
                    self._record_stage(job, name)
                job.artifact = payload["report"]
                job.cached = bool(payload["store_hit"])
            else:
                report = await loop.run_in_executor(
                    self._executor(),
                    partial(
                        execute_spec, spec, store=self.store, on_stage=on_stage
                    ),
                )
                job.artifact = report.to_dict()
            job.status = "done"
            self.counters["store_hits" if job.cached else "executed"] += 1
        except asyncio.CancelledError:
            job.status = "failed"
            job.error = "cancelled during shutdown"
            self.counters["failed"] += 1
            raise
        except Exception as exc:
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            self.counters["failed"] += 1
        finally:
            job.finished = time.time()
            self._tasks.pop(job.spec_hash, None)
            job.notify()

    def _record_stage(self, job: Job, name: str) -> None:
        job.stage = name
        job.stages_run += 1
        job.notify()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def job(self, spec_hash: str) -> Optional[Job]:
        return self._jobs.get(spec_hash)

    def jobs(self) -> List[Job]:
        """All tracked jobs, oldest first."""
        return list(self._jobs.values())

    async def wait_for(
        self, spec_hash: str, timeout: Optional[float] = None
    ) -> Optional[Job]:
        """Await a job's terminal state (or timeout); ``None`` if unknown."""
        job = self._jobs.get(spec_hash)
        if job is None:
            return None
        await job.wait_done(timeout)
        return job

    def stats(self) -> Dict[str, Any]:
        """The ``/statsz`` payload: service, job and store counters."""
        by_status = {status: 0 for status in JOB_STATUSES}
        for job in self._jobs.values():
            by_status[job.status] += 1
        return {
            "uptime": time.time() - self.started_at,
            "parallelism": self.parallelism,
            "use_processes": self.use_processes,
            "closed": self._closed,
            "jobs": by_status,
            "counters": dict(self.counters),
            "store": self.store.info(),
        }

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    async def shutdown(self, grace: float = 10.0) -> None:
        """Drain gracefully: refuse new work, wait ``grace``, then cancel."""
        self._closed = True
        tasks = [task for task in self._tasks.values() if not task.done()]
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=grace)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._pool is not None:
            # Never block on stragglers: queued work is cancelled, and a
            # worker (thread or process) past its grace period is abandoned.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
