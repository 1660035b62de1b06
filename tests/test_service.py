"""Tests for the asyncio job service and its HTTP face.

Covers the dedup contract (store hit / in-flight absorption / cold
execution), job lifecycle and progress events, graceful shutdown, and the
HTTP endpoints end to end over a real socket — all with ``asyncio.run``
inside plain sync tests (no asyncio pytest plugin in the toolchain).
"""

import asyncio
import json
import logging

import pytest

from repro.api import PipelineSpec
from repro.api.serialize import SchemaError
from repro.api.spec import FaultSimConfig, MultiWeightConfig, OptimizeConfig, SelfTestConfig
from repro.pipeline import PipelineReport
import repro.service.http as http_module
from repro.service import JobServer, JobService, ServiceClosed
from repro.store import DiskStore, MemoryStore, StoreError

from .helpers import over_cap_multi_weight_spec


def small_spec(seed: int = 1987) -> PipelineSpec:
    return PipelineSpec(
        circuit="s1",
        seed=seed,
        optimize=OptimizeConfig(max_sweeps=1),
        fault_sim=FaultSimConfig(n_patterns=64),
    )


class TestJobService:
    @pytest.mark.parametrize("use_processes", [False, True])
    def test_cold_then_hit(self, use_processes, tmp_path):
        async def scenario():
            # A MemoryStore cannot cross processes; the pool needs a disk store.
            store = DiskStore(tmp_path / "store") if use_processes else None
            service = JobService(
                store=store,
                parallelism=2 if use_processes else 1,
                use_processes=use_processes,
            )
            spec_dict = small_spec().to_dict()
            job, disposition = service.submit(spec_dict)
            assert disposition == "queued"
            assert job.status in ("queued", "running")
            await job.wait_done()
            assert job.status == "done"
            assert not job.cached
            assert job.stages_run == 5
            assert job.stage == "fault_sim"
            assert job.artifact["kind"] == "pipeline_report"

            # Same hash again: a store hit, zero stages, identical artifact.
            hit_job, disposition = service.submit(spec_dict)
            assert disposition == "hit"
            assert hit_job.cached and hit_job.terminal
            assert hit_job.stages_run == 0
            assert (
                PipelineReport.from_dict(hit_job.artifact).canonical_dict()
                == PipelineReport.from_dict(job.artifact).canonical_dict()
            )
            counters = service.counters
            assert counters["executed"] == 1
            assert counters["store_hits"] == 1
            await service.shutdown(grace=5.0)

        asyncio.run(scenario())

    def test_inflight_dedup(self):
        async def scenario():
            service = JobService()
            spec_dict = small_spec(seed=7).to_dict()
            submissions = [service.submit(spec_dict) for _ in range(4)]
            jobs = {id(job) for job, _ in submissions}
            assert len(jobs) == 1  # one Job object absorbed them all
            dispositions = [d for _, d in submissions]
            assert dispositions == ["queued", "inflight", "inflight", "inflight"]
            job = submissions[0][0]
            assert job.submissions == 4
            await job.wait_done()
            assert service.counters["executed"] == 1
            assert service.counters["deduped_inflight"] == 3
            await service.shutdown(grace=5.0)

        asyncio.run(scenario())

    def test_distinct_specs_execute_separately(self):
        async def scenario():
            service = JobService(parallelism=2)
            job_a, _ = service.submit(small_spec(seed=1).to_dict())
            job_b, _ = service.submit(small_spec(seed=2).to_dict())
            assert job_a.spec_hash != job_b.spec_hash
            await asyncio.gather(job_a.wait_done(), job_b.wait_done())
            assert service.counters["executed"] == 2
            await service.shutdown(grace=5.0)

        asyncio.run(scenario())

    def test_malformed_spec_raises_schema_error(self):
        async def scenario():
            service = JobService()
            with pytest.raises(SchemaError):
                service.submit({"kind": "pipeline_spec", "schema_version": 99})
            await service.shutdown(grace=1.0)

        asyncio.run(scenario())

    def test_non_string_key_raises_schema_error(self):
        async def scenario():
            service = JobService()
            data = small_spec().to_dict()
            data["key"] = 5
            with pytest.raises(SchemaError, match="key must be a str"):
                service.submit(data)
            assert service.counters["submitted"] == 0
            await service.shutdown(grace=1.0)

        asyncio.run(scenario())

    def test_failed_execution_is_reported(self):
        async def scenario():
            service = JobService()
            spec = PipelineSpec(
                circuit={"kind": "file", "path": "/nonexistent/void.bench"}
            )
            job, disposition = service.submit(spec.to_dict())
            assert disposition == "queued"
            await job.wait_done()
            assert job.status == "failed"
            assert job.error and "void.bench" in job.error
            assert job.artifact is None
            assert service.counters["failed"] == 1
            await service.shutdown(grace=1.0)

        asyncio.run(scenario())

    def test_submit_after_shutdown_refused(self):
        async def scenario():
            service = JobService()
            await service.shutdown(grace=1.0)
            with pytest.raises(ServiceClosed):
                service.submit(small_spec().to_dict())

        asyncio.run(scenario())

    def test_memory_store_refuses_process_pool(self):
        async def scenario():
            with pytest.raises(StoreError, match="cannot be shared"):
                JobService(store=MemoryStore(), parallelism=2, use_processes=True)

        asyncio.run(scenario())

    def test_store_survives_service_restart(self, tmp_path):
        """A disk store carries results across service lifetimes."""

        async def first():
            service = JobService(store=tmp_path / "store")
            job, _ = service.submit(small_spec().to_dict())
            await job.wait_done()
            assert job.status == "done"
            await service.shutdown(grace=5.0)
            return job.artifact

        async def second():
            service = JobService(store=tmp_path / "store")
            job, disposition = service.submit(small_spec().to_dict())
            assert disposition == "hit"
            await service.shutdown(grace=1.0)
            return job.artifact

        cold = asyncio.run(first())
        warm = asyncio.run(second())
        assert (
            PipelineReport.from_dict(warm).canonical_dict()
            == PipelineReport.from_dict(cold).canonical_dict()
        )

    def test_resubmission_of_a_done_job_is_answered_from_the_table(self, monkeypatch):
        """A done job answers its hash without a store read; the text is shared."""

        async def scenario():
            service = JobService()
            spec_dict = small_spec().to_dict()
            job, _ = service.submit(spec_dict)
            await job.wait_done()
            assert isinstance(job.artifact_json, str)

            def no_store_read(key):
                raise AssertionError(f"store.load({key!r}) on a table hit")

            monkeypatch.setattr(service.store, "load", no_store_read)
            hits = [service.submit(spec_dict) for _ in range(3)]
            for hit_job, disposition in hits:
                assert disposition == "hit"
                assert hit_job.cached and hit_job.status == "done"
                assert hit_job.stages_run == 0
                assert hit_job.artifact_json is job.artifact_json
            assert hits[-1][0] is not job
            assert hits[-1][0].artifact == job.artifact
            assert service.counters["store_hits"] == 3
            assert service.counters["executed"] == 1
            await service.shutdown(grace=5.0)

        asyncio.run(scenario())

    def test_failed_job_is_not_answered_from_the_table(self):
        async def scenario():
            service = JobService()
            spec_dict = PipelineSpec(
                circuit={"kind": "file", "path": "/nonexistent/void.bench"}
            ).to_dict()
            job, _ = service.submit(spec_dict)
            await job.wait_done()
            assert job.status == "failed" and job.artifact_json is None
            again, disposition = service.submit(spec_dict)
            assert disposition == "queued" and again is not job
            await again.wait_done()
            assert service.counters["failed"] == 2
            await service.shutdown(grace=1.0)

        asyncio.run(scenario())

    def test_stats_shape(self):
        async def scenario():
            service = JobService()
            job, _ = service.submit(small_spec().to_dict())
            await job.wait_done()
            stats = service.stats()
            assert stats["jobs"]["done"] == 1
            assert stats["counters"]["submitted"] == 1
            assert stats["store"]["entries"] > 0
            assert not stats["closed"]
            await service.shutdown(grace=5.0)
            assert service.stats()["closed"]

        asyncio.run(scenario())

    def test_history_trim_keeps_recent_terminal_jobs(self):
        async def scenario():
            service = JobService(keep_jobs=2)
            jobs = []
            for seed in (11, 12, 13):
                job, _ = service.submit(small_spec(seed=seed).to_dict())
                jobs.append(job)
                await job.wait_done()
            # Submitting one more trims the oldest terminal job.
            job, _ = service.submit(small_spec(seed=14).to_dict())
            await job.wait_done()
            assert len(service.jobs()) <= 3  # 2 kept + the newest
            assert service.job(jobs[0].spec_hash) is None
            await service.shutdown(grace=5.0)

        asyncio.run(scenario())


async def _request(port: int, method: str, path: str, body: bytes = b""):
    """One raw HTTP/1.1 exchange; returns (status, parsed-JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split()[1])
    return status, json.loads(payload) if payload.strip() else None


async def _events(port: int, job_id: str, max_lines: int = 50):
    """Drain the ndjson event stream of one job until it ends."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET /jobs/{job_id}/events HTTP/1.1\r\n\r\n".encode())
    await writer.drain()
    # Skip headers.
    while (await reader.readline()).strip():
        pass
    snapshots = []
    for _ in range(max_lines):
        line = await reader.readline()
        if not line:
            break
        snapshots.append(json.loads(line))
        if snapshots[-1]["status"] in ("done", "failed"):
            break
    writer.close()
    await writer.wait_closed()
    return snapshots


class TestHttpServer:
    async def _with_server(self, scenario, **service_kwargs):
        service = JobService(**service_kwargs)
        server = JobServer(service, port=0)
        await server.start()
        try:
            await scenario(server.port, service)
        finally:
            await server.close()
            await service.shutdown(grace=5.0)

    def test_healthz_and_statsz(self):
        async def scenario(port, service):
            status, payload = await _request(port, "GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
            status, payload = await _request(port, "GET", "/statsz")
            assert status == 200
            assert payload["counters"]["submitted"] == 0
            assert payload["store"]["backend"] == "memory"

        asyncio.run(self._with_server(scenario))

    def test_over_cap_schedule_fails_the_job_not_the_service(self):
        async def scenario(port, service):
            body = json.dumps(over_cap_multi_weight_spec().to_dict()).encode()
            status, payload = await _request(port, "POST", "/jobs?wait=60", body)
            assert status == 200
            assert payload["job"]["status"] == "failed"
            assert "MAX_SCHEDULE_PATTERNS" in payload["job"]["error"]
            status, stats = await _request(port, "GET", "/statsz")
            assert status == 200 and stats["counters"]["failed"] == 1

            # Over-cap configs never become jobs.
            over_cap = (1 << 20) + 1
            for stage, config in (
                ("self_test", {**SelfTestConfig().to_dict(), "n_patterns": over_cap}),
                ("multi_weight", {**MultiWeightConfig().to_dict(), "budget": over_cap}),
            ):
                data = {**small_spec().to_dict(), stage: config}
                status, payload = await _request(
                    port, "POST", "/jobs", json.dumps(data).encode()
                )
                assert status == 400, stage
                assert "MAX_SCHEDULE_PATTERNS" in payload["error"], stage
            assert service.counters["submitted"] == 1
            # The service keeps answering.
            body = json.dumps(small_spec(seed=5).to_dict()).encode()
            status, payload = await _request(port, "POST", "/jobs?wait=60", body)
            assert status == 200 and payload["job"]["status"] == "done"

        asyncio.run(self._with_server(scenario))

    def test_submit_twice_second_is_bit_identical_hit(self):
        """The acceptance-criterion flow, over a real socket."""

        async def scenario(port, service):
            body = json.dumps(small_spec().to_dict()).encode()
            status, first = await _request(port, "POST", "/jobs?wait=60", body)
            assert status == 200
            assert first["disposition"] == "queued"
            assert first["job"]["status"] == "done"
            assert not first["job"]["cached"]

            status, second = await _request(port, "POST", "/jobs?wait=60", body)
            assert status == 200
            assert second["disposition"] == "hit"
            assert second["job"]["cached"]
            assert second["job"]["stages_run"] == 0
            assert (
                PipelineReport.from_dict(second["job"]["artifact"]).canonical_dict()
                == PipelineReport.from_dict(first["job"]["artifact"]).canonical_dict()
            )
            assert service.counters["executed"] == 1

        asyncio.run(self._with_server(scenario))

    def test_artifact_text_is_spliced_into_replies(self):
        """POST /jobs and GET .../artifact send the job's JSON text as is."""

        async def scenario(port, service):
            body = json.dumps(small_spec(seed=9).to_dict()).encode()
            await _request(port, "POST", "/jobs?wait=60", body)
            _, hit = await _request(port, "POST", "/jobs?wait=60", body)
            job = service.job(hit["job"]["id"])
            assert hit["disposition"] == "hit"
            assert hit["job"]["artifact"] == json.loads(job.artifact_json)
            assert {k: v for k, v in hit["job"].items() if k != "artifact"} == job.to_dict()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(f"GET /jobs/{job.spec_hash}/artifact HTTP/1.1\r\n\r\n".encode())
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            assert raw.partition(b"\r\n\r\n")[2] == (job.artifact_json + "\n").encode()

        asyncio.run(self._with_server(scenario))

    def test_submit_without_wait_returns_202(self):
        async def scenario(port, service):
            body = json.dumps(small_spec(seed=3).to_dict()).encode()
            status, payload = await _request(port, "POST", "/jobs", body)
            assert status == 202
            assert payload["disposition"] == "queued"
            job_id = payload["job"]["id"]

            # Artifact before terminal: 409.
            job = service.job(job_id)
            if not job.terminal:
                status, _ = await _request(port, "GET", f"/jobs/{job_id}/artifact")
                assert status == 409

            status, payload = await _request(port, "GET", f"/jobs/{job_id}?wait=60")
            assert status == 200 and payload["job"]["status"] == "done"

            status, artifact = await _request(port, "GET", f"/jobs/{job_id}/artifact")
            assert status == 200
            assert artifact["kind"] == "pipeline_report"

            status, listing = await _request(port, "GET", "/jobs")
            assert status == 200
            assert [j["id"] for j in listing["jobs"]] == [job_id]

        asyncio.run(self._with_server(scenario))

    def test_event_stream_reaches_terminal_state(self):
        async def scenario(port, service):
            body = json.dumps(small_spec(seed=4).to_dict()).encode()
            _, payload = await _request(port, "POST", "/jobs", body)
            snapshots = await _events(port, payload["job"]["id"])
            assert snapshots[-1]["status"] == "done"
            assert snapshots[-1]["stages_run"] > 0

        asyncio.run(self._with_server(scenario))

    def test_error_paths(self):
        async def scenario(port, service):
            status, payload = await _request(port, "GET", "/nowhere")
            assert status == 404
            status, _ = await _request(port, "POST", "/healthz")
            assert status == 405
            status, payload = await _request(port, "POST", "/jobs", b"{not json")
            assert status == 400 and "not JSON" in payload["error"]
            bad_spec = json.dumps({"kind": "pipeline_spec", "schema_version": 99})
            status, payload = await _request(port, "POST", "/jobs", bad_spec.encode())
            assert status == 400 and "invalid pipeline spec" in payload["error"]
            status, _ = await _request(port, "GET", "/jobs/deadbeef")
            assert status == 404
            status, _ = await _request(port, "GET", "/jobs/deadbeef?wait=oops")
            assert status == 404  # unknown job wins over the bad wait value
            body = json.dumps(small_spec(seed=5).to_dict()).encode()
            _, payload = await _request(port, "POST", "/jobs?wait=60", body)
            job_id = payload["job"]["id"]
            status, _ = await _request(port, "GET", f"/jobs/{job_id}?wait=oops")
            assert status == 400

        asyncio.run(self._with_server(scenario))

    @pytest.mark.parametrize("config", ["analysis", "fault_sim"])
    def test_spec_naming_numba_is_400(self, config):
        async def scenario(port, service):
            data = small_spec().to_dict()
            data[config] = {**data[config], "backend": "numba"}
            body = json.dumps(data).encode()
            status, payload = await _request(port, "POST", "/jobs?wait=60", body)
            assert status == 400
            assert "backend 'numba' was removed" in payload["error"]
            assert service.counters["submitted"] == 0

        asyncio.run(self._with_server(scenario))

    def test_unknown_registry_key_is_400(self):
        async def scenario(port, service):
            data = small_spec().to_dict()
            data["circuit"] = "c17"
            body = json.dumps(data).encode()
            status, payload = await _request(port, "POST", "/jobs?wait=60", body)
            assert status == 400
            assert "unknown benchmark circuit 'c17'" in payload["error"]
            assert "available: s1, s2" in payload["error"]
            assert service.counters["submitted"] == 0

        asyncio.run(self._with_server(scenario))

    def test_spec_naming_scalar_estimator_is_400(self):
        async def scenario(port, service):
            data = small_spec().to_dict()
            data["analysis"] = {**data["analysis"], "estimator": "scalar"}
            body = json.dumps(data).encode()
            status, payload = await _request(port, "POST", "/jobs?wait=60", body)
            assert status == 400
            assert "estimator 'scalar' was removed" in payload["error"]
            assert service.counters["submitted"] == 0

        asyncio.run(self._with_server(scenario))

    def test_spec_naming_a_partition_size_is_400(self):
        async def scenario(port, service):
            data = small_spec().to_dict()
            data["fault_sim"] = {**data["fault_sim"], "partition_size": 7}
            body = json.dumps(data).encode()
            status, payload = await _request(port, "POST", "/jobs?wait=60", body)
            assert status == 400
            assert "partition_size 7 was removed" in payload["error"]
            assert service.counters["submitted"] == 0

        asyncio.run(self._with_server(scenario))

    def test_shutdown_endpoint_triggers_callback(self):
        async def scenario(port, service):
            stopped = asyncio.Event()
            # Rebind the running server's shutdown hook.
            status, payload = await _request(port, "POST", "/shutdown")
            assert status == 200 and payload["status"] == "shutting down"
            assert not stopped.is_set()  # no hook registered on this server

        asyncio.run(self._with_server(scenario))

    def test_serve_coroutine_graceful_shutdown(self, tmp_path):
        """End to end through repro.service.serve: submit, resubmit (hit),
        POST /shutdown, and the coroutine returns cleanly."""
        from repro.service import serve

        async def scenario():
            bound = {}

            async def drive():
                while "server" not in bound:
                    await asyncio.sleep(0.01)
                port = bound["server"].port
                body = json.dumps(small_spec(seed=6).to_dict()).encode()
                status, first = await _request(port, "POST", "/jobs?wait=60", body)
                assert status == 200 and first["job"]["status"] == "done"
                status, second = await _request(port, "POST", "/jobs?wait=60", body)
                assert second["disposition"] == "hit"
                status, health = await _request(port, "GET", "/healthz")
                assert status == 200 and health["status"] == "ok"
                status, _ = await _request(port, "POST", "/shutdown")
                assert status == 200

            await asyncio.wait_for(
                asyncio.gather(
                    serve(
                        port=0,
                        store=tmp_path / "store",
                        ready=lambda server: bound.setdefault("server", server),
                    ),
                    drive(),
                ),
                timeout=120,
            )

        asyncio.run(scenario())


async def _raw_exchange(port: int, head: bytes):
    """Send raw request bytes and keep the connection open until the server
    answers and closes it.  Returns (status, parsed-JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(head)
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), 10.0)
    writer.close()
    await writer.wait_closed()
    header_blob, _, payload = raw.partition(b"\r\n\r\n")
    return int(header_blob.split()[1]), json.loads(payload)


class TestHttpRequestHardening:
    """Malformed or stalled requests get a JSON error, never a traceback."""

    def _run(self, scenario, caplog):
        async def main():
            service = JobService()
            server = JobServer(service, port=0)
            await server.start()
            try:
                await scenario(server.port)
            finally:
                await server.close()
                await service.shutdown(grace=5.0)

        with caplog.at_level(logging.DEBUG):
            asyncio.run(main())
        assert not [r for r in caplog.records if r.exc_info or r.levelno >= logging.ERROR]

    @pytest.mark.parametrize(
        "length", ["-5", "abc", "", "+5", "1_0", "0x10", "٥"]
    )
    def test_bad_content_length_is_400(self, length, caplog):
        async def scenario(port):
            head = (
                f"POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}"
            ).encode("utf-8")
            status, payload = await _raw_exchange(port, head)
            assert status == 400
            assert payload["error"] == "bad Content-Length"

        self._run(scenario, caplog)

    def test_client_stalling_mid_headers_times_out(self, monkeypatch, caplog):
        monkeypatch.setattr(http_module, "REQUEST_TIMEOUT_SECONDS", 0.2)

        async def scenario(port):
            head = b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
            status, payload = await _raw_exchange(port, head)
            assert status == 400
            assert payload["error"] == "request timeout"

        self._run(scenario, caplog)

    def test_client_stalling_mid_body_times_out(self, monkeypatch, caplog):
        monkeypatch.setattr(http_module, "REQUEST_TIMEOUT_SECONDS", 0.2)

        async def scenario(port):
            head = b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"kind\""
            status, payload = await _raw_exchange(port, head)
            assert status == 400
            assert payload["error"] == "request timeout"

        self._run(scenario, caplog)

    def test_overlong_header_line_is_400(self, caplog):
        async def scenario(port):
            head = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 200_000 + b"\r\n\r\n"
            status, payload = await _raw_exchange(port, head)
            assert status == 400
            assert "too long" in payload["error"]

        self._run(scenario, caplog)
