"""Workload ``service_mix``: the job service under a closed loop of two clients.

Set-up starts ``python -m repro serve --port 0 --store DIR`` (traced runs
use ``launch_server.py``, which wraps the layers and then calls
``repro.service.serve``) and warms the store with the default spec of every
registry circuit except s2.  Then two clients each send ``POST /jobs?wait=``
and wait for the reply before sending the next: nine resubmissions of warm
specs (store hits) to one cold job, the cold job's slot in each block of ten
drawn from the seed.  A cold job runs a fresh root seed on a small registry
circuit with self test and multi-weight k=2, reading its optimize stage from
the store.  Hits are served on the event loop while a cold job holds the GIL
in the worker thread, so store, serialization and service dominate here.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Tuple

import common

#: Every registry circuit except s2 (which alone takes most of a pass).
WARM = ("s1", "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552")
#: The small circuit of the cold jobs.  One circuit keeps the cold latencies
#: in one cluster (a mix puts the median between clusters), and s1 keeps the
#: worker busy, so nearly every hit meets a running cold job.
COLD = ("s1",)
TINY_WARM = ("c432", "c1908")
TINY_COLD = ("c1908",)

CLIENTS = 2
BLOCK = 10
#: Blocks of ten requests each client sends at least (at least 108 hits per run).
MIN_BLOCKS = 6
#: Cold specs prepared per client (more than a run can use).
MAX_COLD = 64
#: Cold jobs re-executed in-process to check the service's results.
RECHECKS = 2
WAIT_S = 120

#: The client only times requests; the layers are traced in the server.
TRACE_IN_PROCESS = False

_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


def _post(port: int, body: bytes, timeout: float = WAIT_S + 30) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", f"/jobs?wait={WAIT_S}", body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _get_json(port: int, path: str) -> Dict[str, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _spec(key: str, seed: int, cold: bool) -> Any:
    from repro.api import MultiWeightConfig, PipelineSpec, SelfTestConfig

    if not cold:
        return PipelineSpec(circuit=key, seed=seed)
    return PipelineSpec(
        circuit=key, seed=seed, self_test=SelfTestConfig(), multi_weight=MultiWeightConfig(k=2)
    )


def setup(args: Any, tracer: Any) -> Dict[str, Any]:
    warm_keys = TINY_WARM if args.tiny else WARM
    cold_keys = TINY_COLD if args.tiny else COLD
    os.makedirs(common.TMP_DIR, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=common.TMP_DIR)
    trace_path = os.path.join(store_dir, "server-spans.json")
    if args.trace:
        command = [sys.executable, os.path.join(common.HERE, "launch_server.py"), "--store", store_dir,
                   "--trace-out", trace_path]
    else:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", store_dir]
    server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=common.ROOT, env=common.child_env())
    state = {"server": server, "store_dir": store_dir, "trace_path": trace_path}
    line = server.stdout.readline()
    match = _LISTENING.search(line)
    if match is None:
        close(state)
        raise RuntimeError(f"job service did not start: {line!r}")
    state["port"] = port = int(match.group(2))
    # Drain anything else the server prints so its pipe never fills.
    threading.Thread(target=server.stdout.read, daemon=True).start()

    root = common.derive_seed("service_mix", args.seed)
    warm = []
    for key in warm_keys:
        body = json.dumps(_spec(key, root, cold=False).to_dict()).encode()
        status, reply = _post(port, body)
        data = json.loads(reply)
        if status != 200 or data["job"]["status"] != "done":
            close(state)
            raise RuntimeError(f"warm-up of {key} failed: {status} {data}")
        warm.append({"key": key, "body": body, "artifact": data["job"]["artifact"]})
    cold = [
        [
            (cold_keys[(CLIENTS * k + c) % len(cold_keys)], common.derive_seed("service_mix", args.seed, "cold", c, k))
            for k in range(MAX_COLD)
        ]
        for c in range(CLIENTS)
    ]
    state.update(warm=warm, cold=cold, cold_bodies=[
        [json.dumps(_spec(key, seed, cold=True).to_dict()).encode() for key, seed in client] for client in cold
    ])
    return state


def close(state: Dict[str, Any]) -> None:
    """Shut the server down, wait for it, and remove its store."""
    server: subprocess.Popen = state["server"]
    if server.poll() is None and "port" in state:
        with contextlib.suppress(OSError, http.client.HTTPException):
            conn = http.client.HTTPConnection("127.0.0.1", state["port"], timeout=10)
            conn.request("POST", "/shutdown")
            conn.getresponse().read()
            conn.close()
    try:
        server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
    state["server_spans"] = []
    if os.path.exists(state["trace_path"]):
        with open(state["trace_path"]) as handle:
            state["server_spans"] = json.load(handle)["spans"]
    shutil.rmtree(state["store_dir"], ignore_errors=True)


def _client(state: Dict[str, Any], index: int, seed: int, deadline: float, ops: List[Dict[str, Any]],
            tracer: Any) -> None:
    import random

    rng = random.Random(common.derive_seed("service_mix", seed, "client", index))
    warm, cold_bodies = state["warm"], state["cold_bodies"][index]
    n = n_cold = 0
    cold_at = 0
    # Whole blocks only, and at least MIN_BLOCKS of them, so every run has
    # the same mix and enough hits that the tail percentile never changes.
    while n % BLOCK or (n_cold < MAX_COLD and (n < MIN_BLOCKS * BLOCK or time.perf_counter() < deadline)):
        if n % BLOCK == 0:
            cold_at = rng.randrange(BLOCK)
        if n % BLOCK == cold_at:
            record = {"kind": "cold", "client": index, "cold": n_cold}
            body = cold_bodies[n_cold]
            n_cold += 1
        else:
            record = {"kind": "hit", "warm": rng.randrange(len(warm))}
            body = warm[record["warm"]]["body"]
        start = time.perf_counter()
        try:
            with tracer.span("bench.op", "bench") if tracer else contextlib.nullcontext():
                record["status"], record["reply"] = _post(state["port"], body)
        except (OSError, http.client.HTTPException) as exc:
            record["status"], record["reply"] = 0, str(exc).encode()
        record["latency"] = time.perf_counter() - start
        ops.append(record)
        n += 1


def _check(state: Dict[str, Any], ops: List[Dict[str, Any]], seed: int) -> Tuple[int, Dict[str, Any]]:
    """Failed-op count; and the cold jobs' service timestamps."""
    import random

    from repro.api import execute_spec
    from repro.pipeline.session import PipelineReport

    reference = common.load_reference()["circuits"]
    failed = 0
    cold_jobs = []
    for record in ops:
        problem = None
        if record["status"] != 200:
            problem = f"HTTP {record['status']}"
        else:
            data = json.loads(record["reply"])
            job = data["job"]
            if record["kind"] == "hit":
                if data["disposition"] != "hit" or job["artifact"] != state["warm"][record["warm"]]["artifact"]:
                    problem = "store hit differs from the first computed artifact"
            elif data["disposition"] != "queued" or job["status"] != "done":
                problem = f"cold job {data['disposition']} / {job['status']}"
            else:
                report = PipelineReport.from_dict(job["artifact"])
                record["report"] = report
                key = state["cold"][record["client"]][record["cold"]][0]
                if common.science_digests(report)["design"] != reference[key]["design"]:
                    problem = f"cold job on {key}: test lengths / weights differ from the reference"
                cold_jobs.append(job)
        if problem:
            common.log(f"check failed: {record['kind']}: {problem}")
            failed += 1
    colds = [record for record in ops if "report" in record]
    for record in random.Random(common.derive_seed("service_mix", seed, "recheck")).sample(
        colds, min(RECHECKS, len(colds))
    ):
        key, root = state["cold"][record["client"]][record["cold"]]
        again = execute_spec(_spec(key, root, cold=True))
        if common.science_digests(again) != common.science_digests(record["report"]):
            common.log(f"check failed: in-process re-execution of {key} differs from the service")
            failed += 1
    return failed, {
        "queue_wait": [job["started"] - job["created"] for job in cold_jobs],
        "run": [job["finished"] - job["started"] for job in cold_jobs],
    }


def run(state: Dict[str, Any], args: Any, tracer: Any) -> Dict[str, Any]:
    before = _get_json(state["port"], "/statsz") if tracer is not None else None
    ops: List[Dict[str, Any]] = []
    per_client: List[List[Dict[str, Any]]] = [[] for _ in range(CLIENTS)]
    window_start = time.monotonic_ns()
    start = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client, args=(state, i, args.seed, start + args.seconds, per_client[i], tracer)
        )
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    window = (window_start, time.monotonic_ns())
    for client_ops in per_client:
        ops.extend(client_ops)
    after = _get_json(state["port"], "/statsz") if tracer is not None else None
    close(state)
    rss = common.peak_rss_mib(resource.RUSAGE_CHILDREN)

    failed, job_times = _check(state, ops, args.seed)
    hits = [record["latency"] for record in ops if record["kind"] == "hit"]
    colds = [record["latency"] for record in ops if record["kind"] == "cold"]
    hit = common.latency_summary(hits)
    result = {
        "attempted": len(ops),
        "failed": failed,
        "e2e": {
            "ops_per_s": len(ops) / elapsed,
            "op_iqm_s": hit["iqm"],
            "op_tail_s": hit["tail"],
            "cold_iqm_s": common.iqm(colds),
            "peak_rss_mib": rss,
        },
        "info": {"hit_tail_pct": hit["tail_pct"], "hits": hit["n"], "colds": len(colds)},
    }
    if tracer is not None:
        import layers

        spans = state["server_spans"] + tracer.spans
        n_ops = len(ops)
        delta = {
            name: after["store"][name] - before["store"][name] for name in ("hits", "misses")
        }
        looked_up = delta["hits"] + delta["misses"]
        extra = {
            "store.hits": delta["hits"] / n_ops,
            "store.misses": delta["misses"] / n_ops,
            "store.hit_ratio": delta["hits"] / looked_up if looked_up else 0.0,
            "service.queue_wait_s": common.median(job_times["queue_wait"]),
            "service.run_s": common.median(job_times["run"]),
            "service.deduped_inflight": (
                after["counters"]["deduped_inflight"] - before["counters"]["deduped_inflight"]
            ) / n_ops,
        }
        result["per_layer"] = layers.per_layer_metrics(
            spans, window, n_ops, sum(record["latency"] for record in ops), extra
        )
        result["spans"] = spans
    return result
