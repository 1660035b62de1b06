"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paper_pipeline --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each workload runs in fresh worker
processes (``worker.py``), so ``setup_s`` and ``peak_rss_mib`` belong to
that workload alone; untraced runs set up several times and report the
median set-up.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  ``--tiny`` shrinks every
workload to a few seconds for the smoke test (``smoke.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: Worker processes are killed past this, so a run always ends within 180 s.
DEADLINE_S = 170.0

SETUP_REPEATS = {"paper_pipeline": 5, "service_mix": 2}


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # ended on its own just now


def run_worker(args: argparse.Namespace, setup_only: bool, deadline: float) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Start one worker; return its set-up time and its result (``None`` if set-up only)."""
    command = [
        sys.executable,
        os.path.join(common.HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.tiny:
        command.append("--tiny")
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    # A session of its own, so the watchdog can stop the worker and the job
    # service it may have started together.
    worker = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=common.ROOT, env=common.child_env(),
        start_new_session=True,
    )
    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), _kill_session, (worker.pid,))
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in worker.stdout:
            if line.startswith(common.READY) and setup_s is None:
                setup_s = time.perf_counter() - start
            elif line.startswith(common.RESULT):
                result = json.loads(line[len(common.RESULT):])
        code = worker.wait()
    finally:
        watchdog.cancel()
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise RuntimeError(f"{args.workload} worker failed (exit {code})")
    return setup_s, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()
    if not common.program_present():
        common.log(f"no program to measure: {common.SRC}/repro is missing")
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    repeats = 1 if args.trace or args.tiny else SETUP_REPEATS[args.workload]
    setups: List[float] = []
    try:
        for _ in range(repeats - 1):
            setups.append(run_worker(args, True, deadline)[0])
        setup_s, result = run_worker(args, False, deadline)
    except RuntimeError as exc:
        common.log(str(exc))
        return 1
    setups.append(setup_s)

    attempted, failed = result["attempted"], result["failed"]
    values = dict(result["e2e"], setup_s=common.median(setups))
    if args.trace:
        metrics = result["per_layer"]
    else:
        with open(common.BENCHMARK_JSON) as handle:
            end_to_end = json.load(handle)["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in end_to_end}
    info = dict(result["info"], **values, setups_s=setups, failed_ratio=failed / attempted)
    print("info " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
