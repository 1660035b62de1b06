"""Smoke test: every workload at tiny size, untraced and traced, checked against BENCHMARK.json.

    python3 perfbench/smoke.py

Fails (exit 1) unless each run ends with a correct result line whose
metrics are exactly the ``end_to_end`` (untraced) or ``per_layer`` (traced)
metrics of ``BENCHMARK.json``, each a finite number with its declared unit,
and each traced run leaves a Chrome trace behind.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def check_run(workload: str, trace: int, declared: list) -> list:
    command = [sys.executable, os.path.join(common.HERE, "run.py"), "--workload", workload,
               "--seed", str(common.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=common.ROOT, timeout=180)
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"not correct: {result.get('attempted')} attempted, {result.get('failed')} failed")
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        metric = metrics.get(name, {})
        value = metric.get("value")
        if metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')!r}, declared {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    if trace and not os.path.exists(os.path.join(common.OUT_DIR, f"{workload}-seed{common.DEFAULT_SEED}.trace.json")):
        problems.append("no Chrome trace written")
    return problems


def main() -> int:
    with open(common.BENCHMARK_JSON) as handle:
        benchmark = json.load(handle)
    failures = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace, declared in ((0, benchmark["end_to_end"]), (1, benchmark["per_layer"])):
            problems = check_run(workload, trace, declared)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAILED'}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
