"""Print every metric of every workload, and the tracing overhead.

    python3 perfbench/report.py [--seed 1] [--seconds 15] [--workload NAME ...]

Runs each workload twice with the same seed: untraced (the end-to-end
metrics) and traced (the per-layer metrics).  Tracing overhead is the
traced run's throughput loss against the untraced run.  On ``service_mix``
``op_iqm_s``/``op_tail_s`` are the store-hit latencies and ``cold_iqm_s``
the cold-job latency.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    command = [sys.executable, os.path.join(common.HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        command.append("--tiny")
    done = subprocess.run(command, capture_output=True, text=True, cwd=common.ROOT, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2][len("info "):]), json.loads(lines[-1])


def main() -> int:
    with open(common.BENCHMARK_JSON) as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    for workload in args.workload:
        info, plain = run(workload, args.seed, args.seconds, 0, args.tiny)
        traced_info, traced = run(workload, args.seed, args.seconds, 1, args.tiny)
        print(f"== {workload} (seed {args.seed})")
        for name, metric in plain["metrics"].items():
            print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
        print(f"  {'failed_ratio':<36} {info['failed_ratio']:>14.6g} fraction"
              f"  ({plain['failed']} of {plain['attempted']} ops)")
        tail_pct = info.get("op_tail_pct", info.get("hit_tail_pct"))
        samples = info.get("ops", info.get("hits"))
        print(f"  op_tail_s is p{tail_pct:g} of {samples} samples")
        if workload == "service_mix":
            print(f"  op_iqm_s and op_tail_s are store hits; {info['colds']} cold jobs")
        overhead = info["ops_per_s"] / traced_info["ops_per_s"] - 1.0
        print(f"  tracing overhead {overhead:+.1%} (ops/s {info['ops_per_s']:.4g} untraced, "
              f"{traced_info['ops_per_s']:.4g} traced)")
        print("  per layer (traced run, per timed op):")
        for name, metric in traced["metrics"].items():
            print(f"    {name:<34} {metric['value']:>14.6g} {metric['unit']}")
        print(f"  trace: {os.path.join(common.OUT_DIR, f'{workload}-seed{args.seed}.trace.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
