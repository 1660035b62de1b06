"""Helpers shared by the benchmark's orchestrator, workers and tools."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
from typing import Any, Dict, Iterable, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout the benchmark runs in (its parent directory).
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Chrome traces and self-time tables of traced runs.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Scratch space (the job service's artifact store) removed after each run.
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("paper_pipeline", "service_mix")

#: The seed the committed reference digests were made with.
DEFAULT_SEED = 1

#: Worker → orchestrator protocol lines on the worker's stdout.
READY = "@@ready"
RESULT = "@@result "


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src`` directory."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def derive_seed(*parts: Any) -> int:
    """A non-negative 31-bit seed from any parts (stable across processes)."""
    text = ":".join(str(part) for part in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16) & 0x7FFFFFFF


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile with ≥10 samples beyond it.

    Nearest-rank percentiles from p99.9 down to p70; with fewer than 34
    samples no percentile qualifies and the maximum (p100) is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 70.0):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n
    return ordered[-1], 100.0, n


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def iqm(values: Sequence[float]) -> float:
    """Interquartile mean: the mean of the middle half of the sorted values.

    Used for typical latencies instead of the median.  Store hits queue for
    the interpreter lock behind a running cold job, so their latencies
    cluster at multiples of its 5 ms switch interval, and the 34 jobs of a
    ``paper_pipeline`` pass sit in a few circuit-size clusters; a small
    change of host speed moves the median from one cluster to the next,
    while the interquartile mean moves in proportion.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def science(report: Any) -> Dict[str, Dict[str, Any]]:
    """The science outputs of a pipeline report, split by seed dependence.

    ``design`` (test lengths, quantized weights) depends only on the circuit
    and the stage configs; ``run`` (coverages, MISR signatures) also depends
    on the root seed.  Only these fields are digested, so a new optional
    report field does not change a digest.
    """
    quantized = report.quantized_weights
    design = {
        "conventional_length": report.conventional_length,
        "optimized_length": report.optimized_length,
        "quantized_weights": None if quantized is None else [round(float(w), 12) for w in quantized],
    }
    run = {
        "conventional_coverage": report.conventional_coverage,
        "optimized_coverage": report.optimized_coverage,
        "self_test_signature": None if report.self_test is None else int(report.self_test.signature),
        "multi_weight_signature": (
            None if report.multi_weight is None else int(report.multi_weight.self_test.signature)
        ),
    }
    return {"design": design, "run": run}


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def science_digests(report: Any) -> Dict[str, str]:
    parts = science(report)
    return {"design": digest(parts["design"]), "run": digest(parts["run"])}


def load_reference() -> Dict[str, Any]:
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def emit_result(payload: Dict[str, Any]) -> None:
    """Hand the worker's result to the orchestrator (one stdout line)."""
    sys.stdout.write(RESULT + json.dumps(payload) + "\n")
    sys.stdout.flush()


def emit_ready() -> None:
    sys.stdout.write(READY + "\n")
    sys.stdout.flush()


def latency_summary(latencies: List[float]) -> Dict[str, Any]:
    value, pct, n = tail(latencies)
    return {"iqm": iqm(latencies), "tail": value, "tail_pct": pct, "n": n}


def cold_op_result(latencies: List[float], elapsed: float, rss: float, failed: int) -> Dict[str, Any]:
    """The result of a workload whose every op computes from scratch."""
    summary = latency_summary(latencies)
    return {
        "attempted": len(latencies),
        "failed": failed,
        "e2e": {
            "ops_per_s": len(latencies) / elapsed,
            "op_iqm_s": summary["iqm"],
            "op_tail_s": summary["tail"],
            "cold_iqm_s": summary["iqm"],
            "peak_rss_mib": rss,
        },
        "info": {"op_tail_pct": summary["tail_pct"], "ops": summary["n"]},
    }


def log(message: str) -> None:
    sys.stderr.write(f"[perfbench] {message}\n")
    sys.stderr.flush()
