"""Workload ``paper_pipeline``: every registry circuit through every stage, cold.

One op is one in-process ``repro.api.execute_spec`` call on a registry
circuit with all stages (analysis, optimize, quantize, both fault-simulation
legs, self test and multi-weight k=2) and no store.  The lowering cache is
cleared before each op, so each job pays for its own lowering as a CLI run
does.  A run measures whole passes, so throughput always covers the same
mix.  A pass runs s2, which takes about a third of it, once, and every
other circuit three times, once before it and twice after it: each of the
small and mid-size jobs that ``op_iqm_s`` follows is then timed at three
moments spread over the pass, so one slow stretch of a shared host does not
set the whole median.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Dict, List, Tuple

import common

TINY_CIRCUITS = ("c432", "c1908")

#: The circuit run once per pass, between the rounds of the others.
LONG_CIRCUIT = "s2"

TRACE_IN_PROCESS = True


def setup(args: Any, tracer: Any) -> Dict[str, Any]:
    from repro.api import MultiWeightConfig, PipelineSpec, SelfTestConfig
    from repro.circuits.registry import paper_suite

    keys = TINY_CIRCUITS if args.tiny else tuple(entry.key for entry in paper_suite())
    root = common.derive_seed("paper_pipeline", args.seed)
    specs = [
        PipelineSpec(
            circuit=key,
            seed=root,
            self_test=SelfTestConfig(),
            multi_weight=MultiWeightConfig(k=2),
        )
        for key in keys
    ]
    others = [spec for spec in specs if spec.label != LONG_CIRCUIT]
    long_job = [spec for spec in specs if spec.label == LONG_CIRCUIT]
    return {"specs": specs, "schedule": others + long_job + others + others}


def close(state: Dict[str, Any]) -> None:
    pass


def check_report(spec: Any, report: Any, reference: Dict[str, Any], seed: int) -> List[str]:
    """Seed-independent invariants plus the committed reference digests."""
    from repro.api import resolve_n_patterns

    problems = []
    label = spec.label
    digests = common.science_digests(report)
    expected = reference["circuits"].get(label)
    if expected is None:
        problems.append(f"{label}: no reference digest")
    else:
        if digests["design"] != expected["design"]:
            problems.append(f"{label}: test lengths / quantized weights differ from the reference")
        if seed == reference["seed"] and digests["run"] != expected["run"]:
            problems.append(f"{label}: coverages / signatures differ from the reference")
    if report.lowerings != 1:
        problems.append(f"{label}: {report.lowerings} lowerings in a cold job")
    if report.n_patterns != resolve_n_patterns(spec):
        problems.append(f"{label}: pattern budget {report.n_patterns}")
    for name in ("conventional_coverage", "optimized_coverage"):
        value = getattr(report, name)
        if value is None or not 0.0 <= value <= 100.0:
            problems.append(f"{label}: {name}={value}")
    low, high = spec.optimize.bounds
    step = spec.quantize.step
    for weight in report.quantized_weights:
        if not low - 1e-9 <= weight <= high + 1e-9 or abs(weight / step - round(weight / step)) > 1e-6:
            problems.append(f"{label}: quantized weight {weight} off the grid")
            break
    if not report.self_test.passed:
        problems.append(f"{label}: clean self test did not match its golden signature")
    multi = report.multi_weight
    if not multi.self_test.passed or not 1 <= multi.weight_sets.k <= spec.multi_weight.k:
        problems.append(f"{label}: multi-weight playback inconsistent")
    return problems


def run(state: Dict[str, Any], args: Any, tracer: Any) -> Dict[str, Any]:
    from repro.api import execute_spec
    from repro.lowered import clear_lowered_cache

    specs, schedule = state["specs"], state["schedule"]
    latencies: List[float] = []
    first: Dict[str, Any] = {}
    later: List[Tuple[str, Dict[str, str]]] = []
    window_start = time.monotonic_ns()
    start = time.perf_counter()
    while True:
        for spec in schedule:
            clear_lowered_cache()
            op_start = time.perf_counter()
            with tracer.span("bench.op", "bench") if tracer else contextlib.nullcontext():
                report = execute_spec(spec)
            latencies.append(time.perf_counter() - op_start)
            if spec.label not in first:
                first[spec.label] = report
            else:
                later.append((spec.label, common.science_digests(report)))
        if time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    window = (window_start, time.monotonic_ns())
    rss = common.peak_rss_mib()

    reference = common.load_reference()
    failed_ops = 0
    for spec in specs:
        problems = check_report(spec, first[spec.label], reference, args.seed)
        for problem in problems:
            common.log(f"check failed: {problem}")
        failed_ops += bool(problems)
    first_digests = {label: common.science_digests(report) for label, report in first.items()}
    for label, digests in later:
        if digests != first_digests[label]:
            common.log(f"check failed: {label} changed between runs of the same spec")
            failed_ops += 1

    result = common.cold_op_result(latencies, elapsed, rss, failed_ops)
    result["info"]["passes"] = len(latencies) // len(schedule)
    if tracer is not None:
        import layers

        result["per_layer"] = layers.per_layer_metrics(tracer.spans, window, len(latencies), sum(latencies))
        result["spans"] = tracer.spans
    return result
