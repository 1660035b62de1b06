"""Per-layer metrics, Chrome trace and self-time table from recorded spans.

Every per-layer metric is a value per timed op: the work the layer did
inside the timed window divided by the number of ops.  A metric with no
work inside the window reports its set-up total instead (the lowerings of
``service_mix`` happen in its store warm-up).  Rates and ratios are taken
over the same spans.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence

from tracing import WORK_LAYERS

#: name → unit for every per-layer metric, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "circuits.build_s": "s",
    "lowered.lower_s": "s",
    "lowered.lowerings": "count",
    "lowered.cone_s": "s",
    "faults.collapse_s": "s",
    "faults.n_faults": "count",
    "analysis.cop_s": "s",
    "analysis.cop_calls": "count",
    "core.optimize_s": "s",
    "core.sweeps": "count",
    "faultsim.sim_s": "s",
    "faultsim.faults_simulated": "count",
    "faultsim.faults_dropped": "count",
    "faultsim.pairs_per_s": "1/s",
    "faultsim.cone_gate_patterns": "count",
    "faultsim.ns_per_cone_gate_pattern": "ns",
    "patterns.selftest_s": "s",
    "patterns.patterns": "count",
    "wrp.build_s": "s",
    "wrp.playback_s": "s",
    "wrp.n_sets": "count",
    "api.plan_s": "s",
    "api.executor_self_s": "s",
    "api.unattributed_frac": "fraction",
    "serialize.report_encode_s": "s",
    "store.load_s": "s",
    "store.put_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_ratio": "fraction",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.deduped_inflight": "count",
}

#: Metrics that are rates or ratios: never divided by the op count.
_RATIOS = {
    "faultsim.pairs_per_s",
    "faultsim.ns_per_cone_gate_pattern",
    "api.unattributed_frac",
    "store.hit_ratio",
}

#: Span name → per-layer time metric.
_SPAN_TIMES = {
    "circuits.build": "circuits.build_s",
    "lowered.lower": "lowered.lower_s",
    "lowered.cone": "lowered.cone_s",
    "faults.collapse": "faults.collapse_s",
    "analysis.cop": "analysis.cop_s",
    "core.optimize": "core.optimize_s",
    "patterns.selftest": "patterns.selftest_s",
    "wrp.build": "wrp.build_s",
    "wrp.playback": "wrp.playback_s",
    "api.plan": "api.plan_s",
    "serialize.report_encode": "serialize.report_encode_s",
    "store.load": "store.load_s",
    "store.put": "store.put_s",
    "service.submit": "service.submit_s",
}

#: (span name, arg) → per-layer count metric.
_SPAN_COUNTS = {
    ("lowered.lower", "lowerings"): "lowered.lowerings",
    ("faults.collapse", "n_faults"): "faults.n_faults",
    ("core.optimize", "sweeps"): "core.sweeps",
    ("faultsim.run", "faults_simulated"): "faultsim.faults_simulated",
    ("faultsim.run", "faults_dropped"): "faultsim.faults_dropped",
    ("faultsim.kernel", "cone_gate_patterns"): "faultsim.cone_gate_patterns",
    ("patterns.selftest", "patterns"): "patterns.patterns",
    ("wrp.build", "n_sets"): "wrp.n_sets",
}


def _duration(span: Dict[str, Any]) -> float:
    return (span["end"] - span["start"]) / 1e9


def _children(spans: Sequence[Dict[str, Any]]) -> Dict[int, List[Dict[str, Any]]]:
    children: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    return children


def self_seconds(span: Dict[str, Any], children: Dict[int, List[Dict[str, Any]]]) -> float:
    return _duration(span) - sum(_duration(child) for child in children.get(span["id"], ()))


def _topmost(spans: Sequence[Dict[str, Any]], layers: Iterable[str]) -> List[Dict[str, Any]]:
    """Spans of ``layers`` with no ancestor in ``layers`` (their union, no overlap)."""
    layers = set(layers)
    by_id = {span["id"]: span for span in spans}
    found = []
    for span in spans:
        if span["layer"] not in layers:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["layer"] not in layers:
            parent = by_id.get(parent["parent"])
        if parent is None:
            found.append(span)
    return found


def raw_totals(spans: Sequence[Dict[str, Any]], all_spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Additive quantities over ``spans`` (``all_spans`` resolves ancestry)."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        metric = _SPAN_TIMES.get(span["name"])
        if metric is not None:
            totals[metric] += _duration(span)
        for (name, arg), metric in _SPAN_COUNTS.items():
            if span["name"] == name:
                totals[metric] += span["args"].get(arg, 0)
        if span["name"] == "analysis.cop":
            totals["analysis.cop_calls"] += 1
        if span["name"] == "faultsim.kernel":
            totals["_pairs"] += span["args"].get("pairs", 0)
    ids = {span["id"] for span in spans}
    children = _children(all_spans)
    for span in spans:
        if span["name"] == "api.execute":
            totals["api.executor_self_s"] += self_seconds(span, children)
    for span in _topmost(all_spans, ["faultsim"]):
        if span["id"] in ids:
            totals["faultsim.sim_s"] += _duration(span)
    for span in _topmost(all_spans, WORK_LAYERS):
        if span["id"] in ids:
            totals["_covered_s"] += _duration(span)
    return totals


def per_layer_metrics(
    spans: Sequence[Dict[str, Any]],
    window: Sequence[int],
    n_ops: int,
    op_seconds: float,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric from the spans of one traced run.

    ``window`` is the timed window ``(start_ns, end_ns)``; ``op_seconds`` the
    summed wall time of its ops (for the unattributed share); ``extra``
    carries per-op values read from other public sources (``/statsz``, job
    timestamps) on the workloads that have them.
    """
    start, end = window
    inside = [s for s in spans if s["start"] >= start and s["end"] <= end]
    before = [s for s in spans if s["end"] <= start]
    win = raw_totals(inside, spans)
    setup = raw_totals(before, spans)

    def pick(name: str) -> float:
        return win[name] / n_ops if win.get(name) else setup.get(name, 0.0)

    values: Dict[str, float] = {name: pick(name) for name in PER_LAYER_UNITS if name not in _RATIOS}
    source = win if win.get("faultsim.sim_s") else setup
    sim_s = source.get("faultsim.sim_s", 0.0)
    values["faultsim.pairs_per_s"] = source.get("_pairs", 0.0) / sim_s if sim_s else 0.0
    cgp = source.get("faultsim.cone_gate_patterns", 0.0)
    values["faultsim.ns_per_cone_gate_pattern"] = sim_s * 1e9 / cgp if cgp else 0.0
    values["api.unattributed_frac"] = (
        max(0.0, 1.0 - win.get("_covered_s", 0.0) / op_seconds) if op_seconds else 0.0
    )
    values["store.hit_ratio"] = 0.0
    values.update(extra or {})
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def self_time_table(spans: Sequence[Dict[str, Any]]) -> str:
    """Self time and span count per layer, largest first."""
    children = _children(spans)
    per_layer: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        row = per_layer[span["layer"]]
        row[0] += self_seconds(span, children)
        row[1] += 1
    lines = [f"{'layer':<12} {'self_s':>10} {'spans':>8}"]
    for layer, (seconds, count) in sorted(per_layer.items(), key=lambda item: -item[1][0]):
        lines.append(f"{layer:<12} {seconds:>10.4f} {count:>8d}")
    return "\n".join(lines)


def write_trace(path_stem: str, spans: Sequence[Dict[str, Any]]) -> None:
    """Chrome trace-event JSON (``<stem>.trace.json``) and the self-time table."""
    os.makedirs(os.path.dirname(path_stem), exist_ok=True)
    events = [
        {
            "name": span["name"],
            "cat": span["layer"],
            "ph": "X",
            "ts": span["start"] / 1e3,
            "dur": (span["end"] - span["start"]) / 1e3,
            "pid": span["pid"],
            "tid": span["tid"],
            "args": span["args"],
        }
        for span in spans
    ]
    with open(path_stem + ".trace.json", "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    with open(path_stem + ".selftime.txt", "w") as handle:
        handle.write(self_time_table(spans) + "\n")
