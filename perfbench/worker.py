"""One workload in a fresh process: set up, report ready, measure, check.

Started by ``run.py``; speaks a two-line protocol on stdout (``@@ready``
once set-up is done, ``@@result {...}`` at the end).  Traced runs also
write ``.perfbench_out/<workload>-seed<N>.trace.json`` (Chrome trace-event
format) and a per-layer self-time table next to it.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    common.use_source_tree()
    workload = importlib.import_module(args.workload)
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        if workload.TRACE_IN_PROCESS:
            install(tracer)
    state = workload.setup(args, tracer)
    common.emit_ready()
    if args.setup_only:
        workload.close(state)
        return 0
    result = workload.run(state, args, tracer)
    spans = result.pop("spans", None)
    if spans is not None:
        import layers

        stem = os.path.join(common.OUT_DIR, f"{args.workload}-seed{args.seed}")
        layers.write_trace(stem, spans)
        common.log(f"trace: {stem}.trace.json\n" + layers.self_time_table(spans))
    common.emit_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
