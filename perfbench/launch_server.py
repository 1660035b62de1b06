"""Traced job service: wrap the layers, then run ``repro.service.serve``.

Takes the place of ``python -m repro serve --port 0 --store DIR`` in traced
``service_mix`` runs (same defaults) and writes the recorded spans to
``--trace-out`` when the service shuts down.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from tracing import Tracer, install  # noqa: E402

#: Server span ids start here so they never collide with the client's.
SERVER_ID_BASE = 1 << 40


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()

    common.use_source_tree()
    tracer = Tracer(id_base=SERVER_ID_BASE)
    install(tracer)
    from repro.service import serve

    def ready(server) -> None:
        print(f"repro service listening on http://{server.host}:{server.port}", flush=True)

    asyncio.run(serve(host="127.0.0.1", port=0, store=args.store, ready=ready))
    tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
