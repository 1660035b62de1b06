"""Regenerate ``reference.json``: science digests of ``paper_pipeline`` at the default seed.

    python3 perfbench/make_reference.py

Run only after a deliberate change to the science outputs (test lengths,
quantized weights, coverages, MISR signatures); the benchmark counts every
op whose digest differs from this file as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import paper_pipeline  # noqa: E402


def main() -> int:
    common.use_source_tree()
    from repro.api import execute_spec

    args = argparse.Namespace(seed=common.DEFAULT_SEED, tiny=False)
    circuits = {}
    for spec in paper_pipeline.setup(args, None)["specs"]:
        circuits[spec.label] = common.science_digests(execute_spec(spec))
        common.log(f"{spec.label}: {circuits[spec.label]}")
    with open(os.path.join(common.HERE, "reference.json"), "w") as handle:
        json.dump({"seed": common.DEFAULT_SEED, "circuits": circuits}, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
