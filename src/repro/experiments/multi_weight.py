"""Multi-weight-set BIST versus the single-set optimum on the hard circuits.

The paper optimizes *one* weight set per circuit — its known weakness for
circuits whose inputs pull the optimal weights in conflicting directions.
This experiment runs the multi-weight subsystem (:mod:`repro.wrp`) over the
starred hard circuits: cluster the fault list by detection-profile
similarity, optimize one weight set per cluster, normalize the per-set
budgets jointly, and compare the total scheduled test length against the
single-set optimized length of Table 3.  The committed expectation is a
reduction on the clustered circuits (strongest on ``s1``) and parity on
circuits whose single optimum already serves every fault.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from ..analysis.redundancy import remove_redundant
from ..circuits.registry import hard_suite
from ..core.optimizer import WeightOptimizer
from ..faults.collapse import collapsed_fault_list
from ..wrp import build_weight_sets, run_multi_weight_session
from .suite import CONFIDENCE, EXPERIMENT_SEED, OPTIMIZER_SWEEPS
from .tables import format_count, format_percent, format_table

__all__ = [
    "MultiWeightRow",
    "run_multi_weight",
    "format_multi_weight",
    "main",
]

#: Cluster count used for the committed comparison (k=4 reduces the test
#: length on every hard circuit; larger k over-fragments the fault list).
DEFAULT_K = 4


@dataclass
class MultiWeightRow:
    """Single-set vs multi-set scheduled test length for one hard circuit."""

    key: str
    paper_name: str
    k: int
    n_sets: int
    single_set_length: int
    multi_set_length: int
    reduction_factor: float
    set_lengths: List[int]
    coverage: float
    n_patterns: int


def run_multi_weight(
    k: int = DEFAULT_K, keys: Optional[Sequence[str]] = None
) -> List[MultiWeightRow]:
    """Build and play a k-set schedule for each hard circuit.

    Clustering and per-set LFSR reseeds use the fixed experiment seed, so
    the emitted rows are reproducible run to run (and match the committed
    README numbers).  ``keys`` restricts the sweep to a subset of the hard
    suite.
    """
    rows: List[MultiWeightRow] = []
    for entry in hard_suite():
        if keys is not None and entry.key not in keys:
            continue
        circuit = entry.instantiate()
        faults = remove_redundant(circuit, collapsed_fault_list(circuit))
        base = WeightOptimizer(
            circuit, faults=faults, confidence=CONFIDENCE, max_sweeps=OPTIMIZER_SWEEPS
        ).optimize()
        weight_sets = build_weight_sets(
            circuit,
            faults=faults,
            k=k,
            confidence=CONFIDENCE,
            max_sweeps=OPTIMIZER_SWEEPS,
            cluster_seed=EXPERIMENT_SEED,
            session_seed=EXPERIMENT_SEED,
            base_result=base,
        )
        report = run_multi_weight_session(circuit, weight_sets, faults=faults)
        multi_length = report.multi_set_length
        rows.append(
            MultiWeightRow(
                key=entry.key,
                paper_name=entry.paper_name,
                k=k,
                n_sets=weight_sets.k,
                single_set_length=int(base.test_length),
                multi_set_length=int(multi_length),
                reduction_factor=(
                    float(base.test_length) / multi_length
                    if multi_length
                    else float("inf")
                ),
                set_lengths=[int(entry.test_length) for entry in weight_sets.sets],
                coverage=float(report.coverage.coverage),
                n_patterns=int(report.coverage.n_patterns),
            )
        )
    return rows


def format_multi_weight(rows: List[MultiWeightRow]) -> str:
    return format_table(
        [
            "circuit",
            "k",
            "single-set N",
            "multi-set N",
            "reduction",
            "set lengths",
            "coverage",
        ],
        [
            [
                row.paper_name,
                row.n_sets,
                format_count(row.single_set_length),
                format_count(row.multi_set_length),
                f"x{row.reduction_factor:.2f}",
                "+".join(str(n) for n in row.set_lengths),
                format_percent(100.0 * row.coverage),
            ]
            for row in rows
        ],
        title="Multi-weight-set BIST: scheduled test length vs the single-set optimum",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare multi-weight-set schedules against the "
        "single-set optimum on the hard circuits"
    )
    parser.add_argument(
        "--k",
        type=int,
        default=DEFAULT_K,
        help="clusters / weight sets per circuit (default: %(default)s)",
    )
    parser.add_argument(
        "--circuits",
        default=None,
        help="comma-separated hard-suite keys (default: all four)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the rows as an experiment_rows artifact"
    )
    args = parser.parse_args(argv)
    keys = (
        None
        if args.circuits is None
        else [key.strip() for key in args.circuits.split(",") if key.strip()]
    )
    rows = run_multi_weight(k=args.k, keys=keys)
    print(format_multi_weight(rows))
    reduced = [row.paper_name for row in rows if row.multi_set_length < row.single_set_length]
    print(
        f"\nreduced test length on {len(reduced)}/{len(rows)} circuits"
        + (f" ({', '.join(reduced)})" if reduced else "")
    )
    if args.json:
        from ..api.artifacts import experiment_rows_dict

        Path(args.json).write_text(
            json.dumps(experiment_rows_dict(rows), indent=2) + "\n"
        )
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    # Re-enter through the canonical module so the rows are instances of
    # repro.experiments.multi_weight.MultiWeightRow (the class the artifact
    # dispatcher knows), not of a duplicate __main__ copy.
    from repro.experiments.multi_weight import main as _canonical_main

    sys.exit(_canonical_main())
