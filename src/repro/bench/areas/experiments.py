"""Bench area ``tables`` — the paper reproduction end to end.

Executes the declarative paper sweep (:func:`repro.experiments.suite_specs`:
analysis of all twelve circuits, optimize → quantize → fault-simulate on
the four starred ones) once, serially, and folds the reports into Tables
1-4, Figure 2 and the appendix listings with the same row builders as
``python -m repro tables``.  Every counter and metric carries the name of
the table it comes from (``table1_s1_length``, ``figure2_crossover_gap``,
...).  Table 5's CPU time is the gated ``table5`` area.

The area is gated with a committed trajectory (``BENCH_tables.json``): its
19 counters (Table 1 lengths, Table 2/4 undetected-fault counts, Table 3
optimized lengths, appendix input counts) are exact, so any change to the
reproduced science shows up as one step in the trajectory.  The coverage
percentages and ratios are tracked but not gated.  The paper-shape checks on
the same rows are tier-1 tests (``tests/test_experiments.py``).  The
paper's pattern budgets are fixed by the specs, so ``--quick`` only tags the
result's mode; the workload is identical.
"""

from __future__ import annotations

import numpy as np

from ...api.executor import execute_spec
from ...experiments import (
    appendix_listings,
    figure2_data,
    suite_specs,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
)
from ..artifacts import BenchResult
from ..registry import BenchArea, register_area
from ..runner import BenchRunner


def run_bench(quick: bool = False) -> BenchResult:
    runner = BenchRunner("tables", quick=quick)
    specs = suite_specs()
    with runner.timed("run"):
        reports = [execute_spec(spec) for spec in specs]
    runner.workload(n_circuits=len(reports))

    table1 = table1_rows(reports)
    for row in table1:
        if row.hard:
            runner.counter(f"table1_{row.key}_length", row.measured_length)
    runner.counter(
        "table1_max_easy_length", max(r.measured_length for r in table1 if not r.hard)
    )
    for table, rows in (("table2", table2_rows(reports)), ("table4", table4_rows(reports))):
        for row in rows:
            runner.metric(f"{table}_{row.key}_coverage_percent", row.measured_coverage)
            runner.counter(f"{table}_{row.key}_undetected", row.n_undetected)
    for row in table3_rows(reports):
        runner.counter(f"table3_{row.key}_optimized_length", row.optimized_length)
        runner.metric(f"table3_{row.key}_improvement", row.improvement_factor)

    figure2 = figure2_data(reports)
    runner.metric("figure2_final_conventional_coverage", figure2.conventional[-1])
    runner.metric("figure2_final_optimized_coverage", figure2.optimized[-1])
    runner.metric("figure2_crossover_gap", figure2.crossover_gap())

    for listing in appendix_listings(reports):
        weights = np.asarray(listing.weights)
        runner.counter(f"appendix_{listing.circuit_key}_n_inputs", len(weights))
        runner.metric(
            f"appendix_{listing.circuit_key}_max_deviation",
            float(np.abs(weights - 0.5).max()),
        )
    return runner.result()


AREA = register_area(
    BenchArea(
        name="tables",
        title="Paper Tables 1-4, Figure 2 and appendix from one spec sweep",
        run=run_bench,
        # Counters fall back to EXACT_COUNTER_POLICY: any drift fails.
    )
)
