"""Table 5 — CPU time of the weight optimization.

The paper reports 300-2000 seconds on a ~2.5 MIPS SIEMENS 7561.  Absolute
numbers are obviously hardware-bound; the reproduction reports the wall-clock
seconds of our optimizer next to the paper's values.  The shape to reproduce
is that the cost grows with circuit size and stays far below what deterministic
test generation would need.

The addendum (:func:`run_table5_speedup`) times the same optimization with
the scalar reference COP estimator and the batched COP engine every spec
runs, by calling :class:`~repro.core.optimizer.WeightOptimizer` directly
with each estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.compiled import BatchedCopEstimator
from ..analysis.detection import CopDetectionEstimator
from ..analysis.redundancy import remove_redundant
from ..circuits.registry import build_circuit, hard_suite
from ..core.optimizer import WeightOptimizer
from ..faults.collapse import collapsed_fault_list
from .suite import CONFIDENCE, OPTIMIZER_SWEEPS
from .tables import format_seconds, format_table

__all__ = [
    "Table5Row",
    "format_table5",
    "Table5SpeedupRow",
    "run_table5_speedup",
]


@dataclass
class Table5Row:
    """Optimization run time for one hard circuit."""

    key: str
    paper_name: str
    n_gates: int
    n_inputs: int
    n_faults: int
    measured_seconds: float
    sweeps: int
    paper_seconds: Optional[float]


@dataclass
class Table5SpeedupRow:
    """Scalar-vs-batched estimator timing for one hard circuit.

    The two runs execute the same ANALYSIS/PREPARE/OPTIMIZE procedure — one
    with the scalar reference estimator (one Python walk per analysed weight
    vector), one with the batched COP engine (all cofactors of a sweep in one
    vectorized pass).  The two engines are bit-identical, so
    ``histories_equal`` must be True; a False value means the compiled engine
    drifted from the scalar specification.
    """

    key: str
    paper_name: str
    n_gates: int
    n_inputs: int
    n_faults: int
    scalar_seconds: float
    batched_seconds: float
    test_length: int
    histories_equal: bool
    #: Sweeps of the batched run; ``None`` on rows serialized before the
    #: field existed.
    sweeps: Optional[int] = None

    @property
    def speedup(self) -> float:
        if self.batched_seconds <= 0.0:
            return float("inf")
        return self.scalar_seconds / self.batched_seconds


def run_table5_speedup(keys: Optional[List[str]] = None) -> List[Table5SpeedupRow]:
    """Time the optimization with the scalar and the batched estimator.

    Args:
        keys: restrict to these circuit keys (default: all hard circuits).

    Each circuit is built once with its fault list (collapsed, then
    redundancy-filtered, as a default spec does); a fresh optimizer per
    estimator runs the same procedure (the default grid step 0.05), and the
    recorded test-length histories of the two runs are compared
    element-wise.
    """
    rows: List[Table5SpeedupRow] = []
    for entry in hard_suite():
        if keys is not None and entry.key not in keys:
            continue
        circuit = build_circuit(entry.key)
        faults = remove_redundant(circuit, collapsed_fault_list(circuit))
        scalar, batched = (
            WeightOptimizer(
                circuit,
                faults=faults,
                estimator=estimator,
                confidence=CONFIDENCE,
                max_sweeps=OPTIMIZER_SWEEPS,
            ).optimize(quantization_step=0.05)
            for estimator in (CopDetectionEstimator(), BatchedCopEstimator())
        )
        rows.append(
            Table5SpeedupRow(
                key=entry.key,
                paper_name=entry.paper_name,
                n_gates=circuit.n_gates,
                n_inputs=circuit.n_inputs,
                n_faults=len(faults),
                scalar_seconds=scalar.cpu_seconds,
                batched_seconds=batched.cpu_seconds,
                test_length=batched.test_length,
                sweeps=batched.sweeps,
                histories_equal=scalar.history == batched.history,
            )
        )
    return rows


def format_table5(rows: List[Table5Row]) -> str:
    return format_table(
        [
            "circuit",
            "gates",
            "inputs",
            "faults",
            "CPU time (measured)",
            "sweeps",
            "paper (2.5 MIPS machine)",
        ],
        [
            [
                row.paper_name,
                row.n_gates,
                row.n_inputs,
                row.n_faults,
                format_seconds(row.measured_seconds),
                row.sweeps,
                format_seconds(row.paper_seconds),
            ]
            for row in rows
        ],
        title="Table 5: CPU time for optimizing input probabilities",
    )
