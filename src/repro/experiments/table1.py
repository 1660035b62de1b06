"""Table 1 — necessary test lengths for a conventional random test.

The paper estimates, with PROTEST, the number of equiprobable random patterns
needed to detect every stuck-at fault with high confidence.  The reproduction
estimates the same quantity in the analysis stage of each circuit's pipeline
spec (the batched COP detection-probability estimator — bit-identical to the
scalar reference — and the NORMALIZE test-length computation) on the
substituted circuits.  The
shape to reproduce: the starred circuits (S1, S2, C2670, C7552) need orders of
magnitude more patterns than the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..api.serialize import artifact
from .tables import format_count, format_table

__all__ = ["Table1Row", "format_table1"]


@artifact("table1_row")
@dataclass
class Table1Row:
    """One circuit's conventional (equiprobable) test-length estimate."""

    key: str
    paper_name: str
    hard: bool
    n_gates: int
    n_faults: int
    measured_length: int
    paper_length: Optional[float]


def format_table1(rows: List[Table1Row]) -> str:
    """Render the reproduction of Table 1."""
    return format_table(
        ["circuit", "hard", "gates", "faults", "required length (measured)", "paper"],
        [
            [
                row.paper_name,
                "*" if row.hard else "",
                row.n_gates,
                row.n_faults,
                format_count(row.measured_length),
                format_count(row.paper_length),
            ]
            for row in rows
        ],
        title="Table 1: necessary test lengths for a conventional random test",
    )
