"""Table 3 — necessary test lengths for optimized random tests.

After optimizing the input probabilities, PROTEST re-estimates the required
test length; the paper reports reductions of four to seven orders of magnitude
for the starred circuits.  The reproduction runs the coordinate-descent
optimizer on each hard circuit and reports the test length before and after,
together with the improvement factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..api.serialize import artifact
from .tables import format_count, format_table

__all__ = ["Table3Row", "format_table3"]


@artifact("table3_row")
@dataclass
class Table3Row:
    """Optimized test-length estimate for one hard circuit."""

    key: str
    paper_name: str
    conventional_length: int
    optimized_length: int
    improvement_factor: float
    sweeps: int
    paper_optimized_length: Optional[float]


def format_table3(rows: List[Table3Row]) -> str:
    return format_table(
        [
            "circuit",
            "conventional N",
            "optimized N (measured)",
            "improvement",
            "sweeps",
            "paper optimized N",
        ],
        [
            [
                row.paper_name,
                format_count(row.conventional_length),
                format_count(row.optimized_length),
                f"x{row.improvement_factor:,.0f}",
                row.sweeps,
                format_count(row.paper_optimized_length),
            ]
            for row in rows
        ],
        title="Table 3: necessary test lengths for optimized random tests",
    )
