"""The paper reproduction: Tables 1-5, Figure 2 and the appendix listings.

One declarative sweep produces every result: :func:`suite_specs` builds one
:class:`~repro.api.PipelineSpec` per benchmark circuit, the job executor runs
them, and :func:`table1_rows` ... :func:`appendix_listings` fold the reports
into the row dataclasses that the ``format_*`` functions render.  One
experiment goes beyond the sweep: :func:`run_table5_speedup` times the scalar
reference against the batched COP estimator with two direct optimizer runs
on the same circuit and fault list.  Multi-weight-set schedules run through
the same spec path (``PipelineSpec.multi_weight``).
"""

from .suite import CONFIDENCE
from .tables import format_count, format_percent, format_seconds, format_table
from .table1 import Table1Row, format_table1
from .table2 import Table2Row, format_table2
from .table3 import Table3Row, format_table3
from .table4 import Table4Row, format_table4
from .table5 import (
    Table5Row,
    Table5SpeedupRow,
    format_table5,
    run_table5_speedup,
)
from .figure2 import Figure2Data, format_figure2
from .appendix import AppendixListing, format_appendix
from .batch import (
    ExperimentRows,
    appendix_listings,
    figure2_data,
    reports_by_key,
    suite_specs,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)

__all__ = [
    "CONFIDENCE",
    "ExperimentRows",
    "format_table",
    "format_count",
    "format_percent",
    "format_seconds",
    "Table1Row",
    "format_table1",
    "Table2Row",
    "format_table2",
    "Table3Row",
    "format_table3",
    "Table4Row",
    "format_table4",
    "Table5Row",
    "format_table5",
    "Table5SpeedupRow",
    "run_table5_speedup",
    "Figure2Data",
    "format_figure2",
    "AppendixListing",
    "format_appendix",
    "suite_specs",
    "reports_by_key",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "figure2_data",
    "appendix_listings",
]
