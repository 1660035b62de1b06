"""Single stuck-at fault model and structural fault collapsing."""

from .model import Fault, FaultTable, full_fault_list
from .collapse import CollapseResult, collapse_faults, collapsed_fault_list

__all__ = [
    "Fault",
    "FaultTable",
    "full_fault_list",
    "CollapseResult",
    "collapse_faults",
    "collapsed_fault_list",
]
