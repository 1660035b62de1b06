"""Fault simulation: compiled fault-parallel simulator and the per-fault
interpreted baseline it is differentially tested against."""

from .parallel import FaultSimResult, FaultSimStats, ParallelFaultSimulator
from .legacy import LegacyParallelFaultSimulator
from .coverage import random_pattern_coverage

__all__ = [
    "FaultSimResult",
    "FaultSimStats",
    "ParallelFaultSimulator",
    "LegacyParallelFaultSimulator",
    "random_pattern_coverage",
]
