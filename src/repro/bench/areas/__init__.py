"""Benchmark-area implementations; importing this package registers them all."""

from . import (
    bist,
    experiments,
    mws,
    service,
    session,
    substrate,
    synth,
    table5,
)

__all__ = [
    "bist",
    "experiments",
    "mws",
    "service",
    "session",
    "substrate",
    "synth",
    "table5",
]
