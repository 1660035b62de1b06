"""Monte-Carlo estimation of detection probabilities by fault simulation.

The most direct way to estimate ``p_f(X)``: draw ``n_samples`` patterns from
the distribution ``X``, fault-simulate them without fault dropping and divide
the per-fault detection counts by the sample size.  Unbiased but expensive —
the paper's optimizer calls its estimator once per primary input per sweep, so
the analytic COP estimator is the default and this one serves for validation,
for the STAFAN-style comparison and as a drop-in alternative on circuits where
COP is too inaccurate.  The counting runs on the compiled fault-parallel
engine (:mod:`repro.simulation.compiled`), built from the same shared
lowered-circuit IR (:mod:`repro.lowered`) as every other engine over the
circuit, which makes dense sampling viable on the larger registry circuits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..faultsim.parallel import ParallelFaultSimulator
from ..patterns.weighted import WeightedPatternGenerator

__all__ = ["MonteCarloDetectionEstimator"]


class MonteCarloDetectionEstimator:
    """Sampling estimator conforming to the estimator protocol.

    Args:
        n_samples: number of random patterns drawn per estimate.
        seed: base RNG seed; an internal counter decorrelates successive calls
            unless ``fixed_seed`` is set.
        fixed_seed: reuse exactly the same sample patterns on every call
            (useful in tests to make the estimate deterministic).
        batch_size: bit-parallel batch size for the underlying fault simulator.
    """

    def __init__(
        self,
        n_samples: int = 1024,
        seed: int = 11,
        fixed_seed: bool = False,
        batch_size: int = 2048,
    ):
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        self.n_samples = n_samples
        self.seed = seed
        self.fixed_seed = fixed_seed
        self.batch_size = batch_size
        self._call_count = 0

    def detection_probabilities(
        self,
        circuit: Circuit,
        faults: Sequence[Fault],
        input_probs: Sequence[float],
    ) -> np.ndarray:
        seed = self.seed if self.fixed_seed else self.seed + self._call_count
        self._call_count += 1
        generator = WeightedPatternGenerator(input_probs, seed=seed)
        patterns = generator.generate(self.n_samples)
        simulator = ParallelFaultSimulator(circuit, faults)
        counts = simulator.detection_counts(patterns, batch_size=self.batch_size)
        return counts / float(self.n_samples)
