"""STAFAN-style estimation from true-value simulation counts.

STAFAN ([AgJa84] in the paper's reference list) estimates controllabilities by
*counting* signal values during fault-free simulation of random patterns
instead of computing them analytically, and then derives observabilities and
detection probabilities from those counts.  The estimator here follows that
recipe: measured controllabilities feed the same backward observability rules
used by the COP estimator.  Because the counts capture the true (correlated)
signal statistics, the controllability part of the estimate is unbiased; the
observability part still uses the independence assumption.

Both halves run on engines derived from the shared lowered-circuit IR
(:mod:`repro.lowered`): the counting passes through the compiled logic
simulator and the backward pass through the compiled COP engine
(bit-identical to the scalar :func:`repro.analysis.observability.observabilities`
rules), so estimating with STAFAN never re-walks the netlist.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..patterns.weighted import WeightedPatternGenerator
from ..simulation.logicsim import LogicSimulator, pack_patterns
from .compiled import BatchedCopResult, compile_cop

__all__ = ["StafanDetectionEstimator", "measured_signal_probabilities"]


def measured_signal_probabilities(
    circuit: Circuit,
    input_probs: Sequence[float],
    n_samples: int = 2048,
    seed: int = 7,
) -> np.ndarray:
    """Signal probabilities measured by simulating ``n_samples`` random patterns.

    The fault-free simulation runs on the compiled per-level kernels (see
    :mod:`repro.simulation.compiled`), so large sample counts stay cheap even
    on the bigger registry circuits.
    """
    generator = WeightedPatternGenerator(input_probs, seed=seed)
    patterns = generator.generate(n_samples)
    simulator = LogicSimulator(circuit)
    values = simulator.simulate_words(pack_patterns(patterns))
    ones = simulator.signal_ones_count(values, n_samples)
    return ones / float(n_samples)


class StafanDetectionEstimator:
    """Detection-probability estimator with measured controllabilities.

    Args:
        n_samples: number of fault-free random patterns simulated to measure
            the signal probabilities.
        seed: RNG seed for the sample patterns.
    """

    def __init__(self, n_samples: int = 2048, seed: int = 7):
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        self.n_samples = n_samples
        self.seed = seed

    def detection_probabilities(
        self,
        circuit: Circuit,
        faults: Sequence[Fault],
        input_probs: Sequence[float],
    ) -> np.ndarray:
        probs = measured_signal_probabilities(
            circuit, input_probs, n_samples=self.n_samples, seed=self.seed
        )
        engine = compile_cop(circuit)
        net_obs, pin_obs = engine.observabilities_batch(probs[None, :])
        analysis = BatchedCopResult(
            probs=probs[None, :], net_obs=net_obs, pin_obs=pin_obs
        )
        return engine.detection_probabilities_batch(faults, analysis)[0]
