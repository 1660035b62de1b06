"""Golden regression tests for the weight optimizer.

The optimizer's recorded trajectory on every registry circuit is pinned
byte-for-byte: the sweep history, the final test lengths, the hard-fault count
and a SHA-256 digest of the optimized weight vector must not move.  This is what lets optimizer and
estimator refactors proceed without silently drifting the paper-table numbers
— any intentional change to the descent (new step rule, different estimator
defaults) must update these constants deliberately and show its effect on the
Table 3/Table 5 reproduction.

Both the scalar reference estimator and the batched compiled engine are pinned
to the *same* goldens, which doubles as the bit-identity check at the full
optimization level.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import BatchedCopEstimator, CopDetectionEstimator
from repro.circuits import build_circuit, circuit_keys
from repro.core import WeightOptimizer
from repro.faults import collapsed_fault_list

from .helpers import random_circuit

#: key -> (history, initial N, optimized N, sweeps, converged, hard faults,
#: weights sha256), recorded on every registry circuit.
GOLDEN = {
    "s1": (
        [6308527770, 743055273, 222475343, 78595354, 18502900, 392963, 119119, 56020, 48697],
        6308527770,
        48697,
        8,
        False,
        28,
        "e450654010c6ecfcc4dc56882beb8bafc6189fe279e775069911e889ffe3878d",
    ),
    "s2": (
        [99891443, 44799, 5141, 4008, 2790, 2669, 2562, 2348, 2338],
        99891443,
        2338,
        8,
        True,
        92,
        "2c79ae1ab7c94443030e48fc8ca59ffe07b80b245936618ccc388d13bcf2ea44",
    ),
    "c432": (
        [662, 664, 664],
        662,
        662,
        2,
        True,
        71,
        "738b6b87314b6adec03c205ef6ff6dc012aa1be222a61027e715bc740bea45bb",
    ),
    "c499": (
        [791, 787],
        791,
        787,
        1,
        True,
        231,
        "898a0caecf49b5dd384827a442fef857aeaaeecc5c1ddfb71ada3fc54517c23c",
    ),
    "c880": (
        [2719, 2646, 2536, 2352, 2078, 1995, 1950, 1950],
        2719,
        1950,
        7,
        True,
        65,
        "0b7094e80d7727c2d5de66db569b93ef50bd97c7fe4dc688a050f346934416cb",
    ),
    "c1355": (
        [3737, 4929],
        3737,
        3737,
        1,
        True,
        144,
        "879673a0c584341cb846cd3ce334edfe69592d912f77f45e74c7f49d1277acba",
    ),
    "c1908": (
        [370, 368],
        370,
        368,
        1,
        True,
        102,
        "c8aa3d1c1c09bf069faa802d9e2cb677ae5d50e59c8c8ad55373a3f11a6b96fe",
    ),
    "c2670": (
        [524673, 173069, 22107, 7950, 4218, 3265, 2784, 2579, 2473],
        524673,
        2473,
        8,
        False,
        48,
        "2b5b60944f5d99dd18c0666ac060bcbfa79ed14ae608c19ab044c75196dd770a",
    ),
    "c3540": (
        [360, 487, 445, 422, 406, 406],
        360,
        360,
        5,
        True,
        313,
        "93e754b6f2a446e5d9859730b0e8814a151bf40bd5f433c81391c85baa094e68",
    ),
    "c5315": (
        [370, 398, 398],
        370,
        370,
        2,
        True,
        417,
        "6eae5780beab30e8453c4209f96af87d42834b0a35ee441d4c7ece1b9d2759c2",
    ),
    "c6288": (
        [41695, 4621, 1889, 1687, 1671],
        41695,
        1671,
        4,
        True,
        16,
        "2fc7e03cb2b31e39324bfdf7a6ed1f014919d1170b0b5b151ffd3b84df81d293",
    ),
    "c7552": (
        [2280405, 447169, 114145, 105398, 51058, 26693, 8517, 5025, 3628],
        2280405,
        3628,
        8,
        False,
        92,
        "97b38e3c46c3c4e2736939372a55d809b9a3cd5d6104b0bafb41c0c593dda6f5",
    ),
}


def run(key, estimator):
    circuit = build_circuit(key)
    optimizer = WeightOptimizer(
        circuit,
        faults=collapsed_fault_list(circuit),
        estimator=estimator,
        confidence=0.999,
        max_sweeps=8,
    )
    return optimizer.optimize()


@pytest.mark.parametrize("key", sorted(GOLDEN))
@pytest.mark.parametrize(
    "estimator",
    [BatchedCopEstimator, CopDetectionEstimator],
    ids=["batched", "scalar"],
)
def test_optimizer_trajectory_is_byte_stable(key, estimator):
    history, initial, final, sweeps, converged, n_hard, digest = GOLDEN[key]
    result = run(key, estimator())
    assert result.history == history
    assert result.initial_test_length == initial
    assert result.test_length == final
    assert result.sweeps == sweeps
    assert result.converged is converged
    assert result.n_hard_faults == n_hard
    assert hashlib.sha256(result.weights.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("key", ["c6288", "c880"])
def test_scalar_and_batched_agree_exactly(key):
    scalar = run(key, CopDetectionEstimator())
    batched = run(key, BatchedCopEstimator())
    assert scalar.history == batched.history
    assert np.array_equal(scalar.weights, batched.weights)
    assert np.array_equal(scalar.quantized_weights, batched.quantized_weights)


def test_goldens_are_consistent():
    assert sorted(GOLDEN) == sorted(circuit_keys())
    for history, initial, final, sweeps, converged, _, _ in GOLDEN.values():
        assert history[0] == initial
        assert min(history) == final
        assert len(history) == sweeps + 1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_result_invariants_on_random_circuits(seed):
    """The reported optimum always matches the recorded trajectory — in
    particular when the start-up jitter itself lands on a distribution better
    than the caller's base (a rejected first sweep must then return the
    jittered weights, not the worse base)."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n_inputs=5, n_gates=12)
    result = WeightOptimizer(circuit, max_sweeps=3).optimize()
    assert result.history[0] == result.initial_test_length
    assert result.test_length == min(result.history)
    assert len(result.history) == result.sweeps + 1
