"""The optimization procedure (paper section 4: ANALYSIS / PREPARE / OPTIMIZE).

Coordinate-descent optimization of the input probability tuple ``X``:

1. ``ANALYSIS(X)`` — estimate the detection probability of every fault under
   ``X`` (delegated to a pluggable estimator; PROTEST's role).
2. ``SORT`` / ``NORMALIZE`` — order faults by detection probability, remove
   estimated redundancies, compute the current required test length ``N`` and
   the hard-fault subset ``F̂`` (observation (1)).
3. ``PREPARE`` computes, for every primary input ``i``, the two cofactor
   vectors ``p_f(X,0|i)`` and ``p_f(X,1|i)`` for the hard faults (two extra
   analyses with the input pinned, observation (2)).  All ``2 x n_inputs``
   cofactor analyses of a sweep are submitted as *one batch*: with a
   batch-capable estimator (:class:`~repro.analysis.compiled.BatchedCopEstimator`,
   the default) the pinned inputs become row-wise overrides of a single
   vectorized pass; a scalar estimator is driven row by row with identical
   semantics.  ``MINIMIZE`` then finds, per input, the unique minimum of the
   single-variable convex objective by Newton iteration; every input's row
   is minimized at once by :func:`~repro.core.minimize.minimize_coordinates`.
4. The damped and block-coordinate step candidates of the sweep are analysed
   as one batch and ranked by their NORMALIZE test length alone; SORT reorders
   the fault list only for the accepted candidate.
5. Repeat the sweep until the test length stops improving by more than the
   user-defined threshold ``alpha``.

The caller's distribution and the jittered start are analysed as one 2-row
batch, so a run makes ``1 + 2 x sweeps`` batched estimator calls.

Because PREPARE is batched per sweep, every coordinate of a sweep is minimized
against the *sweep-start* distribution (a Jacobi-style sweep).  The scalar and
batched estimator paths compute bit-identical cofactors, so the recorded
test-length history does not depend on which one is plugged in — the Table 5
benchmark asserts exactly that.

The result records the full optimization history so the benches can report the
paper's Table 3 (optimized test length) and Table 5 (CPU time) numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.compiled import BatchedCopEstimator
from ..analysis.detection import (
    DetectionProbabilityEstimator,
    batch_detection_probabilities,
    cofactor_batch,
)
from ..analysis.signal_prob import input_probability_vector
from ..api.serialize import artifact, wire
from ..circuit.netlist import Circuit
from ..faults.collapse import collapsed_fault_list
from ..faults.model import FAULT_TABLE_WIRE, Fault, FaultTable
from .minimize import minimize_coordinates
from .quantize import quantize_weights
from .testlength import NormalizeResult, required_test_length, sort_faults

__all__ = ["OptimizationResult", "WeightOptimizer"]


@artifact("optimization_result")
@dataclass
class OptimizationResult:
    """Outcome of a weight optimization run.

    Attributes:
        weights: optimized probability per primary input (circuit input order).
        quantized_weights: the same weights snapped to the 0.05 grid used by
            the paper's appendix (what a weighting network would realise).
        initial_test_length: required N for the starting distribution.
        test_length: required N for the optimized distribution.
        history: required N after the initial analysis and after every sweep.
        n_hard_faults: size of the hard-fault subset in the last sweep.
        sweeps: number of completed coordinate-descent sweeps.
        redundant_faults: faults removed because their estimated detection
            probability was exactly zero.
        cpu_seconds: wall-clock time of the optimization (Table 5).
        weight_map: mapping input net name -> optimized weight.
        converged: True if the loop stopped because the improvement dropped
            below ``alpha`` (as opposed to hitting ``max_sweeps``).
    """

    weights: np.ndarray
    quantized_weights: np.ndarray
    initial_test_length: int
    test_length: int
    history: List[int]
    n_hard_faults: int
    sweeps: int
    redundant_faults: FaultTable = wire(codec=FAULT_TABLE_WIRE)
    cpu_seconds: float
    weight_map: Dict[str, float] = wire(default_factory=dict, required=True)
    converged: bool = wire(default=True, required=True)

    @property
    def improvement_factor(self) -> float:
        """How many times shorter the optimized test is (≥ 1 when it helps)."""
        if self.test_length <= 0:
            return float("inf")
        return self.initial_test_length / self.test_length


class WeightOptimizer:
    """Computes optimized input probabilities for a circuit (OPTIMIZE).

    Args:
        circuit: combinational circuit under test.
        faults: fault list; defaults to the collapsed single stuck-at list.
        estimator: detection-probability estimator (PROTEST's role); defaults
            to the batched analytic
            :class:`~repro.analysis.compiled.BatchedCopEstimator` (the scalar
            :class:`~repro.analysis.detection.CopDetectionEstimator` computes
            bit-identical values and remains available as the reference).
        confidence: required probability of detecting every modelled fault.
        bounds: allowed interval for each input probability (kept away from 0
            and 1; Lemma 2).
        alpha: stop when a sweep improves the test length by less than this
            fraction of the current length (the paper's user-defined ``a``,
            expressed relatively so it works across magnitudes).
        max_sweeps: safety limit on coordinate-descent sweeps.
        min_hard_fraction: the hard-fault subset used by PREPARE/MINIMIZE is at
            least this fraction of the (detectable) fault list.  NORMALIZE's
            ``nf`` only counts faults that are *currently* numerically relevant;
            the paper itself warns that "the order of the detection
            probabilities may change during optimization", and optimizing
            against a too-small subset lets currently-easy faults (typically
            the primary-input stuck-ats) be driven hard.  A modest floor keeps
            the coordinate steps balanced.
        min_hard_faults: absolute floor on the hard-fault subset size.
        step_sizes: damping factors tried for the simultaneous coordinate
            update of each sweep (largest first; evaluated as one batched
            analysis).  Because the batched PREPARE computes every cofactor at
            the sweep-start distribution, the full step (1.0) can over-correct
            on circuits with strongly coupled inputs; the damped candidates
            keep the descent monotone.
        block_candidates: number of randomized block-coordinate candidates
            added to each sweep's step selection.  Each candidate applies the
            full coordinate update to a random half of the inputs and keeps
            the other half at the sweep-start values — a randomized block
            Gauss-Seidel step that costs no extra analysis (it rides in the
            same candidate batch) and escapes the simultaneous-update
            oscillation of symmetric circuits such as the comparator, whose
            paired inputs otherwise chase each other's stale values.
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Sequence[Fault]] = None,
        estimator: Optional[DetectionProbabilityEstimator] = None,
        confidence: float = 0.999,
        bounds: Tuple[float, float] = (0.05, 0.95),
        alpha: float = 0.01,
        max_sweeps: int = 8,
        min_hard_fraction: float = 0.25,
        min_hard_faults: int = 64,
        step_sizes: Tuple[float, ...] = (1.0, 0.5, 0.25, 0.125),
        block_candidates: int = 8,
    ):
        self.circuit = circuit
        self.faults = FaultTable.of(faults if faults is not None else collapsed_fault_list(circuit))
        self.estimator: DetectionProbabilityEstimator = (
            estimator if estimator is not None else BatchedCopEstimator()
        )
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must lie strictly between 0 and 1")
        self.confidence = confidence
        self.bounds = bounds
        self.alpha = alpha
        self.max_sweeps = max_sweeps
        if not 0.0 <= min_hard_fraction <= 1.0:
            raise ValueError("min_hard_fraction must lie in [0, 1]")
        self.min_hard_fraction = min_hard_fraction
        self.min_hard_faults = min_hard_faults
        if not step_sizes or any(not 0.0 < t <= 1.0 for t in step_sizes):
            raise ValueError("step_sizes must be non-empty factors in (0, 1]")
        self.step_sizes = tuple(step_sizes)
        if block_candidates < 0:
            raise ValueError("block_candidates must be non-negative")
        self.block_candidates = block_candidates

    # ------------------------------------------------------------------ #
    # The building blocks named like the paper's procedures
    # ------------------------------------------------------------------ #
    def prepare_sweep(
        self, weights: np.ndarray, faults: Sequence[Fault]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """PREPARE for a whole sweep: all cofactors as one batched analysis.

        The ``2 x n_inputs`` pinned analyses are submitted as a single batch
        whose base weights are repeated per row and whose pinned input becomes
        a row-wise override — exactly like stem-fault row forcing in the
        compiled fault-simulation engine.  Estimators without a batch entry
        point are driven row by row with identical semantics.

        Returns:
            ``(P0, P1)`` of shape ``(n_inputs, len(faults))`` with
            ``P0[i] = p_f(X, 0|i)`` and ``P1[i] = p_f(X, 1|i)``.
        """
        batch, overrides = cofactor_batch(self.circuit, weights)
        rows = batch_detection_probabilities(
            self.circuit, faults, batch, self.estimator, overrides
        )
        return rows[0::2], rows[1::2]

    def _test_length(self, probs: np.ndarray) -> NormalizeResult:
        """NORMALIZE of one analysis row; SORT's fault reordering is skipped.

        :func:`required_test_length` sorts the positive probabilities, which
        are exactly SORT's ``sorted_probs``, so the result equals
        ``normalize(sort_faults(self.faults, probs)[1])``.
        """
        if not np.any(probs > 0.0):
            raise ValueError(
                "every fault has estimated detection probability zero; "
                "the circuit or fault list is degenerate"
            )
        return required_test_length(probs, self.confidence)

    # ------------------------------------------------------------------ #
    def optimize(
        self,
        initial_weights: Sequence[float] | float = 0.5,
        quantization_step: float = 0.05,
        jitter: float = 0.1,
        jitter_seed: int = 1987,
    ) -> OptimizationResult:
        """Run OPTIMIZE and return the optimized distribution.

        Args:
            initial_weights: starting distribution (scalar or per input).
            quantization_step: grid for the reported quantized weights.
            jitter: amplitude of a small deterministic perturbation added to
                the starting vector.  Perfectly symmetric circuits (the S1
                comparator is the canonical case) make the equiprobable point a
                saddle of the objective: with every other input at exactly 0.5
                the hard faults' detection probabilities do not depend on any
                single input, so coordinate descent cannot move.  Breaking the
                symmetry by a tiny amount lets the sweep escape; the final
                weights are quantized anyway.  Set to 0 to disable.
            jitter_seed: seed of the deterministic jitter.
        """
        start_time = time.perf_counter()
        circuit = self.circuit
        base_weights = input_probability_vector(circuit, initial_weights).astype(float)
        base_weights = np.clip(base_weights, self.bounds[0], self.bounds[1])
        starts = [base_weights]
        if jitter:
            rng = np.random.default_rng(jitter_seed)
            jittered = base_weights + rng.uniform(-jitter, jitter, size=base_weights.size)
            starts.append(np.clip(jittered, self.bounds[0], self.bounds[1]))
        # Deterministic source for the randomized block-coordinate candidates;
        # independent of the jitter draw so disabling one keeps the other
        # reproducible.
        block_rng = np.random.default_rng(jitter_seed + 1)
        start_probs = batch_detection_probabilities(
            circuit, self.faults, np.vstack(starts), self.estimator
        )

        # The reported starting point (and the initial candidate for "best") is
        # the caller's distribution; the jitter only seeds the descent.
        norm = self._test_length(start_probs[0])
        initial_length = norm.test_length
        history = [norm.test_length]
        best_weights = base_weights.copy()
        best_length = norm.test_length
        best_norm = norm
        best_probs = start_probs[0]

        weights = starts[-1].copy()
        probs = start_probs[-1]
        if jitter:
            # Re-anchor the sweep bookkeeping at the actual (jittered) start so
            # the monotone acceptance below compares like with like; the
            # reported initial length above still belongs to the caller's
            # distribution.  Should the jitter itself land on a better
            # distribution, keep it as the incumbent — otherwise a rejected
            # first sweep would record its length in the history yet return
            # the worse base weights.
            norm = self._test_length(probs)
            if norm.test_length < best_length:
                best_length = norm.test_length
                best_weights = weights.copy()
                best_norm = norm
                best_probs = probs
        sorted_faults, _, _ = sort_faults(self.faults, probs)

        sweeps = 0
        converged = False
        while sweeps < self.max_sweeps:
            n_before = norm.test_length
            hard_count = max(
                norm.n_hard_faults,
                self.min_hard_faults,
                int(np.ceil(self.min_hard_fraction * len(sorted_faults))),
            )
            hard_faults = sorted_faults.take(slice(hard_count))
            cofactors0, cofactors1 = self.prepare_sweep(weights, hard_faults)
            proposal = minimize_coordinates(
                cofactors0,
                cofactors1,
                norm.test_length,
                bounds=self.bounds,
                initial=weights,
            )

            # All coordinates were minimized against the *sweep-start*
            # distribution (the batched PREPARE), so applying the full
            # simultaneous step can over-correct on strongly coupled circuits
            # (the comparator's paired inputs are the canonical case).  Damped
            # steps toward the proposal plus randomized block-coordinate steps
            # (full update on a random half of the inputs) are evaluated in
            # one further batched analysis; the sweep accepts the candidate
            # with the shortest test length (the first on ties), keeping the
            # descent monotone.  Only the accepted candidate's faults are
            # sorted.
            direction = proposal - weights
            rows = [
                weights + step * direction for step in self.step_sizes
            ]
            for _ in range(self.block_candidates):
                mask = block_rng.random(weights.size) < 0.5
                rows.append(np.where(mask, proposal, weights))
            candidates = np.clip(np.vstack(rows), self.bounds[0], self.bounds[1])
            probe = batch_detection_probabilities(
                circuit, self.faults, candidates, self.estimator
            )
            evaluations = [self._test_length(row) for row in probe]
            best_row = min(
                range(len(evaluations)), key=lambda r: evaluations[r].test_length
            )
            sweeps += 1
            if evaluations[best_row].test_length >= n_before:
                # No damped step improves on the current distribution.
                history.append(n_before)
                converged = True
                break
            weights = candidates[best_row].copy()
            probs = probe[best_row]
            norm = evaluations[best_row]
            sorted_faults, _, _ = sort_faults(self.faults, probs)
            history.append(norm.test_length)
            if norm.test_length < best_length:
                best_length = norm.test_length
                best_weights = weights.copy()
                best_norm = norm
                best_probs = probs

            improvement = n_before - norm.test_length
            if improvement <= self.alpha * max(norm.test_length, 1):
                # Converged: the sweep changed the required length only marginally.
                converged = True
                break

        # The descent from the (jittered) start is monotone, but when it never
        # beats the caller's base distribution the best seen is the base, not
        # the last accepted point — report the weights and the diagnostics
        # (hard-fault count, redundancies) of the same distribution.
        weights = best_weights
        final_length = best_length
        _, _, best_redundant = sort_faults(self.faults, best_probs)

        elapsed = time.perf_counter() - start_time
        quantized = quantize_weights(weights, step=quantization_step, bounds=self.bounds)
        weight_map = {
            circuit.net_name(net): float(weights[idx])
            for idx, net in enumerate(circuit.inputs)
        }
        return OptimizationResult(
            weights=weights,
            quantized_weights=quantized,
            initial_test_length=initial_length,
            test_length=final_length,
            history=history,
            n_hard_faults=best_norm.n_hard_faults,
            sweeps=sweeps,
            redundant_faults=best_redundant,
            cpu_seconds=elapsed,
            weight_map=weight_map,
            converged=converged,
        )
