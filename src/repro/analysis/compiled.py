"""Batched structure-of-arrays COP engine (compiled probability analysis).

The scalar analysis path (:func:`repro.analysis.signal_prob.signal_probabilities`
followed by :func:`repro.analysis.observability.observabilities` and the
per-fault loop of :class:`repro.analysis.detection.CopDetectionEstimator`)
walks every gate in a Python loop per analysed weight vector.  The PROTEST
optimizer calls that pipeline ``2 x n_inputs + 1`` times per sweep, which makes
interpreter time the dominant cost of the Table 5 reproduction.

:class:`CompiledCop` is the ``float64`` probability-domain interpretation of
the shared lowered-circuit IR (:mod:`repro.lowered`): the level groups, pin
slots and fan-in segments are lowered once by
:func:`repro.lowered.compile_lowered` — the same artifact the logic/fault
simulation engine consumes — and this engine derives its probability kernels
from them, evaluating a whole batch of ``B`` weight vectors per pass:

* **Forward pass** — signal probabilities as ``(B, n_nets)`` float64 arrays.
  Gates are grouped into the same ``(level, base op)`` kernels as the logic
  engine; every kernel folds its operand columns positionally, so AND kernels
  compute ``prod(p)``, OR kernels ``prod(1 - p)`` and XOR kernels the
  sequential parity fold — *in exactly the operand order of the scalar
  evaluator*, which makes the result bit-identical to
  :func:`signal_probabilities` (asserted by the differential tests).
* **Row overrides** — each row of the batch can pin primary inputs to fixed
  probabilities, exactly like stem-fault row forcing in the fault-simulation
  engine.  This is how PREPARE submits all of a sweep's cofactor analyses
  (input ``i`` pinned to 0 and to 1) as one batch.
* **Backward pass** — per-net and per-pin COP observabilities ``(B, n_nets)``
  and ``(B, n_pins)``, laid out in the canonical pin-slot order defined by
  the lowered IR (levels descending, gates ascending, positions ascending).
  Side-input products and the fan-out "miss" accumulation replicate the
  scalar fold order (duplicate source nets within a level are multiplied in
  compile-time "rounds"), again keeping the floats bit-identical to
  :func:`repro.analysis.observability.observabilities`.
* **Detection probabilities** — one vectorized gather per fault list:
  ``p_f = activation x observability`` for all ``(row, fault)`` pairs at once.
  The fault list is a :class:`~repro.faults.model.FaultTable`, the one fault
  encoding: its ``net``/``stuck``/``gate`` columns index the gather directly.

The forward and backward passes have two tiers.  When the native library of
:mod:`repro.analysis.native` loads (a C compiler is on ``PATH``), both level
loops run in C, row by row over the same IR arrays; otherwise the numpy
kernels above run.  The numpy kernels stay the named reference
(:meth:`CompiledCop.signal_probabilities_batch_numpy`,
:meth:`CompiledCop.observabilities_batch_numpy`), and the C loops repeat
their floating-point operation order, so both tiers are bit-identical.

:class:`BatchedCopEstimator` wraps the engine behind the
:class:`~repro.analysis.detection.DetectionProbabilityEstimator` protocol (and
its batched extension), so it is a drop-in replacement for the scalar
:class:`~repro.analysis.detection.CopDetectionEstimator` everywhere an
estimator is pluggable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.model import Fault, FaultTable
from ..lowered import (
    OP_OR,
    OP_XOR,
    LevelGroup,
    LoweredCircuit,
    PinLevel,
    compile_lowered,
    ragged_positions,
)
from . import native
from .signal_prob import input_probability_vector, validate_input_override

__all__ = [
    "CompiledCop",
    "BatchedCopResult",
    "BatchedCopEstimator",
    "compile_cop",
]


@dataclass
class _ForwardKernel:
    """All gates of one logic level sharing one base operation.

    ``slot_gates[j]`` / ``slot_nets[j]`` select, for operand position ``j``,
    the kernel-local gate indices that have at least ``j + 1`` inputs and the
    net each of those gates reads at position ``j``.  Folding position by
    position reproduces the scalar left-to-right evaluation bit for bit.
    """

    level: int
    op: int
    outputs: np.ndarray  # int32 net ids driven by the gates
    invert: np.ndarray  # bool per gate (NAND/NOR/XNOR/NOT)
    slot_gates: List[np.ndarray]  # per position: kernel-local gate indices
    slot_nets: List[np.ndarray]  # per position: operand net ids


@dataclass
class _BackwardLevel:
    """All gates of one logic level, prepared for the observability pass.

    Pins are laid out in ``(gate ascending, position ascending)`` order; the
    same order defines the global pin-slot numbering of the lowered IR
    (:meth:`repro.lowered.LoweredCircuit.pin_slot_of`).  ``rounds`` splits the
    pin sequence into chunks whose source nets are unique, so the
    multiplicative "miss" accumulation can run vectorized while preserving
    the scalar fold order for nets read several times within the level.
    """

    level: int
    outputs: np.ndarray  # int32 output net per gate (ascending gate order)
    pin_src: np.ndarray  # int32 source net per pin
    pin_gate_local: np.ndarray  # int64 level-local gate index per pin
    pin_slot: np.ndarray  # int64 global pin slot per pin
    transparent: np.ndarray  # bool per pin: XOR/XNOR (obs = out obs)
    # Side-product plan: per pin position j, the pins at that position with a
    # product-type gate (AND/NAND/OR/NOR and the 1-input NOT/BUF, whose side
    # product is empty), and per side position k the subset of those pins
    # whose gate has > k inputs together with the side net and whether the OR
    # transform (1 - p) applies.
    side_plan: List[Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]]
    rounds: List[np.ndarray]  # per round: pin indices with unique source nets


@dataclass
class BatchedCopResult:
    """One batched COP analysis: everything the detection estimate needs.

    Attributes:
        probs: signal probability per ``(row, net)``.
        net_obs: COP observability per ``(row, net)``.
        pin_obs: observability per ``(row, global pin slot)``; slots are
            assigned by :meth:`repro.lowered.LoweredCircuit.pin_slot_of`.
    """

    probs: np.ndarray
    net_obs: np.ndarray
    pin_obs: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.probs.shape[0])


class CompiledCop:
    """Probability-domain engine over the shared :class:`LoweredCircuit` IR.

    Build via :func:`compile_cop` (cached on the lowered artifact, which is
    itself content-addressed per circuit structure).
    """

    def __init__(self, lowered: LoweredCircuit):
        self.lowered = lowered
        self.circuit = lowered.circuit
        self.n_nets = lowered.n_nets
        self.n_inputs = lowered.n_inputs
        self.inputs = lowered.inputs
        self.output_nets = lowered.output_nets
        self.const0_nets = lowered.const0_nets
        self.const1_nets = lowered.const1_nets
        self.n_pins = lowered.n_pins

        self._native = native.library()
        if self._native is not None:
            self._bind_native()

    @property
    def tier(self) -> str:
        """``"native"`` when the C level loops run, else ``"numpy"``."""
        return "numpy" if self._native is None else "native"

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def _bind_native(self) -> None:
        """Pointer arguments of the C level loops, taken from the lowered IR.

        Every array is converted to the element type the C signature reads
        and kept on the engine, so the pointers stay valid.
        """
        lowered = self.lowered
        empty = [np.zeros(0, dtype=np.int32)]
        forward_order = np.concatenate([group.gate_ids for group in lowered.groups] or empty)
        backward_order = np.concatenate([lv.gate_ids for lv in lowered.pin_levels] or empty)
        fields = (
            ("forward_order", forward_order, np.int32),
            ("backward_order", backward_order, np.int32),
            ("gate_output", lowered.gate_output, np.int32),
            ("gate_op", lowered.gate_op, np.int8),
            ("gate_invert", lowered.gate_invert, np.uint8),
            ("fanin_start", lowered.gate_fanin_start, np.int64),
            ("fanin_len", lowered.gate_fanin_len, np.int64),
            ("fanin_flat", lowered.gate_fanin_flat, np.int32),
            ("pin_base", lowered.pin_base, np.int64),
        )
        self._native_arrays = {
            name: np.ascontiguousarray(array, dtype=dtype) for name, array, dtype in fields
        }

        def pointers(*names: str) -> Tuple[int, ...]:
            return tuple(self._native_arrays[name].ctypes.data for name in names)

        self._forward_args = (forward_order.size,) + pointers(
            "forward_order", "gate_output", "gate_op", "gate_invert",
            "fanin_start", "fanin_len", "fanin_flat",
        )
        self._backward_args = (backward_order.size,) + pointers(
            "backward_order", "gate_output", "gate_op",
            "fanin_start", "fanin_len", "fanin_flat", "pin_base",
        )

    @cached_property
    def forward_kernels(self) -> List[_ForwardKernel]:
        """Per-(level, op) kernels of the numpy forward pass."""
        return [self._build_forward_kernel(group) for group in self.lowered.groups]

    @cached_property
    def backward_levels(self) -> List[_BackwardLevel]:
        """Per-level plans of the numpy backward pass."""
        return [
            self._build_backward_level(pin_level) for pin_level in self.lowered.pin_levels
        ]

    def _build_forward_kernel(self, group: LevelGroup) -> _ForwardKernel:
        slot_gates: List[np.ndarray] = []
        slot_nets: List[np.ndarray] = []
        for j in range(group.max_arity):
            local = np.flatnonzero(group.seg_lengths > j)
            slot_gates.append(local)
            slot_nets.append(
                group.fanin_flat[group.seg_starts[local] + j].astype(np.int64)
            )
        return _ForwardKernel(
            level=group.level,
            op=group.op,
            outputs=group.outputs,
            invert=group.invert,
            slot_gates=slot_gates,
            slot_nets=slot_nets,
        )

    def _build_backward_level(self, pin_level: PinLevel) -> _BackwardLevel:
        lowered = self.lowered
        pin_src = pin_level.pin_src
        pin_gate_local = pin_level.pin_gate_local
        pin_position = pin_level.pin_position
        # XOR/XNOR pins propagate the output observability unchanged; the
        # 1-input NOT/BUF "products" fold to the same value through an empty
        # side plan, exactly like the scalar rule.
        transparent = pin_level.ops[pin_gate_local] == OP_XOR
        arities = lowered.gate_fanin_len[pin_level.gate_ids]

        # Side-product plan for the AND/NAND/OR/NOR pins: replicate the scalar
        # ``for k != position: factor *= t(p_k)`` fold, position by position.
        max_arity = int(arities.max()) if arities.size else 0
        side_plan: List[
            Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]
        ] = []
        for j in range(max_arity):
            pins_j = np.flatnonzero((pin_position == j) & ~transparent)
            if pins_j.size == 0:
                continue
            pin_gates_j = pin_gate_local[pins_j]
            folds: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
            for k in range(max_arity):
                if k == j:
                    continue
                rel = np.flatnonzero(arities[pin_gates_j] > k)
                if rel.size == 0:
                    continue
                gids = pin_level.gate_ids[pin_gates_j[rel]]
                nets = lowered.gate_fanin_flat[
                    lowered.gate_fanin_start[gids] + k
                ].astype(np.int64)
                or_flags = pin_level.ops[pin_gates_j[rel]] == OP_OR
                folds.append((rel, nets, or_flags))
            side_plan.append((pins_j, folds))

        # Miss-accumulation rounds: pins in sequence order, chunked so that no
        # round touches the same source net twice.
        occurrence: Dict[int, int] = {}
        round_of = np.empty(pin_src.size, dtype=np.int64)
        for idx, src in enumerate(pin_src.tolist()):
            round_of[idx] = occurrence.get(src, 0)
            occurrence[src] = round_of[idx] + 1
        rounds = [
            np.flatnonzero(round_of == r)
            for r in range(int(round_of.max()) + 1 if round_of.size else 0)
        ]

        return _BackwardLevel(
            level=pin_level.level,
            outputs=pin_level.outputs,
            pin_src=pin_src,
            pin_gate_local=pin_gate_local,
            pin_slot=pin_level.slot_base + np.arange(pin_src.size, dtype=np.int64),
            transparent=transparent,
            side_plan=side_plan,
            rounds=rounds,
        )

    def pin_slot_of(self, gate: int, position: int) -> int:
        """Global pin slot of input ``position`` of ``gate`` (shared IR order)."""
        return self.lowered.pin_slot_of(gate, position)

    # ------------------------------------------------------------------ #
    # Forward pass
    # ------------------------------------------------------------------ #
    def _weights_matrix(
        self, weights: np.ndarray | Sequence[Sequence[float]]
    ) -> np.ndarray:
        matrix = np.asarray(weights, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if matrix.ndim != 2 or matrix.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected a (B, {self.n_inputs}) weight matrix, got {matrix.shape}"
            )
        # Written so that NaN fails too: it compares false with everything.
        if not np.all((matrix >= 0.0) & (matrix <= 1.0)):
            raise ValueError("input probabilities must lie in [0, 1]")
        return matrix

    def _apply_overrides(
        self,
        probs: np.ndarray,
        overrides: Optional[Sequence[Optional[Mapping[int, float]]]],
    ) -> None:
        if overrides is None:
            return
        if len(overrides) != probs.shape[0]:
            raise ValueError(
                f"expected one override mapping per row "
                f"({probs.shape[0]}), got {len(overrides)}"
            )
        for row, mapping in enumerate(overrides):
            if not mapping:
                continue
            for net, value in mapping.items():
                probs[row, net] = validate_input_override(self.circuit, net, value)

    def _initial_probs(
        self,
        weights: np.ndarray | Sequence[Sequence[float]],
        overrides: Optional[Sequence[Optional[Mapping[int, float]]]],
    ) -> np.ndarray:
        """``(B, n_nets)`` probabilities with inputs, constants and overrides set."""
        matrix = self._weights_matrix(weights)
        probs = np.zeros((matrix.shape[0], self.n_nets), dtype=float)
        if self.inputs.size:
            probs[:, self.inputs] = matrix
        if self.const1_nets.size:
            probs[:, self.const1_nets] = 1.0
        self._apply_overrides(probs, overrides)
        return probs

    def signal_probabilities_batch(
        self,
        weights: np.ndarray | Sequence[Sequence[float]],
        overrides: Optional[Sequence[Optional[Mapping[int, float]]]] = None,
    ) -> np.ndarray:
        """Signal probability of every net for a batch of weight vectors.

        Args:
            weights: ``(B, n_inputs)`` matrix of input probabilities (a single
                vector is promoted to a one-row batch).
            overrides: optional per-row mappings ``input net id -> probability``
                pinning primary inputs of individual rows (the PREPARE
                cofactor mechanism).

        Returns:
            ``(B, n_nets)`` float64 array, bit-identical per row to the scalar
            :func:`~repro.analysis.signal_prob.signal_probabilities`.
        """
        if self._native is None:
            return self.signal_probabilities_batch_numpy(weights, overrides)
        probs = self._initial_probs(weights, overrides)
        self._native.cop_forward(
            probs.shape[0], self.n_nets, probs.ctypes.data, *self._forward_args
        )
        return probs

    def signal_probabilities_batch_numpy(
        self,
        weights: np.ndarray | Sequence[Sequence[float]],
        overrides: Optional[Sequence[Optional[Mapping[int, float]]]] = None,
    ) -> np.ndarray:
        """The numpy forward pass: reference of :meth:`signal_probabilities_batch`."""
        probs = self._initial_probs(weights, overrides)
        n_rows = probs.shape[0]
        for kern in self.forward_kernels:
            n_gates = kern.outputs.size
            if kern.op == OP_XOR:
                acc = np.zeros((n_rows, n_gates), dtype=float)
                for gates_j, nets_j in zip(kern.slot_gates, kern.slot_nets):
                    p = probs[:, nets_j]
                    prev = acc[:, gates_j]
                    acc[:, gates_j] = prev * (1.0 - p) + (1.0 - prev) * p
                value = np.where(kern.invert[None, :], 1.0 - acc, acc)
            else:
                acc = np.ones((n_rows, n_gates), dtype=float)
                for gates_j, nets_j in zip(kern.slot_gates, kern.slot_nets):
                    p = probs[:, nets_j]
                    if kern.op == OP_OR:
                        p = 1.0 - p
                    acc[:, gates_j] *= p
                if kern.op == OP_OR:
                    value = np.where(kern.invert[None, :], acc, 1.0 - acc)
                else:
                    value = np.where(kern.invert[None, :], 1.0 - acc, acc)
            probs[:, kern.outputs] = value
        return probs

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def _probs_matrix(self, probs: np.ndarray) -> np.ndarray:
        """``probs`` as a C-contiguous float64 ``(B, n_nets)`` matrix."""
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        if probs.ndim != 2 or probs.shape[1] != self.n_nets:
            raise ValueError(f"expected a (B, {self.n_nets}) matrix, got {probs.shape}")
        return probs

    def _initial_miss(self, n_rows: int) -> np.ndarray:
        """Per-net product of ``1 - obs`` over fan-out pins: 0 on outputs."""
        miss = np.ones((n_rows, self.n_nets), dtype=float)
        if self.output_nets.size:
            miss[:, self.output_nets] = 0.0
        return miss

    def observabilities_batch(self, probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Net and pin observabilities for a batch of signal probabilities.

        Args:
            probs: ``(B, n_nets)`` output of :meth:`signal_probabilities_batch`;
                any other layout or float dtype is first copied to a
                contiguous float64 matrix.

        Returns:
            ``(net_obs, pin_obs)`` with shapes ``(B, n_nets)`` and
            ``(B, n_pins)``; bit-identical per row to the scalar
            :func:`~repro.analysis.observability.observabilities`.
        """
        if self._native is None:
            return self.observabilities_batch_numpy(probs)
        probs = self._probs_matrix(probs)
        n_rows = probs.shape[0]
        miss = self._initial_miss(n_rows)
        pin_obs = np.empty((n_rows, self.n_pins), dtype=float)
        self._native.cop_backward(
            n_rows,
            self.n_nets,
            self.n_pins,
            probs.ctypes.data,
            miss.ctypes.data,
            pin_obs.ctypes.data,
            *self._backward_args,
        )
        return np.subtract(1.0, miss, out=miss), pin_obs

    def observabilities_batch_numpy(self, probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The numpy backward pass: reference of :meth:`observabilities_batch`."""
        probs = self._probs_matrix(probs)
        n_rows = probs.shape[0]
        miss = self._initial_miss(n_rows)
        pin_obs = np.zeros((n_rows, self.n_pins), dtype=float)

        for group in self.backward_levels:
            out_obs = 1.0 - miss[:, group.outputs]
            obs = np.empty((n_rows, group.pin_src.size), dtype=float)
            if group.transparent.any():
                cols = np.flatnonzero(group.transparent)
                obs[:, cols] = out_obs[:, group.pin_gate_local[cols]]
            for pins_j, folds in group.side_plan:
                factor = np.ones((n_rows, pins_j.size), dtype=float)
                for rel, nets, or_flags in folds:
                    p = probs[:, nets]
                    p = np.where(or_flags[None, :], 1.0 - p, p)
                    factor[:, rel] *= p
                obs[:, pins_j] = out_obs[:, group.pin_gate_local[pins_j]] * factor
            pin_obs[:, group.pin_slot] = obs
            contrib = 1.0 - obs
            for chunk in group.rounds:
                miss[:, group.pin_src[chunk]] *= contrib[:, chunk]

        return 1.0 - miss, pin_obs

    def analyze(
        self,
        weights: np.ndarray | Sequence[Sequence[float]],
        overrides: Optional[Sequence[Optional[Mapping[int, float]]]] = None,
    ) -> BatchedCopResult:
        """Full COP analysis (forward + backward) of a weight-vector batch."""
        probs = self.signal_probabilities_batch(weights, overrides)
        net_obs, pin_obs = self.observabilities_batch(probs)
        return BatchedCopResult(probs=probs, net_obs=net_obs, pin_obs=pin_obs)

    # ------------------------------------------------------------------ #
    # Detection probabilities
    # ------------------------------------------------------------------ #
    def _fault_plan(self, faults: Sequence[Fault]) -> Tuple[np.ndarray, ...]:
        """``(net, stuck, stem, pin slot)`` columns of the detection gather."""
        faults = FaultTable.of(faults)
        stem = faults.gate < 0
        slots = np.zeros(len(faults), dtype=np.int64)
        branch = np.flatnonzero(~stem)
        if branch.size:
            slots[branch] = self._branch_pin_slots(faults.gate[branch], faults.net[branch])
        return faults.net, faults.stuck, stem, slots

    def _branch_pin_slots(self, gates: np.ndarray, nets: np.ndarray) -> np.ndarray:
        """Pin slot of each branch fault: the first pin of ``gates[i]`` reading
        ``nets[i]`` (a gate reading the net on several pins is faulted on the
        first), found by one vectorized match over the gates' fan-in."""
        lowered = self.lowered
        starts = lowered.gate_fanin_start[gates]
        lengths = lowered.gate_fanin_len[gates]
        if np.any(lengths == 0):
            raise ValueError("branch fault on a gate without inputs")
        pins = ragged_positions(starts, lengths)
        owner = np.repeat(np.arange(gates.size), lengths)
        hits = np.flatnonzero(lowered.gate_fanin_flat[pins] == nets[owner])
        # Hits ascend, so the first hit of each fault starts a run of owners.
        first = np.ones(hits.size, dtype=bool)
        first[1:] = owner[hits[1:]] != owner[hits[:-1]]
        hits = hits[first]
        if hits.size != gates.size:
            raise ValueError("branch fault on a net its gate does not read")
        return lowered.pin_base[gates] + (pins[hits] - starts)

    def detection_probabilities_batch(
        self,
        faults: Sequence[Fault],
        analysis: BatchedCopResult,
        clamp: float = 0.0,
    ) -> np.ndarray:
        """Detection probability of every fault for every batch row.

        Args:
            faults: faults of interest.
            analysis: a :meth:`analyze` result for the weight batch.
            clamp: optional floor applied to non-zero probabilities (mirrors
                :class:`~repro.analysis.detection.CopDetectionEstimator`).

        Returns:
            ``(B, len(faults))`` array of ``p_f`` values.
        """
        nets, stuck, stem, slots = self._fault_plan(faults)
        site_probs = analysis.probs[:, nets]
        activation = np.where(stuck[None, :], 1.0 - site_probs, site_probs)
        observation = analysis.net_obs[:, nets]
        if not stem.all():
            # Only gather pin observabilities when branch faults exist; a
            # gate-free circuit has no pins at all (pin_obs is (B, 0)).
            observation = np.where(
                stem[None, :], observation, analysis.pin_obs[:, slots]
            )
        value = activation * observation
        if clamp:
            value = np.where(value > 0.0, np.maximum(value, clamp), value)
        return value


def compile_cop(circuit: Circuit) -> CompiledCop:
    """Compile the COP analysis of ``circuit`` (cached).

    The underlying lowering comes from :func:`repro.lowered.compile_lowered`
    — the same shared artifact the logic/fault-simulation engine consumes —
    and the probability-domain engine is hung off it, so every analysis over
    the same circuit structure (even over distinct but isomorphic instances)
    shares one engine.
    """
    lowered = compile_lowered(circuit)
    engine = lowered._cop_engine
    if engine is None:
        engine = CompiledCop(lowered)
        lowered._cop_engine = engine
    return engine


class BatchedCopEstimator:
    """Batched analytic detection-probability estimator (PROTEST's role).

    Drop-in replacement for the scalar
    :class:`~repro.analysis.detection.CopDetectionEstimator`: single-vector
    calls go through the same kernels as batched calls and produce bit-identical
    results to the scalar reference implementation.  The batch entry point
    :meth:`detection_probabilities_batch` is what lets the optimizer submit all
    ``2 x n_inputs`` PREPARE cofactors of a sweep in one vectorized pass.

    Args:
        clamp: probabilities are clamped to ``[clamp, 1]`` only when non-zero;
            exact zeros are preserved (estimated redundancies).
    """

    def __init__(self, clamp: float = 0.0):
        if clamp < 0.0 or clamp >= 1.0:
            raise ValueError("clamp must lie in [0, 1)")
        self.clamp = clamp

    def detection_probabilities(
        self,
        circuit: Circuit,
        faults: Sequence[Fault],
        input_probs: Sequence[float],
    ) -> np.ndarray:
        """Scalar protocol entry point: one weight vector, one result row."""
        vector = input_probability_vector(circuit, input_probs)
        return self.detection_probabilities_batch(circuit, faults, vector[None, :])[0]

    def detection_probabilities_batch(
        self,
        circuit: Circuit,
        faults: Sequence[Fault],
        weights: np.ndarray | Sequence[Sequence[float]],
        overrides: Optional[Sequence[Optional[Mapping[int, float]]]] = None,
    ) -> np.ndarray:
        """Batched protocol entry point: ``(B, n_inputs) -> (B, len(faults))``.

        ``overrides`` optionally pins primary inputs per row (the PREPARE
        cofactor mechanism; see :meth:`CompiledCop.signal_probabilities_batch`).
        """
        engine = compile_cop(circuit)
        analysis = engine.analyze(weights, overrides)
        return engine.detection_probabilities_batch(faults, analysis, clamp=self.clamp)
