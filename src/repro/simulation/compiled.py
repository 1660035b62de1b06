"""Compiled structure-of-arrays (SoA) simulation engine.

:class:`CompiledCircuit` is the ``uint64`` pattern-word interpretation of the
shared lowered-circuit IR (:mod:`repro.lowered`): the levelized SoA arrays —
per-level gate groups, ragged fan-in segments, the fan-out CSR and fan-out
cone bitsets — are built once by :func:`repro.lowered.compile_lowered`
(content-addressed, cached process-wide) and this engine only derives the
word-domain kernels from them.  Every kernel has two tiers, chosen by
nothing but the presence of a C compiler (:mod:`repro.analysis.native`):

* **native** (``_words.c``, loaded through ctypes, which releases the
  interpreter lock): :meth:`CompiledCircuit.simulate_words` is one C level
  loop over the gates, and fault propagation is a per-fault, event-driven
  C kernel.  The kernel writes the fault at its site (it forces the stem,
  or evaluates the branch's gate with the faulty pins forced), then visits
  the readers of every net whose faulty words differ from the good ones in
  a level-bucketed queue, walking the lowering's fan-out CSR; a gate whose
  faulty words equal the good ones stops the event there (PPSFP,
  Waicukauski et al., 1985).  Detection is faulty XOR good ORed over the
  primary outputs under the valid mask.  Nothing mutable outlives a call,
  so threads may simulate one circuit at once.
* **numpy** (the named reference and the no-compiler fallback:
  :meth:`~CompiledCircuit.simulate_words_numpy`,
  :meth:`~CompiledCircuit.fault_batch_detection_numpy`,
  :meth:`~CompiledCircuit.fault_output_words_numpy`): gates are grouped
  into *level kernels* keyed by ``(level, base op)`` where the base ops are
  AND, OR and XOR -- NAND/NOR/XNOR/NOT fold into a per-gate inversion mask
  and BUF is a 1-input AND.  Each kernel evaluates all of its gates with one
  ``gather -> ufunc.reduceat -> scatter`` sequence.  Faults are simulated
  **fault-parallel x pattern-parallel**: a group of faults shares one wide
  value matrix in which every fault owns a contiguous block of pattern
  words; fault effects are injected by forcing rows (stem faults) or
  gathered operand slots (gate-input branch faults), and the union of the
  group's fan-out cones selects the sub-kernels that are re-evaluated.

Either way the callers decide what is worth sending: the fault simulator
(:mod:`repro.faultsim.parallel`) ramps its batch width from one word, drops
faults whose effect provably dies at their site before grouping, and packs
the rest into groups of ``max(1, 2048 // n_words)`` faults (one column
budget).

The engine is exact: for every net and pattern both tiers compute precisely
the same values as a gate-by-gate ``eval_words`` pass in netlist order, and
the same detection words as :mod:`repro.faultsim.legacy`, which the test
suite asserts on reference circuits and randomized netlists.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..lowered import (
    OP_AND,
    OP_OR,
    OP_XOR,
    LoweredCircuit,
    compile_lowered,
    ragged_positions,
)

__all__ = [
    "CompiledCircuit",
    "LevelKernel",
    "compile_circuit",
    "first_detection_indices",
    "popcount_words",
]

WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ZERO = np.uint64(0)

_OP_UFUNC = {
    OP_AND: np.bitwise_and,
    OP_OR: np.bitwise_or,
    OP_XOR: np.bitwise_xor,
}


@dataclass
class LevelKernel:
    """All gates of one logic level sharing one base boolean operation.

    A word-domain view of one :class:`repro.lowered.LevelGroup`: the fan-in
    net ids of the kernel's gates are concatenated into :attr:`fanin_flat`;
    gate ``i`` owns the slice
    ``fanin_flat[seg_starts[i] : seg_starts[i] + seg_lengths[i]]``.
    Evaluation gathers the operand rows, reduces each segment with the base
    ufunc and xors the inversion mask.
    """

    level: int
    op: int
    gate_ids: np.ndarray  # int32, ascending (original gate indices)
    outputs: np.ndarray  # int32 net ids driven by the gates
    fanin_flat: np.ndarray  # int32 net ids, concatenated fan-in segments
    seg_starts: np.ndarray  # int64 segment starts into fanin_flat
    seg_lengths: np.ndarray  # int64 segment lengths (all >= 1)
    invert: np.ndarray  # uint64 per gate: all-ones if inverting else 0
    has_invert: bool = field(init=False)

    def __post_init__(self) -> None:
        self.has_invert = bool(self.invert.any())

    @property
    def ufunc(self) -> np.ufunc:
        return _OP_UFUNC[self.op]

    @property
    def n_gates(self) -> int:
        return int(self.gate_ids.size)


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Number of set bits per row of a 2-D ``uint64`` word matrix."""
    if words.size == 0:
        return np.zeros(words.shape[0], dtype=np.int64)
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1).sum(axis=1).astype(np.int64)


def first_detection_indices(detection: np.ndarray) -> np.ndarray:
    """Per row of a detection-word matrix, the index of the first set bit.

    Returns ``-1`` for rows with no bit set.  Bit ``p % 64`` of word
    ``p // 64`` corresponds to pattern ``p`` (little-endian, matching
    :func:`repro.simulation.logicsim.pack_patterns`).
    """
    n_rows = detection.shape[0]
    if n_rows == 0:
        return np.zeros(0, dtype=np.int64)
    nonzero = detection != 0
    has = nonzero.any(axis=1)
    word_idx = np.argmax(nonzero, axis=1)
    words = detection[np.arange(n_rows), word_idx]
    lsb = words & (~words + np.uint64(1))
    bits = np.zeros(n_rows, dtype=np.int64)
    mask = words != 0
    # lsb is a power of two <= 2**63, exactly representable in float64.
    bits[mask] = np.log2(lsb[mask].astype(np.float64)).astype(np.int64)
    return np.where(has, word_idx * WORD_BITS + bits, -1)


class CompiledCircuit:
    """Word-domain engine over the shared :class:`LoweredCircuit` IR.

    Build via :func:`compile_circuit` (cached on the lowered artifact, which
    is itself content-addressed per circuit structure) or
    :meth:`from_circuit`.
    """

    def __init__(self, lowered: LoweredCircuit):
        self.lowered = lowered
        self.circuit = lowered.circuit
        self.kernels = [
            LevelKernel(
                level=group.level,
                op=group.op,
                gate_ids=group.gate_ids,
                outputs=group.outputs,
                fanin_flat=group.fanin_flat,
                seg_starts=group.seg_starts,
                seg_lengths=group.seg_lengths,
                invert=np.where(group.invert, _ALL_ONES, _ZERO),
            )
            for group in lowered.groups
        ]
        self.inputs = lowered.inputs
        self.outputs = lowered.outputs
        self.const0_nets = lowered.const0_nets
        self.const1_nets = lowered.const1_nets
        self.gate_output = lowered.gate_output
        self.gate_kernel = lowered.gate_group
        self.net_writer_gate = lowered.net_writer_gate
        self.net_level = lowered.net_level
        self.n_nets = lowered.n_nets
        self.n_gates = lowered.n_gates

        from ..analysis import native

        self._native = native.library()
        if self._native is not None:
            self._bind_native()

    @property
    def tier(self) -> str:
        """``"native"`` when the C kernels run, else ``"numpy"``."""
        return "numpy" if self._native is None else "native"

    def numpy_reference(self) -> "CompiledCircuit":
        """This engine with its numpy kernels in charge (every array shared)."""
        reference = copy.copy(self)
        reference._native = None
        return reference

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "CompiledCircuit":
        return cls(compile_lowered(circuit))

    def _bind_native(self) -> None:
        """Arguments of the C kernels, taken from the lowered IR.

        Every array is converted to the element type the C signature reads
        and kept on the engine, so the pointers stay valid.
        """
        lowered = self.lowered
        empty = [np.zeros(0, dtype=np.int32)]
        order = np.concatenate([group.gate_ids for group in lowered.groups] or empty)
        fanout_start, fanout_gate = lowered.fanout()
        gate_level = self.net_level[self.gate_output]
        n_levels = int(self.net_level.max()) + 1 if self.n_nets else 1
        level_start = np.zeros(n_levels + 1, dtype=np.int64)
        np.cumsum(np.bincount(gate_level.astype(np.int64), minlength=n_levels), out=level_start[1:])
        is_output = np.zeros(self.n_nets, dtype=np.uint8)
        is_output[self.outputs] = 1
        fields = (
            ("order", order, np.int32),
            ("gate_output", self.gate_output, np.int32),
            ("gate_op", lowered.gate_op, np.int8),
            ("gate_invert", lowered.gate_invert, np.uint8),
            ("fanin_start", lowered.gate_fanin_start, np.int64),
            ("fanin_len", lowered.gate_fanin_len, np.int64),
            ("fanin_flat", lowered.gate_fanin_flat, np.int32),
            ("fanout_start", fanout_start, np.int64),
            ("fanout_gate", fanout_gate, np.int32),
            ("level_start", level_start, np.int64),
            ("gate_level", gate_level, np.int32),
            ("outputs", self.outputs, np.int64),
            ("is_output", is_output, np.uint8),
        )
        self._native_arrays = {
            name: np.ascontiguousarray(array, dtype=dtype) for name, array, dtype in fields
        }

        def pointers(*names: str) -> Tuple[int, ...]:
            return tuple(self._native_arrays[name].ctypes.data for name in names)

        max_arity = int(lowered.gate_fanin_len.max()) if self.n_gates else 0
        gate_args = pointers(
            "gate_output", "gate_op", "gate_invert", "fanin_start", "fanin_len", "fanin_flat"
        )
        self._sim_args = (max_arity, order.size) + pointers("order") + gate_args
        self._output_args = (self.outputs.size,) + pointers("outputs", "is_output")
        self._fault_args = (
            (self.n_nets, self.n_gates, max_arity)
            + gate_args
            + pointers("fanout_start", "fanout_gate")
            + (n_levels,)
            + pointers("level_start", "gate_level")
        )

    # ------------------------------------------------------------------ #
    # True-value simulation
    # ------------------------------------------------------------------ #
    def simulate_words(self, input_words: np.ndarray) -> np.ndarray:
        """Evaluate the whole circuit on pre-packed 64-pattern words.

        Args:
            input_words: ``uint64`` array of shape ``(n_inputs, n_words)``,
                one row per primary input in :attr:`Circuit.inputs` order.

        Returns:
            ``uint64`` array of shape ``(n_nets, n_words)``.
        """
        if self._native is None:
            return self.simulate_words_numpy(input_words)
        values = self._initial_values(input_words)
        if self._native.sim_words(values.shape[1], values.ctypes.data, *self._sim_args):
            raise MemoryError("the native logic simulation could not allocate its scratch")
        return values

    def simulate_words_numpy(self, input_words: np.ndarray) -> np.ndarray:
        """The numpy level kernels: reference of :meth:`simulate_words`."""
        values = self._initial_values(input_words)
        for kern in self.kernels:
            ops = values[kern.fanin_flat]
            acc = kern.ufunc.reduceat(ops, kern.seg_starts, axis=0)
            if kern.has_invert:
                acc ^= kern.invert[:, None]
            values[kern.outputs] = acc
        return values

    def _initial_values(self, input_words: np.ndarray) -> np.ndarray:
        """``(n_nets, n_words)`` zeros with the inputs and CONST1 nets written."""
        input_words = np.asarray(input_words, dtype=np.uint64)
        if input_words.ndim != 2 or input_words.shape[0] != self.inputs.size:
            raise ValueError(
                f"expected {self.inputs.size} input rows, got "
                f"{input_words.shape[0] if input_words.ndim == 2 else input_words.shape}"
            )
        n_words = input_words.shape[1]
        values = np.zeros((self.n_nets, n_words), dtype=np.uint64)
        if self.inputs.size:
            values[self.inputs] = input_words
        if self.const1_nets.size:
            values[self.const1_nets] = _ALL_ONES
        return values

    # ------------------------------------------------------------------ #
    # Fan-out cones (delegated to the shared lowering, caches included)
    # ------------------------------------------------------------------ #
    def cone_gates(self, net: int) -> np.ndarray:
        """Transitive fan-out gate indices of ``net`` (ascending = topological)."""
        return self.lowered.cone_gates(net)

    def fault_cone(self, fault: Fault) -> np.ndarray:
        """Gate indices to re-evaluate for ``fault`` (ascending order)."""
        return self.lowered.fault_cone(fault)

    # ------------------------------------------------------------------ #
    # Fault-parallel x pattern-parallel detection
    # ------------------------------------------------------------------ #
    def _fault_values(
        self, faults: Sequence[Fault], good: np.ndarray, n_words: int
    ) -> np.ndarray:
        """Net values with every fault of the group injected into its block.

        Returns the wide value matrix ``(n_nets, len(faults) * n_words)`` in
        which fault ``fi`` owns the column block
        ``[fi * n_words, (fi + 1) * n_words)``.
        """
        n_faults = len(faults)
        values = np.tile(good, (1, n_faults))
        cols = [slice(fi * n_words, (fi + 1) * n_words) for fi in range(n_faults)]
        stuck = [_ALL_ONES if f.stuck_value else _ZERO for f in faults]

        member = np.zeros(self.n_gates, dtype=bool)
        # kernel index -> [(net, column slice, stuck word, writer gate)]
        stem_reforce: Dict[int, List[Tuple[int, slice, np.uint64, int]]] = {}
        # kernel index -> [(gate id, pin offsets, column slice, stuck word)]
        branch_inject: Dict[int, List[Tuple[int, np.ndarray, slice, np.uint64]]] = {}

        for fi, fault in enumerate(faults):
            cone = self.fault_cone(fault)
            if cone.size:
                member[cone] = True
            if fault.is_stem:
                values[fault.net, cols[fi]] = stuck[fi]
                writer = int(self.net_writer_gate[fault.net])
                if writer >= 0 and self.gate_kernel[writer] >= 0:
                    stem_reforce.setdefault(
                        int(self.gate_kernel[writer]), []
                    ).append((fault.net, cols[fi], stuck[fi], writer))
            else:
                kernel_idx = int(self.gate_kernel[fault.gate])
                rel = self.lowered.pin_offsets(fault.gate, fault.net)
                branch_inject.setdefault(kernel_idx, []).append(
                    (fault.gate, rel, cols[fi], stuck[fi])
                )

        for ki, kern in enumerate(self.kernels):
            selected = member[kern.gate_ids]
            if not selected.any():
                continue
            if selected.all():
                fanin = kern.fanin_flat
                offsets = kern.seg_starts
                outputs = kern.outputs
                invert = kern.invert
                sel_ids = kern.gate_ids
            else:
                starts = kern.seg_starts[selected]
                lengths = kern.seg_lengths[selected]
                fanin = kern.fanin_flat[ragged_positions(starts, lengths)]
                offsets = np.zeros(starts.size, dtype=np.int64)
                np.cumsum(lengths[:-1], out=offsets[1:])
                outputs = kern.outputs[selected]
                invert = kern.invert[selected]
                sel_ids = kern.gate_ids[selected]
            ops = values[fanin]
            for gate_id, rel, col, stuck_word in branch_inject.get(ki, ()):
                # fault.gate is always in its own cone, hence selected.
                pos = int(np.searchsorted(sel_ids, gate_id))
                ops[int(offsets[pos]) + rel, col] = stuck_word
            acc = kern.ufunc.reduceat(ops, offsets, axis=0)
            if kern.has_invert:
                acc ^= invert[:, None]
            values[outputs] = acc
            for net, col, stuck_word, writer in stem_reforce.get(ki, ()):
                # Re-force the stem if this kernel rewrote the faulty net
                # (its driver may sit inside another group member's cone).
                pos = int(np.searchsorted(sel_ids, writer))
                if pos < sel_ids.size and sel_ids[pos] == writer:
                    values[net, col] = stuck_word
        return values

    def _native_faults(
        self,
        faults: Sequence[Fault],
        good: np.ndarray,
        n_words: int,
        valid_mask: Optional[np.ndarray],
        detection: Optional[np.ndarray],
        out_words: Optional[np.ndarray],
    ) -> None:
        """Run the C fault kernel into ``detection`` and/or ``out_words``."""
        good = np.ascontiguousarray(good, dtype=np.uint64)
        if good.shape != (self.n_nets, n_words):
            raise ValueError(
                f"expected good values of shape {(self.n_nets, n_words)}, got {good.shape}"
            )
        n_faults = len(faults)
        net = np.fromiter((f.net for f in faults), dtype=np.int32, count=n_faults)
        gate = np.fromiter(
            (-1 if f.gate is None else f.gate for f in faults), dtype=np.int32, count=n_faults
        )
        stuck = np.fromiter((f.stuck_value for f in faults), dtype=np.uint8, count=n_faults)
        if net.min() < 0 or net.max() >= self.n_nets or gate.max() >= self.n_gates:
            raise IndexError(f"a fault names a net or gate outside {self.circuit.name!r}")
        if valid_mask is not None:
            valid_mask = np.ascontiguousarray(valid_mask, dtype=np.uint64)
            if valid_mask.shape != (n_words,):
                raise ValueError(
                    f"expected a valid mask of {n_words} words, got {valid_mask.shape}"
                )
        status = self._native.fault_words(
            n_words,
            good.ctypes.data,
            n_faults,
            net.ctypes.data,
            gate.ctypes.data,
            stuck.ctypes.data,
            None if valid_mask is None else valid_mask.ctypes.data,
            None if detection is None else detection.ctypes.data,
            None if out_words is None else out_words.ctypes.data,
            *self._output_args,
            *self._fault_args,
        )
        if status:
            raise MemoryError("the native fault kernel could not allocate its scratch")

    def fault_batch_detection(
        self,
        faults: Sequence[Fault],
        good: np.ndarray,
        n_words: int,
        valid_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Detection words for a group of faults against one pattern batch.

        Args:
            faults: the faults simulated simultaneously (one column block of
                ``n_words`` words each).
            good: fault-free net values ``(n_nets, n_words)`` from
                :meth:`simulate_words`.
            n_words: number of 64-pattern words in the batch.
            valid_mask: optional per-word mask of valid pattern bits.

        Returns:
            ``uint64`` array ``(len(faults), n_words)``; bit ``p % 64`` of
            word ``p // 64`` of row ``i`` is 1 iff pattern ``p`` detects
            ``faults[i]``.
        """
        if self._native is None:
            return self.fault_batch_detection_numpy(faults, good, n_words, valid_mask)
        detection = np.empty((len(faults), n_words), dtype=np.uint64)
        if len(faults):
            self._native_faults(faults, good, n_words, valid_mask, detection, None)
        return detection

    def fault_batch_detection_numpy(
        self,
        faults: Sequence[Fault],
        good: np.ndarray,
        n_words: int,
        valid_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The numpy fault kernel: reference of :meth:`fault_batch_detection`."""
        n_faults = len(faults)
        if n_faults == 0:
            return np.zeros((0, n_words), dtype=np.uint64)
        values = self._fault_values(faults, good, n_words)
        if self.outputs.size == 0:
            detection = np.zeros((n_faults, n_words), dtype=np.uint64)
        else:
            out_vals = values[self.outputs].reshape(
                self.outputs.size, n_faults, n_words
            )
            diff = out_vals ^ good[self.outputs][:, None, :]
            detection = np.bitwise_or.reduce(diff, axis=0)
        if valid_mask is not None:
            detection &= valid_mask[None, :]
        return detection

    def fault_output_words(
        self, faults: Sequence[Fault], good: np.ndarray, n_words: int
    ) -> np.ndarray:
        """Primary-output values of the faulty circuits, one block per fault.

        The word-domain faulty *responses* (not just detection bits) — what a
        signature register compacts during self test.

        Args:
            faults: the faults simulated simultaneously.
            good: fault-free net values ``(n_nets, n_words)`` from
                :meth:`simulate_words`.
            n_words: number of 64-pattern words in the batch.

        Returns:
            ``uint64`` array ``(n_outputs, len(faults), n_words)``; row
            ``(o, i)`` holds output ``o``'s values with ``faults[i]``
            injected.
        """
        if self._native is None:
            return self.fault_output_words_numpy(faults, good, n_words)
        out_words = np.empty((self.outputs.size, len(faults), n_words), dtype=np.uint64)
        if len(faults):
            self._native_faults(faults, good, n_words, None, None, out_words)
        return out_words

    def fault_output_words_numpy(
        self, faults: Sequence[Fault], good: np.ndarray, n_words: int
    ) -> np.ndarray:
        """The numpy fault kernel: reference of :meth:`fault_output_words`."""
        n_faults = len(faults)
        if n_faults == 0:
            return np.zeros((self.outputs.size, 0, n_words), dtype=np.uint64)
        values = self._fault_values(faults, good, n_words)
        return values[self.outputs].reshape(self.outputs.size, n_faults, n_words)


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile ``circuit`` into the word-domain engine (cached).

    The underlying lowering comes from :func:`repro.lowered.compile_lowered`
    (one lowering per circuit structure, process-wide); the word-domain
    engine is hung off that shared artifact, so every simulator over the same
    structure — even over distinct but isomorphic circuit instances — shares
    one engine including its growing cone cache.
    """
    lowered = compile_lowered(circuit)
    engine = lowered._sim_engine
    if engine is None:
        engine = CompiledCircuit(lowered)
        lowered._sim_engine = engine
    return engine
