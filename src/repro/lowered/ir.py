"""The lowered-circuit IR: one canonical levelized SoA form for every engine.

Before this subsystem existed each compiled engine re-derived its own array
form of the netlist: the logic/fault-simulation engine
(:mod:`repro.simulation.compiled`) and the batched COP analysis engine
(:mod:`repro.analysis.compiled`) both walked :meth:`Circuit.levels` and built
near-duplicate per-level kernels, pin maps and fan-out structures.
:class:`LoweredCircuit` is the single lowering both consume:

* **Per-gate ragged fan-in** — every gate's input nets concatenated into one
  flat ``int32`` array with per-gate start/length, the canonical "ragged
  positions" layout all kernels gather from.
* **Level groups** — gates grouped by ``(logic level, base op)`` with base ops
  AND/OR/XOR (NAND/NOR/XNOR/NOT fold into a per-gate inversion flag, BUF is a
  1-input AND), each group carrying its own flat fan-in segments.  The domain
  engines reinterpret the same arrays: ``uint64`` pattern words for
  simulation, ``float64`` probability batches for analysis.
* **Pin levels** — the canonical global pin-slot numbering used by the COP
  backward (observability) pass and by branch-fault bookkeeping: levels
  descending, gates ascending within a level, input positions ascending.
  Every pin of a gate occupies consecutive slots, so
  :meth:`LoweredCircuit.pin_slot_of` is a single array lookup.
* **Fan-out** — the distinct reader gates of every net as one CSR
  (:meth:`LoweredCircuit.fanout`, built lazily once), which the native
  event-driven fault kernel and the fault simulator's site prefilter walk;
  and, for the numpy fault kernel, per-net transitive fan-out gate sets as
  ``uint64`` bitsets (built lazily with one reverse-topological sweep) plus
  cached per-site index arrays, shared by every fault simulator over the
  circuit.

Instances are produced by :func:`repro.lowered.compile_lowered`, which caches
them process-wide keyed by :meth:`Circuit.structural_hash`, so a circuit is
lowered exactly once no matter how many engines, estimators or pipeline
stages consume it — and structurally identical rebuilds share the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuit.gates import INVERTING_GATES, GateType
from ..circuit.netlist import Circuit
from ..faults.model import Fault

__all__ = [
    "OP_AND",
    "OP_OR",
    "OP_XOR",
    "GATE_OP",
    "LevelGroup",
    "PinLevel",
    "LoweredCircuit",
    "ragged_positions",
]

#: Base boolean operations the kernels are built from.  Every supported gate
#: type maps to one of these plus an optional output inversion.
OP_AND = 0
OP_OR = 1
OP_XOR = 2

GATE_OP = {
    GateType.AND: OP_AND,
    GateType.NAND: OP_AND,
    GateType.BUF: OP_AND,  # 1-input AND
    GateType.NOT: OP_AND,  # 1-input AND + inversion
    GateType.OR: OP_OR,
    GateType.NOR: OP_OR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XOR,
}

WORD_BITS = 64


def ragged_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``[starts[i], starts[i]+lengths[i])``.

    Vectorized replacement for ``np.concatenate([np.arange(s, s+l) ...])``.
    All segments must be non-empty; an empty segment list gives an empty
    result.
    """
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    total = int(lengths.sum())
    idx = np.ones(total, dtype=np.int64)
    ends = np.cumsum(lengths)
    idx[0] = starts[0]
    if starts.size > 1:
        idx[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    return np.cumsum(idx)


@dataclass
class LevelGroup:
    """All gates of one logic level sharing one base boolean operation.

    The fan-in net ids of the group's gates are concatenated into
    :attr:`fanin_flat`; gate ``i`` (kernel-local) owns the slice
    ``fanin_flat[seg_starts[i] : seg_starts[i] + seg_lengths[i]]``.
    """

    level: int
    op: int
    gate_ids: np.ndarray  # int32, ascending (original gate indices)
    outputs: np.ndarray  # int32 net ids driven by the gates
    fanin_flat: np.ndarray  # int32 net ids, concatenated fan-in segments
    seg_starts: np.ndarray  # int64 segment starts into fanin_flat
    seg_lengths: np.ndarray  # int64 segment lengths (all >= 1)
    invert: np.ndarray  # bool per gate: NAND/NOR/XNOR/NOT

    @property
    def n_gates(self) -> int:
        return int(self.gate_ids.size)

    @property
    def max_arity(self) -> int:
        return int(self.seg_lengths.max()) if self.seg_lengths.size else 0


@dataclass
class PinLevel:
    """One logic level of the canonical backward (observability) order.

    Gates are ascending original indices (all base ops merged, constants
    excluded); pins are laid out ``(gate ascending, position ascending)`` and
    occupy the global slots ``[slot_base, slot_base + n_pins)``.
    """

    level: int
    gate_ids: np.ndarray  # int32 ascending, non-const gates of this level
    outputs: np.ndarray  # int32 output net per gate
    ops: np.ndarray  # int8 base op per gate
    slot_base: int  # first global pin slot of this level
    pin_src: np.ndarray  # int32 source net per pin
    pin_gate_local: np.ndarray  # int64 level-local gate index per pin
    pin_position: np.ndarray  # int64 input position within the gate per pin

    @property
    def n_pins(self) -> int:
        return int(self.pin_src.size)


class LoweredCircuit:
    """Array-lowered form of a :class:`~repro.circuit.netlist.Circuit`.

    Build via :func:`repro.lowered.compile_lowered` (content-addressed,
    cached); the raw constructor always performs a full lowering.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.n_nets = circuit.n_nets
        self.n_gates = circuit.n_gates
        self.n_inputs = circuit.n_inputs
        levels = circuit.levels()
        self.net_level = np.asarray(levels, dtype=np.int32)
        self.inputs = np.asarray(circuit.inputs, dtype=np.int64)
        self.outputs = np.asarray(circuit.outputs, dtype=np.int64)
        self.output_nets = np.asarray(sorted(set(circuit.outputs)), dtype=np.int64)

        n_gates = self.n_gates
        gate_output = np.full(n_gates, -1, dtype=np.int32)
        net_writer_gate = np.full(self.n_nets, -1, dtype=np.int32)
        gate_op = np.full(n_gates, -1, dtype=np.int8)
        gate_invert = np.zeros(n_gates, dtype=bool)
        gate_fanin_len = np.zeros(n_gates, dtype=np.int64)
        const0: List[int] = []
        const1: List[int] = []
        group_map: Dict[Tuple[int, int], List[int]] = {}
        level_map: Dict[int, List[int]] = {}
        fanin_parts: List[Tuple[int, ...]] = []
        for gi, gate in enumerate(circuit.gates):
            gate_output[gi] = gate.output
            net_writer_gate[gate.output] = gi
            gate_fanin_len[gi] = len(gate.inputs)
            fanin_parts.append(gate.inputs)
            if gate.gate_type is GateType.CONST0:
                const0.append(gate.output)
                continue
            if gate.gate_type is GateType.CONST1:
                const1.append(gate.output)
                continue
            op = GATE_OP[gate.gate_type]
            gate_op[gi] = op
            gate_invert[gi] = gate.gate_type in INVERTING_GATES
            level = levels[gate.output]
            group_map.setdefault((level, op), []).append(gi)
            level_map.setdefault(level, []).append(gi)

        self.gate_output = gate_output
        self.net_writer_gate = net_writer_gate
        self.gate_op = gate_op
        self.gate_invert = gate_invert
        self.const0_nets = np.asarray(const0, dtype=np.int64)
        self.const1_nets = np.asarray(const1, dtype=np.int64)

        # Canonical per-gate ragged fan-in (original gate order).
        self.gate_fanin_len = gate_fanin_len
        self.gate_fanin_start = np.zeros(n_gates, dtype=np.int64)
        if n_gates:
            np.cumsum(gate_fanin_len[:-1], out=self.gate_fanin_start[1:])
        self.gate_fanin_flat = np.asarray(
            [net for part in fanin_parts for net in part], dtype=np.int32
        )

        # Level groups: (level ascending, op ascending), gate ids ascending
        # within a group — the shared kernel order of every forward engine.
        self.groups: List[LevelGroup] = []
        self.gate_group = np.full(n_gates, -1, dtype=np.int32)
        for level, op in sorted(group_map):
            gids = np.asarray(group_map[(level, op)], dtype=np.int32)
            seg_lengths = gate_fanin_len[gids]
            seg_starts = np.zeros(gids.size, dtype=np.int64)
            np.cumsum(seg_lengths[:-1], out=seg_starts[1:])
            fanin_flat = self.gate_fanin_flat[
                ragged_positions(self.gate_fanin_start[gids], seg_lengths)
            ]
            self.gate_group[gids] = len(self.groups)
            self.groups.append(
                LevelGroup(
                    level=level,
                    op=op,
                    gate_ids=gids,
                    outputs=gate_output[gids],
                    fanin_flat=fanin_flat,
                    seg_starts=seg_starts,
                    seg_lengths=seg_lengths,
                    invert=gate_invert[gids],
                )
            )

        # Pin levels: levels descending, gates ascending, positions ascending.
        # This traversal defines the global pin-slot numbering shared by the
        # COP backward pass and branch-fault bookkeeping.
        self.pin_levels: List[PinLevel] = []
        self.pin_base = np.full(n_gates, -1, dtype=np.int64)
        slot = 0
        for level in sorted(level_map, reverse=True):
            gids = np.asarray(level_map[level], dtype=np.int32)
            seg_lengths = gate_fanin_len[gids]
            total = int(seg_lengths.sum())
            pin_src = self.gate_fanin_flat[
                ragged_positions(self.gate_fanin_start[gids], seg_lengths)
            ]
            pin_gate_local = np.repeat(np.arange(gids.size, dtype=np.int64), seg_lengths)
            level_starts = np.zeros(gids.size, dtype=np.int64)
            np.cumsum(seg_lengths[:-1], out=level_starts[1:])
            pin_position = np.arange(total, dtype=np.int64) - np.repeat(
                level_starts, seg_lengths
            )
            self.pin_base[gids] = slot + level_starts
            self.pin_levels.append(
                PinLevel(
                    level=level,
                    gate_ids=gids,
                    outputs=gate_output[gids],
                    ops=gate_op[gids],
                    slot_base=slot,
                    pin_src=pin_src,
                    pin_gate_local=pin_gate_local,
                    pin_position=pin_position,
                )
            )
            slot += total
        self.n_pins = slot

        # Lazily built fan-out structures (shared by every consumer).
        self._fanout: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._reach: Optional[np.ndarray] = None
        self._stem_cones: Dict[int, np.ndarray] = {}
        self._gate_cones: Dict[int, np.ndarray] = {}
        self._pin_offsets_cache: Dict[Tuple[int, int], np.ndarray] = {}

        # Per-domain engine slots filled by the compile entry points
        # (repro.simulation.compiled / repro.analysis.compiled), so engines
        # are shared by every structurally identical circuit instance.
        self._sim_engine = None
        self._cop_engine = None

    # ------------------------------------------------------------------ #
    # Per-gate queries
    # ------------------------------------------------------------------ #
    def gate_inputs(self, gate: int) -> np.ndarray:
        """The fan-in net ids of ``gate`` as an ``int32`` array view."""
        start = int(self.gate_fanin_start[gate])
        return self.gate_fanin_flat[start : start + int(self.gate_fanin_len[gate])]

    def pin_slot_of(self, gate: int, position: int) -> int:
        """Global pin slot of input ``position`` of ``gate``.

        Slots follow the backward (observability) traversal: levels
        descending, gates ascending within a level, positions ascending.
        """
        base = int(self.pin_base[gate])
        if base < 0 or not 0 <= position < int(self.gate_fanin_len[gate]):
            raise KeyError((gate, position))
        return base + position

    def pin_offsets(self, gate: int, net: int) -> np.ndarray:
        """Offsets (within the gate's fan-in segment) of pins reading ``net``."""
        key = (gate, net)
        rel = self._pin_offsets_cache.get(key)
        if rel is None:
            rel = np.flatnonzero(self.gate_inputs(gate) == net)
            self._pin_offsets_cache[key] = rel
        return rel

    # ------------------------------------------------------------------ #
    # Fan-out
    # ------------------------------------------------------------------ #
    def fanout(self) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct reader gates of every net, as a CSR ``(start, gates)``.

        The readers of net ``n`` are ``gates[start[n] : start[n + 1]]``
        (``int32``, ascending); a gate reading ``n`` on several pins is one
        reader.  ``start`` is ``int64`` of length ``n_nets + 1``.  Built once.
        """
        if self._fanout is None:
            n_gates = max(self.n_gates, 1)
            pin_gate = np.repeat(np.arange(self.n_gates, dtype=np.int64), self.gate_fanin_len)
            pairs = np.unique(self.gate_fanin_flat.astype(np.int64) * n_gates + pin_gate)
            reader_net, reader_gate = np.divmod(pairs, n_gates)
            start = np.searchsorted(reader_net, np.arange(self.n_nets + 1)).astype(np.int64)
            self._fanout = (start, reader_gate.astype(np.int32))
        return self._fanout

    def _reach_bitsets(self) -> np.ndarray:
        """Per-net transitive fan-out gate sets as ``uint64`` bitsets.

        Bit ``g`` of row ``net`` (little-endian across words) is 1 iff gate
        ``g`` lies in the transitive fan-out cone of ``net``.  Built once with
        a reverse-topological sweep: every reader gate contributes itself plus
        the (already complete) cone of its output net.
        """
        if self._reach is None:
            n_bit_words = (self.n_gates + WORD_BITS - 1) // WORD_BITS
            reach = np.zeros((self.n_nets, max(n_bit_words, 1)), dtype=np.uint64)
            for gi in range(self.n_gates - 1, -1, -1):
                bit_word = gi >> 6
                bit = np.uint64(1) << np.uint64(gi & 63)
                out_row = reach[self.gate_output[gi]]
                for src in np.unique(self.gate_inputs(gi)):
                    row = reach[src]
                    row |= out_row
                    row[bit_word] |= bit
            self._reach = reach
        return self._reach

    def cone_gates(self, net: int) -> np.ndarray:
        """Transitive fan-out gate indices of ``net`` (ascending = topological).

        Cached per net; this is the set of gates that must be re-evaluated
        when a stem fault is injected at ``net``.
        """
        cone = self._stem_cones.get(net)
        if cone is None:
            bits = np.unpackbits(
                self._reach_bitsets()[net].view(np.uint8), bitorder="little"
            )[: self.n_gates]
            cone = np.flatnonzero(bits).astype(np.int32)
            self._stem_cones[net] = cone
        return cone

    def fault_cone(self, fault: Fault) -> np.ndarray:
        """Gate indices to re-evaluate for ``fault`` (ascending order)."""
        if fault.is_stem:
            return self.cone_gates(fault.net)
        cone = self._gate_cones.get(fault.gate)
        if cone is None:
            downstream = self.cone_gates(int(self.gate_output[fault.gate]))
            cone = np.union1d(
                np.asarray([fault.gate], dtype=np.int32), downstream
            ).astype(np.int32)
            self._gate_cones[fault.gate] = cone
        return cone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LoweredCircuit({self.circuit.name!r}: {self.n_gates} gates, "
            f"{len(self.groups)} level groups, {self.n_pins} pins)"
        )
