"""Structural equivalence fault collapsing.

Fault simulation and detection-probability analysis only need one
representative per equivalence class of faults.  The classical structural
rules are applied:

* AND gate: stuck-at-0 on any input is equivalent to stuck-at-0 on the output.
* NAND gate: stuck-at-0 on any input is equivalent to stuck-at-1 on the output.
* OR gate: stuck-at-1 on any input is equivalent to stuck-at-1 on the output.
* NOR gate: stuck-at-1 on any input is equivalent to stuck-at-0 on the output.
* NOT / BUF: input stuck-at-v is equivalent to output stuck-at-(v xor inverts).

Only fan-out-free connections may be merged across a gate boundary: a fault on
a *stem* that feeds several gates is not equivalent to the fault on one branch.
Representatives are chosen to be the fault closest to the primary inputs so
that primary-input faults (which the paper's fault model must contain) always
survive collapsing.

Collapse reads and writes :class:`~repro.faults.model.FaultTable` columns,
the one fault encoding: the classes are a union-find over integer fault ids
and the representatives a sub-table in rank order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from ..circuit.gates import GateType
from ..circuit.netlist import Circuit
from .model import Fault, FaultTable, full_fault_list

__all__ = ["collapse_faults", "collapsed_fault_list", "CollapseResult"]

#: Per gate type, the (input stuck value, output stuck value) pairs of the
#: equivalent faults.  XOR / XNOR input faults are not structurally
#: equivalent to output faults, so nothing is merged for them.
_RULES = {
    GateType.AND: ((False, False),),
    GateType.NAND: ((False, True),),
    GateType.OR: ((True, True),),
    GateType.NOR: ((True, False),),
    GateType.BUF: ((False, False), (True, True)),
    GateType.NOT: ((False, True), (True, False)),
}


@dataclass(frozen=True)
class CollapseResult:
    """Outcome of fault collapsing.

    Attributes:
        representatives: one fault per equivalence class, in rank order.
        representative_index: for every input fault, the position in
            :attr:`representatives` of its class's representative.
    """

    representatives: FaultTable
    representative_index: np.ndarray


def collapse_faults(
    circuit: Circuit, faults: Union[FaultTable, Iterable[Fault]]
) -> CollapseResult:
    """Collapse an explicit fault list into equivalence-class representatives.

    A fault listed twice is one fault.  The representative of a class is its
    smallest member by rank: primary-input stem faults first, then lower
    logic levels, then ``(net, stuck value, branch gate)``.
    """
    table = FaultTable.of(faults)
    stem_input = np.isin(table.net, circuit.inputs) & (table.gate < 0)
    levels = np.asarray(circuit.levels(), dtype=np.int64)[table.net]
    order = np.lexsort((table.gate, table.stuck, table.net, levels, ~stem_input))

    # Fault ids count distinct faults in rank order (a repeat sorts next to
    # its first listing), so the lowest id of a class is its representative.
    span = circuit.n_gates + 1

    def code(net, stuck, gate):
        return (net * 2 + stuck) * span + gate + 1

    ranked = code(table.net.astype(np.int64), table.stuck, table.gate)[order]
    distinct = np.diff(ranked, prepend=-1) != 0
    fault_id = np.empty(ranked.size, dtype=np.int64)
    fault_id[order] = np.cumsum(distinct) - 1
    id_of = {c: i for i, c in enumerate(ranked[distinct].tolist())}
    parent = list(range(len(id_of)))

    def find(item: int) -> int:
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    for gi, gate in enumerate(circuit.gates):
        for src in gate.inputs:
            # The fault "seen by this gate" is the branch fault when the source
            # fans out, otherwise the stem fault on the source net.
            seen = -1 if len(circuit.fanout_gates(src)) == 1 else gi
            for value_in, value_out in _RULES.get(gate.gate_type, ()):
                a = id_of.get(code(src, value_in, seen))
                b = id_of.get(code(gate.output, value_out, -1))
                if a is not None and b is not None:
                    a, b = sorted((find(a), find(b)))
                    parent[b] = a
    roots = np.array([find(i) for i in range(len(parent))], dtype=np.int64)
    heads = np.flatnonzero(roots == np.arange(roots.size))
    return CollapseResult(
        representatives=table.take(order[distinct][heads]),
        representative_index=np.searchsorted(heads, roots)[fault_id],
    )


def collapsed_fault_list(circuit: Circuit, include_branches: bool = True) -> FaultTable:
    """Equivalence-collapsed single stuck-at fault list of a circuit."""
    return collapse_faults(circuit, full_fault_list(circuit, include_branches)).representatives
