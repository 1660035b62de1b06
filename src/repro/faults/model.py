"""Single stuck-at fault model.

The paper assumes "an arbitrary but fixed combinational fault model F"
(section 2.3) that must contain all stuck-at-0 and stuck-at-1 faults at the
primary inputs and whose faults are all detectable.  The concrete model used
throughout the reproduction is the classical *single stuck-at* model over all
circuit lines: every net (stem) and, where a net fans out to more than one
gate, every gate input pin (branch) can be stuck at 0 or stuck at 1.

A fault list has one encoding from collapse to kernel, :class:`FaultTable`,
the only code that turns :class:`Fault` objects into columns or back.  A
:class:`Fault` names one fault (:meth:`Fault.describe`, a report's injected
self-test fault); the slow references iterate the table's faults.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..circuit.netlist import Circuit

__all__ = ["Fault", "FaultTable", "full_fault_list"]


@dataclass(frozen=True, order=True)
class Fault:
    """A single stuck-at fault.

    Attributes:
        net: the net the fault is attached to.
        stuck_value: ``False`` for stuck-at-0, ``True`` for stuck-at-1.
        gate: ``None`` for a *stem* fault on the net itself; otherwise the
            index of the gate whose input pin (reading ``net``) is faulty
            (*branch* fault).  Branch faults only matter when ``net`` fans out
            to several gates, because then the stem and branch faults are not
            equivalent.
    """

    net: int
    stuck_value: bool
    gate: Optional[int] = None

    @property
    def is_stem(self) -> bool:
        return self.gate is None

    @property
    def is_branch(self) -> bool:
        return self.gate is not None

    def describe(self, circuit: Circuit) -> str:
        """Human readable name, e.g. ``"G17 stuck-at-1"``."""
        value = 1 if self.stuck_value else 0
        where = circuit.net_name(self.net)
        if self.is_branch:
            gate = circuit.gates[self.gate]
            where = f"{where}->{circuit.net_name(gate.output)}"
        return f"{where} stuck-at-{value}"


class FaultTable:
    """An immutable fault list as three columns, in list order.

    Attributes:
        net: ``int32`` net of each fault.
        stuck: ``bool`` stuck value of each fault.
        gate: ``int32`` reading gate of each branch fault, ``-1`` for a stem
            fault.

    Iteration and integer indexing give :class:`Fault` objects; :meth:`take`
    selects a sub-table by index array or slice.  The constructor takes
    ownership of its arrays and makes them read-only.
    """

    __slots__ = ("net", "stuck", "gate")

    def __init__(self, net: np.ndarray, stuck: np.ndarray, gate: np.ndarray):
        self.net = np.ascontiguousarray(net, dtype=np.int32)
        self.stuck = np.ascontiguousarray(stuck, dtype=bool)
        self.gate = np.ascontiguousarray(gate, dtype=np.int32)
        for column in (self.net, self.stuck, self.gate):
            column.flags.writeable = False

    @classmethod
    def of(cls, faults: Union["FaultTable", Iterable[Fault]]) -> "FaultTable":
        """The table of a fault sequence (a table is returned as is)."""
        if isinstance(faults, FaultTable):
            return faults
        return cls.from_lists((f.net, f.stuck_value, f.gate) for f in faults)

    @classmethod
    def from_lists(cls, data: Iterable[Sequence]) -> "FaultTable":
        """Rebuild a table from :meth:`to_lists` output (validated)."""
        rows = np.array(
            [(int(n), bool(s), -1 if g is None else int(g)) for n, s, g in data], dtype=np.int64
        ).reshape(-1, 3)
        return cls(rows[:, 0], rows[:, 1] != 0, rows[:, 2])

    def to_lists(self) -> List[List]:
        """Wire form (job-spec API): one ``[net, stuck_value, gate]`` triple
        per fault, ``gate`` null for a stem fault."""
        columns = zip(self.net.tolist(), self.stuck.tolist(), self.gate.tolist())
        return [[net, stuck, None if gate < 0 else gate] for net, stuck, gate in columns]

    def take(self, index: Union[np.ndarray, slice]) -> "FaultTable":
        """The faults at ``index`` (an index array or a slice), in its order."""
        return FaultTable(self.net[index], self.stuck[index], self.gate[index])

    def __len__(self) -> int:
        return int(self.net.size)

    def __getitem__(self, index: int) -> Fault:
        return Fault(*self.take([operator.index(index)]).to_lists()[0])

    def __iter__(self) -> Iterator[Fault]:
        return (Fault(*triple) for triple in self.to_lists())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultTable) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.__slots__
        )


def full_fault_list(circuit: Circuit, include_branches: bool = True) -> FaultTable:
    """All single stuck-at faults of a circuit.

    Stem faults are generated for every net.  Branch faults are generated only
    for gate input pins whose driving net has fan-out greater than one (for
    fan-out-free nets the branch fault is identical to the stem fault).

    The result is deterministic and ordered (stem faults in net order, then
    branch faults in gate order), which keeps experiment output stable.
    """
    sites = [(net, -1) for net in range(circuit.n_nets)]
    if include_branches:
        for gi, gate in enumerate(circuit.gates):
            sites += [(src, gi) for src in gate.inputs if len(circuit.fanout_gates(src)) > 1]
    # Every site carries its stuck-at-0 fault, then its stuck-at-1 fault.
    site = np.array(sites, dtype=np.int64).reshape(-1, 2).repeat(2, axis=0)
    return FaultTable(site[:, 0], np.tile([False, True], len(sites)), site[:, 1])
