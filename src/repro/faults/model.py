"""Single stuck-at fault model.

The paper assumes "an arbitrary but fixed combinational fault model F"
(section 2.3) that must contain all stuck-at-0 and stuck-at-1 faults at the
primary inputs and whose faults are all detectable.  The concrete model used
throughout the reproduction is the classical *single stuck-at* model over all
circuit lines: every net (stem) and, where a net fans out to more than one
gate, every gate input pin (branch) can be stuck at 0 or stuck at 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..circuit.netlist import Circuit

__all__ = ["Fault", "full_fault_list", "fault_name"]


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

    def to_list(self) -> List:
        """Compact JSON encoding ``[net, stuck_value, gate]`` (see job-spec API)."""
        return [self.net, self.stuck_value, self.gate]

    @classmethod
    def from_list(cls, data: Sequence) -> "Fault":
        """Rebuild a fault from :meth:`to_list` output."""
        if len(data) != 3:
            raise ValueError(f"fault encoding must be [net, stuck_value, gate], got {data!r}")
        net, stuck_value, gate = data
        return cls(int(net), bool(stuck_value), None if gate is None else int(gate))


def fault_name(circuit: Circuit, fault: Fault) -> str:
    """Convenience alias for :meth:`Fault.describe`."""
    return fault.describe(circuit)


def full_fault_list(circuit: Circuit, include_branches: bool = True) -> List[Fault]:
    """All single stuck-at faults of a circuit.

    Stem faults are generated for every net.  Branch faults are generated only
    for gate input pins whose driving net has fan-out greater than one (for
    fan-out-free nets the branch fault is identical to the stem fault).

    The result is deterministic and ordered (stem faults in net order, then
    branch faults in gate order), which keeps experiment output stable.
    """
    faults: List[Fault] = []
    for net in range(circuit.n_nets):
        faults.append(Fault(net, False))
        faults.append(Fault(net, True))
    if include_branches:
        for gi, gate in enumerate(circuit.gates):
            for src in gate.inputs:
                if len(circuit.fanout_gates(src)) > 1:
                    faults.append(Fault(src, False, gate=gi))
                    faults.append(Fault(src, True, gate=gi))
    return faults
