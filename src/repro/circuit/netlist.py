"""Combinational network (netlist) data structure.

The paper restricts itself to combinational networks ``C`` with nodes ``K``,
primary inputs ``I`` and primary outputs ``O`` (section 2.1).  :class:`Circuit`
is the immutable gate-level representation used by every other subsystem:
simulation, fault modelling, testability analysis and the optimization core.

A circuit is a collection of *nets* (signals, identified by dense integer ids
and optional names).  Every net is driven either by a primary input or by
exactly one gate.  Gates are stored in topological order so levelized
simulators and probability propagation can evaluate them in a single pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gates import GateType, validate_arity

__all__ = ["Gate", "Circuit", "CircuitError"]


class CircuitError(ValueError):
    """Raised for structurally invalid circuits (cycles, undriven nets, ...)."""


@dataclass(frozen=True)
class Gate:
    """A single combinational gate.

    Attributes:
        gate_type: the logic function of the gate.
        output: net id driven by the gate.
        inputs: net ids of the gate inputs, in order.
    """

    gate_type: GateType
    output: int
    inputs: Tuple[int, ...]

    def __post_init__(self) -> None:
        validate_arity(self.gate_type, len(self.inputs))

    @property
    def arity(self) -> int:
        return len(self.inputs)


@dataclass
class Circuit:
    """An immutable combinational network in topological order.

    Instances are normally produced by :class:`repro.circuit.builder.CircuitBuilder`
    or by :func:`repro.circuit.bench.parse_bench`; both guarantee the invariants
    checked by :meth:`validate`.
    """

    name: str
    net_names: List[str]
    inputs: Tuple[int, ...]
    outputs: Tuple[int, ...]
    gates: List[Gate]
    _name_to_net: Dict[str, int] = field(default_factory=dict, repr=False)
    _driver: Dict[int, int] = field(default_factory=dict, repr=False)
    _fanout: Optional[List[List[int]]] = field(default=None, repr=False)
    _levels: Optional[List[int]] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if not self._name_to_net:
            self._name_to_net = {}
            for idx, net_name in enumerate(self.net_names):
                if net_name:
                    if net_name in self._name_to_net:
                        raise CircuitError(f"duplicate net name: {net_name!r}")
                    self._name_to_net[net_name] = idx
        if not self._driver:
            self._driver = {gate.output: gi for gi, gate in enumerate(self.gates)}
        self.validate()

    def validate(self) -> None:
        """Check the structural invariants of the network.

        * every net id is within range,
        * every net is driven by exactly one source (primary input or gate),
        * gates appear in topological order (all gate inputs are driven by a
          primary input or by an earlier gate),
        * every primary output is a driven net.
        """
        n = self.n_nets
        input_set = set(self.inputs)
        if len(input_set) != len(self.inputs):
            raise CircuitError("duplicate primary input net")
        driven = set(input_set)
        for gi, gate in enumerate(self.gates):
            if not 0 <= gate.output < n:
                raise CircuitError(f"gate {gi} drives out-of-range net {gate.output}")
            if gate.output in driven:
                raise CircuitError(
                    f"net {self.net_name(gate.output)!r} has more than one driver"
                )
            for src in gate.inputs:
                if not 0 <= src < n:
                    raise CircuitError(f"gate {gi} reads out-of-range net {src}")
                if src not in driven:
                    raise CircuitError(
                        f"gate {gi} ({gate.gate_type}) reads net "
                        f"{self.net_name(src)!r} before it is driven "
                        "(circuit is cyclic or not topologically ordered)"
                    )
            driven.add(gate.output)
        for out in self.outputs:
            if out not in driven:
                raise CircuitError(f"primary output {self.net_name(out)!r} is undriven")
        if len(driven) != n:
            floating = sorted(set(range(n)) - driven)
            raise CircuitError(
                f"{len(floating)} nets have no driver, e.g. net "
                f"{self.net_name(floating[0])!r}"
            )

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def n_nets(self) -> int:
        return len(self.net_names)

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def net_name(self, net: int) -> str:
        """Return the name of ``net`` (synthesising ``n<id>`` for unnamed nets)."""
        name = self.net_names[net]
        return name if name else f"n{net}"

    def net_index(self, name: str) -> int:
        """Return the net id of a named net."""
        try:
            return self._name_to_net[name]
        except KeyError as exc:
            raise KeyError(f"no net named {name!r} in circuit {self.name!r}") from exc

    def has_net(self, name: str) -> bool:
        return name in self._name_to_net

    def driver_of(self, net: int) -> Optional[Gate]:
        """Return the gate driving ``net`` or ``None`` for primary inputs."""
        gi = self._driver.get(net)
        return None if gi is None else self.gates[gi]

    def driver_index(self, net: int) -> Optional[int]:
        """Return the index (into :attr:`gates`) of the gate driving ``net``."""
        return self._driver.get(net)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    # ------------------------------------------------------------------ #
    # Fan-out / levels / cones
    # ------------------------------------------------------------------ #
    def fanout_gates(self, net: int) -> List[int]:
        """Indices of gates that read ``net``."""
        return self._fanout_table()[net]

    def _fanout_table(self) -> List[List[int]]:
        if self._fanout is None:
            table: List[List[int]] = [[] for _ in range(self.n_nets)]
            for gi, gate in enumerate(self.gates):
                for src in gate.inputs:
                    table[src].append(gi)
            self._fanout = table
        return self._fanout

    def levels(self) -> List[int]:
        """Logic level of every net (primary inputs are level 0)."""
        if self._levels is None:
            lvl = [0] * self.n_nets
            for gate in self.gates:
                lvl[gate.output] = 1 + max((lvl[src] for src in gate.inputs), default=0)
            self._levels = lvl
        return self._levels

    @property
    def depth(self) -> int:
        """Maximum logic level over all nets (0 for a circuit with no gates)."""
        return max(self.levels(), default=0)

    def structural_hash(self) -> str:
        """Content hash of the network *structure* (net names excluded).

        Two circuits hash equally iff they have the same net count, the same
        primary input/output net ids and an identical gate list (type, output
        net, input nets, in order) — isomorphic rebuilds of the same netlist
        share a hash even when their net names differ.  This is the key of the
        process-level lowering cache (:func:`repro.lowered.compile_lowered`):
        engines compiled for one instance are reused by every structurally
        identical instance.  The digest is deterministic across processes and
        cached on the instance (circuits are immutable by convention; as a
        guard against in-place mutation the memo is discarded when the gate
        count changed, mirroring the compiled-engine caches).
        """
        cached = getattr(self, "_structural_hash", None)
        if cached is not None and cached[0] != len(self.gates):
            cached = None
        if cached is None:
            hasher = hashlib.blake2b(digest_size=20)
            header = (
                f"repro-netlist-v1|{self.n_nets}"
                f"|{','.join(map(str, self.inputs))}"
                f"|{','.join(map(str, self.outputs))}"
            )
            hasher.update(header.encode("ascii"))
            for gate in self.gates:
                hasher.update(
                    f"\n{gate.gate_type.value}:{gate.output}:"
                    f"{','.join(map(str, gate.inputs))}".encode("ascii")
                )
            cached = (len(self.gates), hasher.hexdigest())
            self._structural_hash = cached
        return cached[1]

    def transitive_fanout_gates(self, net: int) -> List[int]:
        """Gate indices in the transitive fan-out cone of ``net``, in
        topological order.  This is the set of gates that must be resimulated
        when a fault is injected at ``net``."""
        fanout = self._fanout_table()
        direct = fanout[net]
        if not direct:
            return []
        affected_nets = {net}
        cone: List[int] = []
        # Gates are already topologically ordered, so a single forward sweep
        # starting at the first direct fan-out gate collects the cone in
        # evaluation order.
        for gi in range(min(direct), self.n_gates):
            gate = self.gates[gi]
            if any(src in affected_nets for src in gate.inputs):
                cone.append(gi)
                affected_nets.add(gate.output)
        return cone

    def transitive_fanin_nets(self, net: int) -> List[int]:
        """All net ids (including ``net``) in the transitive fan-in cone of ``net``."""
        seen = {net}
        stack = [net]
        while stack:
            current = stack.pop()
            gate = self.driver_of(current)
            if gate is None:
                continue
            for src in gate.inputs:
                if src not in seen:
                    seen.add(src)
                    stack.append(src)
        return sorted(seen)

    def support_inputs(self, net: int) -> List[int]:
        """Primary inputs in the transitive fan-in cone of ``net``."""
        cone = set(self.transitive_fanin_nets(net))
        return [pi for pi in self.inputs if pi in cone]

    # ------------------------------------------------------------------ #
    # Interchange
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable netlist dictionary (exact round trip).

        The format is the inline-netlist circuit reference of the job-spec
        API (:mod:`repro.api`): plain lists and strings only, gates encoded
        as ``[gate_type, output_net, [input_nets...]]`` triples in
        topological order.  :meth:`from_dict` rebuilds an identical circuit
        (same ids, names and :meth:`structural_hash`).
        """
        return {
            "name": self.name,
            "net_names": list(self.net_names),
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "gates": [
                [gate.gate_type.value, gate.output, list(gate.inputs)]
                for gate in self.gates
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Circuit":
        """Rebuild a circuit from :meth:`to_dict` output (validated)."""
        if not isinstance(data, dict):
            raise CircuitError(f"netlist dict expected, got {type(data).__name__}")
        required = {"name", "net_names", "inputs", "outputs", "gates"}
        missing = required - set(data)
        if missing:
            raise CircuitError(f"netlist dict is missing fields: {sorted(missing)}")
        unknown = set(data) - required
        if unknown:
            raise CircuitError(f"netlist dict has unknown fields: {sorted(unknown)}")
        for k in ("net_names", "inputs", "outputs", "gates"):
            if not isinstance(data[k], list):
                raise CircuitError(f"netlist {k!r} must be a list, got {type(data[k]).__name__}")
        gates = []
        for entry in data["gates"]:
            if not isinstance(entry, list) or len(entry) != 3:
                raise CircuitError(
                    f"gate entry must be [type, output, inputs], got {entry!r}"
                )
            try:
                gates.append(
                    Gate(GateType(entry[0]), int(entry[1]), tuple(int(i) for i in entry[2]))
                )
            except (ValueError, TypeError) as exc:
                raise CircuitError(f"malformed gate entry in netlist dict: {exc}") from exc
        try:
            inputs = tuple(int(i) for i in data["inputs"])
            outputs = tuple(int(i) for i in data["outputs"])
        except (ValueError, TypeError) as exc:
            raise CircuitError(f"malformed net id in netlist dict: {exc}") from exc
        return cls(
            name=str(data["name"]),
            net_names=[str(n) for n in data["net_names"]],
            inputs=inputs,
            outputs=outputs,
            gates=gates,
        )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def gate_type_counts(self) -> Dict[GateType, int]:
        counts: Dict[GateType, int] = {}
        for gate in self.gates:
            counts[gate.gate_type] = counts.get(gate.gate_type, 0) + 1
        return counts

    def summary(self) -> str:
        """One-line human readable summary of the circuit."""
        return (
            f"{self.name}: {self.n_inputs} inputs, {self.n_outputs} outputs, "
            f"{self.n_gates} gates, depth {self.depth}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Circuit({self.summary()})"


def topologically_sort_gates(
    n_nets: int, inputs: Sequence[int], gates: Iterable[Gate]
) -> List[Gate]:
    """Return ``gates`` re-ordered topologically (Kahn's algorithm).

    Used by netlist readers that encounter gates in arbitrary order.  Raises
    :class:`CircuitError` if the network is cyclic or a net is undriven.
    """
    gates = list(gates)
    driver: Dict[int, int] = {}
    for gi, gate in enumerate(gates):
        if gate.output in driver:
            raise CircuitError(f"net {gate.output} has more than one driver")
        driver[gate.output] = gi

    ready_nets = set(inputs)
    remaining_deps = []
    dependents: Dict[int, List[int]] = {}
    for gi, gate in enumerate(gates):
        deps = {src for src in gate.inputs if src not in ready_nets}
        remaining_deps.append(len(deps))
        for src in deps:
            dependents.setdefault(src, []).append(gi)

    order: List[Gate] = []
    frontier = [gi for gi, ndeps in enumerate(remaining_deps) if ndeps == 0]
    while frontier:
        gi = frontier.pop()
        gate = gates[gi]
        order.append(gate)
        for succ in dependents.get(gate.output, []):
            remaining_deps[succ] -= 1
            if remaining_deps[succ] == 0:
                frontier.append(succ)
    if len(order) != len(gates):
        raise CircuitError(
            "circuit contains a combinational cycle or reads an undriven net"
        )
    return order
