"""Seeded synthetic netlist generator.

The paper's evaluation tops out at a few thousand gates; the performance
work (compiled fault-simulation substrate, batched COP analysis, streaming
coverage) is sized for circuits two to three orders of magnitude larger.
This module generates random combinational netlists of configurable size,
depth, fan-in and gate mix, so benchmarks and stress tests have
10⁵–10⁶-gate workloads without redistributing proprietary netlists.

Construction guarantees (by construction, no post-hoc repair):

* **acyclic and levelizable** — gates are emitted level by level and every
  operand references an earlier net, so the gate list is topologically
  ordered as produced;
* **exact depth** — each gate's first operand comes from the immediately
  preceding level, so the deepest net sits at exactly ``depth`` levels;
* **deterministic per seed** — all randomness flows from one
  :func:`repro.api.spec.derive_seed` call in the dedicated ``"generate"``
  namespace, keyed by the structural parameters only (the display ``name``
  does not affect the structure), so the same :class:`GeneratorSpec`
  produces a bit-identical circuit in any process on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from ..circuit.gates import GateType
from ..circuit.netlist import Circuit, Gate

__all__ = ["GeneratorSpec", "generate_circuit", "DEFAULT_GATE_MIX"]

#: Default gate-type mix (relative weights).  Inverting and non-inverting
#: gates are balanced so signal probabilities stay away from the rails and
#: the generated circuits are neither trivially testable nor degenerate.
DEFAULT_GATE_MIX: Tuple[Tuple[str, float], ...] = (
    ("AND", 2.0),
    ("NAND", 2.0),
    ("OR", 2.0),
    ("NOR", 2.0),
    ("XOR", 1.0),
    ("NOT", 1.0),
)

#: Gate types a mix may name: every combinational type with at least one
#: input.  Constants are excluded — a tied-off net adds nothing to a random
#: workload and breaks the "first operand from the previous level" rule.
_MIX_TYPES = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF")

#: Gate types whose arity is fixed at one, whatever the fan-in range says.
_UNARY = frozenset({"NOT", "BUF"})


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one synthetic netlist (a value object, JSON-serializable).

    Attributes:
        n_inputs: number of primary inputs (≥ 2).
        n_gates: total gate count (≥ ``depth``, every level is non-empty).
        depth: exact logic depth of the generated circuit (≥ 1).
        min_fanin / max_fanin: inclusive fan-in range for multi-input gates
            (unary NOT/BUF always take one input).
        gate_mix: ``(gate_type, weight)`` pairs; weights are relative
            sampling probabilities and need not sum to 1.
        seed: the generator's own root seed (independent of any pipeline
            seed — the circuit is a function of this spec alone).
        name: display name of the generated circuit; has **no** influence
            on the structure or the sampled randomness.
    """

    n_inputs: int
    n_gates: int
    depth: int = 8
    min_fanin: int = 2
    max_fanin: int = 4
    gate_mix: Tuple[Tuple[str, float], ...] = DEFAULT_GATE_MIX
    seed: int = 1
    name: str = field(default="synth")

    def __post_init__(self) -> None:
        for attr in ("n_inputs", "n_gates", "depth", "min_fanin", "max_fanin", "seed"):
            value = getattr(self, attr)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{attr} must be an int, got {value!r}")
        if self.n_inputs < 2:
            raise ValueError(f"n_inputs must be >= 2, got {self.n_inputs}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.n_gates < self.depth:
            raise ValueError(
                f"n_gates ({self.n_gates}) must be >= depth ({self.depth}): "
                "every level holds at least one gate"
            )
        if not 1 <= self.min_fanin <= self.max_fanin:
            raise ValueError(
                f"fan-in range must satisfy 1 <= min <= max, got "
                f"[{self.min_fanin}, {self.max_fanin}]"
            )
        if self.max_fanin > 16:
            raise ValueError(f"max_fanin must be <= 16, got {self.max_fanin}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        try:
            mix = tuple((str(gate), float(weight)) for gate, weight in self.gate_mix)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"gate_mix must hold [gate type, weight] pairs: {exc}") from exc
        if not mix:
            raise ValueError("gate_mix must name at least one gate type")
        for gate, weight in mix:
            if gate not in _MIX_TYPES:
                raise ValueError(
                    f"gate_mix names unsupported type {gate!r}; "
                    f"expected one of {_MIX_TYPES}"
                )
            if not weight > 0.0:
                raise ValueError(f"gate_mix weight for {gate} must be > 0, got {weight}")
        if len({gate for gate, _ in mix}) != len(mix):
            raise ValueError("gate_mix lists a gate type twice")
        object.__setattr__(self, "gate_mix", mix)
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"name must be a non-empty string, got {self.name!r}")

    # ------------------------------------------------------------------ #
    @property
    def structural_label(self) -> str:
        """Seed-derivation label: every structural parameter, never the name."""
        mix = ";".join(f"{gate}:{weight!r}" for gate, weight in self.gate_mix)
        return (
            f"synth|i{self.n_inputs}|g{self.n_gates}|d{self.depth}"
            f"|f{self.min_fanin}-{self.max_fanin}|{mix}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON parameter dict (the payload of a generator source ref)."""
        return {
            "n_inputs": self.n_inputs,
            "n_gates": self.n_gates,
            "depth": self.depth,
            "min_fanin": self.min_fanin,
            "max_fanin": self.max_fanin,
            "gate_mix": [[gate, weight] for gate, weight in self.gate_mix],
            "seed": self.seed,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GeneratorSpec":
        """Rebuild a generator spec, rejecting unknown fields."""
        if not isinstance(data, Mapping):
            raise ValueError(f"generator params must be a mapping, got {type(data).__name__}")
        required = {"n_inputs", "n_gates"}
        optional = {"depth", "min_fanin", "max_fanin", "gate_mix", "seed", "name"}
        missing = required - set(data)
        if missing:
            raise ValueError(f"generator params missing fields: {sorted(missing)}")
        unknown = set(data) - required - optional
        if unknown:
            raise ValueError(f"generator params have unknown fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "gate_mix" in kwargs:
            try:
                kwargs["gate_mix"] = tuple(
                    (gate, weight) for gate, weight in kwargs["gate_mix"]
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"malformed gate_mix: {exc}") from exc
        return cls(**kwargs)

    def generate(self) -> Circuit:
        """Build the circuit this spec describes (see :func:`generate_circuit`)."""
        return generate_circuit(self)


def _level_sizes(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    """Partition ``n_gates`` into ``depth`` non-empty contiguous level blocks."""
    extra = spec.n_gates - spec.depth
    sizes = np.ones(spec.depth, dtype=np.int64)
    if extra:
        sizes += rng.multinomial(extra, np.full(spec.depth, 1.0 / spec.depth))
    return sizes


def generate_circuit(spec: GeneratorSpec) -> Circuit:
    """Generate the synthetic circuit described by ``spec``.

    Net layout is canonical (parser order): nets ``0 .. n_inputs-1`` are the
    primary inputs (named ``pi0 ..``), and gate ``i`` drives net
    ``n_inputs + i``.  Gate nets are unnamed to keep 10⁵-gate circuits
    light; primary outputs are all sink nets (gate outputs no other gate
    reads — the whole last level is always among them).
    """
    from ..api.spec import derive_seed  # lazy: repro.api imports this package

    rng = np.random.Generator(
        np.random.PCG64(derive_seed(spec.seed, "generate", spec.structural_label))
    )

    types = [GateType(gate) for gate, _ in spec.gate_mix]
    weights = np.array([weight for _, weight in spec.gate_mix], dtype=np.float64)
    probabilities = weights / weights.sum()
    unary_mask = np.array([t.value in _UNARY for t in types], dtype=bool)

    sizes = _level_sizes(spec, rng)
    n_inputs = spec.n_inputs
    gates: List[Gate] = []
    prev_start, prev_stop = 0, n_inputs  # net range of the previous level
    next_net = n_inputs
    for size in sizes.tolist():
        type_indices = rng.choice(len(types), size=size, p=probabilities)
        fanins = rng.integers(spec.min_fanin, spec.max_fanin + 1, size=size)
        fanins[unary_mask[type_indices]] = 1
        # First operand from the previous level (pins the gate's level);
        # the rest from anywhere earlier.  Sampled as one (size, max) block.
        max_fanin = int(fanins.max())
        operands = rng.integers(0, next_net, size=(size, max_fanin))
        operands[:, 0] = rng.integers(prev_start, prev_stop, size=size)
        for row in range(size):
            gates.append(
                Gate(
                    types[int(type_indices[row])],
                    next_net + row,
                    tuple(int(net) for net in operands[row, : fanins[row]]),
                )
            )
        prev_start, prev_stop = next_net, next_net + size
        next_net += size

    n_nets = n_inputs + spec.n_gates
    read = np.zeros(n_nets, dtype=bool)
    for gate in gates:
        for src in gate.inputs:
            read[src] = True
    outputs = tuple(
        int(net) for net in np.nonzero(~read[n_inputs:])[0] + n_inputs
    )

    net_names = [f"pi{i}" for i in range(n_inputs)] + [""] * spec.n_gates
    return Circuit(
        name=spec.name,
        net_names=net_names,
        inputs=tuple(range(n_inputs)),
        outputs=outputs,
        gates=gates,
    )
