"""Signal probability propagation (COP / arithmetical embedding).

Given an input-probability tuple ``X`` the *signal probability* of a net is
the probability that it carries a logical 1 when patterns are drawn according
to ``X``.  Exact computation is NP-hard because of reconvergent fan-out
(Parker–McCluskey), so production estimators — PROTEST among them — propagate
probabilities gate by gate under a local independence assumption.  That
propagation is exactly the paper's arithmetical embedding (formulas (4)-(6))
evaluated at ``X`` and is implemented here.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..circuit.gates import eval_probability
from ..circuit.netlist import Circuit

__all__ = [
    "signal_probabilities",
    "signal_probability",
    "input_probability_vector",
    "validate_input_override",
]


def validate_input_override(circuit: Circuit, net: int, value: float) -> float:
    """Validate one override entry and return its probability as ``float``.

    Shared by the scalar path, the batched engine and the row-by-row fallback
    driver, so the two analysis implementations cannot drift in what they
    accept: only primary inputs may be pinned (pinning a driven net would
    silently shadow its driving gate) and the pinned value must be a
    probability.
    """
    if circuit.driver_index(net) is not None:
        raise ValueError(
            f"override on net {circuit.net_name(net)!r}: only primary inputs "
            "can be overridden (pinning a driven net would silently shadow "
            "its driving gate)"
        )
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError("override probabilities must lie in [0, 1]")
    return value


def input_probability_vector(
    circuit: Circuit, probabilities: Mapping[str, float] | Sequence[float] | float
) -> np.ndarray:
    """Normalise different ways of specifying input probabilities.

    Accepts a scalar (used for every input), a sequence ordered like
    :attr:`Circuit.inputs`, or a mapping from input net names to probabilities
    (unlisted inputs default to 0.5).
    """
    n = circuit.n_inputs
    if isinstance(probabilities, (int, float)):
        vector = np.full(n, float(probabilities))
    elif isinstance(probabilities, Mapping):
        vector = np.full(n, 0.5)
        names = {circuit.net_name(net): idx for idx, net in enumerate(circuit.inputs)}
        for name, value in probabilities.items():
            if name not in names:
                raise KeyError(f"{name!r} is not a primary input of {circuit.name!r}")
            vector[names[name]] = float(value)
    else:
        vector = np.asarray(list(probabilities), dtype=float)
        if vector.shape != (n,):
            raise ValueError(f"expected {n} probabilities, got {vector.shape}")
    # Written so that NaN fails too: it compares false with everything.
    if not np.all((vector >= 0.0) & (vector <= 1.0)):
        raise ValueError("input probabilities must lie in [0, 1]")
    return vector


def signal_probabilities(
    circuit: Circuit,
    input_probs: Mapping[str, float] | Sequence[float] | float = 0.5,
    overrides: Optional[Dict[int, float]] = None,
) -> np.ndarray:
    """Signal probability of every net under the COP independence assumption.

    Args:
        circuit: network to analyse.
        input_probs: input probability specification (see
            :func:`input_probability_vector`).
        overrides: optional mapping ``net id -> probability`` pinning primary
            inputs (used by the PREPARE step to compute cofactors with one
            input pinned to 0 or 1).  Overriding a net that is driven by a
            gate is rejected (it would silently shadow the driving gate), as
            is overriding an input that ``input_probs`` also names explicitly
            (the override would silently shadow the mapping entry).

    Returns:
        array of length ``circuit.n_nets`` with the probability of each net
        being 1.
    """
    vector = input_probability_vector(circuit, input_probs)
    probs = np.zeros(circuit.n_nets, dtype=float)
    for idx, net in enumerate(circuit.inputs):
        probs[net] = vector[idx]
    if overrides:
        named = (
            {circuit.net_index(name) for name in input_probs}
            if isinstance(input_probs, Mapping)
            else set()
        )
        for net, value in overrides.items():
            if net in named:
                raise ValueError(
                    f"input {circuit.net_name(net)!r} is both named in "
                    "input_probs and overridden; drop one of the two "
                    "(the override would silently shadow the named value)"
                )
            probs[net] = validate_input_override(circuit, net, value)
    for gate in circuit.gates:
        operands = [probs[src] for src in gate.inputs]
        probs[gate.output] = eval_probability(gate.gate_type, operands)
    return probs


def signal_probability(
    circuit: Circuit,
    net: int | str,
    input_probs: Mapping[str, float] | Sequence[float] | float = 0.5,
) -> float:
    """Signal probability of a single (possibly named) net."""
    if isinstance(net, str):
        net = circuit.net_index(net)
    return float(signal_probabilities(circuit, input_probs)[net])
