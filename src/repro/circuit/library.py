"""Reusable arithmetic / datapath building blocks.

The benchmark circuit generators in :mod:`repro.circuits` are assembled from
these gate-level blocks: half/full adders, ripple-carry adders and subtractors,
and balanced AND/OR/XOR reduction trees.  All blocks take a
:class:`~repro.circuit.builder.CircuitBuilder` plus signal handles and return
signal handles, so they compose freely.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .builder import CircuitBuilder

__all__ = [
    "half_adder",
    "full_adder",
    "ripple_carry_adder",
    "ripple_borrow_subtractor",
    "parity_tree",
    "and_tree",
    "or_tree",
]


def half_adder(builder: CircuitBuilder, a: int, b: int) -> Tuple[int, int]:
    """Return ``(sum, carry)`` of a half adder."""
    return builder.xor(a, b), builder.and_(a, b)


def full_adder(builder: CircuitBuilder, a: int, b: int, carry_in: int) -> Tuple[int, int]:
    """Return ``(sum, carry_out)`` of a full adder built from two half adders."""
    s1, c1 = half_adder(builder, a, b)
    s2, c2 = half_adder(builder, s1, carry_in)
    return s2, builder.or_(c1, c2)


def ripple_carry_adder(
    builder: CircuitBuilder,
    a: Sequence[int],
    b: Sequence[int],
    carry_in: int | None = None,
) -> Tuple[List[int], int]:
    """Return ``(sum_bits, carry_out)`` of an n-bit ripple-carry adder.

    ``a`` and ``b`` are little-endian bit vectors of equal width.
    """
    if len(a) != len(b):
        raise ValueError("operand widths differ")
    carry = carry_in if carry_in is not None else builder.const0()
    sums: List[int] = []
    for bit_a, bit_b in zip(a, b):
        s, carry = full_adder(builder, bit_a, bit_b, carry)
        sums.append(s)
    return sums, carry


def ripple_borrow_subtractor(
    builder: CircuitBuilder,
    a: Sequence[int],
    b: Sequence[int],
) -> Tuple[List[int], int]:
    """Return ``(difference_bits, borrow_out)`` of ``a - b`` (little endian).

    Implemented as ``a + ~b + 1``; ``borrow_out`` is the complement of the
    final carry, i.e. it is 1 exactly when ``a < b`` (unsigned).
    """
    if len(a) != len(b):
        raise ValueError("operand widths differ")
    one = builder.const1()
    b_inverted = [builder.not_(bit) for bit in b]
    diff, carry_out = ripple_carry_adder(builder, list(a), b_inverted, carry_in=one)
    return diff, builder.not_(carry_out)


def parity_tree(builder: CircuitBuilder, bits: Sequence[int]) -> int:
    """Balanced XOR tree computing the parity of ``bits``."""
    return _balanced_tree(builder, list(bits), builder.xor)


def and_tree(builder: CircuitBuilder, bits: Sequence[int]) -> int:
    """Balanced AND tree (keeps gate fan-in at 2 so depth grows, like the
    wide decoders responsible for random-pattern resistance)."""
    return _balanced_tree(builder, list(bits), builder.and_)


def or_tree(builder: CircuitBuilder, bits: Sequence[int]) -> int:
    """Balanced OR tree."""
    return _balanced_tree(builder, list(bits), builder.or_)


def _balanced_tree(builder: CircuitBuilder, bits: List[int], op) -> int:
    if not bits:
        raise ValueError("cannot reduce an empty signal list")
    while len(bits) > 1:
        next_level: List[int] = []
        for i in range(0, len(bits) - 1, 2):
            next_level.append(op(bits[i], bits[i + 1]))
        if len(bits) % 2:
            next_level.append(bits[-1])
        bits = next_level
    return bits[0]
