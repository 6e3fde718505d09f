"""Bit-level helpers used throughout the library.

The sensing pipeline treats circuit outputs as vectors of bits (path
endpoints), so conversions between integers, bit vectors and Hamming
weights are needed in many places.  Bit vectors are little-endian:
index 0 is the least significant bit.
"""

from __future__ import annotations

from typing import List, Sequence


def int_to_bits(value: int, width: int) -> List[int]:
    """Expand ``value`` into ``width`` little-endian bits.

    >>> int_to_bits(0b1011, 6)
    [1, 1, 0, 1, 0, 0]
    """
    if value < 0:
        raise ValueError("value must be non-negative, got %d" % value)
    if width < 0:
        raise ValueError("width must be non-negative, got %d" % width)
    if value >> width:
        raise ValueError(
            "value %d does not fit in %d bits" % (value, width)
        )
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Pack a little-endian bit sequence into an integer.

    >>> bits_to_int([1, 1, 0, 1])
    11
    """
    value = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError("bit %d has non-binary value %r" % (i, bit))
        value |= bit << i
    return value


def hamming_weight(value: int) -> int:
    """Number of set bits of a non-negative integer (arbitrary size)."""
    if value < 0:
        raise ValueError("value must be non-negative, got %d" % value)
    return bin(value).count("1")


def hamming_distance(a: int, b: int) -> int:
    """Number of differing bits between two non-negative integers."""
    return hamming_weight(a ^ b)


def parity(value: int) -> int:
    """XOR of all bits of ``value`` (0 or 1)."""
    return hamming_weight(value) & 1
