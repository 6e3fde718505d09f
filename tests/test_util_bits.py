"""Unit and property tests for repro.util.bits."""

import pytest
from hypothesis import given, strategies as st

from repro.util.bits import (
    bits_to_int,
    hamming_distance,
    hamming_weight,
    int_to_bits,
    parity,
)


class TestIntToBits:
    def test_simple_expansion(self):
        assert int_to_bits(0b1011, 6) == [1, 1, 0, 1, 0, 0]

    def test_zero(self):
        assert int_to_bits(0, 4) == [0, 0, 0, 0]

    def test_zero_width(self):
        assert int_to_bits(0, 0) == []

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            int_to_bits(1, -1)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    def test_max_value_fits(self):
        assert int_to_bits(15, 4) == [1, 1, 1, 1]


class TestBitsToInt:
    def test_simple(self):
        assert bits_to_int([1, 1, 0, 1]) == 11

    def test_empty(self):
        assert bits_to_int([]) == 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            bits_to_int([0, 2, 1])

    @given(st.integers(min_value=0, max_value=2**200), st.integers(201, 256))
    def test_roundtrip(self, value, width):
        assert bits_to_int(int_to_bits(value, width)) == value


class TestHamming:
    def test_weight_zero(self):
        assert hamming_weight(0) == 0

    def test_weight_large(self):
        assert hamming_weight((1 << 192) - 1) == 192

    def test_weight_rejects_negative(self):
        with pytest.raises(ValueError):
            hamming_weight(-5)

    def test_distance_self_is_zero(self):
        assert hamming_distance(12345, 12345) == 0

    def test_distance_complement(self):
        assert hamming_distance(0b1010, 0b0101) == 4

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_distance_symmetric(self, a, b):
        assert hamming_distance(a, b) == hamming_distance(b, a)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    )
    def test_distance_triangle_inequality(self, a, b, c):
        assert hamming_distance(a, c) <= (
            hamming_distance(a, b) + hamming_distance(b, c)
        )


class TestParity:
    def test_even(self):
        assert parity(0b1100) == 0

    def test_odd(self):
        assert parity(0b0111) == 1

    @given(st.integers(0, 2**64 - 1))
    def test_matches_weight(self, value):
        assert parity(value) == hamming_weight(value) % 2


