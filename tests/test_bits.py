"""Unit and property tests for the bit-manipulation kernel."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import _bits as B

U32 = st.integers(min_value=0, max_value=2**32 - 1)
IDX = st.integers(min_value=0, max_value=31)


class TestScalarBasics:
    def test_bit_reads_binary_digits(self):
        assert [B.bit(0b1010, i) for i in range(4)] == [0, 1, 0, 1]

    def test_set_clear_flip(self):
        assert B.set_bit(0, 3) == 8
        assert B.clear_bit(0b1111, 1) == 0b1101
        assert B.flip_bit(0b1000, 3) == 0

    def test_mask_widths(self):
        assert B.mask(0) == 0
        assert B.mask(1) == 1
        assert B.mask(8) == 255

    def test_mask_rejects_negative(self):
        with pytest.raises(ValueError):
            B.mask(-1)

    def test_extract_insert_field(self):
        x = 0b110_0101
        assert B.extract_field(x, 0, 4) == 0b0101
        assert B.extract_field(x, 4, 3) == 0b110
        assert B.insert_field(x, 0, 4, 0b1111) == 0b110_1111

    def test_insert_truncates_value(self):
        assert B.insert_field(0, 0, 2, 0b111) == 0b11

    def test_swap_fields(self):
        x = 0b101_010
        assert B.swap_fields(x, 0, 3, 3) == 0b010_101

    def test_swap_fields_rejects_overlap(self):
        with pytest.raises(ValueError):
            B.swap_fields(0, 0, 2, 3)

    def test_swap_fields_zero_width(self):
        assert B.swap_fields(7, 0, 0, 0) == 7

    def test_popcount_and_hamming(self):
        assert B.popcount(0) == 0
        assert B.popcount(0b1011) == 3
        assert B.hamming(0b1100, 0b1010) == 2

    def test_to_from_bits_roundtrip(self):
        assert B.to_bits(0b1011, 5) == (0, 1, 0, 1, 1)
        assert B.from_bits((0, 1, 0, 1, 1)) == 0b1011

    def test_bit_string(self):
        assert B.bit_string(5, 5) == "00101"


class TestScalarProperties:
    @given(U32, IDX)
    def test_flip_is_involution(self, x, i):
        assert B.flip_bit(B.flip_bit(x, i), i) == x

    @given(U32, IDX)
    def test_set_then_read(self, x, i):
        assert B.bit(B.set_bit(x, i), i) == 1
        assert B.bit(B.clear_bit(x, i), i) == 0

    @given(U32)
    def test_hamming_to_zero_is_popcount(self, x):
        assert B.hamming(x, 0) == B.popcount(x)

    @given(U32, U32)
    def test_hamming_symmetric(self, x, y):
        assert B.hamming(x, y) == B.hamming(y, x)

    @given(U32, st.integers(min_value=0, max_value=24), st.integers(min_value=0, max_value=8))
    def test_extract_insert_roundtrip(self, x, lo, width):
        val = B.extract_field(x, lo, width)
        assert B.insert_field(x, lo, width, val) == x

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_gray_code_roundtrip(self, i):
        assert B.gray_rank(B.gray_code(i)) == i

    @given(st.integers(min_value=0, max_value=2**16 - 2))
    def test_gray_neighbors_differ_one_bit(self, i):
        assert B.hamming(B.gray_code(i), B.gray_code(i + 1)) == 1

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_interleave_roundtrip(self, a, b):
        assert B.deinterleave(B.interleave(a, b, 8), 8) == (a, b)

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_interleave_bit_placement(self, a, b):
        x = B.interleave(a, b, 8)
        for i in range(8):
            assert B.bit(x, 2 * i) == B.bit(b, i)
            assert B.bit(x, 2 * i + 1) == B.bit(a, i)


class TestVectorized:
    def test_bit_v_matches_scalar(self):
        xs = np.arange(64)
        for i in range(6):
            assert list(B.bit_v(xs, i)) == [B.bit(int(x), i) for x in xs]

    def test_flip_bit_v_matches_scalar(self):
        xs = np.arange(64)
        for i in range(6):
            assert list(B.flip_bit_v(xs, i)) == [B.flip_bit(int(x), i) for x in xs]

    def test_extract_field_v_matches_scalar(self):
        xs = np.arange(256)
        assert list(B.extract_field_v(xs, 2, 4)) == [
            B.extract_field(int(x), 2, 4) for x in xs
        ]

    def test_insert_field_v_matches_scalar(self):
        xs = np.arange(256)
        got = B.insert_field_v(xs, 1, 3, xs % 8)
        exp = [B.insert_field(int(x), 1, 3, int(x) % 8) for x in xs]
        assert list(got) == exp

    def test_swap_fields_v_matches_scalar(self):
        xs = np.arange(1 << 7)
        got = B.swap_fields_v(xs, 0, 3, 3)
        exp = [B.swap_fields(int(x), 0, 3, 3) for x in xs]
        assert list(got) == exp

    def test_swap_fields_v_rejects_overlap(self):
        with pytest.raises(ValueError):
            B.swap_fields_v(np.arange(4), 0, 1, 3)

    def test_non_integer_input_rejected(self):
        with pytest.raises(TypeError):
            B.bit_v(np.array([0.5, 1.5]), 0)

    def test_iter_neighbors_xor(self):
        assert list(B.iter_neighbors_xor(0, range(3))) == [1, 2, 4]
