"""Bit-manipulation kernel shared by all addressing code.

Every topology in this library addresses nodes as unsigned integers whose
binary representation is split into *fields* (class bit, cluster ID, node
ID, …).  This module provides the scalar primitives plus NumPy-vectorized
equivalents used by the array backend, so that the field algebra lives in
exactly one place.

Scalar functions accept and return Python ``int``; vectorized functions
(suffixed ``_v``) accept anything ``numpy.asarray`` can digest and return
``numpy.ndarray`` of an integer dtype.  All bit indices are zero-based from
the least-significant bit.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "bit",
    "set_bit",
    "clear_bit",
    "flip_bit",
    "mask",
    "extract_field",
    "insert_field",
    "swap_fields",
    "hamming",
    "popcount",
    "to_bits",
    "from_bits",
    "bit_string",
    "gray_code",
    "gray_rank",
    "interleave",
    "deinterleave",
    "bit_v",
    "flip_bit_v",
    "extract_field_v",
    "insert_field_v",
    "swap_fields_v",
    "iter_neighbors_xor",
]


def bit(x: int, i: int) -> int:
    """Return bit ``i`` of ``x`` (0 or 1)."""
    return (x >> i) & 1


def set_bit(x: int, i: int) -> int:
    """Return ``x`` with bit ``i`` set to 1."""
    return x | (1 << i)


def clear_bit(x: int, i: int) -> int:
    """Return ``x`` with bit ``i`` cleared to 0."""
    return x & ~(1 << i)


def flip_bit(x: int, i: int) -> int:
    """Return ``x`` with bit ``i`` complemented (the XOR neighbor)."""
    return x ^ (1 << i)


def mask(width: int) -> int:
    """Return a mask of ``width`` low-order ones; ``mask(0) == 0``."""
    if width < 0:
        raise ValueError(f"field width must be non-negative, got {width}")
    return (1 << width) - 1


def extract_field(x: int, lo: int, width: int) -> int:
    """Return the ``width``-bit field of ``x`` starting at bit ``lo``."""
    return (x >> lo) & mask(width)


def insert_field(x: int, lo: int, width: int, value: int) -> int:
    """Return ``x`` with the ``width``-bit field at ``lo`` replaced by ``value``.

    ``value`` is truncated to ``width`` bits.
    """
    m = mask(width)
    return (x & ~(m << lo)) | ((value & m) << lo)


def swap_fields(x: int, lo_a: int, lo_b: int, width: int) -> int:
    """Return ``x`` with the two ``width``-bit fields at ``lo_a``/``lo_b`` swapped.

    The fields must not overlap.  This is the dual-cube ``u*`` data
    arrangement primitive (swap cluster-ID and node-ID fields).
    """
    if abs(lo_a - lo_b) < width:
        raise ValueError(
            f"fields overlap: lo_a={lo_a}, lo_b={lo_b}, width={width}"
        )
    a = extract_field(x, lo_a, width)
    b = extract_field(x, lo_b, width)
    x = insert_field(x, lo_a, width, b)
    return insert_field(x, lo_b, width, a)


def popcount(x: int) -> int:
    """Number of set bits in ``x`` (x >= 0)."""
    return x.bit_count()


def hamming(u: int, v: int) -> int:
    """Hamming distance between the binary representations of ``u`` and ``v``."""
    return (u ^ v).bit_count()


def to_bits(x: int, width: int) -> tuple[int, ...]:
    """Return ``width`` bits of ``x`` as a tuple, most-significant first."""
    return tuple(bit(x, i) for i in range(width - 1, -1, -1))


def from_bits(bits: Iterable[int]) -> int:
    """Inverse of :func:`to_bits`: most-significant-first bit sequence -> int."""
    x = 0
    for b in bits:
        x = (x << 1) | (b & 1)
    return x


def bit_string(x: int, width: int) -> str:
    """Binary string of ``x`` zero-padded to ``width`` characters."""
    return format(x, f"0{width}b")


def gray_code(i: int) -> int:
    """The ``i``-th binary-reflected Gray code."""
    return i ^ (i >> 1)


def gray_rank(g: int) -> int:
    """Inverse of :func:`gray_code`."""
    i = 0
    while g:
        i ^= g
        g >>= 1
    return i


def interleave(a: int, b: int, width: int) -> int:
    """Interleave two ``width``-bit values: bit i of ``a`` -> bit 2i+1, of ``b`` -> bit 2i.

    Used by the recursive-presentation isomorphism, where cluster-ID and
    node-ID fields become the odd/even dimension sets.
    """
    out = 0
    for i in range(width):
        out |= bit(b, i) << (2 * i)
        out |= bit(a, i) << (2 * i + 1)
    return out


def deinterleave(x: int, width: int) -> tuple[int, int]:
    """Inverse of :func:`interleave`: return ``(a, b)`` from the interleaved value."""
    a = 0
    b = 0
    for i in range(width):
        b |= bit(x, 2 * i) << i
        a |= bit(x, 2 * i + 1) << i
    return a, b


def iter_neighbors_xor(x: int, dims: Iterable[int]) -> Iterator[int]:
    """Yield ``x ^ (1 << d)`` for each dimension ``d`` in ``dims``."""
    for d in dims:
        yield x ^ (1 << d)


# ---------------------------------------------------------------------------
# Vectorized equivalents.  These operate on whole node-index arrays at once,
# for the arrangement and plan-compile index arithmetic, without
# Python-level loops.
# ---------------------------------------------------------------------------


def _as_int_array(x) -> np.ndarray:
    arr = np.asarray(x)
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"expected an integer array, got dtype {arr.dtype}")
    return arr


def bit_v(x, i: int) -> np.ndarray:
    """Vectorized :func:`bit`."""
    return (_as_int_array(x) >> i) & 1


def flip_bit_v(x, i: int) -> np.ndarray:
    """Vectorized :func:`flip_bit` — the dimension-``i`` exchange permutation."""
    arr = _as_int_array(x)
    return arr ^ arr.dtype.type(1 << i)


def extract_field_v(x, lo: int, width: int) -> np.ndarray:
    """Vectorized :func:`extract_field`."""
    arr = _as_int_array(x)
    return (arr >> lo) & arr.dtype.type(mask(width))


def insert_field_v(x, lo: int, width: int, value) -> np.ndarray:
    """Vectorized :func:`insert_field`."""
    arr = _as_int_array(x)
    m = arr.dtype.type(mask(width))
    val = np.asarray(value, dtype=arr.dtype) & m
    return (arr & ~(m << lo)) | (val << lo)


def swap_fields_v(x, lo_a: int, lo_b: int, width: int) -> np.ndarray:
    """Vectorized :func:`swap_fields`."""
    if abs(lo_a - lo_b) < width:
        raise ValueError(
            f"fields overlap: lo_a={lo_a}, lo_b={lo_b}, width={width}"
        )
    arr = _as_int_array(x)
    a = extract_field_v(arr, lo_a, width)
    b = extract_field_v(arr, lo_b, width)
    out = insert_field_v(arr, lo_a, width, b)
    return insert_field_v(out, lo_b, width, a)
