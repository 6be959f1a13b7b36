"""Reshape-view kernels: whole dimension-steps as in-place view pairs.

# repro: columnar-hot-path

A dimension-``b`` exchange on a whole-network column needs no gather
permutation: the nodes with bit ``b`` clear and the nodes with bit ``b``
set alternate in runs of ``2**b``, so reshaping a length-``L`` column to
``(L >> (b+1), 2, 1 << b)`` puts the two sides of every dimension-``b``
edge on axis 1.  A whole step then executes as one in-place batched
operation on the two sides, with no index arrays and no gathered copies.

These views are the kernels of the array backend
(:mod:`repro.core.replay`).  Reshaping a C-contiguous column is always a
view; for any other column :func:`bit_pair_views` and
:func:`dir_bit_views` verify the result with ``np.shares_memory``, so a
silent copy (which would discard the in-place update) is impossible.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bit_pair_views",
    "dir_bit_views",
]


def _reshaped_view(col: np.ndarray, shape: tuple) -> np.ndarray:
    """Reshape ``col`` asserting the result still aliases its memory."""
    view = col.reshape(shape)
    if col.flags.c_contiguous:
        return view
    if not np.shares_memory(view, col):
        raise ValueError(
            f"reshape to {shape} copied a columnar view (dtype {col.dtype}, "
            f"strides {col.strides}); in-place steps would be lost"
        )
    return view


def bit_pair_views(col: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a column into the two sides of every dimension-``b`` edge.

    ``col`` has length ``L`` along axis 0 (a power of two > ``2**b``);
    trailing axes (e.g. a block axis) ride along.  Returns ``(lo, hi)``
    views — ``lo[r]`` is the node with bit ``b`` clear of pair ``r``,
    ``hi[r]`` its bit-``b`` partner — so one batched in-place combine on
    the pair realizes the whole exchange round with no gathers.
    """
    length = col.shape[0]
    if b < 0 or (1 << (b + 1)) > length:
        raise ValueError(
            f"bit {b} out of range for a length-{length} column"
        )
    view = _reshaped_view(
        col, (length >> (b + 1), 2, 1 << b) + col.shape[1:]
    )
    return view[:, 0], view[:, 1]


def dir_bit_views(
    col: np.ndarray, dir_bit: int, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a column by direction bit ``dir_bit`` *and* pair bit ``dim``.

    Requires ``dir_bit > dim`` (which every generated compare-exchange
    schedule satisfies: merge direction bits sit above the dimensions
    they direct).  Returns ``(asc_lo, asc_hi, desc_lo, desc_hi)`` views:
    the ascending (bit ``dir_bit`` clear) and descending (set) pair
    sides, each split as in :func:`bit_pair_views`.
    """
    length = col.shape[0]
    if dir_bit <= dim:
        raise ValueError(
            f"dir_bit {dir_bit} must exceed the pair dimension {dim}"
        )
    if (1 << (dir_bit + 1)) > length:
        raise ValueError(
            f"direction bit {dir_bit} out of range for a length-{length} column"
        )
    view = _reshaped_view(
        col,
        (
            length >> (dir_bit + 1),
            2,
            1 << (dir_bit - dim - 1),
            2,
            1 << dim,
        )
        + col.shape[1:],
    )
    return view[:, 0, :, 0], view[:, 0, :, 1], view[:, 1, :, 0], view[:, 1, :, 1]
