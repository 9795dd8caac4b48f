"""Bit-level packing helpers shared by the layout, logic and DRAM layers.

The vertical layout stores the *i*-th bit of every element of a vector in
one DRAM row (bit-slice ``i``).  These helpers convert between numpy
integer vectors and bit matrices of shape ``(width, n_elements)`` where row
``i`` holds bit ``i`` (LSB first), which is exactly the orientation used by
:class:`repro.dram.subarray.Subarray` rows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperationError


def mask_for_width(width: int) -> int:
    """Return the unsigned bit mask for ``width``-bit values (e.g. 0xFF for 8)."""
    if width < 1:
        raise OperationError(f"bit width must be >= 1, got {width}")
    return (1 << width) - 1


def to_unsigned(values: np.ndarray, width: int) -> np.ndarray:
    """Reinterpret (possibly signed) integers as ``width``-bit unsigned values.

    Negative inputs are mapped to their two's-complement encoding, which is
    the representation SIMDRAM stores in DRAM columns.
    """
    vals = np.asarray(values, dtype=np.int64)
    if width >= 64:  # all 64 bits are value bits; int64 carries the pattern
        return vals
    return vals & mask_for_width(width)


def to_signed(values: np.ndarray, width: int) -> np.ndarray:
    """Reinterpret ``width``-bit unsigned values as two's-complement signed."""
    shift = max(64 - width, 0)  # sign-extend from bit ``width - 1``
    return (to_unsigned(values, width) << shift) >> shift


def ints_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Transpose integers into a vertical bit matrix.

    Returns a boolean array of shape ``(width, len(values))``; row ``i``
    holds bit ``i`` (LSB first) of every element.  This is the software
    equivalent of the SIMDRAM transposition unit's horizontal-to-vertical
    direction.
    """
    vals = to_unsigned(values, width)
    shifts = np.arange(width, dtype=np.int64)[:, None]
    return ((vals[None, :] >> shifts) & 1).astype(bool)


def bits_to_ints(bits: np.ndarray, signed: bool = False) -> np.ndarray:
    """Inverse of :func:`ints_to_bits` (vertical-to-horizontal transposition).

    ``bits`` has shape ``(width, n)`` with row ``i`` = bit ``i`` (LSB first).
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim != 2:
        raise OperationError(f"expected 2-D bit matrix, got shape {bits.shape}")
    width = bits.shape[0]
    weights = (np.int64(1) << np.arange(width, dtype=np.int64))[:, None]
    vals = (bits.astype(np.int64) * weights).sum(axis=0)
    if signed:
        return to_signed(vals, width)
    return vals


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack bits along the last axis into little-endian bytes — the
    device's cell storage format: lane ``c`` is bit ``c % 8`` of byte
    ``c // 8``, and the padding bits of the last byte are zero."""
    return np.packbits(bits, axis=-1, bitorder="little")


def unpack_bits(packed: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the first ``n_bits`` as booleans."""
    return np.unpackbits(packed, axis=-1, count=n_bits,
                         bitorder="little").view(bool)


def packed_ones(n_bits: int) -> np.ndarray:
    """A packed row with every lane set and zero padding: XOR with it is
    NOT on packed rows, and it is what the ``C1`` control row reads as."""
    return pack_bits(np.ones(n_bits, dtype=bool))


_TRANSPOSE8X8_ROUNDS = tuple(
    (np.uint64(shift), np.uint64(mask)) for shift, mask in (
        (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
        (28, 0x00000000F0F0F0F0)))


def transpose8x8(words: np.ndarray) -> None:
    """Transpose every ``uint64`` of ``words`` in place as an 8x8 bit
    matrix (bit ``j`` of byte ``i`` <-> bit ``i`` of byte ``j``): swap
    the off-diagonal 1x1, 2x2 and 4x4 blocks in three rounds."""
    for shift, mask in _TRANSPOSE8X8_ROUNDS:
        swap = (words ^ (words >> shift)) & mask
        words ^= swap ^ (swap << shift)
