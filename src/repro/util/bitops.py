"""Bit-level packing helpers shared by the layout, logic and DRAM layers.

The vertical layout stores the *i*-th bit of every element of a vector in
one DRAM row (bit-slice ``i``).  These helpers convert between numpy
integer vectors and bit matrices of shape ``(width, n_elements)`` where row
``i`` holds bit ``i`` (LSB first), which is exactly the orientation used by
:class:`repro.dram.subarray.Subarray` rows.
"""

from __future__ import annotations

import functools

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


#: The three rounds of an 8x8 bit transpose inside a 64-bit word:
#: ``(shift, mask)`` swaps the masked bits with those ``shift`` above.
#: Every masked bit sits at most ``63 - shift`` (55, 47 and 31), so a
#: round moves no bit across a word boundary.
_TRANSPOSE8X8_ROUNDS = (
    (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
    (28, 0x00000000F0F0F0F0))
_NUMPY_ROUNDS = tuple((np.uint64(shift), np.uint64(mask))
                      for shift, mask in _TRANSPOSE8X8_ROUNDS)

#: Largest word count :func:`transpose8x8` transposes on one Python
#: int; above it the numpy rounds are faster.  Set at the measured
#: crossover: µs per call, numpy rounds vs one int, on a 2-vCPU Intel
#: Xeon with Python 3.11: 8 words 9.4 vs 2.4, 64 words 9.2 vs 4.3,
#: 256 words 11.1 vs 10.6, 384 words 20.1 vs 25.0, 4 096 words 42.6
#: vs 186, 131 072 words 1 319 vs 10 535.
TRANSPOSE_BIGINT_WORDS = 256


@functools.cache
def _bigint_rounds(n_words: int) -> tuple[tuple[int, int], ...]:
    """The rounds' masks repeated in each of ``n_words`` words (called
    only up to :data:`TRANSPOSE_BIGINT_WORDS`, which bounds the memo)."""
    every_word = ((1 << 64 * n_words) - 1) // ((1 << 64) - 1)
    return tuple((shift, mask * every_word)
                 for shift, mask in _TRANSPOSE8X8_ROUNDS)


def transpose8x8(words: np.ndarray) -> None:
    """Transpose every ``uint64`` of ``words`` in place as an 8x8 bit
    matrix (bit ``j`` of byte ``i`` <-> bit ``i`` of byte ``j``): swap
    the off-diagonal 1x1, 2x2 and 4x4 blocks in three rounds.

    Two strategies run the same rounds.  Up to
    :data:`TRANSPOSE_BIGINT_WORDS` words, all the words are one Python
    int (little-endian, word ``k`` at bits ``64k..64k+63``) and each
    round is three bigint operations: a round's masks keep every bit it
    moves inside its own word, so the words cannot disturb each other.
    Above it, each round is numpy operations over the array: about
    9 µs fixed cost, but 4-8x faster than the int at bulk sizes.
    """
    n_words = words.size
    if n_words > TRANSPOSE_BIGINT_WORDS:
        for shift, mask in _NUMPY_ROUNDS:
            swap = (words ^ (words >> shift)) & mask
            words ^= swap ^ (swap << shift)
        return
    value = int.from_bytes(words.astype("<u8", copy=False).tobytes(),
                           "little")
    for shift, mask in _bigint_rounds(n_words):
        swap = (value ^ (value >> shift)) & mask
        value ^= swap ^ (swap << shift)
    words[...] = np.frombuffer(value.to_bytes(8 * n_words, "little"),
                               dtype="<u8").reshape(words.shape)
