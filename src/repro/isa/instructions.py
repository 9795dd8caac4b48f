"""The bbop ISA extension (paper §4).

SIMDRAM extends the host ISA with *bulk bitwise operation* instructions
that the CPU issues to the memory controller:

* ``bbop_trsp_init`` announces that an object will be used in vertical
  layout, so the transposition unit starts tracking it;
* one ``bbop_<op>`` instruction per SIMDRAM operation, carrying the
  destination and source base addresses, the vector size, and the
  element width.

Instructions encode to a fixed 128-bit little-endian word so tests can
round-trip them exactly as a real controller queue would see them.
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass
from typing import Callable

from repro.errors import IsaError

_STRUCT = struct.Struct("<HBBIIH2x")  # opcode, kind, width, dst, src0, ...
_FORMAT_BYTES = 16


class BbopKind(enum.IntEnum):
    """Instruction families of the bbop extension."""

    TRSP_INIT = 0
    UNARY = 1
    BINARY = 2
    TERNARY = 3


#: Registered operation opcodes (stable across the library).
OPCODES: dict[str, int] = {
    "trsp_init": 0,
    "abs": 1,
    "add": 2,
    "sub": 3,
    "mul": 4,
    "div": 5,
    "eq": 6,
    "gt": 7,
    "ge": 8,
    "max": 9,
    "min": 10,
    "if_else": 11,
    "relu": 12,
    "bitcount": 13,
    "and_red": 14,
    "or_red": 15,
    "xor_red": 16,
}

_OPCODE_NAMES = {code: name for name, code in OPCODES.items()}


def register_opcode(name: str) -> int:
    """Assign an opcode to a user-defined operation (paper: new ops need
    no hardware change, only a new µProgram and an opcode)."""
    if name in OPCODES:
        return OPCODES[name]
    code = max(OPCODES.values()) + 1
    OPCODES[name] = code
    _OPCODE_NAMES[code] = name
    return code


@dataclass(frozen=True)
class BbopInstruction:
    """One decoded bbop instruction."""

    op: str                 # operation name, e.g. "add" or "trsp_init"
    kind: BbopKind
    element_width: int      # bits per element
    dst: int                # destination base address (row units)
    src0: int               # first source base address
    src1: int = 0           # second source base (BINARY/TERNARY)
    src2: int = 0           # third source base (TERNARY)
    n_elements: int = 0     # vector length in elements

    def __post_init__(self) -> None:
        if self.op not in OPCODES:
            raise IsaError(f"unknown bbop operation {self.op!r}")
        if not 1 <= self.element_width <= 64:
            raise IsaError(
                f"element width must be in [1, 64], got {self.element_width}")
        for field_name in ("dst", "src0", "src1", "src2", "n_elements"):
            if getattr(self, field_name) < 0:
                raise IsaError(f"{field_name} must be non-negative")

    # ------------------------------------------------------------------
    # binary encoding
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Encode to the fixed 128-bit instruction word."""
        word0 = _STRUCT.pack(OPCODES[self.op], int(self.kind),
                             self.element_width, self.dst, self.src0,
                             self.n_elements & 0xFFFF)
        word1 = struct.pack("<IIII", self.src1, self.src2,
                            self.n_elements >> 16, 0)
        return (word0 + word1)[:2 * _FORMAT_BYTES]

    @classmethod
    def decode(cls, raw: bytes) -> "BbopInstruction":
        """Decode a 128-bit instruction word."""
        if len(raw) != 2 * _FORMAT_BYTES:
            raise IsaError(
                f"bbop instructions are {2 * _FORMAT_BYTES} bytes, "
                f"got {len(raw)}")
        opcode, kind, width, dst, src0, n_lo = _STRUCT.unpack(
            raw[:_FORMAT_BYTES])
        src1, src2, n_hi, _ = struct.unpack("<IIII", raw[_FORMAT_BYTES:])
        name = _OPCODE_NAMES.get(opcode)
        if name is None:
            raise IsaError(f"unknown opcode {opcode}")
        return cls(op=name, kind=BbopKind(kind), element_width=width,
                   dst=dst, src0=src0, src1=src1, src2=src2,
                   n_elements=(n_hi << 16) | n_lo)


def bbop_trsp_init(base: int, n_elements: int,
                   element_width: int) -> BbopInstruction:
    """Announce a vertically laid-out object to the transposition unit."""
    return BbopInstruction(op="trsp_init", kind=BbopKind.TRSP_INIT,
                           element_width=element_width, dst=base,
                           src0=base, n_elements=n_elements)


def bbop(op: str, dst: int, srcs: list[int], n_elements: int,
         element_width: int) -> BbopInstruction:
    """Build a compute bbop instruction with 1-3 sources."""
    if not 1 <= len(srcs) <= 3:
        raise IsaError(f"bbop takes 1-3 sources, got {len(srcs)}")
    kind = (BbopKind.UNARY, BbopKind.BINARY, BbopKind.TERNARY)[len(srcs) - 1]
    padded = list(srcs) + [0] * (3 - len(srcs))
    return BbopInstruction(op=op, kind=kind, element_width=element_width,
                           dst=dst, src0=padded[0], src1=padded[1],
                           src2=padded[2], n_elements=n_elements)


@functools.lru_cache(maxsize=4096)
def round_trip(build: Callable[..., BbopInstruction],
               *args) -> BbopInstruction:
    """``build(*args)`` encoded to its instruction word and decoded
    back — what the memory controller receives — memoized per distinct
    instruction (the arguments are hashable: sources as a tuple).

    The round trip is a pure function of the fields, and a dispatch
    loop issues the same few instructions over and over.  An invalid
    instruction raises on every call: exceptions are not cached.
    """
    return BbopInstruction.decode(build(*args).encode())
