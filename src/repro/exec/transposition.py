"""The SIMDRAM transposition unit.

The paper adds a transposition unit to the memory controller so that
most data can stay in the CPU-friendly *horizontal* layout while operands
of in-DRAM computation are stored *vertically* (all bits of an element in
one column).  This module provides both:

* the functional behaviour — converting numpy integer vectors to vertical
  bit rows (and back) and moving them through the module's host datapath
  (which the simulator accounts as host I/O bits), and
* the cost model — transposition happens at channel bandwidth in the
  controller (the unit transposes 64-bit chunks with negligible extra
  latency), so the cost of transposing a vector is the cost of streaming
  it over the channel, counted by :meth:`transpose_cost_ns`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.bank import DramModule
from repro.dram.commands import CommandStats
from repro.dram.energy import DramEnergy
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTiming
from repro.errors import OperationError
from repro.exec.memory import RowBlock
from repro.util.bitops import to_signed, transpose8x8


@dataclass(frozen=True)
class TranspositionCost:
    """Latency/energy of moving one operand through the controller."""

    bytes_moved: int
    latency_ns: float
    energy_nj: float


def _to_vertical(values: np.ndarray, width: int,
                 geometry: DramGeometry) -> np.ndarray:
    """Transpose integers into ``width`` packed rows striped over every
    bank: a ``(width, banks, row_bytes)`` ``uint8`` block in the device's
    cell format, lanes past ``len(values)`` zero.

    Bit-for-bit :func:`repro.util.bitops.ints_to_bits` (the executable
    specification) followed by packing, done as the paper's unit does
    it: byte ``k`` of eight neighbouring elements is one 64-bit chunk,
    and an 8x8 bit transpose turns it into a byte of each of the rows
    ``8k .. 8k+7``.
    """
    banks, cols = geometry.banks, geometry.cols
    # One int64 per lane, each bank padded to whole bytes of lanes.
    words = np.zeros((banks, geometry.row_bytes * 8), dtype="<i8")
    full, rest = divmod(len(values), cols)
    words[:full, :cols] = values[:full * cols].reshape(full, cols)
    if rest:
        words[full, :rest] = values[full * cols:]
    n_planes = -(-width // 8)
    chunks = np.ascontiguousarray(
        words.view(np.uint8).reshape(-1, 8)[:, :n_planes].T
    ).view("<u8")                       # (byte plane, group of 8 lanes)
    transpose8x8(chunks)
    rows = chunks.view(np.uint8).reshape(n_planes, -1, 8).transpose(0, 2, 1)
    return rows.reshape(n_planes * 8, banks, -1)[:width]


def _to_horizontal(block: np.ndarray,
                   geometry: DramGeometry) -> np.ndarray:
    """Inverse of :func:`_to_vertical`: one ``int64`` per lane (the low
    ``len(block)`` bits set) from a packed ``(width, banks, row_bytes)``
    block — :func:`repro.util.bitops.bits_to_ints` on packed rows."""
    width = len(block)
    n_planes = -(-width // 8)
    n_groups = geometry.banks * geometry.row_bytes
    rows = np.zeros((n_planes * 8, n_groups), dtype=np.uint8)
    rows[:width] = block.reshape(width, n_groups)
    chunks = np.ascontiguousarray(
        rows.reshape(n_planes, 8, n_groups).transpose(0, 2, 1)).view("<u8")
    transpose8x8(chunks)
    words = np.zeros((n_groups * 8, 8), dtype=np.uint8)
    words[:, :n_planes] = chunks.view(np.uint8).reshape(n_planes, -1).T
    return words.view("<i8").reshape(geometry.banks, -1)[
        :, :geometry.cols].reshape(-1)


class TranspositionUnit:
    """Horizontal <-> vertical conversion at the memory controller."""

    def __init__(self, timing: DramTiming | None = None,
                 energy: DramEnergy | None = None) -> None:
        self.timing = timing or DramTiming.ddr4_2400()
        self.energy = energy or DramEnergy.ddr4()

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def transpose_cost(self, n_elements: int, width: int) -> TranspositionCost:
        """Cost of transposing ``n_elements`` ``width``-bit elements.

        The unit streams the data once over the channel; the transpose
        itself is pipelined behind the transfer (paper §4).
        """
        bits = n_elements * width
        bytes_moved = (bits + 7) // 8
        latency = bytes_moved * self.timing.io_ns_per_byte()
        return TranspositionCost(
            bytes_moved=bytes_moved,
            latency_ns=latency,
            energy_nj=self.energy.io_nj(bits),
        )

    # ------------------------------------------------------------------
    # functional behaviour on the simulated module
    # ------------------------------------------------------------------
    def host_to_vertical(self, module: DramModule, block: RowBlock,
                         values: np.ndarray, width: int) -> None:
        """Write integer ``values`` vertically into ``block``'s rows.

        Elements are striped across banks; unused columns are zero-padded.
        """
        if block.width < width:
            raise OperationError(
                f"block has {block.width} rows, need {width}")
        values = np.asarray(values)
        if values.ndim != 1:
            raise OperationError("expected a 1-D vector of elements")
        if len(values) > module.lanes:
            raise OperationError(
                f"{len(values)} elements exceed {module.lanes} lanes")
        module.write_rows(block.base,
                          _to_vertical(values, width, module.geometry))

    def vertical_to_host(self, module: DramModule, block: RowBlock,
                         n_elements: int, width: int,
                         signed: bool = False) -> np.ndarray:
        """Read ``n_elements`` integers back from vertical rows."""
        if block.width < width:
            raise OperationError(
                f"block has {block.width} rows, need {width}")
        if n_elements > module.lanes:
            raise OperationError(
                f"{n_elements} elements exceed {module.lanes} lanes")
        values = _to_horizontal(module.read_rows(block.base, width),
                                module.geometry)[:n_elements]
        if signed:
            return to_signed(values, width)
        return values

    # ------------------------------------------------------------------
    # paging support (runtime eviction layer)
    # ------------------------------------------------------------------
    def spill(self, module: DramModule, block: RowBlock, n_elements: int,
              width: int, signed: bool = False,
              stats: "CommandStats | None" = None) -> np.ndarray:
        """Evict a vertical operand to host memory.

        Functionally a :meth:`vertical_to_host` read; the raw channel
        traffic lands in the subarrays' host-I/O counters as usual, and
        the eviction itself is recorded in ``stats`` (one spill of
        ``n_elements * width`` logical bits) so paging pressure is
        observable separately from ordinary transposition.
        """
        values = self.vertical_to_host(module, block, n_elements, width,
                                       signed=signed)
        if stats is not None:
            stats.record_spill(n_elements * width)
        return values

    def fill(self, module: DramModule, block: RowBlock,
             values: np.ndarray, width: int,
             stats: "CommandStats | None" = None) -> None:
        """Fault a spilled operand back into a vertical row block."""
        self.host_to_vertical(module, block, values, width)
        if stats is not None:
            stats.record_fill(len(values) * width)
