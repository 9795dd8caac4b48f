"""DRAM organization parameters.

Two geometries matter in this reproduction:

* ``DramGeometry.paper()`` — the configuration evaluated in the SIMDRAM
  paper (DDR4, 8 KB rows = 65536 bitlines per subarray, 16 banks).  It is
  used by the analytical throughput/energy models, which never allocate
  cell arrays.
* ``DramGeometry.sim_small()`` — a scaled-down configuration used by the
  bit-accurate functional simulator so that tests run in milliseconds.
  Command *counts* are identical at any width because µPrograms operate on
  whole rows; only the number of SIMD lanes differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GeometryError

#: Number of B-group (bitwise) wordlines reserved per subarray (Ambit).
N_BITWISE_ROWS = 8
#: Number of C-group (control: constant zero / one) rows per subarray.
N_CONTROL_ROWS = 2


@dataclass(frozen=True)
class DramGeometry:
    """Physical organization of the DRAM device used for computation.

    Attributes:
        cols: Bitlines per subarray row; each column is one SIMD lane.
        data_rows: D-group rows available for operands and temporaries.
        subarrays_per_bank: Subarrays in a bank (capacity, not parallelism;
            like Ambit, one subarray per bank computes at a time).
        banks: Banks per module; SIMDRAM:B uses ``B`` banks in parallel.
        chips_per_rank: Devices ganged on the channel (affects energy).
    """

    cols: int = 65536
    data_rows: int = 1006
    subarrays_per_bank: int = 16
    banks: int = 16
    chips_per_rank: int = 8

    def __post_init__(self) -> None:
        if self.cols < 1:
            raise GeometryError(f"cols must be >= 1, got {self.cols}")
        if self.data_rows < 1:
            raise GeometryError(f"data_rows must be >= 1, got {self.data_rows}")
        if self.subarrays_per_bank < 1:
            raise GeometryError(
                f"subarrays_per_bank must be >= 1, got {self.subarrays_per_bank}")
        if self.banks < 1:
            raise GeometryError(f"banks must be >= 1, got {self.banks}")
        if self.chips_per_rank < 1:
            raise GeometryError(
                f"chips_per_rank must be >= 1, got {self.chips_per_rank}")

    @property
    def rows_per_subarray(self) -> int:
        """Total wordlines per subarray, including reserved B/C groups."""
        return self.data_rows + N_BITWISE_ROWS + N_CONTROL_ROWS

    @property
    def row_bytes(self) -> int:
        """Bytes one subarray row occupies, packed eight lanes to a byte
        (the stride of the module's cell state; a last partial byte is
        padded with zero bits)."""
        return -(-self.cols // 8)

    def lanes(self, n_banks: int | None = None) -> int:
        """SIMD lanes available with ``n_banks`` banks computing in parallel."""
        used = self.banks if n_banks is None else n_banks
        if not 1 <= used <= self.banks:
            raise GeometryError(
                f"n_banks must be in [1, {self.banks}], got {used}")
        return self.cols * used

    @classmethod
    def paper(cls) -> "DramGeometry":
        """Paper-scale configuration (DDR4 module, 8 KB rows, 16 banks)."""
        return cls()

    @classmethod
    def sim_small(cls, cols: int = 256, data_rows: int = 512,
                  banks: int = 2) -> "DramGeometry":
        """Small configuration for the bit-accurate functional simulator."""
        return cls(cols=cols, data_rows=data_rows, banks=banks)
