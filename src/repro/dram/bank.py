"""Bank and module layers above the subarray simulator.

Like Ambit, SIMDRAM computes in one subarray per bank at a time; the
throughput knob is the *number of banks* computing in lockstep
(``SIMDRAM:1/4/16`` in the paper).  :class:`DramModule` models that: the
control unit broadcasts each µOp to all participating banks, and the
vector being processed is striped across the banks' columns.
"""

from __future__ import annotations

import numpy as np

from repro.dram.commands import CommandStats
from repro.dram.geometry import DramGeometry
from repro.dram.rows import RowAddress
from repro.dram.subarray import N_B_PLANES, Subarray
from repro.errors import AddressError, GeometryError
from repro.obs.pmu import get_pmu


class Bank:
    """One DRAM bank exposing its active compute subarray."""

    def __init__(self, geometry: DramGeometry, bank_id: int,
                 trace: bool = False,
                 rng: np.random.Generator | None = None,
                 data_storage: np.ndarray | None = None,
                 b_storage: np.ndarray | None = None) -> None:
        self.geometry = geometry
        self.bank_id = bank_id
        self.subarray = Subarray(geometry, trace=trace, rng=rng,
                                 data_storage=data_storage,
                                 b_storage=b_storage)

    @property
    def stats(self) -> CommandStats:
        """Command statistics of the active subarray."""
        return self.subarray.stats

    def ap(self, address: RowAddress) -> None:
        """Issue an AP to the active subarray."""
        self.subarray.ap(address)

    def aap(self, src: RowAddress, dst: RowAddress) -> None:
        """Issue an AAP to the active subarray."""
        self.subarray.aap(src, dst)


class DramModule:
    """A module of ``banks`` identical banks computing in lockstep.

    The module is the functional-simulation counterpart of the paper's
    ``SIMDRAM:B`` configurations: a µOp broadcast reaches every bank, and
    a logical vector of up to ``banks * cols`` elements is striped across
    banks (element ``i`` lives in bank ``i // cols``, column ``i % cols``).
    """

    def __init__(self, geometry: DramGeometry, trace: bool = False,
                 seed: int | None = None) -> None:
        self.geometry = geometry
        rngs: list[np.random.Generator | None]
        if seed is None:
            rngs = [None] * geometry.banks
        else:
            seq = np.random.SeedSequence(seed)
            rngs = [np.random.default_rng(s)
                    for s in seq.spawn(geometry.banks)]
        # All banks' cells live in two packed arrays, row-major: a
        # logical row striped over the first n banks is the contiguous
        # byte string state[row, :n].  Each subarray gets its per-bank
        # view; the plan-based engines and the transposition unit work
        # on the stacks directly, the per-bank slow path goes through
        # the subarray objects — all mutate the same memory.
        self._data_state = np.zeros(
            (geometry.data_rows, geometry.banks, geometry.row_bytes),
            dtype=np.uint8)
        self._b_state = np.zeros(
            (N_B_PLANES, geometry.banks, geometry.row_bytes),
            dtype=np.uint8)
        self.banks = [Bank(geometry, bank_id=i, trace=trace, rng=rngs[i],
                           data_storage=self._data_state[:, i],
                           b_storage=self._b_state[:, i])
                      for i in range(geometry.banks)]
        #: Device-PMU registration: per-bank counter rows for this
        #: module live under this id (see :mod:`repro.obs.pmu`).
        self.pmu_id = get_pmu().register_module(
            geometry.banks, self.lanes)

    @property
    def lanes(self) -> int:
        """Total SIMD lanes across all banks."""
        return self.geometry.banks * self.geometry.cols

    def broadcast_ap(self, address: RowAddress,
                     n_banks: int | None = None) -> None:
        """Issue an AP to the first ``n_banks`` banks (all by default)."""
        for bank in self._active(n_banks):
            bank.ap(address)

    def broadcast_aap(self, src: RowAddress, dst: RowAddress,
                      n_banks: int | None = None) -> None:
        """Issue an AAP to the first ``n_banks`` banks (all by default)."""
        for bank in self._active(n_banks):
            bank.aap(src, dst)

    def _active(self, n_banks: int | None) -> list[Bank]:
        if n_banks is None:
            return self.banks
        if not 1 <= n_banks <= len(self.banks):
            raise GeometryError(
                f"n_banks must be in [1, {len(self.banks)}], got {n_banks}")
        return self.banks[:n_banks]

    # ------------------------------------------------------------------
    # vectorized execution support
    # ------------------------------------------------------------------
    def vector_state(self, n_banks: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked cell-state views for the first ``n_banks`` banks.

        Returns ``(data, b_planes)``, packed ``uint8`` of shapes
        ``(data_rows, n, row_bytes)`` and ``(N_B_PLANES, n, row_bytes)``
        (see :class:`~repro.dram.subarray.Subarray` for the bit order).
        These are *views*: mutating them is exactly mutating the banks'
        subarrays.
        """
        n = len(self._active(n_banks))
        return self._data_state[:, :n], self._b_state[:, :n]

    def supports_vectorized(self, n_banks: int | None = None) -> bool:
        """Whether the stacked fast path is equivalent to the per-bank
        path for the first ``n_banks`` banks.

        False when any selected bank traces commands or injects TRA
        faults (both are per-bank, per-command behaviours the stacked
        executor does not model), or when a bank's subarray no longer
        aliases the module's stacked storage (e.g. a test swapped it).
        """
        for bank in self._active(n_banks):
            subarray = bank.subarray
            if subarray.trace is not None or subarray.tra_fault_rate > 0.0:
                return False
            if (subarray._data.base is not self._data_state
                    or subarray._b_planes.base is not self._b_state):
                return False
        return True

    def total_stats(self) -> CommandStats:
        """Merged command statistics across all banks."""
        total = CommandStats()
        for bank in self.banks:
            total = total.merged_with(bank.stats)
        return total

    # ------------------------------------------------------------------
    # striped row access: logical rows spanning all banks
    # ------------------------------------------------------------------
    def write_striped(self, address: RowAddress, bits: np.ndarray) -> None:
        """Write a logical row of ``lanes`` bits, striped across banks."""
        bits = np.asarray(bits, dtype=bool)
        cols = self.geometry.cols
        if bits.shape != (self.lanes,):
            raise GeometryError(
                f"striped row must have {self.lanes} bits, got {bits.shape}")
        for i, bank in enumerate(self.banks):
            bank.subarray.write_row(address, bits[i * cols:(i + 1) * cols])
        get_pmu().record_transposition(self.pmu_id, self.lanes)

    def read_striped(self, address: RowAddress) -> np.ndarray:
        """Read a logical row of ``lanes`` bits, striped across banks."""
        cols = self.geometry.cols
        out = np.empty(self.lanes, dtype=bool)
        for i, bank in enumerate(self.banks):
            out[i * cols:(i + 1) * cols] = bank.subarray.read_row(address)
        get_pmu().record_transposition(self.pmu_id, self.lanes)
        return out

    # ------------------------------------------------------------------
    # block access: what the transposition unit moves per operand
    # ------------------------------------------------------------------
    def _check_rows(self, base: int, n_rows: int) -> None:
        if not 0 <= base <= base + n_rows <= self.geometry.data_rows:
            raise AddressError(
                f"data rows [{base}, {base + n_rows}) out of range "
                f"[0, {self.geometry.data_rows})")

    def write_rows(self, base: int, block: np.ndarray) -> None:
        """Write packed D-group rows ``base..`` of every bank at once.

        ``block`` is ``(n_rows, banks, row_bytes)`` ``uint8`` with zero
        padding bits.  Accounted exactly as ``n_rows`` calls of
        :meth:`write_striped`.
        """
        n_rows = len(block)
        self._check_rows(base, n_rows)
        self._data_state[base:base + n_rows] = block
        for i, bank in enumerate(self.banks):
            subarray = bank.subarray
            if subarray._data.base is not self._data_state:  # swapped
                subarray._data[base:base + n_rows] = block[:, i]
            subarray.stats.host_bits_written += n_rows * self.geometry.cols
        get_pmu().record_transposition(self.pmu_id, n_rows * self.lanes)

    def read_rows(self, base: int, n_rows: int) -> np.ndarray:
        """Read packed D-group rows ``base..`` of every bank at once, as
        a fresh ``(n_rows, banks, row_bytes)`` ``uint8`` block.
        Accounted exactly as ``n_rows`` calls of :meth:`read_striped`.
        """
        self._check_rows(base, n_rows)
        block = self._data_state[base:base + n_rows].copy()
        for i, bank in enumerate(self.banks):
            subarray = bank.subarray
            if subarray._data.base is not self._data_state:  # swapped
                block[:, i] = subarray._data[base:base + n_rows]
            subarray.stats.host_bits_read += n_rows * self.geometry.cols
        get_pmu().record_transposition(self.pmu_id, n_rows * self.lanes)
        return block
