"""Bit-accurate functional model of a compute-capable DRAM subarray.

The subarray is the substrate both SIMDRAM and the Ambit baseline execute
on.  It models, at the bit level and for every column in parallel:

* **Triple-row activation (TRA)** — an ``AP`` on a B-group address that
  raises three wordlines.  Charge sharing among the three cells followed
  by sense amplification computes the bitwise *majority* of the three
  rows, and the result is restored **destructively** into all three cells
  (Ambit §3).
* **RowClone-FPM copy** — an ``AAP``: the first activation latches a row
  (or TRA result) in the sense amplifiers, the second activation
  overwrites the destination wordline(s) with that value (RowClone §3).
* **Dual-contact cells (DCC)** — each of ``DCC0``/``DCC1`` is one cell
  with two ports; reading or writing through the negated port (``!DCCi``)
  complements the value, providing NOT.
* **Control rows** — ``C0``/``C1`` read as constant all-zeros/all-ones
  and are never legal copy destinations.

Undefined analog behaviour is checked, not guessed: activating a
two-wordline address whose cells disagree, for example, raises
:class:`~repro.errors.CommandError` instead of silently picking a value.
"""

from __future__ import annotations

import numpy as np

from repro.dram.commands import CommandStats, CommandTrace, TraceEntry
from repro.dram.geometry import DramGeometry
from repro.dram.rows import (
    DCC_PAIRS,
    RowAddress,
    RowGroup,
    Wordline,
)
from repro.errors import AddressError, CommandError
from repro.util.bitops import pack_bits, packed_ones, unpack_bits

#: Map each B-group wordline to (storage plane, True if non-inverting port).
#: Shared with the execution-plan compiler
#: (:mod:`repro.exec.plan`), which classifies µOps against the same
#: storage model so both engines stay bit-identical.
WORDLINE_PLANE: dict[Wordline, tuple[int, bool]] = {
    Wordline.T0: (0, True),
    Wordline.T1: (1, True),
    Wordline.T2: (2, True),
    Wordline.T3: (3, True),
    Wordline.DCC0: (4, True),
    Wordline.DCC0N: (4, False),
    Wordline.DCC1: (5, True),
    Wordline.DCC1N: (5, False),
}
#: Number of physical B-group storage planes (DCC ports share a cell).
N_B_PLANES = 6

# Backwards-compatible aliases (pre-vectorization private names).
_WORDLINE_PLANE = WORDLINE_PLANE
_N_B_PLANES = N_B_PLANES


def majority3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Bitwise 3-input majority — the Boolean function a TRA computes."""
    return (a & b) | (b & c) | (a & c)


class Subarray:
    """One DRAM subarray with Ambit B/C row groups and D data rows.

    Args:
        geometry: Dimensions; only ``cols`` and ``data_rows`` are used here.
        trace: When true, keep a :class:`CommandTrace` of every AP/AAP.
        rng: Optional generator; when given, D-group and B-group cells
            start with random contents (as real DRAM does at power-up),
            which makes tests catch µPrograms that rely on residual state.
        tra_fault_rate: Fault-injection knob: probability, per lane and
            per TRA, that charge sharing senses the wrong value (models
            the process-variation failures of the reliability study;
            0.0 = ideal device).
        fault_rng: Generator driving fault injection (defaults to a
            fixed-seed generator when ``tra_fault_rate`` > 0).
        data_storage: Optional external ``(data_rows, row_bytes)``
            ``uint8`` array to use as the D-group cell storage.  A
            :class:`DramModule` passes per-bank views of one stacked
            ``(rows, banks, row_bytes)`` array so the plan-based engines
            can operate on all banks at once while this per-subarray
            model stays the bit-identical slow path (the two share
            memory).
        b_storage: Optional external ``(N_B_PLANES, row_bytes)``
            ``uint8`` array for the B-group cells, same contract.

    Cells are stored packed (:func:`~repro.util.bitops.pack_bits`: lane
    ``c`` is bit ``c % 8`` of byte ``c // 8``) and every row's padding
    bits stay zero — NOT is XOR with the all-lanes mask, never ``~``.
    Rows cross the public API (:meth:`read_row`, :meth:`write_row`,
    :meth:`peek`, :meth:`poke`) as boolean vectors of ``cols`` lanes.
    """

    def __init__(self, geometry: DramGeometry, trace: bool = False,
                 rng: np.random.Generator | None = None,
                 tra_fault_rate: float = 0.0,
                 fault_rng: np.random.Generator | None = None,
                 data_storage: np.ndarray | None = None,
                 b_storage: np.ndarray | None = None) -> None:
        if not 0.0 <= tra_fault_rate <= 1.0:
            raise CommandError(
                f"tra_fault_rate must be a probability, "
                f"got {tra_fault_rate}")
        self.geometry = geometry
        self.stats = CommandStats()
        self.trace: CommandTrace | None = CommandTrace() if trace else None
        self.tra_fault_rate = tra_fault_rate
        self._fault_rng = fault_rng
        if tra_fault_rate > 0 and self._fault_rng is None:
            self._fault_rng = np.random.default_rng(0)
        #: TRA bit flips injected so far (observability for tests).
        self.faults_injected = 0
        cols = geometry.cols
        data_shape = (geometry.data_rows, geometry.row_bytes)
        b_shape = (N_B_PLANES, geometry.row_bytes)
        if data_storage is None:
            data_storage = np.empty(data_shape, dtype=np.uint8)
        if b_storage is None:
            b_storage = np.empty(b_shape, dtype=np.uint8)
        if (data_storage.shape != data_shape
                or data_storage.dtype != np.uint8):
            raise CommandError(
                f"data_storage must be a uint8 array of shape "
                f"{data_shape}, got {data_storage.dtype} "
                f"{data_storage.shape}")
        if b_storage.shape != b_shape or b_storage.dtype != np.uint8:
            raise CommandError(
                f"b_storage must be a uint8 array of shape {b_shape}, "
                f"got {b_storage.dtype} {b_storage.shape}")
        self._data = data_storage
        self._b_planes = b_storage
        #: Packed row with every lane set (what ``C1`` reads as).
        self._ones = packed_ones(cols)
        if rng is None:
            self._data[...] = 0
            self._b_planes[...] = 0
        else:
            self._data[...] = pack_bits(rng.integers(
                0, 2, size=(geometry.data_rows, cols)).astype(bool))
            self._b_planes[...] = pack_bits(rng.integers(
                0, 2, size=(N_B_PLANES, cols)).astype(bool))

    @property
    def cols(self) -> int:
        """Number of bitlines (SIMD lanes) in this subarray."""
        return self.geometry.cols

    # ------------------------------------------------------------------
    # internal cell access
    # ------------------------------------------------------------------
    def _check_data_index(self, index: int) -> None:
        if not 0 <= index < self.geometry.data_rows:
            raise AddressError(
                f"data row {index} out of range "
                f"[0, {self.geometry.data_rows})")

    def _read_wordline(self, wordline: Wordline) -> np.ndarray:
        plane, positive = _WORDLINE_PLANE[wordline]
        value = self._b_planes[plane]
        return value if positive else value ^ self._ones

    def _write_wordline(self, wordline: Wordline, value: np.ndarray) -> None:
        plane, positive = _WORDLINE_PLANE[wordline]
        self._b_planes[plane] = value if positive else value ^ self._ones

    def _sense(self, address: RowAddress) -> np.ndarray:
        """First activation of ``address``: sense amplifier contents
        (a packed row).

        For a triple this performs the (destructive) TRA.  For a double it
        checks that charge sharing is deterministic.
        """
        if address.group is RowGroup.DATA:
            self._check_data_index(address.index)
            return self._data[address.index].copy()
        if address.group is RowGroup.CTRL:
            return (self._ones.copy() if address.index
                    else np.zeros_like(self._ones))

        wordlines = address.wordlines()
        if len(wordlines) == 1:
            return self._read_wordline(wordlines[0]).copy()
        if len(wordlines) == 2:
            a = self._read_wordline(wordlines[0])
            b = self._read_wordline(wordlines[1])
            if not np.array_equal(a, b):
                raise CommandError(
                    f"activating {address} would charge-share two unequal "
                    "rows; the sensed value is nondeterministic")
            return a.copy()
        # Triple-row activation: majority, restored into all three cells.
        values = [self._read_wordline(w) for w in wordlines]
        result = majority3(*values)
        if self.tra_fault_rate > 0.0:
            flips = self._fault_rng.random(self.cols) < self.tra_fault_rate
            self.faults_injected += int(flips.sum())
            result = result ^ pack_bits(flips)
        for wordline in wordlines:
            self._write_wordline(wordline, result)
        return result

    def _drive(self, address: RowAddress, value: np.ndarray) -> None:
        """Second activation of an AAP: overwrite ``address`` with the
        packed row ``value``."""
        if address.group is RowGroup.CTRL:
            raise CommandError(
                f"C-group row {address} holds a hardwired constant and "
                "cannot be a copy destination")
        if address.group is RowGroup.DATA:
            self._check_data_index(address.index)
            self._data[address.index] = value.copy()
            return
        wordlines = address.wordlines()
        written_cells: set[int] = set()
        for wordline in wordlines:
            plane, _ = _WORDLINE_PLANE[wordline]
            if plane in written_cells and wordline in DCC_PAIRS:
                raise CommandError(
                    f"{address} drives both ports of a dual-contact cell")
            written_cells.add(plane)
            self._write_wordline(wordline, value)

    # ------------------------------------------------------------------
    # composite commands (the µOp ISA of the substrate)
    # ------------------------------------------------------------------
    def ap(self, address: RowAddress) -> None:
        """ACTIVATE-PRECHARGE.  On a triple address this is a TRA (MAJ)."""
        self._sense(address)
        self.stats.record_ap(address.n_wordlines)
        if self.trace is not None:
            self.trace.record(TraceEntry("AP", address))

    def aap(self, src: RowAddress, dst: RowAddress) -> None:
        """ACTIVATE-ACTIVATE-PRECHARGE: copy ``src`` (or its TRA) to ``dst``."""
        value = self._sense(src)
        self._drive(dst, value)
        self.stats.record_aap(src.n_wordlines, dst.n_wordlines)
        if self.trace is not None:
            self.trace.record(TraceEntry("AAP", src, dst))

    # ------------------------------------------------------------------
    # host datapath (normal reads/writes, used by the transposition unit)
    # ------------------------------------------------------------------
    def read_row(self, address: RowAddress) -> np.ndarray:
        """Read a full row through the normal datapath."""
        if address.n_wordlines != 1:
            raise CommandError(
                f"host reads must target a single wordline, got {address}")
        value = self._sense(address)
        self.stats.host_bits_read += self.cols
        return unpack_bits(value, self.cols)

    def write_row(self, address: RowAddress, value: np.ndarray) -> None:
        """Write a full row through the normal datapath."""
        value = np.asarray(value, dtype=bool)
        if value.shape != (self.cols,):
            raise CommandError(
                f"row value must have shape ({self.cols},), "
                f"got {value.shape}")
        if address.n_wordlines != 1:
            raise CommandError(
                f"host writes must target a single wordline, got {address}")
        self._drive(address, pack_bits(value))
        self.stats.host_bits_written += self.cols

    # ------------------------------------------------------------------
    # debug / test helpers (no stats side effects)
    # ------------------------------------------------------------------
    def peek(self, address: RowAddress) -> np.ndarray:
        """Read a single-wordline row without timing/energy accounting."""
        if address.n_wordlines != 1:
            raise CommandError(f"peek needs a single-wordline address, "
                               f"got {address}")
        return unpack_bits(self._sense(address), self.cols)

    def poke(self, address: RowAddress, value: np.ndarray) -> None:
        """Write a row without accounting (test setup only)."""
        self._drive(address, pack_bits(np.broadcast_to(
            np.asarray(value, dtype=bool), (self.cols,))))
