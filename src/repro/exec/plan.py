"""Vectorized µProgram execution plans.

The paper's execution model is lockstep: every participating bank
replays the *same* µProgram on its own columns.  The per-subarray
functional model (:class:`~repro.dram.subarray.Subarray`) simulates that
as an outer Python loop over banks — faithful, traceable, but slow
exactly where SIMDRAM scales.  This module removes the redundant work
once per execution instead of once per (bank, µOp):

* **Plan compilation** (:func:`compile_plan`) resolves every symbolic
  row through the :class:`~repro.exec.layout.RowLayout` *once*,
  classifies each µOp into a small opcode (data->data copy, constant
  broadcast, wordline read/write, TRA, ...), performs the layout and
  dual-contact-cell legality checks up front, and precomputes the
  per-bank :class:`~repro.dram.commands.CommandStats` of one replay.
* **Plan execution** (:meth:`ExecutionPlan.execute`) then runs the
  pre-classified steps over the module's *stacked* cell state — packed
  ``uint8`` arrays of shape ``(data_rows, banks, row_bytes)`` /
  ``(planes, banks, row_bytes)`` — so each µOp is one numpy bitwise
  operation across all banks at once.  No ``isinstance``, no address
  resolution, no per-bank Python loop in the hot path.

Both executors mutate the same memory (the subarrays hold views of the
stacks), and the differential test suite asserts they produce identical
outputs, stats and post-state for every catalog operation.  Tracing and
TRA fault injection remain per-bank behaviours, so the control unit
falls back to the per-subarray path whenever they are enabled.

On *failure* (e.g. a µProgram activating two unequal wordlines) the two
paths raise the same error but may leave different partial state: the
per-bank path completes earlier banks before later ones start, while
the vectorized path advances all banks µOp by µOp.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.dram.commands import CommandStats
from repro.dram.geometry import DramGeometry
from repro.dram.rows import DCC_PAIRS, RowAddress, RowGroup
from repro.dram.subarray import WORDLINE_PLANE, majority3
from repro.errors import AddressError, CommandError, ExecutionError
from repro.exec.layout import RowLayout
from repro.uprog.program import MicroProgram
from repro.util.bitops import packed_ones
from repro.uprog.uops import UAap, UAp, URow


class StepKind(enum.IntEnum):
    """Pre-classified µOp opcodes of the vectorized executor."""

    COPY_DATA = 0      # AAP D[src] -> D[dst]
    FILL_DATA = 1      # AAP C[const] -> D[dst]
    DATA_TO_B = 2      # AAP D[src] -> wordline(s)
    FILL_B = 3         # AAP C[const] -> wordline(s)
    B_TO_DATA = 4      # AAP single-wordline -> D[dst]
    B_TO_B = 5         # AAP single-wordline -> wordline(s)
    PAIR_TO_DATA = 6   # AAP double-wordline -> D[dst] (equality-checked)
    PAIR_TO_B = 7      # AAP double-wordline -> wordline(s)
    TRA = 8            # AP on a B-group triple (in-place majority)
    TRA_TO_DATA = 9    # AAP triple -> D[dst] (TRA, then copy result)
    TRA_TO_B = 10      # AAP triple -> wordline(s)


#: A wordline as (plane index, positive port?) — the storage coordinates
#: of :data:`repro.dram.subarray.WORDLINE_PLANE`.
PlaneRef = tuple[int, bool]


@dataclass(frozen=True)
class PlanStep:
    """One pre-resolved µOp.

    ``src``/``dst`` meaning depends on ``kind``:

    * data rows are ``int`` row indices;
    * constants are ``bool``;
    * wordline sources are a single :data:`PlaneRef`; wordline pairs and
      triples, and all wordline *destinations*, are ``tuple[PlaneRef]``.
    """

    kind: StepKind
    src: object
    dst: object
    #: Original addresses, kept for error messages only.
    src_addr: RowAddress
    dst_addr: RowAddress | None


def _planes(address: RowAddress) -> tuple[PlaneRef, ...]:
    return tuple(WORDLINE_PLANE[w] for w in address.wordlines())


def _check_drive(address: RowAddress) -> None:
    """Static legality of ``address`` as an AAP destination (mirrors
    ``Subarray._drive`` checks, which are address-only)."""
    if address.group is RowGroup.CTRL:
        raise CommandError(
            f"C-group row {address} holds a hardwired constant and "
            "cannot be a copy destination")
    if address.group is RowGroup.BITWISE:
        written: set[int] = set()
        for wordline in address.wordlines():
            plane, _ = WORDLINE_PLANE[wordline]
            if plane in written and wordline in DCC_PAIRS:
                raise CommandError(
                    f"{address} drives both ports of a dual-contact cell")
            written.add(plane)


def _classify(src: RowAddress, dst: RowAddress | None) -> PlanStep:
    """Turn one resolved µOp into a :class:`PlanStep`."""
    if dst is None:  # AP: the ISA only allows TRA triples here
        return PlanStep(StepKind.TRA, _planes(src), None, src, None)

    _check_drive(dst)
    if dst.group is RowGroup.DATA:
        dst_key, to_data = dst.index, True
    else:
        dst_key, to_data = _planes(dst), False

    if src.group is RowGroup.DATA:
        kind = StepKind.COPY_DATA if to_data else StepKind.DATA_TO_B
        return PlanStep(kind, src.index, dst_key, src, dst)
    if src.group is RowGroup.CTRL:
        kind = StepKind.FILL_DATA if to_data else StepKind.FILL_B
        return PlanStep(kind, bool(src.index), dst_key, src, dst)

    planes = _planes(src)
    if len(planes) == 1:
        kind = StepKind.B_TO_DATA if to_data else StepKind.B_TO_B
        return PlanStep(kind, planes[0], dst_key, src, dst)
    if len(planes) == 2:
        kind = StepKind.PAIR_TO_DATA if to_data else StepKind.PAIR_TO_B
        return PlanStep(kind, planes, dst_key, src, dst)
    kind = StepKind.TRA_TO_DATA if to_data else StepKind.TRA_TO_B
    return PlanStep(kind, planes, dst_key, src, dst)


@dataclass
class ExecutionPlan:
    """A µProgram compiled against one :class:`RowLayout`: the unit the
    control unit caches and replays on the stacked DRAM state."""

    op_name: str
    backend: str
    element_width: int
    steps: list[PlanStep]
    #: Stats of one replay in one bank (identical for every bank).
    per_bank_stats: CommandStats
    #: One bank's packed row with every lane set and zero padding: the
    #: value of ``C1``, and the XOR operand that is NOT on packed rows.
    row_ones: np.ndarray = field(compare=False, repr=False)
    #: Compiled executors keyed by engine name.  The control unit
    #: memoizes each engine's executor here
    #: (:meth:`~repro.exec.control_unit.ControlUnit.executor_for`), so
    #: the callable lives and dies with the plan's entry in its
    #: µProgram's plan table.
    executors: dict[str, Callable[[np.ndarray, np.ndarray], None]] = \
        field(default_factory=dict, compare=False, repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    # ------------------------------------------------------------------
    # hot loop
    # ------------------------------------------------------------------
    def execute(self, data: np.ndarray, b_planes: np.ndarray) -> None:
        """Replay the plan on stacked cell state, all banks at once.

        Args:
            data: ``(data_rows, banks, row_bytes)`` packed array.
            b_planes: ``(N_B_PLANES, banks, row_bytes)`` packed array.
        """
        K = StepKind
        ones = self.row_ones
        for step in self.steps:
            kind, src, dst = step.kind, step.src, step.dst
            if kind == K.COPY_DATA:
                data[dst] = data[src]
            elif kind == K.FILL_DATA:
                data[dst] = ones if src else 0
            elif kind == K.DATA_TO_B:
                self._write(b_planes, dst, data[src])
            elif kind == K.FILL_B:
                for plane, positive in dst:
                    b_planes[plane] = ones if src == positive else 0
            elif kind == K.B_TO_DATA:
                data[dst] = self._read(b_planes, src)
            elif kind == K.B_TO_B:
                value = self._read(b_planes, src)
                # The sense value must survive the writes, as the sense
                # amplifiers do; copy when a destination wordline shares
                # the source's storage plane (per-bank path always copies).
                if any(plane == src[0] for plane, _ in dst):
                    value = value.copy()
                self._write(b_planes, dst, value)
            elif kind in (K.PAIR_TO_DATA, K.PAIR_TO_B):
                value = self._sense_pair(b_planes, step)
                if kind == K.PAIR_TO_DATA:
                    data[dst] = value
                else:
                    src_planes = {plane for plane, _ in src}
                    if any(plane in src_planes for plane, _ in dst):
                        value = value.copy()
                    self._write(b_planes, dst, value)
            else:  # TRA variants
                result = self._tra(b_planes, src)
                if kind == K.TRA_TO_DATA:
                    data[dst] = result
                elif kind == K.TRA_TO_B:
                    self._write(b_planes, dst, result)

    def _read(self, b_planes: np.ndarray, ref: PlaneRef) -> np.ndarray:
        plane, positive = ref
        value = b_planes[plane]
        return value if positive else value ^ self.row_ones

    def _write(self, b_planes: np.ndarray, refs: tuple[PlaneRef, ...],
               value: np.ndarray) -> None:
        for plane, positive in refs:
            b_planes[plane] = value if positive else value ^ self.row_ones

    def _sense_pair(self, b_planes: np.ndarray,
                    step: PlanStep) -> np.ndarray:
        a = self._read(b_planes, step.src[0])
        b = self._read(b_planes, step.src[1])
        if not np.array_equal(a, b):
            raise CommandError(
                f"activating {step.src_addr} would charge-share two "
                "unequal rows; the sensed value is nondeterministic")
        return a

    def _tra(self, b_planes: np.ndarray,
             refs: tuple[PlaneRef, ...]) -> np.ndarray:
        """Triple-row activation: majority, restored destructively."""
        result = majority3(self._read(b_planes, refs[0]),
                           self._read(b_planes, refs[1]),
                           self._read(b_planes, refs[2]))
        self._write(b_planes, refs, result)
        return result


def compile_plan(program: MicroProgram, layout: RowLayout,
                 geometry: DramGeometry) -> ExecutionPlan:
    """Resolve and classify a µProgram into an :class:`ExecutionPlan`.

    Performs up front everything the per-bank path repeats per (bank,
    µOp): layout capacity/overlap checks, symbolic row resolution, µOp
    classification, destination legality, and stats accounting.
    """
    layout.check(program, geometry)

    # A µProgram touches few distinct rows and repeats (src, dst) pairs
    # (every TRA, every operand reload), so both lookups are memoized
    # for the duration of this call.
    resolved: dict[URow, RowAddress] = {}
    classified: dict[tuple[RowAddress, RowAddress | None], PlanStep] = {}

    def resolve(urow: URow) -> RowAddress:
        address = resolved.get(urow)
        if address is not None:
            return address
        address = layout.resolve(urow)
        # The per-bank path bounds-checks data rows per activation; the
        # plan front-loads the same check (same error, at compile time).
        if (address.group is RowGroup.DATA
                and address.index >= geometry.data_rows):
            raise AddressError(
                f"data row {address.index} out of range "
                f"[0, {geometry.data_rows})")
        resolved[urow] = address
        return address

    def classify(src: RowAddress, dst: RowAddress | None) -> PlanStep:
        step = classified.get((src, dst))
        if step is None:
            step = classified[src, dst] = _classify(src, dst)
        return step

    steps: list[PlanStep] = []
    stats = CommandStats()
    for uop in program.uops:
        if isinstance(uop, UAp):
            addr = resolve(uop.addr)
            steps.append(classify(addr, None))
            stats.record_ap(addr.n_wordlines)
        elif isinstance(uop, UAap):
            src = resolve(uop.src)
            dst = resolve(uop.dst)
            steps.append(classify(src, dst))
            stats.record_aap(src.n_wordlines, dst.n_wordlines)
        else:
            raise ExecutionError(f"unknown µOp {uop!r}")
    return ExecutionPlan(
        op_name=program.op_name, backend=program.backend,
        element_width=program.element_width, steps=steps,
        per_bank_stats=stats, row_ones=packed_ones(geometry.cols))
