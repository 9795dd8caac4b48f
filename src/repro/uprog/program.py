"""µProgram container: the artifact produced by Step 2.

A :class:`MicroProgram` bundles the symbolic AAP/AP sequence for one
operation at one element width, together with its operand interface and
cost metadata.  It is what the control unit stores in its µProgram
scratchpad and replays on every matching ``bbop`` instruction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.dram.commands import CommandStats
from repro.dram.energy import DramEnergy
from repro.dram.geometry import DramGeometry
from repro.dram.rows import b_row
from repro.dram.timing import DramTiming
from repro.errors import SchedulingError
from repro.uprog.uops import MicroOp, Space, UAap, UAp, URow


@dataclass(frozen=True)
class OperandSpec:
    """One operand of a µProgram: which space it binds and how many rows."""

    space: Space
    width: int  # number of bit rows (bit i of the operand at index i)

    def __post_init__(self) -> None:
        if self.width < 1:
            raise SchedulingError(f"operand width must be >= 1, "
                                  f"got {self.width}")


@dataclass
class MicroProgram:
    """A compiled SIMDRAM operation: symbolic command stream + metadata."""

    op_name: str
    backend: str                      # "simdram" or "ambit"
    element_width: int                # input element width in bits
    inputs: list[OperandSpec]
    output: OperandSpec
    uops: list[MicroOp] = field(default_factory=list)
    n_temp_rows: int = 0
    #: Stable identity of the source the program was compiled from (the
    #: expression-DAG hash for fused kernels, ``None`` for catalog ops).
    source_hash: str | None = None
    #: What the compiler did to arrive at this program — Step-1 graph
    #: sizes, which node order won, pairs placed (``python -m repro
    #: explain`` prints it).  About the program, not part of it: not
    #: serialized, not compared.
    report: dict = field(default_factory=dict, compare=False, repr=False)
    #: The control unit's execution plans for this program, keyed by
    #: ``(layout.cache_key(), geometry)``, least recently used first
    #: (:meth:`~repro.exec.control_unit.ControlUnit.plan_for`).  One
    #: table per program, so every module that installed it shares its
    #: plans.  A memo, not part of the program: not serialized, not
    #: compared, not pickled.
    plans: OrderedDict = field(default_factory=OrderedDict, init=False,
                               compare=False, repr=False)

    def __post_init__(self) -> None:
        seen = set()
        for spec in self.inputs:
            if not spec.space.is_input:
                raise SchedulingError(
                    f"input operand bound to non-input space {spec.space}")
            if spec.space in seen:
                raise SchedulingError(
                    f"duplicate input space {spec.space}")
            seen.add(spec.space)
        if self.output.space is not Space.OUTPUT:
            raise SchedulingError("output operand must use Space.OUTPUT")

    def __getstate__(self) -> dict:
        # A warmed program pickles as an unwarmed one: plans (and their
        # compiled executors) are rebuilt where the program runs.
        return {**self.__dict__, "plans": OrderedDict()}

    # ------------------------------------------------------------------
    # cost metadata
    # ------------------------------------------------------------------
    @property
    def n_aap(self) -> int:
        return sum(1 for op in self.uops if isinstance(op, UAap))

    @property
    def n_ap(self) -> int:
        return sum(1 for op in self.uops if isinstance(op, UAp))

    @property
    def n_commands(self) -> int:
        return len(self.uops)

    @property
    def n_operand_copies(self) -> int:
        """AAPs that read or write a *named operand row block* (an
        INPUT*/OUTPUT space).

        This is the vector-row traffic an operation exchanges with its
        operands — exactly the commands fusion removes for
        intermediates, since a fused pipeline's inner values live only
        in B-group planes and compiler temporaries.  Step-by-step
        execution of a pipeline pays this per stage (each stage's
        output block is the next stage's input block)."""
        return sum(1 for op in self.uops if isinstance(op, UAap)
                   and (op.src.space.is_input or op.src.space is Space.OUTPUT
                        or op.dst.space.is_input
                        or op.dst.space is Space.OUTPUT))

    def stats(self) -> CommandStats:
        """Command statistics of one execution in one subarray."""
        stats = CommandStats()
        for op in self.uops:
            if isinstance(op, UAp):
                stats.record_ap(op.addr.n_wordlines)
            else:
                stats.record_aap(op.src.n_wordlines, op.dst.n_wordlines)
        return stats

    def latency_ns(self, timing: DramTiming) -> float:
        """Serial latency of one execution (per subarray; lanes are free)."""
        return self.stats().latency_ns(timing)

    def energy_nj(self, timing: DramTiming, geometry: DramGeometry,
                  energy: DramEnergy) -> float:
        """DRAM energy of one execution across the active rank rows."""
        return self.stats().energy_nj(timing, geometry, energy)

    def rows_touched(self) -> int:
        """Total D-group rows the program needs (operands + temps)."""
        operand_rows = sum(s.width for s in self.inputs) + self.output.width
        return operand_rows + self.n_temp_rows

    # ------------------------------------------------------------------
    # serialization (µPrograms are installed into the control unit at
    # boot in the paper; round-tripping them keeps that workflow honest)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        def row(urow: URow) -> list:
            return [urow.space.value, urow.index]

        ops = []
        for op in self.uops:
            if isinstance(op, UAp):
                ops.append(["AP", row(op.addr)])
            else:
                ops.append(["AAP", row(op.src), row(op.dst)])
        return {
            "op_name": self.op_name,
            "backend": self.backend,
            "element_width": self.element_width,
            "inputs": [[s.space.value, s.width] for s in self.inputs],
            "output": [self.output.space.value, self.output.width],
            "n_temp_rows": self.n_temp_rows,
            "source_hash": self.source_hash,
            "uops": ops,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MicroProgram":
        space_by_value = {s.value: s for s in Space}

        def row(item: list) -> URow:
            return URow(space_by_value[item[0]], item[1])

        uops: list[MicroOp] = []
        for item in data["uops"]:
            if item[0] == "AP":
                uops.append(UAp(row(item[1])))
            elif item[0] == "AAP":
                uops.append(UAap(row(item[1]), row(item[2])))
            else:
                raise SchedulingError(f"unknown µOp kind {item[0]!r}")
        return cls(
            op_name=data["op_name"],
            backend=data["backend"],
            element_width=data["element_width"],
            inputs=[OperandSpec(space_by_value[s], w)
                    for s, w in data["inputs"]],
            output=OperandSpec(space_by_value[data["output"][0]],
                               data["output"][1]),
            uops=uops,
            n_temp_rows=data["n_temp_rows"],
            source_hash=data.get("source_hash"),
        )

    def listing(self, max_ops: int | None = None) -> str:
        """Human-readable assembly-style listing.  B-group operands are
        shown by the wordlines their address raises (``B8(DCC0N+T0)``),
        which ``str(uop)`` — the ledger's hash input — leaves as a bare
        index."""
        def show(row: URow) -> str:
            return (str(b_row(row.index)) if row.space is Space.BGROUP
                    else str(row))

        header = (f"; µProgram {self.op_name} ({self.backend}, "
                  f"{self.element_width}-bit): "
                  f"{self.n_aap} AAP + {self.n_ap} AP, "
                  f"{self.n_temp_rows} temp rows")
        shown = self.uops if max_ops is None else self.uops[:max_ops]
        lines = [header] + [
            f"  AP  {show(op.addr)}" if isinstance(op, UAp)
            else f"  AAP {show(op.src)} -> {show(op.dst)}" for op in shown]
        if max_ops is not None and len(self.uops) > max_ops:
            lines.append(f"  ... ({len(self.uops) - max_ops} more)")
        return "\n".join(lines)
