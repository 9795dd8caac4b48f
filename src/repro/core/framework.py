"""The end-to-end SIMDRAM framework facade.

:class:`Simdram` wires together every layer of the reproduction the way
the paper's Figure 1 wires the real system, and there is **one path**
through it for every computation — a catalog operation, a fused
expression DAG, several roots at once:

1. :meth:`Simdram.compile` turns the source into a
   :class:`~repro.core.fuse.Kernel` (Steps 1+2, once per
   :func:`~repro.core.fuse.kernel_identity`) and installs its µProgram
   into the control unit's scratchpad; :meth:`Simdram.adopt` installs a
   kernel compiled elsewhere (a cluster compiles once for all members);
2. host arrays enter DRAM through the transposition unit into vertical
   row blocks managed by the allocator;
3. the kernel's operands are checked, its rows reserved and bound to a
   :class:`~repro.exec.layout.RowLayout`, a ``bbop`` instruction is
   formed, encoded/decoded through the ISA, and the control unit
   replays the µProgram across the participating banks (Step 3).

``run``/``run_expr``/``run_multi`` (DRAM-resident operands) and
``map``/``map_expr`` (host vectors of any length) are doors onto that
path: each normalises ``(op, positional | feeds)`` to ``(kernel,
operands in slot order)`` and dispatches.

Typical use::

    sim = Simdram()
    a = sim.array([1, 2, 3, 4], width=8)
    b = sim.array([10, 20, 30, 40], width=8)
    total = sim.run("add", a, b)
    print(total.to_numpy())        # [11 22 33 44]
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core import fuse
from repro.core.expr import Expr
from repro.core.fuse import (
    Kernel,
    KernelSource,
    kernel_identity,
    resident_width,
    same_length,
)
from repro.core.operations import (
    CATALOG,
    BuildFn,
    GoldenFn,
    OperationSpec,
    register_operation,
)
from repro.dram.bank import DramModule
from repro.dram.commands import CommandStats
from repro.dram.energy import DramEnergy
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTiming
from repro.errors import ExecutionError, OperationError
from repro.exec.control_unit import ControlUnit
from repro.exec.engines import ExecutionEngine
from repro.exec.layout import RowLayout
from repro.exec.memory import RowBlock, VerticalAllocator
from repro.exec.tracker import ObjectTracker
from repro.exec.transposition import TranspositionUnit
from repro.isa.instructions import BbopInstruction, bbop, bbop_trsp_init
from repro.obs.tracing import span as obs_span
from repro.uprog.scheduler import ScheduleOptions
from repro.uprog.uops import INPUT_SPACES, Space


@dataclass(frozen=True)
class SimdramConfig:
    """Configuration of a simulated SIMDRAM system."""

    geometry: DramGeometry = field(default_factory=DramGeometry.sim_small)
    timing: DramTiming = field(default_factory=DramTiming.ddr4_2400)
    energy: DramEnergy = field(default_factory=DramEnergy.ddr4)
    schedule: ScheduleOptions = field(default_factory=ScheduleOptions)
    optimize_mig: bool = True
    backend: str = "simdram"  # default substrate for compiled operations


def compile_for(config: SimdramConfig, op: KernelSource, width: int,
                backend: str) -> Kernel:
    """Steps 1+2 under a system's configuration — what a module's and a
    cluster's ``compile`` run on a cache miss.  Consults no cache."""
    # The configured schedule options describe *SIMDRAM's* Step-2
    # scheduler; the Ambit baseline keeps its own default (fixed
    # per-gate sequences, see compile_kernel).
    options = config.schedule if backend == "simdram" else None
    # Both reach fuse.compile_kernel; entering through the public name
    # that matches the source keeps the compile visible to a profiler
    # wrapping those names (benchmarks/e2e tells first maps by it).
    compile_ = (fuse.compile_multi if isinstance(op, dict)
                else fuse.compile_expr)
    return compile_(op, width, backend=backend, options=options,
                    optimize_mig=config.optimize_mig)


class SimdramArray:
    """A handle to a vertically laid-out vector resident in DRAM.

    A handle is ``"live"`` until its rows are released: explicitly
    through :meth:`free`, or by the runtime's paging layer, which marks
    the handle ``"evicted"`` after spilling its bits to host memory.
    Reading a non-live handle raises :class:`~repro.errors.ExecutionError`
    instead of returning whatever now occupies the rows.
    """

    def __init__(self, framework: "Simdram", block: RowBlock,
                 n_elements: int, width: int, signed: bool) -> None:
        self._framework = framework
        self.block = block
        self.n_elements = n_elements
        self.width = width
        self.signed = signed
        self.status = "live"  # "live" | "freed" | "evicted"

    def to_numpy(self) -> np.ndarray:
        """Read the vector back to the host (through the transposer)."""
        return self._framework.read(self)

    def require_live(self) -> None:
        """Raise unless this handle still owns its rows."""
        if self.status != "live":
            raise ExecutionError(
                f"array at rows [{self.block.base}, {self.block.end}) "
                f"is {self.status}; its rows may hold unrelated data")

    def free(self) -> None:
        """Release the underlying row block and its tracker entry.

        Idempotent: freeing an already-freed or evicted handle is a
        no-op (an evicted handle's rows were released at eviction).
        """
        if self.status == "live":
            self._framework.tracker.release(self.block.base)
            self._framework._allocator.free(self.block)
        self.status = "freed"

    def __len__(self) -> int:
        return self.n_elements

    def __repr__(self) -> str:
        sign = "i" if self.signed else "u"
        return (f"SimdramArray({self.n_elements} x {sign}{self.width}, "
                f"rows [{self.block.base}, {self.block.end}), "
                f"{self.status})")


#: Length of :attr:`Simdram.issued`, the inspection log of recent bbops.
ISSUED_LOG = 4096


class Simdram:
    """End-to-end SIMDRAM system simulator and programming interface."""

    def __init__(self, config: SimdramConfig | None = None,
                 trace: bool = False, seed: int | None = 1) -> None:
        self.config = config or SimdramConfig()
        self.module = DramModule(self.config.geometry, trace=trace,
                                 seed=seed)
        self.control = ControlUnit()
        self.transposer = TranspositionUnit(self.config.timing,
                                            self.config.energy)
        self.tracker = ObjectTracker(capacity=4096)
        self._allocator = VerticalAllocator(self.config.geometry)
        #: The kernel cache: ``kernel_identity`` -> installed Kernel.
        self._kernels: dict[tuple[str, int, str], Kernel] = {}
        #: Stats of the most recent :meth:`run` call.
        self.last_stats: CommandStats | None = None
        #: Instruction log for tests/inspection: the last
        #: ``ISSUED_LOG`` bbops (a serving process issues four per map
        #: for as long as it lives), and how many were issued in all.
        self.issued: deque[BbopInstruction] = deque(maxlen=ISSUED_LOG)
        self.n_issued = 0

    # ------------------------------------------------------------------
    # operation management
    # ------------------------------------------------------------------
    def compile(self, op: KernelSource, width: int,
                backend: str | None = None) -> Kernel:
        """Compile (Steps 1+2) and install a kernel, once.

        ``op`` is a catalog operation name, an :class:`Expr` DAG, or a
        ``{name: Expr}`` mapping of roots computed by one multi-output
        µProgram.  The cache key is the kernel's
        :func:`~repro.core.fuse.kernel_identity` — a catalog name, or
        the DAG's stable content hash — plus the element width and
        backend, so structurally identical pipelines share one compiled
        kernel and, downstream, one control-unit
        :class:`~repro.exec.plan.ExecutionPlan` per row layout; a
        catalog operation reached by name and as the one-node ``Expr``
        over its canonical leaves is one entry.
        """
        backend = backend or self.config.backend
        kernel = self._kernels.get(kernel_identity(op, width, backend))
        if kernel is None:
            kernel = compile_for(self.config, op, width, backend)
            self.adopt(kernel)
        return kernel

    def adopt(self, kernel: Kernel) -> None:
        """Install an already compiled kernel into this module.

        µPrograms are symbolic (geometry-independent), so a cluster
        compiles each kernel once and every member module adopts the
        same record instead of re-running Steps 1+2.  No-op if this
        very kernel is installed.
        """
        if self._kernels.get(kernel.key) is not kernel:
            self.control.install(kernel.program)
            self._kernels[kernel.key] = kernel

    def register_operation(self, name: str, arity: int, build: BuildFn,
                           golden: GoldenFn, category: str = "user",
                           description: str = "user-defined operation",
                           **kwargs) -> OperationSpec:
        """Register a new operation (the paper's flexibility claim)."""
        return register_operation(name, arity, category, description,
                                  build, golden, **kwargs)

    @property
    def operations(self) -> list[str]:
        """Names of all currently registered operations."""
        return sorted(CATALOG)

    @property
    def lanes(self) -> int:
        """SIMD lanes of the module (one element per bitline)."""
        return self.module.lanes

    @property
    def kernel_cache_size(self) -> int:
        """Compiled kernels cached on this module plus the compiled
        executors engines have memoized on cached execution plans —
        the telemetry the lazy engine and the serving layer report."""
        return len(self._kernels) + self.control.compiled_cache_size()

    @contextlib.contextmanager
    def _bound_rows(self, kernel: Kernel,
                    in_blocks: "list[RowBlock] | None" = None,
                    out_block: RowBlock | None = None):
        """Reserve the rows ``kernel`` needs and bind them to a
        :class:`RowLayout` — the one binding behind ``run``, ``map``
        and :meth:`warm_executor`.

        Blocks the caller already owns (resident operands, an output
        array) are bound as given; the rest are reserved first-fit in
        the order operands, output, temporaries, and released on exit
        — also when the body raises, so a failed execution never leaks
        scratch rows.  Yields ``(in_blocks, out_block, layout)``.
        """
        reserved: list[RowBlock] = []

        def reserve(width: int) -> RowBlock:
            reserved.append(self._allocator.alloc(width))
            return reserved[-1]

        try:
            if in_blocks is None:
                in_blocks = [reserve(w) for w in kernel.input_widths]
            if out_block is None:
                out_block = reserve(kernel.out_width)
            bases = {Space.OUTPUT: out_block.base}
            for space, block in zip(INPUT_SPACES, in_blocks):
                bases[space] = block.base
            if kernel.program.n_temp_rows:
                bases[Space.TEMP] = reserve(kernel.program.n_temp_rows).base
            yield in_blocks, out_block, RowLayout(bases)
        finally:
            for block in reversed(reserved):
                self._allocator.free(block)

    def warm_executor(self, kernel: Kernel,
                      engine: "str | ExecutionEngine" = "auto") -> None:
        """Precompile the control unit's plan *and* the engine's
        compiled executor for the row layout a batched dispatch will
        use, without touching DRAM state.

        Binds rows exactly as :meth:`map` does, so a subsequent
        ``map`` on an idle allocator binds the identical
        :class:`RowLayout` and hits the warmed cache entries — the
        serve layer's manifest warmup relies on this.
        """
        with self._bound_rows(kernel) as (_, _, layout):
            self.control.warm_plan(kernel.program, layout,
                                   self.module.geometry, engine)

    def warm(self, op: KernelSource, width: int,
             engine: "str | ExecutionEngine" = "auto") -> None:
        """:meth:`compile` plus :meth:`warm_executor` (as the cluster's)."""
        self.warm_executor(self.compile(op, width), engine)

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def array(self, values, width: int, signed: bool = False) -> SimdramArray:
        """Place a host vector into DRAM in vertical layout."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise OperationError("Simdram.array expects a 1-D vector")
        if len(values) > self.module.lanes:
            raise OperationError(
                f"{len(values)} elements exceed the module's "
                f"{self.module.lanes} SIMD lanes")
        block = self._allocator.alloc(width)
        self._announce(block, len(values), width)
        self.transposer.host_to_vertical(self.module, block, values, width)
        return SimdramArray(self, block, len(values), width, signed)

    def empty(self, n_elements: int, width: int,
              signed: bool = False) -> SimdramArray:
        """Allocate an uninitialized vertical vector (e.g. for outputs)."""
        block = self._allocator.alloc(width)
        self._announce(block, n_elements, width)
        return SimdramArray(self, block, n_elements, width, signed)

    def _log(self, instruction: BbopInstruction) -> None:
        self.issued.append(instruction)
        self.n_issued += 1

    def _announce(self, block: RowBlock, n_elements: int,
                  width: int) -> None:
        """Issue bbop_trsp_init so the transposition unit tracks the
        object (paper §4)."""
        instruction = BbopInstruction.decode(
            bbop_trsp_init(block.base, n_elements, width).encode())
        self._log(instruction)
        self.tracker.register(block.base, n_elements, width)

    def read(self, array: SimdramArray) -> np.ndarray:
        """Read a vertical vector back into host (horizontal) layout."""
        array.require_live()
        return self.transposer.vertical_to_host(
            self.module, array.block, array.n_elements, array.width,
            signed=array.signed)

    def spill(self, array: SimdramArray,
              stats: CommandStats | None = None) -> np.ndarray:
        """Evict an array: read its values out and release its rows.

        The paging layer's eviction primitive.  The handle transitions
        to ``"evicted"`` (subsequent reads raise), its rows return to
        the allocator, and the returned host vector round-trips
        bit-exactly through :meth:`array` on fault-in.  ``stats``
        receives the spill accounting when provided.
        """
        array.require_live()
        values = self.transposer.spill(
            self.module, array.block, array.n_elements, array.width,
            signed=array.signed, stats=stats)
        self.tracker.release(array.block.base)
        self._allocator.free(array.block)
        array.status = "evicted"
        return values

    # ------------------------------------------------------------------
    # in-DRAM bulk copy / initialization (RowClone, paper §2)
    # ------------------------------------------------------------------
    def copy(self, array: SimdramArray,
             signed: bool | None = None) -> SimdramArray:
        """Bulk-copy a vector inside DRAM via RowClone.

        One AAP per bit row; no data crosses the channel — the mechanism
        SIMDRAM also uses for its shift operations.

        ``signed`` sets the result's signedness interpretation; the
        default (``None``) preserves the source's, since a bit-exact
        copy represents the same value under the same encoding.
        """
        self.tracker.lookup(array.block.base)
        array.require_live()
        out = self.empty(array.n_elements, array.width,
                         signed=array.signed if signed is None else signed)
        from repro.dram.rows import data_row
        for bit in range(array.width):
            self.module.broadcast_aap(data_row(array.block.base + bit),
                                      data_row(out.block.base + bit))
        return out

    def fill(self, value: int, n_elements: int, width: int,
             signed: bool = False) -> SimdramArray:
        """Initialize a vector to a broadcast constant inside DRAM.

        Each bit row is RowCloned from the C-group constant row matching
        that bit of ``value`` — bulk initialization with zero host I/O.
        """
        from repro.dram.rows import ctrl_row, data_row
        from repro.util.bitops import to_unsigned
        encoded = int(to_unsigned(np.array([value]), width)[0])
        out = self.empty(n_elements, width, signed=signed)
        for bit in range(width):
            source = ctrl_row((encoded >> bit) & 1)
            self.module.broadcast_aap(source,
                                      data_row(out.block.base + bit))
        return out

    def shift_left(self, array: SimdramArray, amount: int,
                   signed: bool | None = None) -> SimdramArray:
        """Elementwise logical left shift, entirely in DRAM (paper §2).

        In vertical layout a shift is pure row bookkeeping: bit row ``i``
        of the result is a RowClone copy of source bit row ``i - amount``,
        and the vacated low rows are RowCloned from the all-zeros control
        row.  No sense-amplifier computation happens at all.

        ``signed`` sets the result's signedness interpretation; the
        default (``None``) preserves the source's, because a left shift
        is multiplication by ``2**amount`` modulo ``2**width`` under
        *both* encodings — the bits don't care.
        """
        return self._shift(array, amount, left=True, signed=signed)

    def shift_right(self, array: SimdramArray, amount: int,
                    signed: bool | None = None) -> SimdramArray:
        """Elementwise right shift, entirely in DRAM — matching the
        operand's encoding (numpy ``>>`` semantics).

        On an **unsigned** source the vacated high bit rows are
        RowCloned from the all-zeros control row (logical shift).  On a
        **signed** source they are RowCloned from the source's *sign
        plane* — the bit row holding every element's sign bit — so
        negative values stay negative: an arithmetic shift costs the
        same one AAP per bit row as a logical one, the vacated rows
        just copy a data row instead of a control row.

        ``signed`` overrides the default operand-driven behaviour:
        ``signed=False`` forces a logical (zero-filling) shift with an
        unsigned result; ``signed=True`` forces an arithmetic
        (sign-filling) shift with a signed result.
        """
        arithmetic = array.signed if signed is None else signed
        return self._shift(array, amount, left=False,
                           signed=arithmetic, arithmetic=arithmetic)

    def _shift(self, array: SimdramArray, amount: int, left: bool,
               signed: bool | None = None,
               arithmetic: bool = False) -> SimdramArray:
        from repro.dram.rows import ctrl_row, data_row
        if amount < 0:
            raise OperationError(f"shift amount must be >= 0, "
                                 f"got {amount}")
        self.tracker.lookup(array.block.base)
        array.require_live()
        out = self.empty(array.n_elements, array.width,
                         signed=array.signed if signed is None else signed)
        sign_plane = data_row(array.block.base + array.width - 1)
        for bit in range(array.width):
            source_bit = bit - amount if left else bit + amount
            if 0 <= source_bit < array.width:
                source = data_row(array.block.base + source_bit)
            elif arithmetic and not left:
                source = sign_plane  # shifted-in copies of the sign bit
            else:
                source = ctrl_row(0)  # shifted-in zeros
            self.module.broadcast_aap(source,
                                      data_row(out.block.base + bit))
        return out

    # ------------------------------------------------------------------
    # execution (Step 3)
    # ------------------------------------------------------------------
    def _issue(self, kernel: Kernel, in_blocks: "list[RowBlock]",
               out_block: RowBlock, layout: RowLayout, n_elements: int,
               engine: "str | ExecutionEngine") -> None:
        """One ``bbop``: form the instruction, round-trip it through
        the binary ISA encoding (as the memory controller would receive
        it), and replay the kernel's installed µProgram on every bank
        in lockstep."""
        program = kernel.program
        self._log(BbopInstruction.decode(bbop(
            program.op_name, dst=out_block.base,
            srcs=[block.base for block in in_blocks],
            n_elements=n_elements,
            element_width=program.element_width).encode()))
        with obs_span("engine.execute", op=program.op_name,
                      width=program.element_width, n_elements=n_elements,
                      engine=str(getattr(engine, "name", engine))):
            self.last_stats = self.control.execute_on_module(
                program, self.module, layout, engine=engine)

    def _run(self, op: KernelSource, positional: tuple,
             feeds: "dict[str, SimdramArray] | None", width: int | None,
             backend: str | None, engine: "str | ExecutionEngine",
             ) -> tuple[Kernel, SimdramArray]:
        """The one resident-operand dispatch: compile (or look up) the
        kernel, bind and check the operands, allocate the packed
        output, issue.  A failing execution releases its temporary
        block *and* the output allocation instead of leaking them."""
        if width is None:
            width = resident_width(positional, feeds)
        kernel = self.compile(op, width, backend)
        operands = kernel.bind(positional, feeds)
        for operand in operands:
            # The control unit only computes on announced vertical
            # objects: the tracker catches stale base rows, and
            # check_resident then catches freed handles whose rows were
            # re-allocated (the tracker would find the new occupant).
            self.tracker.lookup(operand.block.base)
        n_elements = kernel.check_resident(operands)
        out = self.empty(n_elements, kernel.out_width, signed=kernel.signed)
        try:
            blocks = [operand.block for operand in operands]
            with self._bound_rows(kernel, blocks, out.block) as (_, _, layout):
                self._issue(kernel, blocks, out.block, layout, n_elements,
                            engine)
        except BaseException:
            out.free()
            raise
        return kernel, out

    def run(self, op: "str | Expr", *operands: SimdramArray,
            feeds: "dict[str, SimdramArray] | None" = None,
            width: int | None = None, backend: str | None = None,
            engine: "str | ExecutionEngine" = "auto") -> SimdramArray:
        """Execute a kernel over DRAM-resident operands — positional,
        in operand-slot order, or bound by leaf name via ``feeds``.
        The pipeline width defaults to the one the operands imply
        (:func:`~repro.core.fuse.resident_width`).

        ``engine`` is an execution-engine registry name or an
        :class:`~repro.exec.engines.ExecutionEngine` instance (see
        :func:`repro.exec.engines.list_engines`); ``"auto"`` picks the
        best available plan-based engine unless tracing or fault
        injection forces the per-bank slow path.
        """
        return self._run(op, operands, feeds, width, backend, engine)[1]

    def run_expr(self, root: "str | Expr", feeds: dict[str, SimdramArray],
                 *, width: int | None = None, backend: str | None = None,
                 engine: "str | ExecutionEngine" = "auto") -> SimdramArray:
        """Execute a whole expression DAG as **one** fused µProgram.

        :meth:`run` with every input leaf of ``root`` bound by name to
        a DRAM-resident array.  Intermediate values never touch named row
        blocks: the whole DAG replays as a single command stream with
        one output allocation and one temp reservation.
        """
        return self._run(root, (), feeds, width, backend, engine)[1]

    def run_multi(self, roots: dict[str, Expr],
                  feeds: dict[str, SimdramArray], *,
                  width: int | None = None, backend: str | None = None,
                  engine: "str | ExecutionEngine" = "auto") -> dict[str, np.ndarray]:
        """Execute several expression roots as **one** fused µProgram.

        All roots share one input pool (at most three DRAM-resident
        leaves) and one packed output allocation: a single ``bbop``
        dispatch computes every root, and each root's bit slice is read
        back through the transposition unit.  Returns a mapping from
        root name to its host vector (decoded per the root operation's
        signedness).  Shared subexpressions between roots are computed
        once — the stitched circuit dedups them structurally.
        """
        kernel, out = self._run(roots, (), feeds, width, backend, engine)
        try:
            return {
                output.name: self.transposer.vertical_to_host(
                    self.module,
                    RowBlock(out.block.base + output.offset, output.width),
                    out.n_elements, output.width, signed=output.signed)
                for output in kernel.outputs}
        finally:
            out.free()

    # ------------------------------------------------------------------
    # streaming execution over host vectors of any length
    # ------------------------------------------------------------------
    def _map(self, op: "str | Expr", positional: tuple,
             feeds: "dict | None", width: int, backend: str | None,
             engine: "str | ExecutionEngine") -> np.ndarray:
        """The one host-vector dispatch.

        Vectors longer than the module's SIMD lanes are processed in
        lane-sized batches, the paper's execution model for large
        inputs.  The operand, output and temporary row blocks are
        reserved *once* and reused across batches (each batch's
        transpose-in overwrites every row of every operand block), so
        per-batch work is transpose-in, replay, transpose-out — no
        alloc/free churn, and the control unit's plan cache hits on
        every batch after the first because the row layout is stable.
        All rows are released when the sweep finishes or fails.
        """
        kernel = self.compile(op, width, backend)
        vectors = [np.asarray(values)
                   for values in kernel.bind(positional, feeds)]
        n_total = same_length(kernel.op_name, [len(v) for v in vectors])
        lanes = self.module.lanes
        out_width = kernel.out_width

        chunks = []
        with contextlib.ExitStack() as stack:
            in_blocks, out_block, layout = stack.enter_context(
                self._bound_rows(kernel))
            # Announce each reused vertical object once (bbop_trsp_init),
            # not once per batch, and drop it from the tracker on exit.
            for block in (*in_blocks, out_block):
                self._announce(block, min(lanes, n_total), block.width)
                stack.callback(self.tracker.release, block.base)

            for start in range(0, n_total, lanes):
                stop = min(start + lanes, n_total)
                for values, block in zip(vectors, in_blocks):
                    self.transposer.host_to_vertical(
                        self.module, block, values[start:stop], block.width)
                self._issue(kernel, in_blocks, out_block, layout,
                            stop - start, engine)
                chunks.append(self.transposer.vertical_to_host(
                    self.module, out_block, stop - start, out_width,
                    signed=kernel.signed))
        return np.concatenate(chunks)

    def map(self, op: "str | Expr", *host_operands,
            feeds: "dict | None" = None, width: int = 8,
            backend: str | None = None,
            engine: "str | ExecutionEngine" = "auto") -> np.ndarray:
        """Run a kernel over host vectors of arbitrary length —
        positional, in operand-slot order, or bound by leaf name via
        ``feeds``.

        ``width`` is the element width in bits; operands with a
        fixed-width interface (e.g. ``if_else``'s 1-bit select) are
        sized per the operation's spec automatically.  Host values are
        encoded as two's complement at each slot's width on the way
        in, so negative inputs work with the signed operations
        directly; the result's signedness follows the root operation's
        spec.
        """
        return self._map(op, host_operands, feeds, width, backend, engine)

    def map_expr(self, root: "str | Expr", feeds: dict[str, "np.ndarray"],
                 *, width: int = 8, backend: str | None = None,
                 engine: "str | ExecutionEngine" = "auto") -> np.ndarray:
        """:meth:`map` with the vectors bound by leaf name.  Because
        the whole DAG is one µProgram, each batch is transpose-in, one
        replay, transpose-out — no per-operation intermediates exist
        at all."""
        return self._map(root, (), feeds, width, backend, engine)

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    def last_latency_ns(self) -> float:
        """Latency of the last run (banks operate in parallel)."""
        if self.last_stats is None:
            raise OperationError("no operation has been run yet")
        per_bank = self.last_stats.scaled(1)
        # All banks execute the same stream concurrently; latency is the
        # single-bank command latency.
        banks = self.config.geometry.banks
        return CommandStats(
            n_ap=per_bank.n_ap // banks,
            n_aap=per_bank.n_aap // banks,
        ).latency_ns(self.config.timing)

    def last_energy_nj(self) -> float:
        """DRAM energy of the last run (all banks)."""
        if self.last_stats is None:
            raise OperationError("no operation has been run yet")
        return self.last_stats.energy_nj(
            self.config.timing, self.config.geometry, self.config.energy)
