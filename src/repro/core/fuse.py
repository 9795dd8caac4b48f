"""The kernel compiler: one µProgram for any computation.

The paper's framework has one pipeline for "any arbitrary and complex
operation": circuit -> MIG (Step 1) -> row allocation + µProgram
(Step 2) -> ``bbop`` replay (Step 3).  This module is Steps 1+2 for
every kind of source the library accepts — there is one compile body,
:func:`compile_kernel`, and one compiled record, :class:`Kernel`:

* a **catalog operation** (a name, or an
  :class:`~repro.core.operations.OperationSpec`) is the one-node
  :class:`~repro.core.expr.Expr` applying it to its canonical leaves
  ``a``, ``b``, ``c``;
* an **expression DAG** has every operation's gate-level circuit
  instantiated into one shared :class:`~repro.logic.circuit.Circuit`,
  each operation's output bits wired directly as the next operation's
  input nets (constants become constant nets and fold away);
* a **named set of roots** is the same thing with N outputs packed
  contiguously into the OUTPUT space (shared subgraphs stitched once).

The stitched circuit becomes a single MIG, optimized *across*
operation boundaries, and the Step-2
:class:`~repro.uprog.scheduler.Scheduler` allocates rows for the whole
graph in one pass, so intermediate values live in B-group planes and
compiler temporaries — they never touch named row blocks, never
transpose, never allocate per step.

At Step 3 every kernel looks the same: up to three input spaces (the
``bbop`` instruction carries three source addresses), one output space
and a temp region.  :func:`kernel_identity` names a kernel — a catalog
name, or ``fused_<content hash>`` — and that name is the opcode, the
cache key on :class:`~repro.Simdram` and
:class:`~repro.SimdramCluster`, the control unit's
:class:`~repro.exec.control_unit.ProgramKey`, the PMU's attribution
key and the serving layer's pack key.
"""

from __future__ import annotations

import functools
import gc
import hashlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.expr import (
    KIND_CONST,
    KIND_INPUT,
    KIND_OP,
    Expr,
    analyze,
    dag_hash,
    inp,
    post_order,
)
from repro.core.operations import (
    OperationSpec,
    backend_style,
    get_operation,
)
from repro.errors import OperationError
from repro.isa.instructions import register_opcode
from repro.logic.circuit import Circuit, Net
from repro.logic.mig import Mig
from repro.logic.optimize import optimize, xor3_passthrough
from repro.uprog.program import MicroProgram, OperandSpec
from repro.uprog.scheduler import ScheduleOptions, schedule_stitched
from repro.uprog.uops import INPUT_SPACES, URow
from repro.util.bitops import to_unsigned

#: The bbop instruction carries at most this many source base addresses.
MAX_FUSED_INPUTS = len(INPUT_SPACES)

#: Circuit-input prefix of each operand slot; also the canonical leaf
#: names of a catalog operation (``OperationSpec.operand_names``).
_SLOT_PREFIXES = ("a", "b", "c")

#: What a kernel can be compiled from.
KernelSource = str | OperationSpec | Expr | dict[str, Expr]


class Output(NamedTuple):
    """One result of a kernel: a bit slice of its packed OUTPUT space."""

    name: str
    offset: int       # first bit row inside the OUTPUT block
    width: int        # bit rows
    signed: bool      # the root operation's result signedness


@dataclass(frozen=True)
class Kernel:
    """A compiled computation: one µProgram plus its interface.

    ``input_names``/``input_widths`` give the operand slots in ``bbop``
    source order (for a catalog operation the leaves are ``a``, ``b``,
    ``c``); ``outputs`` lists each result's slice of the OUTPUT block,
    in the order the roots were given.  A catalog operation or a single
    expression has one output named ``y``.
    """

    program: MicroProgram
    width: int                        # pipeline element width
    backend: str
    input_names: tuple[str, ...]
    input_widths: tuple[int, ...]
    outputs: tuple[Output, ...]

    @property
    def op_name(self) -> str:
        return self.program.op_name

    @property
    def key(self) -> tuple[str, int, str]:
        """The kernel's :func:`kernel_identity`."""
        return (self.program.op_name, self.width, self.backend)

    @property
    def out_width(self) -> int:
        """Bits of the packed OUTPUT space (all outputs contiguous)."""
        return self.program.output.width

    @property
    def signed(self) -> bool:
        """Result signedness of the (first) output."""
        return self.outputs[0].signed

    def bind(self, positional: Sequence, feeds: "dict | None" = None
             ) -> tuple:
        """Operands in slot order, from positional operands or a
        leaf-name binding (see :func:`bind_operands`)."""
        return bind_operands(self.op_name, self.input_names, positional,
                             feeds)

    def check_resident(self, operands: Sequence) -> int:
        """Validate DRAM-resident operands (arrays or tensors, in slot
        order): live, of each slot's width, equally long.  Returns the
        element count."""
        for name, operand, expected in zip(self.input_names, operands,
                                           self.input_widths):
            operand.require_live()
            if operand.width != expected:
                raise OperationError(
                    f"{self.op_name} input {name!r} must be "
                    f"{expected}-bit, got {operand.width}-bit")
        return same_length(self.op_name,
                           [operand.n_elements for operand in operands])


def bind_operands(what: str, names: Sequence[str], positional: Sequence,
                  feeds: "dict | None") -> tuple:
    """Operands in kernel-input order — the one place every entry point
    (``run``/``map``/``submit`` on a module, a cluster or the service)
    turns ``positional | feeds`` into slots.

    Positional operands bind in slot order and must match the slot
    count; ``feeds`` binds by leaf name and must name every leaf and
    nothing else.
    """
    if feeds is None:
        if len(positional) != len(names):
            raise OperationError(
                f"{what} takes {len(names)} operands, "
                f"got {len(positional)}")
        return tuple(positional)
    if positional:
        raise OperationError(
            f"{what}: bind operands positionally or via feeds=, "
            f"not both")
    if len(feeds) != len(names) or any(n not in feeds for n in names):
        missing = set(names) - set(feeds)
        extra = set(feeds) - set(names)
        raise OperationError(
            f"{what} inputs are {sorted(names)}"
            + (f"; missing {sorted(missing)}" if missing else "")
            + (f"; unexpected {sorted(extra)}" if extra else ""))
    return tuple(feeds[name] for name in names)


def resident_width(positional: Sequence, feeds: "dict | None") -> int:
    """The pipeline width DRAM-resident operands imply when the caller
    names none: the last positional operand's (an operation's fixed
    narrow slots, e.g. ``if_else``'s select, come first), or the widest
    of a named binding (pass ``width`` explicitly for pipelines whose
    operands are all narrower than the element width)."""
    operands = positional if feeds is None else tuple(feeds.values())
    if not operands:
        raise OperationError("an execution needs at least one operand")
    if feeds is None:
        return operands[-1].width
    return max(operand.width for operand in operands)


def same_length(what: str, lengths: Sequence[int]) -> int:
    """The common operand length (elements); raises when they differ
    or there is nothing to compute on."""
    if any(n != lengths[0] for n in lengths):
        raise OperationError(
            f"{what}: operand lengths differ: {list(lengths)}")
    if lengths[0] == 0:
        raise OperationError(f"{what} needs at least one element")
    return lengths[0]


# ---------------------------------------------------------------------------
# naming: what kernel does a source denote?
# ---------------------------------------------------------------------------
def fused_op_name(digest: str) -> str:
    """The µProgram/bbop name of a fused kernel, from its content hash."""
    return f"fused_{digest}"


def multi_digest(roots: dict[str, Expr]) -> str:
    """Joint content hash of a named multi-root DAG."""
    token = "+".join(f"{name}:{dag_hash(root)}"
                     for name, root in sorted(roots.items()))
    return hashlib.sha256(token.encode()).hexdigest()[:16]


def catalog_name(root: Expr) -> "str | None":
    """The operation ``root`` *is*, when it is exactly one operation
    applied to its canonical leaves (``add(inp("a"), inp("b"))`` is
    ``"add"``); ``None`` for any other DAG.  Structural, no hashing."""
    if root.kind != KIND_OP:
        return None
    leaves = root.children
    if any(leaf.kind != KIND_INPUT or leaf.name != prefix
           for leaf, prefix in zip(leaves, _SLOT_PREFIXES)):
        return None
    return root.op


def _resolve(op: KernelSource):
    """``(µProgram name, source hash, named roots, spec lookup)`` of a
    kernel source — the naming rule behind :func:`kernel_identity` and
    the first thing :func:`compile_kernel` does."""
    if isinstance(op, dict):
        if not op:
            raise OperationError("a kernel needs at least one root")
        digest = multi_digest(op)
        return fused_op_name(digest), digest, op, get_operation
    if isinstance(op, Expr):
        name = catalog_name(op)
        if name is None:
            digest = dag_hash(op)
            return fused_op_name(digest), digest, {"y": op}, get_operation
        op = name
    spec = op if isinstance(op, OperationSpec) else get_operation(str(op))
    # Built directly, not through expr.op: an unregistered spec (the
    # Ambit bulk operations) compiles too.
    root = Expr(KIND_OP, op=spec.name,
                children=tuple(map(inp, spec.operand_names())))
    return spec.name, None, {"y": root}, {spec.name: spec}.__getitem__


def kernel_identity(op: "str | Expr | dict[str, Expr]", width: int,
                    backend: str = "simdram") -> tuple[str, int, str]:
    """Canonical identity of the kernel a dispatch will execute.

    A catalog operation — given by name, or as the :class:`Expr`
    applying it to its canonical leaves — is identified by its name;
    any other DAG by its stable content hash.  Two requests with equal
    identities replay the *same* µProgram over the same operand
    interface, so the framework caches on it and the serving layer's
    lane packer batches on it.  A name is an O(1) answer: no
    ``Expr`` is built or hashed.
    """
    if isinstance(op, str):
        return (op, width, backend)
    return (_resolve(op)[0], width, backend)


def kernel_inputs(op: KernelSource, width: int) -> dict[str, int]:
    """Leaf name -> operand bit width of the kernel ``op`` denotes at
    ``width``, in operand-slot order — its validated interface, without
    compiling it.  :func:`compile_kernel` builds the kernel's interface
    from this, and the serving layer validates requests against it."""
    if isinstance(op, (str, OperationSpec)):
        spec = op if isinstance(op, OperationSpec) else get_operation(op)
        if width < 1:
            raise OperationError(f"width must be >= 1, got {width}")
        return dict(zip(spec.operand_names(), spec.in_widths(width)))
    inputs: dict[str, int] = {}
    for root in (op.values() if isinstance(op, dict) else (op,)):
        for leaf, w in analyze(root, width).input_widths.items():
            known = inputs.setdefault(leaf, w)
            if known != w:
                raise OperationError(
                    f"input {leaf!r} is consumed at {known}-bit and "
                    f"{w}-bit widths across roots")
    if len(inputs) > MAX_FUSED_INPUTS:
        raise OperationError(
            f"fused expression binds {len(inputs)} distinct inputs "
            f"{sorted(inputs)}; the bbop instruction carries at "
            f"most {MAX_FUSED_INPUTS} source addresses (fold broadcast "
            f"values into expr.const leaves)")
    return inputs


# ---------------------------------------------------------------------------
# Steps 1+2
# ---------------------------------------------------------------------------
def _stitch_root(circuit: Circuit, root: Expr, width: int,
                 inputs: dict[str, int], style: str,
                 spec_of) -> list[Net]:
    """Stitch one DAG into the shared circuit; returns the root's nets.

    Each operation's circuit factory receives its children's *output
    nets* directly as operand bit lists — the wiring that makes
    intermediates free.  Input leaves become circuit inputs named by
    their operand slot (``a0..``, ``b0..``, ``c0..``), constants become
    constant nets encoded at the width each consumer expects (the same
    const value may feed consumers of different widths); the circuit's
    structural hashing dedups subgraphs shared between roots.
    """
    slot_of = {name: i for i, name in enumerate(inputs)}
    bits: dict[Expr, list[Net]] = {}

    def bits_of(node: Expr) -> list[Net]:
        cached = bits.get(node)
        if cached is not None:
            return cached
        prefix = _SLOT_PREFIXES[slot_of[node.name]]
        nets = [circuit.input(f"{prefix}{i}")
                for i in range(inputs[node.name])]
        bits[node] = nets
        return nets

    def const_nets(value: int, w: int) -> list[Net]:
        encoded = int(to_unsigned(np.array([value]), w)[0])
        return [circuit.const(bool((encoded >> i) & 1)) for i in range(w)]

    for node in post_order(root):
        if node.kind != KIND_OP:
            continue
        spec = spec_of(node.op)
        args = [const_nets(child.value, w) if child.kind == KIND_CONST
                else bits_of(child)
                for child, w in zip(node.children, spec.in_widths(width))]
        outputs = spec.build(circuit, args, style)
        expected = spec.out_width(width)
        if len(outputs) != expected:
            raise OperationError(
                f"{spec.name}: factory produced {len(outputs)} output "
                f"bits, spec says {expected}")
        bits[node] = outputs
    return bits[root]


def _command_bound(mig: Mig) -> int:
    """Commands no schedule of ``mig`` can do without: one TRA per MAJ
    node, one AAP for every input bit row a live node reads (it has to
    enter the B-group), one for every output that is not a MAJ result
    (a MAJ root's copy-out can ride on its TRA).  Zero temporary rows."""
    live = mig.live_nodes()
    read = {ref.node for node in live for ref in mig.children_of(node)}
    return (len(live) + sum(mig.is_input(node) for node in read)
            + sum(mig.children_of(ref.node) is None
                  for _, ref in mig.outputs))


def _collector_paused(func):
    """Steps 1 and 2 build and drop graph nodes and small tables by the
    thousand and no reference cycles: the cycle collector only gets in
    the way (a fifth of Step 2's time), so it rests for the call."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()
    return wrapper


@_collector_paused
def compile_kernel(op: KernelSource, width: int, backend: str = "simdram",
                   options: ScheduleOptions | None = None,
                   optimize_mig: bool = True) -> Kernel:
    """Steps 1+2 for any kernel source — the one compile body.

    Stitches every root into one circuit, converts it to a MIG,
    optimizes it across operation boundaries and schedules the whole
    graph into one µProgram.  The Ambit baseline defaults to *naive*
    scheduling (``reuse=False``): real Ambit replays a fixed command
    sequence per bulk gate — three operand loads and a fused TRA-copy —
    with no inter-gate B-group reuse.  Exploiting reuse to minimize
    activations is precisely what SIMDRAM's Step 2 contributes, so only
    the SIMDRAM backend gets it.  Pass ``options`` explicitly to
    override (used by the ablation bench).
    """
    name, source_hash, roots, spec_of = _resolve(op)
    inputs = kernel_inputs(op, width)
    if options is None and backend == "ambit":
        options = ScheduleOptions(reuse=False)

    circuit = Circuit()
    style = backend_style(backend)
    output_groups: list[tuple[str, list[str]]] = []
    for out_name, root in roots.items():
        nets = _stitch_root(circuit, root, width, inputs, style, spec_of)
        bit_names = [f"{out_name}_{i}" for i in range(len(nets))]
        for bit_name, net in zip(bit_names, nets):
            circuit.set_output(bit_name, net)
        output_groups.append((out_name, bit_names))

    mig = Mig.from_circuit(circuit)
    step1: dict[str, object] = {"gates": circuit.n_gates}
    if optimize_mig:
        mig, stats = optimize(mig)
        step1["mig_built"] = (stats.nodes_before, stats.depth_before,
                              stats.complemented_before)
        step1["mig_optimized"] = (stats.nodes_after, stats.depth_after,
                                  stats.complemented_after)
        if options is None or options.reuse:
            # Pays only when Step 2 keeps values in the compute rows.
            reshaped = xor3_passthrough(mig)
            step1["mig_passthrough"] = step1["mig_optimized"] if (
                reshaped is mig) else (reshaped.n_nodes, reshaped.depth(),
                                       reshaped.n_complemented_edges())
            mig = reshaped

    input_rows: dict[str, URow] = {}
    input_specs: list[OperandSpec] = []
    for prefix, space, in_width in zip(_SLOT_PREFIXES, INPUT_SPACES,
                                       inputs.values()):
        input_specs.append(OperandSpec(space, in_width))
        for bit in range(in_width):
            input_rows[f"{prefix}{bit}"] = URow(space, bit)
    program, slices = schedule_stitched(
        mig, op_name=name, backend=backend, element_width=width,
        input_specs=input_specs, input_rows=input_rows,
        output_groups=output_groups, options=options,
        source_hash=source_hash)
    program.report.update(step1, bound=_command_bound(mig))
    if source_hash is not None:
        # Fused kernels are issued through the same bbop ISA as catalog
        # operations; give the kernel an opcode on first compilation.
        register_opcode(name)
    return Kernel(
        program=program, width=width, backend=backend,
        input_names=tuple(inputs), input_widths=tuple(inputs.values()),
        outputs=tuple(
            Output(out_name, *slices[out_name], spec_of(root.op).signed)
            for out_name, root in roots.items()))


def compile_expr(root: "str | Expr", width: int, backend: str = "simdram",
                 options: ScheduleOptions | None = None,
                 optimize_mig: bool = True) -> Kernel:
    """:func:`compile_kernel` of a single-output kernel: an expression
    DAG, or a catalog operation by name."""
    return compile_kernel(root, width, backend, options, optimize_mig)


def compile_multi(roots: dict[str, Expr], width: int,
                  backend: str = "simdram",
                  options: ScheduleOptions | None = None,
                  optimize_mig: bool = True) -> Kernel:
    """:func:`compile_kernel` of several named roots: one µProgram, N
    outputs.  All roots draw from one shared pool of at most three
    input leaves (with consistent widths)."""
    return compile_kernel(roots, width, backend, options, optimize_mig)
