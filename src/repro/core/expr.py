"""Expression graphs over the SIMDRAM operation catalog.

SIMDRAM's efficiency claim is that whole computations stay in the
subarray: µPrograms are built once and data streams through them without
round-tripping intermediates to named row blocks.  An :class:`Expr` DAG
describes such a multi-operation pipeline symbolically::

    from repro.core import expr

    x = expr.inp("x")
    w = expr.inp("w")
    b = expr.inp("b")
    y = expr.relu(expr.add(expr.mul(x, w), b))

The fusion compiler (:mod:`repro.core.fuse`) stitches every catalog
operation of the DAG into **one** µProgram, so intermediates live only
in B-group planes and compiler temporaries — they are never written to
named row blocks, never transposed, and never allocated per step.

Leaves are either named inputs (:func:`inp`) — DRAM-resident operands
bound at execution time, at most three per DAG because the ``bbop``
instruction carries three source addresses — or broadcast constants
(:func:`const`), which cost no rows at all: their bits fold into the
MIG as C-group constants.

Every catalog operation is exposed as a module-level builder
(``expr.add(a, b)``, ``expr.relu(x)``, ...), including operations
registered after import; :func:`op` is the generic spelling.  ``+``,
``-`` and ``*`` on :class:`Expr` map to ``add``/``sub``/``mul``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.operations import CATALOG, OperationSpec, get_operation
from repro.errors import OperationError
from repro.util.bitops import mask_for_width, to_unsigned

#: Leaf kinds of an expression DAG.
KIND_INPUT = "input"
KIND_CONST = "const"
KIND_OP = "op"


@dataclass(frozen=True)
class Expr:
    """One node of an expression DAG (an op, a named input or a const)."""

    kind: str
    op: str | None = None                 # catalog op name (KIND_OP)
    name: str | None = None               # leaf name (KIND_INPUT)
    value: int | None = None              # broadcast value (KIND_CONST)
    children: tuple["Expr", ...] = field(default=())

    def __hash__(self) -> int:
        # The generated dataclass hash recurses through ``children``
        # uncached, which is exponential in shared-subgraph depth (a
        # 30-level ``y = y * y`` DAG would hang).  Memoize per node so
        # hashing is O(distinct nodes) over any DAG.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.kind, self.op, self.name, self.value,
                           self.children))
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- sugar ---------------------------------------------------------
    def __add__(self, other: "Expr | int") -> "Expr":
        return op("add", self, other)

    def __radd__(self, other: "Expr | int") -> "Expr":
        return op("add", other, self)

    def __sub__(self, other: "Expr | int") -> "Expr":
        return op("sub", self, other)

    def __rsub__(self, other: "Expr | int") -> "Expr":
        return op("sub", other, self)

    def __mul__(self, other: "Expr | int") -> "Expr":
        return op("mul", self, other)

    def __rmul__(self, other: "Expr | int") -> "Expr":
        return op("mul", other, self)

    def __repr__(self) -> str:
        if self.kind == KIND_INPUT:
            return f"inp({self.name!r})"
        if self.kind == KIND_CONST:
            return f"const({self.value})"
        inner = ", ".join(repr(c) for c in self.children)
        return f"{self.op}({inner})"


def inp(name: str) -> Expr:
    """A named input leaf: a DRAM-resident operand bound at run time."""
    if not name or not isinstance(name, str):
        raise OperationError("input leaves need a non-empty string name")
    return Expr(KIND_INPUT, name=name)


def const(value: int) -> Expr:
    """A broadcast integer constant (folds into the MIG, costs no rows)."""
    return Expr(KIND_CONST, value=int(value))


def op(name: str, *children: "Expr | int") -> Expr:
    """Apply the catalog operation ``name`` to child expressions.

    Bare Python integers are lifted to :func:`const` leaves, so graph
    capture frontends (and plain ``x + 1`` sugar) need no explicit
    ``const`` calls.
    """
    spec = get_operation(name)
    if len(children) != spec.arity:
        raise OperationError(
            f"{name} takes {spec.arity} operands, got {len(children)}")
    lifted = []
    for child in children:
        if isinstance(child, (int, np.integer)) \
                and not isinstance(child, (bool, np.bool_)):
            child = const(int(child))
        elif not isinstance(child, Expr):
            raise OperationError(
                f"{name} operands must be Expr nodes, got {type(child)}")
        lifted.append(child)
    return Expr(KIND_OP, op=name, children=tuple(lifted))


def __getattr__(attr: str):
    """Expose every catalog operation as ``expr.<name>(*children)``."""
    if attr in CATALOG:
        spec = CATALOG[attr]

        def build(*children: Expr, _name: str = attr) -> Expr:
            return op(_name, *children)

        build.__name__ = attr
        build.__doc__ = f"Expression builder for {attr!r}: {spec.description}."
        return build
    raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")


# ---------------------------------------------------------------------------
# DAG traversal and identity
# ---------------------------------------------------------------------------
def post_order(root: Expr) -> list[Expr]:
    """All distinct nodes reachable from ``root``, children first.

    Shared subexpressions appear once (identity *or* value equality —
    ``Expr`` is a frozen value type, so equal subtrees are one node).
    """
    order: list[Expr] = []
    seen: set[Expr] = set()
    stack: list[tuple[Expr, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node in seen:
            continue
        if expanded or not node.children:
            seen.add(node)
            order.append(node)
            continue
        stack.append((node, True))
        stack.extend((child, False) for child in reversed(node.children))
    return order


def input_names(root: Expr) -> list[str]:
    """Distinct input-leaf names in first-use (post-order) order."""
    names: list[str] = []
    for node in post_order(root):
        if node.kind == KIND_INPUT and node.name not in names:
            names.append(node.name)
    return names


def n_ops(root: Expr) -> int:
    """Number of catalog operations stitched into the DAG."""
    return sum(1 for node in post_order(root) if node.kind == KIND_OP)


def dag_hash(root: Expr) -> str:
    """Stable content hash of the DAG (the fused-plan cache identity).

    Two structurally identical DAGs hash equally across processes, so
    the framework's fused-kernel cache and the control unit's
    execution-plan cache both key on it.  Memoized on the root (a
    frozen value), so a request's kernel is hashed once however many
    layers ask for its identity.
    """
    cached = root.__dict__.get("_dag_hash")
    if cached is None:
        digest: dict[Expr, str] = {}
        for node in post_order(root):
            if node.kind == KIND_INPUT:
                token = f"i:{node.name}"
            elif node.kind == KIND_CONST:
                token = f"c:{node.value}"
            else:
                token = (f"o:{node.op}("
                         + ",".join(digest[c] for c in node.children)
                         + ")")
            digest[node] = hashlib.sha256(token.encode()).hexdigest()[:16]
        cached = digest[root]
        object.__setattr__(root, "_dag_hash", cached)
    return cached


# ---------------------------------------------------------------------------
# width analysis
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ExprAnalysis:
    """Width-checked shape of a DAG at one pipeline element width."""

    root: Expr
    width: int                       # pipeline element width
    input_widths: dict[str, int]     # leaf name -> bit width
    #: const leaf -> every width it is consumed at.  Constants are free
    #: (their bits fold into the MIG), so one value may legally feed
    #: consumers of different widths — it is encoded per consumer.
    const_widths: dict[Expr, tuple[int, ...]]
    out_width: int
    signed: bool                     # root operation's result signedness


def analyze(root: Expr, width: int) -> ExprAnalysis:
    """Validate a DAG at ``width`` and derive every leaf's bit width.

    Each operation is instantiated at the pipeline width, exactly like a
    sequence of :meth:`Simdram.run` calls at that width: a child
    operation's output width must equal the width its consumer expects,
    and an input leaf's width is set by its consumers (consistently).
    """
    if not isinstance(root, Expr):
        raise OperationError(f"expected an Expr, got {type(root)}")
    if root.kind != KIND_OP:
        raise OperationError(
            "the root of a fused expression must be an operation "
            "(a bare leaf has nothing to compute)")
    if width < 1:
        raise OperationError(f"width must be >= 1, got {width}")

    input_widths: dict[str, int] = {}
    const_widths: dict[Expr, set[int]] = {}

    def require(child: Expr, needed: int, parent: OperationSpec,
                slot: int) -> None:
        if child.kind == KIND_INPUT:
            known = input_widths.get(child.name)
            if known is None:
                input_widths[child.name] = needed
            elif known != needed:
                raise OperationError(
                    f"input {child.name!r} is consumed at {known}-bit and "
                    f"{needed}-bit widths; a fused operand has one width")
        elif child.kind == KIND_CONST:
            # Constants cost no rows, so the same value may feed
            # consumers of different widths; it is encoded per consumer.
            const_widths.setdefault(child, set()).add(needed)
        else:
            produced = get_operation(child.op).out_width(width)
            if produced != needed:
                raise OperationError(
                    f"{parent.name} operand {slot} must be {needed}-bit, "
                    f"but {child.op} produces {produced}-bit results "
                    f"at pipeline width {width}")

    ordered_inputs: dict[str, int] = {}
    for node in post_order(root):
        if node.kind != KIND_OP:
            continue
        spec = get_operation(node.op)
        for slot, (child, needed) in enumerate(
                zip(node.children, spec.in_widths(width))):
            require(child, needed, spec, slot)
        for child in node.children:
            if child.kind == KIND_INPUT and child.name not in ordered_inputs:
                ordered_inputs[child.name] = input_widths[child.name]

    # Preserve first-use order in the mapping (drives operand slots).
    input_widths = {name: input_widths[name] for name in ordered_inputs}
    if not input_widths:
        raise OperationError(
            "a fused expression needs at least one input leaf "
            "(all-constant pipelines have nothing to stream)")

    root_spec = get_operation(root.op)
    return ExprAnalysis(
        root=root, width=width, input_widths=input_widths,
        const_widths={node: tuple(sorted(widths))
                      for node, widths in const_widths.items()},
        out_width=root_spec.out_width(width),
        signed=root_spec.signed)


def scaling_input_names(root: Expr) -> set[str]:
    """Input leaves whose operand width scales with the pipeline width.

    An input is *scaling* when its consumer slot is sized by the
    pipeline element width (``add``'s operands, ``mul``'s operands, …)
    and *fixed* when the slot has an intrinsic width regardless of the
    pipeline (``if_else``'s 1-bit select).  The distinction drives
    width inference: only scaling inputs can widen, and only they
    constrain the inferred pipeline width.

    Detected by analyzing the DAG at two probe widths and comparing the
    required operand widths; a DAG that does not analyze at the probes
    conservatively reports every input as scaling.
    """
    try:
        low, high = analyze(root, 8), analyze(root, 16)
    except OperationError:
        return set(input_names(root))
    return {name for name in low.input_widths
            if low.input_widths[name] != high.input_widths[name]}


def infer_width(root: Expr, leaf_widths: dict[str, int]) -> int:
    """Infer the pipeline width of a DAG over mixed-width operands.

    ``leaf_widths`` maps every input leaf to its *natural* bit width
    (the width its values were declared at).  The inferred pipeline
    width is the widest natural width among the scaling inputs, so
    narrower operands widen (two's-complement re-encoding at transfer
    time) instead of forcing the whole pipeline down to their width.
    Fixed-width inputs (e.g. a 1-bit ``if_else`` select) must match
    their slot exactly — widening would silently truncate semantics —
    and are validated, not inferred over.
    """
    missing = {name for name in input_names(root) if name not in leaf_widths}
    if missing:
        raise OperationError(
            f"infer_width: no width given for inputs {sorted(missing)}")
    scaling = scaling_input_names(root)
    candidates = [leaf_widths[name] for name in leaf_widths
                  if name in scaling]
    width = max(candidates) if candidates else max(leaf_widths.values())
    analysis = analyze(root, width)
    for name, have in leaf_widths.items():
        needed = analysis.input_widths[name]
        if name in scaling:
            if have > needed:
                raise OperationError(
                    f"input {name!r} is {have}-bit but the pipeline "
                    f"inferred width {needed}")
        elif have != needed:
            raise OperationError(
                f"input {name!r} is {have}-bit but its operand slot is "
                f"fixed at {needed}-bit (widening would change the "
                f"operation's semantics)")
    return width


# ---------------------------------------------------------------------------
# golden model
# ---------------------------------------------------------------------------
def golden(root: Expr, inputs: dict[str, np.ndarray],
           width: int) -> np.ndarray:
    """Evaluate the DAG with the catalog's numpy golden models.

    ``inputs`` maps leaf names to **unsigned-encoded** vectors (the same
    encoding the per-operation golden models use); the result is the
    unsigned encoding of the root's output.
    """
    analysis = analyze(root, width)
    missing = set(analysis.input_widths) - set(inputs)
    if missing:
        raise OperationError(f"missing input values for {sorted(missing)}")

    shape = None
    for name in analysis.input_widths:
        arr = np.asarray(inputs[name])
        if shape is None:
            shape = arr.shape
        elif arr.shape != shape:
            raise OperationError(
                f"input {name!r} has shape {arr.shape}, expected {shape}")

    values: dict[Expr, np.ndarray] = {}

    def value_of(child: Expr, needed_width: int) -> np.ndarray:
        if child.kind == KIND_INPUT:
            w = analysis.input_widths[child.name]
            return np.asarray(inputs[child.name]) & mask_for_width(w)
        if child.kind == KIND_CONST:
            # Encoded at the width this consumer expects (one const
            # value may feed consumers of different widths).
            encoded = int(to_unsigned(np.array([child.value]),
                                      needed_width)[0])
            return np.full(shape, encoded, dtype=np.int64)
        return values[child]

    for node in post_order(root):
        if node.kind != KIND_OP:
            continue
        spec = get_operation(node.op)
        args = [value_of(child, w) for child, w
                in zip(node.children, spec.in_widths(width))]
        values[node] = spec.golden(args, width)
    return values[root]
