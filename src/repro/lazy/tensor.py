"""``LazyTensor``: NumPy-flavored graph capture over the catalog.

A :class:`LazyTensor` looks like an integer array — ``+``, ``*``,
comparisons, ``where``, reductions and the rest of the catalog all
work — but nothing executes when an operation is applied.  Each
application records one node of a lazy DAG; evaluation is deferred
until :meth:`LazyTensor.numpy` (or an explicit
:meth:`LazyTensor.evaluate` / :func:`repro.lazy.evaluate_all`), at
which point the device's evaluation engine fuses the captured graph
into as few µPrograms as the ``bbop`` ISA allows and dispatches them —
on a single :class:`~repro.Simdram` module or a sharded
:class:`~repro.SimdramCluster` — with no further user involvement.

Nodes come in three kinds, mirroring :mod:`repro.core.expr`:

* **source** — host values bound to a device, with a natural bit width
  and signedness (:meth:`LazyDevice.array <repro.lazy.array>`), or a
  wrapper over an already-resident :class:`~repro.SimdramArray` /
  :class:`~repro.runtime.DeviceTensor` (:func:`repro.lazy.from_device`);
* **const** — a broadcast Python integer, folded into the MIG at
  compile time (scalars in arithmetic lift automatically);
* **op** — one catalog operation over child nodes.

Results are cached per pipeline width on the node, so repeated
``numpy()`` calls and shared subexpressions across evaluations never
recompute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.operations import get_operation
from repro.errors import OperationError
from repro.util.bitops import to_signed, to_unsigned

if TYPE_CHECKING:
    from repro.lazy.engine import LazyDevice

#: Node kinds of a lazy DAG.
KIND_SOURCE = "source"
KIND_CONST = "const"
KIND_OP = "op"


def min_width(values: np.ndarray, signed: bool) -> int:
    """The smallest bit width representing every value exactly."""
    if values.size == 0:
        return 1
    lo, hi = int(values.min()), int(values.max())
    if signed:
        width = 1
        while lo < -(1 << (width - 1)) or hi > (1 << (width - 1)) - 1:
            width += 1
        return width
    return max(1, hi.bit_length())


def canonical_values(values: np.ndarray, width: int,
                     signed: bool) -> np.ndarray:
    """Host values as the device would read them back.

    Encodes at ``width`` bits (masking out-of-range values exactly like
    :meth:`Simdram.array` does on transfer-in) and decodes per
    ``signed``, so a source's ``numpy()`` equals what an eager
    round trip through DRAM would produce.
    """
    encoded = to_unsigned(np.asarray(values, dtype=np.int64), width)
    return to_signed(encoded, width) if signed else encoded


class LazyTensor:
    """One node of a lazy computation DAG (see module docstring)."""

    #: Make numpy defer to our reflected dunders instead of trying to
    #: broadcast elementwise over this object.
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, device: "LazyDevice", kind: str, *,
                 host: np.ndarray | None = None,
                 value: int | None = None,
                 op: str | None = None,
                 children: tuple["LazyTensor", ...] = (),
                 width: int | None = None,
                 signed: bool = False,
                 n_elements: int | None = None) -> None:
        self.device = device
        self.kind = kind
        self.host = host            # canonical values (KIND_SOURCE)
        self.value = value          # broadcast value (KIND_CONST)
        self.op = op                # catalog op name (KIND_OP)
        self.children = children
        self.width = width          # natural bit width (KIND_SOURCE)
        self.signed = signed
        self.n_elements = n_elements
        #: Evaluated host values, keyed by the pipeline width they were
        #: computed at (op nodes; the CSE cache across evaluations).
        self._results: dict[int, np.ndarray] = {}
        #: Live device handles, keyed ``("s", transfer width)`` for
        #: sources and ``("o", pipeline width)`` for evaluated op
        #: nodes.  Engine-managed: the engine frees only handles it
        #: created itself, so a wrapped user-owned handle (see
        #: :func:`repro.lazy.from_device`) is never released here.
        self._handles: dict[tuple, object] = {}
        #: Deferred async result: (pipeline width, device handle).
        self._pending: tuple[int, object] | None = None
        #: Memoized inferred pipeline width (the graph is immutable).
        self._inferred_width: int | None = None

    # -- hashing/equality ----------------------------------------------
    # ``==`` records an ``eq`` op node, so identity must back hashing;
    # engine bookkeeping keys dicts by ``id(node)`` for the same reason.
    __hash__ = object.__hash__

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def numpy(self) -> np.ndarray:
        """Evaluate (if needed) and return the host values.

        The trigger of the whole lazy machinery: fuses the captured
        graph, dispatches it on this tensor's device and returns the
        result decoded per the root operation's signedness.  Cached —
        a second call (or a structurally shared subexpression) does not
        recompute.
        """
        return self.device.evaluate([self])[0]

    def evaluate(self, wait: bool = True,
                 engine="auto") -> "LazyTensor":
        """Force evaluation now; returns ``self`` for chaining.

        With ``wait=False`` on a cluster device the computation is
        *submitted* (the async job scheduler orders it against every
        other outstanding job; on idle modules it runs before this
        returns) and nothing is gathered; :meth:`numpy` later gathers
        the result.  ``engine``
        is an execution-engine name or
        :class:`~repro.exec.engines.ExecutionEngine` instance,
        resolved by the device.
        """
        self.device.evaluate([self], wait=wait, engine=engine)
        return self

    # ------------------------------------------------------------------
    # capture sugar
    # ------------------------------------------------------------------
    def __add__(self, other) -> "LazyTensor":
        return apply("add", self, other)

    def __radd__(self, other) -> "LazyTensor":
        return apply("add", other, self)

    def __sub__(self, other) -> "LazyTensor":
        return apply("sub", self, other)

    def __rsub__(self, other) -> "LazyTensor":
        return apply("sub", other, self)

    def __mul__(self, other) -> "LazyTensor":
        return apply("mul", self, other)

    def __rmul__(self, other) -> "LazyTensor":
        return apply("mul", other, self)

    def __floordiv__(self, other) -> "LazyTensor":
        return apply("div", self, other)

    def __rfloordiv__(self, other) -> "LazyTensor":
        return apply("div", other, self)

    def __abs__(self) -> "LazyTensor":
        return apply("abs", self)

    def __eq__(self, other) -> "LazyTensor":  # type: ignore[override]
        return apply("eq", self, other)

    def __ne__(self, other) -> "LazyTensor":  # type: ignore[override]
        return apply("ne", self, other)

    def __gt__(self, other) -> "LazyTensor":
        return apply("gt", self, other)

    def __ge__(self, other) -> "LazyTensor":
        return apply("ge", self, other)

    def __lt__(self, other) -> "LazyTensor":
        return apply("lt", self, other)

    def __le__(self, other) -> "LazyTensor":
        return apply("le", self, other)

    def __bool__(self) -> bool:
        raise OperationError(
            "the truth value of a LazyTensor is undefined before "
            "evaluation; call .numpy() and test the values, or use "
            "repro.lazy.where for elementwise selection")

    # -- named operations ----------------------------------------------
    def minimum(self, other) -> "LazyTensor":
        return apply("min", self, other)

    def maximum(self, other) -> "LazyTensor":
        return apply("max", self, other)

    def clip(self, lo, hi) -> "LazyTensor":
        """``numpy.clip`` spelling of the min/max clamp pair."""
        return apply("max", apply("min", self, hi), lo)

    def relu(self) -> "LazyTensor":
        return apply("relu", self)

    def bitcount(self) -> "LazyTensor":
        return apply("bitcount", self)

    def where(self, a, b) -> "LazyTensor":
        """Elementwise select with *this* tensor as the predicate."""
        return apply("if_else", self, a, b)

    def __len__(self) -> int:
        if self.n_elements is None:
            raise OperationError("a broadcast constant has no length")
        return self.n_elements

    @property
    def shape(self) -> tuple[int]:
        """Numpy-style shape (lazy tensors are 1-D vectors)."""
        return (len(self),)

    def __repr__(self) -> str:
        if self.kind == KIND_CONST:
            return f"LazyTensor(const {self.value})"
        sign = "i" if self.signed else "u"
        state = ("source" if self.kind == KIND_SOURCE
                 else f"{self.op}, {len(self._results)} cached")
        width = f" x {sign}{self.width}" if self.width else ""
        return (f"LazyTensor(shape=({self.n_elements},){width}, "
                f"{state})")


def _lift(operand, device: "LazyDevice") -> LazyTensor:
    """Coerce one operand of a captured operation to a lazy node.

    Python/numpy integer scalars become broadcast constants (folded
    into the MIG, costing no rows); integer and bool arrays become
    sources on the same device at their minimal natural width (the
    device applies the host dtype rule).
    """
    if isinstance(operand, LazyTensor):
        return operand
    if isinstance(operand, (bool, np.bool_)):
        operand = int(operand)
    if isinstance(operand, (int, np.integer)):
        return LazyTensor(device, KIND_CONST, value=int(operand))
    return device.array(np.asarray(operand))


def apply(op_name: str, *operands, device: "LazyDevice | None" = None
          ) -> LazyTensor:
    """Record one catalog operation into the lazy DAG (the generic
    spelling behind every operator and ``repro.lazy.<op>`` builder)."""
    spec = get_operation(op_name)
    if len(operands) != spec.arity:
        raise OperationError(
            f"{op_name} takes {spec.arity} operands, got {len(operands)}")
    tensors = [o for o in operands if isinstance(o, LazyTensor)
               and o.kind != KIND_CONST]
    if device is None:
        if not tensors:
            raise OperationError(
                f"{op_name}: at least one operand must be a LazyTensor "
                "(all-constant expressions have nothing to stream; pass "
                "device= to build a constant subgraph)")
        device = tensors[0].device
    for tensor in tensors:
        if tensor.device is not device:
            raise OperationError(
                f"{op_name}: operands live on different devices")
    children = tuple(_lift(o, device) for o in operands)
    lengths = {c.n_elements for c in children if c.n_elements is not None}
    if len(lengths) > 1:
        raise OperationError(
            f"{op_name}: operand lengths differ: {sorted(lengths)}")
    # All-constant subgraphs have no length yet; they take their
    # consumer's (the fusion compiler folds their bits into the MIG).
    n_elements = lengths.pop() if lengths else None
    return LazyTensor(device, KIND_OP, op=op_name, children=children,
                      signed=spec.signed, n_elements=n_elements)
