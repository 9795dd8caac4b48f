"""The SIMDRAM operation catalog.

The paper demonstrates the framework on sixteen operations spanning five
classes (§5): N-input logic (AND/OR/XOR reductions), relational
(equality, greater-than, greater-or-equal, maximum, minimum), arithmetic
(addition, subtraction, multiplication, division, absolute value),
predication (if-then-else), and other complex operations (bitcount,
ReLU).  Each :class:`OperationSpec` couples:

* a *circuit factory* producing the operation's gate-level implementation
  in either substrate style (``maj`` for SIMDRAM, ``classic`` for the
  Ambit baseline — see :mod:`repro.logic.library`), and
* a *golden model* over two's-complement encodings, used by the test
  suite to verify every compiled µProgram bit-exactly.

The catalog is open: :func:`register_operation` adds user-defined
operations, which is the paper's headline flexibility claim (new
operations need only a new µProgram, no hardware change).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import OperationError
from repro.isa.instructions import register_opcode
from repro.logic.circuit import Circuit, GateType, Net
from repro.logic import library
from repro.util.bitops import mask_for_width, to_signed, to_unsigned

#: Substrates a kernel can be compiled for, and the circuit style of each:
#: ``"simdram"`` compiles the MAJ/NOT form, ``"ambit"`` the same operation
#: lowered to 2-input AND/OR (+NOT) gates only (the paper's PIM baseline).
BACKENDS = ("simdram", "ambit")

_BACKEND_STYLE = {"simdram": "maj", "ambit": "classic"}


def backend_style(backend: str) -> str:
    """Map a backend name to its circuit style."""
    try:
        return _BACKEND_STYLE[backend]
    except KeyError:
        raise OperationError(
            f"backend must be one of {BACKENDS}, got {backend!r}") from None


#: Circuit factory signature: (circuit, operand bit lists, style) -> output bits.
BuildFn = Callable[[Circuit, list[list[Net]], str], list[Net]]
#: Golden model signature: (unsigned-encoded inputs, element width) -> output.
GoldenFn = Callable[[list[np.ndarray], int], np.ndarray]


@dataclass(frozen=True)
class OperationSpec:
    """A SIMDRAM operation: interface, circuit factory and golden model."""

    name: str
    arity: int
    category: str
    description: str
    build: BuildFn
    golden: GoldenFn
    in_widths: Callable[[int], list[int]]
    out_width: Callable[[int], int]
    signed: bool = False  # whether results are two's-complement encoded

    def operand_names(self) -> list[str]:
        """Input operand name prefixes, in order."""
        return ["a", "b", "c"][:self.arity]

    def build_circuit(self, width: int, style: str) -> Circuit:
        """Instantiate the operation's circuit at ``width`` bits/element."""
        if width < 1:
            raise OperationError(f"width must be >= 1, got {width}")
        circuit = Circuit()
        operands = []
        for prefix, in_width in zip(self.operand_names(),
                                    self.in_widths(width)):
            operands.append([circuit.input(f"{prefix}{i}")
                             for i in range(in_width)])
        outputs = self.build(circuit, operands, style)
        expected = self.out_width(width)
        if len(outputs) != expected:
            raise OperationError(
                f"{self.name}: factory produced {len(outputs)} output "
                f"bits, spec says {expected}")
        for i, net in enumerate(outputs):
            circuit.set_output(f"y{i}", net)
        return circuit


def _same(width: int) -> int:
    return width


def _one(width: int) -> int:
    return 1


def _popcount_width(width: int) -> int:
    return max(1, width.bit_length())


def _nary(n: int) -> Callable[[int], list[int]]:
    return lambda width: [width] * n


def _if_else_widths(width: int) -> list[int]:
    return [1, width, width]  # select is a 1-bit predicate operand


# ---------------------------------------------------------------------------
# golden models (all on unsigned two's-complement encodings)
# ---------------------------------------------------------------------------
def _g_abs(inputs, width):
    return to_unsigned(np.abs(to_signed(inputs[0], width)), width)


def _g_add(inputs, width):
    return (inputs[0] + inputs[1]) & mask_for_width(width)


def _g_sub(inputs, width):
    return (inputs[0] - inputs[1]) & mask_for_width(width)


def _g_mul(inputs, width):
    return (inputs[0] * inputs[1]) & mask_for_width(width)


def _g_div(inputs, width):
    a, b = inputs
    quotient = np.full_like(a, mask_for_width(width))
    nonzero = b != 0
    quotient[nonzero] = a[nonzero] // b[nonzero]
    return quotient


def _g_eq(inputs, width):
    return (inputs[0] == inputs[1]).astype(np.int64)


def _g_ne(inputs, width):
    return (inputs[0] != inputs[1]).astype(np.int64)


def _g_lt(inputs, width):
    return (to_signed(inputs[0], width)
            < to_signed(inputs[1], width)).astype(np.int64)


def _g_le(inputs, width):
    return (to_signed(inputs[0], width)
            <= to_signed(inputs[1], width)).astype(np.int64)


def _g_gt_u(inputs, width):
    return (inputs[0] > inputs[1]).astype(np.int64)


def _g_add_sat(inputs, width):
    return np.minimum(inputs[0] + inputs[1], mask_for_width(width))


def _g_gt(inputs, width):
    return (to_signed(inputs[0], width)
            > to_signed(inputs[1], width)).astype(np.int64)


def _g_ge(inputs, width):
    return (to_signed(inputs[0], width)
            >= to_signed(inputs[1], width)).astype(np.int64)


def _g_max(inputs, width):
    return to_unsigned(np.maximum(to_signed(inputs[0], width),
                                  to_signed(inputs[1], width)), width)


def _g_min(inputs, width):
    return to_unsigned(np.minimum(to_signed(inputs[0], width),
                                  to_signed(inputs[1], width)), width)


def _g_if_else(inputs, width):
    return np.where(inputs[0] & 1, inputs[1], inputs[2])


def _g_relu(inputs, width):
    signed = to_signed(inputs[0], width)
    return to_unsigned(np.maximum(signed, 0), width)


def _g_bitcount(inputs, width):
    counts = np.zeros_like(inputs[0])
    for i in range(width):
        counts += (inputs[0] >> i) & 1
    return counts


def _g_and_red(inputs, width):
    return (inputs[0] == mask_for_width(width)).astype(np.int64)


def _g_or_red(inputs, width):
    return (inputs[0] != 0).astype(np.int64)


def _g_xor_red(inputs, width):
    return _g_bitcount(inputs, width) & 1


# ---------------------------------------------------------------------------
# circuit factories
# ---------------------------------------------------------------------------
def _b_abs(c, ops, style):
    return library.absolute(c, ops[0], style)


def _b_add(c, ops, style):
    total, _ = library.ripple_add(c, ops[0], ops[1], style=style)
    return total


def _b_sub(c, ops, style):
    diff, _ = library.ripple_sub(c, ops[0], ops[1], style)
    return diff


def _b_mul(c, ops, style):
    return library.multiply(c, ops[0], ops[1], style)


def _b_div(c, ops, style):
    quotient, _ = library.divide_unsigned(c, ops[0], ops[1], style)
    return quotient


def _b_eq(c, ops, style):
    return [library.equal(c, ops[0], ops[1], style)]


def _b_ne(c, ops, style):
    return [c.not_(library.equal(c, ops[0], ops[1], style))]


def _b_lt(c, ops, style):
    return [library.greater_signed(c, ops[1], ops[0], style)]


def _b_le(c, ops, style):
    return [c.not_(library.greater_signed(c, ops[0], ops[1], style))]


def _b_gt_u(c, ops, style):
    return [library.greater_unsigned(c, ops[0], ops[1], style)]


def _b_add_sat(c, ops, style):
    total, carry = library.ripple_add(c, ops[0], ops[1], style=style)
    return [c.or_(bit, carry) for bit in total]


def _b_gt(c, ops, style):
    return [library.greater_signed(c, ops[0], ops[1], style)]


def _b_ge(c, ops, style):
    return [library.greater_equal_signed(c, ops[0], ops[1], style)]


def _b_max(c, ops, style):
    return library.maximum_signed(c, ops[0], ops[1], style)


def _b_min(c, ops, style):
    return library.minimum_signed(c, ops[0], ops[1], style)


def _b_if_else(c, ops, style):
    return library.mux_vector(c, ops[0][0], ops[1], ops[2], style)


def _b_relu(c, ops, style):
    return library.relu(c, ops[0], style)


def _b_bitcount(c, ops, style):
    return library.popcount(c, ops[0], style)


def _b_and_red(c, ops, style):
    return [library.reduction(c, GateType.AND, ops[0], style)]


def _b_or_red(c, ops, style):
    return [library.reduction(c, GateType.OR, ops[0], style)]


def _b_xor_red(c, ops, style):
    return [library.reduction(c, GateType.XOR, ops[0], style)]


CATALOG: dict[str, OperationSpec] = {}


def register_operation(name: str, arity: int, category: str,
                       description: str, build: BuildFn, golden: GoldenFn,
                       in_widths: Callable[[int], list[int]] | None = None,
                       out_width: Callable[[int], int] = _same,
                       signed: bool = False) -> OperationSpec:
    """Register an operation (built-in or user-defined) in the catalog.

    Also assigns a bbop opcode, mirroring the paper's claim that new
    operations are software-only additions.
    """
    if name in CATALOG:
        raise OperationError(f"operation {name!r} already registered")
    if not 1 <= arity <= 3:
        raise OperationError(f"arity must be 1-3, got {arity}")
    spec = OperationSpec(
        name=name, arity=arity, category=category, description=description,
        build=build, golden=golden,
        in_widths=in_widths or _nary(arity),
        out_width=out_width, signed=signed)
    CATALOG[name] = spec
    register_opcode(name)
    return spec


def get_operation(name: str) -> OperationSpec:
    """Look up an operation, with a helpful error when unknown."""
    spec = CATALOG.get(name)
    if spec is None:
        known = ", ".join(sorted(CATALOG))
        raise OperationError(f"unknown operation {name!r}; known: {known}")
    return spec


def _register_builtins() -> None:
    register_operation("abs", 1, "arithmetic",
                       "absolute value (two's complement)",
                       _b_abs, _g_abs, signed=True)
    register_operation("add", 2, "arithmetic",
                       "elementwise addition", _b_add, _g_add)
    register_operation("sub", 2, "arithmetic",
                       "elementwise subtraction", _b_sub, _g_sub)
    register_operation("mul", 2, "arithmetic",
                       "elementwise multiplication (wrapping)",
                       _b_mul, _g_mul)
    register_operation("div", 2, "arithmetic",
                       "elementwise unsigned division", _b_div, _g_div)
    register_operation("eq", 2, "relational",
                       "equality check (1-bit result)",
                       _b_eq, _g_eq, out_width=_one)
    register_operation("gt", 2, "relational",
                       "signed greater-than (1-bit result)",
                       _b_gt, _g_gt, out_width=_one)
    register_operation("ge", 2, "relational",
                       "signed greater-or-equal (1-bit result)",
                       _b_ge, _g_ge, out_width=_one)
    register_operation("max", 2, "relational",
                       "signed elementwise maximum",
                       _b_max, _g_max, signed=True)
    register_operation("min", 2, "relational",
                       "signed elementwise minimum",
                       _b_min, _g_min, signed=True)
    register_operation("if_else", 3, "predication",
                       "elementwise select: c ? a : b",
                       _b_if_else, _g_if_else,
                       in_widths=_if_else_widths)
    register_operation("relu", 1, "other",
                       "rectified linear unit (max(x, 0), signed)",
                       _b_relu, _g_relu, signed=True)
    register_operation("bitcount", 1, "other",
                       "population count of each element",
                       _b_bitcount, _g_bitcount,
                       out_width=_popcount_width)
    register_operation("and_red", 1, "logic",
                       "N-input AND reduction over each element's bits",
                       _b_and_red, _g_and_red, out_width=_one)
    register_operation("or_red", 1, "logic",
                       "N-input OR reduction over each element's bits",
                       _b_or_red, _g_or_red, out_width=_one)
    register_operation("xor_red", 1, "logic",
                       "N-input XOR reduction over each element's bits",
                       _b_xor_red, _g_xor_red, out_width=_one)


def _register_extensions() -> None:
    """Operations beyond the paper's evaluation set.

    The paper stresses that SIMDRAM "is not limited to these operations";
    these extras exercise that claim and serve the application kernels
    (e.g. saturating addition fuses brightness clamping into one
    µProgram).
    """
    register_operation("ne", 2, "relational",
                       "inequality check (1-bit result)",
                       _b_ne, _g_ne, out_width=_one)
    register_operation("lt", 2, "relational",
                       "signed less-than (1-bit result)",
                       _b_lt, _g_lt, out_width=_one)
    register_operation("le", 2, "relational",
                       "signed less-or-equal (1-bit result)",
                       _b_le, _g_le, out_width=_one)
    register_operation("gt_u", 2, "relational",
                       "unsigned greater-than (1-bit result)",
                       _b_gt_u, _g_gt_u, out_width=_one)
    register_operation("add_sat", 2, "arithmetic",
                       "saturating unsigned addition",
                       _b_add_sat, _g_add_sat)


_register_builtins()
_register_extensions()

#: The 16 operations evaluated in the paper, in its presentation order.
PAPER_OPERATIONS: tuple[str, ...] = (
    "abs", "add", "bitcount", "div", "eq", "ge", "gt", "if_else",
    "max", "min", "mul", "relu", "sub", "and_red", "or_red", "xor_red",
)
