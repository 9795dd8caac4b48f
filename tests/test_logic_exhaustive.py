"""Exhaustive truth tables for Step 1's generators.

Every catalog operation, at every width small enough to enumerate, on
*all* input combinations and in both styles: the gate-level circuit and
the optimized MIG built from it must both equal the operation's golden
model.  The sampled differential suites cover wide operands on every
engine; this is the test that cannot miss a corner (``INT_MIN``, a
divisor of zero, a constant of all ones) in the circuits themselves.
"""

import itertools

import numpy as np
import pytest

from repro.core.operations import PAPER_OPERATIONS, get_operation
from repro.logic import library
from repro.logic.circuit import Circuit
from repro.logic.mig import Mig
from repro.logic.optimize import optimize
from repro.util.bitops import bits_to_ints, ints_to_bits

STYLES = ("maj", "classic")
EXTENSION_OPS = ("ne", "lt", "le", "gt_u", "add_sat")


def _all_combinations(widths):
    """One array per operand, together enumerating every input tuple."""
    grids = np.meshgrid(*(np.arange(2 ** w) for w in widths), indexing="ij")
    return [grid.ravel() for grid in grids]


def _input_bits(values_by_prefix):
    """``{prefix: (values, width)}`` -> the circuit's named input rows."""
    inputs = {}
    for prefix, (values, width) in values_by_prefix.items():
        bits = ints_to_bits(values, width)
        inputs.update({f"{prefix}{i}": bits[i] for i in range(width)})
    return inputs


def _both_forms(circuit):
    """The circuit itself and the MIG Step 1 hands to the scheduler."""
    return circuit, optimize(Mig.from_circuit(circuit))[0]


def _decode(outputs, names):
    return bits_to_ints(np.stack([outputs[name] for name in names]))


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("op_name", PAPER_OPERATIONS + EXTENSION_OPS)
def test_operation_truth_table(op_name, style):
    spec = get_operation(op_name)
    for width in range(1, (4 if spec.arity == 3 else 6) + 1):
        in_widths = spec.in_widths(width)
        values = _all_combinations(in_widths)
        expected = spec.golden(values, width)
        inputs = _input_bits(dict(zip(spec.operand_names(),
                                      zip(values, in_widths))))
        names = [f"y{i}" for i in range(spec.out_width(width))]
        for form in _both_forms(spec.build_circuit(width, style)):
            got = _decode(form.evaluate(inputs), names)
            assert np.array_equal(got, expected), (
                op_name, width, style, type(form).__name__)


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("width", range(1, 8))
def test_constant_multiplier_every_constant_either_side(width, style):
    x = np.arange(2 ** width)
    inputs = _input_bits({"a": (x, width)})
    names = [f"y{i}" for i in range(width)]
    for constant, const_first in itertools.product(range(2 ** width),
                                                   (False, True)):
        circuit = Circuit()
        operand = [circuit.input(f"a{i}") for i in range(width)]
        const = [circuit.const(bool(constant >> i & 1))
                 for i in range(width)]
        product = (library.multiply(circuit, const, operand, style)
                   if const_first
                   else library.multiply(circuit, operand, const, style))
        for name, net in zip(names, product):
            circuit.set_output(name, net)
        for form in _both_forms(circuit):
            got = _decode(form.evaluate(inputs), names)
            assert np.array_equal(got, x * constant % 2 ** width), (
                constant, const_first, type(form).__name__)


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("width", range(1, 7))
def test_divider_quotient_and_remainder(width, style):
    a, b = _all_combinations([width, width])
    circuit = Circuit()
    av = [circuit.input(f"a{i}") for i in range(width)]
    bv = [circuit.input(f"b{i}") for i in range(width)]
    quotient, remainder = library.divide_unsigned(circuit, av, bv, style)
    q_names = [f"q{i}" for i in range(width)]
    r_names = [f"r{i}" for i in range(width)]
    for name, net in zip(q_names + r_names, quotient + remainder):
        circuit.set_output(name, net)
    safe = np.where(b == 0, 1, b)
    by_zero = b == 0
    # Dividing by zero: an all-ones quotient, the dividend as remainder.
    want_q = np.where(by_zero, 2 ** width - 1, a // safe)
    want_r = np.where(by_zero, a, a % safe)
    inputs = _input_bits({"a": (a, width), "b": (b, width)})
    for form in _both_forms(circuit):
        out = form.evaluate(inputs)
        assert np.array_equal(_decode(out, q_names), want_q)
        assert np.array_equal(_decode(out, r_names), want_r)
