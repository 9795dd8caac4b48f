"""Generators for the arithmetic/relational circuits behind SIMDRAM's ops.

Every function takes a :class:`~repro.logic.circuit.Circuit` plus operand
bit lists (LSB first) and returns output bit lists.  Each generator exists
in two *styles*, mirroring how the paper implements each operation on each
substrate in its best-known form:

* ``style="maj"`` — the MAJ/NOT-friendly decomposition SIMDRAM's Step 1
  produces (e.g. a full adder is 3 MAJ + 2 NOT, the identity
  ``S = MAJ(!Cout, MAJ(A, B, !Cin), Cin)``, Fig. 2 of the paper).
* ``style="classic"`` — the AND/OR/XOR/NOT decomposition used for the
  Ambit baseline, which only has 2-input AND/OR (+NOT) natively.

"Best-known" is meant literally: a generator emits the arithmetic the
operation needs, not the textbook circuit (the divider touches only its
live remainder bits, the population count is a counter tree, ``abs`` is
one chain, a constant multiplier is recoded in signed digits), because
every MAJ it emits is a triple-row activation on every dispatch and no
later step can tell that the graph it was handed is too big.  The two
styles share one algorithm and differ only in the gates of a stage; a
generator branches on the style beyond that only where the substrates'
best forms differ (``equal``, ``reduction`` of XOR).  The MAJ counts
are pinned as closed forms in ``tests/test_logic_closed_forms.py``.

Bit shifts are free wiring in both styles (vertical layout: a shift is a
change of row index, §2 of the paper).
"""

from __future__ import annotations

from repro.errors import SynthesisError
from repro.logic.circuit import Circuit, GateType, Net

VALID_STYLES = ("maj", "classic")


def _check_style(style: str) -> None:
    if style not in VALID_STYLES:
        raise SynthesisError(
            f"style must be one of {VALID_STYLES}, got {style!r}")


def _check_same_width(a: list[Net], b: list[Net]) -> None:
    if len(a) != len(b):
        raise SynthesisError(
            f"operand widths differ: {len(a)} vs {len(b)}")
    if not a:
        raise SynthesisError("operands must have at least one bit")


def full_adder(c: Circuit, a: Net, b: Net, cin: Net,
               style: str = "maj") -> tuple[Net, Net]:
    """One full adder; returns ``(sum, carry_out)``."""
    _check_style(style)
    if style == "maj":
        cout = c.maj(a, b, cin)
        inner = c.maj(a, b, c.not_(cin))
        total = c.maj(c.not_(cout), inner, cin)
        return total, cout
    axb = c.xor(a, b)
    total = c.xor(axb, cin)
    cout = c.or_(c.and_(a, b), c.and_(axb, cin))
    return total, cout


def half_adder(c: Circuit, a: Net, b: Net,
               style: str = "maj") -> tuple[Net, Net]:
    """One half adder; returns ``(sum, carry_out)``."""
    _check_style(style)
    if style == "maj":
        # XOR via MAJ: a^b = MAJ(!MAJ(a,b,0), MAJ(a,b,1), 0).
        carry = c.maj(a, b, c.const(False))
        either = c.maj(a, b, c.const(True))
        total = c.maj(c.not_(carry), either, c.const(False))
        return total, carry
    return c.xor(a, b), c.and_(a, b)


def ripple_add(c: Circuit, a: list[Net], b: list[Net], cin: Net | None = None,
               style: str = "maj") -> tuple[list[Net], Net]:
    """n-bit ripple-carry addition; returns ``(sum_bits, carry_out)``."""
    _check_same_width(a, b)
    carry = cin if cin is not None else c.const(False)
    out = []
    for bit_a, bit_b in zip(a, b):
        total, carry = full_adder(c, bit_a, bit_b, carry, style)
        out.append(total)
    return out, carry


def ripple_sub(c: Circuit, a: list[Net], b: list[Net],
               style: str = "maj") -> tuple[list[Net], Net]:
    """n-bit subtraction ``a - b`` (two's complement).

    Returns ``(difference_bits, borrow)`` where ``borrow`` is 1 when the
    unsigned subtraction wrapped (i.e. a < b unsigned).
    """
    _check_same_width(a, b)
    inverted = [c.not_(bit) for bit in b]
    diff, carry = ripple_add(c, a, inverted, cin=c.const(True), style=style)
    return diff, c.not_(carry)


def negate(c: Circuit, a: list[Net], style: str = "maj") -> list[Net]:
    """Two's-complement negation ``-a`` (invert then add one)."""
    inverted = [c.not_(bit) for bit in a]
    carry = c.const(True)
    out = []
    for bit in inverted:
        total, carry = half_adder(c, bit, carry, style)
        out.append(total)
    return out


def equal(c: Circuit, a: list[Net], b: list[Net],
          style: str = "maj") -> Net:
    """Equality check; single-bit result.

    MAJ style: neither operand is the greater one — two one-MAJ-per-bit
    borrow chains that read the same ``a_i``/``b_i`` rows (``2n + 1``
    MAJs).  Classic style keeps per-bit XNORs under an AND tree: with
    2-input gates a borrow stage is four gates, not one.
    """
    _check_same_width(a, b)
    _check_style(style)
    if style == "maj":
        return c.nor(greater_unsigned(c, a, b, style),
                     greater_unsigned(c, b, a, style))
    same = [c.xnor(bit_a, bit_b) for bit_a, bit_b in zip(a, b)]
    return c.reduce(GateType.AND, same)


def greater_unsigned(c: Circuit, a: list[Net], b: list[Net],
                     style: str = "maj") -> Net:
    """Unsigned ``a > b``; single-bit result.

    Uses the borrow chain of ``b - a``: a borrow out means ``b < a``.
    Each stage is ``w' = MAJ(!b_i, a_i, w)`` in MAJ style.
    """
    _check_same_width(a, b)
    _check_style(style)
    borrow = c.const(False)
    for bit_a, bit_b in zip(a, b):
        not_b = c.not_(bit_b)
        if style == "maj":
            borrow = c.maj(not_b, bit_a, borrow)
        else:
            direct = c.and_(not_b, bit_a)
            keep = c.and_(c.or_(not_b, bit_a), borrow)
            borrow = c.or_(direct, keep)
    return borrow


def greater_signed(c: Circuit, a: list[Net], b: list[Net],
                   style: str = "maj") -> Net:
    """Signed (two's complement) ``a > b``; single-bit result.

    Flipping both sign bits maps the signed order onto the unsigned one
    (two complemented edges, free in a MIG): ``n`` MAJs.
    """
    _check_same_width(a, b)
    return greater_unsigned(c, a[:-1] + [c.not_(a[-1])],
                            b[:-1] + [c.not_(b[-1])], style)


def greater_equal_signed(c: Circuit, a: list[Net], b: list[Net],
                         style: str = "maj") -> Net:
    """Signed ``a >= b``; single-bit result."""
    less = greater_signed(c, b, a, style)
    return c.not_(less)


def mux_vector(c: Circuit, select: Net, if_true: list[Net],
               if_false: list[Net], style: str = "maj") -> list[Net]:
    """Per-bit 2:1 mux of two equal-width vectors."""
    _check_same_width(if_true, if_false)
    _check_style(style)
    return [c.mux(select, t, f) for t, f in zip(if_true, if_false)]


def maximum_signed(c: Circuit, a: list[Net], b: list[Net],
                   style: str = "maj") -> list[Net]:
    """Signed elementwise maximum."""
    a_wins = greater_signed(c, a, b, style)
    return mux_vector(c, a_wins, a, b, style)


def minimum_signed(c: Circuit, a: list[Net], b: list[Net],
                   style: str = "maj") -> list[Net]:
    """Signed elementwise minimum."""
    a_wins = greater_signed(c, a, b, style)
    return mux_vector(c, a_wins, b, a, style)


def _signed_digits(value: int, width: int) -> list[int]:
    """Canonical signed-digit (non-adjacent) form of ``value`` modulo
    ``2**width``: digits in ``{-1, 0, 1}``, LSB first."""
    digits = []
    while value and len(digits) < width:
        digit = 0
        if value & 1:
            digit = 2 - (value & 3)
            value -= digit
        digits.append(digit)
        value >>= 1
    return digits


def _multiply_signed_digits(c: Circuit, x: list[Net], digits: list[int],
                            style: str) -> list[Net]:
    """``x`` times the constant with these signed digits: the sum of the
    positively weighted shifts of ``x`` minus the sum of the negative
    ones (a shift is row re-indexing over constant-zero low bits)."""
    width = len(x)
    zero = c.const(False)

    def shifted_sum(sign: int) -> list[Net] | None:
        acc = None
        for shift, digit in enumerate(digits):
            if digit != sign:
                continue
            if acc is None:
                acc = [zero] * shift + x[:width - shift]
            else:
                upper, _ = ripple_add(c, acc[shift:], x[:width - shift],
                                      style=style)
                acc = acc[:shift] + upper
        return acc

    plus, minus = shifted_sum(1), shifted_sum(-1)
    if minus is None:
        return plus
    if plus is None:
        return negate(c, minus, style)
    return ripple_sub(c, plus, minus, style)[0]


def multiply(c: Circuit, a: list[Net], b: list[Net],
             style: str = "maj") -> list[Net]:
    """n x n -> n-bit (wrapping) shift-and-add multiplication.

    Partial product ``i`` is ``a AND b_i`` shifted left by ``i`` (the shift
    is free row re-indexing); products are accumulated with ripple adders
    of shrinking width, giving the usual O(n^2) bit-serial multiplier.

    A constant operand (``expr.const`` under ``fuse``) is recoded in
    canonical signed-digit form when that has strictly fewer nonzero
    digits than its binary form — ``x * -3`` is ``x - 4x``, not ``n - 1``
    adder rows; on a tie the binary rows below fold to the same count.
    """
    _check_same_width(a, b)
    width = len(a)
    for const, other in ((b, a), (a, b)):
        if all(c.gates[net].kind is GateType.CONST for net in const):
            value = sum(c.gates[net].value << i
                        for i, net in enumerate(const))
            digits = _signed_digits(value, width)
            if sum(map(abs, digits)) < value.bit_count():
                return _multiply_signed_digits(c, other, digits, style)
    acc = [c.and_(bit, b[0]) for bit in a]
    for i in range(1, width):
        partial = [c.and_(a[j], b[i]) for j in range(width - i)]
        upper, _ = ripple_add(c, acc[i:], partial, style=style)
        acc = acc[:i] + upper
    return acc


def divide_unsigned(c: Circuit, a: list[Net], b: list[Net],
                    style: str = "maj") -> tuple[list[Net], list[Net]]:
    """Unsigned restoring division; returns ``(quotient, remainder)``.

    One dividend bit is shifted into the remainder per step, the divisor
    is subtracted, and a mux restores the pre-subtraction value when the
    divisor did not fit.  After ``k + 1`` dividend bits the remainder is
    below ``2**(k + 1)``, so step ``k`` subtracts and restores only its
    low ``k + 1`` bits; the divisor fits when that subtraction does not
    borrow *and* the divisor has no set bit above ``k`` (one chain over
    the divisor, computed once): ``3n^2 - 3`` MAJs for the quotient where
    subtracting all ``n`` bits in every step took ``6n^2``.
    Division by zero yields an all-ones quotient and remainder == a,
    matching the hardware divider's fixed-point behaviour.
    """
    _check_same_width(a, b)
    width = len(a)
    # high_clear[k]: the divisor has no set bit above position k.
    high_clear = [c.const(True)] * width
    for k in reversed(range(width - 1)):
        high_clear[k] = c.and_(high_clear[k + 1], c.not_(b[k + 1]))
    remainder: list[Net] = []
    quotient: list[Net] = [c.const(False)] * width
    for k, step in enumerate(reversed(range(width))):
        shifted = [a[step]] + remainder
        diff, borrow = ripple_sub(c, shifted, b[:k + 1], style)
        took = c.and_(c.not_(borrow), high_clear[k])
        remainder = mux_vector(c, took, diff, shifted, style)
        quotient[step] = took
    return quotient, remainder


def popcount(c: Circuit, bits: list[Net], style: str = "maj") -> list[Net]:
    """Count set bits; output width is ``ceil(log2(n+1))``.

    A carry-save counter tree: per weight, a running sum takes two more
    bits at a time through a full adder (the sum stays at that weight,
    the carry moves up one) and a leftover bit through a half adder —
    ``n - 1`` adders, ``3n - 3`` MAJs, where ``n`` ripple increments took
    ``3n log n``.  At weight 0 a primary input sits in the adder's
    pass-through (carry-in) position, the operand Step 2 can re-read
    from its home row.
    """
    if not bits:
        raise SynthesisError("popcount needs at least one bit")
    column = list(bits)
    out = []
    for _ in range(len(bits).bit_length()):
        acc, *rest = column
        column = []  # this weight's carries: the next weight's bits
        while len(rest) > 1:
            x, cin, *rest = rest
            acc, carry = full_adder(c, acc, x, cin, style)
            column.append(carry)
        if rest:
            acc, carry = half_adder(c, acc, rest[0], style)
            column.append(carry)
        out.append(acc)
    return out


def relu(c: Circuit, a: list[Net], style: str = "maj") -> list[Net]:
    """Signed ReLU: ``a`` when ``a >= 0`` else 0 (mask with NOT sign)."""
    _check_style(style)
    keep = c.not_(a[-1])
    return [c.and_(bit, keep) for bit in a]


def absolute(c: Circuit, a: list[Net], style: str = "maj") -> list[Net]:
    """Signed absolute value (note: abs(INT_MIN) wraps to INT_MIN).

    Negation flips every bit above the lowest set one, so one chain
    carries ``flip`` = "negative and a lower bit is set" and each output
    is ``x_i ^ flip`` (the top one ``sign & !flip``: only ``INT_MIN``
    stays negative) — ``4n - 6`` MAJs, no negate and no mux.  The chain
    stage is the single MAJ ``M(flip, x_i, sign)`` (an OR when the sign
    is set, an AND that stays 0 when it is not); with 2-input gates it
    is ``flip | (x_i & sign)``.
    """
    _check_style(style)
    sign = a[-1]
    flip = c.const(False)
    out = []
    for bit in a[:-1]:
        out.append(c.xor(bit, flip))
        if style == "maj":
            flip = c.maj(flip, bit, sign)
        else:
            flip = c.or_(flip, c.and_(bit, sign))
    return out + [c.and_(sign, c.not_(flip))]


def reduction(c: Circuit, kind: GateType, bits: list[Net],
              style: str = "maj") -> Net:
    """N-input AND/OR/XOR reduction over the bits of each element.

    AND/OR are balanced trees of constant-third-operand MAJs on either
    substrate.  XOR in MAJ style folds three bits at a time through the
    full adder's sum (Fig. 2 of the paper: a 3-MAJ XOR3, ``3n/2`` MAJs
    in all); 2-input gates have no XOR3, so classic keeps the XOR2 tree.
    """
    if kind not in (GateType.AND, GateType.OR, GateType.XOR):
        raise SynthesisError(f"unsupported reduction gate {kind}")
    _check_style(style)
    if kind is GateType.XOR and style == "maj" and bits:
        acc, *rest = bits
        while len(rest) > 1:
            x, cin, *rest = rest
            acc, _ = full_adder(c, acc, x, cin, style)
        return c.xor(acc, rest[0]) if rest else acc
    return c.reduce(kind, bits)
