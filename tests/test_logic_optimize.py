"""Tests for the MIG optimizer (Step 1 logic minimization)."""

import numpy as np
import pytest

from repro.core.operations import PAPER_OPERATIONS, get_operation
from repro.logic import library
from repro.logic.circuit import Circuit
from repro.logic.mig import Mig
from repro.logic.optimize import optimize, rebuild
from repro.util.bitops import bits_to_ints, ints_to_bits


def _adder_mig(width=6, style="maj"):
    c = Circuit()
    av = [c.input(f"a{i}") for i in range(width)]
    bv = [c.input(f"b{i}") for i in range(width)]
    total, _ = library.ripple_add(c, av, bv, style=style)
    for i, net in enumerate(total):
        c.set_output(f"y{i}", net)
    return Mig.from_circuit(c), width


class TestRebuild:
    def test_preserves_interface(self):
        mig, _ = _adder_mig()
        out = rebuild(mig)
        assert out.input_names == mig.input_names
        assert [name for name, _ in out.outputs] == [
            name for name, _ in mig.outputs]

    def test_never_increases_nodes(self):
        for style in ("maj", "classic"):
            mig, _ = _adder_mig(style=style)
            assert rebuild(mig).n_nodes <= mig.n_nodes

    def test_removes_dead_nodes(self):
        m = Mig()
        a, b, c = m.input("a"), m.input("b"), m.input("c")
        m.and_(a, b)  # dead
        m.set_output("y", m.or_(a, c))
        assert rebuild(m).n_nodes == 1

    def test_constant_output_preserved(self):
        m = Mig()
        a = m.input("a")
        m.set_output("y", m.and_(a, ~a))  # constant 0
        out = rebuild(m)
        assert bool(out.evaluate({"a": np.array([True])})["y"][0]) is False

    def test_passthrough_output_preserved(self):
        m = Mig()
        a = m.input("a")
        m.set_output("y", ~a)
        out = rebuild(m)
        assert bool(out.evaluate({"a": np.array([True])})["y"][0]) is False


class TestOptimize:
    def test_reaches_fixpoint(self):
        mig, _ = _adder_mig()
        optimized, stats = optimize(mig)
        again, stats2 = optimize(optimized)
        assert again.n_nodes == optimized.n_nodes
        assert stats.nodes_after <= stats.nodes_before

    def test_stats_fields_consistent(self):
        mig, _ = _adder_mig()
        optimized, stats = optimize(mig)
        assert stats.nodes_before == mig.n_nodes
        assert stats.nodes_after == optimized.n_nodes
        assert 0 <= stats.node_reduction <= 1
        assert stats.passes >= 1

    def test_equivalence_after_optimization(self):
        mig, width = _adder_mig()
        optimized, _ = optimize(mig)
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2**width, 64)
        b = rng.integers(0, 2**width, 64)
        abits, bbits = ints_to_bits(a, width), ints_to_bits(b, width)
        inputs = {f"a{i}": abits[i] for i in range(width)}
        inputs |= {f"b{i}": bbits[i] for i in range(width)}
        got = bits_to_ints(np.stack(
            [optimized.evaluate(inputs)[f"y{i}"] for i in range(width)]))
        assert np.array_equal(got, (a + b) % 2**width)

    @pytest.mark.parametrize("op_name", PAPER_OPERATIONS)
    def test_equivalence_for_every_catalog_operation(self, op_name):
        """Optimizing any catalog operation's MIG keeps it bit-exact."""
        width = 4
        spec = get_operation(op_name)
        circuit = spec.build_circuit(width, "maj")
        mig = Mig.from_circuit(circuit)
        optimized, _ = optimize(mig)

        rng = np.random.default_rng(1)
        n = 48
        inputs = {}
        raw = []
        for prefix, in_width in zip(spec.operand_names(),
                                    spec.in_widths(width)):
            values = rng.integers(0, 2**in_width, n)
            if op_name == "div" and prefix == "b":
                values = np.maximum(values, 1)
            raw.append(values)
            bits = ints_to_bits(values, in_width)
            inputs.update({f"{prefix}{i}": bits[i]
                           for i in range(in_width)})
        out_width = spec.out_width(width)
        got = bits_to_ints(np.stack(
            [optimized.evaluate(inputs)[f"y{i}"]
             for i in range(out_width)]))
        assert np.array_equal(got, spec.golden(raw, width)), op_name

    def test_xor_chain_shrinks(self):
        # XOR-heavy logic benefits most from rebuilding + hashing.
        m = Mig()
        x = m.input("x0")
        for i in range(1, 8):
            x = m.xor(x, m.input(f"x{i}"))
        m.set_output("y", x)
        optimized, stats = optimize(m)
        assert optimized.n_nodes <= m.n_nodes


class TestXor3Passthrough:
    """Pass-through selection: ``x ^ y ^ z`` re-expressed around a leaf."""

    @staticmethod
    def _same_function(before, after, rng, lanes=64):
        values = {name: rng.integers(0, 2, lanes).astype(bool)
                  for name in before.input_names}
        expected, got = before.evaluate(values), after.evaluate(values)
        assert expected.keys() == got.keys()
        return all(np.array_equal(expected[k], got[k]) for k in expected)

    @pytest.mark.parametrize("op_name", PAPER_OPERATIONS)
    def test_preserves_every_catalog_function_and_node_count(self, op_name):
        from repro.core.compiler import build_mig
        from repro.logic.optimize import xor3_passthrough
        rng = np.random.default_rng(7)
        for width in (4, 8):
            mig = build_mig(get_operation(op_name), width)
            out = xor3_passthrough(mig)
            assert out.n_nodes <= mig.n_nodes
            assert out.input_names == mig.input_names
            assert self._same_function(mig, out, rng)

    def test_ripple_carry_stops_being_read_a_third_time(self):
        from repro.logic.optimize import xor3_passthrough, xor3_sites
        mig, width = _adder_mig()
        mig, _ = optimize(mig)
        # Bit 0 adds into a constant carry: already a leaf pass-through.
        assert len(xor3_sites(mig)) == width - 1
        out = xor3_passthrough(mig)
        assert out is not mig and out.n_nodes == mig.n_nodes
        assert not xor3_sites(out)          # idempotent
        # Every sum now reads a primary input where it read the carry.
        for _, ref in out.outputs[1:]:
            assert any(out.is_input(r.node)
                       for r in out.children_of(ref.node))

    def test_subtraction_keeps_its_complemented_carry_chain(self):
        from repro.core.compiler import build_mig
        from repro.logic.optimize import xor3_passthrough
        mig = build_mig(get_operation("sub"), 8)
        out = xor3_passthrough(mig)
        assert out is not mig and out.n_nodes == mig.n_nodes
        assert self._same_function(mig, out, np.random.default_rng(3))

    def test_nothing_to_do_returns_the_graph_itself(self):
        from repro.logic.optimize import xor3_passthrough
        m = Mig()
        a, b, c = m.input("a"), m.input("b"), m.input("c")
        # Three leaves: whichever is the pass-through, it has a home row.
        m.set_output("y", m.maj(~m.maj(a, b, c), m.maj(a, b, ~c), c))
        assert xor3_passthrough(m) is m

    def test_random_graphs_keep_their_function(self):
        from repro.logic.optimize import xor3_passthrough
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = Mig()
            pool = [m.const0] + [m.input(f"a{i}") for i in range(4)]
            for _ in range(int(rng.integers(3, 12))):
                x, y, z = (pool[int(rng.integers(len(pool)))]
                           for _ in range(3))
                carry = m.maj(x, y, z)
                pool.append(m.maj(~carry, m.maj(x, y, ~z), z))  # x^y^z
                pool.append(carry)
            for i, ref in enumerate(pool[-3:]):
                m.set_output(f"y{i}", ref)
            out = xor3_passthrough(m)
            assert out.n_nodes <= m.n_nodes
            assert self._same_function(m, out, rng)
