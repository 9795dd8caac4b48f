"""Step 2's sibling pairs: two nodes on the disjoint triples B14/B15,
shared operands landing through the two-wordline addresses B8-B10.

Every program scheduled here is also *executed* on the bit-accurate
subarray (randomized initial contents) and checked against direct MIG
evaluation, so a mis-ordered install shows up as a wrong bit.
"""

import json

import numpy as np
import pytest

from repro.core.compiler import compile_operation
from repro.core.framework import SimdramConfig, Simdram
from repro.core.operations import PAPER_OPERATIONS, get_operation
from repro.dram.geometry import DramGeometry
from repro.dram.rows import RowGroup, b_row, data_row
from repro.dram.subarray import Subarray
from repro.exec.control_unit import ControlUnit
from repro.exec.engines import list_engines
from repro.exec.layout import RowLayout
from repro.exec.plan import _check_drive
from repro.logic.mig import Mig
from repro.uprog.program import MicroProgram, OperandSpec
from repro.uprog.scheduler import (
    PAIR_POSITIONS,
    ScheduleOptions,
    Scheduler,
    schedule,
)
from repro.uprog.uops import Space, UAap, UAp, URow

from test_uprogram_ledger import LEDGER_PATH, ledger_kernels

COLS = 16


def schedule_and_check(mig, n_a, n_b=0, options=None, seed=3):
    """Schedule ``mig`` (inputs ``a*``/``b*``, outputs in declaration
    order), execute it and compare with ``Mig.evaluate``."""
    input_rows = {f"a{i}": URow(Space.INPUT0, i) for i in range(n_a)}
    input_rows |= {f"b{i}": URow(Space.INPUT1, i) for i in range(n_b)}
    names = [name for name, _ in mig.outputs]
    input_specs = [OperandSpec(Space.INPUT0, n_a)]
    if n_b:
        input_specs.append(OperandSpec(Space.INPUT1, n_b))
    program = schedule(
        mig, op_name="pairs", backend="simdram", element_width=n_a,
        input_specs=input_specs,
        output_spec=OperandSpec(Space.OUTPUT, len(names)),
        input_rows=input_rows,
        output_rows={n: URow(Space.OUTPUT, i) for i, n in enumerate(names)},
        options=options)
    rng = np.random.default_rng(seed)
    values = {name: rng.integers(0, 2, COLS).astype(bool)
              for name in input_rows}
    subarray = Subarray(
        DramGeometry.sim_small(
            cols=COLS,
            data_rows=n_a + n_b + len(names) + program.n_temp_rows + 2),
        rng=rng)
    layout = RowLayout({Space.INPUT0: 0, Space.INPUT1: n_a,
                        Space.OUTPUT: n_a + n_b,
                        Space.TEMP: n_a + n_b + len(names)})
    for name, row in input_rows.items():
        subarray.write_row(data_row(layout.resolve(row).index), values[name])
    ControlUnit().execute(program, subarray, layout)
    expected = mig.evaluate(values)
    for i, name in enumerate(names):
        assert np.array_equal(subarray.peek(data_row(n_a + n_b + i)),
                              expected[name]), name
    return program


def ripple_adder(n):
    """The textbook MAJ full adder, carry as the pass-through."""
    mig = Mig()
    carry = mig.const0
    for i in range(n):
        a, b = mig.input(f"a{i}"), mig.input(f"b{i}")
        cout = mig.maj(a, b, carry)
        inner = mig.maj(a, b, ~carry)
        mig.set_output(f"y{i}", mig.maj(~cout, inner, carry))
        carry = cout
    return mig


def two_wordline_installs(program):
    return [op for op in program.uops
            if isinstance(op, UAap) and op.dst.n_wordlines == 2]


class TestRippleAdderPairs:
    @pytest.mark.parametrize("n", [4, 8])
    def test_carry_and_inner_fire_back_to_back(self, n):
        program = schedule_and_check(ripple_adder(n), n, n)
        fired = [op.addr.index if isinstance(op, UAp) else None
                 for op in program.uops]
        adjacent = sum(pair == (14, 15) for pair in zip(fired, fired[1:]))
        assert adjacent == n
        assert program.report["pairs"] == n

    @pytest.mark.parametrize("n", [4, 8])
    def test_each_operand_bit_is_loaded_once_for_both_nodes(self, n):
        program = schedule_and_check(ripple_adder(n), n, n)
        for space in (Space.INPUT0, Space.INPUT1):
            for bit in range(n):
                reads = [op for op in program.uops if isinstance(op, UAap)
                         and op.src == URow(space, bit)]
                assert len(reads) == 1, (space, bit)
                assert reads[0].dst.n_wordlines == 2
        assert program.n_commands <= 9 * n + 1

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_catalog_add_is_nine_commands_a_bit_and_no_temp_row(self, n):
        program = compile_operation(get_operation("add"), n)
        assert program.n_commands <= 9 * n + 1
        assert program.n_temp_rows == 0


class TestCostGate:
    def test_two_complemented_leaves_leave_no_gateway_so_stay_single(self):
        """``a & !b`` and ``a & !c`` share ``a`` and the constant, but
        each needs a DCC for its complemented leaf and the shared
        operands take the positions that have one: the pair is no
        cheaper than two placements and is not taken."""
        mig = Mig()
        a, b, c = (mig.input(f"a{i}") for i in range(3))
        mig.set_output("y0", mig.and_(a, ~b))
        mig.set_output("y1", mig.and_(a, ~c))
        program = schedule_and_check(mig, 3)
        assert program.report["siblings"] == 1
        assert program.report["pairs"] == 0
        assert not two_wordline_installs(program)

    def test_multiplier_array_keeps_its_partial_sums_resident(self):
        """In the multiplier most siblings are found where a pair would
        push live partial sums out of all six planes; the gate leaves
        those nodes single."""
        report = compile_operation(get_operation("mul"), 8).report
        assert report["siblings"] > report["pairs"]

    def test_opposite_polarity_siblings_use_the_self_dual(self, monkeypatch):
        """``M(s,!e,t)`` and ``M(!s,e,f)`` read both selectors with
        opposite polarity; computing one as its self-dual lines them up
        (``s`` lands with one AAP).  A plain 2:1 mux does not need it:
        its shared constant crosses either way, five AAPs both ways."""
        chosen = []
        place_pair = Scheduler._place_pair

        def spy(self, nodes, duals, *rest):
            chosen.append(duals)
            return place_pair(self, nodes, duals, *rest)

        monkeypatch.setattr(Scheduler, "_place_pair", spy)
        mig = Mig()
        s, e, t, f, z = (mig.input(f"a{i}") for i in range(5))
        mig.set_output("y0", mig.maj(mig.maj(s, ~e, t), mig.maj(~s, e, f), z))
        schedule_and_check(mig, 5)
        assert len(chosen) == 1 and any(chosen[0])

        chosen.clear()
        mux = Mig()
        s, t, f = (mux.input(f"a{i}") for i in range(3))
        mux.set_output("y0", mux.mux(s, t, f))
        program = schedule_and_check(mux, 3)
        assert chosen == [(False, False)]
        assert program.n_commands == 9


class TestTwoWordlineDestinations:
    def test_every_ledger_program_drives_legal_cross_addresses(self):
        pair_addresses = {addr for addr, _, _ in PAIR_POSITIONS}
        assert pair_addresses == {8, 9, 10}
        ledger = json.loads(LEDGER_PATH.read_text())
        kernels = ledger_kernels()
        seen = 0
        for key in ledger:
            if not key.startswith("simdram/") or not key.endswith("/8"):
                continue  # one width of every default row compiles fast
            for op in two_wordline_installs(kernels[key]()):
                assert op.dst.space is Space.BGROUP
                assert op.dst.index in (8, 9, 10, 11)
                _check_drive(b_row(op.dst.index))
                seen += 1
        assert seen > 100

    def test_subarray_writes_both_wordlines_of_b8(self):
        subarray = Subarray(DramGeometry.sim_small(cols=COLS, data_rows=4),
                            rng=np.random.default_rng(1))
        x = np.random.default_rng(2).integers(0, 2, COLS).astype(bool)
        subarray.write_row(data_row(0), x)
        subarray.aap(data_row(0), b_row(8))        # DCC0N + T0
        assert np.array_equal(subarray.peek(b_row(0)), x)       # T0 = x
        assert np.array_equal(subarray.peek(b_row(4)), x)       # DCC0N = x
        assert np.array_equal(subarray.peek(b_row(6)), ~x)      # DCC0 = !x
        assert b_row(8).group is RowGroup.BITWISE

    def test_program_with_cross_installs_round_trips(self):
        program = compile_operation(get_operation("add"), 8)
        assert two_wordline_installs(program)
        clone = MicroProgram.from_dict(
            json.loads(json.dumps(program.to_dict())))
        assert clone.uops == program.uops
        assert clone == program
        assert "report" not in program.to_dict()

    @pytest.mark.parametrize("op_name", ["add", "eq", "if_else", "relu"])
    def test_naive_mode_emits_none(self, op_name):
        program = compile_operation(get_operation(op_name), 8,
                                    options=ScheduleOptions(reuse=False))
        assert not two_wordline_installs(program)
        assert program.report["pairs"] == 0

    @pytest.mark.parametrize("engine", list_engines())
    def test_every_engine_executes_cross_installs(self, engine):
        sim = Simdram(SimdramConfig(
            geometry=DramGeometry.sim_small(cols=32, data_rows=128, banks=2)))
        a_host = np.arange(40) % 200
        b_host = (np.arange(40) * 7) % 200
        a, b = sim.array(a_host, 8), sim.array(b_host, 8)
        out = sim.run("add", a, b, engine=engine)
        assert np.array_equal(out.to_numpy(), (a_host + b_host) % 256)


class TestListing:
    def test_b_group_operands_are_shown_by_wordline(self):
        program = compile_operation(get_operation("add"), 8)
        listing = program.listing()
        assert "B9(DCC1N+T1)" in listing
        assert "AP  B14(DCC0N+T1+T2)" in listing
        assert "bg[" not in listing
        # str(uop) is the ledger's hash input and keeps the bare index.
        assert any(str(op).endswith("bg[9]") for op in program.uops)


def test_every_paper_operation_beats_its_ambit_baseline_at_every_width():
    for op_name in PAPER_OPERATIONS:
        for width in (8, 16):
            spec = get_operation(op_name)
            simdram = compile_operation(spec, width)
            ambit = compile_operation(spec, width, backend="ambit")
            assert simdram.n_commands < ambit.n_commands, (op_name, width)


def test_passthrough_selection_pays_in_the_scheduled_programs(monkeypatch):
    """The rewrite is accepted on node count alone (pricing it with a
    schedule of either graph would double Step 2); this is the check
    that Step 2 agrees: no paper operation grows and together they
    shrink by at least 3 % (a relative floor: what the rewrite saves in
    ``div`` scales with the divider Step 1 emits), and over the fused
    kernels the benchmark compiles (ledger constants) the total falls
    with no kernel more than 5 % longer (``affine_relu_step`` moves by a
    few per cent either way with the constant)."""
    from repro.apps.brightness import brightness_expr
    from repro.apps.cnn import madd_expr, madd_relu_expr
    from repro.core import fuse
    from repro.serve.streaming import affine_relu_step

    kernels = [(op_name, 8) for op_name in PAPER_OPERATIONS]
    kernels += [(root, 16) for root in (
        brightness_expr(40), madd_expr(3), madd_relu_expr(-3),
        affine_relu_step(3))]
    rewritten = [fuse.compile_kernel(op, width).program.n_commands
                 for op, width in kernels]
    monkeypatch.setattr(fuse, "xor3_passthrough", lambda mig: mig)
    plain = [fuse.compile_kernel(op, width).program.n_commands
             for op, width in kernels]
    n_ops = len(PAPER_OPERATIONS)
    assert all(new <= old
               for new, old in zip(rewritten[:n_ops], plain[:n_ops]))
    assert all(new <= 1.05 * old
               for new, old in zip(rewritten[n_ops:], plain[n_ops:]))
    assert sum(rewritten[:n_ops]) <= 0.97 * sum(plain[:n_ops])
    assert sum(rewritten[n_ops:]) < sum(plain[n_ops:])
