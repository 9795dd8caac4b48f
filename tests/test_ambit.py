"""Tests for the Ambit baseline: bulk bitwise ops and classic lowering."""

import numpy as np
import pytest

from repro.ambit import BULK_OPS, bulk_program, compile_ambit
from repro.dram.geometry import DramGeometry
from repro.dram.rows import data_row
from repro.dram.subarray import Subarray
from repro.errors import OperationError
from repro.exec.control_unit import ControlUnit
from repro.exec.layout import RowLayout
from repro.uprog.uops import Space


def execute_bulk(name, inputs):
    """Run a bulk op µProgram on random rows; returns (output, program)."""
    program = bulk_program(name)
    geometry = DramGeometry.sim_small(
        cols=32, data_rows=8 + program.n_temp_rows)
    subarray = Subarray(geometry, rng=np.random.default_rng(3))
    layout = RowLayout({Space.INPUT0: 0, Space.INPUT1: 1,
                        Space.OUTPUT: 2, Space.TEMP: 3})
    for i, bits in enumerate(inputs):
        subarray.write_row(data_row(i), bits)
    ControlUnit().execute(program, subarray, layout)
    return subarray.peek(data_row(2)), program


@pytest.fixture
def rows():
    rng = np.random.default_rng(17)
    return (rng.integers(0, 2, 32).astype(bool),
            rng.integers(0, 2, 32).astype(bool))


class TestBulkOps:
    @pytest.mark.parametrize("name", sorted(BULK_OPS))
    def test_bulk_semantics(self, name, rows):
        a, b = rows
        op = BULK_OPS[name]
        inputs = [a, b][:op.arity]
        got, _ = execute_bulk(name, inputs)
        expected = op.golden(inputs)
        assert np.array_equal(got, expected)

    def test_bulk_and_is_four_aaps(self):
        """Matches the Ambit paper's canonical command count."""
        program = bulk_program("and")
        assert program.n_aap == 4
        assert program.n_ap == 0

    def test_bulk_not_is_two_aaps(self):
        """NOT = copy into DCC + copy complement out (Ambit §3.3)."""
        program = bulk_program("not")
        assert program.n_commands == 2
        assert program.n_ap == 0

    def test_bulk_or_is_four_aaps(self):
        assert bulk_program("or").n_commands == 4

    def test_xor_costs_more_than_and(self):
        assert bulk_program("xor").n_commands > \
            bulk_program("and").n_commands

    def test_unknown_bulk_op_rejected(self):
        with pytest.raises(OperationError):
            bulk_program("xmaj")


class TestClassicLowering:
    @pytest.mark.parametrize("op_name", ("add", "mul", "gt", "bitcount"))
    def test_ambit_needs_more_commands(self, op_name):
        from repro.core.compiler import compile_operation
        from repro.core.operations import get_operation
        spec = get_operation(op_name)
        ambit = compile_ambit(spec, 8)
        simdram = compile_operation(spec, 8, backend="simdram")
        assert ambit.n_commands > simdram.n_commands

    def test_pure_bitwise_ops_tie_under_equal_scheduling(self):
        """AND/OR-only operations lower identically on both
        substrates: every MAJ already has a constant third operand.
        Ambit's gap on these ops comes purely from its fixed per-gate
        command sequences (no reuse scheduling).  XOR does not tie: a
        three-input XOR is three MAJs (the full adder's sum), which
        2-input gates cannot express, so SIMDRAM is strictly cheaper
        even against an Ambit given the same scheduler."""
        from repro.core.compiler import compile_operation
        from repro.core.operations import get_operation
        from repro.uprog.scheduler import ScheduleOptions

        def both(op_name):
            spec = get_operation(op_name)
            ambit_reuse = compile_operation(
                spec, 8, backend="ambit",
                options=ScheduleOptions(reuse=True))
            simdram = compile_operation(spec, 8, backend="simdram")
            # With its real (fixed-sequence) scheduling, Ambit needs more.
            assert compile_ambit(spec, 8).n_commands > simdram.n_commands
            return ambit_reuse.n_commands, simdram.n_commands

        for op_name in ("and_red", "or_red"):
            ambit_reuse, simdram = both(op_name)
            assert ambit_reuse == simdram
        ambit_reuse, simdram = both("xor_red")
        assert simdram < ambit_reuse

    def test_compile_ambit_accepts_names(self):
        program = compile_ambit("add", 8)
        assert program.backend == "ambit"
        assert program.op_name == "add"
