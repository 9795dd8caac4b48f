"""Tests for the execution layer: layout binding, control unit, memory
allocator and transposition unit."""

import numpy as np
import pytest

from repro.dram.bank import DramModule
from repro.dram.geometry import DramGeometry
from repro.dram.rows import b_row, ctrl_row, data_row
from repro.dram.subarray import Subarray
from repro.errors import AllocationError, ExecutionError, OperationError
from repro.exec.control_unit import ControlUnit, ProgramKey
from repro.exec.layout import RowLayout
from repro.exec.memory import RowBlock, VerticalAllocator
from repro.exec.transposition import TranspositionUnit
from repro.uprog.program import MicroProgram, OperandSpec
from repro.uprog.uops import Space, UAap, UAp, URow


def and_program():
    uops = [
        UAap(URow(Space.INPUT0, 0), URow(Space.BGROUP, 0)),
        UAap(URow(Space.INPUT1, 0), URow(Space.BGROUP, 1)),
        UAap(URow(Space.CTRL, 0), URow(Space.BGROUP, 2)),
        UAp(URow(Space.BGROUP, 12)),
        UAap(URow(Space.BGROUP, 0), URow(Space.OUTPUT, 0)),
    ]
    return MicroProgram(
        op_name="and1", backend="simdram", element_width=1,
        inputs=[OperandSpec(Space.INPUT0, 1), OperandSpec(Space.INPUT1, 1)],
        output=OperandSpec(Space.OUTPUT, 1), uops=uops)


class TestRowLayout:
    def test_resolve_spaces(self):
        layout = RowLayout({Space.INPUT0: 10, Space.OUTPUT: 20})
        assert layout.resolve(URow(Space.INPUT0, 3)) == data_row(13)
        assert layout.resolve(URow(Space.OUTPUT, 0)) == data_row(20)
        assert layout.resolve(URow(Space.CTRL, 1)) == ctrl_row(1)
        assert layout.resolve(URow(Space.BGROUP, 12)) == b_row(12)

    def test_unbound_space_rejected(self):
        layout = RowLayout({})
        with pytest.raises(AllocationError):
            layout.resolve(URow(Space.TEMP, 0))

    def test_output_overlapping_input_rejected(self):
        program = and_program()
        layout = RowLayout({Space.INPUT0: 0, Space.INPUT1: 1,
                            Space.OUTPUT: 1})
        with pytest.raises(AllocationError):
            layout.check(program, DramGeometry.sim_small())

    def test_aliased_inputs_allowed(self):
        """Using one vector as both sources is a legal read-only alias."""
        program = and_program()
        layout = RowLayout({Space.INPUT0: 0, Space.INPUT1: 0,
                            Space.OUTPUT: 5})
        layout.check(program, DramGeometry.sim_small())

    def test_check_out_of_range_rejected(self):
        program = and_program()
        geometry = DramGeometry.sim_small(data_rows=4)
        layout = RowLayout({Space.INPUT0: 0, Space.INPUT1: 1,
                            Space.OUTPUT: 99})
        with pytest.raises(AllocationError):
            layout.check(program, geometry)

    def test_check_accepts_valid_layout(self):
        program = and_program()
        layout = RowLayout({Space.INPUT0: 0, Space.INPUT1: 1,
                            Space.OUTPUT: 2})
        layout.check(program, DramGeometry.sim_small())


class TestControlUnit:
    def test_execute_and(self):
        geometry = DramGeometry.sim_small(cols=16, data_rows=8)
        subarray = Subarray(geometry, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2, 16).astype(bool)
        b = rng.integers(0, 2, 16).astype(bool)
        subarray.write_row(data_row(0), a)
        subarray.write_row(data_row(1), b)
        layout = RowLayout({Space.INPUT0: 0, Space.INPUT1: 1,
                            Space.OUTPUT: 2})
        stats = ControlUnit().execute(and_program(), subarray, layout)
        assert np.array_equal(subarray.peek(data_row(2)), a & b)
        assert stats.n_aap == 4
        assert stats.n_ap == 1

    def test_install_lookup_roundtrip(self):
        cu = ControlUnit()
        key = cu.install(and_program())
        assert cu.lookup(key).op_name == "and1"
        assert key in cu.installed

    def test_lookup_missing_rejected(self):
        with pytest.raises(ExecutionError):
            ControlUnit().lookup(ProgramKey("nope", 8, "simdram"))

    def test_scratchpad_capacity_enforced(self):
        cu = ControlUnit(scratchpad_uops=3)
        with pytest.raises(ExecutionError):
            cu.install(and_program())  # 5 µOps > 3

    def test_reinstall_replaces_not_accumulates(self):
        cu = ControlUnit(scratchpad_uops=10)
        cu.install(and_program())
        cu.install(and_program())  # same key: replaces
        assert cu.used_uops() == 5

    def test_execute_on_module_broadcasts(self):
        geometry = DramGeometry.sim_small(cols=8, data_rows=8, banks=3)
        module = DramModule(geometry)
        layout = RowLayout({Space.INPUT0: 0, Space.INPUT1: 1,
                            Space.OUTPUT: 2})
        ones = np.ones(module.lanes, dtype=bool)
        module.write_striped(data_row(0), ones)
        module.write_striped(data_row(1), ones)
        ControlUnit().execute_on_module(and_program(), module, layout)
        # every bank executed the stream
        assert module.total_stats().n_aap == 4 * 3
        assert module.read_striped(data_row(2)).all()


class TestVerticalAllocator:
    def test_alloc_first_fit(self):
        allocator = VerticalAllocator(DramGeometry.sim_small(data_rows=32))
        a = allocator.alloc(8)
        b = allocator.alloc(8)
        assert a.base == 0 and b.base == 8
        assert allocator.free_rows() == 16

    def test_free_and_coalesce(self):
        allocator = VerticalAllocator(DramGeometry.sim_small(data_rows=32))
        a = allocator.alloc(8)
        b = allocator.alloc(8)
        allocator.free(a)
        allocator.free(b)
        assert allocator.free_rows() == 32
        big = allocator.alloc(32)  # only possible if extents coalesced
        assert big.base == 0

    def test_out_of_rows_rejected(self):
        allocator = VerticalAllocator(DramGeometry.sim_small(data_rows=8))
        allocator.alloc(8)
        with pytest.raises(AllocationError):
            allocator.alloc(1)

    def test_double_free_rejected(self):
        allocator = VerticalAllocator(DramGeometry.sim_small(data_rows=8))
        block = allocator.alloc(4)
        allocator.free(block)
        with pytest.raises(AllocationError):
            allocator.free(block)

    def test_zero_width_rejected(self):
        allocator = VerticalAllocator(DramGeometry.sim_small())
        with pytest.raises(AllocationError):
            allocator.alloc(0)

    def test_allocated_blocks_listing(self):
        allocator = VerticalAllocator(DramGeometry.sim_small(data_rows=32))
        allocator.alloc(4)
        allocator.alloc(4)
        assert [b.base for b in allocator.allocated_blocks] == [0, 4]


class TestTranspositionUnit:
    def test_roundtrip_through_module(self):
        geometry = DramGeometry.sim_small(cols=16, data_rows=40, banks=2)
        module = DramModule(geometry)
        unit = TranspositionUnit()
        rng = np.random.default_rng(2)
        values = rng.integers(0, 256, 20)
        block = RowBlock(4, 8)
        unit.host_to_vertical(module, block, values, 8)
        out = unit.vertical_to_host(module, block, 20, 8)
        assert np.array_equal(out, values)

    def test_signed_readback(self):
        geometry = DramGeometry.sim_small(cols=8, data_rows=16, banks=1)
        module = DramModule(geometry)
        unit = TranspositionUnit()
        values = np.array([-3, 5, -128, 127])
        block = RowBlock(0, 8)
        unit.host_to_vertical(module, block, values, 8)
        out = unit.vertical_to_host(module, block, 4, 8, signed=True)
        assert np.array_equal(out, values)

    def test_too_many_elements_rejected(self):
        geometry = DramGeometry.sim_small(cols=4, data_rows=16, banks=1)
        module = DramModule(geometry)
        unit = TranspositionUnit()
        with pytest.raises(OperationError):
            unit.host_to_vertical(module, RowBlock(0, 8),
                                  np.arange(99), 8)

    def test_block_too_narrow_rejected(self):
        geometry = DramGeometry.sim_small(cols=4, data_rows=16, banks=1)
        module = DramModule(geometry)
        unit = TranspositionUnit()
        with pytest.raises(OperationError):
            unit.host_to_vertical(module, RowBlock(0, 4),
                                  np.arange(4), 8)

    def test_cost_scales_with_volume(self):
        unit = TranspositionUnit()
        small = unit.transpose_cost(1000, 8)
        large = unit.transpose_cost(2000, 8)
        assert large.latency_ns == pytest.approx(2 * small.latency_ns)
        assert large.energy_nj == pytest.approx(2 * small.energy_nj)
        assert small.bytes_moved == 1000
