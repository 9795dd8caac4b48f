"""Tests for the operation catalog, compiler pipeline and Simdram facade."""

import numpy as np
import pytest

from repro.core.compiler import (
    backend_style,
    build_mig,
    compile_cached,
    compile_operation,
)
from repro.core.framework import Simdram, SimdramConfig
from repro.core.operations import (
    CATALOG,
    PAPER_OPERATIONS,
    get_operation,
    register_operation,
)
from repro.dram.geometry import DramGeometry
from repro.errors import OperationError


class TestCatalog:
    def test_sixteen_paper_operations(self):
        assert len(PAPER_OPERATIONS) == 16
        assert len(set(PAPER_OPERATIONS)) == 16
        for name in PAPER_OPERATIONS:
            assert name in CATALOG

    def test_categories_cover_paper_classes(self):
        categories = {CATALOG[name].category for name in PAPER_OPERATIONS}
        assert {"arithmetic", "relational", "predication", "logic",
                "other"} <= categories

    def test_unknown_operation_message_lists_known(self):
        with pytest.raises(OperationError, match="add"):
            get_operation("madd")

    def test_duplicate_registration_rejected(self):
        spec = CATALOG["add"]
        with pytest.raises(OperationError):
            register_operation("add", 2, "arithmetic", "dup",
                               spec.build, spec.golden)

    def test_build_circuit_output_width_checked(self):
        spec = get_operation("bitcount")
        circuit = spec.build_circuit(8, "maj")
        assert len(circuit.outputs) == 4

    def test_golden_models_spot_checks(self):
        add = get_operation("add")
        assert list(add.golden([np.array([250]), np.array([10])], 8)) == [4]
        gt = get_operation("gt")
        assert list(gt.golden([np.array([255]), np.array([1])], 8)) == [0]
        relu = get_operation("relu")
        assert list(relu.golden([np.array([200])], 8)) == [0]
        bitcount = get_operation("bitcount")
        assert list(bitcount.golden([np.array([255])], 8)) == [8]


class TestCompiler:
    def test_backend_style_mapping(self):
        assert backend_style("simdram") == "maj"
        assert backend_style("ambit") == "classic"
        with pytest.raises(OperationError):
            backend_style("tpu")

    def test_build_mig_optimization_flag(self):
        spec = get_operation("add")
        raw = build_mig(spec, 8, optimize_mig=False)
        optimized = build_mig(spec, 8, optimize_mig=True)
        assert optimized.n_nodes <= raw.n_nodes

    def test_program_metadata(self):
        program = compile_operation(get_operation("add"), 8)
        assert program.op_name == "add"
        assert program.element_width == 8
        assert program.output.width == 8
        assert [spec.width for spec in program.inputs] == [8, 8]

    def test_if_else_operand_widths(self):
        program = compile_operation(get_operation("if_else"), 8)
        assert [spec.width for spec in program.inputs] == [1, 8, 8]

    def test_compile_cached_returns_same_object(self):
        a = compile_cached("add", 8, "simdram")
        b = compile_cached("add", 8, "simdram")
        assert a is b

    def test_invalid_width_rejected(self):
        with pytest.raises(OperationError):
            compile_operation(get_operation("add"), 0)


class TestFacade:
    def test_quickstart(self, sim):
        a = sim.array([1, 2, 3, 4], width=8)
        b = sim.array([10, 20, 30, 40], width=8)
        out = sim.run("add", a, b)
        assert list(out.to_numpy()) == [11, 22, 33, 44]

    def test_issued_instructions_logged(self, sim):
        a = sim.array([1], 8)
        b = sim.array([2], 8)
        sim.run("add", a, b)
        assert sim.issued[-1].op == "add"
        assert sim.issued[-1].element_width == 8

    def test_issued_log_is_bounded_and_counted(self, monkeypatch):
        """A serving process issues four bbops per map for as long as
        it lives: the log keeps the last few, the counter all."""
        from repro.core import framework
        monkeypatch.setattr(framework, "ISSUED_LOG", 6)
        sim = Simdram(SimdramConfig(geometry=DramGeometry.sim_small(
            cols=32, data_rows=256, banks=2)), seed=1)
        for i in range(5):
            assert list(sim.map("add", [i], [1], width=8)) == [i + 1]
        assert sim.n_issued == 20           # 3 announces + 1 add, each
        assert len(sim.issued) == 6
        assert sim.issued[-1].op == "add"

    def test_wrong_arity_rejected(self, sim):
        a = sim.array([1], 8)
        with pytest.raises(OperationError):
            sim.run("add", a)

    def test_wrong_operand_width_rejected(self, sim):
        a = sim.array([1], 8)
        b = sim.array([2], 4)
        with pytest.raises(OperationError):
            sim.run("add", a, b)

    def test_mismatched_lengths_rejected(self, sim):
        a = sim.array([1, 2], 8)
        b = sim.array([2], 8)
        with pytest.raises(OperationError):
            sim.run("add", a, b)

    def test_too_many_elements_rejected(self, sim):
        with pytest.raises(OperationError):
            sim.array(np.zeros(sim.module.lanes + 1), 8)

    def test_2d_input_rejected(self, sim):
        with pytest.raises(OperationError):
            sim.array(np.zeros((2, 2)), 8)

    def test_array_free_returns_rows(self, sim):
        before = sim._allocator.free_rows()
        array = sim.array([1, 2, 3], 8)
        assert sim._allocator.free_rows() == before - 8
        array.free()
        array.free()  # idempotent
        assert sim._allocator.free_rows() == before

    def test_signed_array_roundtrip(self, sim):
        array = sim.array([-5, 7, -1], 8, signed=True)
        assert list(array.to_numpy()) == [-5, 7, -1]

    def test_repr_mentions_layout(self, sim):
        array = sim.array([1], 8)
        assert "rows" in repr(array)

    def test_latency_energy_helpers(self, sim):
        a = sim.array([1, 2], 8)
        b = sim.array([3, 4], 8)
        sim.run("add", a, b)
        assert sim.last_latency_ns() > 0
        assert sim.last_energy_nj() > 0

    def test_helpers_require_a_run(self):
        fresh = Simdram(SimdramConfig(
            geometry=DramGeometry.sim_small(cols=8, data_rows=64)))
        with pytest.raises(OperationError):
            fresh.last_latency_ns()


class TestUserDefinedOperation:
    """The paper's flexibility claim: new ops are software-only."""

    def test_register_and_run_custom_operation(self, sim):
        def build(circuit, operands, style):
            # Hamming similarity bit: XNOR reduction over element bits.
            from repro.logic.circuit import GateType
            same = [circuit.xnor(a_bit, b_bit)
                    for a_bit, b_bit in zip(operands[0], operands[1])]
            return [circuit.reduce(GateType.AND, same)]

        def golden(inputs, width):
            return (inputs[0] == inputs[1]).astype(np.int64)

        if "hamming_eq" not in CATALOG:
            sim.register_operation("hamming_eq", 2, build, golden,
                                   out_width=lambda w: 1)
        a = sim.array([5, 9, 200], 8)
        b = sim.array([5, 9, 201], 8)
        out = sim.run("hamming_eq", a, b)
        assert list(out.to_numpy()) == [1, 1, 0]

    def test_custom_operation_gets_opcode(self, sim):
        from repro.isa.instructions import OPCODES
        if "hamming_eq" in CATALOG:
            assert "hamming_eq" in OPCODES
