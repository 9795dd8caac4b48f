"""Tests for the bbop ISA extension."""

import struct

import numpy as np
import pytest

from repro.core import expr, framework
from repro.core.framework import Simdram, SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.errors import IsaError
from repro.isa.instructions import (
    OPCODES,
    BbopInstruction,
    BbopKind,
    bbop,
    bbop_trsp_init,
    register_opcode,
    round_trip,
)


class TestEncoding:
    def test_roundtrip_binary(self):
        instr = bbop("add", dst=100, srcs=[10, 20], n_elements=4096,
                     element_width=32)
        raw = instr.encode()
        assert len(raw) == 32
        assert BbopInstruction.decode(raw) == instr

    def test_roundtrip_ternary(self):
        instr = bbop("if_else", dst=5, srcs=[1, 2, 3], n_elements=7,
                     element_width=8)
        assert BbopInstruction.decode(instr.encode()) == instr
        assert instr.kind is BbopKind.TERNARY

    def test_roundtrip_large_element_count(self):
        instr = bbop("add", dst=0, srcs=[1, 2], n_elements=100_000_000,
                     element_width=8)
        assert BbopInstruction.decode(instr.encode()).n_elements == \
            100_000_000

    def test_trsp_init(self):
        instr = bbop_trsp_init(base=64, n_elements=1024, element_width=16)
        assert instr.kind is BbopKind.TRSP_INIT
        assert BbopInstruction.decode(instr.encode()) == instr

    def test_wrong_length_rejected(self):
        with pytest.raises(IsaError):
            BbopInstruction.decode(b"\x00" * 7)

    def test_unknown_opcode_rejected(self):
        # Fused kernels register opcodes for the rest of the process, so
        # no fixed code is known to be free: take one nothing holds.
        used = set(OPCODES.values())
        free = next(code for code in range(1 << 16) if code not in used)
        raw = bytearray(bbop("add", 0, [1, 2], 1, 8).encode())
        struct.pack_into("<H", raw, 0, free)
        with pytest.raises(IsaError, match=f"unknown opcode {free}"):
            BbopInstruction.decode(bytes(raw))


class TestValidation:
    def test_unknown_operation_rejected(self):
        with pytest.raises(IsaError):
            BbopInstruction(op="frobnicate", kind=BbopKind.BINARY,
                            element_width=8, dst=0, src0=0)

    def test_width_bounds(self):
        with pytest.raises(IsaError):
            bbop("add", 0, [1, 2], 1, element_width=0)
        with pytest.raises(IsaError):
            bbop("add", 0, [1, 2], 1, element_width=65)

    def test_negative_address_rejected(self):
        with pytest.raises(IsaError):
            BbopInstruction(op="add", kind=BbopKind.BINARY,
                            element_width=8, dst=-1, src0=0)

    def test_source_count_bounds(self):
        with pytest.raises(IsaError):
            bbop("add", 0, [], 1, 8)
        with pytest.raises(IsaError):
            bbop("add", 0, [1, 2, 3, 4], 1, 8)


class TestOpcodes:
    def test_paper_operations_have_opcodes(self):
        for name in ("add", "mul", "div", "if_else", "bitcount",
                     "xor_red", "trsp_init"):
            assert name in OPCODES

    def test_register_opcode_idempotent(self):
        first = register_opcode("my_custom_op_test")
        second = register_opcode("my_custom_op_test")
        assert first == second

    def test_registered_opcode_decodes(self):
        register_opcode("my_decodable_op")
        instr = BbopInstruction(op="my_decodable_op", kind=BbopKind.UNARY,
                                element_width=8, dst=1, src0=2,
                                n_elements=3)
        assert BbopInstruction.decode(instr.encode()).op == \
            "my_decodable_op"

    def test_opcodes_unique(self):
        codes = list(OPCODES.values())
        assert len(codes) == len(set(codes))


class TestRoundTripMemo:
    """The encode -> decode round trip is memoized per instruction."""

    @staticmethod
    def drive(sim: Simdram) -> None:
        """A mixed sequence of resident runs and host-vector maps."""
        rng = np.random.default_rng(3)
        a = sim.array(rng.integers(0, 256, 10), 8)
        b = sim.array(rng.integers(0, 256, 10), 8)
        for op_name in ("add", "sub", "add"):
            sim.run(op_name, a, b).free()
        for n in (5, 40, 5):   # 40 > 32 lanes: two batches
            host = rng.integers(0, 256, n)
            sim.map("max", host, host)
        sim.map_expr(expr.inp("x") + 5, {"x": np.arange(7)})
        sim.run("mul", a, b)

    @staticmethod
    def fresh() -> Simdram:
        return Simdram(SimdramConfig(
            geometry=DramGeometry.sim_small(cols=16, data_rows=128)))

    def test_issued_log_matches_unmemoized_round_trip(self, monkeypatch):
        memoized = self.fresh()
        hits = round_trip.cache_info().hits
        self.drive(memoized)
        assert round_trip.cache_info().hits > hits
        monkeypatch.setattr(
            framework, "round_trip",
            lambda build, *args: BbopInstruction.decode(
                build(*args).encode()))
        plain = self.fresh()
        self.drive(plain)
        assert list(memoized.issued) == list(plain.issued)
        assert memoized.n_issued == plain.n_issued == len(plain.issued)

    @pytest.mark.parametrize("args", [
        (bbop, "add", 0, (1, 2), 4, 65),
        (bbop, "no_such_bbop_op", 0, (1, 2), 4, 8),
        (bbop_trsp_init, 0, 4, 0),
    ])
    def test_invalid_instruction_raises_every_time(self, args):
        for _ in range(3):
            with pytest.raises(IsaError):
                round_trip(*args)

    def test_opcode_registered_after_a_failure_issues(self):
        args = (bbop, "late_registered_op", 3, (1,), 8, 8)
        with pytest.raises(IsaError):
            round_trip(*args)
        register_opcode("late_registered_op")
        assert round_trip(*args) == bbop("late_registered_op", 3, [1], 8, 8)

    def test_user_opcode_issues_after_the_cache_is_warm(self):
        sim = self.fresh()
        self.drive(sim)
        root = (expr.inp("x") + 91) * 3   # compiles to a new opcode
        host = np.arange(6)
        assert np.array_equal(sim.map_expr(root, {"x": host}),
                              ((host + 91) * 3) % 256)
        kernel = sim.compile(root, 8)
        assert kernel.op_name in OPCODES
        assert sim.issued[-1].op == kernel.op_name
        opcode = int.from_bytes(sim.issued[-1].encode()[:2], "little")
        assert opcode == OPCODES[kernel.op_name]
