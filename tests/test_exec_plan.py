"""Differential tests: every registered execution engine must be
bit-identical to the per-subarray slow path.

Every catalog operation × element width {4, 8, 16} × both backends ×
every available plan-based engine (vectorized, compiled) is run on
identically-seeded systems against the per-bank baseline; outputs, aggregate
:class:`CommandStats`, per-bank stats and the complete DRAM cell state
(data rows *and* B-group planes) must match exactly.  The remaining
tests cover plan compilation/caching, the trace/fault forced fallback,
and allocator balance on failing executions.
"""

import dataclasses

import numpy as np
import pytest

from tests.conftest import edge_and_random_values
from repro.core.framework import Simdram, SimdramConfig
from repro.core.fuse import Kernel
from repro.core.operations import CATALOG, get_operation
from repro.dram.bank import DramModule
from repro.dram.geometry import DramGeometry
from repro.dram.rows import b_row, data_row
from repro.errors import CommandError, ExecutionError
from repro.exec.engines import list_engines
from repro.exec.layout import RowLayout
from repro.exec.plan import StepKind, compile_plan
from repro.uprog.program import MicroProgram, OperandSpec
from repro.uprog.uops import Space, UAap, UAp, URow

GEOMETRY = DramGeometry.sim_small(cols=16, data_rows=768, banks=2)
WIDTHS = (4, 8, 16)
BACKENDS = ("simdram", "ambit")
#: Every registered plan-based engine that can run in this process —
#: each is sweep-verified against the per-bank baseline.
FAST_ENGINES = tuple(name for name in list_engines(available_only=True)
                     if name != "per_bank")

#: Compiled kernels shared across both engines' systems (compilation
#: is deterministic and by far the most expensive part of the sweep).
_KERNELS: dict[tuple[str, int, str], Kernel] = {}


def _make_sim() -> Simdram:
    return Simdram(SimdramConfig(geometry=GEOMETRY), seed=11)


def _sim_with_program(op_name: str, width: int, backend: str) -> Simdram:
    """A fresh, deterministically-seeded system with the (shared)
    compiled µProgram pre-installed."""
    sim = _make_sim()
    key = (op_name, width, backend)
    kernel = _KERNELS.get(key)
    if kernel is None:
        _KERNELS[key] = sim.compile(op_name, width, backend)
    else:
        sim.adopt(kernel)
    return sim


def _run_one(op_name: str, width: int, backend: str, engine: str):
    """Execute one operation end to end; return everything observable."""
    sim = _sim_with_program(op_name, width, backend)
    spec = get_operation(op_name)
    rng = np.random.default_rng(202)
    operands = [
        sim.array(edge_and_random_values(rng, in_width, sim.module.lanes)
                  % (1 << in_width), in_width)
        for in_width in spec.in_widths(width)
    ]
    out = sim.run(op_name, *operands, backend=backend, engine=engine)
    return {
        "output": out.to_numpy(),
        "run_stats": sim.last_stats,
        "bank_stats": [bank.subarray.stats for bank in sim.module.banks],
        "data_state": sim.module.vector_state()[0].copy(),
        "b_state": sim.module.vector_state()[1].copy(),
    }


#: Per-bank baselines, computed once per (op, width, backend) and
#: compared against every fast engine.
_BASELINES: dict[tuple[str, int, str], dict] = {}


def _baseline(op_name: str, width: int, backend: str) -> dict:
    key = (op_name, width, backend)
    result = _BASELINES.get(key)
    if result is None:
        result = _BASELINES[key] = _run_one(op_name, width, backend,
                                            "per_bank")
    return result


@pytest.mark.parametrize("engine", FAST_ENGINES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("op_name", sorted(CATALOG))
def test_engines_bit_identical(op_name, width, backend, engine):
    fast = _run_one(op_name, width, backend, engine)
    slow = _baseline(op_name, width, backend)
    assert np.array_equal(fast["output"], slow["output"])
    assert fast["run_stats"] == slow["run_stats"]
    assert fast["bank_stats"] == slow["bank_stats"]
    assert np.array_equal(fast["data_state"], slow["data_state"])
    assert np.array_equal(fast["b_state"], slow["b_state"])


@pytest.mark.parametrize("op_name", sorted(CATALOG))
def test_vectorized_matches_golden_model(op_name):
    """The fast path agrees with the operation's golden model, not just
    with the slow path."""
    sim = _sim_with_program(op_name, 8, "simdram")
    spec = get_operation(op_name)
    rng = np.random.default_rng(7)
    raw = [edge_and_random_values(rng, in_width, sim.module.lanes)
           % (1 << in_width) for in_width in spec.in_widths(8)]
    operands = [sim.array(values, in_width)
                for values, in_width in zip(raw, spec.in_widths(8))]
    out = sim.run(op_name, *operands, engine="vectorized")
    golden = spec.golden(raw, 8)
    if spec.signed:
        from repro.util.bitops import to_signed
        golden = to_signed(np.asarray(golden), spec.out_width(8))
    assert np.array_equal(out.to_numpy(), golden)


class TestPlanCompilation:
    def _program(self):
        uops = [
            UAap(URow(Space.INPUT0, 0), URow(Space.BGROUP, 0)),
            UAap(URow(Space.INPUT1, 0), URow(Space.BGROUP, 1)),
            UAap(URow(Space.CTRL, 0), URow(Space.BGROUP, 2)),
            UAp(URow(Space.BGROUP, 12)),
            UAap(URow(Space.BGROUP, 0), URow(Space.OUTPUT, 0)),
        ]
        return MicroProgram(
            op_name="and1", backend="simdram", element_width=1,
            inputs=[OperandSpec(Space.INPUT0, 1),
                    OperandSpec(Space.INPUT1, 1)],
            output=OperandSpec(Space.OUTPUT, 1), uops=uops)

    def test_steps_pre_classified(self):
        layout = RowLayout({Space.INPUT0: 0, Space.INPUT1: 1,
                            Space.OUTPUT: 2})
        plan = compile_plan(self._program(), layout, GEOMETRY)
        kinds = [step.kind for step in plan.steps]
        assert kinds == [StepKind.DATA_TO_B, StepKind.DATA_TO_B,
                         StepKind.FILL_B, StepKind.TRA, StepKind.B_TO_DATA]
        assert plan.n_steps == 5

    def test_per_bank_stats_match_program_stats(self):
        layout = RowLayout({Space.INPUT0: 0, Space.INPUT1: 1,
                            Space.OUTPUT: 2})
        program = self._program()
        plan = compile_plan(program, layout, GEOMETRY)
        assert plan.per_bank_stats == program.stats()

    @pytest.mark.parametrize("op_name, width", [("mul", 8), ("div", 8),
                                                ("if_else", 16)])
    def test_memoized_steps_equal_classifying_every_uop(self, op_name,
                                                        width):
        """compile_plan memoizes row resolution and classification per
        call; the plan must be what doing both for every µOp gives."""
        from repro.core.compiler import compile_operation
        from repro.exec.plan import _classify
        program = compile_operation(get_operation(op_name), width)
        layout = RowLayout({Space.INPUT0: 0, Space.INPUT1: 40,
                            Space.INPUT2: 80, Space.OUTPUT: 120,
                            Space.TEMP: 160})
        geometry = DramGeometry.sim_small(cols=8, data_rows=400)
        plan = compile_plan(program, layout, geometry)
        expected = [
            _classify(layout.resolve(uop.addr), None)
            if isinstance(uop, UAp)
            else _classify(layout.resolve(uop.src), layout.resolve(uop.dst))
            for uop in program.uops]
        assert plan.steps == expected
        assert len(set(map(id, plan.steps))) < len(plan.steps)  # shared
        assert plan.per_bank_stats == program.stats()

    def test_layout_violation_rejected_at_compile(self):
        from repro.errors import AllocationError
        layout = RowLayout({Space.INPUT0: 0, Space.INPUT1: 1,
                            Space.OUTPUT: 1})  # output overlaps input1
        with pytest.raises(AllocationError):
            compile_plan(self._program(), layout, GEOMETRY)

    def test_out_of_range_data_row_rejected_at_compile(self):
        from repro.errors import AllocationError
        layout = RowLayout({Space.INPUT0: 0, Space.INPUT1: 1,
                            Space.OUTPUT: GEOMETRY.data_rows + 5})
        with pytest.raises(AllocationError):
            compile_plan(self._program(), layout, GEOMETRY)

    def test_unequal_pair_activation_rejected(self):
        """A double-wordline activation over disagreeing cells is
        nondeterministic; the plan raises like the subarray does."""
        layout = RowLayout({Space.INPUT0: 0, Space.OUTPUT: 1})
        pair = MicroProgram(
            op_name="t2", backend="simdram", element_width=1,
            inputs=[OperandSpec(Space.INPUT0, 1)],
            output=OperandSpec(Space.OUTPUT, 1),
            # B address 8 raises DCC0N + T0 together.
            uops=[UAap(URow(Space.BGROUP, 8), URow(Space.OUTPUT, 0))])
        plan = compile_plan(pair, layout, GEOMETRY)
        assert plan.steps[0].kind == StepKind.PAIR_TO_DATA
        module = DramModule(GEOMETRY)
        data, b_planes = module.vector_state()
        ones = np.ones(GEOMETRY.cols, dtype=bool)
        for bank in module.banks:
            bank.subarray.poke(b_row(0), ones)  # T0 reads 1 ...
            # ... while DCC0 holds 1, so DCC0N (negated port) reads 0
            bank.subarray.poke(b_row(6), ones)
        with pytest.raises(CommandError):
            plan.execute(data, b_planes)
        # When the two reads agree, the same plan executes fine.
        for bank in module.banks:
            bank.subarray.poke(b_row(6), ~ones)
        plan.execute(data, b_planes)
        for bank in module.banks:
            assert bank.subarray.peek(data_row(1)).all()


class TestPlanCache:
    def test_cache_hit_on_repeated_layout(self):
        sim = _make_sim()
        a = sim.array([1, 2, 3], width=8)
        b = sim.array([4, 5, 6], width=8)
        sim.run("add", a, b).free()
        misses = sim.control.plan_cache_misses
        sim.run("add", a, b).free()
        sim.run("add", a, b).free()
        assert sim.control.plan_cache_misses == misses
        assert sim.control.plan_cache_hits >= 2

    def test_map_batches_share_one_plan(self):
        sim = _make_sim()
        n = sim.module.lanes * 3  # three batches
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, n)
        b = rng.integers(0, 256, n)
        got = sim.map("add", a, b, width=8)
        assert np.array_equal(got, (a + b) % 256)
        assert sim.control.plan_cache_misses == 1
        assert sim.control.plan_cache_hits == 2

    def test_cache_bounded(self):
        sim = _make_sim()
        sim.control.plan_cache_size = 2
        a = sim.array([1], width=8)
        b = sim.array([2], width=8)
        for _ in range(3):
            c = sim.run("add", a, b)
            d = sim.run("add", c, b)  # different layout each iteration
            a.free()
            a, c = c, None
            d.free()
        assert len(sim.control._plan_cache) <= 2

    def test_reinstalled_program_does_not_hit_stale_plan(self):
        """Same ProgramKey, different contents -> different plan."""
        sim = _make_sim()
        a = sim.array([3, 0, 1], width=8)
        b = sim.array([1, 2, 3], width=8)
        out = sim.run("add", a, b)
        assert np.array_equal(out.to_numpy(), [4, 2, 4])
        # Replace the installed add-µProgram with sub's command stream
        # under add's key (contents differ, key identical).
        sub = sim.compile("sub", 8).program
        forged = MicroProgram(
            op_name="add", backend=sub.backend, element_width=8,
            inputs=sub.inputs, output=sub.output, uops=sub.uops,
            n_temp_rows=sub.n_temp_rows)
        sim.adopt(dataclasses.replace(sim.compile("add", 8),
                                      program=forged))
        out2 = sim.run("add", a, b)
        assert np.array_equal(out2.to_numpy(), [2, 254, 254])  # a - b


class TestEngineSelection:
    def test_tracing_forces_per_bank_path(self):
        sim = Simdram(SimdramConfig(geometry=GEOMETRY), trace=True, seed=11)
        assert not sim.module.supports_vectorized()
        a = sim.array([1, 2], width=4)
        b = sim.array([3, 4], width=4)
        out = sim.run("add", a, b)  # auto -> per-bank
        assert np.array_equal(out.to_numpy(), [4, 6])
        assert len(sim.module.banks[0].subarray.trace) > 0
        assert sim.control.plan_cache_misses == 0  # fast path never ran

    def test_explicit_vectorized_on_traced_module_rejected(self):
        sim = Simdram(SimdramConfig(geometry=GEOMETRY), trace=True, seed=11)
        a = sim.array([1, 2], width=4)
        b = sim.array([3, 4], width=4)
        with pytest.raises(ExecutionError):
            sim.run("add", a, b, engine="vectorized")

    def test_fault_injection_forces_per_bank_path(self):
        sim = _make_sim()
        sim.module.banks[0].subarray.tra_fault_rate = 0.5
        assert not sim.module.supports_vectorized()

    def test_detached_subarray_forces_per_bank_path(self):
        from repro.dram.subarray import Subarray
        sim = _make_sim()
        sim.module.banks[1].subarray = Subarray(GEOMETRY)
        assert not sim.module.supports_vectorized()

    def test_unknown_engine_rejected(self):
        sim = _make_sim()
        a = sim.array([1], width=4)
        b = sim.array([2], width=4)
        with pytest.raises(ExecutionError):
            sim.run("add", a, b, engine="warp")

    def test_vector_state_aliases_subarrays(self):
        """The stacked views and the per-bank subarrays share memory."""
        sim = _make_sim()
        data, b_planes = sim.module.vector_state()
        assert data.dtype == b_planes.dtype == np.uint8
        assert data.shape == (GEOMETRY.data_rows, GEOMETRY.banks,
                              GEOMETRY.row_bytes)
        assert b_planes.shape == (6, GEOMETRY.banks, GEOMETRY.row_bytes)
        sim.module.banks[1].subarray.poke(
            data_row(7), np.ones(GEOMETRY.cols, dtype=bool))
        assert (data[7, 1] == 0xFF).all()
        data[3, 0] = 0xFF
        assert sim.module.banks[0].subarray.peek(data_row(3)).all()
        sim.module.banks[0].subarray.poke(
            b_row(0), np.ones(GEOMETRY.cols, dtype=bool))
        assert (b_planes[0, 0] == 0xFF).all()


class TestAllocatorBalance:
    def test_failing_run_releases_temp_and_output_rows(self):
        """A raising execution must not leak allocator rows (the
        historical bug: temp_block leaked on every failed run)."""
        sim = _make_sim()
        sim.compile("mul", 8)  # mul needs temp rows; compile up front
        a = sim.array([1, 2, 3], width=8)
        b = sim.array([4, 5, 6], width=8)
        free_before = sim._allocator.free_rows()
        tracked_before = len(sim.tracker)

        def boom(*args, **kwargs):
            raise ExecutionError("injected mid-execution failure")

        original = sim.control.execute_on_module
        sim.control.execute_on_module = boom
        try:
            with pytest.raises(ExecutionError):
                sim.run("mul", a, b)
        finally:
            sim.control.execute_on_module = original
        assert sim._allocator.free_rows() == free_before
        assert len(sim.tracker) == tracked_before

    def test_traced_vectorized_request_releases_rows(self):
        """Same property through a real (non-monkeypatched) failure."""
        sim = Simdram(SimdramConfig(geometry=GEOMETRY), trace=True, seed=11)
        sim.compile("mul", 8)
        a = sim.array([1, 2], width=8)
        b = sim.array([3, 4], width=8)
        free_before = sim._allocator.free_rows()
        with pytest.raises(ExecutionError):
            sim.run("mul", a, b, engine="vectorized")
        assert sim._allocator.free_rows() == free_before

    def test_failing_map_releases_all_blocks(self):
        sim = _make_sim()
        sim.compile("add", 8)
        free_before = sim._allocator.free_rows()
        tracked_before = len(sim.tracker)

        def boom(*args, **kwargs):
            raise ExecutionError("injected mid-map failure")

        original = sim.control.execute_on_module
        sim.control.execute_on_module = boom
        try:
            with pytest.raises(ExecutionError):
                sim.map("add", np.arange(10), np.arange(10), width=8)
        finally:
            sim.control.execute_on_module = original
        assert sim._allocator.free_rows() == free_before
        assert len(sim.tracker) == tracked_before
