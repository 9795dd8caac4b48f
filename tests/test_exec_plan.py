"""Differential tests: the plan-executing engine must be bit-identical
to the per-subarray slow path.

Every catalog operation × element width {4, 8, 16} × both backends ×
every plan-executing engine (``compiled``) is run on
identically-seeded systems against the per-bank baseline; outputs, aggregate
:class:`CommandStats`, per-bank stats and the complete DRAM cell state
(data rows *and* B-group planes) must match exactly.  The remaining
tests cover plan compilation/caching, the trace/fault forced fallback,
and allocator balance on failing executions.
"""

import dataclasses
import re

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
from repro.exec import control_unit
from repro.exec.control_unit import ControlUnit
from repro.exec.engines import _rows_index, get_engine, list_engines
from repro.exec.layout import RowLayout
from repro.exec.plan import StepKind, compile_plan
from repro.uprog.program import MicroProgram, OperandSpec
from repro.uprog.uops import Space, UAap, UAp, URow

GEOMETRY = DramGeometry.sim_small(cols=16, data_rows=768, banks=2)
WIDTHS = (4, 8, 16)
BACKENDS = ("simdram", "ambit")
#: Every registered plan-based engine that can run in this process —
#: each is sweep-verified against the per-bank baseline.
FAST_ENGINES = tuple(name for name in list_engines()
                     if get_engine(name).executes_plans)

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


def _run_one(op_name: str, width: int, backend: str, engine: str,
             split: bool = False):
    """Execute one operation end to end; return everything observable.

    ``split`` leaves a freed one-row spacer after the first operand, so
    the live-in rows are not one run.
    """
    sim = _sim_with_program(op_name, width, backend)
    spec = get_operation(op_name)
    rng = np.random.default_rng(202)
    operands, spacer = [], None
    for in_width in spec.in_widths(width):
        operands.append(sim.array(
            edge_and_random_values(rng, in_width, sim.module.lanes)
            % (1 << in_width), in_width))
        if split and spacer is None:
            spacer = sim._allocator.alloc(1)
    if spacer is not None:
        sim._allocator.free(spacer)
    out = sim.run(op_name, *operands, backend=backend, engine=engine)
    return {
        "output": out.to_numpy(),
        "run_stats": sim.last_stats,
        "bank_stats": [bank.subarray.stats for bank in sim.module.banks],
        "data_state": sim.module.vector_state()[0].copy(),
        "b_state": sim.module.vector_state()[1].copy(),
        # The plan this run replayed: its program's most recently used
        # (the kernel, and so its plans, is shared across systems).
        "sources": [plan.executor.__source__
                    for plan in list(sim._last_program.plans.values())[-1:]
                    if engine == "compiled"],
    }


#: Per-bank baselines, computed once per (op, width, backend, split)
#: and compared against every fast engine.
_BASELINES: dict[tuple[str, int, str, bool], dict] = {}


def _baseline(op_name: str, width: int, backend: str,
              split: bool = False) -> dict:
    key = (op_name, width, backend, split)
    result = _BASELINES.get(key)
    if result is None:
        result = _BASELINES[key] = _run_one(op_name, width, backend,
                                            "per_bank", split)
    return result


@pytest.mark.parametrize("engine", FAST_ENGINES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("op_name", sorted(CATALOG))
def test_engines_bit_identical(op_name, width, backend, engine):
    _assert_identical(_run_one(op_name, width, backend, engine),
                      _baseline(op_name, width, backend))


def _assert_identical(fast: dict, slow: dict) -> None:
    assert np.array_equal(fast["output"], slow["output"])
    assert fast["run_stats"] == slow["run_stats"]
    assert fast["bank_stats"] == slow["bank_stats"]
    assert np.array_equal(fast["data_state"], slow["data_state"])
    assert np.array_equal(fast["b_state"], slow["b_state"])


@pytest.mark.parametrize("engine", FAST_ENGINES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("op_name", ["add", "mul", "ge", "if_else"])
def test_engines_bit_identical_split_live_ins(op_name, backend, engine):
    """The same identity when the operands' rows are not one run: the
    compiled executor gathers its live-in rows instead of slicing."""
    fast = _run_one(op_name, 8, backend, engine, split=True)
    _assert_identical(fast, _baseline(op_name, 8, backend, split=True))
    assert len(fast["sources"]) == (engine == "compiled")
    for source in fast["sources"]:
        loads = re.findall(r"_load_rows\(data, (\([^)]*\))\)", source)
        assert isinstance(_rows_index(eval(loads[0])), tuple)


@pytest.mark.parametrize("op_name", sorted(CATALOG))
def test_compiled_matches_golden_model(op_name):
    """The fast path agrees with the operation's golden model, not just
    with the slow path."""
    sim = _sim_with_program(op_name, 8, "simdram")
    spec = get_operation(op_name)
    rng = np.random.default_rng(7)
    raw = [edge_and_random_values(rng, in_width, sim.module.lanes)
           % (1 << in_width) for in_width in spec.in_widths(8)]
    operands = [sim.array(values, in_width)
                for values, in_width in zip(raw, spec.in_widths(8))]
    out = sim.run(op_name, *operands, engine="compiled")
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
        executor = ControlUnit().executor_for(plan)
        with pytest.raises(CommandError):
            executor(data, b_planes)
        # When the two reads agree, the same plan executes fine.
        for bank in module.banks:
            bank.subarray.poke(b_row(6), ~ones)
        executor(data, b_planes)
        for bank in module.banks:
            assert bank.subarray.peek(data_row(1)).all()

    def test_failing_pair_leaves_the_per_bank_state_in_every_bank(self):
        """A pair check that raises mid-program leaves what the steps
        before it wrote, and only that — the compiled executor stores
        its written rows at the raise site.  Every bank then holds what
        a per-bank replay that raises in that bank leaves there."""
        layout = RowLayout({Space.INPUT0: 0, Space.OUTPUT: 1})
        program = MicroProgram(
            op_name="t3", backend="simdram", element_width=2,
            inputs=[OperandSpec(Space.INPUT0, 1)],
            output=OperandSpec(Space.OUTPUT, 2),
            uops=[UAap(URow(Space.INPUT0, 0), URow(Space.OUTPUT, 0)),
                  UAap(URow(Space.INPUT0, 0), URow(Space.BGROUP, 0)),
                  # T1 is read before any step writes it.
                  UAap(URow(Space.BGROUP, 1), URow(Space.BGROUP, 2)),
                  # DCC0N + T0: T0 holds the input, DCC0N its negation.
                  UAap(URow(Space.BGROUP, 8), URow(Space.OUTPUT, 1))])
        plan = compile_plan(program, layout, GEOMETRY)
        ones = np.ones(GEOMETRY.cols, dtype=bool)
        states = []
        for compiled in (True, False):
            module = DramModule(GEOMETRY, seed=5)
            for bank in module.banks:
                bank.subarray.poke(data_row(0), ones)
                bank.subarray.poke(b_row(6), ones)   # DCC0 = 1
            data, b_planes = module.vector_state()
            before = data.copy(), b_planes.copy()
            if compiled:
                with pytest.raises(CommandError):
                    ControlUnit().executor_for(plan)(data, b_planes)
            else:
                for bank in module.banks:
                    with pytest.raises(CommandError):
                        ControlUnit().execute(program, bank.subarray, layout)
            assert np.array_equal(data[1], data[0])      # output row 0
            assert np.array_equal(b_planes[0], data[0])  # T0
            assert np.array_equal(b_planes[2], before[1][1])  # T2 = T1
            assert np.array_equal(data[2], before[0][2])  # not written
            states.append((data.copy(), b_planes.copy()))
        (data, b_planes), (data_p, b_planes_p) = states
        assert np.array_equal(data, data_p)
        assert np.array_equal(b_planes, b_planes_p)

    def _compiled_source(self, op_name: str, width: int) -> str:
        from repro.core.compiler import compile_operation
        program = compile_operation(get_operation(op_name), width)
        bases = {Space.INPUT0: 0, Space.INPUT1: width,
                 Space.OUTPUT: 2 * width, Space.TEMP: 4 * width}
        plan = compile_plan(program, RowLayout(bases),
                            dataclasses.replace(GEOMETRY, banks=16))
        return ControlUnit().executor_for(plan).__source__

    def test_compiled_loads_only_live_in_rows(self):
        """``add@8`` reads its 16 operand rows and no B plane before it
        writes it: the executor loads exactly those rows."""
        source = self._compiled_source("add", 8)
        loads = re.findall(r"_load_rows\(data, (\([^)]*\))\)", source)
        assert [eval(rows) for rows in loads] == [tuple(range(16))]
        assert "_load_rows(b_planes" not in source
        # One run of rows: loaded through a slice, not a gather.
        assert _rows_index(tuple(range(16))) == slice(0, 16)

    def test_compiled_stores_only_written_planes(self):
        """``ge@16`` writes 3 of the 6 B planes; only those are stored."""
        source = self._compiled_source("ge", 16)
        stores = re.findall(r"^    _store_rows\(b_planes, (\([^)]*\)),",
                            source, re.MULTILINE)
        assert len(stores) == 1 and len(eval(stores[0])) == 3


def _b(index: int) -> URow:
    return URow(Space.BGROUP, index)


def _in0(row: int) -> URow:
    return URow(Space.INPUT0, row)


def _in1(row: int) -> URow:
    return URow(Space.INPUT1, row)


def _out(row: int) -> URow:
    return URow(Space.OUTPUT, row)


C0, C1 = URow(Space.CTRL, 0), URow(Space.CTRL, 1)


class TestValueNumberedCodegen:
    """The compiled executor is value numbering over the plan: an AAP
    only renames, a TRA is the one step that computes, folded by exact
    identities, and locals are recycled once their value is dead.
    Every program here starts from one random power-up state on both
    engines and must end in the same state."""

    LAYOUT = RowLayout({Space.INPUT0: 0, Space.INPUT1: 4,
                        Space.OUTPUT: 8})

    def _compiled_source(self, uops) -> str:
        """Run ``uops`` on ``per_bank`` and ``compiled`` from the same
        random power-up state; assert equal post-states; return the
        compiled executor's source."""
        program = MicroProgram(
            op_name="vn", backend="simdram", element_width=4,
            inputs=[OperandSpec(Space.INPUT0, 4),
                    OperandSpec(Space.INPUT1, 4)],
            output=OperandSpec(Space.OUTPUT, 4), uops=uops)
        plan = compile_plan(program, self.LAYOUT, GEOMETRY)
        reference = DramModule(GEOMETRY, seed=23)
        for bank in reference.banks:
            ControlUnit().execute(program, bank.subarray, self.LAYOUT)
        module = DramModule(GEOMETRY, seed=23)
        data, b_planes = module.vector_state()
        executor = ControlUnit().executor_for(plan)
        executor(data, b_planes)
        data_p, b_planes_p = reference.vector_state()
        assert np.array_equal(data, data_p)
        assert np.array_equal(b_planes, b_planes_p)
        return executor.__source__

    @staticmethod
    def _expressions(source: str) -> list[str]:
        """The right-hand sides of the executor body's assignments."""
        return re.findall(r"^    (?!_ones )\w+ = (.*)$", source,
                          re.MULTILINE)

    def test_constant_operand_folds_to_and_or(self):
        source = self._compiled_source([
            UAap(C0, _b(0)), UAap(_in0(0), _b(1)), UAap(_in1(0), _b(2)),
            UAp(_b(12)),                      # MAJ(C0, x, y) = x & y
            UAap(_b(0), _out(0)),
            UAap(C1, _b(0)), UAap(_in0(1), _b(1)), UAap(_in1(1), _b(2)),
            UAp(_b(12)),                      # MAJ(C1, x, y) = x | y
            UAap(_b(0), _out(1))])
        expressions = self._expressions(source)
        assert len(expressions) == 2
        assert "&" in expressions[0] and "|" in expressions[1]

    def test_one_value_on_two_wordlines_is_the_majority(self):
        source = self._compiled_source([
            UAap(_in0(0), _b(10)),            # x on T2 and T3
            UAap(_in1(0), _b(1)),
            UAp(_b(13)),                      # MAJ(y, x, x) = x
            UAap(_b(1), _out(0))])
        assert self._expressions(source) == []

    def test_value_beside_its_dcc_complement_cancels(self):
        source = self._compiled_source([
            UAap(_in0(0), _b(6)),             # DCC0 = x: DCC0N reads ~x
            UAap(_in0(0), _b(1)), UAap(_in1(0), _b(2)),
            UAp(_b(14)),                      # MAJ(~x, x, y) = y
            UAap(_b(1), _out(0))])
        assert self._expressions(source) == []

    def test_all_complemented_triple_flips_by_duality(self):
        source = self._compiled_source([
            UAap(_in0(0), _b(6)),             # DCC0N reads ~x
            UAap(_in1(0), _b(7)), UAap(_b(5), _b(1)),   # T1 = ~y
            UAap(_in1(1), _b(7)), UAap(_b(5), _b(2)),   # T2 = ~z
            UAp(_b(14)),                      # ~MAJ(x, y, z)
            UAap(_b(1), _out(0))])
        expressions = self._expressions(source)
        assert len(expressions) == 1 and "_ones" not in expressions[0]

    def test_complement_is_computed_once_per_value(self):
        uops = []
        for row in range(2):                  # MAJ(~x, y_row, z_row)
            uops += [UAap(_in0(0), _b(6)), UAap(_in1(row), _b(1)),
                     UAap(_in1(row + 2), _b(2)), UAp(_b(14)),
                     UAap(_b(1), _out(row))]
        expressions = self._expressions(self._compiled_source(uops))
        assert len(expressions) == 3
        assert sum("_ones" in text for text in expressions) == 1

    def test_copies_fills_and_dcc_moves_emit_no_code(self):
        """An AAP is a rename: a program of only data copies, constant
        fills and B-group moves through both DCC ports computes
        nothing between its load and its stores."""
        source = self._compiled_source([
            UAap(_in0(0), _out(0)), UAap(C1, _out(1)), UAap(C0, _b(3)),
            UAap(_in0(1), _b(4)), UAap(_b(6), _out(2)),    # ~x via DCC0N
            UAap(_in1(0), _b(7)), UAap(_b(5), _b(0)),      # ~y via DCC1N
            UAap(_b(0), _out(3)), UAap(C1, _b(8)), UAap(_b(3), _b(11))])
        lines = source.splitlines()
        load = next(i for i, line in enumerate(lines)
                    if "_load_rows(" in line)
        assert "_store_rows(" in lines[load + 1]
        assert all("_store_rows(" in line for line in lines[load + 1:])

    def test_same_value_pair_check_is_dropped(self):
        """A pair activation over one value on both wordlines can never
        fire: no check, no raise site."""
        source = self._compiled_source([
            UAap(_in0(0), _b(10)),            # x on T2 and T3
            UAap(_b(10), _out(0))])
        assert "raise" not in source

    def test_div16_recycles_locals(self):
        """``div@16`` is a 2 287-step plan; its values share 75 locals,
        fewer than the rows and planes it touches."""
        from repro.core.compiler import compile_operation
        program = compile_operation(get_operation("div"), 16)
        plan = compile_plan(
            program, RowLayout({Space.INPUT0: 0, Space.INPUT1: 16,
                                Space.OUTPUT: 32, Space.TEMP: 64}),
            GEOMETRY)
        source = ControlUnit().executor_for(plan).__source__
        rows, planes = set(), set()
        for step in plan.steps:
            for operand in (step.src, step.dst):
                if isinstance(operand, bool) or operand is None:
                    continue
                if isinstance(operand, int):
                    rows.add(operand)
                elif isinstance(operand[0], int):
                    planes.add(operand[0])
                else:
                    planes.update(plane for plane, _ in operand)
        n_locals = len(set(re.findall(r"\b_v\d+\b", source)))
        assert n_locals == 75
        assert n_locals <= len(rows) + len(planes)


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

    def test_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(control_unit, "PLANS_PER_PROGRAM", 2)
        sim = _make_sim()
        a = sim.array([1], width=8)
        b = sim.array([2], width=8)
        for _ in range(3):
            c = sim.run("add", a, b)
            d = sim.run("add", c, b)  # different layout each iteration
            a.free()
            a, c = c, None
            d.free()
        assert len(sim.compile("add", 8).program.plans) <= 2

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

    def test_explicit_compiled_on_traced_module_rejected(self):
        sim = Simdram(SimdramConfig(geometry=GEOMETRY), trace=True, seed=11)
        a = sim.array([1, 2], width=4)
        b = sim.array([3, 4], width=4)
        with pytest.raises(ExecutionError):
            sim.run("add", a, b, engine="compiled")

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

    def test_traced_compiled_request_releases_rows(self):
        """Same property through a real (non-monkeypatched) failure."""
        sim = Simdram(SimdramConfig(geometry=GEOMETRY), trace=True, seed=11)
        sim.compile("mul", 8)
        a = sim.array([1, 2], width=8)
        b = sim.array([3, 4], width=8)
        free_before = sim._allocator.free_rows()
        with pytest.raises(ExecutionError):
            sim.run("mul", a, b, engine="compiled")
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
