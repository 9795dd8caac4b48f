"""Property-based differential suite for fused expression kernels.

Hypothesis generates random expression DAGs (depth <= 4, operations
drawn from the catalog) at widths {4, 8, 16} and checks, for every DAG:

* the fused kernel's output is bit-identical on **both** execution
  engines (vectorized and per-bank);
* both equal the step-by-step ``run()`` pipeline (one catalog µProgram
  per DAG node, intermediates materialized in named row blocks);
* both equal the numpy golden model composed over the DAG;
* the fused plan issues strictly fewer operand-row copies and strictly
  fewer vertical-object announcements (transposition-unit traffic) than
  the unfused pipeline whenever there is anything to fuse (>= 2 ops);
* no row-block leaks: the allocator's free-row count returns to its
  pre-example value.

Deterministic tests pin the PR's acceptance pipeline (mul->add->relu,
8-bit, 16 banks), multi-output stitching, cache identity and the
fused-input ISA limit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hypothesis_profiles import scaled_examples
from repro.core import expr as E
from repro.core.expr import analyze, dag_hash, input_names, n_ops, post_order
from repro.core.framework import Simdram, SimdramConfig
from repro.core.fuse import MAX_FUSED_INPUTS, compile_expr, compile_multi
from repro.core.operations import get_operation
from repro.dram.geometry import DramGeometry
from repro.errors import OperationError
from repro.exec.layout import RowLayout
from repro.isa.instructions import BbopKind
from repro.uprog.uops import INPUT_SPACES, Space
from repro.exec.engines import list_engines

#: Every engine available in this process, per-bank baseline included.
ALL_ENGINES = tuple(list_engines(available_only=True))

WIDTHS = (4, 8, 16)
LEAF_NAMES = ("x", "y", "z")

#: One simulator shared across hypothesis examples so the per-operation
#: compile caches stay warm (examples only pay for the fused compile).
_SHARED_SIM: Simdram | None = None


def shared_sim() -> Simdram:
    global _SHARED_SIM
    if _SHARED_SIM is None:
        _SHARED_SIM = Simdram(SimdramConfig(
            geometry=DramGeometry.sim_small(cols=32, data_rows=768,
                                            banks=2)), seed=11)
    return _SHARED_SIM


# ---------------------------------------------------------------------------
# random DAG strategies (width-legal by construction)
# ---------------------------------------------------------------------------
def w_unary_ops(width: int) -> list[str]:
    return ["abs", "relu"]


def w_binary_ops(width: int) -> list[str]:
    ops = ["add", "sub", "max", "min", "add_sat"]
    if width <= 8:  # the 16-bit multiplier is compile-heavy; keep CI fast
        ops.append("mul")
    return ops


BIT_BINARY_OPS = ("eq", "ne", "gt", "ge", "lt", "le", "gt_u")
BIT_UNARY_OPS = ("and_red", "or_red", "xor_red")


def w_leaf(width: int) -> st.SearchStrategy:
    return st.one_of(
        st.sampled_from(LEAF_NAMES).map(E.inp),
        st.integers(0, (1 << width) - 1).map(E.const),
    )


def w_node(width: int, depth: int,
           leaf_ok: bool = True) -> st.SearchStrategy:
    """Strategy for a width-typed expression of depth <= ``depth``."""
    if depth <= 0:
        return w_leaf(width)
    child = w_node(width, depth - 1)
    options = []
    if leaf_ok:
        options.append(w_leaf(width))
    options.append(st.tuples(
        st.sampled_from(w_unary_ops(width)), child
    ).map(lambda t: E.op(t[0], t[1])))
    options.append(st.tuples(
        st.sampled_from(w_binary_ops(width)), child, child
    ).map(lambda t: E.op(t[0], t[1], t[2])))
    options.append(st.tuples(
        bit_node(width, depth - 1), child, child
    ).map(lambda t: E.op("if_else", t[0], t[1], t[2])))
    return st.one_of(options)


def bit_node(width: int, depth: int) -> st.SearchStrategy:
    """Strategy for a 1-bit-typed expression (comparison/reduction)."""
    child = w_node(width, max(depth - 1, 0))
    return st.one_of(
        st.tuples(st.sampled_from(BIT_BINARY_OPS), child, child
                  ).map(lambda t: E.op(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(BIT_UNARY_OPS), child
                  ).map(lambda t: E.op(t[0], t[1])),
    )


def dags(width: int) -> st.SearchStrategy:
    return st.integers(1, 4).flatmap(
        lambda depth: w_node(width, depth, leaf_ok=False))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def read_unsigned(sim: Simdram, array) -> np.ndarray:
    return sim.transposer.vertical_to_host(
        sim.module, array.block, array.n_elements, array.width,
        signed=False)


def announces(sim: Simdram) -> int:
    return sum(1 for instr in sim.issued
               if instr.kind is BbopKind.TRSP_INIT)


def run_sequential(sim: Simdram, root, arrays, width: int):
    """Execute the DAG one catalog ``run()`` per node.

    Returns (unsigned result, per-op µPrograms executed in order).
    Every intermediate (and every broadcast constant) is materialized
    in a named row block — the pre-fusion execution model.
    """
    n = next(iter(arrays.values())).n_elements
    values: dict = {}
    const_arrays: dict = {}
    created = []
    programs = []
    analysis = analyze(root, width)

    def operand_for(child, needed_width):
        if child.kind == "input":
            return arrays[child.name]
        if child.kind == "const":
            key = (child.value, needed_width)
            if key not in const_arrays:
                arr = sim.fill(child.value, n, needed_width)
                const_arrays[key] = arr
                created.append(arr)
            return const_arrays[key]
        return values[child]

    try:
        for node in post_order(root):
            if node.kind != "op":
                continue
            spec = get_operation(node.op)
            operands = [operand_for(child, cw) for child, cw
                        in zip(node.children, spec.in_widths(width))]
            out = sim.run(node.op, *operands)
            created.append(out)
            values[node] = out
            programs.append(sim.compile(node.op, width).program)
        result = read_unsigned(sim, values[root])
    finally:
        for arr in created:
            arr.free()
    del analysis
    return result, programs


def differential_check(sim: Simdram, root, width: int,
                       rng: np.random.Generator) -> None:
    """The core fused-vs-unfused-vs-golden comparison for one DAG."""
    free_before = sim._allocator.free_rows()
    leaves = input_names(root)
    n = sim.module.lanes
    analysis = analyze(root, width)
    feeds_np = {name: rng.integers(0, 1 << analysis.input_widths[name], n)
                for name in leaves}
    golden = E.golden(root, feeds_np, width)

    arrays = {name: sim.array(values, analysis.input_widths[name])
              for name, values in feeds_np.items()}
    try:
        fused_results = {}
        fused_announces = {}
        for engine in ALL_ENGINES:
            before = announces(sim)
            out = sim.run_expr(root, arrays, width=width, engine=engine)
            fused_announces[engine] = announces(sim) - before
            fused_results[engine] = read_unsigned(sim, out)
            out.free()

        before = announces(sim)
        sequential, programs = run_sequential(sim, root, arrays, width)
        sequential_announces = announces(sim) - before

        for engine, values in fused_results.items():
            assert np.array_equal(values, golden), \
                f"{engine} fused != golden for {root!r} @ {width}"
        assert np.array_equal(sequential, golden), \
            f"sequential != golden for {root!r} @ {width}"

        kernel = sim.compile(root, width)
        if n_ops(root) >= 2:
            # Fusion's structural claim: strictly fewer row copies into
            # and out of named operand row blocks...
            fused_copies = kernel.program.n_operand_copies
            unfused_copies = sum(p.n_operand_copies for p in programs)
            assert fused_copies < unfused_copies, (
                f"{root!r} @ {width}: fused operand-row copies "
                f"{fused_copies} !< unfused {unfused_copies}")
            # ... and strictly fewer transposition-unit announcements
            # (one output object vs. one per materialized intermediate).
            assert fused_announces["vectorized"] < sequential_announces, (
                f"{root!r} @ {width}: fused announces "
                f"{fused_announces['vectorized']} !< sequential "
                f"{sequential_announces}")
        assert fused_announces["vectorized"] == 1  # the output, only
    finally:
        for arr in arrays.values():
            arr.free()
    assert sim._allocator.free_rows() == free_before, \
        f"row leak after {root!r} @ {width}"


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------
class TestFusedDifferential:
    # Example budgets are calibrated for the ``dev`` hypothesis profile
    # and scale with ``--hypothesis-profile`` (ci shrinks, thorough
    # grows) — see conftest.scaled_examples.
    @settings(max_examples=scaled_examples(20), deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(root=dags(4), data=st.data())
    def test_width_4(self, root, data):
        self._check(root, 4, data)

    @settings(max_examples=scaled_examples(12), deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(root=dags(8), data=st.data())
    def test_width_8(self, root, data):
        self._check(root, 8, data)

    @settings(max_examples=scaled_examples(6), deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(root=dags(16), data=st.data())
    def test_width_16(self, root, data):
        self._check(root, 16, data)

    def _check(self, root, width, data):
        assume(input_names(root))  # all-constant DAGs don't execute
        try:
            analyze(root, width)
        except OperationError:
            # e.g. one input leaf consumed at two widths (select vs data)
            assume(False)
        seed = data.draw(st.integers(0, 2**32 - 1))
        differential_check(shared_sim(), root, width,
                           np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# deterministic anchors
# ---------------------------------------------------------------------------
def mad_relu_root():
    return E.relu(E.add(E.mul(E.inp("x"), E.inp("w")), E.inp("b")))


class TestAcceptancePipeline:
    """The PR's acceptance pipeline: mul->add->relu, 8-bit, 16 banks."""

    @pytest.fixture(scope="class")
    def sim16(self):
        return Simdram(SimdramConfig(
            geometry=DramGeometry.sim_small(cols=64, data_rows=768,
                                            banks=16)), seed=13)

    def test_bit_identical_on_both_engines(self, sim16):
        sim = sim16
        rng = np.random.default_rng(21)
        feeds_np = {name: rng.integers(0, 256, sim.module.lanes)
                    for name in ("x", "w", "b")}
        root = mad_relu_root()
        golden = E.golden(root, feeds_np, 8)
        arrays = {name: sim.array(v, 8) for name, v in feeds_np.items()}

        for engine in ALL_ENGINES:
            out = sim.run_expr(root, arrays, width=8, engine=engine)
            assert np.array_equal(read_unsigned(sim, out), golden)
            out.free()

        product = sim.run("mul", arrays["x"], arrays["w"])
        total = sim.run("add", product, arrays["b"])
        result = sim.run("relu", total)
        assert np.array_equal(read_unsigned(sim, result), golden)
        for arr in (product, total, result, *arrays.values()):
            arr.free()

    def test_fewer_operand_copies_and_zero_intermediate_transposes(
            self, sim16):
        sim = sim16
        kernel = sim.compile(mad_relu_root(), 8)
        unfused = [sim.compile(op, 8).program
                   for op in ("mul", "add", "relu")]
        assert kernel.program.n_operand_copies < sum(
            p.n_operand_copies for p in unfused)

        # One fused dispatch announces exactly one vertical object (the
        # output) and moves zero bits over the host channel.
        rng = np.random.default_rng(22)
        arrays = {name: sim.array(rng.integers(0, 256, 8), 8)
                  for name in ("x", "w", "b")}
        stats_before = sim.module.total_stats()
        issued_before = announces(sim)
        out = sim.run_expr(mad_relu_root(), arrays, width=8)
        stats_after = sim.module.total_stats()
        assert announces(sim) - issued_before == 1
        assert stats_after.host_bits_read == stats_before.host_bits_read
        assert (stats_after.host_bits_written
                == stats_before.host_bits_written)
        for arr in (out, *arrays.values()):
            arr.free()

    def test_fused_wins_commands_with_constant_tap(self, sim16):
        """The cnn dot-product tap (constant weight) must fuse to a
        measurably cheaper command stream than the generic pipeline."""
        sim = sim16
        root = E.relu(E.add(E.mul(E.inp("x"), E.const(37)), E.inp("b")))
        kernel = sim.compile(root, 8)
        unfused = sum(sim.compile(op, 8).program.n_commands
                      for op in ("mul", "add", "relu"))
        assert kernel.program.n_commands * 3 < unfused * 2  # >= 1.5x


class TestFusedKernelIdentity:
    def test_compile_cache_hits_on_structural_equality(self):
        sim = shared_sim()
        k1 = sim.compile(mad_relu_root(), 8)
        k2 = sim.compile(mad_relu_root(), 8)
        assert k1 is k2

    def test_dag_hash_stable_and_recorded(self):
        root = mad_relu_root()
        kernel = compile_expr(root, 4)
        assert kernel.program.source_hash == dag_hash(root)
        assert kernel.op_name == f"fused_{dag_hash(root)}"

    def test_distinct_dags_distinct_hashes(self):
        a = E.add(E.inp("x"), E.inp("y"))
        b = E.add(E.inp("y"), E.inp("x"))
        c = E.add(E.inp("x"), E.const(1))
        hashes = {dag_hash(a), dag_hash(b), dag_hash(c)}
        assert len(hashes) == 3

    def test_plan_cache_reused_across_map_expr_batches(self):
        sim = Simdram(SimdramConfig(
            geometry=DramGeometry.sim_small(cols=32, data_rows=768,
                                            banks=2)), seed=3)
        root = E.add(E.inp("x"), E.const(3))
        values = np.arange(sim.module.lanes * 3)
        misses_before = sim.control.plan_cache_misses
        got = sim.map_expr(root, {"x": values}, width=8)
        assert np.array_equal(got, (values + 3) % 256)
        assert sim.control.plan_cache_misses == misses_before + 1
        assert sim.control.plan_cache_hits >= 2  # batches 2 and 3


class TestMultiOutputStitching:
    def test_two_roots_one_uprogram(self):
        width = 8
        x, y = E.inp("x"), E.inp("y")
        roots = {"total": E.add(x, y), "delta": E.sub(x, y)}
        kernel = compile_multi(roots, width)
        program = kernel.program
        slices = {out.name: (out.offset, out.width)
                  for out in kernel.outputs}
        assert kernel.out_width == 16
        assert {out.name: out.signed for out in kernel.outputs} == {
            "total": False, "delta": False}
        assert set(slices) == {"total", "delta"}
        widths = {name: w for name, (_, w) in slices.items()}
        assert widths == {"total": 8, "delta": 8}
        offsets = sorted(off for off, _ in slices.values())
        assert offsets == [0, 8]
        assert program.output.width == 16

        sim = Simdram(SimdramConfig(
            geometry=DramGeometry.sim_small(cols=32, data_rows=768,
                                            banks=2)), seed=5)
        rng = np.random.default_rng(4)
        xv = rng.integers(0, 256, sim.module.lanes)
        yv = rng.integers(0, 256, sim.module.lanes)
        ax = sim.array(xv, 8)
        ay = sim.array(yv, 8)
        out = sim.empty(sim.module.lanes, program.output.width)
        bases = {Space.OUTPUT: out.block.base,
                 INPUT_SPACES[0]: ax.block.base,
                 INPUT_SPACES[1]: ay.block.base}
        temp = (sim._allocator.alloc(program.n_temp_rows)
                if program.n_temp_rows else None)
        if temp is not None:
            bases[Space.TEMP] = temp.base
        sim.control.install(program)
        sim.control.execute_on_module(program, sim.module,
                                      RowLayout(bases))
        from repro.exec.memory import RowBlock
        for name, expected in (("total", (xv + yv) % 256),
                               ("delta", (xv - yv) % 256)):
            offset, w = slices[name]
            view = RowBlock(out.block.base + offset, w)
            got = sim.transposer.vertical_to_host(
                sim.module, view, sim.module.lanes, w)
            assert np.array_equal(got, expected), name


class TestFusionErrors:
    def test_too_many_inputs_rejected(self):
        root = E.add(E.add(E.inp("a"), E.inp("b")),
                     E.add(E.inp("c"), E.inp("d")))
        with pytest.raises(OperationError,
                           match=f"at most {MAX_FUSED_INPUTS}"):
            compile_expr(root, 8)

    def test_all_constant_dag_rejected(self):
        with pytest.raises(OperationError, match="input leaf"):
            compile_expr(E.add(E.const(1), E.const(2)), 8)

    def test_leaf_root_rejected(self):
        with pytest.raises(OperationError, match="root"):
            compile_expr(E.inp("x"), 8)

    def test_const_reused_at_two_widths_is_legal(self):
        """Constants fold into the MIG per consumer, so one const value
        may feed consumers of different widths (here: a 1-bit if_else
        select and an 8-bit data operand)."""
        sim = shared_sim()
        one = E.const(1)
        root = E.add(E.if_else(one, E.inp("x"), E.inp("y")), one)
        rng = np.random.default_rng(12)
        feeds_np = {"x": rng.integers(0, 256, 8),
                    "y": rng.integers(0, 256, 8)}
        arrays = {k: sim.array(v, 8) for k, v in feeds_np.items()}
        out = sim.run_expr(root, arrays, width=8)
        assert np.array_equal(read_unsigned(sim, out),
                              E.golden(root, feeds_np, 8))
        assert np.array_equal(read_unsigned(sim, out),
                              (feeds_np["x"] + 1) % 256)
        for arr in (out, *arrays.values()):
            arr.free()

    def test_width_mismatch_across_consumers_rejected(self):
        # x is consumed as if_else's 1-bit select and as add's w-bit
        # operand: no single operand width satisfies both.
        x = E.inp("x")
        root = E.add(E.if_else(x, E.inp("y"), E.inp("y")), x)
        with pytest.raises(OperationError, match="consumed at"):
            compile_expr(root, 8)

    def test_wrong_arity_rejected(self):
        with pytest.raises(OperationError, match="takes 2 operands"):
            E.op("add", E.inp("x"))

    def test_unknown_attr_raises(self):
        with pytest.raises(AttributeError):
            E.definitely_not_an_operation  # noqa: B018

    def test_ambit_backend_matches_golden(self):
        sim = shared_sim()
        rng = np.random.default_rng(6)
        root = E.add(E.mul(E.inp("x"), E.inp("y")), E.const(7))
        feeds_np = {"x": rng.integers(0, 16, 8),
                    "y": rng.integers(0, 16, 8)}
        arrays = {k: sim.array(v, 4) for k, v in feeds_np.items()}
        out = sim.run_expr(root, arrays, width=4, backend="ambit")
        got = read_unsigned(sim, out)
        assert np.array_equal(got, E.golden(root, feeds_np, 4))
        for arr in (out, *arrays.values()):
            arr.free()
