"""Differential suite for the programmer-transparent lazy frontend.

The lazy frontend's contract is bit-identity with the eager expression
path: whatever a hand-built ``Expr`` DAG computes through
``Simdram.run_expr``, the same pipeline written as plain ``LazyTensor``
arithmetic must compute too — for the whole catalog at widths
{4, 8, 16}, on a single module and on a sharded cluster, through
forced paging evictions, and regardless of how the engine partitions
the graph against the ``bbop`` three-source limit.

Hypothesis reuses the fusion suite's random DAG strategy: every
generated DAG is converted to a lazy graph and checked lazy vs. eager
``run_expr`` vs. the composed numpy golden model.  Deterministic tests
pin kernel-cache identity (repeated evaluation compiles nothing new),
multi-output batching/CSE (one dispatch for several results), the
partitioner, async submission, width inference and the error surface.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypothesis_profiles import nightly, scaled_examples
from repro import lazy
from repro.core import expr as E
from repro.core.expr import analyze, input_names
from repro.core.framework import Simdram, SimdramConfig
from repro.core.operations import CATALOG, get_operation
from repro.dram.geometry import DramGeometry
from repro.errors import OperationError
from repro.isa.instructions import BbopKind
from repro.runtime import SimdramCluster
from repro.util.bitops import to_unsigned
from test_fusion_differential import dags, read_unsigned

from tests.conftest import stable_seed

WIDTHS = (4, 8, 16)

_SHARED_SIM: Simdram | None = None
_SHARED_CLUSTER: SimdramCluster | None = None


def shared_sim() -> Simdram:
    """One module shared by the whole file (warm compile caches)."""
    global _SHARED_SIM
    if _SHARED_SIM is None:
        _SHARED_SIM = Simdram(SimdramConfig(
            geometry=DramGeometry.sim_small(cols=32, data_rows=768,
                                            banks=2)), seed=17)
    return _SHARED_SIM


def shared_cluster() -> SimdramCluster:
    global _SHARED_CLUSTER
    if _SHARED_CLUSTER is None:
        _SHARED_CLUSTER = SimdramCluster(2, config=SimdramConfig(
            geometry=DramGeometry.sim_small(cols=32, data_rows=512,
                                            banks=2)), seed=29)
    return _SHARED_CLUSTER


def lazy_from_expr(device, root: E.Expr, width: int,
                   feeds_np: dict[str, np.ndarray]) -> lazy.LazyTensor:
    """Mirror an ``Expr`` DAG as a lazy graph (shared subtrees shared)."""
    analysis = analyze(root, width)
    sources = {name: lazy.array(values,
                                width=analysis.input_widths[name],
                                device=device)
               for name, values in feeds_np.items()}
    memo: dict[E.Expr, object] = {}

    def build(node: E.Expr):
        cached = memo.get(node)
        if cached is not None:
            return cached
        if node.kind == E.KIND_INPUT:
            built = sources[node.name]
        elif node.kind == E.KIND_CONST:
            built = node.value  # plain int; apply() lifts it to a const
        else:
            built = lazy.apply(node.op,
                               *[build(child) for child in node.children],
                               device=device)
        memo[node] = built
        return built

    return build(root)


def differential_check(root: E.Expr, width: int,
                       rng: np.random.Generator) -> None:
    """lazy == eager run_expr == numpy golden, and no row leaks."""
    sim = shared_sim()
    device = lazy.device(sim)
    free_before = sim._allocator.free_rows()
    analysis = analyze(root, width)
    n = sim.module.lanes
    feeds_np = {name: rng.integers(0, 1 << analysis.input_widths[name], n)
                for name in input_names(root)}
    golden = E.golden(root, feeds_np, width)

    arrays = {name: sim.array(values, analysis.input_widths[name])
              for name, values in feeds_np.items()}
    try:
        out = sim.run_expr(root, arrays, width=width)
        eager = read_unsigned(sim, out)
        out.free()
    finally:
        for array in arrays.values():
            array.free()

    tensor = lazy_from_expr(device, root, width, feeds_np)
    got = device.evaluate([tensor], width=width)[0]
    got_u = to_unsigned(np.asarray(got), analysis.out_width)

    assert np.array_equal(eager, golden), \
        f"eager != golden for {root!r} @ {width}"
    assert np.array_equal(got_u, golden), \
        f"lazy != golden for {root!r} @ {width}"
    assert sim._allocator.free_rows() == free_before, \
        f"row leak after lazy evaluation of {root!r} @ {width}"


class TestLazyDifferential:
    """Random DAGs: lazy vs eager vs golden at widths {4, 8, 16}."""

    @settings(max_examples=scaled_examples(15), deadline=None)
    @given(root=dags(4), data=st.data())
    def test_width_4(self, root, data):
        self._check(root, 4, data)

    @settings(max_examples=scaled_examples(9), deadline=None)
    @given(root=dags(8), data=st.data())
    def test_width_8(self, root, data):
        self._check(root, 8, data)

    @settings(max_examples=scaled_examples(5), deadline=None)
    @given(root=dags(16), data=st.data())
    def test_width_16(self, root, data):
        self._check(root, 16, data)

    def _check(self, root, width, data):
        assume(input_names(root))
        try:
            analyze(root, width)
        except OperationError:
            assume(False)
        seed = data.draw(st.integers(0, 2**32 - 1))
        differential_check(root, width, np.random.default_rng(seed))


class TestLazyCatalog:
    """Whole-catalog single-op bit-identity, lazy vs eager run()."""

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("op_name", sorted(CATALOG))
    def test_op(self, op_name, width):
        sim = shared_sim()
        device = lazy.device(sim)
        spec = get_operation(op_name)
        rng = np.random.default_rng(stable_seed(op_name, width))
        n = sim.module.lanes
        feeds = [rng.integers(0, 1 << in_width, n)
                 for in_width in spec.in_widths(width)]

        arrays = [sim.array(values, in_width)
                  for values, in_width in zip(feeds, spec.in_widths(width))]
        out = sim.run(op_name, *arrays)
        eager = read_unsigned(sim, out)
        for handle in (*arrays, out):
            handle.free()

        sources = [lazy.array(values, width=in_width, device=device)
                   for values, in_width
                   in zip(feeds, spec.in_widths(width))]
        tensor = lazy.apply(op_name, *sources)
        got = device.evaluate([tensor], width=width)[0]
        assert np.array_equal(to_unsigned(np.asarray(got),
                                          spec.out_width(width)),
                              eager), f"lazy {op_name} @ {width}"


class TestLazyCluster:
    """Sharded dispatch, async submission and forced eviction."""

    @settings(max_examples=scaled_examples(6), deadline=None)
    @given(root=dags(8), data=st.data())
    def test_differential_sharded(self, root, data):
        assume(input_names(root))
        try:
            analysis = analyze(root, 8)
        except OperationError:
            assume(False)
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        cluster = shared_cluster()
        device = lazy.device(cluster)
        n = cluster.lanes_per_module * 2 + 13  # spans shards, ragged
        feeds_np = {
            name: rng.integers(0, 1 << analysis.input_widths[name], n)
            for name in input_names(root)}
        golden = E.golden(root, feeds_np, 8)
        tensor = lazy_from_expr(device, root, 8, feeds_np)
        got = device.evaluate([tensor], width=8)[0]
        assert np.array_equal(to_unsigned(np.asarray(got),
                                          analysis.out_width), golden)

    def test_async_submission_gathers_later(self):
        cluster = shared_cluster()
        device = lazy.device(cluster)
        rng = np.random.default_rng(31)
        n = cluster.lanes_per_module + 7
        xv = rng.integers(0, 256, n)
        x = lazy.array(xv, width=8, device=device)
        result = (x * 3) + 1
        result.evaluate(wait=False)
        assert result._pending is not None
        got = result.numpy()
        assert result._pending is None
        assert np.array_equal(got, (xv * 3 + 1) % 256)
        # A second numpy() is served from the cache.
        assert np.array_equal(result.numpy(), got)

    def test_resubmission_at_new_width_gathers_old_pending(self):
        # An un-gathered async submission must not be orphaned (its
        # rows leaked) by a new submission at a different width.
        cluster = shared_cluster()
        device = lazy.device(cluster)
        t = lazy.array(np.arange(8), width=8, device=device) + 1
        device.evaluate([t], width=8, wait=False)
        device.evaluate([t], width=16, wait=False)
        assert 8 in t._results  # resolved, not dropped
        got = device.evaluate([t], width=16)[0]
        assert np.array_equal(got, np.arange(8) + 1)
        assert np.array_equal(t._results[8], np.arange(8) + 1)

    def test_forced_eviction_stays_bit_exact(self):
        config = SimdramConfig(geometry=DramGeometry.sim_small(
            cols=32, data_rows=48, banks=2))
        rng = np.random.default_rng(47)
        with SimdramCluster(1, config=config, seed=5) as cluster:
            device = lazy.device(cluster)
            n = 64
            sources = [lazy.array(rng.integers(0, 256, n), width=8,
                                  device=device) for _ in range(8)]
            total, golden = sources[0], sources[0].host.copy()
            for source in sources[1:]:
                total = total + source
                golden = (golden + source.host) % 256
            assert np.array_equal(total.numpy(), golden)
            assert cluster.paging_stats().n_spills > 0

    def test_lazy_conv_on_cluster_matches_golden(self):
        from repro.apps.cnn import conv2d_relu_lazy
        rng = np.random.default_rng(53)
        image = rng.integers(0, 32, (8, 10))
        taps = rng.integers(-3, 4, (3, 3))
        feature_map = conv2d_relu_lazy(shared_cluster(), image, taps)
        golden = np.zeros((6, 8), dtype=np.int64)
        for dy in range(3):
            for dx in range(3):
                golden += taps[dy, dx] * image[dy:dy + 6, dx:dx + 8]
        assert np.array_equal(feature_map, np.maximum(golden, 0))


class TestKernelCache:
    def test_repeated_evaluation_compiles_nothing_new(self):
        sim = Simdram(SimdramConfig(geometry=DramGeometry.sim_small(
            cols=32, data_rows=768, banks=2)), seed=3)
        device = lazy.device(sim)
        rng = np.random.default_rng(7)
        values = rng.integers(0, 256, sim.module.lanes)

        first = (lazy.array(values, width=10, signed=True,
                            device=device) + 9).clip(0, 255)
        first.numpy()
        kernels_after_first = device.kernel_cache_size
        plan_misses = sim.control.plan_cache_misses

        # A structurally identical but freshly captured pipeline: the
        # DAG hash matches, so no kernel (and no execution plan —
        # freed rows are reallocated first-fit) is compiled again.
        second = (lazy.array(values, width=10, signed=True,
                             device=device) + 9).clip(0, 255)
        got = second.numpy()
        assert device.kernel_cache_size == kernels_after_first
        assert sim.control.plan_cache_misses == plan_misses
        assert np.array_equal(got, np.clip(values + 9, 0, 255))

    def test_same_tensor_numpy_twice_issues_nothing(self):
        sim = shared_sim()
        device = lazy.device(sim)
        x = lazy.array(np.arange(8), width=8, device=device)
        result = x + 5
        first = result.numpy()
        issued = sim.n_issued
        again = result.numpy()
        assert sim.n_issued == issued  # served from the result cache
        assert np.array_equal(first, again)


class TestMultiOutputAndCSE:
    def test_evaluate_all_packs_one_dispatch(self):
        sim = shared_sim()
        device = lazy.device(sim)
        rng = np.random.default_rng(11)
        xv = rng.integers(0, 256, sim.module.lanes)
        yv = rng.integers(0, 256, sim.module.lanes)
        x = lazy.array(xv, width=8, device=device)
        y = lazy.array(yv, width=8, device=device)
        shared = x + y
        r1 = shared * 2
        r2 = shared + 1

        issued = sim.n_issued
        v1, v2 = lazy.evaluate_all([r1, r2])
        fresh = list(sim.issued)[issued - sim.n_issued:]
        execs = [i for i in fresh if i.kind is not BbopKind.TRSP_INIT]
        assert len(execs) == 1  # one multi-output µProgram computed both
        assert device.last_report.groups[0].n_batches == 1
        assert np.array_equal(v1, ((xv + yv) * 2) % 256)
        assert np.array_equal(v2, ((xv + yv) + 1) % 256)

    def test_evaluated_node_becomes_a_leaf_of_later_graphs(self):
        sim = shared_sim()
        device = lazy.device(sim)
        x = lazy.array(np.arange(16), width=8, device=device)
        shared = x * 3
        assert np.array_equal(shared.numpy(), (np.arange(16) * 3) % 256)
        # ``shared`` now carries cached host values, so a graph built
        # on top of it evaluates only the *new* node.
        follow_up = shared + 1
        got = follow_up.numpy()
        assert device.last_report.groups[0].n_nodes == 1
        assert np.array_equal(got, (np.arange(16) * 3 + 1) % 256)

    def test_width_conflicting_roots_split_into_batches(self):
        # One root consumes the shared leaf as a 1-bit select, the
        # other as an 8-bit operand: a single operand slot cannot be
        # both, so the engine must split the batch, not crash.
        device = lazy.device(shared_sim())
        cond = lazy.array([1, 0, 1, 0], width=1, device=device)
        a = lazy.array([10, 20, 30, 40], width=8, device=device)
        r1, r2 = lazy.evaluate_all([cond.where(a, 5), cond + a])
        assert np.array_equal(r1, [10, 5, 30, 5])
        assert np.array_equal(r2, [11, 20, 31, 40])
        assert lazy.device(shared_sim()).last_report.groups[0] \
                                        .n_batches == 2

    def test_interior_root_read_from_batch_cut(self):
        sim = shared_sim()
        device = lazy.device(sim)
        x = lazy.array(np.arange(24), width=8, device=device)
        y = lazy.array(np.arange(24) * 2, width=8, device=device)
        inner = x + y
        outer = inner * 2
        vi, vo = lazy.evaluate_all([inner, outer])
        assert np.array_equal(vi, (np.arange(24) * 3) % 256)
        assert np.array_equal(vo, (np.arange(24) * 6) % 256)


class TestPartitioner:
    def test_more_than_three_inputs_splits_and_matches(self):
        sim = shared_sim()
        device = lazy.device(sim)
        rng = np.random.default_rng(13)
        n = sim.module.lanes
        feeds = [rng.integers(0, 256, n) for _ in range(5)]
        sources = [lazy.array(v, width=8, device=device) for v in feeds]
        total = sources[0]
        golden = feeds[0].copy()
        for source, values in zip(sources[1:], feeds[1:]):
            total = total + source
            golden = (golden + values) % 256
        free_before = sim._allocator.free_rows()
        assert np.array_equal(total.numpy(), golden)
        report = device.last_report.groups[0]
        assert report.n_segments >= 1  # the ISA limit forced a cut
        assert sim._allocator.free_rows() == free_before

    def test_within_limit_stays_one_kernel(self):
        sim = shared_sim()
        device = lazy.device(sim)
        x = lazy.array(np.arange(8), width=8, device=device)
        y = lazy.array(np.arange(8), width=8, device=device)
        z = lazy.array(np.arange(8), width=8, device=device)
        result = lazy.where(x > y, x + z, y)
        result.numpy()
        report = device.last_report.groups[0]
        assert report.n_segments == 0
        assert report.n_batches == 1


class TestWidthInference:
    def test_mixed_width_operands_widen(self):
        sim = shared_sim()
        device = lazy.device(sim)
        rng = np.random.default_rng(19)
        n = sim.module.lanes
        narrow_v = rng.integers(0, 16, n)
        wide_v = rng.integers(0, 256, n)
        narrow = lazy.array(narrow_v, width=4, device=device)
        wide = lazy.array(wide_v, width=8, device=device)
        result = narrow + wide
        got = result.numpy()
        assert device.last_report.groups[0].width == 8
        assert np.array_equal(got, (narrow_v + wide_v) % 256)

    def test_signed_narrow_source_sign_extends(self):
        sim = shared_sim()
        device = lazy.device(sim)
        small = lazy.array(np.array([-2, -1, 0, 1]), width=3,
                           signed=True, device=device)
        big = lazy.array(np.array([100, 100, 100, 100]), width=8,
                         device=device)
        got = (small + big).numpy()
        assert np.array_equal(got, np.array([98, 99, 100, 101]))

    def test_width_inferred_from_sources(self):
        device = lazy.device(shared_sim())
        x = lazy.array(np.arange(8), width=6, device=device)
        (x + 1).numpy()
        assert device.last_report.groups[0].width == 6


class TestFromDevice:
    def test_wrapped_handle_not_freed_by_engine(self):
        sim = shared_sim()
        handle = sim.array(np.arange(16), 8)
        wrapped = lazy.from_device(handle)
        got = (wrapped + 4).numpy()
        assert np.array_equal(got, (np.arange(16) + 4) % 256)
        assert handle.status == "live"  # caller still owns the rows
        handle.free()

    def test_wrapped_source_numpy_reads_back(self):
        sim = shared_sim()
        handle = sim.array(np.arange(16), 8)
        wrapped = lazy.from_device(handle)
        assert np.array_equal(wrapped.numpy(), np.arange(16))
        handle.free()


class TestCaptureSugar:
    """Every operator spelling records the right catalog op (no
    execution needed — capture is pure)."""

    def test_dunders_and_methods(self):
        device = lazy.device(shared_sim())
        x = lazy.array([1, 2], device=device)
        y = lazy.array([3, 4], device=device)
        assert (x + y).op == "add"
        assert (1 + x).op == "add"       # reflected, scalar lifted
        assert (1 - x).op == "sub"
        assert (2 * x).op == "mul"
        assert (x // y).op == "div"
        assert abs(x).op == "abs"
        assert (x == y).op == "eq"
        assert (x != y).op == "ne"
        assert (x < y).op == "lt"
        assert (x <= y).op == "le"
        assert (x > y).op == "gt"
        assert (x >= y).op == "ge"
        assert x.minimum(y).op == "min"
        assert x.maximum(y).op == "max"
        assert x.relu().op == "relu"
        assert x.bitcount().op == "bitcount"
        assert x.where(y, x).op == "if_else"
        assert lazy.xor_red(x).op == "xor_red"
        assert lazy.add_sat(x, y).op == "add_sat"
        assert len(x) == 2
        assert "source" in repr(x)
        assert "const" in repr((x + 9).children[1])

    def test_scalar_constants_fold_not_allocate(self):
        device = lazy.device(shared_sim())
        x = lazy.array([1, 2], device=device)
        node = x + 200
        const = node.children[1]
        assert const.kind == "const" and const.value == 200

    def test_numpy_operand_lifts_to_source(self):
        device = lazy.device(shared_sim())
        x = lazy.array(np.arange(8), width=8, device=device)
        combined = x + np.arange(8)
        assert combined.children[1].kind == "source"
        assert np.array_equal(combined.numpy(), (2 * np.arange(8)) % 256)

    def test_unknown_lazy_builder_raises(self):
        with pytest.raises(AttributeError):
            lazy.definitely_not_an_operation  # noqa: B018


class TestErrors:
    def test_bool_is_ambiguous(self):
        x = lazy.array([1, 2], device=lazy.device(shared_sim()))
        with pytest.raises(OperationError, match="truth value"):
            bool(x > 1)

    def test_constant_cannot_be_evaluated(self):
        x = lazy.array([1, 2], device=lazy.device(shared_sim()))
        const = (x + 9).children[1]
        with pytest.raises(OperationError, match="constant"):
            const.numpy()

    def test_device_mixing_rejected(self):
        sim_b = Simdram(SimdramConfig(geometry=DramGeometry.sim_small(
            cols=32, data_rows=768, banks=2)), seed=4)
        a = lazy.array([1, 2], device=lazy.device(shared_sim()))
        b = lazy.array([3, 4], device=lazy.device(sim_b))
        with pytest.raises(OperationError, match="different devices"):
            a + b

    def test_length_mismatch_rejected(self):
        device = lazy.device(shared_sim())
        a = lazy.array([1, 2, 3], device=device)
        b = lazy.array([1, 2], device=device)
        with pytest.raises(OperationError, match="lengths differ"):
            a + b

    def test_fixed_width_slot_conflict_rejected(self):
        device = lazy.device(shared_sim())
        select = lazy.array([5, 6], width=8, device=device)
        a = lazy.array([1, 2], width=8, device=device)
        with pytest.raises(OperationError, match="fixed at 1-bit"):
            lazy.where(select, a, a).numpy()

    def test_float_sources_rejected(self):
        with pytest.raises(OperationError, match="integer"):
            lazy.array(np.array([1.5, 2.5]),
                       device=lazy.device(shared_sim()))

    def test_non_1d_rejected(self):
        with pytest.raises(OperationError, match="1-D"):
            lazy.array(np.zeros((2, 2), dtype=np.int64),
                       device=lazy.device(shared_sim()))

    def test_all_constant_graph_rejected(self):
        device = lazy.device(shared_sim())
        graph = lazy.apply("add", 1, 2, device=device)
        with pytest.raises(OperationError, match="source"):
            graph.numpy()


# ---------------------------------------------------------------------------
# nightly-only full sweeps (NIGHTLY=1; PR CI skips these)
# ---------------------------------------------------------------------------
@nightly
class TestNightlySweeps:
    def test_catalog_on_cluster_all_widths(self):
        cluster = shared_cluster()
        device = lazy.device(cluster)
        n = cluster.lanes_per_module * 2 + 5
        for width in WIDTHS:
            for op_name in sorted(CATALOG):
                spec = get_operation(op_name)
                rng = np.random.default_rng(
                    stable_seed(op_name, width, "nightly"))
                feeds = [rng.integers(0, 1 << in_width, n)
                         for in_width in spec.in_widths(width)]
                sources = [lazy.array(v, width=in_width, device=device)
                           for v, in_width
                           in zip(feeds, spec.in_widths(width))]
                got = device.evaluate([lazy.apply(op_name, *sources)],
                                      width=width)[0]
                golden = spec.golden(
                    [np.asarray(v) for v in feeds], width)
                assert np.array_equal(
                    to_unsigned(np.asarray(got), spec.out_width(width)),
                    golden), f"{op_name} @ {width} on cluster"

    @settings(max_examples=scaled_examples(30), deadline=None)
    @given(root=dags(8), data=st.data())
    def test_deep_differential(self, root, data):
        assume(input_names(root))
        try:
            analyze(root, 8)
        except OperationError:
            assume(False)
        seed = data.draw(st.integers(0, 2**32 - 1))
        differential_check(root, 8, np.random.default_rng(seed))


def teardown_module(module):
    global _SHARED_CLUSTER
    if _SHARED_CLUSTER is not None:
        _SHARED_CLUSTER.close()
        _SHARED_CLUSTER = None
