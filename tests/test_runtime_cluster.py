"""Differential verification of the sharded multi-module runtime.

The acceptance bar of the runtime subsystem: sharded (and async)
execution must be **bit-identical** to the single-module sequential
paths — ``Simdram.run``/``map``/``run_expr`` — for every catalog
operation at widths {4, 8, 16}, including runs that force eviction and
concurrently submitted dependent jobs.  The reference system uses the
same per-module geometry, so any divergence in sharding, scheduling,
paging or program adoption shows up as a bit mismatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import expr
from repro.core.framework import Simdram, SimdramConfig
from repro.core.operations import CATALOG, get_operation
from repro.dram.geometry import DramGeometry
from repro.runtime import SimdramCluster

from tests.conftest import edge_and_random_values, stable_seed

WIDTHS = (4, 8, 16)
N_ELEMENTS = 44  # 3 shards over 2 modules; 3 batches on the reference


def small_config(data_rows: int = 512) -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=16, data_rows=data_rows, banks=1))


def operand_vectors(op_name: str, width: int,
                    n: int = N_ELEMENTS) -> list[np.ndarray]:
    spec = get_operation(op_name)
    rng = np.random.default_rng(stable_seed(op_name, width))
    return [edge_and_random_values(rng, in_width, n)
            for in_width in spec.in_widths(width)]


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("op_name", sorted(CATALOG))
def test_catalog_op_matches_single_module(op_name, width):
    """cluster.run (device tensors) and cluster.map (streaming) both
    reproduce the single-module sequential result bit for bit."""
    spec = get_operation(op_name)
    vectors = operand_vectors(op_name, width)
    reference = Simdram(small_config())
    expected = reference.map(op_name, *vectors, width=width)

    with SimdramCluster(2, config=small_config()) as cluster:
        tensors = [cluster.tensor(v, w) for v, w in
                   zip(vectors, spec.in_widths(width))]
        out = cluster.run(op_name, *tensors)
        assert out.signed == spec.signed
        assert np.array_equal(out.to_numpy(), expected), (
            f"{op_name}@{width}: sharded tensor run diverged")

        streamed = cluster.map(op_name, *vectors, width=width)
        assert np.array_equal(streamed, expected), (
            f"{op_name}@{width}: sharded map diverged")


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("op_name", ["add", "mul", "max", "if_else"])
def test_catalog_op_matches_under_eviction(op_name, width):
    """Same differential with a module too small to keep the working
    set resident: spill/fill churn must not change a single bit."""
    spec = get_operation(op_name)
    vectors = operand_vectors(op_name, width)
    reference = Simdram(small_config())
    expected = reference.map(op_name, *vectors, width=width)

    with SimdramCluster(2, config=small_config(data_rows=72)) as cluster:
        tensors = [cluster.tensor(v, w) for v, w in
                   zip(vectors, spec.in_widths(width))]
        # Pressure tensors make eviction of the operands certain.
        rng = np.random.default_rng(1)
        pressure = [cluster.tensor(rng.integers(0, 1 << 16, N_ELEMENTS),
                                   16) for _ in range(2)]
        cluster.synchronize()
        out = cluster.run(op_name, *tensors)
        got = out.to_numpy()
        if width == 16:
            assert cluster.paging_stats().n_spills > 0
        assert np.array_equal(got, expected), (
            f"{op_name}@{width}: eviction changed the result")
        for tensor in pressure:
            tensor.free()


@pytest.mark.parametrize("width", WIDTHS)
def test_fused_expression_matches_single_module(width):
    """run_expr/map_expr across shards == single-module map_expr."""
    x, w, b = expr.inp("x"), expr.inp("w"), expr.inp("b")
    dag = expr.relu(expr.add(expr.mul(x, w), b))
    rng = np.random.default_rng(width)
    feeds = {name: rng.integers(0, 1 << width, N_ELEMENTS)
             for name in ("x", "w", "b")}

    reference = Simdram(small_config())
    expected = reference.map_expr(dag, feeds, width=width)

    with SimdramCluster(2, config=small_config()) as cluster:
        tensors = {name: cluster.tensor(v, width)
                   for name, v in feeds.items()}
        out = cluster.run_expr(dag, tensors, width=width)
        assert np.array_equal(out.to_numpy(), expected)

        streamed = cluster.map_expr(dag, feeds, width=width)
        assert np.array_equal(streamed, expected)


@pytest.mark.parametrize("width", WIDTHS)
def test_async_dependent_chain_matches_sequential(width):
    """Concurrently submitted dependent jobs == the same pipeline run
    sequentially on one module (same per-module geometry)."""
    rng = np.random.default_rng(width + 100)
    a_host = rng.integers(0, 1 << width, N_ELEMENTS)
    b_host = rng.integers(0, 1 << width, N_ELEMENTS)

    reference = Simdram(small_config())
    step1 = reference.map("add", a_host, b_host, width=width)
    step2 = reference.map("mul", step1, a_host, width=width)
    expected = reference.map("max", step2, b_host, width=width)

    with SimdramCluster(2, config=small_config()) as cluster:
        a = cluster.tensor(a_host, width)
        b = cluster.tensor(b_host, width)
        # Submit the whole dependent chain without waiting in between,
        # plus unrelated jobs that may interleave on the same modules.
        h1 = cluster.submit("add", a, b)
        noise = [cluster.submit("add", b, b) for _ in range(3)]
        h2 = cluster.submit("mul", h1.tensor, a)
        h3 = cluster.submit("max", h2.tensor, b)
        got = h3.result().to_numpy()
        # max is signed; compare in the two's-complement bit domain.
        assert np.array_equal(got, expected)
        for handle in noise:
            handle.result()


def test_uneven_tail_shard():
    """Lengths that don't divide the lane count exercise the partial
    tail shard on every path."""
    for n in (1, 15, 17, 33):
        vectors = [np.arange(n) % 256, (np.arange(n) * 3) % 256]
        reference = Simdram(small_config())
        expected = reference.map("add", *vectors, width=8)
        with SimdramCluster(3, config=small_config()) as cluster:
            a = cluster.tensor(vectors[0], 8)
            b = cluster.tensor(vectors[1], 8)
            assert np.array_equal(cluster.run("add", a, b).to_numpy(),
                                  expected)
            assert np.array_equal(
                cluster.map("add", *vectors, width=8), expected)


def test_tensor_snapshots_host_values():
    """Mutating the host array after tensor() returns must not change
    what was loaded: the async load works on a snapshot."""
    host = np.arange(40) % 256
    with SimdramCluster(2, config=small_config()) as cluster:
        tensor = cluster.tensor(host, 8)
        host[:] = 0
        assert np.array_equal(tensor.to_numpy(), np.arange(40) % 256)


def test_map_expr_rejects_unexpected_feeds():
    from repro.errors import OperationError
    dag = expr.add(expr.inp("x"), expr.inp("y"))
    feeds = {"x": np.arange(8), "y": np.arange(8),
             "bias": np.arange(8)}
    with SimdramCluster(2, config=small_config()) as cluster:
        with pytest.raises(OperationError, match="unexpected"):
            cluster.map_expr(dag, feeds, width=8)


def test_modeled_scaling_across_modules():
    """4 modules shard the same work; modeled makespan shrinks close
    to 4x (modules are independent channels)."""
    vectors = [np.arange(256) % 256, np.arange(256) % 256]
    makespans = {}
    for n_modules in (1, 4):
        with SimdramCluster(n_modules,
                            config=small_config()) as cluster:
            cluster.map("add", *vectors, width=8)
            makespans[n_modules] = cluster.makespan_ns()
    assert makespans[1] > 0 and makespans[4] > 0
    speedup = makespans[1] / makespans[4]
    assert speedup >= 2.5, f"modeled scaling only {speedup:.2f}x"
