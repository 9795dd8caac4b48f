"""Declared-width input leaves: ``expr.inp(name, width=..., signed=...)``.

A declared leaf narrower than its consumer is extended inside the
circuit (constant-0 nets, or its MSB net when signed), so it occupies
only its own rows.  These tests pin the declaration's identity (hash,
pickle, kernel identity), the interface it compiles to, and the one
door rule — a host value must fit the declared range, a resident
operand must match the declared width and signedness — at every door:
module, cluster (paged), service and replica router, each bit-exact
against :func:`repro.core.expr.golden`.  The exhaustive class runs every
pair of 8-bit operands at once on a 65 536-lane module.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.apps.knn import knn_step_expr
from repro.core import expr as E
from repro.core.framework import Simdram, SimdramConfig
from repro.core.fuse import compile_expr, kernel_identity, kernel_inputs
from repro.dram.geometry import DramGeometry
from repro.errors import OperationError
from repro.runtime import SimdramCluster
from repro.serve import SimdramService, StreamingServer
from repro.serve.router import ReplicaRouter


def config(cols: int = 32, data_rows: int = 512,
           banks: int = 2, backend: str = "simdram") -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=cols, data_rows=data_rows, banks=banks), backend=backend)


def knn_feeds(n: int, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"x": rng.integers(0, 256, n), "q": rng.integers(0, 256, n),
            "acc": rng.integers(0, 1 << 15, n)}


def signed_add() -> E.Expr:
    return E.add(E.inp("x", width=8, signed=True), E.inp("y"))


def want(root: E.Expr, feeds: dict, width: int = 16) -> np.ndarray:
    return E.golden(root, feeds, width)


def unsigned(values: np.ndarray, width: int = 16) -> np.ndarray:
    return np.asarray(values) & ((1 << width) - 1)


# ---------------------------------------------------------------------------
# the declaration: identity, analysis, circuit
# ---------------------------------------------------------------------------
class TestDeclaration:
    def test_leaf_validation(self):
        with pytest.raises(OperationError, match="give width"):
            E.inp("x", signed=True)
        for bad in (0, -3, True, 2.5):
            with pytest.raises(OperationError, match="positive integer"):
                E.inp("x", width=bad)
        assert E.inp("x", width=8).signed is False
        assert repr(E.inp("x", width=8, signed=True)) == \
            "inp('x', width=8, signed=True)"
        assert repr(E.inp("x", width=8)) == "inp('x', width=8)"

    def test_declaration_is_part_of_the_identity(self):
        default = E.add(E.inp("a"), E.inp("b"))
        narrow = E.add(E.inp("a", width=8), E.inp("b"))
        signed = E.add(E.inp("a", width=8, signed=True), E.inp("b"))
        assert len({default, narrow, signed}) == 3
        assert len({E.dag_hash(r) for r in (default, narrow, signed)}) == 3
        keys = {kernel_identity(r, 16) for r in (default, narrow, signed)}
        assert len(keys) == 3
        assert kernel_identity(default, 16)[0] == "add"
        assert kernel_identity(narrow, 16)[0].startswith("fused_")

    def test_pickle_carries_the_declaration(self):
        root = knn_step_expr()
        again = pickle.loads(pickle.dumps(root))
        assert again == root
        assert E.dag_hash(again) == E.dag_hash(root)
        assert E.input_leaves(again)["x"].width == 8
        signed = pickle.loads(pickle.dumps(signed_add()))
        assert E.input_leaves(signed)["x"].signed is True

    def test_analysis(self):
        analysis = E.analyze(knn_step_expr(), 16)
        assert dict(analysis.input_widths) == {"x": 8, "q": 8, "acc": 16}
        assert dict(analysis.declared) == {"x": False, "q": False}
        with pytest.raises(OperationError, match="declares 16-bit"):
            E.analyze(E.add(E.inp("x", width=16), E.inp("y")), 8)
        with pytest.raises(OperationError, match="declared as both"):
            E.analyze(E.add(E.inp("x", width=8), E.inp("x")), 16)
        with pytest.raises(OperationError, match="differently across"):
            kernel_inputs({"u": E.add(E.inp("x", width=8), E.inp("y")),
                           "v": E.sub(E.inp("x"), E.inp("y"))}, 8)

    def test_a_narrow_leaf_compiles_to_fewer_rows_and_commands(self):
        default = compile_expr(E.mul(E.inp("x"), E.inp("y")), 16)
        narrow = compile_expr(
            E.mul(E.inp("x", width=8), E.inp("y", width=8)), 16)
        assert narrow.input_widths == (8, 8)
        assert narrow.input_signed == (False, False)
        assert [spec.width for spec in narrow.program.inputs] == [8, 8]
        assert default.input_signed == (None, None)
        assert narrow.program.n_commands < default.program.n_commands

    def test_golden_extends_per_declaration(self):
        root = signed_add()
        got = want(root, {"x": np.array([-1, 5, -128, 127]),
                          "y": np.array([1, 1, 0, 1])})
        assert np.array_equal(got, [0, 6, (1 << 16) - 128, 128])
        unsigned_root = E.add(E.inp("x", width=8), E.inp("y"))
        got = want(unsigned_root, {"x": np.array([255]), "y": np.array([1])})
        assert np.array_equal(got, [256])


# ---------------------------------------------------------------------------
# module doors
# ---------------------------------------------------------------------------
class TestModule:
    def test_run_resident_is_bit_exact(self):
        sim = Simdram(config(), seed=1)
        feeds = knn_feeds(64)
        arrays = {"x": sim.array(feeds["x"], 8), "q": sim.array(feeds["q"], 8),
                  "acc": sim.array(feeds["acc"], 16)}
        out = sim.run(knn_step_expr(), feeds=arrays)  # width from acc
        assert out.width == 16
        assert np.array_equal(unsigned(out.to_numpy()),
                              want(knn_step_expr(), feeds))

    def test_resident_operands_must_match_the_declaration(self):
        sim = Simdram(config(), seed=1)
        feeds = knn_feeds(8)
        x16 = sim.array(feeds["x"], 16)
        x_signed = sim.array(feeds["x"], 8, signed=True)
        q, acc = sim.array(feeds["q"], 8), sim.array(feeds["acc"], 16)
        free = sim._allocator.free_rows()
        with pytest.raises(OperationError, match="must be 8-bit"):
            sim.run(knn_step_expr(), feeds={"x": x16, "q": q, "acc": acc})
        with pytest.raises(OperationError, match="declared unsigned"):
            sim.run(knn_step_expr(),
                    feeds={"x": x_signed, "q": q, "acc": acc})
        assert sim._allocator.free_rows() == free

    def test_a_narrow_leaf_does_not_set_the_pipeline_width(self):
        sim = Simdram(config(), seed=1)
        root = E.add(E.inp("y"), E.inp("x", width=8))  # x binds last
        y, x = sim.array(np.array([1000, 2]), 16), sim.array([255, 3], 8)
        out = sim.run(root, y, x)
        assert out.width == 16
        assert np.array_equal(out.to_numpy(), [1255, 5])
        narrow = E.mul(E.inp("x", width=8), E.inp("y", width=8))
        with pytest.raises(OperationError, match="pass width="):
            sim.run(narrow, x, x)
        assert sim.run(narrow, x, x, width=16).to_numpy().tolist() == \
            [65025, 9]

    def test_map_is_bit_exact_and_checks_the_range(self):
        sim = Simdram(config(), seed=1)
        feeds = knn_feeds(100)          # 100 > 64 lanes: two batches
        got = sim.map_expr(knn_step_expr(), feeds, width=16)
        assert np.array_equal(unsigned(got), want(knn_step_expr(), feeds))
        signed = {"x": np.array([-128, -1, 0, 127]),
                  "y": np.array([7, 7, 7, 7])}
        assert np.array_equal(sim.map_expr(signed_add(), signed, width=16),
                              [(1 << 16) - 121, 6, 7, 134])
        free = sim._allocator.free_rows()
        for root, bad in ((knn_step_expr(), {**feeds, "q": feeds["q"] + 1}),
                          (knn_step_expr(), {**feeds, "x": feeds["x"] - 1}),
                          (signed_add(), {**signed, "x": signed["x"] + 1})):
            with pytest.raises(OperationError) as caught:
                sim.map_expr(root, bad, width=16)
            assert type(caught.value) is OperationError
            assert "do not fit its declared" in str(caught.value)
        assert sim._allocator.free_rows() == free
        # A default leaf keeps the two's-complement re-encoding.
        assert sim.map("add", [-1], [1], width=8).tolist() == [0]


# ---------------------------------------------------------------------------
# cluster doors (2 modules, small enough to page)
# ---------------------------------------------------------------------------
class TestCluster:
    def test_resident_chain_pages_and_is_bit_exact(self):
        rng = np.random.default_rng(5)
        refs = rng.integers(0, 256, (40, 8))
        query = rng.integers(0, 256, 8)
        with SimdramCluster(2, config=config(cols=16, data_rows=96,
                                             banks=1), seed=3) as cluster:
            columns = [cluster.tensor(refs[:, d], 8) for d in range(8)]
            acc = cluster.tensor(np.zeros(40, dtype=np.int64), 16)
            for column, feature in zip(columns, query):
                q = cluster.tensor(np.full(40, feature), 8)
                new = cluster.run(knn_step_expr(),
                                  feeds={"x": column, "q": q, "acc": acc})
                q.free()
                acc.free()
                acc = new
            got = acc.to_numpy()
            assert cluster.paging_stats().n_spills > 0
            assert np.array_equal(got, np.abs(refs - query).sum(axis=1))
            with pytest.raises(OperationError, match="must be 8-bit"):
                cluster.run(knn_step_expr(),
                            feeds={"x": acc, "q": columns[0], "acc": acc})

    def test_map_is_bit_exact_and_checks_the_range(self):
        feeds = knn_feeds(50, seed=2)
        with SimdramCluster(2, config=config(cols=16, data_rows=96,
                                             banks=1), seed=3) as cluster:
            got = cluster.map_expr(knn_step_expr(), feeds, width=16)
            assert np.array_equal(unsigned(got),
                                  want(knn_step_expr(), feeds))
            with pytest.raises(OperationError) as caught:
                cluster.map_expr(knn_step_expr(),
                                 {**feeds, "x": feeds["x"] + 256}, width=16)
            assert type(caught.value) is OperationError


# ---------------------------------------------------------------------------
# service and replica doors
# ---------------------------------------------------------------------------
class TestServed:
    def test_a_bad_request_fails_only_its_own_handle(self):
        feeds = knn_feeds(8, seed=4)
        with SimdramService(Simdram(config(), seed=2)) as service:
            with service.hold():
                good = service.submit(knn_step_expr(), feeds=feeds, width=16)
                bad = service.submit(knn_step_expr(),
                                     feeds={**feeds, "q": feeds["q"] - 300},
                                     width=16)
                also = service.submit(signed_add(),
                                      feeds={"x": [-128, 127], "y": [1, 2]},
                                      width=16)
            assert np.array_equal(unsigned(good.result(60)),
                                  want(knn_step_expr(), feeds))
            assert type(bad.exception(60)) is OperationError
            assert also.result(60).tolist() == [(1 << 16) - 127, 129]
            assert service.stats()["requests"]["failed"] == 1

    def test_a_stream_activation_cannot_be_declared(self):
        """Steps after the first feed the previous step's output to
        ``x`` unchecked; a declared ``x`` is refused up front."""
        step = E.add(E.inp("x", width=8), E.inp("b"))
        with SimdramService(Simdram(config(), seed=2)) as service, \
                StreamingServer(service) as server:
            with pytest.raises(OperationError, match="declared leaf"):
                server.submit(step, [1], n_steps=2, width=16,
                              feeds={"b": [1]})

    def test_replicas_run_the_parents_narrow_kernel(
            self, parent_only_compile):
        feeds = knn_feeds(24, seed=6)
        with ReplicaRouter(2, config=config()) as router, \
                SimdramService(router) as service:
            service.warmup([(knn_step_expr(), 16)])
            handles = [service.submit(knn_step_expr(), feeds=feeds,
                                      width=16, tenant=f"t{i}")
                       for i in range(4)]
            bad = service.submit(knn_step_expr(),
                                 feeds={**feeds, "x": feeds["x"] + 256},
                                 width=16)
            for handle in handles:
                assert np.array_equal(unsigned(handle.result(60)),
                                      want(knn_step_expr(), feeds))
            assert type(bad.exception(60)) is OperationError
        # Compiled once, here; the replicas adopted it.
        assert parent_only_compile == [(knn_step_expr(), 16)]


# ---------------------------------------------------------------------------
# every pair of 8-bit operands at once
# ---------------------------------------------------------------------------
LANES = np.arange(1 << 16)
HIGH, LOW = LANES >> 8, LANES & 0xFF
EXHAUSTIVE = {
    "knn_step": (knn_step_expr(),
                 {"x": HIGH, "q": LOW, "acc": (LANES * 40503) & 0xFFFF}),
    "mul(x:8u,y:8u)": (E.mul(E.inp("x", width=8), E.inp("y", width=8)),
                       {"x": HIGH, "y": LOW}),
    "add(x:8s,y)": (signed_add(), {"x": HIGH - 128, "y": LOW * 257}),
}


class TestExhaustive:
    """8-bit leaves in a 16-bit pipeline: all 2^16 operand pairs on one
    65 536-lane module per backend with the ``compiled`` engine, and
    ``per_bank`` on a strided slice that still reaches every value of
    each operand."""

    @pytest.mark.parametrize("backend", ("simdram", "ambit"))
    def test_every_pair_of_8_bit_operands(self, backend):
        sim = Simdram(config(cols=4096, banks=16, backend=backend))
        assert sim.lanes == len(LANES)
        for label, (root, feeds) in EXHAUSTIVE.items():
            got = sim.map_expr(root, feeds, width=16, engine="compiled")
            assert np.array_equal(unsigned(got), want(root, feeds)), label
            stride = {name: values[::255] for name, values in feeds.items()}
            assert len(set(stride["x"] & 0xFF)) == 256
            got = sim.map_expr(root, stride, width=16, engine="per_bank")
            assert np.array_equal(unsigned(got), want(root, stride)), label
