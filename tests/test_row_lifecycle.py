"""Row-lifecycle leak tests for the fused execution entry points.

Regression cover for the PR-1 temp-row-leak class, extended to the
fused paths: after any ``run_expr``/``map_expr`` — successful, rejected
up front (bad operand width, wrong feed names, mismatched lengths) or
failing mid-pipeline (injected executor fault, traced-compiled
conflict) — the allocator's free-row count and the tracker's announced
object count must return exactly to their pre-call values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import expr as E
from repro.core.framework import Simdram, SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.errors import ExecutionError, OperationError

GEOMETRY = DramGeometry.sim_small(cols=32, data_rows=512, banks=2)


def make_sim(**kwargs) -> Simdram:
    return Simdram(SimdramConfig(geometry=GEOMETRY), seed=17, **kwargs)


def mad_relu():
    return E.relu(E.add(E.mul(E.inp("x"), E.inp("w")), E.inp("b")))


class Balance:
    """Asserts allocator/tracker balance around a code span."""

    def __init__(self, sim: Simdram) -> None:
        self.sim = sim

    def __enter__(self) -> "Balance":
        self.free_before = self.sim._allocator.free_rows()
        self.tracked_before = len(self.sim.tracker)
        return self

    def __exit__(self, *exc) -> bool:
        assert self.sim._allocator.free_rows() == self.free_before, \
            "allocator rows leaked"
        assert len(self.sim.tracker) == self.tracked_before, \
            "announced vertical objects leaked"
        return False


class TestRunExprLifecycle:
    def test_successful_run_expr_balances_after_free(self):
        sim = make_sim()
        rng = np.random.default_rng(1)
        with Balance(sim):
            feeds = {name: sim.array(rng.integers(0, 256, 8), 8)
                     for name in ("x", "w", "b")}
            out = sim.run_expr(mad_relu(), feeds, width=8)
            out.free()
            for arr in feeds.values():
                arr.free()

    def test_bad_operand_width_releases_everything(self):
        """The issue's injected failure: one operand at the wrong bit
        width must reject the dispatch without consuming any rows."""
        sim = make_sim()
        sim.compile(mad_relu(), 8)  # compile ok; execution must not
        feeds = {"x": sim.array([1, 2], 8), "w": sim.array([3, 4], 4),
                 "b": sim.array([5, 6], 8)}
        with Balance(sim):
            with pytest.raises(OperationError, match="must be 8-bit"):
                sim.run_expr(mad_relu(), feeds, width=8)
        for arr in feeds.values():
            arr.free()

    def test_wrong_feed_names_release_everything(self):
        sim = make_sim()
        arr = sim.array([1, 2, 3], 8)
        with Balance(sim):
            with pytest.raises(OperationError, match="missing"):
                sim.run_expr(mad_relu(), {"x": arr}, width=8)
            with pytest.raises(OperationError, match="unexpected"):
                sim.run_expr(E.relu(E.inp("x")),
                             {"x": arr, "bogus": arr}, width=8)
        arr.free()

    def test_mismatched_lengths_release_everything(self):
        sim = make_sim()
        a = sim.array([1, 2, 3], 8)
        b = sim.array([4, 5], 8)
        with Balance(sim):
            with pytest.raises(OperationError, match="lengths differ"):
                sim.run_expr(E.add(E.inp("x"), E.inp("y")),
                             {"x": a, "y": b}, width=8)
        a.free()
        b.free()

    def test_mid_pipeline_executor_fault_releases_temp_and_output(self):
        """A fault after the output/temp reservations (the historical
        PR-1 leak point) must still balance."""
        sim = make_sim()
        sim.compile(mad_relu(), 8)
        rng = np.random.default_rng(2)
        feeds = {name: sim.array(rng.integers(0, 256, 4), 8)
                 for name in ("x", "w", "b")}

        def boom(*args, **kwargs):
            raise ExecutionError("injected mid-execution failure")

        with Balance(sim):
            original = sim.control.execute_on_module
            sim.control.execute_on_module = boom
            try:
                with pytest.raises(ExecutionError):
                    sim.run_expr(mad_relu(), feeds, width=8)
            finally:
                sim.control.execute_on_module = original
        for arr in feeds.values():
            arr.free()

    def test_traced_compiled_conflict_releases_rows(self):
        """Same property through a real (non-monkeypatched) failure:
        tracing forbids the compiled engine."""
        sim = make_sim(trace=True)
        arr = sim.array([1, 2, 3], 8)
        with Balance(sim):
            with pytest.raises(ExecutionError):
                sim.run_expr(E.relu(E.inp("x")), {"x": arr}, width=8,
                             engine="compiled")
        arr.free()


class TestMapExprLifecycle:
    def test_successful_map_expr_balances(self):
        sim = make_sim()
        root = E.add(E.inp("x"), E.const(5))
        values = np.arange(sim.module.lanes * 2 + 3)
        with Balance(sim):
            got = sim.map_expr(root, {"x": values}, width=8)
        assert np.array_equal(got, (values + 5) % 256)

    def test_failing_map_expr_releases_all_blocks(self):
        sim = make_sim()
        root = E.add(E.inp("x"), E.inp("y"))
        sim.compile(root, 8)

        def boom(*args, **kwargs):
            raise ExecutionError("injected mid-map failure")

        with Balance(sim):
            original = sim.control.execute_on_module
            sim.control.execute_on_module = boom
            try:
                with pytest.raises(ExecutionError):
                    sim.map_expr(root, {"x": np.arange(10),
                                        "y": np.arange(10)}, width=8)
            finally:
                sim.control.execute_on_module = original

    def test_empty_and_mismatched_feeds_release_everything(self):
        sim = make_sim()
        root = E.add(E.inp("x"), E.inp("y"))
        with Balance(sim):
            with pytest.raises(OperationError, match="at least one"):
                sim.map_expr(root, {"x": np.array([]),
                                    "y": np.array([])}, width=8)
            with pytest.raises(OperationError, match="lengths differ"):
                sim.map_expr(root, {"x": np.arange(4),
                                    "y": np.arange(5)}, width=8)

    def test_repeated_map_expr_does_not_fragment(self):
        """Batched reuse must not slowly consume the D-group: many
        calls leave the allocator exactly where it started."""
        sim = make_sim()
        root = E.relu(E.sub(E.inp("x"), E.const(9)))
        with Balance(sim):
            for length in (1, 7, sim.module.lanes, sim.module.lanes + 1):
                sim.map_expr(root, {"x": np.arange(length)}, width=8)
