"""Execution plans are built once per kernel, not once per module.

A µProgram carries its own plan table (``MicroProgram.plans``), so every
module that installed a kernel — a cluster's members, a lazy device over
the cluster, a replica holding a forked kernel — shares its plans and
their compiled executors.  Each module still counts its own lookups: the
module that builds a plan counts the miss, every later ask is a hit.
Kernels compiled separately (fresh modules) share nothing.
"""

from __future__ import annotations

import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro import lazy
from repro.core.framework import Simdram, SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.exec import control_unit
from repro.exec.engines import get_engine, list_engines
from repro.runtime import replica
from repro.runtime.cluster import SimdramCluster
from repro.runtime.replica import ReplicaSet, WorkDescriptor

CONFIG = SimdramConfig(geometry=DramGeometry.sim_small(
    cols=32, data_rows=512, banks=2))


@pytest.fixture
def builds(monkeypatch):
    """Record every plan build as ``(program, layout key, geometry)`` and
    every executor build as ``(plan, engine)`` — objects by ``id``, kept
    alive in ``held`` so that no ``id`` is reused."""
    made = {"plans": [], "executors": [], "held": []}
    build_plan = control_unit.compile_plan

    def plan(program, layout, geometry):
        made["held"].append(program)
        made["plans"].append((id(program), layout.cache_key(), geometry))
        return build_plan(program, layout, geometry)

    monkeypatch.setattr(control_unit, "compile_plan", plan)
    for engine in {type(get_engine(name)) for name in list_engines()
                   if get_engine(name).executes_plans}:
        def compile_(self, built, _compile=engine.compile):
            made["held"].append(built)
            made["executors"].append((id(built), self.name))
            return _compile(self, built)
        monkeypatch.setattr(engine, "compile", compile_)
    return made


def counters(modules) -> list[tuple[int, int]]:
    return [(sim.control.plan_cache_misses, sim.control.plan_cache_hits)
            for sim in modules]


class TestSharing:
    def test_cluster_members_share_one_plan(self, builds):
        """Four fresh members bind the same layout: the first builds the
        plan and its executor (one miss), the other three hit them."""
        with SimdramCluster(4, config=CONFIG, seed=1) as cluster:
            x = np.arange(cluster.lanes) % 256
            y = (7 * np.arange(cluster.lanes)) % 256
            got = cluster.map("add", x, y, width=8)
            assert np.array_equal(got, (x + y) % 256)
            assert len(builds["plans"]) == len(builds["executors"]) == 1
            first = counters(cluster.modules)
            assert sorted(first) == [(0, 1), (0, 1), (0, 1), (1, 0)]
            cluster.map("add", x, y, width=8)
            assert counters(cluster.modules) == [
                (misses, hits + 1) for misses, hits in first]
            assert len(builds["plans"]) == 1

    def test_cluster_and_lazy_device_build_each_plan_once(self, builds):
        """Eager and lazy work over one cluster: one plan per distinct
        (kernel, layout, geometry), one executor per plan, and
        every miss is a build."""
        with SimdramCluster(4, config=CONFIG, seed=1) as cluster:
            device = lazy.device(cluster)
            rng = np.random.default_rng(5)
            x = rng.integers(0, 256, cluster.lanes)
            y = rng.integers(0, 256, cluster.lanes)
            for _ in range(2):
                got = cluster.map("add", x, y, width=8)
                assert np.array_equal(got, (x + y) % 256)
                lx = lazy.array(x, width=8, device=device)
                ly = lazy.array(y, width=8, device=device)
                got = (lx * 2 + ly).numpy()
                assert np.array_equal(got, (x * 2 + y) % 256)
            plans, executors = builds["plans"], builds["executors"]
            assert len(plans) >= 2
            assert len(set(plans)) == len(plans)
            assert len(set(executors)) == len(executors) == len(plans)
            looked_up = counters(cluster.modules)
            assert sum(misses for misses, _ in looked_up) == len(plans)
            assert sum(hits for _, hits in looked_up) >= 3 * len(plans)

    def test_separately_compiled_kernels_share_nothing(self, builds):
        """Plans live on a kernel, not in a table keyed by its contents:
        a fresh module compiling the same operation builds its own."""
        x = np.arange(8)
        for seed in (1, 2):
            sim = Simdram(CONFIG, seed=seed)
            assert np.array_equal(sim.map("add", x, x, width=8), 2 * x)
            assert counters([sim]) == [(1, 0)]
        assert len(builds["plans"]) == len(builds["executors"]) == 2


def wait_until_inside(thread: threading.Thread, code) -> None:
    """Wait until ``thread`` is running (or blocked in) ``code``."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        frame = sys._current_frames().get(thread.ident)
        while frame is not None:
            if frame.f_code is code:
                return
            frame = frame.f_back
        time.sleep(0.001)
    raise AssertionError(f"{thread.name} never reached {code.co_name}")


def test_racing_modules_build_one_plan(builds, monkeypatch):
    """Two modules race the first dispatch of one kernel: the second
    waits while the first builds, then replays what it built."""
    first, second = Simdram(CONFIG, seed=1), Simdram(CONFIG, seed=2)
    second.adopt(first.compile("add", 8))
    entered, release = threading.Event(), threading.Event()
    build = control_unit.compile_plan

    def held_build(*args):
        entered.set()
        assert release.wait(timeout=10)
        return build(*args)

    monkeypatch.setattr(control_unit, "compile_plan", held_build)
    x = np.arange(first.lanes) % 256
    y = (x * 3) % 256
    results = {}

    def dispatch(sim: Simdram) -> None:
        results[sim] = sim.map("add", x, y, width=8)

    threads = [threading.Thread(target=dispatch, args=(sim,))
               for sim in (first, second)]
    threads[0].start()
    try:
        assert entered.wait(timeout=5)
        threads[1].start()
        wait_until_inside(threads[1],
                          control_unit.ControlUnit.plan_for.__code__)
    finally:
        release.set()
        for thread in threads:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds["plans"]) == len(builds["executors"]) == 1
    for sim in (first, second):
        assert np.array_equal(results[sim], (x + y) % 256)
    assert counters([first, second]) == [(1, 0), (0, 1)]


def test_stress_threads_on_many_modules(builds):
    """More threads than cores, one module each, sharing two kernels and
    binding three layouts, under a short switch interval: no plan or
    executor is built twice, every miss is a build, every answer is
    exact."""
    kernels = [Simdram(CONFIG).compile(op, 8) for op in ("add", "sub")]
    sims = [Simdram(CONFIG, seed=seed) for seed in range(6)]
    for sim in sims:
        for kernel in kernels:
            sim.adopt(kernel)
    errors = []

    def work(sim: Simdram, seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            for _ in range(12):
                # A pad of 1-3 rows shifts the rows map binds.
                pad = sim.array([0], width=int(rng.integers(1, 4)))
                x, y = rng.integers(0, 256, (2, sim.lanes))
                assert np.array_equal(sim.map("add", x, y, width=8),
                                      (x + y) % 256)
                assert np.array_equal(sim.map("sub", x, y, width=8),
                                      (x - y) % 256)
                pad.free()
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=work, args=(sim, seed))
               for seed, sim in enumerate(sims)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    plans, executors = builds["plans"], builds["executors"]
    assert len(set(plans)) == len(plans) <= 2 * 3
    assert len(set(executors)) == len(executors) == len(plans)
    assert sum(sim.control.plan_cache_misses for sim in sims) == len(plans)
    assert sum(sim.control.plan_cache_hits
               for sim in sims) == 6 * 12 * 2 - len(plans)


class TestPickling:
    def test_warmed_kernel_pickles_as_an_unwarmed_one(self):
        sim = Simdram(CONFIG)
        kernel = sim.compile("add", 8)
        cold = pickle.dumps(kernel)
        sim.warm_executor(kernel, engine="compiled")
        (plan,) = kernel.program.plans.values()
        assert plan.executor is not None
        assert pickle.dumps(kernel) == cold
        assert not pickle.loads(cold).program.plans

    def test_replicas_adopt_and_run_warmed_kernels(self, monkeypatch):
        """A warmed kernel crosses to a replica by fork (spawn manifest)
        and by a ``warm`` message, which carries no plan; the replica
        runs both bit-exact."""
        local = Simdram(CONFIG)
        kernels = {op: local.compile(op, 8) for op in ("add", "sub")}
        for kernel in kernels.values():
            local.warm_executor(kernel)
        monkeypatch.setattr(
            replica, "compile_for",
            lambda config, op, width, backend: kernels[op])
        x = np.array([9, 200, 7, 0])
        y = np.array([4, 100, 7, 255])
        with ReplicaSet(1, n_modules=1, config=CONFIG,
                        manifest=[("sub", 8)]) as replicas:
            (child,) = replicas.replicas
            sizes = []

            def send(message, _send=child.send):
                if message[0] == "warm":
                    sizes.append(len(pickle.dumps(message)))
                _send(message)

            child.send = send
            assert replicas.warm([("add", 8)]) == {0: 1}
            # ~4 KB: the µProgram, not its plans or executors.
            assert len(sizes) == 1 and sizes[0] < 5000
            for op, golden in (("add", x + y), ("sub", x - y)):
                desc = WorkDescriptor(kind="op", op_name=op, root=None,
                                      slot_names=(), width=8,
                                      engine="auto")
                values, _ = replicas.submit(0, desc, [x, y],
                                            lanes=4).result(60)
                assert np.array_equal(values, golden % 256)
