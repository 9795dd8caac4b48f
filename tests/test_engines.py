"""The execution-engine table and the compiled backends.

Covers the table contract (what the benchmark harness reads, unknown
and non-string specs, the ``"auto"`` resolver), the typed
:class:`~repro.errors.EngineError` paths in the control unit, engine
instances riding through the cluster's :class:`JobScheduler` on the
callers' threads, compiled-callable cache accounting, and bit-exactness of
every engine on the cluster and serve paths (the module path is swept
exhaustively in ``test_exec_plan.py``).
"""

import threading
import warnings

import numpy as np
import pytest

from repro.core.expr import inp, op
from repro.core.framework import Simdram, SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.errors import EngineError, ExecutionError
from repro.exec import control_unit
from repro.exec.engines import (
    AUTO,
    CompiledEngine,
    PerBankEngine,
    VectorizedEngine,
    get_engine,
    list_engines,
    resolve_engine,
)
from repro.lazy import LazyDevice
from repro.runtime.cluster import SimdramCluster
from repro.serve import ServeConfig, SimdramService

GEOMETRY = DramGeometry.sim_small(cols=32, data_rows=512, banks=2)

ENGINES = tuple(list_engines())


def _make_sim(trace: bool = False) -> Simdram:
    return Simdram(SimdramConfig(geometry=GEOMETRY), trace=trace,
                   seed=9)


# ---------------------------------------------------------------------------
# the table contract
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = list_engines()
        for name in ("per_bank", "vectorized", "compiled"):
            assert name in names
        assert "auto" not in names  # the resolver, not an engine

    def test_priority_order(self):
        names = list_engines()
        assert names.index("compiled") < names.index("vectorized")
        assert names.index("vectorized") < names.index("per_bank")

    def test_get_engine_passes_instances_through(self):
        engine = CompiledEngine()
        assert get_engine(engine) is engine
        assert get_engine("auto") is AUTO

    def test_unknown_string_raises_typed_error(self):
        with pytest.raises(EngineError, match="unknown engine 'warp'"):
            get_engine("warp")

    def test_unknown_string_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EngineError, match="unknown engine"):
                get_engine("warp")

    @pytest.mark.parametrize("spec", [42, None, ["compiled"]])
    def test_non_string_spec_raises_typed_error(self, spec):
        with pytest.raises(EngineError, match="unknown engine"):
            get_engine(spec)

    def test_auto_is_compiled_on_vectorizable_banks(self):
        assert resolve_engine("auto", vectorizable=True) \
            is get_engine("compiled")

    def test_auto_nonvectorizable_falls_to_per_bank(self):
        assert resolve_engine("auto", vectorizable=False).name \
            == "per_bank"


class TestFrozenByBenchmark:
    """What ``benchmarks/e2e`` reads from this module: ``run.py``
    records ``list_engines(available_only=True)`` in its ``env`` block
    and ``compare.py`` refuses files whose lists differ; ``spans.py``
    wraps ``compile`` on the type of every engine that
    ``executes_plans``.  (``get_engine("auto") is AUTO`` is pinned in
    ``TestRegistry``.)"""

    def test_available_engine_list(self):
        assert list_engines(available_only=True) \
            == ["compiled", "vectorized", "per_bank"]

    def test_executes_plans_per_engine_type(self):
        assert {name: type(get_engine(name)).executes_plans
                for name in list_engines()} \
            == {"compiled": True, "vectorized": True, "per_bank": False}
        assert type(get_engine("compiled")) is CompiledEngine
        assert type(get_engine("vectorized")) is VectorizedEngine
        assert type(get_engine("per_bank")) is PerBankEngine


# ---------------------------------------------------------------------------
# control-unit error paths (satellite: typed EngineError + auto fallback)
# ---------------------------------------------------------------------------
class TestControlUnitErrorPaths:
    @pytest.mark.parametrize("engine", ["vectorized", "compiled"])
    def test_vectorizable_only_on_traced_module_raises_typed(
            self, engine):
        sim = _make_sim(trace=True)
        a = sim.array([1, 2], width=8)
        b = sim.array([3, 4], width=8)
        with pytest.raises(EngineError, match="traced"):
            sim.run("add", a, b, engine=engine)

    def test_engine_instance_on_traced_module_raises_typed(self):
        sim = _make_sim(trace=True)
        a = sim.array([1, 2], width=8)
        b = sim.array([3, 4], width=8)
        with pytest.raises(EngineError):
            sim.run("add", a, b, engine=VectorizedEngine())

    def test_engine_error_is_execution_error(self):
        # Legacy callers catch ExecutionError; the typed subclass must
        # stay inside that net.
        assert issubclass(EngineError, ExecutionError)

    def test_auto_silently_falls_back_on_traced_module(self):
        sim = _make_sim(trace=True)
        a = sim.array([1, 2, 3], width=8)
        b = sim.array([10, 20, 30], width=8)
        out = sim.run("add", a, b, engine="auto")  # must not raise
        assert np.array_equal(out.to_numpy(), [11, 22, 33])

    def test_unknown_engine_string_raises_before_dispatch(self):
        sim = _make_sim()
        a = sim.array([1], width=8)
        b = sim.array([2], width=8)
        with pytest.raises(EngineError):
            sim.run("add", a, b, engine="warp")


# ---------------------------------------------------------------------------
# engine instances through every public entry point
# ---------------------------------------------------------------------------
class TestInstanceEntryPoints:
    def test_module_run_and_map_accept_instances(self):
        sim = _make_sim()
        engine = CompiledEngine()
        a = sim.array([5, 6, 7], width=8)
        b = sim.array([1, 2, 3], width=8)
        out = sim.run("sub", a, b, engine=engine)
        assert np.array_equal(out.to_numpy(), [4, 4, 4])
        mapped = sim.map("add", np.arange(100), np.arange(100),
                         width=8, engine=engine)
        assert np.array_equal(mapped, np.arange(100) * 2)

    def test_module_expr_entry_points_accept_instances(self):
        sim = _make_sim()
        engine = CompiledEngine()
        root = op("add", op("mul", inp("a"), inp("w")), inp("b"))
        feeds = {"a": sim.array([2, 3], width=8),
                 "w": sim.array([4, 5], width=8),
                 "b": sim.array([1, 1], width=8)}
        out = sim.run_expr(root, feeds, width=8, engine=engine)
        assert np.array_equal(out.to_numpy(), [9, 16])
        mapped = sim.map_expr(
            root, {"a": np.array([2, 3]), "w": np.array([4, 5]),
                   "b": np.array([1, 1])}, width=8, engine=engine)
        assert np.array_equal(mapped, [9, 16])

    def test_lazy_tensor_evaluate_accepts_engine(self):
        device = LazyDevice(_make_sim())
        x = device.array([1, 2, 3], width=8)
        y = device.array([4, 5, 6], width=8)
        total = (x + y).evaluate(engine=CompiledEngine())
        assert np.array_equal(total.numpy(), [5, 7, 9])

    def test_lazy_evaluate_accepts_engine_name(self):
        device = LazyDevice(_make_sim())
        x = device.array([7, 8], width=8)
        y = device.array([1, 2], width=8)
        [out] = device.evaluate([x * y], engine="compiled")
        assert np.array_equal(out, [7, 16])


# ---------------------------------------------------------------------------
# cluster: resolved instance on the job, thread safety
# ---------------------------------------------------------------------------
class TestClusterEngines:
    def test_job_handle_carries_resolved_engine(self):
        with SimdramCluster(n_modules=2,
                            config=SimdramConfig(geometry=GEOMETRY)
                            ) as cluster:
            a = cluster.tensor(np.arange(8), width=8)
            b = cluster.tensor(np.arange(8), width=8)
            job = cluster.submit("add", a, b, engine="compiled")
            assert job.engine is get_engine("compiled")
            job.result()
            auto_job = cluster.submit("add", a, b)
            assert auto_job.engine is AUTO
            auto_job.result()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cluster_bit_exact_per_engine(self, engine):
        rng = np.random.default_rng(17)
        a = rng.integers(0, 200, 100)
        b = rng.integers(0, 200, 100)
        with SimdramCluster(n_modules=2,
                            config=SimdramConfig(geometry=GEOMETRY)
                            ) as cluster:
            ta = cluster.tensor(a, width=8)
            tb = cluster.tensor(b, width=8)
            out = cluster.run("add", ta, tb, engine=engine)
            assert np.array_equal(cluster.read_tensor(out),
                                  (a + b) % 256)
            mapped = cluster.map("mul", a, b, width=8, engine=engine)
            assert np.array_equal(mapped, (a * b) % 256)

    def test_one_instance_shared_across_worker_threads(self):
        """One CompiledEngine instance serves concurrent jobs on every
        module; compiles happen under the per-module control unit
        lock, so results stay bit-exact with no duplicated or
        torn codegen state."""
        engine = CompiledEngine()
        rng = np.random.default_rng(23)
        vectors = [(rng.integers(0, 100, 64), rng.integers(0, 100, 64))
                   for _ in range(12)]
        with SimdramCluster(n_modules=4,
                            config=SimdramConfig(geometry=GEOMETRY)
                            ) as cluster:
            jobs = []
            for a, b in vectors:
                ta = cluster.tensor(a, width=8)
                tb = cluster.tensor(b, width=8)
                jobs.append((a, b, cluster.submit("add", ta, tb,
                                                  engine=engine)))
            for a, b, job in jobs:
                out = job.result()
                assert np.array_equal(cluster.read_tensor(out),
                                      (a + b) % 256)

    def test_engine_compile_is_plan_pure(self):
        """compile() twice on one plan returns independent executors —
        no mutable state shared through the engine instance."""
        sim = _make_sim()
        a = sim.array([1, 2], width=8)
        b = sim.array([3, 4], width=8)
        sim.run("add", a, b, engine="compiled").free()
        (plan,) = sim.compile("add", 8).program.plans.values()
        engine = CompiledEngine()
        first, second = engine.compile(plan), engine.compile(plan)
        assert first is not second
        lock = threading.Lock()
        errors = []

        def replay(executor):
            try:
                data, planes = sim.module.vector_state(2)
                with lock:  # state is shared; codegen paths are not
                    executor(data, planes)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=replay, args=(fn,))
                   for fn in (first, second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


# ---------------------------------------------------------------------------
# cache accounting
# ---------------------------------------------------------------------------
class TestCompiledCacheAccounting:
    def test_kernel_cache_counts_compiled_callables(self):
        sim = _make_sim()
        a = sim.array([1, 2], width=8)
        b = sim.array([3, 4], width=8)
        before = sim.kernel_cache_size
        sim.run("add", a, b, engine="compiled").free()
        # +1 µProgram, +1 compiled executor on its cached plan.
        assert sim.kernel_cache_size == before + 2
        assert sim.control.compiled_cache_size() == 1
        # Replaying hits both caches: nothing new is compiled.
        sim.run("add", a, b, engine="compiled").free()
        assert sim.kernel_cache_size == before + 2
        # A second engine adds its own executor to the same plan.
        sim.run("add", a, b, engine="vectorized").free()
        assert sim.control.compiled_cache_size() == 2
        assert sim.kernel_cache_size == before + 3

    def test_executors_evicted_with_their_plan(self, monkeypatch):
        monkeypatch.setattr(control_unit, "PLANS_PER_PROGRAM", 1)
        sim = _make_sim()
        a = sim.array([1, 2], width=8)
        b = sim.array([3, 4], width=8)
        sim.run("add", a, b, engine="compiled").free()
        assert sim.control.compiled_cache_size() == 1
        # A different layout compiles a second plan; the LRU bound
        # evicts the first plan and its executor with it.
        c = sim.run("add", a, b, engine="compiled")
        sim.run("add", c, b, engine="compiled").free()
        assert sim.control.compiled_cache_size() == 1

    def test_warm_executor_precompiles(self):
        sim = _make_sim()
        kernel = sim.compile("add", 8)
        before = sim.control.compiled_cache_size()
        sim.warm_executor(kernel, engine="compiled")
        assert sim.control.compiled_cache_size() == before + 1
        # The warmed layout is the one map() binds: no new compiles.
        sim.map("add", [1, 2, 3], [4, 5, 6], width=8,
                engine="compiled")
        assert sim.control.compiled_cache_size() == before + 1

    @pytest.mark.parametrize("slow_path", ["trace", "faults"])
    def test_warm_compiles_nothing_auto_never_runs(self, slow_path):
        """``auto`` replays per bank on a traced or fault-injected
        module, so warming it must compile no executor."""
        sim = _make_sim(trace=slow_path == "trace")
        if slow_path == "faults":
            sim.module.banks[1].subarray.tra_fault_rate = 0.01
        sim.warm("add", 8)
        assert sim.control.compiled_cache_size() == 0
        assert sim.kernel_cache_size == 1


# ---------------------------------------------------------------------------
# serve path: every engine bit-exact end to end
# ---------------------------------------------------------------------------
class TestServeEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_serve_bit_exact_per_engine(self, engine):
        rng = np.random.default_rng(31)
        a = rng.integers(0, 200, 48)
        b = rng.integers(0, 200, 48)
        sim = _make_sim()
        with SimdramService(sim) as service:
            handle = service.submit("add", a, b, width=8,
                                    engine=engine)
            assert np.array_equal(handle.result(60), (a + b) % 256)

    def test_serve_accepts_engine_instance_and_config_default(self):
        """An engine instance rides its request; a request that names
        none runs on ``auto``."""
        sim = _make_sim()
        with SimdramService(sim) as service:
            handle = service.submit("mul", [3, 4], [5, 6], width=8,
                                    engine=CompiledEngine())
            assert np.array_equal(handle.result(60), [15, 24])
            default = service.submit("sub", [9], [4], width=8)
            assert np.array_equal(default.result(60), [5])
            explicit = service.submit("add", [1], [2], width=8,
                                      engine=VectorizedEngine())
            assert np.array_equal(explicit.result(60), [3])

    def test_packing_keys_by_resolved_engine_name(self):
        """Same kernel at different engines must not share a pack."""
        sim = _make_sim()
        with SimdramService(sim,
                            ServeConfig(max_lanes=64)) as service:
            with service.hold():   # both queued: they could share
                h1 = service.submit("add", [1], [2], width=8,
                                    engine="compiled")
                h2 = service.submit("add", [3], [4], width=8,
                                    engine="vectorized")
            assert np.array_equal(h1.result(60), [3])
            assert np.array_equal(h2.result(60), [7])
            assert service.stats()["packing"]["dispatches"] == 2
