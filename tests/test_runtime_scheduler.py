"""Async job scheduler: ordering, concurrency, failure propagation."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro import lazy
from repro.core import expr as E
from repro.core.framework import SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.errors import ExecutionError, OperationError
from repro.runtime import SimdramCluster
from repro.runtime.scheduler import JobScheduler


def small_cluster(n_modules: int = 2) -> SimdramCluster:
    config = SimdramConfig(geometry=DramGeometry.sim_small(
        cols=16, data_rows=256, banks=1))
    return SimdramCluster(n_modules, config=config)


class TestRawScheduler:
    def test_results_in_subtask_order(self):
        scheduler = JobScheduler(3)
        future = scheduler.submit([(m, (lambda m=m: m * 10))
                                   for m in range(3)])
        assert future.result() == [0, 10, 20]
        scheduler.close()

    def test_finalizer_shapes_the_result(self):
        scheduler = JobScheduler(2)
        future = scheduler.submit([(0, lambda: 1), (1, lambda: 2)],
                                  finalizer=sum)
        assert future.result() == 3
        scheduler.close()

    def test_same_module_subtasks_serialize(self):
        """Jobs on one module never interleave and run in the order
        they were issued, whether queued (``submit``) or waited for by
        a caller that may run them itself (``run``)."""
        scheduler = JobScheduler(1)
        active = []
        overlaps = []
        order = []

        def body(tag):
            active.append(tag)
            if len(active) > 1:
                overlaps.append(list(active))
            order.append(tag)
            time.sleep(0.01)
            active.remove(tag)
            return tag

        def job(tag):
            return [(0, (lambda: body(tag)))]

        futures = [scheduler.submit(job(t)) for t in range(2)]
        assert scheduler.run(job(2)) == [2]      # queued behind 0 and 1
        futures.append(scheduler.submit(job(3)))
        assert scheduler.run(job(4)) == [4]      # queued behind 3
        assert scheduler.run(job(5)) == [5]      # idle: runs inline
        assert [f.result() for f in futures] == [[0], [1], [3]]
        assert order == [0, 1, 2, 3, 4, 5]
        assert overlaps == []
        scheduler.close()

    def test_independent_jobs_overlap_across_modules(self):
        """Jobs on different modules run concurrently (both workers
        must be inside their bodies at the same time)."""
        scheduler = JobScheduler(2)
        barrier = threading.Barrier(2, timeout=5)

        def body():
            barrier.wait()  # deadlocks unless both run concurrently
            return True

        futures = [scheduler.submit([(m, body)]) for m in range(2)]
        assert all(f.result(timeout=5) for f in futures)
        scheduler.close()

    def test_failure_propagates_to_dependents(self):
        cluster = small_cluster()
        tensor = cluster.tensor([1, 2, 3], 8)

        def boom():
            raise RuntimeError("injected")

        failing = cluster.scheduler.submit([(0, boom)], writes=[tensor])
        dependent = cluster.scheduler.submit([(0, lambda: "ran")],
                                             reads=[tensor])
        with pytest.raises(RuntimeError, match="injected"):
            failing.result()
        with pytest.raises(ExecutionError, match="dependency failed"):
            dependent.result()
        cluster.scheduler.barrier(raise_on_error=False)
        cluster.close()

    def test_closed_scheduler_rejects_submissions(self):
        scheduler = JobScheduler(1)
        scheduler.close()
        with pytest.raises(ExecutionError, match="closed"):
            scheduler.submit([(0, lambda: None)])


class TestCallerRuns:
    """A waiting caller runs its own subtask on an idle module."""

    @staticmethod
    def module_threads(before: set[int]) -> list[str]:
        """Names of module worker threads started since ``before``."""
        return [t.name for t in threading.enumerate()
                if t.name.startswith("simdram-mod")
                and t.ident not in before]

    def test_map_only_cluster_starts_no_worker_thread(self):
        before = {t.ident for t in threading.enumerate()}
        with small_cluster(1) as cluster:
            for n in (3, 16, 40):   # 40 > 16 lanes: several batches
                host = np.arange(n)
                assert np.array_equal(cluster.map("add", host, host),
                                      (2 * host) % 256)
            cluster.warm("add", 8)
            assert self.module_threads(before) == []

    def test_warm_cluster_verbs_queue_nothing(self):
        """Loads, async runs, frees, a lazy evaluation and a tensor with
        more shards than modules all run where they are submitted on a
        warmed cluster: no subtask is queued, no worker starts."""
        before = {t.ident for t in threading.enumerate()}
        rng = np.random.default_rng(5)
        image = rng.integers(0, 64, 40)           # 3 shards on 4 modules
        wide = rng.integers(0, 256, 100)          # 7 shards on 4 modules
        tap = E.op("add", E.inp("acc"), E.op("mul", E.inp("x"), 3))
        with small_cluster(4) as cluster:
            device = lazy.device(cluster)

            def pipelines():
                acc = cluster.tensor(np.zeros(40, dtype=np.int64), 8)
                for shift in range(2):
                    pixels = cluster.tensor((image + shift) % 256, 8)
                    new_acc = cluster.run_expr(
                        tap, {"x": pixels, "acc": acc}, width=8)
                    pixels.free()
                    acc.free()
                    acc = new_acc
                assert np.array_equal(acc.to_numpy(),
                                      (3 * (2 * image + 1)) % 256)
                acc.free()
                x = lazy.array(image, width=8, device=device)
                assert np.array_equal(((x * 3) + 1).numpy(),
                                      (3 * image + 1) % 256)
                tensor = cluster.tensor(wide, 8)
                doubled = cluster.run("add", tensor, tensor)
                assert np.array_equal(doubled.to_numpy(), (2 * wide) % 256)
                tensor.free()
                doubled.free()

            pipelines()                              # warm-up
            inline = cluster.scheduler.subtasks_inline
            pipelines()
            assert cluster.scheduler.subtasks_queued == 0
            assert cluster.scheduler.subtasks_inline > inline
            assert self.module_threads(before) == []

    def test_held_module_queues_while_idle_modules_run_inline(self):
        """A module another caller holds gets the job's subtasks on its
        worker; the idle module runs all of its subtasks on the
        submitting thread before ``submit`` returns.  Each module sees
        its subtasks in submission order."""
        scheduler = JobScheduler(2)
        started, release = threading.Event(), threading.Event()

        def hold():
            started.set()
            release.wait(timeout=5)

        holder = threading.Thread(target=scheduler.run, args=([(0, hold)],))
        holder.start()
        assert started.wait(timeout=5)
        seen: list[tuple[int, str, int]] = []

        def record(module_index, tag):
            return lambda: seen.append((module_index, tag,
                                        threading.get_ident()))

        caller = threading.get_ident()
        future = scheduler.submit(
            [(0, record(0, "a0")), (1, record(1, "b0")),
             (0, record(0, "a1")), (1, record(1, "b1"))],
            caller_runs=True)
        assert seen == [(1, "b0", caller), (1, "b1", caller)]
        assert not future.done()
        release.set()
        future.result(timeout=5)
        holder.join(timeout=5)
        assert [tag for m, tag, _ in seen if m == 0] == ["a0", "a1"]
        assert all(ident != caller for m, _, ident in seen if m == 0)
        assert (scheduler.subtasks_queued, scheduler.subtasks_inline) \
            == (2, 3)
        assert scheduler._busy == [0, 0]
        scheduler.close()

    @pytest.mark.parametrize("n_elements", [3, 70])
    def test_inline_async_failure_surfaces_through_the_future(
            self, n_elements):
        """A shard that raises inside an inline ``submit`` fails the
        handle and its dependents, not the submitting call, and leaves
        every module free — also when the failing module held several
        of the job's shards (70 elements: 5 shards on 2 modules)."""
        class Injected(Exception):
            pass

        with small_cluster(2) as cluster:
            host = np.arange(n_elements) % 256
            tensor = cluster.tensor(host, 8)
            module = cluster.modules[0]
            real_run_expr = module.run_expr
            calls = []

            def failing(*args, **kwargs):
                calls.append(args)
                raise Injected("inline failure")

            module.run_expr = failing
            handle = cluster.submit("add", tensor, tensor)
            assert handle.done()
            assert len(calls) == 1          # later shards were skipped
            with pytest.raises(Injected, match="inline failure"):
                handle.result()
            with pytest.raises(ExecutionError, match="dependency failed"):
                handle.tensor.to_numpy()
            assert not any(lock.locked()
                           for lock in cluster.scheduler._module_locks)
            assert cluster.scheduler._busy == [0, 0]
            assert cluster.scheduler.subtasks_queued == 0
            module.run_expr = real_run_expr
            out = cluster.run("add", tensor, tensor)
            assert np.array_equal(out.to_numpy(), (2 * host) % 256)

    def test_run_executes_on_the_calling_thread(self):
        scheduler = JobScheduler(2)
        caller = threading.get_ident()
        assert scheduler.run([(m, threading.get_ident)
                              for m in range(2)]) == [caller, caller]
        scheduler.close()

    def test_unsettled_dependency_takes_the_worker_path(self):
        with small_cluster(1) as cluster:
            release = threading.Event()
            tensor = cluster.tensor([1, 2, 3], 8)
            cluster.scheduler.submit([(0, release.wait)], writes=[tensor])
            reader = threading.Thread(target=tensor.to_numpy)
            reader.start()
            time.sleep(0.05)
            assert reader.is_alive()    # waits behind the writer
            release.set()
            reader.join(timeout=5)
            assert not reader.is_alive()
            assert list(tensor.to_numpy()) == [1, 2, 3]

    def test_map_waits_behind_a_queued_async_job(self):
        with small_cluster(1) as cluster:
            release = threading.Event()
            order = []

            def blocker():
                release.wait(timeout=5)
                order.append("async")

            cluster.scheduler.submit([(0, blocker)])
            module = cluster.modules[0]
            real_map = module.map

            def traced_map(*args, **kwargs):
                order.append("map")
                return real_map(*args, **kwargs)

            module.map = traced_map
            host = np.arange(5)
            results = []
            caller = threading.Thread(
                target=lambda: results.append(cluster.map("add", host,
                                                          host)))
            caller.start()
            time.sleep(0.05)
            assert caller.is_alive() and order == []
            release.set()
            caller.join(timeout=5)
            assert order == ["async", "map"]
            assert np.array_equal(results[0], 2 * host)

    def test_inline_exception_keeps_its_type_and_frees_the_module(self):
        class Injected(Exception):
            pass

        with small_cluster(1) as cluster:
            module = cluster.modules[0]
            real_map = module.map

            def failing(*args, **kwargs):
                raise Injected("inline failure")

            module.map = failing
            host = np.arange(4)
            with pytest.raises(Injected, match="inline failure"):
                cluster.map("add", host, host)
            assert not cluster.scheduler._module_locks[0].locked()
            module.map = real_map
            assert np.array_equal(cluster.map("add", host, host), 2 * host)

    def test_mixed_callers_never_share_a_module(self):
        """Stress: more threads than cores mixing ``run`` and ``submit``
        on two modules, with a short switch interval.  Each subtask does
        an unlocked read-modify-write of its module's counter; a
        subtask that ran beside another on its module would lose an
        update."""
        scheduler = JobScheduler(2)
        counters = [0, 0]
        per_thread, n_threads = 60, 6
        tallies = [[0, 0] for _ in range(n_threads)]

        def bump(module_index: int) -> None:
            value = counters[module_index]
            time.sleep(0)   # invite a switch inside the update
            counters[module_index] = value + 1

        def caller(seed: int) -> None:
            rng = np.random.default_rng(seed)
            futures = []
            for _ in range(per_thread):
                modules = [m for m in range(2) if rng.random() < 0.7] or [0]
                for m in modules:
                    tallies[seed][m] += 1
                job = [(m, (lambda m=m: bump(m))) for m in modules]
                if rng.random() < 0.5:
                    scheduler.run(job)
                else:
                    futures.append(scheduler.submit(job))
            for future in futures:
                future.result(timeout=10)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(seed,))
                       for seed in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        scheduler.barrier()
        assert counters == [sum(t[m] for t in tallies) for m in range(2)]
        assert scheduler._busy == [0, 0]
        scheduler.close()

    def test_warm_waits_for_a_busy_module(self):
        """``cluster.warm`` binds (allocates and frees) rows, so it runs
        under the module's lock, never beside a dispatch in flight."""
        with small_cluster(2) as cluster:
            release = threading.Event()
            cluster.scheduler.submit([(0, lambda: release.wait(timeout=5))])
            warmer = threading.Thread(target=cluster.warm, args=("add", 8))
            warmer.start()
            time.sleep(0.05)
            assert warmer.is_alive()
            release.set()
            warmer.join(timeout=5)
            assert not warmer.is_alive()
            misses = [sim.control.plan_cache_misses
                      for sim in cluster.modules]
            host = np.arange(3)
            cluster.map("add", host, host)
            assert [sim.control.plan_cache_misses
                    for sim in cluster.modules] == misses


class TestSchedulerLifecycle:
    def test_close_is_idempotent(self):
        scheduler = JobScheduler(2)
        scheduler.submit([(0, lambda: 1), (1, lambda: 2)]).result()
        scheduler.close()
        scheduler.close()
        scheduler.close()

    def test_close_races_are_safe(self):
        """Concurrent close() calls from many threads never error and
        leave no worker thread behind."""
        scheduler = JobScheduler(2)
        scheduler.submit([(0, lambda: time.sleep(0.01))])
        threads = [threading.Thread(target=scheduler.close)
                   for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with pytest.raises(ExecutionError, match="closed"):
            scheduler.submit([(0, lambda: None)])

    def test_close_after_failed_job_does_not_raise(self):
        scheduler = JobScheduler(1)

        def boom():
            raise OperationError("kaboom")

        future = scheduler.submit([(0, boom)])
        with pytest.raises(OperationError):
            future.result()
        scheduler.close()   # drains without re-raising
        scheduler.close()

    def test_scheduler_context_manager(self):
        with JobScheduler(2) as scheduler:
            future = scheduler.submit([(0, lambda: 7)])
        assert future.result() == [7]
        with pytest.raises(ExecutionError, match="closed"):
            scheduler.submit([(0, lambda: None)])

    def test_cluster_context_manager_stops_workers(self):
        """``with SimdramCluster(...)`` leaks no worker threads, even
        when closed twice."""
        with small_cluster(2) as cluster:
            tensor = cluster.tensor([1, 2, 3], width=8)
            assert np.array_equal(
                cluster.run("add", tensor, tensor).to_numpy(),
                [2, 4, 6])
        cluster.close()
        workers = [t for t in threading.enumerate()
                   if t.name.startswith("simdram-mod")]
        assert all(not t.is_alive() for t in workers)


class TestTensorDependencies:
    def test_chain_of_dependent_jobs_is_ordered(self):
        """b = a+a; c = b*b; d = c+b — every link must observe its
        producer, concurrently submitted."""
        rng = np.random.default_rng(0)
        host = rng.integers(0, 16, 40)
        with small_cluster() as cluster:
            a = cluster.tensor(host, 8)
            b = cluster.submit("add", a, a).tensor
            c = cluster.submit("mul", b, b).tensor
            d = cluster.submit("add", c, b).tensor
            expected_b = (2 * host) % 256
            expected_c = (expected_b * expected_b) % 256
            expected_d = (expected_c + expected_b) % 256
            assert np.array_equal(d.to_numpy(), expected_d)
            assert np.array_equal(c.to_numpy(), expected_c)
            assert np.array_equal(b.to_numpy(), expected_b)

    def test_diamond_dependency(self):
        host = np.arange(30)
        with small_cluster() as cluster:
            a = cluster.tensor(host, 8)
            left = cluster.submit("add", a, a).tensor
            right = cluster.submit("mul", a, a).tensor
            joined = cluster.submit("add", left, right).tensor
            expected = ((2 * host) % 256 + (host * host) % 256) % 256
            assert np.array_equal(joined.to_numpy(), expected)

    def test_free_waits_for_readers(self):
        """Submitting free immediately after an op is safe: the free
        job is ordered after every job reading the tensor."""
        host = np.arange(40)
        with small_cluster() as cluster:
            a = cluster.tensor(host, 8)
            b = cluster.tensor(host, 8)
            handle = cluster.submit("add", a, b)
            a.free()
            b.free()
            assert np.array_equal(handle.result().to_numpy(),
                                  (2 * host) % 256)
            cluster.synchronize()
            for sim in cluster.modules:
                assert sim._allocator.allocated_blocks != []  # output only

    def test_many_concurrent_independent_jobs(self):
        rng = np.random.default_rng(7)
        hosts = [rng.integers(0, 256, 48) for _ in range(8)]
        with small_cluster(4) as cluster:
            tensors = [cluster.tensor(h, 8) for h in hosts]
            handles = [cluster.submit("add", t, t) for t in tensors]
            for host, handle in zip(hosts, handles):
                assert np.array_equal(handle.result().to_numpy(),
                                      (2 * host) % 256)

    def test_submit_validates_before_queueing(self):
        with small_cluster() as cluster:
            a = cluster.tensor([1, 2, 3], 8)
            b = cluster.tensor([1, 2, 3, 4], 8)
            with pytest.raises(OperationError, match="lengths differ"):
                cluster.submit("add", a, b)
            with pytest.raises(OperationError, match="takes 2 operands"):
                cluster.submit("add", a)

    def test_makespan_advances(self):
        with small_cluster() as cluster:
            a = cluster.tensor(np.arange(40), 8)
            assert cluster.run("add", a, a) is not None
            cluster.synchronize()
            assert cluster.makespan_ns() > 0
            assert all(sim.makespan_ns() > 0 for sim in cluster.modules)
