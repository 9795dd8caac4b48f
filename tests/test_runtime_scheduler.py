"""Async job scheduler: ordering, concurrency, failure propagation."""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest

from repro import lazy
from repro.core import expr as E
from repro.core.framework import SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.errors import ExecutionError, OperationError
from repro.obs.tracing import NOOP_SPAN, Span, use_span
from repro.runtime import SimdramCluster
from repro.runtime.scheduler import JobScheduler


def small_cluster(n_modules: int = 2) -> SimdramCluster:
    config = SimdramConfig(geometry=DramGeometry.sim_small(
        cols=16, data_rows=256, banks=1))
    return SimdramCluster(n_modules, config=config)


@contextlib.contextmanager
def held(scheduler: JobScheduler, module_index: int = 0, then=None,
         span=NOOP_SPAN, **job):
    """Hold a module with ``scheduler.run`` on a helper thread for the
    length of the block (an idle module runs a submitted job on the
    submitting thread, so this is how a test makes one busy).  ``then``
    runs on the held module when the block ends, before the helper
    runs what waited meanwhile; ``span`` is the helper's ambient trace
    span; ``job`` goes to ``run`` (e.g. ``writes=``).  Yields the
    helper thread."""
    started, release = threading.Event(), threading.Event()

    def hold():
        started.set()
        assert release.wait(timeout=5)
        if then is not None:
            then()

    def hold_module():
        with use_span(span):
            scheduler.run([(module_index, hold)], **job)

    helper = threading.Thread(target=hold_module, daemon=True)
    helper.start()
    assert started.wait(timeout=5)
    try:
        yield helper
    finally:
        release.set()
        helper.join(timeout=5)
    assert not helper.is_alive()


def wait_until_blocked(thread: threading.Thread) -> None:
    """Wait until ``thread`` blocks in ``Future.result()``: its job is
    submitted, so whatever it could run itself has run and the rest of
    the job waits (in a FIFO, or on a dependency)."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        frame = sys._current_frames().get(thread.ident)
        while frame is not None:
            if frame.f_code is Future.result.__code__:
                return
            frame = frame.f_back
        time.sleep(0.001)
    raise AssertionError(f"{thread.name} never blocked on a future")


def run_threads(threads: list[threading.Thread],
                timeout: float = 30.0) -> None:
    """Start ``threads`` as daemons and join them against one deadline:
    a thread stuck past it fails the test without holding the process
    open."""
    for thread in threads:
        thread.daemon = True
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads)


def assert_idle(scheduler: JobScheduler) -> None:
    """Every module let go: no subtask waiting or running anywhere."""
    assert scheduler._busy == [0] * len(scheduler._busy)
    assert not any(scheduler._waiting)


def fake_tensor() -> SimpleNamespace:
    """What the scheduler reads of a tensor: its dependency slots."""
    return SimpleNamespace(last_writer=None, reader_futures=[])


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
        they were issued, whether submitted (``submit``) or waited for
        (``run``)."""
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
        assert scheduler.run(job(2)) == [2]
        futures.append(scheduler.submit(job(3)))
        assert scheduler.run(job(4)) == [4]
        assert scheduler.run(job(5)) == [5]
        assert [f.result() for f in futures] == [[0], [1], [3]]
        assert order == [0, 1, 2, 3, 4, 5]
        assert overlaps == []
        scheduler.close()

    def test_independent_jobs_overlap_across_modules(self):
        """Jobs on different modules run concurrently (two callers, one
        per module, must be inside their bodies at the same time)."""
        scheduler = JobScheduler(2)
        barrier = threading.Barrier(2, timeout=5)
        results = [None, None]

        def body():
            barrier.wait()  # deadlocks unless both run concurrently
            return threading.get_ident()

        def caller(module_index):
            results[module_index] = scheduler.run([(module_index, body)])

        callers = [threading.Thread(target=caller, args=(m,))
                   for m in range(2)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=5)
        assert results == [[thread.ident] for thread in callers]
        assert_idle(scheduler)
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
        """A module another caller holds gets the job's subtasks in its
        FIFO, and the holder runs them before letting it go; the idle
        module runs all of its subtasks on the submitting thread before
        ``submit`` returns.  Each module sees its subtasks in
        submission order."""
        scheduler = JobScheduler(2)
        seen: list[tuple[int, str, int]] = []

        def record(module_index, tag):
            return lambda: seen.append((module_index, tag,
                                        threading.get_ident()))

        caller = threading.get_ident()
        with held(scheduler, 0) as holder:
            future = scheduler.submit(
                [(0, record(0, "a0")), (1, record(1, "b0")),
                 (0, record(0, "a1")), (1, record(1, "b1"))])
            assert seen == [(1, "b0", caller), (1, "b1", caller)]
            assert not future.done()
            assert len(scheduler._waiting[0]) == 2
        future.result(timeout=5)
        assert [tag for m, tag, _ in seen if m == 0] == ["a0", "a1"]
        assert all(ident == holder.ident for m, _, ident in seen if m == 0)
        assert (scheduler.subtasks_queued, scheduler.subtasks_inline) \
            == (2, 3)
        assert_idle(scheduler)
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
            assert_idle(cluster.scheduler)
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

    def test_unsettled_dependency_runs_on_the_settling_thread(self):
        """A job whose writer is still running waits without a thread
        of its own; the thread that settles the writer dispatches it
        (here into the FIFO of the module that thread still holds, so
        it runs there next)."""
        with small_cluster(1) as cluster:
            tensor = cluster.tensor([1, 2, 3], 8)
            module = cluster.modules[0]
            real_read = module.read
            readers: list[int] = []

            def traced_read(*args, **kwargs):
                readers.append(threading.get_ident())
                return real_read(*args, **kwargs)

            module.read = traced_read
            queued = cluster.scheduler.subtasks_queued
            inline = cluster.scheduler.subtasks_inline
            values = []
            with held(cluster.scheduler, 0, writes=[tensor]) as holder:
                reader = threading.Thread(
                    target=lambda: values.append(tensor.to_numpy()))
                reader.start()
                wait_until_blocked(reader)
                assert reader.is_alive()    # waits behind the writer
                assert readers == []
                assert not any(cluster.scheduler._waiting)
            reader.join(timeout=5)
            assert not reader.is_alive()
            assert readers == [holder.ident]
            assert list(values[0]) == [1, 2, 3]
            assert (cluster.scheduler.subtasks_queued - queued,
                    cluster.scheduler.subtasks_inline - inline) == (1, 1)
            assert_idle(cluster.scheduler)

    def test_map_waits_behind_a_queued_async_job(self):
        """A ``map`` on a module another caller holds waits in its FIFO
        and runs on the holder's thread, after the holder's own job."""
        with small_cluster(1) as cluster:
            order: list[tuple[str, int]] = []
            module = cluster.modules[0]
            real_map = module.map

            def traced_map(*args, **kwargs):
                order.append(("map", threading.get_ident()))
                return real_map(*args, **kwargs)

            module.map = traced_map
            host = np.arange(5)
            results = []
            queued = cluster.scheduler.subtasks_queued
            inline = cluster.scheduler.subtasks_inline
            with held(cluster.scheduler, 0, then=lambda: order.append(
                    ("async", threading.get_ident()))) as holder:
                caller = threading.Thread(
                    target=lambda: results.append(cluster.map("add", host,
                                                              host)))
                caller.start()
                wait_until_blocked(caller)
                assert caller.is_alive() and order == []
            caller.join(timeout=5)
            assert order == [("async", holder.ident), ("map", holder.ident)]
            assert np.array_equal(results[0], 2 * host)
            assert (cluster.scheduler.subtasks_queued - queued,
                    cluster.scheduler.subtasks_inline - inline) == (1, 1)
            assert_idle(cluster.scheduler)

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
            assert_idle(cluster.scheduler)
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
            run_threads([threading.Thread(target=caller, args=(seed,))
                         for seed in range(n_threads)])
        finally:
            sys.setswitchinterval(interval)
        scheduler.barrier()
        assert counters == [sum(t[m] for t in tallies) for m in range(2)]
        assert_idle(scheduler)
        scheduler.close()

    def test_warm_waits_for_a_busy_module(self):
        """``cluster.warm`` binds (allocates and frees) rows, so it runs
        holding the module, never beside a dispatch in flight: on a
        held module it waits and the holder runs it; the idle module
        warms on the warming thread."""
        with small_cluster(2) as cluster:
            warmed_by: list[tuple[int, int]] = []
            for index, sim in enumerate(cluster.modules):
                def traced(*args, _real=sim.warm_executor, _index=index,
                           **kwargs):
                    warmed_by.append((_index, threading.get_ident()))
                    return _real(*args, **kwargs)
                sim.warm_executor = traced
            queued = cluster.scheduler.subtasks_queued
            inline = cluster.scheduler.subtasks_inline
            with held(cluster.scheduler, 0) as holder:
                warmer = threading.Thread(target=cluster.warm,
                                          args=("add", 8))
                warmer.start()
                wait_until_blocked(warmer)
                assert warmer.is_alive()
                assert warmed_by == [(1, warmer.ident)]
            warmer.join(timeout=5)
            assert not warmer.is_alive()
            assert warmed_by == [(1, warmer.ident), (0, holder.ident)]
            assert (cluster.scheduler.subtasks_queued - queued,
                    cluster.scheduler.subtasks_inline - inline) == (1, 2)
            assert_idle(cluster.scheduler)
            misses = [sim.control.plan_cache_misses
                      for sim in cluster.modules]
            host = np.arange(3)
            cluster.map("add", host, host)
            assert [sim.control.plan_cache_misses
                    for sim in cluster.modules] == misses


class TestFlatCombining:
    """A busy module's subtasks wait in its FIFO and the thread holding
    the module runs them; the scheduler starts no thread."""

    def test_mixed_drill_starts_no_thread(self, monkeypatch):
        """Four callers mixing every cluster verb on two modules: the
        only threads started are the test's own four."""
        started: list[threading.Thread] = []
        real_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        tap = E.op("add", E.inp("acc"), E.op("mul", E.inp("x"), 3))
        errors: list[BaseException] = []
        with small_cluster(2) as cluster:
            device = lazy.device(cluster)

            def drill(seed: int) -> None:
                rng = np.random.default_rng(seed)
                try:
                    for _ in range(3):
                        host = rng.integers(0, 64, 40)
                        a = cluster.tensor(host, 8)
                        b = cluster.submit("add", a, a).tensor
                        c = cluster.run_expr(tap, {"x": a, "acc": b},
                                             width=8)
                        a.free()
                        assert np.array_equal(c.to_numpy(),
                                              (5 * host) % 256)
                        b.free()
                        c.free()
                        assert np.array_equal(
                            cluster.map("sub", host, host // 2),
                            host - host // 2)
                        cluster.warm("max", 8)
                        x = lazy.array(host, width=8, device=device)
                        assert np.array_equal((x + 7).numpy(),
                                              (host + 7) % 256)
                except Exception as error:  # reported below
                    errors.append(error)

            callers = [threading.Thread(target=drill, args=(seed,))
                       for seed in range(4)]
            run_threads(callers)
            assert errors == []
            assert started == callers
            assert_idle(cluster.scheduler)

    def test_cross_module_dependency_chains_under_contention(self):
        """Stress: six threads each build chains that alternate modules
        (a on m0 -> b on m1 -> c on m0 ...), mostly submitted ahead and
        sometimes waited for link by link, at a short switch interval.
        Every future resolves, every value is exact, no two subtasks
        share a module, and every module ends let go with its FIFO
        empty — a hand-off lost between "FIFO empty" and "count zero"
        strands a subtask and times its future out."""
        scheduler = JobScheduler(2)
        counters = [0, 0]
        n_threads, n_chains, length = 6, 8, 6
        tallies = [0] * n_threads
        failures: list[BaseException] = []

        def step(module_index: int, values: list, link: int) -> None:
            value = counters[module_index]
            time.sleep(0)   # invite a switch inside the update
            counters[module_index] = value + 1
            values.append(3 * values[-1] + link)

        def caller(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                chains = []
                for chain in range(n_chains):
                    values = [seed * 100 + chain]
                    tensor, futures = fake_tensor(), []
                    start = int(rng.integers(2))
                    for link in range(length):
                        out = fake_tensor()
                        module_index = (start + link) % 2
                        job = [(module_index, (
                            lambda m=module_index, v=values, k=link:
                            step(m, v, k)))]
                        future = scheduler.submit(job, reads=[tensor],
                                                  writes=[out])
                        if rng.random() < 0.2:
                            future.result(timeout=10)
                        futures.append(future)
                        tensor = out
                        tallies[seed] += 1
                    chains.append((values, futures))
                for values, futures in chains:
                    for future in futures:
                        future.result(timeout=10)
                    expected = [values[0]]
                    for link in range(length):
                        expected.append(3 * expected[-1] + link)
                    assert values == expected
            except Exception as error:  # reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads([threading.Thread(target=caller, args=(seed,))
                         for seed in range(n_threads)])
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        scheduler.barrier()
        assert sum(counters) == sum(tallies)
        assert_idle(scheduler)
        scheduler.close()

    def test_waited_subtask_traces_under_its_submitter(self):
        """A ``map`` that waited for a held module runs on the holder's
        thread, yet its ``cluster.dispatch`` span lands under the
        submitter's root, not under the root the holder runs in."""
        with small_cluster(1) as cluster:
            host = np.arange(6)
            cluster.map("add", host, host)            # warm-up
            holder_root, submitter_root = Span("holder"), Span("submitter")
            results = []

            def submit() -> None:
                with use_span(submitter_root):
                    results.append(cluster.map("add", host, host))

            with held(cluster.scheduler, span=holder_root) as holder:
                submitter = threading.Thread(target=submit)
                submitter.start()
                wait_until_blocked(submitter)
                assert submitter.is_alive()
            submitter.join(timeout=5)
            assert np.array_equal(results[0], 2 * host)
            dispatch = submitter_root.find("cluster.dispatch")
            assert dispatch is not None and dispatch.parent is submitter_root
            assert dispatch.tid == holder.ident != submitter.ident
            assert holder_root.find("cluster.dispatch") is None

    def test_waited_failure_reaches_only_its_future_and_dependents(self):
        """Of three jobs waiting for one held module, the failing one
        fails its own future and its dependent's; the holder's job, an
        independent waiter and the failing job's other-module sibling
        are untouched, and the modules are let go."""
        class Injected(Exception):
            pass

        def boom():
            raise Injected("waited failure")

        with small_cluster(2) as cluster:
            scheduler = cluster.scheduler
            written, other = fake_tensor(), fake_tensor()
            ran: list[str] = []
            with held(scheduler, 0) as holder:
                failing = scheduler.submit(
                    [(1, lambda: ran.append("sibling")), (0, boom)],
                    writes=[written])
                dependent = scheduler.submit(
                    [(1, lambda: ran.append("dependent"))],
                    reads=[written])
                independent = scheduler.submit(
                    [(0, lambda: ran.append("independent") or 7)],
                    writes=[other])
                assert ran == ["sibling"]
            with pytest.raises(Injected, match="waited failure"):
                failing.result(timeout=5)
            with pytest.raises(ExecutionError, match="dependency failed"):
                dependent.result(timeout=5)
            assert independent.result(timeout=5) == [7]
            assert not holder.is_alive()
            assert ran == ["sibling", "independent"]
            assert_idle(scheduler)
            host = np.arange(5)
            assert np.array_equal(cluster.map("add", host, host), 2 * host)


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
