"""Tests for the multi-tenant serving layer (``repro.serve``).

The load-bearing suite is :class:`TestServeDifferential`: lane-packed
serving must be **bit-exact** versus per-request sequential execution
(``Simdram.run`` / ``Simdram.run_expr``) for mixed catalog operations
at widths {4, 8, 16} on both the single-module and the cluster
backend — including a poisoned request mid-batch, which must fail its
own handle without corrupting any co-packed result.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import expr
from repro.core.expr import Expr
from repro.core.framework import Simdram, SimdramConfig
from repro.core.fuse import kernel_identity
from repro.core.operations import get_operation
from repro.dram.geometry import DramGeometry
from repro.errors import AdmissionError, OperationError
from repro.obs.metrics import MetricsRegistry
from repro.runtime import SimdramCluster
from repro.serve import ServeConfig, SimdramService
from repro.serve.batcher import LanePacker, PackGroup, prepare
from repro.serve.metrics import ServeMetrics, percentile
from repro.serve.router import ReplicaRouter
from repro.serve.service import _InProcessTarget

WIDTHS = (4, 8, 16)


def small_config(cols: int = 32, data_rows: int = 512,
                 banks: int = 2) -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=cols, data_rows=data_rows, banks=banks))


def brighten_expr() -> Expr:
    return expr.relu(expr.sub(expr.inp("x"), expr.inp("y")))


# ---------------------------------------------------------------------------
# batcher units
# ---------------------------------------------------------------------------
class TestLanePacker:
    def _request(self, op: str, n: int, width: int = 8):
        handle = _DummyHandle()
        rng = np.random.default_rng(n)
        vectors = [rng.integers(0, 1 << width, n) for _ in range(2)]
        return prepare(handle, op, vectors, None, width, "t", "auto",
                       "simdram", submitted_at=0.0)

    def test_full_group_flushes_immediately(self):
        packer = LanePacker(max_lanes=8, max_wait_s=100.0)
        assert packer.add(self._request("add", 5), now=0.0) is None
        group = packer.add(self._request("add", 3), now=0.0)
        assert group is not None and group.total_lanes == 8
        assert packer.pending_requests == 0

    def test_incompatible_keys_do_not_pack(self):
        packer = LanePacker(max_lanes=100, max_wait_s=100.0)
        packer.add(self._request("add", 2), now=0.0)
        packer.add(self._request("min", 2), now=0.0)
        packer.add(self._request("add", 2, width=4), now=0.0)
        assert len(packer.drain()) == 3

    def test_due_by_max_wait(self):
        """The oldest open group goes first, and ``next_deadline`` is
        when ``max_wait_s`` runs out for it."""
        packer = LanePacker(max_lanes=100, max_wait_s=1.0)
        assert packer.next_deadline() is None
        assert packer.take_oldest() is None
        packer.add(self._request("add", 2), now=0.0)
        packer.add(self._request("min", 2), now=0.5)
        packer.add(self._request("add", 1), now=0.7)  # joins the oldest
        assert packer.next_deadline() == pytest.approx(1.0)
        oldest = packer.take_oldest()
        assert [r.op for r in oldest.requests] == ["add", "add"]
        assert packer.next_deadline() == pytest.approx(1.5)
        assert packer.take_oldest().requests[0].op == "min"
        assert packer.next_deadline() is None

    def test_pack_slices_cover_all_lanes(self):
        packer = LanePacker(max_lanes=100, max_wait_s=100.0)
        for n in (3, 1, 4):
            packer.add(self._request("add", n), now=0.0)
        (group,) = packer.drain()
        packed, slices = group.pack()
        assert [len(v) for v in packed] == [8, 8]
        assert slices == [(0, 3), (3, 4), (4, 8)]

    def test_kernel_identity_drives_pack_keys(self):
        a = brighten_expr()
        b = expr.relu(expr.sub(expr.inp("x"), expr.inp("y")))
        c = expr.relu(expr.sub(expr.inp("x"), expr.inp("z")))
        assert kernel_identity(a, 8) == kernel_identity(b, 8)
        assert kernel_identity(a, 8) != kernel_identity(c, 8)
        assert kernel_identity(a, 8) != kernel_identity(a, 16)
        assert kernel_identity("add", 8) == ("add", 8, "simdram")


class _DummyHandle:
    n_elements = 0


class TestPrepare:
    def test_unknown_operation(self):
        with pytest.raises(OperationError):
            prepare(_DummyHandle(), "frobnicate", ([1],), None, 8,
                    "t", "auto", "simdram", 0.0)

    def test_wrong_arity(self):
        with pytest.raises(OperationError, match="takes 2 operands"):
            prepare(_DummyHandle(), "add", ([1],), None, 8, "t",
                    "auto", "simdram", 0.0)

    def test_length_mismatch(self):
        with pytest.raises(OperationError, match="lengths differ"):
            prepare(_DummyHandle(), "add", ([1, 2], [3]), None, 8,
                    "t", "auto", "simdram", 0.0)

    def test_empty_vector(self):
        with pytest.raises(OperationError, match="at least one"):
            prepare(_DummyHandle(), "add", ([], []), None, 8, "t",
                    "auto", "simdram", 0.0)

    def test_bad_feed_names(self):
        with pytest.raises(OperationError, match="missing"):
            prepare(_DummyHandle(), brighten_expr(), (),
                    {"x": [1], "z": [2]}, 8, "t", "auto", "simdram",
                    0.0)

    def test_non_integer_vector(self):
        with pytest.raises(OperationError, match="integer"):
            prepare(_DummyHandle(), "add", ([1.5], [2.5]), None, 8,
                    "t", "auto", "simdram", 0.0)


# ---------------------------------------------------------------------------
# the differential acceptance suite
# ---------------------------------------------------------------------------
def _sequential_reference(sim: Simdram, kind: str, op_or_root, vectors,
                          width: int) -> np.ndarray:
    """Per-request sequential execution: the pre-serving path."""
    if kind == "op":
        spec = get_operation(op_or_root)
        arrays = [sim.array(v, w) for v, w in
                  zip(vectors, spec.in_widths(width))]
        out = sim.run(op_or_root, *arrays)
    else:
        names = list(expr.analyze(op_or_root, width).input_widths)
        feeds = {name: sim.array(v, w) for name, v, w in
                 zip(names, vectors,
                     expr.analyze(op_or_root, width)
                     .input_widths.values())}
        arrays = list(feeds.values())
        out = sim.run_expr(op_or_root, feeds, width=width)
    result = out.to_numpy()
    out.free()
    for array in arrays:
        array.free()
    return result


def _mixed_requests(rng: np.random.Generator, width: int):
    """(kind, op_or_root, vectors) covering catalog + fused exprs."""
    requests = []
    for op_name in ("add", "min"):
        spec = get_operation(op_name)
        for n in (1, 3, 5):
            vectors = [rng.integers(0, 1 << w, n)
                       for w in spec.in_widths(width)]
            requests.append(("op", op_name, vectors))
    root = brighten_expr()
    widths = expr.analyze(root, width).input_widths
    for n in (2, 4):
        vectors = [rng.integers(0, 1 << w, n)
                   for w in widths.values()]
        requests.append(("expr", root, vectors))
    return requests


@pytest.mark.parametrize("backend", ("module", "cluster"))
class TestServeDifferential:
    def test_packed_equals_sequential(self, backend):
        """Lane-packed serving is bit-exact vs per-request sequential
        execution for mixed ops at widths {4, 8, 16}, with a poisoned
        request mid-batch failing alone."""
        config = small_config()
        reference = Simdram(config, seed=5)
        rng = np.random.default_rng(99)

        if backend == "module":
            target = Simdram(config, seed=7)
            closer = None
        else:
            target = SimdramCluster(2, config=config, seed=7)
            closer = target

        try:
            with SimdramService(target) as service:
                cases = []
                poisoned = []
                # Corked, so the burst packs the same way every
                # run — one group per (kernel, width) — whatever
                # the thread scheduling.
                with service.hold():
                    for width in WIDTHS:
                        for i, (kind, op_or_root, vectors) in enumerate(
                                _mixed_requests(rng, width)):
                            if kind == "op":
                                handle = service.submit(
                                    op_or_root, *vectors, width=width,
                                    tenant=f"tenant{i % 3}")
                            else:
                                names = list(expr.analyze(
                                    op_or_root, width).input_widths)
                                handle = service.submit(
                                    op_or_root,
                                    feeds=dict(zip(names, vectors)),
                                    width=width)
                            cases.append((handle, kind, op_or_root,
                                          vectors, width))
                        # Mid-batch poison: wrong feed name, detected at
                        # prepare time on the worker — co-packed requests
                        # must be unaffected.
                        poisoned.append(service.submit(
                            brighten_expr(),
                            feeds={"x": rng.integers(0, 4, 2),
                                   "bogus": rng.integers(0, 4, 2)},
                            width=width))
                service.drain(60)

                for handle, kind, op_or_root, vectors, width in cases:
                    golden = _sequential_reference(
                        reference, kind, op_or_root, vectors, width)
                    got = handle.result(timeout=60)
                    assert np.array_equal(got, golden), (
                        f"{kind} {op_or_root} @ {width}-bit: "
                        f"{got} != {golden}")
                for handle in poisoned:
                    with pytest.raises(OperationError):
                        handle.result(timeout=60)

                stats = service.stats()
                assert stats["requests"]["failed"] == len(poisoned)
                assert (stats["requests"]["completed"]
                        == len(cases))
                # Exactly one dispatch per (kernel, width): add, min
                # and the fused expression at each of the widths.
                packing = stats["packing"]
                assert packing["dispatches"] == 3 * len(WIDTHS)
                assert packing["packed_requests"] == len(cases)
                assert packing["requests_per_dispatch"] > 2
        finally:
            if closer is not None:
                closer.close()

    def test_lazy_graph_request_matches_engine(self, backend):
        """A captured lazy graph served == the lazy engine's own
        evaluation of the identical graph."""
        from repro import lazy

        config = small_config()
        values = np.array([3, 100, 250, 77, 0])

        if backend == "module":
            eval_target = Simdram(config, seed=3)
            serve_target = Simdram(config, seed=3)
            closers = []
        else:
            eval_target = SimdramCluster(2, config=config, seed=3)
            serve_target = SimdramCluster(2, config=config, seed=3)
            closers = [eval_target, serve_target]
        try:
            px = lazy.array(values, width=8,
                            device=lazy.device(eval_target))
            engine_result = ((px + 7) * 2).numpy()

            with SimdramService(serve_target) as service:
                px2 = lazy.array(values, width=8,
                                 device=lazy.device(serve_target))
                served = service.submit((px2 + 7) * 2).result(60)
            assert np.array_equal(served, engine_result)
        finally:
            for closer in closers:
                closer.close()


# ---------------------------------------------------------------------------
# failure isolation beyond prepare: the sequential fallback
# ---------------------------------------------------------------------------
#: The kinds of target the one dispatch path must serve alike: completion
#: inline on the worker (a module, a cluster) or deferred to another
#: thread (a hand-driven target, the way a replica router completes).
TARGETS = ("module", "cluster", "deferred")


@contextlib.contextmanager
def _serving(kind: str):
    """A service on one kind of :data:`TARGETS`; yields it with the
    in-process adapter whose ``map`` a test may patch.  A ``deferred``
    target is completed by a pump thread, one pack at a time."""
    system = (SimdramCluster(2, config=small_config(), seed=2)
              if kind == "cluster" else Simdram(small_config(), seed=2))
    service = SimdramService(system)
    adapter = service._target
    stop = threading.Event()
    pump = None
    if kind == "deferred":
        target = service._target = _HandDrivenTarget(adapter)

        def complete_packs() -> None:
            while not stop.is_set():
                if target.accepted.acquire(timeout=0.01):
                    target.complete_one()

        pump = threading.Thread(target=complete_packs)
        pump.start()
    try:
        yield service, adapter
    finally:
        service.close()
        stop.set()
        if pump is not None:
            pump.join(60)
        if kind == "cluster":
            system.close()


class TestSequentialFallback:
    @pytest.mark.parametrize("kind", TARGETS)
    def test_packed_failure_retries_per_request(self, kind):
        """A packed dispatch that raises falls back to per-request
        execution: only the poisoned request fails its handle."""
        with _serving(kind) as (service, adapter):
            real_map = adapter.map
            poison_n = 3   # the only request with 3 lanes

            def flaky_map(op_name, vectors, width, engine):
                if len(vectors[0]) >= poison_n:
                    raise OperationError("injected device fault")
                return real_map(op_name, vectors, width, engine)

            adapter.map = flaky_map
            with service.hold():   # all three in one pack
                good_a = service.submit("add", [1], [2], width=8)
                bad = service.submit("add", [1, 2, 3], [4, 5, 6],
                                     width=8)
                good_b = service.submit("add", [9], [10], width=8)
            service.drain(60)

            assert np.array_equal(good_a.result(60), [3])
            assert np.array_equal(good_b.result(60), [19])
            with pytest.raises(OperationError,
                               match="injected device fault"):
                bad.result(60)
            stats = service.stats()
            assert stats["packing"]["sequential_fallbacks"] == 1
            assert stats["requests"]["failed"] == 1
            assert stats["requests"]["completed"] == 2

    @pytest.mark.parametrize("kind", TARGETS)
    def test_pack_failure_retries_per_request(self, kind, monkeypatch):
        """A group whose *packing* raises goes out one request at a
        time, like a failed dispatch — every handle still completes."""
        def broken_pack(group):
            raise ValueError("injected pack fault")

        monkeypatch.setattr(PackGroup, "pack", broken_pack)
        with _serving(kind) as (service, _):
            with service.hold():
                handles = [service.submit("add", [i], [1], width=8)
                           for i in range(3)]
            for i, handle in enumerate(handles):
                assert np.array_equal(handle.result(60), [i + 1])
            packing = service.stats()["packing"]
            assert packing["sequential_fallbacks"] == 1
            assert packing["dispatches"] == 3

    def test_worker_crash_fails_pending_handles(self, monkeypatch):
        """An unexpected batcher failure must fail pending handles
        instead of stranding callers (and close must still work).  The
        crash guard re-raises on the worker thread so the failure is
        loud; the test takes delivery of that exception itself."""
        surfaced = []
        monkeypatch.setattr(threading, "excepthook", surfaced.append)
        sim = Simdram(small_config(), seed=2)
        service = SimdramService(sim)
        try:
            def exploding_add(*args, **kwargs):
                raise RuntimeError("batcher bug")

            service._packer.add = exploding_add
            handle = service.submit("add", [1], [2], width=8)
            with pytest.raises(RuntimeError, match="batcher bug"):
                handle.result(timeout=60)
            service.flush()   # must not hang on a dead worker
        finally:
            service.close()
        (crash,) = surfaced
        assert crash.thread is service._worker
        assert "batcher bug" in str(crash.exc_value)

    def test_interrupt_resolves_co_packed_handles(self, monkeypatch):
        """A ``KeyboardInterrupt`` inside an in-process dispatch fails
        every co-packed handle (no caller is left blocked) and still
        stops the worker through its crash guard."""
        surfaced = []
        monkeypatch.setattr(threading, "excepthook", surfaced.append)
        service = SimdramService(Simdram(small_config(), seed=2))
        try:
            def interrupted_map(*args):
                raise KeyboardInterrupt

            service._target.map = interrupted_map
            with service.hold():
                handles = [service.submit("add", [i], [1], width=8)
                           for i in range(3)]
            for handle in handles:
                assert isinstance(handle.exception(60), KeyboardInterrupt)
            service.flush()   # must not hang on a dead worker
        finally:
            service.close()
        (crash,) = surfaced
        assert crash.thread is service._worker
        assert crash.exc_type is KeyboardInterrupt
        assert service.stats()["requests"]["failed"] == 3


# ---------------------------------------------------------------------------
# the target protocol: on_done fires exactly once per submit_pack
# ---------------------------------------------------------------------------
class _FutureReplicas:
    """A replica set with no processes: each submit hands back a
    future the test resolves."""

    lanes = 64
    backend = "simdram"

    def __init__(self) -> None:
        self.futures: list[Future] = []

    def set_death_handler(self, handler) -> None:
        pass

    def alive_ids(self) -> list[int]:
        return [0]

    def n_inflight(self, replica_id: int) -> int:
        return 0

    def submit(self, replica_id, desc, vectors, lanes) -> Future:
        self.futures.append(Future())
        return self.futures[-1]


class TestTargetProtocol:
    @pytest.mark.parametrize("outcome",
                             ("values", "error", "callback raises"))
    @pytest.mark.parametrize("kind", ("in-process", "router"))
    def test_on_done_fires_exactly_once(self, kind, outcome):
        """With the values, with the dispatch's error, and when the
        callback itself raises — which is the caller's failure, never
        reported back to it as a second, failed completion."""
        request = prepare(_DummyHandle(), "add", ([1, 2], [3, 4]), None,
                          8, "t", "auto", "simdram", 0.0)
        fault = OperationError("device down")
        calls = []

        def on_done(values, error, replica_id) -> None:
            calls.append((values, error))
            if outcome == "callback raises":
                raise RuntimeError("callback bug")

        if kind == "in-process":
            target = _InProcessTarget(Simdram(small_config(), seed=1))
            if outcome == "error":
                def broken_map(*args):
                    raise fault

                target.map = broken_map
            raises = (pytest.raises(RuntimeError, match="callback bug")
                      if outcome == "callback raises"
                      else contextlib.nullcontext())
            with raises:
                target.submit_pack(request, request.vectors, 2, on_done)
        else:
            replicas = _FutureReplicas()
            target = ReplicaRouter(replicas)
            target.submit_pack(request, request.vectors, 2, on_done)
            assert calls == []            # deferred to the completion
            (future,) = replicas.futures
            if outcome == "error":
                future.set_exception(fault)
            else:
                future.set_result((np.array([4, 6]), {"replica_id": 0}))
        ((values, error),) = calls
        if outcome == "error":
            assert values is None and error is fault
        else:
            assert error is None and np.array_equal(values, [4, 6])
        assert target.barrier(0)


# ---------------------------------------------------------------------------
# admission control and lifecycle
# ---------------------------------------------------------------------------
def _block_dispatches(service):
    """Make the service's dispatches wait inside the target until the
    test sets ``release`` — an accepted request that is deterministically
    unresolved, without any timer.  Returns ``(entered, release)``."""
    entered, release = threading.Event(), threading.Event()
    real_map = service._target.map

    def blocked_map(*args, **kwargs):
        entered.set()
        assert release.wait(60)
        return real_map(*args, **kwargs)

    service._target.map = blocked_map
    return entered, release


class TestAdmission:
    def test_nonblocking_reject_when_full(self):
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim, ServeConfig(max_queue=1)) as service:
            entered, release = _block_dispatches(service)
            first = service.submit("add", [1], [2], width=8)
            assert entered.wait(60)
            try:
                with pytest.raises(AdmissionError, match="queue full"):
                    service.submit("add", [3], [4], width=8,
                                   block=False)
                assert service.stats()["requests"]["rejected"] == 1
            finally:
                release.set()
            assert np.array_equal(first.result(60), [3])

    def test_blocking_timeout(self):
        """A blocking submit gives up after ``timeout`` while the
        queue stays full."""
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim, ServeConfig(max_queue=1)) as service:
            entered, release = _block_dispatches(service)
            first = service.submit("add", [1], [2], width=8)
            assert entered.wait(60)
            try:
                with pytest.raises(AdmissionError, match="timed out"):
                    service.submit("add", [3], [4], width=8,
                                   timeout=0.05)
            finally:
                release.set()
            assert np.array_equal(first.result(60), [3])

    @pytest.mark.parametrize("config", (ServeConfig(max_wait_s=-1),
                                        ServeConfig(max_lanes=0)),
                             ids=("max_wait_s", "max_lanes"))
    def test_rejected_construction_registers_nothing(self, config):
        """A construction the config rejects leaves no half-built
        service in the registry (whose every later scrape would report
        a collector error)."""
        registry = MetricsRegistry()
        with pytest.raises(OperationError):
            SimdramService(Simdram(small_config(), seed=1), config,
                           registry=registry)
        assert registry.collect() == []

    def test_max_queue_below_one_rejected(self):
        """A zero-slot admission queue refuses every submit — and a
        default blocking submit would wait forever."""
        with pytest.raises(OperationError, match="max_queue"):
            SimdramService(Simdram(small_config(), seed=1),
                           ServeConfig(max_queue=0))

    def test_submit_after_close_rejected(self):
        sim = Simdram(small_config(), seed=1)
        service = SimdramService(sim)
        service.close()
        with pytest.raises(AdmissionError, match="closed"):
            service.submit("add", [1], [2], width=8)

    def test_close_resolves_pending_requests(self):
        """Close flushes open pack groups instead of dropping them."""
        sim = Simdram(small_config(), seed=1)
        service = SimdramService(sim)
        with service.hold():   # still queued when close() is called
            handle = service.submit("add", [5], [6], width=8)
            service.close()
        assert np.array_equal(handle.result(timeout=60), [11])

    def test_close_is_idempotent_and_concurrent(self):
        sim = Simdram(small_config(), seed=1)
        service = SimdramService(sim)
        threads = [threading.Thread(target=service.close)
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.close()
        assert not service._worker.is_alive()

    def test_flush_not_starved_by_concurrent_traffic(self):
        """flush() covers the requests accepted before the call, so a
        checkpointing tenant is never starved by another tenant's
        sustained submissions."""
        sim = Simdram(small_config(), seed=1)
        stop = threading.Event()
        submitted = []

        with SimdramService(sim) as service:
            mine = [service.submit("add", [i], [i], width=8,
                                   tenant="checkpointer")
                    for i in range(4)]

            def background_traffic():
                while not stop.is_set():
                    submitted.append(service.submit(
                        "add", [1], [2], width=8, tenant="noisy"))
                    time.sleep(0.001)

            noisy = threading.Thread(target=background_traffic)
            noisy.start()
            try:
                start = time.monotonic()
                service.flush()
                elapsed = time.monotonic() - start
                # All of the checkpointer's pre-flush requests are
                # resolved while the noisy tenant keeps submitting.
                assert all(handle.done() for handle in mine)
                assert elapsed < 10.0
                for i, handle in enumerate(mine):
                    assert np.array_equal(handle.result(0), [2 * i])
            finally:
                stop.set()
                noisy.join()
        for handle in submitted:
            assert np.array_equal(handle.result(60), [3])

    def test_context_manager(self):
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim) as service:
            handle = service.submit("add", [1], [2], width=8)
        assert np.array_equal(handle.result(timeout=60), [3])
        assert not service._worker.is_alive()

    def test_tiny_timeout_under_concurrent_submission(self):
        """Regression (ISSUE 7): many submitters racing a small queue
        with sub-millisecond timeouts must all return promptly — with
        a result or an AdmissionError.  The admission wait loop clamps
        a just-expired deadline to a zero-timeout poll; an unclamped
        negative remaining reaching ``Condition.wait`` means *wait
        forever* to the lock underneath, hanging the submitter."""
        sim = Simdram(small_config(), seed=1)
        per_thread, n_threads = 25, 6
        outcomes: list = []
        lock = threading.Lock()
        with SimdramService(
                sim, ServeConfig(max_queue=2)) as service:
            def spam():
                for _ in range(per_thread):
                    try:
                        handle = service.submit("add", [1], [2],
                                                width=8, timeout=1e-4)
                    except AdmissionError:
                        with lock:
                            outcomes.append(None)
                    else:
                        with lock:
                            outcomes.append(handle)

            threads = [threading.Thread(target=spam)
                       for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads), \
                "a submitter hung in the admission wait loop"
        assert len(outcomes) == per_thread * n_threads
        for handle in outcomes:
            if handle is not None:
                assert np.array_equal(handle.result(60), [3])


# ---------------------------------------------------------------------------
# the flush rule: work-conserving, max_wait_s only as the upper bound
# ---------------------------------------------------------------------------
def _count_resolutions(handles) -> list[int]:
    """One counter per handle, bumped by its done-callback."""
    counts = [0] * len(handles)

    def bump(index):
        counts[index] += 1

    for index, handle in enumerate(handles):
        handle.add_done_callback(lambda _h, index=index: bump(index))
    return counts


class _HandDrivenTarget:
    """A dispatch target the test completes by hand.

    Takes one pack at a time (``ready()`` is false while one is
    outstanding); :meth:`complete_one` runs the oldest outstanding pack
    on the wrapped in-process target, whose callback then fires from
    the calling thread, the way a router thread's would."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._packs: list = []
        self._idle = threading.Condition()
        self.accepted = threading.Semaphore(0)
        self.ready_calls = 0

    def __getattr__(self, name):   # lanes, backend, paging_stats, ...
        return getattr(self._inner, name)

    def ready(self) -> bool:
        self.ready_calls += 1
        return not self._packs

    def submit_pack(self, request, vectors, lanes, on_done) -> None:
        self._packs.append((request, vectors, lanes, on_done))
        self.accepted.release()

    def complete_one(self) -> None:
        self._inner.submit_pack(*self._packs.pop(0))
        with self._idle:
            self._idle.notify_all()

    def barrier(self, timeout=None) -> bool:
        with self._idle:
            return self._idle.wait_for(lambda: not self._packs, timeout)


class TestFlushRule:
    @staticmethod
    def _wait_admitted(service) -> None:
        deadline = time.monotonic() + 60
        while (service.stats()["queue"]["queued"]
               and time.monotonic() < deadline):
            time.sleep(0.001)

    def test_lone_request_does_not_wait_for_the_timer(self):
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim,
                            ServeConfig(max_wait_s=30.0)) as service:
            handle = service.submit("add", [1], [2], width=8)
            assert np.array_equal(handle.result(timeout=2), [3])
            assert service.stats()["packing"]["flushes"] == {
                "full": 0, "ready": 1, "timer": 0, "explicit": 0}

    def test_closed_loop_of_lone_requests_never_uses_the_timer(self):
        """One outstanding request at a time (the ``serve_solo``
        shape): every flush is a ``ready`` flush."""
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim) as service:
            for i in range(20):
                op = ("add", "min")[i % 2]
                service.submit(op, [i], [1], width=8).result(timeout=2)
            flushes = service.stats()["packing"]["flushes"]
            assert flushes == {"full": 0, "ready": 20, "timer": 0,
                               "explicit": 0}
            assert 'repro_serve_flushes_total{reason="ready"} 20' \
                in service.prometheus()

    def test_held_burst_packs_into_full_groups(self):
        """3x capacity lanes submitted under hold(): exactly three
        dispatches, each full, every result bit-exact."""
        sim = Simdram(small_config(), seed=1)
        rng = np.random.default_rng(3)
        sizes = (3, 5, 8, 4, 1, 3)          # 24 lanes = 3 x 8
        with SimdramService(sim, ServeConfig(max_lanes=8)) as service:
            with service.hold():
                cases = []
                for n in sizes:
                    a = rng.integers(0, 256, n)
                    b = rng.integers(0, 256, n)
                    cases.append((a, b, service.submit("add", a, b,
                                                       width=8)))
                assert not any(h.done() for _, _, h in cases)
            for a, b, handle in cases:
                assert np.array_equal(handle.result(60), (a + b) % 256)
            packing = service.stats()["packing"]
            assert packing["dispatches"] == 3
            assert packing["lane_occupancy"] == pytest.approx(1.0)
            assert packing["flushes"]["full"] == 3

    def test_hold_yields_to_a_full_queue(self):
        """A blocking submit under hold() cannot deadlock: a queue at
        max_queue uncorks itself."""
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim, ServeConfig(max_queue=2)) as service:
            with service.hold():
                handles = [service.submit("add", [i], [i], width=8,
                                          timeout=30)
                           for i in range(5)]
            for i, handle in enumerate(handles):
                assert np.array_equal(handle.result(60), [2 * i])

    def test_rare_kernel_flushes_within_max_wait_under_backlog(
            self, fake_clock):
        """Starvation bound: while a producer keeps the queues
        non-empty the ``ready`` rule never fires, and a rare kernel's
        group goes out when ``max_wait_s`` runs out — not before."""
        sim = Simdram(small_config(), seed=1)
        config = ServeConfig(max_lanes=4, max_wait_s=1.0)
        with SimdramService(sim, config) as service:
            real_map = service._target.map
            feeding = threading.Event()
            feeding.set()
            dispatches = []
            backlog_seen = threading.Event()

            def feeding_map(op_name, vectors, width, engine):
                # The producer: each dispatch of the common kernel
                # leaves a full group's worth of new requests in the
                # queue before it returns, so the worker never finds
                # the queues empty.
                if op_name == "add" and feeding.is_set():
                    for _ in range(4):
                        service.submit("add", [1], [2], width=8)
                    dispatches.append(op_name)
                    if len(dispatches) >= 25:
                        backlog_seen.set()
                return real_map(op_name, vectors, width, engine)

            service._target.map = feeding_map
            with service.hold():
                rare = service.submit("min", [7], [9], width=8)
                for _ in range(5):
                    service.submit("add", [1], [2], width=8)
            assert backlog_seen.wait(60)
            assert not rare.done()       # 25 dispatches went past it
            fake_clock(config.max_wait_s)
            assert np.array_equal(rare.result(60), [7])
            feeding.clear()
            assert service.drain(60)
            flushes = service.stats()["packing"]["flushes"]
            assert flushes["timer"] == 1
            assert flushes["full"] >= 25

    def test_busy_async_target_holds_groups_until_a_completion(self):
        """``ready()`` false keeps groups open (they fill meanwhile);
        the completion that flips it wakes the worker — no polling."""
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim,
                            ServeConfig(max_wait_s=30.0)) as service:
            target = _HandDrivenTarget(service._target)
            service._target = target
            first = service.submit("add", [1], [2], width=8)
            assert target.accepted.acquire(timeout=60)  # sent at once
            second = service.submit("min", [3], [4], width=8)
            third = service.submit("min", [5], [6], width=8)
            self._wait_admitted(service)
            # Both are admitted, the target is busy: nothing is sent,
            # and the worker sleeps instead of asking again.
            time.sleep(0.05)
            calls = target.ready_calls
            time.sleep(0.1)
            assert target.ready_calls == calls
            assert not target.accepted.acquire(blocking=False)
            assert not second.done()

            target.complete_one()
            assert np.array_equal(first.result(60), [3])
            assert target.accepted.acquire(timeout=2)   # woken by it
            target.complete_one()
            assert np.array_equal(second.result(60), [3])
            assert np.array_equal(third.result(60), [5])
            packing = service.stats()["packing"]
            assert packing["dispatches"] == 2   # the two mins shared one
            assert packing["flushes"] == {"full": 0, "ready": 2,
                                          "timer": 0, "explicit": 0}

    def test_timer_does_not_fire_at_a_busy_target(self, fake_clock):
        """``max_wait_s`` running out at a busy target sends nothing —
        a small group would only queue behind the pack in flight — and
        does not turn the worker into a poll loop: it makes one
        ``_next_flush`` pass per notification and sleeps.  The group
        leaves at the first completion after the deadline."""
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim,
                            ServeConfig(max_wait_s=5.0)) as service:
            target = _HandDrivenTarget(service._target)
            service._target = target
            passes = []
            next_flush = service._next_flush

            def counted(*args, **kwargs):
                passes.append(1)
                return next_flush(*args, **kwargs)

            service._next_flush = counted
            first = service.submit("add", [1], [2], width=8)
            assert target.accepted.acquire(timeout=60)
            second = service.submit("min", [3], [4], width=8)
            self._wait_admitted(service)
            fake_clock(5.0)                    # the deadline lapses
            with service._cond:
                service._cond.notify_all()
            assert not target.accepted.acquire(timeout=0.05)
            seen = len(passes)
            time.sleep(0.1)                    # nobody notifies ...
            assert len(passes) == seen         # ... nobody looks
            with service._cond:
                service._cond.notify_all()
            time.sleep(0.05)
            assert len(passes) <= seen + 1     # one pass per wake-up
            assert not second.done()
            assert service.stats()["packing"]["flushes"]["timer"] == 0

            target.complete_one()              # first completion after
            assert target.accepted.acquire(timeout=60)
            target.complete_one()
            assert np.array_equal(first.result(60), [3])
            assert np.array_equal(second.result(60), [3])
            assert service.stats()["packing"]["flushes"] == {
                "full": 0, "ready": 2, "timer": 0, "explicit": 0}

    @pytest.mark.parametrize("lapses_first", [True, False])
    def test_timer_bounds_the_wait_once_the_target_is_ready(
            self, fake_clock, lapses_first):
        """A group is never held past ``max_wait_s`` at a target that
        can take it: with the ``ready`` rule blocked by a held queue,
        it goes out on the timer at whichever comes last — the
        deadline, or the completion that frees the target."""
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim,
                            ServeConfig(max_wait_s=5.0)) as service:
            target = _HandDrivenTarget(service._target)
            service._target = target
            first = service.submit("add", [1], [2], width=8)
            assert target.accepted.acquire(timeout=60)
            second = service.submit("min", [3], [4], width=8)
            self._wait_admitted(service)
            with service.hold():
                third = service.submit("max", [5], [6], width=8)
                for step in ((fake_clock, target.complete_one)
                             if lapses_first
                             else (target.complete_one, fake_clock)):
                    assert not target.accepted.acquire(timeout=0.05)
                    if step is fake_clock:
                        fake_clock(5.0)
                        with service._cond:    # a wake-up, any wake-up
                            service._cond.notify_all()
                    else:
                        step()
                assert target.accepted.acquire(timeout=60)
                assert service.stats()["packing"]["flushes"][
                    "timer"] == 1
                assert not third.done()        # still corked
            target.complete_one()
            assert target.accepted.acquire(timeout=60)
            target.complete_one()
            assert np.array_equal(first.result(60), [3])
            assert np.array_equal(second.result(60), [3])
            assert np.array_equal(third.result(60), [6])

    def test_hold_and_submit_race_stress(self):
        """More submitters than cores, a tiny GIL switch interval,
        bursts going in and out of hold() while others submit freely:
        every handle resolves exactly once with the right value and
        every dispatch is accounted to a flush reason."""
        import sys
        sim = Simdram(small_config(), seed=1)
        n_threads, per_thread = 6, 40
        handles: list = [None] * (n_threads * per_thread)
        errors: list = []

        def submitter(thread_index: int, service) -> None:
            try:
                for burst in range(per_thread // 4):
                    base = thread_index * per_thread + burst * 4
                    cork = (service.hold() if (burst + thread_index) % 2
                            else contextlib.nullcontext())
                    with cork:
                        for k in range(4):
                            i = base + k
                            handles[i] = service.submit(
                                ("add", "min")[i % 2], [i % 100], [3],
                                width=8, tenant=f"t{thread_index}",
                                timeout=60)
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SimdramService(sim, ServeConfig(max_queue=32,
                                                 max_lanes=8)) as service:
                threads = [threading.Thread(target=submitter,
                                            args=(t, service))
                           for t in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                assert not any(t.is_alive() for t in threads)
                assert not errors
                counts = _count_resolutions(handles)
                assert service.drain(120)
                stats = service.stats()
        finally:
            sys.setswitchinterval(interval)
        for i, handle in enumerate(handles):
            want = (i % 100) + 3 if i % 2 == 0 else min(i % 100, 3)
            assert np.array_equal(handle.result(0), [want])
        assert counts == [1] * len(handles)
        assert service._held == 0
        assert stats["requests"]["completed"] == len(handles)
        assert stats["requests"]["in_flight"] == 0
        assert sum(stats["packing"]["flushes"].values()) \
            == stats["packing"]["dispatches"]

    def test_flush_resolves_every_handle_exactly_once(self):
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim,
                            ServeConfig(max_wait_s=30.0)) as service:
            with service.hold():
                handles = [service.submit(("add", "min", "max")[i % 3],
                                          [i], [1], width=8)
                           for i in range(9)]
                counts = _count_resolutions(handles)
                service.flush()           # overrides the cork
                assert all(handle.done() for handle in handles)
            service.flush()               # nothing left: returns
            stats = service.stats()
        assert counts == [1] * 9
        assert stats["requests"]["completed"] == 9
        assert stats["requests"]["in_flight"] == 0
        assert stats["packing"]["flushes"]["explicit"] == 3

    def test_close_resolves_every_handle_exactly_once(self):
        sim = Simdram(small_config(), seed=1)
        service = SimdramService(sim, ServeConfig(max_wait_s=30.0))
        target = _HandDrivenTarget(service._target)
        service._target = target
        blocker = service.submit("add", [0], [0], width=8)
        assert target.accepted.acquire(timeout=60)
        # Queued, packed-but-open and in-flight, all at once.
        handles = [blocker] + [
            service.submit(("add", "min")[i % 2], [i], [1], width=8)
            for i in range(6)]
        counts = _count_resolutions(handles)
        closer = threading.Thread(target=service.close)
        closer.start()
        target.complete_one()             # the blocker
        deadline = time.monotonic() + 60
        while closer.is_alive() and time.monotonic() < deadline:
            if target.accepted.acquire(timeout=0.01):
                target.complete_one()
        closer.join(60)
        assert not closer.is_alive()
        assert counts == [1] * 7
        assert all(handle.exception(0) is None for handle in handles)

    def test_crash_resolves_every_handle_exactly_once(self, monkeypatch):
        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        sim = Simdram(small_config(), seed=1)
        service = SimdramService(sim, ServeConfig(max_wait_s=30.0))
        try:
            real_add = service._packer.add
            seen = []

            def add_then_explode(request, now=None):
                seen.append(request)
                if len(seen) == 3:
                    raise RuntimeError("batcher bug")
                return real_add(request, now)

            service._packer.add = add_then_explode
            with service.hold():
                # Two reach open groups, the third crashes the worker
                # while it is being processed, two are still queued.
                handles = [service.submit(("add", "min")[i % 2], [i],
                                          [1], width=8)
                           for i in range(5)]
                counts = _count_resolutions(handles)
            for handle in handles:
                with pytest.raises(RuntimeError, match="batcher bug"):
                    handle.result(60)
            service.flush()               # must not hang
        finally:
            service.close()
        assert counts == [1] * 5
        stats = service.stats()
        assert stats["requests"]["failed"] == 5
        assert stats["requests"]["in_flight"] == 0


# ---------------------------------------------------------------------------
# weighted fair scheduling
# ---------------------------------------------------------------------------
class TestFairScheduling:
    def test_pop_order_respects_weights(self):
        """With tenants at weight 1 vs 3 and equal-lane requests, the
        weighted-fair pop serves ~3x more of the heavy tenant."""
        sim = Simdram(small_config(), seed=1)
        service = SimdramService(
            sim, tenants={"light": 1.0, "heavy": 3.0})
        service.close()  # stop the worker; drive _pop_locked by hand

        from collections import deque

        from repro.serve.service import _RawRequest

        def raw(tenant):
            return _RawRequest(
                handle=None, op_or_root="add", operands=((0,), (0,)),
                feeds=None, width=8, tenant=tenant, engine="auto",
                submitted_at=0.0, lanes=3)

        service._queues = {
            "light": deque(raw("light") for _ in range(6)),
            "heavy": deque(raw("heavy") for _ in range(6)),
        }
        service._vtime = {"light": 0.0, "heavy": 0.0}
        order = [service._pop_locked().tenant for _ in range(8)]
        assert order.count("heavy") == 6
        assert order.count("light") == 2

    def test_invalid_weight_rejected(self):
        sim = Simdram(small_config(), seed=1)
        with pytest.raises(OperationError, match="positive weight"):
            SimdramService(sim, tenants={"bad": 0.0}).close()
        with SimdramService(sim) as service:
            with pytest.raises(OperationError, match="positive weight"):
                service.register_tenant("bad", -1.0)

    def test_idle_tenant_earns_no_credit(self):
        """A tenant reactivating after idling rejoins at the virtual
        floor instead of draining everyone else first — and idle
        tenants leave no per-tenant state behind (high-cardinality
        tenant ids must not grow the scheduler)."""
        sim = Simdram(small_config(), seed=1)
        with SimdramService(
                sim, tenants={"a": 1.0, "b": 1.0}) as service:
            for _ in range(4):
                service.submit("add", [1], [2], tenant="a").result(60)
            service.submit("add", [1], [2], tenant="b").result(60)
            service.drain(60)
            with service._cond:
                # Emptied queues and their virtual times were
                # reclaimed; the floor carries a's full charge, so a
                # rejoining tenant starts behind nobody unfairly.
                assert service._queues == {}
                assert service._vtime == {}
                assert service._vfloor >= 4.0


# ---------------------------------------------------------------------------
# warmup and metrics
# ---------------------------------------------------------------------------
class TestWarmupAndMetrics:
    def test_warmup_precompiles_manifest(self):
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim) as service:
            before = service._target.kernel_cache_size()
            summary = service.warmup(
                [("add", 8), ("min", 8), (brighten_expr(), 8)])
            assert summary["n_kernels"] == 3
            # Each warmed kernel adds one µProgram/fused kernel *and*
            # one compiled executor on its cached execution plan.
            after_warm = service._target.kernel_cache_size()
            assert after_warm == before + 6
            # Serving a warmed op compiles nothing new — not even the
            # plan or the engine's compiled executor.
            service.submit("add", [1], [2], width=8).result(60)
            assert service._target.kernel_cache_size() == after_warm

    def test_module_reports_modeled_busy_time(self):
        """A bare module models busy time like a cluster: read from its
        banks, in ``stats()`` and the scrape alike."""
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim) as service:
            service.submit("add", [1], [2], width=8).result(60)
            busy = service.stats()["modeled_busy_ns"]
            assert busy == sim.makespan_ns() > 0
            assert "# TYPE repro_modeled_busy_ns gauge" in \
                service.prometheus()

    def test_full_group_metrics(self):
        """8 single-lane requests into an 8-lane service: exactly one
        dispatch at 100% occupancy."""
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim, ServeConfig(max_lanes=8)) as service:
            with service.hold():
                handles = [service.submit("add", [i], [i], width=8)
                           for i in range(8)]
            for i, handle in enumerate(handles):
                assert np.array_equal(handle.result(60), [2 * i])
            packing = service.stats()["packing"]
            assert packing["dispatches"] == 1
            assert packing["flushes"] == {"full": 1, "ready": 0,
                                          "timer": 0, "explicit": 0}
            assert packing["requests_per_dispatch"] == 8
            assert packing["lane_occupancy"] == pytest.approx(1.0)
            assert packing["packing_efficiency"] == pytest.approx(
                1 - 1 / 8)

    def test_percentiles(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 50) == 5.0
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == pytest.approx(50.5)
        assert percentile(samples, 99) == pytest.approx(99.01)

    def test_small_sample_percentiles_bounded_by_window_max(self):
        """Regression (ISSUE 8): with a handful of samples the snapshot
        p50/p99 must be *observed* values (method="higher"), never an
        interpolated figure above ``window_max``."""
        metrics = ServeMetrics()
        for s in (0.001, 0.002, 0.010):
            metrics.record_completion("t", s)
        latency = metrics.snapshot()["latency_ms"]
        assert latency["p50"] in (1.0, 2.0, 10.0)
        assert latency["p99"] == pytest.approx(10.0)
        assert latency["p50"] <= latency["p99"] <= latency["window_max"]

    def test_reset_zeroes_every_surface(self):
        metrics = ServeMetrics()
        metrics.record_submit("t", 4)
        metrics.record_completion("t", 0.5)
        metrics.record_dispatch(2, 8, 32, replica=1)
        metrics.record_failover(1, 2)
        metrics.record_reject("t")
        metrics.reset()
        snap = metrics.snapshot()
        assert snap["requests"]["submitted"] == 0
        assert snap["requests"]["completed"] == 0
        assert snap["latency_ms"]["samples"] == 0
        assert snap["latency_ms"]["max"] == 0.0
        assert snap["packing"]["dispatches"] == 0
        assert snap["replicas"] == {}
        assert snap["tenants"] == {}
        assert snap["failover"]["replica_deaths"] == 0

    def test_metrics_thread_safety_smoke(self):
        """Writers on more threads than cores, a fine switch interval,
        and a reader that must never see a request completed before it
        was submitted; no update may be lost."""
        metrics = ServeMetrics()
        in_flight = []

        def hammer():
            for _ in range(200):
                metrics.record_submit("t", 1)
                metrics.record_dispatch(1, 1, 8)
                metrics.record_completion("t", 0.001)

        def read():
            for _ in range(50):
                in_flight.append(metrics.snapshot()["requests"]["in_flight"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            threads.append(threading.Thread(target=read))
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert min(in_flight) >= 0
        snap = metrics.snapshot()
        assert snap["requests"]["submitted"] == 800
        assert snap["requests"]["completed"] == 800
        assert snap["tenants"]["t"]["lanes"] == 800
        assert snap["packing"]["dispatches"] == 800
        assert snap["packing"]["lane_occupancy"] == pytest.approx(1 / 8)
        assert snap["latency_ms"]["samples"] == 800

    def test_latency_max_survives_reservoir_eviction(self):
        """Regression (ISSUE 7): ``latency_ms.max`` is the *lifetime*
        maximum.  A slow early request must still be reported after
        enough fast completions push it out of the bounded percentile
        reservoir; the windowed figure is ``window_max``."""
        from repro.serve.metrics import RESERVOIR
        metrics = ServeMetrics()
        metrics.record_completion("t", 2.5)  # the lifetime-worst
        for _ in range(RESERVOIR + 10):      # evict it from the window
            metrics.record_completion("t", 0.001)
        latency = metrics.snapshot()["latency_ms"]
        assert latency["max"] == pytest.approx(2500.0)
        assert latency["window_max"] == pytest.approx(1.0)
        assert latency["samples"] == RESERVOIR
        assert latency["window"] == RESERVOIR

    def test_per_replica_dispatch_counters(self):
        metrics = ServeMetrics()
        metrics.record_dispatch(3, 24, 32, replica=0)
        metrics.record_dispatch(1, 8, 32, replica=0)
        metrics.record_dispatch(2, 16, 32, replica=1)
        metrics.record_dispatch(5, 40, 32)  # no replica: totals only
        metrics.record_failover(0, 2)
        snap = metrics.snapshot()
        assert snap["replicas"][0] == {
            "dispatches": 2, "requests": 4, "lanes": 32}
        assert snap["replicas"][1] == {
            "dispatches": 1, "requests": 2, "lanes": 16}
        assert snap["packing"]["dispatches"] == 4
        assert snap["failover"] == {"replica_deaths": 1,
                                    "requeued_requests": 2}


def _scrape_value(scrape: dict, name: str, **labels) -> float:
    """The one series of ``name`` carrying exactly ``labels``."""
    (value,) = [row["value"] for row in scrape[name]["series"]
                if row["labels"] == labels]
    return value


class TestOneServeStore:
    """Each serving fact is recorded once, on a registry instrument of
    the service's ``ServeMetrics``; ``stats()`` and the scrape both read
    it."""

    def test_stats_and_scrape_read_one_store(self):
        registry = MetricsRegistry()
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim, ServeConfig(max_queue=2),
                            registry=registry) as service:
            entered, release = _block_dispatches(service)
            first = service.submit("add", [1, 2], [3, 4], width=8,
                                   tenant="a", deadline_s=60.0)
            assert entered.wait(60)
            bad = service.submit("add", [1, 2], [3], width=8, tenant="b")
            with pytest.raises(AdmissionError):
                service.submit("add", [1], [2], width=8, tenant="b",
                               block=False)
            release.set()
            assert np.array_equal(first.result(60), [4, 6])
            assert bad.exception(60) is not None
            shed = service.submit("add", [1], [2], width=8, tenant="a",
                                  deadline_s=0.0)
            assert shed.exception(60) is not None
            stats = service.stats()
            scrape = registry.snapshot()
        requests = stats["requests"]
        assert requests == {"submitted": 3, "completed": 1, "failed": 1,
                            "rejected": 1, "shed": 1, "in_flight": 0}
        for state in ("submitted", "completed", "failed", "rejected",
                      "shed"):
            assert _scrape_value(scrape, "repro_serve_requests_total",
                                 state=state) == requests[state]
            for tenant, row in stats["tenants"].items():
                assert _scrape_value(
                    scrape, "repro_serve_tenant_requests_total",
                    state=state, tenant=tenant) == row[state]
        # Per-tenant energy is the completions' bills, nothing else.
        assert sum(row["energy_nj"] for row in stats["tenants"].values()) \
            == pytest.approx(stats["energy"]["modeled_request_nj_total"])
        for state in ("with_deadline", "on_time", "late"):
            assert _scrape_value(scrape, "repro_serve_slo_requests_total",
                                 state=state) == stats["slo"][state]
        packing = stats["packing"]
        for name, key in (("dispatches", "dispatches"),
                          ("packed_requests", "packed_requests"),
                          ("lanes", "lanes_dispatched"),
                          ("sequential_fallbacks", "sequential_fallbacks")):
            assert _scrape_value(scrape, "repro_serve_pack_" + name) \
                == packing[key]
        for reason, count in packing["flushes"].items():
            assert _scrape_value(scrape, "repro_serve_flushes_total",
                                 reason=reason) == count
        assert _scrape_value(
            scrape, "repro_serve_request_latency_seconds_count") \
            == requests["completed"]
        assert _scrape_value(scrape, "repro_request_energy_joules_count") \
            == stats["energy"]["requests_metered"] == 1
        assert _scrape_value(
            scrape, "repro_request_energy_joules_sum") == pytest.approx(
            stats["energy"]["modeled_request_nj_total"] * 1e-9)

    def test_services_on_one_registry_keep_their_own_counts(self):
        """Two services exporting into one registry never mix counts,
        histograms included, and a closed service's rows leave it."""
        registry = MetricsRegistry()

        def latency_counts() -> list[float]:
            family = registry.snapshot().get(
                "repro_serve_request_latency_seconds_count")
            return sorted(row["value"] for row in family["series"]) \
                if family else []

        one = SimdramService(Simdram(small_config(), seed=1),
                             registry=registry)
        with SimdramService(Simdram(small_config(), seed=2),
                            registry=registry) as two:
            try:
                for i in range(2):
                    one.submit("add", [i], [1], width=8).result(60)
                for i in range(3):
                    two.submit("add", [i], [1], width=8).result(60)
                assert one.stats()["requests"]["completed"] == 2
                assert two.stats()["requests"]["completed"] == 3
                assert latency_counts() == [2, 3]
            finally:
                one.close()
            assert latency_counts() == [3]
        assert latency_counts() == []

    def test_replica_block_is_the_pack_counters_slice(self):
        metrics = ServeMetrics()
        metrics.record_dispatch(3, 24, 32, replica=0)
        metrics.record_dispatch(2, 16, 32, replica=1)
        metrics.record_dispatch(5, 40, 32)
        rows = {(s.name, s.labels): s.value for s in metrics.samples()}
        assert rows[("repro_serve_pack_dispatches",
                     (("replica", "0"),))] == 1
        assert rows[("repro_serve_pack_lanes", (("replica", "1"),))] == 16
        assert rows[("repro_serve_pack_packed_requests", ())] == 5
        snap = metrics.snapshot()
        assert snap["packing"]["packed_requests"] == 10
        assert snap["packing"]["lanes_dispatched"] == 80
        assert snap["replicas"] == {
            0: {"dispatches": 1, "requests": 3, "lanes": 24},
            1: {"dispatches": 1, "requests": 2, "lanes": 16}}

    def test_every_series_scraped_before_traffic_and_after_reset(self):
        metrics = ServeMetrics()
        empty = sorted((s.name, s.labels) for s in metrics.samples())
        metrics.record_submit("t", 4, has_deadline=True)
        metrics.record_completion("t", 0.5, on_time=True, energy_nj=3.0)
        metrics.record_flush("full")
        metrics.record_dispatch(1, 4, 8)
        metrics.reset()
        rows = metrics.samples()
        assert sorted((s.name, s.labels) for s in rows) == empty
        assert all(s.value == 0 for s in rows)
        names = {s.name for s in rows}
        assert {"repro_serve_requests_total", "repro_serve_flushes_total",
                "repro_serve_slo_requests_total",
                "repro_serve_request_latency_seconds_count",
                "repro_request_energy_joules_count"} <= names
        assert ("repro_serve_requests_total", (("state", "shed"),)) \
            in empty
        labels = {s.labels for s in rows
                  if s.name == "repro_serve_flushes_total"}
        assert labels == {(("reason", r),)
                          for r in ("full", "ready", "timer", "explicit")}


# ---------------------------------------------------------------------------
# handle conveniences (load-generator logging)
# ---------------------------------------------------------------------------
class TestHandleConveniences:
    def test_handle_repr_and_shape(self):
        sim = Simdram(small_config(), seed=1)
        with SimdramService(sim) as service:
            handle = service.submit("add", [1, 2], [3, 4], width=8)
            assert handle.shape == (2,)
            assert len(handle) == 2
            handle.result(60)
            assert "done" in repr(handle)
            assert "tenant='default'" in repr(handle)

    def test_device_tensor_shape(self):
        with SimdramCluster(2, config=small_config()) as cluster:
            tensor = cluster.tensor([1, 2, 3], width=8)
            assert tensor.shape == (3,)
            assert tensor.dtype == "u8"
            assert "shape=(3,)" in repr(tensor)
            tensor.free()

    def test_lazy_tensor_shape(self):
        from repro import lazy

        sim = Simdram(small_config(), seed=1)
        x = lazy.array([1, -2, 3], device=lazy.device(sim))
        assert x.shape == (3,)
        assert "shape=(3,)" in repr(x)
        with pytest.raises(OperationError):
            (x + 1).children[1].shape  # a const has no shape
