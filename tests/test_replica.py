"""Multi-process replica tier: transport, placement, failover.

Process spawns are the expensive part, so the live tests share
module-scoped replica sets; the router's placement policy is unit
tested against a fake replica set (no processes at all).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import expr
from repro.core.framework import SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.errors import ReplicaError
from repro.runtime.replica import (_TAG_BYTES, PendingJob, ReplicaSet,
                                   WorkDescriptor)
from repro.serve import ServeConfig, SimdramService
from repro.serve.router import ReplicaRouter, _stable_hash


def small_config() -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=32, data_rows=512, banks=2))


def add_desc(width: int = 8) -> WorkDescriptor:
    return WorkDescriptor(kind="op", op_name="add", root=None,
                          slot_names=(), width=width, engine="auto")


@pytest.fixture(scope="module")
def replica_set():
    with ReplicaSet(2, n_modules=1, config=small_config(),
                    manifest=[("add", 8)]) as replicas:
        yield replicas


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------
class TestReplicaSetTransport:
    def test_op_dispatch_bit_exact(self, replica_set):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 200, 48)
        b = rng.integers(0, 55, 48)
        values, info = replica_set.submit(
            0, add_desc(), [a, b], lanes=48).result(60)
        assert np.array_equal(values, (a + b) % 256)
        assert info["replica_id"] == 0
        assert info["busy_ns"] > 0

    def test_expr_dispatch_bit_exact(self, replica_set):
        """A whole Expr DAG pickles across and computes correctly."""
        rng = np.random.default_rng(1)
        x = rng.integers(0, 100, 32)
        y = rng.integers(0, 100, 32)
        root = expr.relu(expr.sub(expr.inp("x"), expr.inp("y")))
        desc = WorkDescriptor(kind="expr", op_name=None, root=root,
                              slot_names=("x", "y"), width=8,
                              engine="auto")
        values, _ = replica_set.submit(
            1, desc, [x, y], lanes=32).result(60)
        assert np.array_equal(values,
                              np.maximum(x.astype(np.int64) - y, 0))

    def test_manifest_warms_kernel_cache_at_spawn(self, replica_set):
        for stats in replica_set.stats().values():
            if not stats["alive"]:
                continue
            # ("add", 8) from the manifest is already compiled.
            assert stats["kernels_cached"] >= 1

    def test_warm_broadcast(self, replica_set):
        acks = replica_set.warm([("min", 8), ("max", 8)])
        assert all(n == 2 for n in acks.values())
        assert set(acks) == set(replica_set.alive_ids())

    def test_per_job_error_does_not_kill_replica(self, replica_set):
        bad = WorkDescriptor(kind="op", op_name="no-such-op",
                             root=None, slot_names=(), width=8,
                             engine="auto")
        future = replica_set.submit(0, bad, [np.array([1])], lanes=1)
        with pytest.raises(Exception, match="no-such-op"):
            future.result(60)
        assert 0 in replica_set.alive_ids()
        # The replica still serves after the failed job.
        values, _ = replica_set.submit(
            0, add_desc(), [np.array([2]), np.array([3])],
            lanes=1).result(60)
        assert np.array_equal(values, [5])

    def test_heartbeats_flow(self, replica_set):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            stats = replica_set.stats()
            if all(s["pongs_received"] > 0 for s in stats.values()
                   if s["alive"]):
                return
            time.sleep(0.05)
        pytest.fail("no heartbeat pongs observed")


class TestReplicaDeath:
    def test_kill_fails_inflight_without_handler(self):
        with ReplicaSet(1, config=small_config()) as replicas:
            a = np.arange(2000) % 256
            futures = [replicas.submit(0, add_desc(), [a, a], lanes=1)
                       for _ in range(4)]
            replicas.kill(0)
            for future in futures:
                with pytest.raises(ReplicaError):
                    future.result(60)
            assert replicas.alive_ids() == []
            assert replicas.deaths == 1

    def test_death_handler_receives_inflight_jobs(self):
        collected: list = []
        event = threading.Event()
        with ReplicaSet(1, config=small_config()) as replicas:
            def handler(replica_id, jobs):
                collected.append((replica_id, jobs))
                for job in jobs:
                    job.future.set_exception(
                        ReplicaError("handled"))
                event.set()

            replicas.set_death_handler(handler)
            a = np.arange(3000) % 256
            future = replicas.submit(0, add_desc(), [a, a], lanes=1)
            replicas.kill(0)
            assert event.wait(60)
            (replica_id, jobs), = collected
            assert replica_id == 0
            job, = jobs
            # The handler gets everything needed to re-submit: the
            # descriptor, the payload, and the caller's future.
            assert job.desc.op_name == "add"
            assert np.array_equal(job.vectors[0], a)
            assert job.future is future
            assert job.attempts == [0]

    def test_submit_to_dead_replica_raises(self):
        with ReplicaSet(1, config=small_config()) as replicas:
            replicas.kill(0)
            deadline = time.monotonic() + 30
            while replicas.alive_ids() and time.monotonic() < deadline:
                time.sleep(0.02)
            with pytest.raises(ReplicaError):
                replicas.submit(0, add_desc(),
                                [np.array([1]), np.array([2])], lanes=1)

    def test_send_racing_mark_dead_does_not_double_submit(self):
        """Regression: when the monitor buries a replica *between*
        ``submit`` registering a job and the pipe send failing, the
        death handler has already re-homed that job (same future).
        ``submit`` must then hand back that future instead of raising —
        a raise would make the router place the job a second time,
        running it twice against one future."""
        requeued: list = []
        with ReplicaSet(2, config=small_config()) as replicas:
            replicas.set_death_handler(
                lambda rid, jobs: requeued.extend(jobs))
            victim = replicas.replicas[0]

            def racing_send(message, _victim=victim):
                # The pipe "breaks" because the monitor just buried
                # the replica: mark it dead (collecting + re-homing
                # the freshly registered job), then fail the send.
                replicas._mark_dead(_victim)
                raise ReplicaError("pipe broke mid-send")

            victim.send = racing_send
            a = np.arange(64) % 256
            future = replicas.submit(0, add_desc(), [a, a], lanes=64)
            job, = requeued
            assert job.future is future
            assert job.attempts == [0]
            # Nothing double-registered: the collected job is gone
            # from every replica's pending map.
            assert replicas.n_inflight(0) == 0
            assert replicas.n_inflight(1) == 0
            # The victim's process is healthy (only its handle was
            # sabotaged); reap it so close() doesn't wait out a join.
            replicas.kill(0)

    def test_mark_dead_waits_for_a_send_in_progress(self):
        """Regression: ``_mark_dead`` closed the pipe while another
        thread was inside ``send`` with the descriptor already read;
        the failover that follows opens the re-homed job's payload
        segment under the same number, and the late write put a
        pickled message over its first operands (the kill drill
        returned a wrong result about once in forty runs)."""

        class SlowPipe:
            """The victim's pipe, with ``send`` held open."""

            def __init__(self, conn):
                self.conn = conn
                self.sending = threading.Event()
                self.finish = threading.Event()
                self.closed_mid_send = None

            def send(self, message):
                self.sending.set()
                assert self.finish.wait(30)
                self.sending.clear()

            def close(self):
                self.closed_mid_send = self.sending.is_set()
                self.conn.close()

            def recv(self):
                return self.conn.recv()

        with ReplicaSet(1, config=small_config()) as replicas:
            victim = replicas.replicas[0]
            pipe = victim.conn = SlowPipe(victim.conn)
            sender = threading.Thread(
                target=victim.send, args=(("ping", 0),))
            burier = threading.Thread(
                target=replicas._mark_dead, args=(victim,))
            sender.start()
            assert pipe.sending.wait(30)
            burier.start()
            burier.join(0.1)
            waited = burier.is_alive()
            pipe.finish.set()
            sender.join(30)
            burier.join(30)
            assert waited and pipe.closed_mid_send is False
            replicas.kill(0)   # reap the sabotaged handle's process


# ---------------------------------------------------------------------------
# slab transport
# ---------------------------------------------------------------------------
def shm_entries() -> set:
    return set(os.listdir("/dev/shm"))


def slab_names(replicas: ReplicaSet) -> set:
    return {name for replica in replicas.replicas
            for slab in replica.slabs for name in slab.wire[:2]}


class TestSlabTransport:
    def test_no_segment_is_created_per_dispatch(self):
        """Two segments per replica from spawn to close: 200 dispatches
        leave the set of ``/dev/shm`` entries exactly as they found it,
        and ``close()`` leaves none."""
        before = shm_entries()
        rng = np.random.default_rng(2)
        with ReplicaSet(2, config=small_config()) as replicas:
            ours = shm_entries() - before
            assert ours == slab_names(replicas) and len(ours) == 4
            for i in range(200):
                a = rng.integers(0, 128, 64)
                b = rng.integers(0, 128, 64)
                values, _ = replicas.submit(
                    i % 2, add_desc(), [a, b], lanes=64).result(60)
                assert np.array_equal(values, a + b)
                assert shm_entries() - before == ours
        assert shm_entries() - before == set()

    def test_oversize_payload_grows_the_slab_and_round_trips(self):
        """A payload larger than a slot (and a burst larger than the
        ring) takes the same path: the slab is replaced by a larger
        generation, the old one is unlinked once its jobs resolve."""
        before = shm_entries()
        rng = np.random.default_rng(3)
        with ReplicaSet(1, config=small_config()) as replicas:
            replica = replicas.replicas[0]
            first = replica.slabs[-1]
            a = rng.integers(0, 128, 5000)
            b = rng.integers(0, 128, 5000)
            assert a.nbytes > first.slot_bytes
            values, _ = replicas.submit(
                0, add_desc(), [a, b], lanes=64).result(60)
            assert np.array_equal(values, (a + b) % 256)
            grown, = replica.slabs
            assert grown is not first
            assert grown.slot_bytes >= a.nbytes + b.nbytes
            assert shm_entries() - before == slab_names(replicas)
            # More jobs in flight than slots: the ring doubles, mixed
            # dtypes and sizes share it, every answer is its own.
            cases = []
            for i in range(3 * grown.n_slots):
                x = rng.integers(0, 128, 1 + 37 * i).astype(
                    (np.int64, np.uint8, np.int32)[i % 3])
                y = rng.integers(0, 128, 1 + 37 * i)
                cases.append((x, y, replicas.submit(
                    0, add_desc(), [x, y], lanes=len(x))))
            for x, y, future in cases:
                values, _ = future.result(60)
                assert np.array_equal(values, (x + y) % 256)
            current, = replica.slabs      # retired generations are gone
            assert current.n_slots > grown.n_slots
            assert sorted(current.free) == list(range(current.n_slots))
            assert shm_entries() - before == slab_names(replicas)
        assert shm_entries() - before == set()

    def test_late_answer_is_never_read_as_another_jobs_result(self):
        """The PR 12 race, now by construction: an answer for a job
        that is no longer the replica's is dropped, and a slot is only
        read as the job its tag names."""
        with ReplicaSet(1, config=small_config()) as replicas:
            replica = replicas.replicas[0]
            slab = replica.slabs[-1]
            a = np.arange(8)
            values, info = replicas.submit(
                0, add_desc(), [a, a], lanes=8).result(60)
            assert np.array_equal(values, 2 * a)
            slot = slab.free[-1]          # the slot that job just left
            meta = (slot * slab.slot_bytes + _TAG_BYTES, (8,),
                    values.dtype.str)
            # A newer job takes the same slot; the replica never hears
            # of it, so the result slot still holds the old answer.
            replica.send = lambda message: None
            future = replicas.submit(0, add_desc(), [a + 1, a + 1],
                                     lanes=8)
            newer, = replicas._jobs[0].values()
            assert newer.slot == slot
            # The old job's answer arrives late: dropped, nothing freed.
            replicas._on_answer(replica, newer.job_id - 1, meta,
                                dict(info))
            assert not future.done()
            assert replicas.n_inflight(0) == 1
            assert slot not in slab.free
            # An answer claiming to be the newer job's, with the old
            # job's bytes still in the slot: refused by the tag.
            replicas._on_answer(replica, newer.job_id, meta, dict(info))
            with pytest.raises(ReplicaError, match="slot holds job"):
                future.result(0)
            assert replicas.n_inflight(0) == 0
            assert slot in slab.free

    def test_concurrent_submitters_share_the_slabs(self):
        """More submitter threads than cores, a tiny GIL switch
        interval, payloads that keep outgrowing the slab while other
        jobs are in flight: every answer is its own job's, and when
        the dust settles each replica holds one generation with every
        slot free."""
        import sys
        n_threads, per_thread = 6, 25
        errors: list = []

        def submitter(index: int, replicas: ReplicaSet) -> None:
            rng = np.random.default_rng(index)
            try:
                pending = []
                for k in range(per_thread):
                    n = int(rng.integers(1, 40)) * (1 + 30 * (k % 5 == 4))
                    a = rng.integers(0, 128, n)
                    b = rng.integers(0, 128, n)
                    pending.append((a, b, replicas.submit(
                        (index + k) % 2, add_desc(), [a, b], lanes=n)))
                for a, b, future in pending:
                    values, _ = future.result(120)
                    assert np.array_equal(values, (a + b) % 256)
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)

        before = shm_entries()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ReplicaSet(2, config=small_config()) as replicas:
                threads = [threading.Thread(target=submitter,
                                            args=(t, replicas))
                           for t in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(180)
                assert not any(t.is_alive() for t in threads)
                assert not errors
                for replica in replicas.replicas:
                    slab, = replica.slabs
                    assert sorted(slab.free) == list(range(slab.n_slots))
                assert shm_entries() - before == slab_names(replicas)
        finally:
            sys.setswitchinterval(interval)
        assert shm_entries() - before == set()

    def test_kill_one_drill_300_bit_exact_and_slabs_unlinked(self):
        before = shm_entries()
        rng = np.random.default_rng(13)
        with ReplicaRouter(2, config=small_config(),
                           manifest=[("add", 8), ("min", 8)]) as router, \
                SimdramService(router) as service:
            victim = router.replicas.replicas[0]
            victim_names = {name for slab in victim.slabs
                            for name in slab.wire[:2]}
            assert victim_names <= shm_entries()
            cases = []
            for i in range(300):
                a = rng.integers(0, 128, 16)
                b = rng.integers(0, 128, 16)
                cases.append((i % 2, a, b, service.submit(
                    ("add", "min")[i % 2], a, b, width=8,
                    tenant=f"t{i % 4}")))
                if i == 150:
                    router.kill(0)
            for is_min, a, b, handle in cases:
                want = np.minimum(a, b) if is_min else (a + b) % 256
                assert np.array_equal(handle.result(120), want)
            stats = service.stats()
            assert stats["requests"]["completed"] == 300
            assert stats["requests"]["failed"] == 0
            assert stats["replica_tier"]["alive"] == [1]
            assert victim.slabs == []
            assert not victim_names & shm_entries()
        assert shm_entries() - before == set()


# ---------------------------------------------------------------------------
# router placement (no processes: fake replica set)
# ---------------------------------------------------------------------------
class _FakeReplicas:
    lanes = 64
    backend = "simdram"
    deaths = 0

    def __init__(self, alive, loads) -> None:
        self._alive = list(alive)
        self.loads = dict(loads)

    def set_death_handler(self, handler) -> None:
        self.handler = handler

    def alive_ids(self):
        return list(self._alive)

    def n_inflight(self, replica_id):
        return self.loads[replica_id]

    def stats(self):
        return {}


class TestRouterPlacement:
    KEY_A = (("add", 8, "simdram"), "numpy")
    KEY_B = (("mul", 16, "simdram"), "numpy")

    def test_placement_is_deterministic(self):
        router = ReplicaRouter(_FakeReplicas([0, 1, 2, 3],
                                             {i: 0 for i in range(4)}))
        first = router.place(self.KEY_A)
        assert all(router.place(self.KEY_A) == first
                   for _ in range(10))

    def test_distinct_keys_spread(self):
        router = ReplicaRouter(_FakeReplicas([0, 1, 2, 3],
                                             {i: 0 for i in range(4)}))
        keys = [((f"op{i}", 8, "simdram"), "numpy") for i in range(64)]
        used = {router.place(key) for key in keys}
        assert len(used) >= 3  # 64 keys across 4 replicas

    def test_death_only_remaps_dead_arc(self):
        """Consistent hashing: keys owned by survivors keep their
        placement when one replica leaves the ring."""
        full = ReplicaRouter(_FakeReplicas([0, 1, 2, 3],
                                           {i: 0 for i in range(4)}))
        keys = [((f"op{i}", 8, "simdram"), "numpy")
                for i in range(128)]
        before = {key: full.place(key) for key in keys}
        dead = 2
        survivors = ReplicaRouter(_FakeReplicas(
            [0, 1, 3], {0: 0, 1: 0, 3: 0}))
        moved = sum(1 for key in keys
                    if before[key] != dead
                    and survivors.place(key) != before[key])
        assert moved == 0

    def test_least_loaded_fallback(self):
        fake = _FakeReplicas([0, 1], {0: 0, 1: 0})
        router = ReplicaRouter(fake, fallback_depth=1)
        preferred = router.place(self.KEY_A)
        other = 1 - preferred
        # Within fallback_depth: stay on the hash owner.
        fake.loads = {preferred: 1, other: 0}
        assert router.place(self.KEY_A) == preferred
        # Beyond it: overflow to the least loaded replica.
        fake.loads = {preferred: 5, other: 0}
        assert router.place(self.KEY_A) == other
        assert router.n_rebalanced == 1

    def test_ready_while_under_two_packs_per_live_replica(self):
        """The service's flush rule asks ``ready()``: one pack
        executing and one in the pipe per live replica is the limit;
        a death lowers it, and with no replica left a pack goes
        straight through to fail fast instead of waiting."""
        fake = _FakeReplicas([0, 1], {0: 0, 1: 0})
        router = ReplicaRouter(fake)
        for outstanding, ready in ((0, True), (3, True), (4, False)):
            router._outstanding = outstanding
            assert router.ready() is ready
        fake._alive = [1]
        router._outstanding = 2
        assert not router.ready()
        router._settle()                 # a completion frees a slot
        assert router.ready()
        fake._alive = []
        assert router.ready()

    def test_no_live_replica_raises(self):
        router = ReplicaRouter(_FakeReplicas([], {}))
        with pytest.raises(ReplicaError, match="no live replica"):
            router.place(self.KEY_A)

    def test_stable_hash_is_stable(self):
        assert _stable_hash(self.KEY_A) == _stable_hash(
            (("add", 8, "simdram"), "numpy"))
        assert _stable_hash(self.KEY_A) != _stable_hash(self.KEY_B)

    def test_requeue_reuses_future_on_survivor(self):
        """The failover path re-arms the job's original future."""
        submitted = []

        class _Replicas(_FakeReplicas):
            def submit(self, rid, desc, vectors, lanes, future=None):
                submitted.append((rid, desc, future))
                return future

        fake = _Replicas([1], {1: 0})
        router = ReplicaRouter(fake)
        future: Future = Future()
        job = PendingJob(job_id=1, desc=add_desc(),
                         vectors=[np.array([1])], lanes=1,
                         future=future, attempts=[0])
        fake.handler(0, [job])
        (rid, desc, handed), = submitted
        assert rid == 1 and handed is future
        assert router.n_requeued == 1

    def test_requeue_with_no_survivor_fails_future(self):
        fake = _FakeReplicas([], {})
        router = ReplicaRouter(fake)
        future: Future = Future()
        job = PendingJob(job_id=1, desc=add_desc(),
                         vectors=[np.array([1])], lanes=1,
                         future=future, attempts=[0])
        fake.handler(0, [job])
        with pytest.raises(ReplicaError, match="every replica died"):
            future.result(0)
        assert router.n_orphaned == 1


# ---------------------------------------------------------------------------
# the replicated service, end to end
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def served_router():
    with ReplicaRouter(2, config=small_config(),
                       manifest=[("add", 8), ("sub", 8)]) as router:
        yield router


class TestReplicatedService:
    def test_mixed_traffic_bit_exact(self, served_router):
        rng = np.random.default_rng(5)
        with SimdramService(served_router,
                            ServeConfig(max_wait_s=0.002)) as service:
            cases = []
            for i in range(24):
                a = rng.integers(0, 128, 16)
                b = rng.integers(0, 128, 16)
                op = ("add", "sub", "min")[i % 3]
                handle = service.submit(op, a, b, width=8,
                                        tenant=f"t{i % 4}")
                cases.append((op, a, b, handle))
            for op, a, b, handle in cases:
                if op == "add":
                    want = (a + b) % 256
                elif op == "sub":
                    want = (a - b) % 256
                else:
                    want = np.minimum(a, b)
                assert np.array_equal(handle.result(120) % 256,
                                      want % 256), op
            stats = service.stats()
            assert stats["requests"]["completed"] == 24
            assert stats["requests"]["failed"] == 0
            # Dispatches were attributed to replicas.
            assert sum(c["dispatches"]
                       for c in stats["replicas"].values()) \
                == stats["packing"]["dispatches"]
            assert stats["replica_tier"]["alive"] == [0, 1]

    def test_poisoned_request_fails_alone(self, served_router):
        with SimdramService(served_router,
                            ServeConfig(max_wait_s=0.02)) as service:
            good_a = service.submit("add", [1, 2], [3, 4], width=8)
            bad = service.submit("add", [1, 2], [3], width=8)
            good_b = service.submit("add", [5], [6], width=8)
            assert np.array_equal(good_a.result(120), [4, 6])
            assert np.array_equal(good_b.result(120), [11])
            assert bad.exception(120) is not None

    def test_service_close_resolves_everything(self):
        with ReplicaRouter(1, config=small_config()) as router:
            service = SimdramService(router)
            with service.hold():   # still queued when close() comes
                handles = [service.submit("add", [i], [i], width=8)
                           for i in range(4)]
                service.close()
            for i, handle in enumerate(handles):
                assert handle.done()
                assert np.array_equal(handle.result(0), [2 * i])


class TestKillDrill:
    def test_inflight_requests_survive_replica_death(self):
        """The PR's failover drill in miniature: kill a replica with
        dispatches in flight; every handle still resolves bit-exact."""
        rng = np.random.default_rng(11)
        with ReplicaRouter(2, config=small_config(),
                           manifest=[("add", 8)]) as router, \
                SimdramService(router,
                               ServeConfig(max_wait_s=0.001)) as service:
            cases = []
            for _ in range(20):
                a = rng.integers(0, 128, 512)
                b = rng.integers(0, 128, 512)
                cases.append((a, b, service.submit("add", a, b,
                                                   width=8)))
            # Kill as soon as the victim has work in flight (or
            # immediately once all dispatches already resolved).
            victim = 0
            deadline = time.monotonic() + 30
            while (time.monotonic() < deadline
                   and router.replicas.n_inflight(victim) == 0
                   and not all(h.done() for _, _, h in cases)):
                time.sleep(0.001)
            router.kill(victim)
            for a, b, handle in cases:
                assert np.array_equal(handle.result(120),
                                      (a + b) % 256)
            stats = service.stats()
            assert stats["requests"]["failed"] == 0
            assert stats["replica_tier"]["alive"] == [1]
