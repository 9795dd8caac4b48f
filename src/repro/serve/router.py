"""``ReplicaRouter``: placement + failover over a :class:`ReplicaSet`.

:class:`~repro.serve.SimdramService` packs many small requests into
wide dispatches; this router decides **which replica process** runs
each packed dispatch and keeps every accepted request alive across
replica crashes:

* **placement** — consistent hashing by *kernel identity* (the pack
  key's ``kernel_identity`` half): the same kernel lands on the same
  replica, so each replica's µProgram/executor caches stay hot for its
  share of the key space instead of every replica cold-starting every
  kernel.  The hash ring carries virtual nodes per replica and is
  rebuilt from the live set, so a death only remaps the dead replica's
  arc;
* **least-loaded fallback** — a skewed workload (one hot kernel) would
  pin all traffic to one replica; when the hash-preferred replica has
  more than ``fallback_depth`` in-flight dispatches above the least
  loaded live replica, the dispatch overflows to the least loaded one;
* **warmup** — the serve manifest passed at construction warms every
  replica's kernel cache at spawn (`ReplicaSet` replays it inside each
  child before it reports ready), and :meth:`warm` broadcasts later
  manifests to the live set;
* **failover** — the replica set's death handler hands the router the
  dead replica's in-flight jobs (descriptor + payload + the caller's
  still-pending ``Future``); the router re-submits each to a survivor
  reusing the *same* future, so the ``ServeHandle`` a user holds
  resolves normally with no visible difference beyond latency.  Only
  when no replica survives does the handle fail, with
  :class:`~repro.errors.ReplicaError`.

The router implements the dispatch-target protocol stated once in
:mod:`repro.serve.service` — asynchronously: ``submit_pack`` returns
at once and ``on_done`` fires later from a router/replica thread — so
``SimdramService(ReplicaRouter(4))`` is a drop-in scale-out of
``SimdramService(cluster)``.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

from repro.core.compiler import compile_cached
from repro.errors import DeadlineExceeded, ReplicaError
from repro.obs import clock
from repro.obs.flightrec import get_flight_recorder
from repro.obs.metrics import Sample
from repro.obs.tracing import span as obs_span
from repro.obs.tracing import use_span
from repro.runtime.replica import PendingJob, ReplicaSet, WorkDescriptor

#: Virtual nodes per replica on the hash ring.  Enough that each
#: replica's share of the key space stays within a few percent of
#: uniform; cheap to rebuild (rings are cached per live set).
VNODES = 64


def _stable_hash(value) -> int:
    """Position a key on the ring — stable across processes and runs
    (``repr`` of the pack-key tuple: strings, ints, engine names)."""
    digest = hashlib.blake2b(repr(value).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class ReplicaRouter:
    """Consistent-hash placement with least-loaded fallback and
    in-flight failover (see module docstring)."""

    def __init__(self, replicas: "ReplicaSet | int", *,
                 n_modules: int = 1, config=None,
                 manifest: Sequence[tuple] | None = None,
                 seed: int | None = 1,
                 fallback_depth: int = 1,
                 vnodes: int = VNODES, **replica_kwargs) -> None:
        if isinstance(replicas, int):
            replicas = ReplicaSet(replicas, n_modules=n_modules,
                                  config=config, manifest=manifest,
                                  seed=seed, **replica_kwargs)
            self._owns_replicas = True
        else:
            self._owns_replicas = False
        self.replicas = replicas
        self.fallback_depth = fallback_depth
        self.vnodes = vnodes
        self._rings: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._outstanding = 0
        #: Packed dispatches re-homed by the fallback policy.
        self.n_rebalanced = 0
        #: In-flight jobs re-submitted to a survivor after a death.
        self.n_requeued = 0
        #: Jobs that failed because no replica survived.
        self.n_orphaned = 0
        self._metrics = None
        replicas.set_death_handler(self._on_death)

    # ------------------------------------------------------------------
    # dispatch-target protocol (what SimdramService talks to)
    # ------------------------------------------------------------------
    @property
    def lanes(self) -> int:
        """Lane capacity of ONE dispatch: a packed group runs on a
        single replica, so the packer's flush bound is one replica's
        lane count — replication multiplies concurrent dispatches, not
        the width of each."""
        return self.replicas.lanes

    @property
    def backend(self) -> str:
        return self.replicas.backend

    def attach_metrics(self, metrics) -> None:
        """Let the owning service's :class:`ServeMetrics` see router
        events (per-replica dispatch counters, failovers)."""
        self._metrics = metrics

    def submit_pack(self, request, vectors: list[np.ndarray], lanes: int,
                    on_done: Callable) -> None:
        """Place one packed dispatch and return immediately.

        ``on_done(values, error, replica_id)`` fires exactly once from
        a router/replica thread when the dispatch resolves — after any
        transparent failover.
        """
        desc = WorkDescriptor.of(
            request.op, request.width, request.engine.name,
            deadline=getattr(request, "deadline", None))
        with self._lock:
            self._outstanding += 1

        def _resolved(future) -> None:
            self._settle()
            error = future.exception()
            values, info = ((None, {}) if error is not None
                            else future.result())
            on_done(values, error, info.get("replica_id"))

        try:
            future = self._submit_with_retry(request.key, desc,
                                             vectors, lanes)
        except BaseException as error:  # noqa: BLE001 - fail this pack
            self._settle()
            on_done(None, error, None)
            return
        future.add_done_callback(_resolved)

    def _settle(self) -> None:
        with self._lock:
            self._outstanding -= 1
            if self._outstanding == 0:
                self._idle.notify_all()

    def ready(self) -> bool:
        """Whether another pack should be sent now: fewer than two per
        live replica are outstanding (one executing, one in the pipe).
        Past that a new pack would only queue behind them, so the
        service keeps its groups open and they fill instead.  Every
        completion reaches the service's worker through the handles it
        resolves, which is when the worker asks again.  Lock-free: the
        worker calls this under its own condition."""
        return self._outstanding < 2 * max(
            1, len(self.replicas.alive_ids()))

    def barrier(self, timeout: float | None = None) -> bool:
        """Wait until every submitted pack has called back."""
        with self._lock:
            return self._idle.wait_for(
                lambda: self._outstanding == 0, timeout)

    def program(self, op, width: int):
        """The µProgram the energy model prices for ``op``.  The parent
        holds no kernels — they live in the replica processes — so it
        compiles one, memoized process-wide, with default options."""
        return compile_cached(op, width, self.backend)

    def warm(self, op_or_root, width: int, engine) -> None:
        """Broadcast one kernel to every live replica's caches (the
        service's ``warmup`` target hook)."""
        name = engine if isinstance(engine, str) else engine.name
        self.replicas.warm([(op_or_root, width, name)])

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _ring(self, alive: tuple[int, ...]
              ) -> tuple[list[int], list[int]]:
        ring = self._rings.get(alive)
        if ring is None:
            points = sorted(
                (_stable_hash(("replica", rid, v)), rid)
                for rid in alive for v in range(self.vnodes))
            ring = ([h for h, _ in points], [r for _, r in points])
            self._rings[alive] = ring
        return ring

    def place(self, key) -> int:
        """Choose a live replica for a pack key: the consistent-hash
        owner, unless it is running ``fallback_depth`` more in-flight
        dispatches than the least loaded replica (then the least
        loaded).  Raises :class:`ReplicaError` with no live replica."""
        alive = tuple(self.replicas.alive_ids())
        if not alive:
            raise ReplicaError("no live replica to place on")
        hashes, owners = self._ring(alive)
        index = bisect_right(hashes, _stable_hash(key)) % len(owners)
        preferred = owners[index]
        loads = {rid: self.replicas.n_inflight(rid) for rid in alive}
        least = min(loads.values())
        if loads[preferred] - least > self.fallback_depth:
            preferred = min(alive, key=lambda rid: (loads[rid], rid))
            with self._lock:
                self.n_rebalanced += 1
        return preferred

    def _submit_with_retry(self, key, desc: WorkDescriptor,
                           vectors, lanes: int):
        """Submit, re-placing if the chosen replica dies under us."""
        while True:
            # One placement decision per attempt; the submission's
            # ``replica.transport`` span nests under it (the transport
            # is the decision's consequence).
            place_span = obs_span("router.place")
            try:
                replica_id = self.place(key)  # raises when none survive
            except BaseException as error:
                place_span.finish(error)
                raise
            place_span.set(replica=replica_id)
            try:
                with use_span(place_span):
                    future = self.replicas.submit(replica_id, desc,
                                                  vectors, lanes)
            except ReplicaError:
                place_span.finish("replica died during submit")
                continue  # that replica just died; place again
            place_span.finish()
            return future

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def _on_death(self, replica_id: int,
                  jobs: "list[PendingJob]") -> None:
        """Re-home a dead replica's in-flight jobs onto survivors,
        reusing each job's original future so callers never notice."""
        if self._metrics is not None:
            self._metrics.record_failover(replica_id, len(jobs))
        get_flight_recorder().record(
            "router.failover", replica=replica_id,
            in_flight=len(jobs))
        for job in jobs:
            self._requeue(job)

    def _requeue(self, job: "PendingJob") -> None:
        retry_span = self._open_retry(job)
        try:
            self._requeue_under(job, retry_span)
        finally:
            retry_span.finish()

    @staticmethod
    def _open_retry(job: "PendingJob"):
        """A ``retry`` span recording the failover, with the dead
        attempt's (already-failed) ``replica.transport`` span
        re-parented under it — so the re-homed request's tree keeps the
        failure visible exactly where the re-decision happened."""
        failed = job.span
        parent = getattr(failed, "parent", None)
        if not (failed.recording and parent is not None):
            return failed.child("retry")  # noop when untraced
        retry = parent.child("retry", from_replica=job.attempts[-1],
                             attempts=list(job.attempts))
        if failed in parent.children:
            parent.children.remove(failed)
        retry.adopt(failed)
        return retry

    def _requeue_under(self, job: "PendingJob", retry_span) -> None:
        if job.desc.deadline is not None:
            # Failover respects the request's remaining SLO budget: a
            # job whose deadline already lapsed while its replica died
            # is shed, not re-homed — a survivor's lanes go to work
            # that can still be on time.  The retry span records the
            # budget either way, so post-mortems see how close it was.
            remaining = job.desc.deadline - clock.now()
            retry_span.set(deadline_remaining_s=remaining)
            if remaining <= 0:
                retry_span.fail("deadline lapsed during failover")
                get_flight_recorder().record(
                    "router.shed", job_id=job.job_id,
                    lapsed_s=-remaining)
                if not job.future.done():
                    job.future.set_exception(DeadlineExceeded(
                        f"request shed during failover: deadline "
                        f"lapsed {-remaining:.3f}s before a survivor "
                        f"could take it (tried {job.attempts})"))
                return
        while True:
            alive = self.replicas.alive_ids()
            if not alive:
                with self._lock:
                    self.n_orphaned += 1
                retry_span.fail("every replica died")
                if not job.future.done():
                    job.future.set_exception(ReplicaError(
                        f"request lost: every replica died "
                        f"(tried {job.attempts})"))
                return
            # Least-loaded, not hash-preferred: the hash owner just
            # died, and a requeue's priority is finishing, not cache
            # affinity.
            target = min(alive,
                         key=lambda rid:
                         (self.replicas.n_inflight(rid), rid))
            try:
                with use_span(retry_span):
                    self.replicas.submit(target, job.desc, job.vectors,
                                         job.lanes, future=job.future)
            except ReplicaError:
                continue  # that one died too; scan again
            with self._lock:
                self.n_requeued += 1
            get_flight_recorder().record(
                "router.requeue", job_id=job.job_id, target=target)
            return

    # ------------------------------------------------------------------
    # telemetry / lifecycle
    # ------------------------------------------------------------------
    def paging_stats(self):
        from repro.dram.commands import CommandStats
        total = CommandStats()
        for stats in self.replicas.stats().values():
            paging = stats.get("paging") or {}
            total.n_spills += paging.get("n_spills", 0)
            total.n_fills += paging.get("n_fills", 0)
            total.spill_bits += paging.get("spill_bits", 0)
            total.fill_bits += paging.get("fill_bits", 0)
        return total

    def busy_ns(self) -> float:
        return self.replicas.busy_ns()

    def kernel_cache_size(self) -> int:
        return max((stats.get("kernels_cached", 0)
                    for stats in self.replicas.stats().values()),
                   default=0)

    def replica_stats(self) -> dict:
        """Per-replica health plus the router's placement counters."""
        with self._lock:
            router = {"rebalanced": self.n_rebalanced,
                      "requeued": self.n_requeued,
                      "orphaned": self.n_orphaned,
                      "outstanding": self._outstanding}
        return {"replicas": self.replicas.stats(),
                "alive": self.replicas.alive_ids(),
                "deaths": self.replicas.deaths,
                "router": router}

    def prometheus(self) -> str:
        """Prometheus text exposition of just the replica tier (the
        service's registry scrapes the same samples when this router is
        its dispatch target)."""
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        registry.register_collector(
            lambda: replica_tier_samples(self.replica_stats()))
        return registry.prometheus_text()

    def kill(self, replica_id: int) -> None:
        """Hard-kill one replica (the failover drill's trigger)."""
        self.replicas.kill(replica_id)

    def close(self) -> None:
        self.barrier(timeout=60.0)
        if self._owns_replicas:
            self.replicas.close()

    def __enter__(self) -> "ReplicaRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replica_tier_samples(tier: dict) -> "list[Sample]":
    """Project one :meth:`ReplicaRouter.replica_stats` snapshot into
    registry samples (the service's scrape-time collector calls this
    when its dispatch target exposes a replica tier)."""
    out: list[Sample] = []
    router = tier.get("router", {})
    for key, help_text in (
            ("rebalanced", "packs re-homed by the load fallback"),
            ("requeued", "in-flight jobs re-homed after a death"),
            ("orphaned", "jobs lost because no replica survived")):
        out.append(Sample(f"repro_router_{key}_total",
                          router.get(key, 0), (), "counter", help_text))
    out.append(Sample("repro_router_outstanding_packs",
                      router.get("outstanding", 0), (), "gauge",
                      "packs placed but not yet called back"))
    out.append(Sample("repro_replica_deaths_total",
                      tier.get("deaths", 0), (), "counter",
                      "replica processes declared dead"))
    for rid, stats in sorted(tier.get("replicas", {}).items()):
        labels = (("replica", str(rid)),)
        out.append(Sample("repro_replica_alive",
                          1 if stats.get("alive") else 0, labels,
                          "gauge", "1 while the replica answers"))
        out.append(Sample("repro_replica_jobs_done_total",
                          stats.get("jobs_done", 0), labels, "counter",
                          "dispatches the replica completed"))
        out.append(Sample("repro_replica_in_flight",
                          stats.get("in_flight", 0), labels, "gauge",
                          "dispatches currently on the replica"))
        rtt = stats.get("rtt_last_s")
        if rtt is not None:
            out.append(Sample("repro_replica_rtt_seconds", rtt, labels,
                              "gauge", "last heartbeat round trip"))
        rtt_avg = stats.get("rtt_avg_s")
        if rtt_avg is not None:
            out.append(Sample("repro_replica_rtt_avg_seconds", rtt_avg,
                              labels, "gauge",
                              "smoothed heartbeat round trip"))
    return out
