"""``SimdramService``: a multi-tenant serving layer over SIMDRAM.

The ROADMAP's north star is heavy traffic from many users, yet
SIMDRAM's efficiency comes from *wide* dispatches — one µProgram
replay amortized over thousands of SIMD lanes.  This service is the
bridge between the two: it accepts many small independent requests
(catalog operation, fused :class:`~repro.core.expr.Expr`, or a
captured lazy graph per request), **lane-packs** compatible ones —
same kernel identity, same width, same engine — into shared wide
dispatches on a :class:`~repro.Simdram` module or a sharded
:class:`~repro.SimdramCluster`, and scatters each request's result
slice back to its :class:`ServeHandle` future.

Around the packer sits the production machinery:

* **admission control** — a bounded queue; ``submit`` blocks (or
  raises :class:`~repro.errors.AdmissionError` with ``block=False``)
  while ``max_queue`` accepted requests are still unresolved;
* **weighted fair scheduling** — requests queue per tenant and the
  worker admits them into pack groups in weighted-fair order (each
  tenant's virtual time advances by ``lanes / weight``), so one noisy
  tenant cannot starve the rest; on a cluster the dispatches then flow
  through the runtime's :class:`~repro.runtime.scheduler.JobScheduler`
  like any other job;
* **deadlines** — within the tenant fair scheduling picked, requests
  pop earliest-deadline-first (deadline-less ones last, FIFO among
  themselves), and one whose deadline lapsed in the queue is *shed*:
  failed with :class:`~repro.errors.DeadlineExceeded`, never executed;
* **flush policy** — work-conserving, like the paper's control unit
  that starts a ``bbop`` the moment it is issued: a group dispatches
  when it reaches ``max_lanes``, and otherwise the oldest open group
  dispatches as soon as no admitted request is waiting in a tenant
  queue and the target can take a dispatch (``target.ready()``).
  Batching therefore comes from the target being busy, not from a
  clock; ``max_wait_s`` only bounds a group's wait at a ready target
  while that never happens (:meth:`SimdramService._next_flush` is the
  single decision point).  :meth:`SimdramService.hold` corks the
  queues so that a burst packs deterministically;
* **failure isolation** — a request that fails validation fails its
  own handle only; if a *packed* dispatch (or its packing) fails, the
  group is retried one request at a time so one poisoned request
  cannot corrupt co-packed results;
* **warmup** — :meth:`SimdramService.warmup` precompiles a declared
  op manifest so the first real request never pays Steps 1+2;
* **telemetry** — every serving fact is recorded once, on the
  registry instruments of the service's :class:`~repro.serve.metrics
  .ServeMetrics`; :meth:`SimdramService.stats` (p50/p99 latency,
  lanes-per-dispatch occupancy, packing efficiency, the paging layer's
  spill counters) and the registry scrape both read that one store.

**The target protocol.**  The service talks to every target through
one asynchronous door — :class:`~repro.serve.router.ReplicaRouter`
implements it, :class:`_InProcessTarget` answers it inline for a
module or a cluster: ``lanes`` (one dispatch's capacity), ``backend``,
``ready()`` (a dispatch sent now would start, not queue),
``submit_pack(request, vectors, lanes, on_done)`` whose
``on_done(values, error, replica_id)`` fires exactly once per call —
inline or later from another thread — ``barrier()`` (every submitted
pack has called back), ``program(op, width)`` (the µProgram the
energy model prices), ``warm(op, width, engine)``, and the telemetry
``kernel_cache_size()``, ``paging_stats()``, ``busy_ns()`` (modeled
busy ns, always a number: a module's or a cluster's ``makespan_ns()``,
read from its banks).  Nothing checks it at run time;
``attach_metrics`` and ``replica_stats`` are used when a target has
them.

Typical use::

    from repro.serve import SimdramService

    with SimdramService(cluster) as svc:
        svc.warmup([("add", 8), ("mul", 8)])
        handles = [svc.submit("add", a, b, width=8, tenant="alice")
                   for a, b in requests]
        results = [h.result() for h in handles]
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import deque
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.expr import Expr
from repro.core.fuse import kernel_identity
from repro.dram.commands import CommandStats
from repro.errors import (
    AdmissionError,
    DeadlineExceeded,
    OperationError,
)
from repro.exec.engines import ExecutionEngine, get_engine
from repro.lazy.tensor import LazyTensor
from repro.obs import clock
from repro.obs.flightrec import get_flight_recorder, postmortem
from repro.obs.metrics import MetricsRegistry, Sample, get_registry
from repro.obs.pmu import get_pmu
from repro.obs.tracing import (
    NOOP_SPAN,
    Tracer,
    get_tracer,
    use_span,
)
from repro.serve.batcher import (
    LanePacker,
    PackGroup,
    PreparedRequest,
    prepare,
)
from repro.serve.metrics import RequestEnergyModel, ServeMetrics
from repro.uprog.program import MicroProgram


#: The pager's counters a service reports (``stats()["paging"]``,
#: ``repro_paging_*``).
PAGING = ("n_spills", "n_fills", "spill_bits", "fill_bits")


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one :class:`SimdramService`."""

    #: Upper bound on a pack group's wait once the target can take a
    #: dispatch: an open group normally flushes as soon as the tenant
    #: queues are empty and the target is ready, and only a group that
    #: never sees that moment (a rare kernel under a backlog that
    #: never drains) flushes on this timer — after the requests
    #: already queued at that moment are admitted.  It never sends a
    #: group to a target that is not ``ready()``.
    max_wait_s: float = 0.005
    #: A pack group flushes when its lanes reach this many; ``None``
    #: defaults to the target's total SIMD lane capacity.
    max_lanes: int | None = None
    #: Admission bound (>= 1): requests accepted but not yet resolved.
    max_queue: int = 1024


class ServeHandle:
    """A future for one submitted request.

    Resolves to the request's result vector (decoded per the root
    operation's signedness) once its — possibly shared — dispatch
    completes; re-raises the request's own failure.
    """

    def __init__(self, request_id: int, tenant: str,
                 n_elements: int) -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.n_elements = n_elements
        #: Absolute monotonic SLO deadline, or ``None`` (best effort).
        self.deadline: float | None = None
        #: Resolution verdicts, set when the handle resolves: whether a
        #: deadline-carrying request made its deadline (``None`` when
        #: it carried none) and the modeled DRAM energy charged to it
        #: (``None`` when unpriceable).
        self.on_time: bool | None = None
        self.energy_nj: float | None = None
        #: The request's ``serve.request`` trace root (the no-op
        #: singleton when tracing is off/unsampled); finished — and
        #: thereby recorded — exactly when the handle resolves.
        self.span = NOOP_SPAN
        self._future: Future = Future()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Wait for the request (re-raising its failure)."""
        return self._future.result(timeout)

    def add_done_callback(self, fn) -> None:
        """Invoke ``fn(handle)`` once the handle resolves (success or
        failure) — immediately if it already has.  Runs on the thread
        that resolves the handle, so keep it cheap and never submit
        back into the service from it (enqueue and let another thread
        submit); the streaming layer chains multi-step sequences this
        way."""
        self._future.add_done_callback(lambda _: fn(self))

    def done(self) -> bool:
        return self._future.done()

    def exception(self, timeout: float | None = None
                  ) -> BaseException | None:
        return self._future.exception(timeout)

    @property
    def shape(self) -> tuple[int]:
        return (self.n_elements,)

    def __len__(self) -> int:
        return self.n_elements

    def __repr__(self) -> str:
        if not self._future.done():
            state = "pending"
        elif self._future.exception() is not None:
            state = "failed"
        else:
            state = "done"
        return (f"ServeHandle(#{self.request_id}, "
                f"tenant={self.tenant!r}, {self.n_elements} lanes, "
                f"{state})")


@dataclass
class _RawRequest:
    """One accepted request, queued per tenant until the worker
    prepares and packs it."""

    handle: ServeHandle
    op_or_root: "str | Expr"
    operands: tuple
    feeds: dict | None
    width: int
    tenant: str
    #: Resolved at submission: one engine instance rides the request
    #: through prepare, pack and dispatch (no per-layer string).
    engine: ExecutionEngine
    submitted_at: float
    lanes: int
    #: Open ``serve.admit`` span covering queue wait (noop untraced).
    admit_span: object = NOOP_SPAN
    #: Absolute monotonic SLO deadline, or ``None`` (best effort).
    deadline: float | None = None


# ---------------------------------------------------------------------------
# dispatch targets (the protocol is in the module docstring)
# ---------------------------------------------------------------------------
class _InProcessTarget:
    """A module or a cluster behind the target protocol.  The worker
    thread *is* the executor: ``submit_pack`` runs the dispatch and
    calls back inline, so the target is always ready; the system holds
    every kernel it ran or warmed, so ``program`` is a cache hit."""

    def __init__(self, system) -> None:
        self.system = system
        self.lanes: int = system.lanes
        self.backend: str = system.config.backend

    def ready(self) -> bool:
        return True

    def barrier(self, timeout: float | None = None) -> bool:
        return True

    def map(self, op: "str | Expr", vectors: list[np.ndarray],
            width: int, engine: ExecutionEngine) -> np.ndarray:
        # Looked up per call: a profiler wrapping ``Simdram.map`` or
        # ``SimdramCluster.map`` sees every serve dispatch.
        return self.system.map(op, *vectors, width=width, engine=engine)

    def submit_pack(self, request: PreparedRequest, vectors: list[np.ndarray],
                    lanes: int, on_done) -> None:
        values = error = None
        try:
            values = self.map(request.op, vectors, request.width,
                              request.engine)
        except BaseException as caught:  # noqa: BLE001 - via on_done
            error = caught
        # Outside the try: a callback that raises is the caller's
        # failure, never reported back to it as a dispatch failure.
        on_done(values, error, None)
        if error is not None and not isinstance(error, Exception):
            raise error  # KeyboardInterrupt & co. still stop the worker

    def program(self, op: "str | Expr", width: int) -> MicroProgram:
        return self.system.compile(op, width).program

    def warm(self, op: "str | Expr", width: int,
             engine: ExecutionEngine) -> None:
        self.system.warm(op, width, engine)

    def kernel_cache_size(self) -> int:
        return self.system.kernel_cache_size

    # Only a cluster pages; a module answers zero paging.
    def paging_stats(self) -> CommandStats:
        paging = getattr(self.system, "paging_stats", None)
        return CommandStats() if paging is None else paging()

    def busy_ns(self) -> float:
        return self.system.makespan_ns()


def _wrap_target(target):
    from repro.core.framework import Simdram
    from repro.runtime.cluster import SimdramCluster
    from repro.runtime.replica import ReplicaSet
    from repro.serve.router import ReplicaRouter
    if isinstance(target, (Simdram, SimdramCluster)):
        return _InProcessTarget(target)
    if isinstance(target, ReplicaRouter):
        return target
    if isinstance(target, ReplicaSet):
        return ReplicaRouter(target)
    raise OperationError(
        f"a service wraps a Simdram, SimdramCluster, ReplicaSet or "
        f"ReplicaRouter, got {type(target).__name__}")


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------
class SimdramService:
    """Multi-tenant request serving with SIMD lane-packing (see
    module docstring)."""

    def __init__(self, target, config: ServeConfig | None = None,
                 tenants: dict[str, float] | None = None,
                 tracer: "Tracer | None" = None,
                 registry: "MetricsRegistry | None" = None) -> None:
        # Everything that can reject the construction comes before the
        # first registration in the process-global registry.
        self.config = config or ServeConfig()
        if self.config.max_queue < 1:
            raise OperationError(
                f"max_queue must be >= 1, got {self.config.max_queue}")
        self._weights: dict[str, float] = dict(tenants or {})
        for name, weight in self._weights.items():
            self._check_weight(name, weight)
        self._target = _wrap_target(target)
        self.target = target
        #: Lanes one dispatch may carry before it must flush (also the
        #: occupancy denominator in the metrics).
        self.capacity = (self.config.max_lanes
                         if self.config.max_lanes is not None
                         else self._target.lanes)
        self._packer = LanePacker(self.capacity, self.config.max_wait_s)
        #: The service's one store of serving facts (registry
        #: instruments of its own; see :mod:`repro.serve.metrics`).
        self.metrics = ServeMetrics()
        #: Trace collection (process-global tracer unless injected).
        #: Disabled tracers cost one flag check per request.
        self.tracer = tracer if tracer is not None else get_tracer()
        #: The registry this service exports into: one collector reads
        #: the ``ServeMetrics`` instruments, plus the queue and the
        #: target surfaces the service does not own.
        self.registry = (registry if registry is not None
                         else get_registry())
        self._collector_name = f"serve:{id(self):x}"
        self.registry.register_collector(self._metric_samples,
                                         name=self._collector_name)
        # The device PMU scrapes through the same registry, so a
        # service built on a private registry still exports
        # ``repro_pmu_*`` next to its serving metrics.
        get_pmu().register(self.registry)
        self._energy = RequestEnergyModel()
        attach = getattr(self._target, "attach_metrics", None)
        if attach is not None:
            attach(self.metrics)

        self._cond = threading.Condition()
        self._queues: dict[str, deque[_RawRequest]] = {}
        self._vtime: dict[str, float] = {}
        self._vfloor = 0.0
        #: Request ids accepted but not yet resolved — the
        #: admission-control bound.  One structure (not separate
        #: queued/dispatching states) so no failure path can ever
        #: double-release a slot; ids are monotonic, so a flush can
        #: wait on exactly the requests accepted before it was called.
        self._unresolved: set[int] = set()
        self._last_accepted_id = -1
        #: Cutoff id of every thread currently blocked in
        #: :meth:`flush`.  While any exist, the worker flushes open
        #: groups as soon as no *covered* request (id <= cutoff) is
        #: still queued — late enough that covered requests pack
        #: together, early enough that none lingers behind a busy
        #: target.
        self._flush_cutoffs: list[int] = []
        #: Depth of open :meth:`hold` blocks (the cork).
        self._held = 0
        #: Queued requests that carry a deadline: while there are none,
        #: a tenant queue pops its head without an EDF scan.
        self._deadlines_queued = 0
        #: Requests that were queued when the worker last took stock
        #: and are not admitted yet (worker-thread confined).  The
        #: ``max_wait_s`` timer is consulted only at zero: a request
        #: submitted before a group's time ran out must not miss that
        #: group because the worker was busy dispatching.
        self._backlog = 0
        #: The request the worker is processing right now (crash-guard
        #: bookkeeping; worker-thread confined except under ``_cond``).
        self._current: _RawRequest | None = None
        self._closing = False        # stop + reject new submissions
        self._close_started = False  # exactly one close() joins
        self._closed = False
        self._crashed = False        # worker died on an internal error
        self._ids = itertools.count()
        self._worker = threading.Thread(target=self._run_worker,
                                        name="simdram-serve",
                                        daemon=True)
        self._worker.start()

    @staticmethod
    def _check_weight(tenant: str, weight: float) -> None:
        if not weight > 0:
            raise OperationError(
                f"tenant {tenant!r} needs a positive weight, "
                f"got {weight}")

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------
    def register_tenant(self, tenant: str, weight: float = 1.0) -> None:
        """Declare a tenant's fair-share weight (default 1.0).

        A tenant with weight 2 is admitted twice the lanes of a
        weight-1 tenant while both have requests queued.
        """
        self._check_weight(tenant, weight)
        with self._cond:
            self._weights[tenant] = weight

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, op, *operands, feeds: dict | None = None,
               width: int = 8, tenant: str = "default",
               engine: "str | ExecutionEngine" = "auto",
               block: bool = True,
               timeout: float | None = None,
               deadline_s: float | None = None) -> ServeHandle:
        """Queue one request; returns its :class:`ServeHandle`.

        ``op`` is a catalog operation name (positional ``operands``,
        host vectors), an :class:`~repro.core.expr.Expr` (``feeds``
        binding host vectors to leaf names), or a captured
        :class:`~repro.lazy.LazyTensor` graph (operands and width come
        from its sources).  ``width`` is the pipeline element width
        for op/expr requests.

        Admission control: when ``max_queue`` requests are already in
        flight (accepted, not yet resolved), ``block=True`` waits for
        space (up to ``timeout`` seconds) and ``block=False`` raises
        :class:`~repro.errors.AdmissionError` immediately.

        ``deadline_s`` declares the request's SLO: it should resolve
        within that many seconds of this call.  The verdict lands on
        ``handle.on_time`` and in the goodput metric; the scheduler
        serves the tenant's queue earliest-deadline-first and sheds a
        request whose deadline lapsed before it reached the packer — a
        shed handle raises :class:`~repro.errors.DeadlineExceeded` and
        never executes.

        Semantic validation of op/``Expr`` requests happens on the
        worker thread, so a malformed request fails *its own handle*,
        never the caller or a co-packed request.  Lazy-graph requests
        are the one exception: the graph is lowered at submit time on
        the caller's thread (a ``LazyDevice`` is not thread-safe, so
        its sources must be read where the caller owns them), and an
        invalid graph — e.g. one drawing on more than three sources —
        raises here instead of failing the handle.
        """
        if isinstance(op, LazyTensor):
            if operands or feeds is not None:
                raise OperationError(
                    "lazy-graph requests carry their operands in the "
                    "graph's sources")
            with self._cond:
                # Cheap pre-check: lowering the graph may gather
                # device-resident sources back to host — don't pay
                # that only to be rejected by a closed service.
                if self._closing or self._closed:
                    self.metrics.record_reject(tenant)
                    raise AdmissionError("service is closed")
            op, feeds, width = op.device.export(op)
        # Resolved once, here: an unknown name raises on the caller's
        # thread; the resolved instance rides the request object.
        engine = get_engine(engine)
        lanes = self._lane_estimate(op, operands, feeds)
        handle = ServeHandle(next(self._ids), tenant, lanes)
        now = clock.now()
        slo_deadline = None if deadline_s is None else now + deadline_s
        handle.deadline = slo_deadline
        # One trace root per request; its serve.admit child stays open
        # until the worker pops the request, so queue wait is visible.
        handle.span = self.tracer.trace(
            "serve.request", tenant=tenant,
            request_id=handle.request_id, lanes=lanes)
        if handle.span.recording and deadline_s is not None:
            handle.span.set(deadline_s=deadline_s)
        admit_span = (handle.span.child("serve.admit")
                      if handle.span.recording else NOOP_SPAN)
        raw = _RawRequest(handle=handle, op_or_root=op,
                          operands=tuple(operands), feeds=feeds,
                          width=width, tenant=tenant, engine=engine,
                          submitted_at=now, lanes=lanes,
                          admit_span=admit_span, deadline=slo_deadline)

        deadline = None if timeout is None else clock.now() + timeout
        with self._cond:
            while True:
                if self._closing or self._closed:
                    self.metrics.record_reject(tenant)
                    raise self._reject(handle, admit_span,
                                       AdmissionError("service is closed"))
                if len(self._unresolved) < self.config.max_queue:
                    break
                if not block:
                    self.metrics.record_reject(tenant)
                    raise self._reject(handle, admit_span, AdmissionError(
                        f"queue full ({self.config.max_queue} "
                        f"requests waiting); retry later"))
                remaining = (None if deadline is None
                             else deadline - clock.now())
                if remaining is not None and remaining <= 0:
                    self.metrics.record_reject(tenant)
                    raise self._reject(handle, admit_span, AdmissionError(
                        f"queue full ({self.config.max_queue} "
                        f"requests waiting); timed out after "
                        f"{timeout}s"))
                # Clamp: a remaining that goes non-positive between
                # the check above and here must become a zero-timeout
                # poll — a negative timeout means *wait forever* to
                # the underlying lock acquire.
                self._cond.wait(None if remaining is None
                                else max(0.0, remaining))
            queue = self._queues.get(tenant)
            if queue is None:
                queue = self._queues[tenant] = deque()
            if not queue:
                # (Re)activating tenant: advance its virtual time to
                # the service floor so idle periods earn no credit.
                self._vtime[tenant] = max(
                    self._vtime.get(tenant, 0.0), self._vfloor)
            queue.append(raw)
            if slo_deadline is not None:
                self._deadlines_queued += 1
            self._unresolved.add(handle.request_id)
            # max(): ids are handed out before this lock, so two
            # submitters may enqueue in the opposite order.
            self._last_accepted_id = max(self._last_accepted_id,
                                         handle.request_id)
            # Recorded before the lock releases, so the worker can
            # never record this request's completion first (metrics
            # would transiently show completed > submitted).
            self.metrics.record_submit(
                tenant, lanes, has_deadline=slo_deadline is not None)
            if not self._corked():
                self._cond.notify_all()
        get_flight_recorder().record(
            "serve.admit", request=handle.request_id, tenant=tenant,
            lanes=lanes, deadline_s=deadline_s)
        return handle

    @staticmethod
    def _reject(handle: ServeHandle, admit_span,
                error: AdmissionError) -> AdmissionError:
        """Close a rejected request's trace and hand back the error
        (so call sites stay single-line ``raise`` statements)."""
        admit_span.finish(error)
        handle.span.finish(error)
        return error

    @staticmethod
    def _lane_estimate(op, operands: Sequence, feeds: dict | None) -> int:
        """Best-effort lane count before validation (drives fair-share
        accounting; the prepared request carries the exact number)."""
        candidates = list(operands) + list((feeds or {}).values())
        for value in candidates:
            try:
                return max(1, len(value))
            except TypeError:
                continue
        return 1

    # ------------------------------------------------------------------
    # lifecycle / synchronization
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Dispatch every request accepted *before this call*; blocks
        until each of them has resolved.

        Requests submitted concurrently with (or after) the flush are
        not waited for, so one tenant's checkpoint cannot be starved
        by another tenant's sustained traffic.
        """
        with self._cond:
            if self._closed:
                return
            cutoff = self._last_accepted_id
            self._flush_cutoffs.append(cutoff)
            self._cond.notify_all()
            try:
                # _crashed (set under this lock before the crash
                # guard's notify) rather than a thread-liveness
                # check: a dying worker is still alive() inside its
                # excepthook and will never notify again afterwards.
                self._cond.wait_for(
                    lambda: (self._closed or self._crashed
                             or all(rid > cutoff
                                    for rid in self._unresolved)))
            finally:
                self._flush_cutoffs.remove(cutoff)
                self._cond.notify_all()

    @contextmanager
    def hold(self):
        """Cork the tenant queues: inside the block ``submit`` accepts
        and enqueues as usual but the worker pops nothing; on exit it
        drains the queues in weighted-fair order, packs, and flushes by
        the ordinary rule.  A burst submitted under ``hold()`` therefore
        packs the same way every time — full groups at ``max_lanes``,
        one final partial group per kernel — whatever the thread
        scheduling (tests and modeled benchmarks assert pack
        composition this way, not with a long ``max_wait_s``).

        Holds nest.  The cork never blocks progress: ``flush()``,
        ``close()`` and a full admission queue (``max_queue``) each
        override it, so a blocking ``submit`` under ``hold()`` cannot
        deadlock.
        """
        with self._cond:
            self._held += 1
        try:
            yield self
        finally:
            with self._cond:
                self._held -= 1
                self._cond.notify_all()

    def _corked(self) -> bool:
        """Whether :meth:`hold` keeps the worker from popping right
        now (call under ``_cond``)."""
        return bool(self._held and not self._closing
                    and not self._flush_cutoffs
                    and len(self._unresolved) < self.config.max_queue)

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every accepted request has resolved (success or
        failure).  Returns ``False`` on timeout."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._unresolved, timeout)

    def close(self) -> None:
        """Flush pending work, stop the worker thread (idempotent).

        Every already-accepted request still resolves — pending pack
        groups are dispatched, not dropped.  Later ``submit`` calls
        raise :class:`~repro.errors.AdmissionError`.  Closing does
        *not* close the wrapped module/cluster; the caller owns it.
        """
        with self._cond:
            if self._closed:
                return
            self._closing = True
            first_closer = not self._close_started
            self._close_started = True
            self._cond.notify_all()
        if first_closer:
            self._worker.join()
            with self._cond:
                self._closed = True
                self._cond.notify_all()
        else:
            with self._cond:
                self._cond.wait_for(lambda: self._closed)
        # A closed service stops scraping (idempotent): the collector
        # holds a reference to self, and stats() on a dead target
        # would be stale anyway.
        self.registry.unregister_collector(self._collector_name)

    def __enter__(self) -> "SimdramService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # warmup
    # ------------------------------------------------------------------
    def warmup(self, manifest: Sequence[tuple]) -> dict:
        """Precompile a declared operation manifest.

        ``manifest`` entries are ``(op_name_or_expr, width)``.  Each
        kernel compiles into the target's caches (on a cluster, every
        module adopts it), *and* its execution plan plus the default
        (``auto``) engine's compiled executor are warmed against the
        row layout a packed dispatch will bind, *and* its modeled
        energy is priced — so the first real request replays a fully
        warm pipeline instead of paying Steps 1+2 or codegen inline,
        on the dispatch or on the completion path.  Returns a summary
        dict.
        """
        start = clock.now()
        engine = get_engine("auto")
        kernels: list[list] = []
        for op, width in manifest:
            self._target.warm(op, width, engine)
            identity = kernel_identity(op, width, self._target.backend)
            # Priced here, off the request path: the first completion
            # of this kernel finds its nJ/element already tabulated.
            self._energy.nj_per_element(
                (identity, engine.name),
                lambda: self._target.program(op, width))
            kernels.append([identity[0], width])
        return {"kernels": kernels,
                "n_kernels": len(kernels),
                "seconds": clock.now() - start}

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One snapshot of the service's telemetry (see
        :mod:`repro.serve.metrics` for the schema)."""
        return {**self.metrics.snapshot(), **self._surfaces()}

    def _surfaces(self) -> dict:
        """What the service reads but does not record: its queues, and
        the target's paging, busy time, kernel cache and replica tier."""
        with self._cond:
            queue = {
                "queued": sum(len(q) for q in self._queues.values()),
                "in_flight": len(self._unresolved),
                "max_queue": self.config.max_queue,
                "capacity_lanes": self.capacity,
            }
        paging = self._target.paging_stats()
        out = {
            "queue": queue,
            "paging": {name: getattr(paging, name) for name in PAGING},
            "modeled_busy_ns": self._target.busy_ns(),
            "kernels_cached": self._target.kernel_cache_size(),
        }
        replica_stats = getattr(self._target, "replica_stats", None)
        if replica_stats is not None:
            out["replica_tier"] = replica_stats()
        return out

    def prometheus(self) -> str:
        """The unified registry's Prometheus text exposition — this
        service's serving metrics plus every other instrument and
        collector registered in the same registry."""
        return self.registry.prometheus_text()

    def _metric_samples(self) -> "list[Sample]":
        """The service's scrape collector: the ``ServeMetrics``
        instruments and the series read off them, then the surfaces the
        service only reads (:meth:`_surfaces`) and the tracer's loss
        counters."""
        out = self.metrics.samples()
        view = self._surfaces()
        out.append(Sample("repro_serve_queue_depth",
                          view["queue"]["queued"], (), "gauge",
                          "requests waiting in tenant queues"))
        for name in PAGING:
            out.append(Sample("repro_paging_" + name, view["paging"][name],
                              (), "counter", "paging traffic under serve"))
        out.append(Sample("repro_modeled_busy_ns",
                          view["modeled_busy_ns"], (), "gauge",
                          "modeled DRAM busy time (ns)"))
        out.append(Sample("repro_kernels_cached",
                          view["kernels_cached"], (), "gauge",
                          "kernels resident in the target's caches"))
        for reason, dropped in self.tracer.drop_stats().items():
            out.append(Sample(
                "repro_trace_dropped_total", dropped,
                (("reason", reason),), "counter",
                "trace data lost silently: finished roots evicted "
                "from the buffer, children past MAX_CHILDREN"))
        tier = view.get("replica_tier")
        if tier is not None:
            from repro.serve.router import replica_tier_samples
            out.extend(replica_tier_samples(tier))
        return out

    # ------------------------------------------------------------------
    # the worker: weighted-fair admit -> prepare -> pack -> dispatch
    # ------------------------------------------------------------------
    def _pop_locked(self) -> _RawRequest | None:
        """Weighted-fair pop: the tenant queue with the least virtual
        time goes first; its time advances by ``lanes / weight``.
        ``None`` when nothing is queued or the queues are corked
        (:meth:`hold`).

        ``_queues`` only holds tenants with requests waiting — a
        queue that empties is reclaimed together with its virtual
        time (the tenant reseeds from the floor on reactivation), so
        high-cardinality tenant ids never grow the per-pop scan or
        the service's memory.
        """
        if not self._queues or self._corked():
            return None
        tenant = min(self._queues,
                     key=lambda t: self._vtime.get(t, 0.0))
        queue = self._queues[tenant]
        raw = (self._pop_edf(queue) if self._deadlines_queued
               else queue.popleft())
        if raw.deadline is not None:
            self._deadlines_queued -= 1
        vtime = self._vtime.get(tenant, 0.0)
        self._vfloor = max(self._vfloor, vtime)
        charged = vtime + raw.lanes / self._weights.get(tenant, 1.0)
        if queue:
            self._vtime[tenant] = charged
        else:
            del self._queues[tenant]
            self._vtime.pop(tenant, None)
            # The leaving tenant's full charge becomes the floor, so
            # rejoining exactly where it left grants no idle credit.
            self._vfloor = max(self._vfloor, charged)
        return raw

    @staticmethod
    def _pop_edf(queue: "deque[_RawRequest]") -> _RawRequest:
        """Earliest-deadline-first pop within one tenant's queue.

        Deadline-less requests sort last and stay FIFO among themselves
        (``min`` keeps the first of equal keys).  A lapsed request keeps
        its earliest-first rank, so it pops *soonest* and :meth:`_admit`
        sheds it, costing the scan one entry instead of lanes.  O(queue)
        per pop; queues are bounded by ``max_queue``, and a service with
        no deadline queued never scans (:meth:`_pop_locked`).
        """
        inf = float("inf")
        index, raw = min(enumerate(queue), key=lambda item: (
            inf if item[1].deadline is None else item[1].deadline))
        del queue[index]
        return raw

    def _run_worker(self) -> None:
        try:
            self._worker_loop()
        except BaseException as error:  # noqa: BLE001 - never hang callers
            # An unexpected scheduler failure must not strand callers
            # blocked on handles: fail everything pending — queued,
            # packed, and the request being processed — then stop.
            with self._cond:
                raws = [raw for queue in self._queues.values()
                        for raw in queue]
                for queue in self._queues.values():
                    queue.clear()
                groups = self._packer.drain()
                current = self._current
                self._current = None
                self._closing = True
                self._crashed = True
                self._cond.notify_all()
            if current is not None:
                self._fail_request(current.handle, current.tenant,
                                   error)
            for raw in raws:
                self._fail_request(raw.handle, raw.tenant, error)
            for group in groups:
                for request in group.requests:
                    self._fail_request(request.handle, request.tenant,
                                       error)
            # The black box outlives the crash: dump the merged
            # flight-recorder postmortem before re-raising.
            get_flight_recorder().record("serve.crash",
                                         error=repr(error))
            path = postmortem(f"serve worker crashed: {error!r}")
            if path is not None:
                print(f"[repro] flight-recorder postmortem: {path}",
                      file=sys.stderr)
            raise

    def _worker_loop(self) -> None:
        """Admit one queued request, then flush at most one group, and
        look again — so a request that arrives while a group is being
        dispatched still joins the groups that remain."""
        while True:
            with self._cond:
                raw = self._pop_locked()
                if raw is not None and self._backlog == 0:
                    # Take stock: this request and all queued behind it.
                    self._backlog = 1 + sum(
                        len(queue) for queue in self._queues.values())
                now = clock.now()
                flush = None if raw is not None else self._next_flush(now)
                if raw is None and flush is None:
                    if self._closing and not self._queues:
                        break  # nothing queued, nothing open
                    # Every change to what _next_flush reads — a
                    # submit, a completion (which is what flips an
                    # async target's ready()), flush(), close(), the
                    # end of a hold() — notifies this condition; the
                    # timeout only serves the max_wait_s bound.  A
                    # deadline that had lapsed at ``now`` was just
                    # refused for a reason no clock changes (the
                    # target is busy): sleep until notified, a zero
                    # timeout would spin on the CPU the target needs.
                    deadline = self._packer.next_deadline()
                    self._cond.wait(
                        None if deadline is None or deadline <= now
                        else deadline - now)
                    continue
            if raw is not None:
                self._current = raw
                full = self._admit(raw)
                self._current = None
                self._backlog -= 1
                flush = self._next_flush(clock.now(), full)
            if flush is not None:
                group, reason = flush
                self.metrics.record_flush(reason)
                self._dispatch(group)
        # A target may resolve dispatches on its own threads; close()
        # promises every accepted request resolves before the worker
        # is joined.
        self._target.barrier()

    def _next_flush(self, now: float, full: PackGroup | None = None
                    ) -> "tuple[PackGroup, str] | None":
        """The one flush decision point, for every kind of target:
        which open group to dispatch now, and why — or ``None``.

        * ``full`` — the request just admitted filled its group;
        * ``explicit`` — a :meth:`flush` is waiting (or the service is
          closing) and every request it covers has left the tenant
          queues: not earlier, so covered requests still pack together;
        * ``ready`` — the work-conserving rule: no admitted request is
          waiting in a tenant queue and the target can take a dispatch,
          so holding the oldest group back would only add latency;
        * ``timer`` — at ``now`` the oldest group has waited
          ``max_wait_s``, the target is ready (a small group sent to a
          busy one only queues there) and ``ready`` did not come: a
          backlog that never drains, a held queue.  Consulted once the
          requests already queued are admitted (``_backlog``).

        One group per call, oldest first; the worker looks at the
        queues again before asking for the next.
        """
        if full is not None:
            return full, "full"
        deadline = self._packer.next_deadline()
        if deadline is None:
            return None  # no open group
        with self._cond:
            # Only queue *heads* are inspected (O(tenants), not
            # O(backlog)): per-tenant queues are FIFO, so an older
            # covered request sits at the front.  Two submitters
            # racing into one queue can briefly hide a covered request
            # behind a newer id; the next pop re-checks, so the flush
            # is only delayed by an admit, never lost.
            cutoff = (float("inf") if self._closing
                      else max(self._flush_cutoffs, default=-1))
            if cutoff >= 0 and not any(
                    queue[0].handle.request_id <= cutoff
                    for queue in self._queues.values()):
                reason = "explicit"
            elif not self._queues and self._target.ready():
                reason = "ready"
            elif (self._backlog == 0 and now >= deadline
                  and self._target.ready()):
                reason = "timer"
            else:
                return None
        return self._packer.take_oldest(), reason

    def _admit(self, raw: _RawRequest) -> PackGroup | None:
        """Prepare one raw request and pack it; returns the group it
        filled, if any."""
        raw.admit_span.finish()  # queue wait ends here
        if raw.deadline is not None and clock.now() >= raw.deadline:
            # Shed: the deadline lapsed in the queue; executing now
            # can only produce a late answer while displacing lanes
            # from requests that can still make theirs.
            self._fail_request(raw.handle, raw.tenant, DeadlineExceeded(
                f"request #{raw.handle.request_id} shed: deadline "
                f"lapsed before admission"))
            return None
        try:
            request = prepare(
                raw.handle, raw.op_or_root, raw.operands, raw.feeds,
                raw.width, raw.tenant, raw.engine,
                self._target.backend, raw.submitted_at)
        except Exception as error:  # noqa: BLE001 - fails its handle only
            self._fail_request(raw.handle, raw.tenant, error)
            return None
        request.span = raw.handle.span
        request.deadline = raw.deadline
        if request.span.recording:
            # Open until the group dispatches: the packer wait.
            request.pack_span = request.span.child(
                "serve.pack", kernel=request.key[0][0],
                engine=request.key[1])
        raw.handle.n_elements = request.n_elements
        return self._packer.add(request)

    # ------------------------------------------------------------------
    # dispatch and scatter: one path, in callback form, for every target
    # ------------------------------------------------------------------
    def _dispatch(self, group: PackGroup) -> None:
        """Hand one packed group to the target; its ``on_done`` (inline,
        or from a router thread after any failover) scatters the slices
        to the handles.  A failing pack or dispatch falls back to
        per-request execution, so only the poisoned request fails.  No
        exit path — not even a ``KeyboardInterrupt`` mid-pack — may
        leave a co-packed handle unresolved: a caller blocked on
        :meth:`ServeHandle.result` would never wake."""
        requests = group.requests
        dispatch_span = self._open_dispatch(group)
        try:
            try:
                packed, slices = group.pack()
            except Exception as error:  # noqa: BLE001 - retried alone
                self._dispatch_failed(requests, dispatch_span, error)
                return

            def on_done(out, error, replica_id) -> None:
                if error is not None:
                    self._dispatch_failed(requests, dispatch_span, error)
                    return
                dispatch_span.finish()
                self._scatter(requests, slices, out, dispatch_span,
                              replica_id)

            # Ambient during the dispatch: engine, router.place and
            # replica.transport spans attach under the dispatch span.
            with use_span(dispatch_span):
                self._target.submit_pack(requests[0], packed,
                                         group.total_lanes, on_done)
        except BaseException as error:  # noqa: BLE001 - see docstring
            dispatch_span.finish(error)
            # Already-resolved handles are skipped (done() guard).
            for request in requests:
                self._fail_request(request.handle, request.tenant, error)
            raise

    def _dispatch_failed(self, requests: list[PreparedRequest],
                         dispatch_span, error: BaseException) -> None:
        """Keep a failed shared attempt in every pending traced request
        (next to whatever the fallback records), then retry each
        request alone — or fail them all."""
        dispatch_span.finish(error)
        if dispatch_span.recording:
            for request in requests:
                if request.span.recording:
                    request.span.adopt(dispatch_span)
        if isinstance(error, Exception) and len(requests) > 1:
            self.metrics.record_fallback()
            for request in requests:
                self._dispatch_one(request)
        else:
            for request in requests:
                self._fail_request(request.handle, request.tenant, error)

    def _dispatch_one(self, request: PreparedRequest) -> None:
        """Fallback unit: one request alone, so only a poisoned one fails."""
        retry_span = (request.span.child("serve.dispatch", fallback=True)
                      if request.span.recording else NOOP_SPAN)

        def on_done(out, error, replica_id) -> None:
            retry_span.finish(error)
            if error is not None:
                self._fail_request(request.handle, request.tenant, error)
            else:
                self._scatter([request], [(0, request.n_elements)], out,
                              NOOP_SPAN, replica_id)

        with use_span(retry_span):
            self._target.submit_pack(request, request.vectors,
                                     request.n_elements, on_done)

    def _scatter(self, requests: list[PreparedRequest], slices, out,
                 dispatch_span, replica: int | None) -> None:
        """Account one finished dispatch and resolve each of its
        requests with its ``[lo, hi)`` slice of the one result array
        (no copy per request)."""
        self.metrics.record_dispatch(len(requests), slices[-1][1],
                                     self.capacity, replica=replica)
        for request, (lo, hi) in zip(requests, slices):
            if request.span.recording:
                if dispatch_span.recording:
                    request.span.adopt(dispatch_span)
                request.span.child("serve.scatter", lo=lo, hi=hi).finish()
            self._finish_request(request, out[lo:hi])

    def _open_dispatch(self, group: PackGroup):
        """Close the group's pack spans and open one *detached*
        ``serve.dispatch`` span shared by every request in the group.

        Detached because the packed execution belongs to N request
        trees at once; at scatter time the finished dispatch subtree
        itself is adopted by each traced request (:meth:`_scatter`), so
        every request reads as one complete tree and the N trees share
        that subtree by reference."""
        requests = group.requests
        for request in requests:
            request.pack_span.finish()
        get_flight_recorder().record(
            "serve.dispatch", kernel=str(requests[0].key[0][0]),
            n_requests=len(requests), lanes=group.total_lanes)
        if not any(r.span.recording for r in requests):
            return NOOP_SPAN
        key = requests[0].key
        return self.tracer.start_detached(
            "serve.dispatch", kernel=key[0][0], engine=key[1],
            n_requests=len(requests), lanes=group.total_lanes)

    def _finish_request(self, request: PreparedRequest,
                        values: np.ndarray) -> None:
        if request.handle._future.done():
            return
        now = clock.now()
        on_time = (None if request.deadline is None
                   else now <= request.deadline)
        # The target prices the kernel it ran: in-process targets hold
        # it (a cache hit), only the replica router compiles — once per
        # pack key, or never when warmup() already priced it.
        per_element = self._energy.nj_per_element(
            request.key,
            lambda: self._target.program(request.op, request.width))
        energy_nj = (None if per_element is None
                     else per_element * request.n_elements)
        request.handle.on_time = on_time
        request.handle.energy_nj = energy_nj
        request.handle._future.set_result(values)
        self.metrics.record_completion(request.tenant,
                                       now - request.submitted_at,
                                       on_time=on_time,
                                       energy_nj=energy_nj)
        request.handle.span.finish()
        self._release_inflight(request.handle)

    def _fail_request(self, handle: ServeHandle, tenant: str,
                      error: BaseException) -> None:
        if handle._future.done():
            return
        handle._future.set_exception(error)
        if isinstance(error, DeadlineExceeded):
            # Shed, not failed: the request never executed; goodput
            # math and error-rate alerts must not conflate the two.
            self.metrics.record_shed(tenant)
            get_flight_recorder().record(
                "serve.shed", request=handle.request_id,
                tenant=tenant)
        else:
            self.metrics.record_failure(tenant)
            get_flight_recorder().record(
                "serve.fail", request=handle.request_id,
                tenant=tenant, error=repr(error))
        handle.span.finish(error)
        self._release_inflight(handle)

    def _release_inflight(self, handle: ServeHandle) -> None:
        with self._cond:
            self._unresolved.discard(handle.request_id)
            self._cond.notify_all()
