"""Telemetry for the serving layer.

One :class:`ServeMetrics` instance per :class:`~repro.serve.SimdramService`
collects everything an operator watches on a serving box:

* **request counters** — submitted / completed / failed / rejected, in
  total and per tenant;
* **latency** — wall time from ``submit`` to handle resolution, kept in
  a bounded reservoir so ``p50``/``p99`` stay cheap under sustained
  load;
* **packing** — how well the lane packer amortizes dispatches:
  requests per dispatch, *lane occupancy* (lanes carried per dispatch
  over the lanes it could have carried) and *packing efficiency*
  (fraction of dispatches saved versus one-dispatch-per-request),
  and what decided each flush (``flushes``: full / ready / timer /
  explicit);
* **spill counts** — paging traffic observed under the serving path
  (filled in by ``service.stats()`` from the cluster's pagers);
* **replicas** — when the service dispatches through a
  :class:`~repro.serve.router.ReplicaRouter`, per-replica dispatch /
  request / lane counters plus failover events (replica deaths seen
  and requests re-queued onto survivors);
* **SLO accounting** — requests carrying a deadline are classified at
  resolution into *on-time* / *late* / *shed* (shed = the scheduler
  dropped a lapsed request without executing it,
  :class:`~repro.errors.DeadlineExceeded`), per tenant and in total,
  with **goodput** (on-time completions per second of service
  lifetime) derived in :meth:`ServeMetrics.snapshot`;
* **modeled energy** — :class:`RequestEnergyModel` folds the perf
  layer's DRAM energy model (:class:`~repro.perf.model.PimSystemModel`)
  into the serving path: each completed request is charged the modeled
  nanojoules of its kernel's µProgram times the lanes it occupied, so
  the service reports *joules per request*, not just latency.

Latency percentiles are computed over a bounded sliding **reservoir**
of the most recent :data:`RESERVOIR` completions, so a long-running
service reports *recent* tail latency; ``latency_ms.max`` is the true
lifetime maximum (never evicted), and ``latency_ms.window_max`` is the
maximum within the current reservoir window.

All recording methods are thread-safe; :meth:`snapshot` returns one
plain ``dict`` suitable for logging or JSON export.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from repro.obs import clock

#: Latency samples kept for the percentile estimates.  Old samples
#: fall off, so long-running services report *recent* tail latency.
RESERVOIR = 8192

#: Why a pack group was flushed; the label set of
#: ``repro_serve_flushes_total`` (every reason is always present).
FLUSH_REASONS = ("full", "ready", "timer", "explicit")


def percentile(samples: list[float], q: float,
               method: str = "linear") -> float:
    """The ``q``-th percentile (0..100); 0.0 on an empty sample set.

    ``method`` follows :func:`numpy.percentile`.  The default linear
    interpolation is the general-purpose estimator; :meth:`ServeMetrics
    .snapshot` asks for ``"higher"`` (nearest observed rank) so its
    reported percentiles are always values that actually occurred —
    see the comment there.
    """
    if not samples:
        return 0.0
    return float(np.percentile(samples, q, method=method))


class _TenantCounters:
    __slots__ = ("submitted", "completed", "failed", "rejected",
                 "shed", "lanes")

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.shed = 0
        self.lanes = 0

    def as_dict(self) -> dict:
        return {"submitted": self.submitted, "completed": self.completed,
                "failed": self.failed, "rejected": self.rejected,
                "shed": self.shed, "lanes": self.lanes}


class _ReplicaCounters:
    __slots__ = ("dispatches", "requests", "lanes")

    def __init__(self) -> None:
        self.dispatches = 0
        self.requests = 0
        self.lanes = 0

    def as_dict(self) -> dict:
        return {"dispatches": self.dispatches,
                "requests": self.requests, "lanes": self.lanes}


class ServeMetrics:
    """Thread-safe counters and latency reservoir for one service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantCounters] = {}
        self._replicas: dict[int, _ReplicaCounters] = {}
        self.n_submitted = 0
        self.n_completed = 0
        self.n_failed = 0
        self.n_rejected = 0
        #: Packed dispatches issued (each runs one µProgram stream).
        self.n_dispatches = 0
        #: Requests carried by those dispatches.
        self.n_dispatched_requests = 0
        #: Total SIMD lanes carried by those dispatches.
        self.lanes_dispatched = 0
        #: Sum over dispatches of lanes / flush capacity (for the mean).
        self._occupancy_sum = 0.0
        #: Packed dispatches that failed and were retried sequentially.
        self.n_sequential_fallbacks = 0
        #: Pack-group flushes by what decided them (the service's one
        #: flush decision point): the group filled, the queues were
        #: empty and the target ready, ``max_wait_s`` ran out, or a
        #: ``flush()``/``close()`` forced it.
        self._flushes = dict.fromkeys(FLUSH_REASONS, 0)
        #: Replica deaths observed / requests re-queued onto survivors.
        self.n_replica_deaths = 0
        self.n_failover_requeues = 0
        #: SLO accounting: requests submitted with a deadline, and how
        #: they resolved — completed within it, completed late, or
        #: shed (dropped un-executed with ``DeadlineExceeded``).
        self.n_with_deadline = 0
        self.n_on_time = 0
        self.n_late = 0
        self.n_shed = 0
        #: Modeled DRAM energy charged to completed requests (nJ), and
        #: how many requests were metered (the energy model can decline
        #: a request it cannot price without failing it).
        self.energy_nj_total = 0.0
        self.n_energy_metered = 0
        self._latencies: deque[float] = deque(maxlen=RESERVOIR)
        #: True maximum over the service's whole lifetime — samples
        #: falling out of the bounded reservoir never lower it.
        self._lifetime_max_s = 0.0
        #: Goodput denominator: service lifetime (reset() restarts it).
        self._started_at = clock.now()

    def _tenant(self, tenant: str) -> _TenantCounters:
        counters = self._tenants.get(tenant)
        if counters is None:
            counters = self._tenants[tenant] = _TenantCounters()
        return counters

    # ------------------------------------------------------------------
    # recording (called from submitter and worker threads)
    # ------------------------------------------------------------------
    def record_submit(self, tenant: str, lanes: int,
                      has_deadline: bool = False) -> None:
        with self._lock:
            self.n_submitted += 1
            if has_deadline:
                self.n_with_deadline += 1
            counters = self._tenant(tenant)
            counters.submitted += 1
            counters.lanes += lanes

    def record_reject(self, tenant: str) -> None:
        with self._lock:
            self.n_rejected += 1
            self._tenant(tenant).rejected += 1

    def record_dispatch(self, n_requests: int, lanes: int,
                        capacity: int,
                        replica: int | None = None) -> None:
        with self._lock:
            self.n_dispatches += 1
            self.n_dispatched_requests += n_requests
            self.lanes_dispatched += lanes
            self._occupancy_sum += min(1.0, lanes / max(1, capacity))
            if replica is not None:
                counters = self._replicas.get(replica)
                if counters is None:
                    counters = self._replicas[replica] = \
                        _ReplicaCounters()
                counters.dispatches += 1
                counters.requests += n_requests
                counters.lanes += lanes

    def record_fallback(self) -> None:
        with self._lock:
            self.n_sequential_fallbacks += 1

    def record_flush(self, reason: str) -> None:
        with self._lock:
            self._flushes[reason] += 1

    def record_failover(self, replica: int, n_requeued: int) -> None:
        """One replica died with ``n_requeued`` dispatches in flight
        (each re-submitted to a survivor by the router)."""
        with self._lock:
            self.n_replica_deaths += 1
            self.n_failover_requeues += n_requeued

    def record_completion(self, tenant: str, latency_s: float,
                          on_time: "bool | None" = None,
                          energy_nj: "float | None" = None) -> None:
        """One resolved request.  ``on_time`` is ``None`` when the
        request carried no deadline, else whether it met it;
        ``energy_nj`` is the modeled DRAM energy charged to it (absent
        when the energy model could not price the kernel)."""
        with self._lock:
            self.n_completed += 1
            self._tenant(tenant).completed += 1
            if on_time is not None:
                if on_time:
                    self.n_on_time += 1
                else:
                    self.n_late += 1
            if energy_nj is not None:
                self.energy_nj_total += energy_nj
                self.n_energy_metered += 1
            self._latencies.append(latency_s)
            if latency_s > self._lifetime_max_s:
                self._lifetime_max_s = latency_s

    def record_failure(self, tenant: str) -> None:
        with self._lock:
            self.n_failed += 1
            self._tenant(tenant).failed += 1

    def record_shed(self, tenant: str) -> None:
        """One request dropped un-executed because its deadline lapsed
        (``DeadlineExceeded``) — counted apart from failures so goodput
        math and load-shedding visibility don't blur into errors."""
        with self._lock:
            self.n_shed += 1
            self._tenant(tenant).shed += 1

    def reset(self) -> None:
        """Zero every counter, tenant/replica table and the latency
        reservoir (including the lifetime max) — so one bench harness
        can reuse a warm service across measured phases without
        earlier phases polluting the numbers."""
        with self._lock:
            self._tenants.clear()
            self._replicas.clear()
            self.n_submitted = 0
            self.n_completed = 0
            self.n_failed = 0
            self.n_rejected = 0
            self.n_dispatches = 0
            self.n_dispatched_requests = 0
            self.lanes_dispatched = 0
            self._occupancy_sum = 0.0
            self.n_sequential_fallbacks = 0
            self._flushes = dict.fromkeys(FLUSH_REASONS, 0)
            self.n_replica_deaths = 0
            self.n_failover_requeues = 0
            self.n_with_deadline = 0
            self.n_on_time = 0
            self.n_late = 0
            self.n_shed = 0
            self.energy_nj_total = 0.0
            self.n_energy_metered = 0
            self._latencies.clear()
            self._lifetime_max_s = 0.0
            self._started_at = clock.now()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Everything, as one plain dict (see module docstring)."""
        with self._lock:
            samples = list(self._latencies)
            dispatches = self.n_dispatches
            packed = self.n_dispatched_requests
            elapsed_s = max(1e-9, clock.now() - self._started_at)
            metered = self.n_energy_metered
            return {
                "requests": {
                    "submitted": self.n_submitted,
                    "completed": self.n_completed,
                    "failed": self.n_failed,
                    "rejected": self.n_rejected,
                    "shed": self.n_shed,
                    "in_flight": (self.n_submitted - self.n_completed
                                  - self.n_failed - self.n_shed),
                },
                "slo": {
                    "with_deadline": self.n_with_deadline,
                    "on_time": self.n_on_time,
                    "late": self.n_late,
                    "shed": self.n_shed,
                    # Goodput = deadline-meeting completions per second
                    # of service lifetime (reset() restarts the clock).
                    "goodput_rps": self.n_on_time / elapsed_s,
                    "elapsed_s": elapsed_s,
                },
                "energy": {
                    "modeled_request_nj_total": self.energy_nj_total,
                    "requests_metered": metered,
                    "nj_per_request_mean": (
                        self.energy_nj_total / metered if metered
                        else 0.0),
                },
                "latency_ms": {
                    # p50/p99/window_max are computed over the bounded
                    # reservoir (recent window); max is lifetime-true.
                    # Nearest-rank ("higher"), not linear interpolation:
                    # with fewer samples than the reservoir holds —
                    # above all, fewer than 100 — an interpolated p99
                    # sits strictly *below* window_max even though the
                    # window's 99th percentile is its largest sample.
                    # Nearest-rank keeps p99 <= window_max an equality
                    # whenever the window is small, so the two figures
                    # never contradict each other.
                    "p50": percentile(samples, 50, method="higher") * 1e3,
                    "p99": percentile(samples, 99, method="higher") * 1e3,
                    "max": self._lifetime_max_s * 1e3,
                    "window_max": max(samples, default=0.0) * 1e3,
                    "samples": len(samples),
                    "window": RESERVOIR,
                },
                "packing": {
                    "dispatches": dispatches,
                    "packed_requests": packed,
                    "requests_per_dispatch": (
                        packed / dispatches if dispatches else 0.0),
                    "lanes_dispatched": self.lanes_dispatched,
                    # Mean over dispatches of lanes carried / lanes the
                    # flush policy would have allowed.
                    "lane_occupancy": (
                        self._occupancy_sum / dispatches
                        if dispatches else 0.0),
                    # Fraction of dispatches lane-packing saved versus
                    # one dispatch per request.
                    "packing_efficiency": (
                        1.0 - dispatches / packed if packed else 0.0),
                    "sequential_fallbacks": self.n_sequential_fallbacks,
                    "flushes": dict(self._flushes),
                },
                "failover": {
                    "replica_deaths": self.n_replica_deaths,
                    "requeued_requests": self.n_failover_requeues,
                },
                "replicas": {rid: counters.as_dict()
                             for rid, counters
                             in sorted(self._replicas.items())},
                "tenants": {name: counters.as_dict()
                            for name, counters
                            in sorted(self._tenants.items())},
            }


class RequestEnergyModel:
    """Modeled DRAM joules per served request.

    Folds the perf layer's energy model into the serving path: a pack
    key's kernel is one µProgram whose nanojoule cost under the paper's
    DDR4-2400 module (:meth:`~repro.perf.model.PimSystemModel.paper`)
    is a pure function of the command stream, so it is computed once
    per pack key and cached.  Per-element energy is bank-count
    invariant (the ``measure()`` contract), so a request's bill is
    simply ``nJ/element × n_elements`` regardless of how the packer
    grouped it.  The model prices the µProgram it is handed — the one
    the dispatch target actually runs — and never compiles.  Pricing
    failures return ``None`` instead of raising — energy metering must
    never fail a request.
    """

    def __init__(self, system=None) -> None:
        from repro.perf.model import PimSystemModel
        self._system = system or PimSystemModel.paper()
        self._lock = threading.Lock()
        self._nj_per_element: dict = {}

    def nj_per_element(self, key, program_of) -> "float | None":
        """Modeled nanojoules per element of pack key ``key``.

        ``program_of()`` fetches the key's µProgram and is called only
        the first time the key is seen; ``None`` when it cannot (e.g.
        the target has no such kernel).
        """
        with self._lock:
            if key in self._nj_per_element:
                return self._nj_per_element[key]
        try:
            system = self._system
            per_element = program_of().energy_nj(
                system.timing, system.geometry,
                system.energy) / system.geometry.cols
        except Exception:  # noqa: BLE001 - metering must not fail serving
            per_element = None
        with self._lock:
            return self._nj_per_element.setdefault(key, per_element)
