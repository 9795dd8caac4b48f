"""Telemetry for the serving layer.

One :class:`ServeMetrics` per :class:`~repro.serve.SimdramService` is
the service's one store of serving facts.  Each fact is recorded once,
on a :class:`~repro.obs.metrics.Counter` or
:class:`~repro.obs.metrics.Histogram` of the ``ServeMetrics``' own
:class:`~repro.obs.metrics.MetricsRegistry`, and both read paths read
those instruments: :meth:`ServeMetrics.snapshot` (``service.stats()``)
and :meth:`ServeMetrics.samples` (the service's scrape collector), so
the two cannot disagree.  The store is per service: two services on one
shared registry never mix their counts.

* **requests** — one per-tenant counter by outcome,
  ``repro_serve_tenant_requests_total{state,tenant}`` (``state="shed"``
  is the per-tenant shed count); the totals
  ``repro_serve_requests_total{state}`` and ``in_flight`` are its sums,
  and ``stats()["tenants"]`` adds each tenant's lanes submitted and
  modeled energy completed;
* **latency** — ``repro_serve_request_latency_seconds``, plus a bounded
  **reservoir** of the most recent :data:`RESERVOIR` completions for
  ``p50``/``p99`` (``latency_ms.max`` is the lifetime maximum, never
  evicted; ``window_max`` the maximum inside the window);
* **packing** — ``repro_serve_pack_*`` totals, labelled ``replica=``
  when a :class:`~repro.serve.router.ReplicaRouter` replica ran the
  dispatch (``stats()["replicas"]`` is that slice), and
  ``repro_serve_flushes_total{reason}``; *lane occupancy* and *packing
  efficiency* are derived;
* **failover** — every replica death the router reported, and the
  dispatches it re-queued onto survivors (the one count of either);
* **SLO** — ``repro_serve_slo_requests_total{state}`` (with a deadline,
  on time, late; *shed* is the request counter's state) and the
  derived **goodput** (on-time completions per second of lifetime);
* **modeled energy** — ``repro_request_energy_joules``: each completed
  request is charged its kernel's µProgram nanojoules
  (:class:`RequestEnergyModel`) times the lanes it occupied.

Every family is present from the first scrape, zero-valued until
traffic arrives.  The per-request recorders (``record_submit``,
``record_completion``, ...) run on every request and stream step, so
they build no label dicts: a tenant's five ``(state, tenant)`` series
keys are resolved once, when the store first meets the tenant, and the
SLO and unlabelled keys are constants; each fact is then one keyed add
on its instrument.  All methods are thread-safe; one lock makes each
recording and each read atomic, so a snapshot never shows a request
completed before it was submitted.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from repro.obs import clock
from repro.obs.metrics import MetricsRegistry, Sample, _label_key

#: Latency samples kept for the percentile estimates.  Old samples
#: fall off, so long-running services report *recent* tail latency.
RESERVOIR = 8192

#: Why a pack group was flushed; the label set of
#: ``repro_serve_flushes_total`` (every reason is always present).
FLUSH_REASONS = ("full", "ready", "timer", "explicit")

#: Request outcomes, the ``state`` label of the request counters.
REQUEST_STATES = ("submitted", "completed", "failed", "rejected", "shed")

#: Deadline verdicts, the ``state`` label of
#: ``repro_serve_slo_requests_total`` (every state is always present).
SLO_STATES = ("with_deadline", "on_time", "late")

#: Series key of each SLO state on ``repro_serve_slo_requests_total``.
_SLO_KEYS = {state: _label_key({"state": state}) for state in SLO_STATES}

#: Buckets of the per-request energy histogram: ~0.1 nJ to ~100 mJ in
#: powers of four — kernels cost nanojoules per element, requests
#: carry up to thousands of lanes.
ENERGY_BUCKETS = tuple(1e-10 * 4.0 ** i for i in range(16))

_PACK_HELP = "lane-packer dispatch totals"


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


def _by_replica(series: dict) -> "tuple[int, dict[int, int]]":
    """A pack counter's total over every series, and its per-replica
    slice (the series labelled ``replica=``)."""
    total, per_replica = 0, {}
    for key, value in series.items():
        total += int(value)
        if key:
            per_replica[int(dict(key)["replica"])] = int(value)
    return total, per_replica


class ServeMetrics:
    """One service's serving facts, each on one registry instrument
    (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: The store: instruments of a registry private to this
        #: service, exported through :meth:`samples`.
        self.registry = MetricsRegistry()
        counter = self.registry.counter
        self._requests = counter("repro_serve_tenant_requests_total",
                                 "per-tenant requests by outcome")
        self._slo = counter("repro_serve_slo_requests_total",
                            "deadline-carrying requests by verdict")
        self._dispatches = counter("repro_serve_pack_dispatches",
                                   _PACK_HELP)
        self._packed = counter("repro_serve_pack_packed_requests",
                               _PACK_HELP)
        self._lanes = counter("repro_serve_pack_lanes", _PACK_HELP)
        self._fallbacks = counter("repro_serve_pack_sequential_fallbacks",
                                  _PACK_HELP)
        self._flushes = counter("repro_serve_flushes_total",
                                "pack-group flushes by what decided them")
        self._deaths = counter("repro_failover_replica_deaths_total",
                               "replica deaths the service observed")
        self._requeued = counter("repro_failover_requeued_total",
                                 "in-flight requests re-homed to survivors")
        self._latency = self.registry.histogram(
            "repro_serve_request_latency_seconds",
            "submit-to-resolution latency of completed requests")
        self._energy = self.registry.histogram(
            "repro_request_energy_joules",
            "modeled DRAM energy per completed request (J)",
            buckets=ENERGY_BUCKETS)
        self.reset()

    def reset(self) -> None:
        """Zero every instrument and side table, and the latency
        reservoir (including the lifetime max) — so one bench harness
        can reuse a warm service across measured phases without
        earlier phases polluting the numbers."""
        with self._lock:
            self.registry.reset()
            for reason in FLUSH_REASONS:
                self._flushes.inc(0, reason=reason)
            for key in _SLO_KEYS.values():
                self._slo._add(key, 0)
            #: Each seen tenant's request series keys, by state (also
            #: the set of tenants whose request series are seeded).
            self._tenant_keys: dict[str, dict[str, tuple]] = {}
            #: Lanes submitted per tenant (``stats()`` only).
            self._tenant_lanes: dict[str, int] = {}
            #: Modeled energy (nJ) of completed requests per tenant
            #: (``stats()`` only).
            self._tenant_energy_nj: dict[str, float] = {}
            #: Sum over dispatches of lanes / flush capacity (for the
            #: mean; ``stats()`` and the occupancy gauge only).
            self._occupancy_sum = 0.0
            self._latencies: deque[float] = deque(maxlen=RESERVOIR)
            self._lifetime_max_s = 0.0
            #: Goodput denominator: service lifetime.
            self._started_at = clock.now()

    def _see_tenant(self, tenant: str) -> "dict[str, tuple]":
        """The tenant's request series keys, by state.  First sight of
        a tenant resolves them and seeds its five request series at
        zero, so its exposition rows exist before its first outcome
        (call under ``_lock``)."""
        keys = self._tenant_keys.get(tenant)
        if keys is None:
            keys = self._tenant_keys[tenant] = {
                state: _label_key({"state": state, "tenant": tenant})
                for state in REQUEST_STATES}
            self._tenant_lanes[tenant] = 0
            self._tenant_energy_nj[tenant] = 0.0
            for key in keys.values():
                self._requests._add(key, 0)
        return keys

    # ------------------------------------------------------------------
    # recording (called from submitter, worker and router threads)
    # ------------------------------------------------------------------
    def record_submit(self, tenant: str, lanes: int,
                      has_deadline: bool = False) -> None:
        with self._lock:
            self._requests._add(self._see_tenant(tenant)["submitted"], 1.0)
            self._tenant_lanes[tenant] += lanes
            if has_deadline:
                self._slo._add(_SLO_KEYS["with_deadline"], 1.0)

    def record_reject(self, tenant: str) -> None:
        with self._lock:
            self._requests._add(self._see_tenant(tenant)["rejected"], 1.0)

    def record_dispatch(self, n_requests: int, lanes: int,
                        capacity: int,
                        replica: int | None = None) -> None:
        labels = {} if replica is None else {"replica": str(replica)}
        with self._lock:
            self._dispatches.inc(**labels)
            self._packed.inc(n_requests, **labels)
            self._lanes.inc(lanes, **labels)
            self._occupancy_sum += min(1.0, lanes / max(1, capacity))

    def record_fallback(self) -> None:
        with self._lock:
            self._fallbacks.inc()

    def record_flush(self, reason: str) -> None:
        with self._lock:
            self._flushes.inc(reason=reason)

    def record_failover(self, replica: int, n_requeued: int) -> None:
        """One replica died with ``n_requeued`` dispatches in flight
        (each re-submitted to a survivor by the router; 0 when it died
        idle)."""
        with self._lock:
            self._deaths.inc()
            self._requeued.inc(n_requeued)

    def record_completion(self, tenant: str, latency_s: float,
                          on_time: "bool | None" = None,
                          energy_nj: "float | None" = None) -> None:
        """One resolved request.  ``on_time`` is ``None`` when the
        request carried no deadline, else whether it met it;
        ``energy_nj`` is the modeled DRAM energy charged to it (absent
        when the energy model could not price the kernel)."""
        with self._lock:
            self._requests._add(self._see_tenant(tenant)["completed"], 1.0)
            if on_time is not None:
                self._slo._add(_SLO_KEYS["on_time" if on_time else "late"],
                               1.0)
            if energy_nj is not None:
                self._energy._observe((), energy_nj * 1e-9)
                self._tenant_energy_nj[tenant] += energy_nj
            self._latency._observe((), latency_s)
            self._latencies.append(latency_s)
            if latency_s > self._lifetime_max_s:
                self._lifetime_max_s = latency_s

    def record_failure(self, tenant: str) -> None:
        with self._lock:
            self._requests._add(self._see_tenant(tenant)["failed"], 1.0)

    def record_shed(self, tenant: str) -> None:
        """One request dropped un-executed because its deadline lapsed
        (``DeadlineExceeded``) — counted apart from failures so goodput
        math and load-shedding visibility don't blur into errors."""
        with self._lock:
            self._requests._add(self._see_tenant(tenant)["shed"], 1.0)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Everything, as one plain dict (see module docstring)."""
        with self._lock:
            return self._snapshot()

    def samples(self) -> "list[Sample]":
        """The scrape rows: every instrument as recorded, then the
        series read off them (request totals and in-flight, reservoir
        percentiles, occupancy, packing efficiency, goodput)."""
        with self._lock:
            out = self.registry.collect()
            snap = self._snapshot()
        req, lat, pack = snap["requests"], snap["latency_ms"], snap["packing"]
        for state in REQUEST_STATES:
            out.append(Sample("repro_serve_requests_total", req[state],
                              (("state", state),), "counter",
                              "requests by outcome"))
        out.append(Sample("repro_serve_requests_in_flight",
                          req["in_flight"], (), "gauge",
                          "accepted requests not yet resolved"))
        for q in ("p50", "p99", "max", "window_max"):
            out.append(Sample("repro_serve_latency_ms", lat[q],
                              (("quantile", q),), "gauge",
                              "reservoir latency percentiles (ms)"))
        out.append(Sample("repro_serve_lane_occupancy",
                          pack["lane_occupancy"], (), "gauge",
                          "mean lanes carried / flush capacity"))
        out.append(Sample("repro_serve_packing_efficiency",
                          pack["packing_efficiency"], (), "gauge",
                          "dispatches saved vs one per request"))
        out.append(Sample("repro_serve_goodput",
                          snap["slo"]["goodput_rps"], (), "gauge",
                          "completions within deadline per second"))
        return out

    def _snapshot(self) -> dict:
        """:meth:`snapshot` under the caller's ``_lock``."""
        tenants = {}
        for key, value in self._requests.series().items():
            labels = dict(key)
            row = tenants.setdefault(labels["tenant"],
                                     dict.fromkeys(REQUEST_STATES, 0))
            row[labels["state"]] = int(value)
        for tenant, row in tenants.items():
            row["lanes"] = self._tenant_lanes.get(tenant, 0)
            row["energy_nj"] = self._tenant_energy_nj.get(tenant, 0.0)
        totals = {state: sum(row[state] for row in tenants.values())
                  for state in REQUEST_STATES}
        samples = list(self._latencies)
        dispatches, per_dispatches = _by_replica(self._dispatches.series())
        packed, per_packed = _by_replica(self._packed.series())
        lanes, per_lanes = _by_replica(self._lanes.series())
        elapsed_s = max(1e-9, clock.now() - self._started_at)
        on_time = int(self._slo.value(state="on_time"))
        metered = self._energy.count()
        energy_nj = self._energy.sum() * 1e9
        return {
            "requests": {
                **totals,
                "in_flight": (totals["submitted"] - totals["completed"]
                              - totals["failed"] - totals["shed"]),
            },
            "slo": {
                "with_deadline": int(self._slo.value(state="with_deadline")),
                "on_time": on_time,
                "late": int(self._slo.value(state="late")),
                "shed": totals["shed"],
                # Goodput = deadline-meeting completions per second
                # of service lifetime (reset() restarts the clock).
                "goodput_rps": on_time / elapsed_s,
                "elapsed_s": elapsed_s,
            },
            "energy": {
                "modeled_request_nj_total": energy_nj,
                "requests_metered": metered,
                "nj_per_request_mean": (
                    energy_nj / metered if metered else 0.0),
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
                "lanes_dispatched": lanes,
                # Mean over dispatches of lanes carried / lanes the
                # flush policy would have allowed.
                "lane_occupancy": (
                    self._occupancy_sum / dispatches
                    if dispatches else 0.0),
                # Fraction of dispatches lane-packing saved versus
                # one dispatch per request.
                "packing_efficiency": (
                    1.0 - dispatches / packed if packed else 0.0),
                "sequential_fallbacks": int(self._fallbacks.value()),
                "flushes": {reason: int(self._flushes.value(reason=reason))
                            for reason in FLUSH_REASONS},
            },
            "failover": {
                "replica_deaths": int(self._deaths.value()),
                "requeued_requests": int(self._requeued.value()),
            },
            "replicas": {rid: {"dispatches": count,
                               "requests": per_packed.get(rid, 0),
                               "lanes": per_lanes.get(rid, 0)}
                         for rid, count in sorted(per_dispatches.items())},
            "tenants": dict(sorted(tenants.items())),
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
