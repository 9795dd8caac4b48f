"""The telemetry schema of :class:`~repro.serve.SimdramService` is
pinned: every nested key of ``stats()`` and every metric family of one
``prometheus()`` scrape, for a cluster target and a ``ReplicaRouter``
target.  Dashboards, alert rules and the benchmarks read these names;
a change here is a deliberate, visible edit to this file.
"""

from __future__ import annotations

import re

import pytest

from repro.core.framework import SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.obs.metrics import MetricsRegistry
from repro.runtime import SimdramCluster
from repro.serve import SimdramService
from repro.serve.router import ReplicaRouter

#: Mappings whose keys are data (tenant names, replica ids), written
#: ``*`` in a key path.
KEYED_BY_DATA = {"tenants", "replicas"}

STATS_KEYS = {
    "energy", "energy.modeled_request_nj_total",
    "energy.nj_per_request_mean", "energy.requests_metered",
    "failover", "failover.replica_deaths", "failover.requeued_requests",
    "kernels_cached",
    "latency_ms", "latency_ms.max", "latency_ms.p50", "latency_ms.p99",
    "latency_ms.samples", "latency_ms.window", "latency_ms.window_max",
    "modeled_busy_ns",
    "packing", "packing.dispatches", "packing.flushes",
    "packing.flushes.explicit", "packing.flushes.full",
    "packing.flushes.ready", "packing.flushes.timer",
    "packing.lane_occupancy", "packing.lanes_dispatched",
    "packing.packed_requests", "packing.packing_efficiency",
    "packing.requests_per_dispatch", "packing.sequential_fallbacks",
    "paging", "paging.fill_bits", "paging.n_fills", "paging.n_spills",
    "paging.spill_bits",
    "queue", "queue.capacity_lanes", "queue.in_flight", "queue.max_queue",
    "queue.queued",
    "replicas",
    "requests", "requests.completed", "requests.failed",
    "requests.in_flight", "requests.rejected", "requests.shed",
    "requests.submitted",
    "slo", "slo.elapsed_s", "slo.goodput_rps", "slo.late", "slo.on_time",
    "slo.shed", "slo.with_deadline",
    "tenants", "tenants.*", "tenants.*.completed", "tenants.*.energy_nj",
    "tenants.*.failed", "tenants.*.lanes", "tenants.*.rejected",
    "tenants.*.shed",
    "tenants.*.submitted",
}

#: What a service on a ``ReplicaRouter`` adds: per-replica dispatch
#: counters and the ``replica_tier`` block.
ROUTER_STATS_KEYS = {
    "replicas.*", "replicas.*.dispatches", "replicas.*.lanes",
    "replicas.*.requests",
    "replica_tier", "replica_tier.alive", "replica_tier.replicas",
    "replica_tier.replicas.*",
    *(f"replica_tier.replicas.*.{key}" for key in (
        "alive", "busy_ns", "in_flight", "jobs_done", "kernels_cached",
        "paging", "paging.fill_bits", "paging.n_fills",
        "paging.n_spills", "paging.spill_bits", "pid", "pings_sent",
        "pongs_received", "rtt_avg_s", "rtt_last_s")),
    "replica_tier.router", "replica_tier.router.orphaned",
    "replica_tier.router.outstanding", "replica_tier.router.rebalanced",
}

FAMILIES = {
    "repro_failover_replica_deaths_total", "repro_failover_requeued_total",
    "repro_kernels_cached", "repro_modeled_busy_ns",
    "repro_paging_fill_bits", "repro_paging_n_fills",
    "repro_paging_n_spills", "repro_paging_spill_bits",
    "repro_pmu_commands_total", "repro_pmu_dispatches_total",
    "repro_pmu_energy_nj_total", "repro_pmu_kernel_activations_total",
    "repro_pmu_kernel_dispatches_total", "repro_pmu_lane_duty_cycle",
    "repro_pmu_row_activations_total",
    "repro_pmu_transposition_bits_total", "repro_pmu_window_utilization",
    "repro_request_energy_joules", "repro_serve_flushes_total",
    "repro_serve_goodput",
    "repro_serve_lane_occupancy", "repro_serve_latency_ms",
    "repro_serve_pack_dispatches", "repro_serve_pack_lanes",
    "repro_serve_pack_packed_requests",
    "repro_serve_pack_sequential_fallbacks",
    "repro_serve_packing_efficiency", "repro_serve_queue_depth",
    "repro_serve_request_latency_seconds",
    "repro_serve_requests_in_flight", "repro_serve_requests_total",
    "repro_serve_slo_requests_total", "repro_serve_tenant_requests_total",
    "repro_trace_dropped_total",
}

ROUTER_FAMILIES = {
    "repro_replica_alive", "repro_replica_in_flight",
    "repro_replica_jobs_done_total", "repro_router_orphaned_total",
    "repro_router_outstanding_packs", "repro_router_rebalanced_total",
}

#: Exported once a heartbeat has answered, so a scrape may lack them.
RTT_FAMILIES = {"repro_replica_rtt_seconds", "repro_replica_rtt_avg_seconds"}


def key_paths(value, prefix: tuple = ()) -> set[str]:
    paths = set()
    if isinstance(value, dict):
        for key, sub in value.items():
            name = "*" if prefix and prefix[-1] in KEYED_BY_DATA else key
            paths.add(".".join((*prefix, str(name))))
            paths |= key_paths(sub, (*prefix, str(name)))
    return paths


def families(scrape: str) -> set[str]:
    return set(re.findall(r"^# TYPE (\S+) ", scrape, re.MULTILINE))


@pytest.fixture(scope="module")
def snapshots() -> dict:
    """``(stats, scrape)`` after one request, per target kind.  Both
    scrapes are taken while the cluster is open, so the process-wide
    PMU has a module, a kernel and a tenant to report either way."""
    config = SimdramConfig(geometry=DramGeometry.sim_small(
        cols=32, data_rows=256, banks=2))
    out = {}
    with SimdramCluster(1, config=config) as cluster, \
            SimdramService(cluster, registry=MetricsRegistry()) as service:
        service.submit("add", [1], [2], width=8, tenant="a").result(60)
        out["cluster"] = service.stats(), service.prometheus()
        with ReplicaRouter(1, config=config) as router, \
                SimdramService(router,
                               registry=MetricsRegistry()) as replicated:
            replicated.submit("add", [1], [2], width=8,
                              tenant="a").result(60)
            out["router"] = replicated.stats(), replicated.prometheus()
    return out


def test_cluster_stats_keys(snapshots):
    stats, _ = snapshots["cluster"]
    assert key_paths(stats) == STATS_KEYS


def test_router_stats_keys(snapshots):
    stats, _ = snapshots["router"]
    assert key_paths(stats) == STATS_KEYS | ROUTER_STATS_KEYS


def test_cluster_scrape_families(snapshots):
    _, scrape = snapshots["cluster"]
    assert families(scrape) == FAMILIES


def test_router_scrape_families(snapshots):
    _, scrape = snapshots["router"]
    found = families(scrape) - RTT_FAMILIES
    assert found == FAMILIES | ROUTER_FAMILIES
