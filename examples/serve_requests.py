"""Multi-tenant serving: many small requests, few wide dispatches.

SIMDRAM's throughput comes from amortizing one bit-serial µProgram
over thousands of SIMD lanes — but real traffic arrives as many small
independent requests.  The serving layer bridges the two: compatible
requests (same kernel, same width) are *lane-packed* into shared wide
dispatches, and each caller gets its own slice of the result through a
``ServeHandle`` future.

This example serves two tenants with different fair-share weights,
mixes catalog ops, a fused expression and a captured lazy graph in one
corked burst, and prints the telemetry the packer produces.
"""

import numpy as np

from repro import SimdramCluster, SimdramConfig, lazy
from repro.core import expr
from repro.dram.geometry import DramGeometry
from repro.serve import SimdramService

config = SimdramConfig(geometry=DramGeometry.sim_small(
    cols=32, data_rows=256, banks=2))
rng = np.random.default_rng(11)

with SimdramCluster(2, config=config) as cluster, \
        SimdramService(
            cluster, tenants={"free": 1.0, "pro": 4.0}) as service:

    # Warm the kernel caches from the declared op manifest, so the
    # first real request replays an installed µProgram.
    manifest = service.warmup([("add", 8), ("mul", 8)])
    print(f"warmed {manifest['n_kernels']} kernels in "
          f"{manifest['seconds'] * 1e3:.0f} ms")

    # The service is work-conserving: a request that finds the queues
    # empty and the target idle is dispatched at once, and requests
    # share a dispatch when they wait together — because the target is
    # busy, or, as here, because one script submits them as a burst
    # under hold(), which corks the queues until the block ends.
    with service.hold():
        # 1) A burst of small catalog requests from two tenants.  All
        #    "add" @ 8-bit requests share one kernel identity, so the
        #    packer concatenates their lanes into shared dispatches.
        handles = []
        for i in range(24):
            tenant = "pro" if i % 3 else "free"
            a = rng.integers(0, 256, 4)
            b = rng.integers(0, 256, 4)
            handles.append((service.submit("add", a, b, width=8,
                                           tenant=tenant),
                            (a + b) % 256))

        # 2) A fused expression request (rides in the same burst under
        #    its own kernel identity).
        root = expr.relu(expr.sub(expr.inp("x"), expr.const(100)))
        x = rng.integers(0, 256, 6)
        expr_handle = service.submit(root, feeds={"x": x}, width=8)

        # 3) A captured lazy graph — ordinary array code, serving-ready.
        px = lazy.array(rng.integers(0, 200, 5), width=8,
                        device=lazy.device(cluster))
        lazy_handle = service.submit(px + 10, tenant="pro")

    for handle, golden in handles:
        assert np.array_equal(handle.result(60), golden)
    print(f"24 catalog requests verified; e.g. {handles[0][0]!r}")
    print(f"expression request -> {expr_handle.result(60)}")
    print(f"lazy-graph request -> {lazy_handle.result(60)}")

    stats = service.stats()
    packing = stats["packing"]
    print(f"dispatches: {packing['dispatches']} for "
          f"{packing['packed_requests']} requests "
          f"({packing['requests_per_dispatch']:.1f} per dispatch, "
          f"{packing['packing_efficiency']:.0%} saved)")
    print(f"lane occupancy: {packing['lane_occupancy']:.0%} of "
          f"{stats['queue']['capacity_lanes']} lanes")
    print(f"latency p50/p99: {stats['latency_ms']['p50']:.1f} / "
          f"{stats['latency_ms']['p99']:.1f} ms")
    for tenant, counters in stats["tenants"].items():
        print(f"  tenant {tenant!r}: {counters['completed']} served, "
              f"{counters['lanes']} lanes")
